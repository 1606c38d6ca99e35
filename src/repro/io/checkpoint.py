"""Eigensystem checkpointing.

Section III-C: "the intermediate calculation results are periodically
saved to the disk for future reference."  Checkpoints are ``.npz``
archives (compact, lossless float64) named by the observation count, so a
directory of them *is* the convergence history of a run.  The serving
layer keys its per-tenant checkpoints by snapshot version instead and
stores its restart accounting in the archive's JSON extras.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from typing import Any

import numpy as np

from ..core.eigensystem import Eigensystem

__all__ = [
    "save_eigensystem",
    "load_eigensystem",
    "load_eigensystem_extras",
    "fsync_directory",
    "CheckpointStore",
]

#: ``ckpt-`` is the name serving checkpoints were written under before
#: they moved into this store; it is still read so older data dirs recover.
_CKPT_RE = re.compile(r"^(?:eigensystem|ckpt)-(\d+)\.npz$")


def fsync_directory(directory: str | pathlib.Path) -> None:
    """fsync a directory so a just-replaced entry survives power loss.

    ``os.replace`` makes the rename atomic against concurrent readers,
    but the *directory entry* itself lives in the parent directory's
    data — until that is flushed, a power cut can roll the rename back
    and leave the old (or no) file.  Best-effort: platforms that cannot
    open a directory read-only for fsync (Windows) are skipped.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_eigensystem(
    path: str | pathlib.Path,
    state: Eigensystem,
    *,
    extras: dict[str, Any] | None = None,
    fsync: bool = False,
) -> None:
    """Write one eigensystem to an ``.npz`` file, atomically.

    Written via a temp file + :func:`os.replace` so a reader (or a
    process killed mid-write — e.g. a SIGKILLed worker that restarts
    from this very store) never observes a truncated archive.

    ``extras`` is an optional JSON-able dict stored alongside the
    arrays (no pickle — it crosses restarts as text); read it back with
    :func:`load_eigensystem_extras`.  ``fsync=True`` additionally
    fsyncs the temp file before the rename and the parent directory
    after it, making the checkpoint durable against power loss, not
    just process death.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    arrays = dict(
        mean=state.mean,
        basis=state.basis,
        eigenvalues=state.eigenvalues,
        scalars=np.array(
            [
                state.scale,
                state.sum_count,
                state.sum_weight,
                state.sum_weighted_r2,
                float(state.n_seen),
                float(state.n_since_sync),
            ]
        ),
    )
    if extras is not None:
        # A 0-d unicode array: numpy stores it without pickle, and the
        # JSON round-trip keeps the extras type-safe across restarts.
        arrays["extras_json"] = np.array(json.dumps(extras))
    np.savez(tmp, **arrays)
    if fsync:
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)


def load_eigensystem(path: str | pathlib.Path) -> Eigensystem:
    """Read an eigensystem written by :func:`save_eigensystem`."""
    return load_eigensystem_extras(path)[0]


def load_eigensystem_extras(
    path: str | pathlib.Path,
) -> tuple[Eigensystem, dict[str, Any]]:
    """Like :func:`load_eigensystem`, plus the ``extras`` dict (or {})."""
    extras: dict[str, Any] = {}
    with np.load(pathlib.Path(path)) as data:
        scal = data["scalars"]
        state = Eigensystem(
            mean=data["mean"],
            basis=data["basis"],
            eigenvalues=data["eigenvalues"],
            scale=float(scal[0]),
            sum_count=float(scal[1]),
            sum_weight=float(scal[2]),
            sum_weighted_r2=float(scal[3]),
            n_seen=int(scal[4]),
            n_since_sync=int(scal[5]),
        )
        if "extras_json" in data.files:
            loaded = json.loads(str(data["extras_json"]))
            if isinstance(loaded, dict):
                extras = loaded
    return state, extras


class CheckpointStore:
    """A directory of eigensystem snapshots, newest = highest key.

    Snapshots are keyed by observation count unless :meth:`save` is
    given another monotone key (the serving layer uses the snapshot
    version).  Every save is atomic; :meth:`load_latest` skips an
    unreadable newest snapshot for the next-newest.

    Parameters
    ----------
    directory:
        Created if missing.
    every:
        Snapshot period in observations; :meth:`maybe_save` is a cheap
        no-op between periods, so it can be called per update.
    keep:
        Retain at most this many snapshots (oldest pruned); ``None`` keeps
        everything — useful when the snapshots themselves are the
        experiment (Figs. 4–5 convergence history).  Long-running
        services should set this (or call :meth:`gc`) so the directory
        does not grow unboundedly.
    fsync:
        Make every save durable against power loss, not just process
        death: fsync the archive before the atomic rename and the
        directory after it.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        every: int = 1000,
        keep: int | None = None,
        fsync: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.keep = keep
        self.fsync = bool(fsync)
        # Resume over an existing directory: seed the period tracker from
        # the snapshots already on disk so the first maybe_save() after a
        # restart doesn't re-write (or double-count) a persisted state.
        snaps = self.list()
        self._last_saved_at = snaps[-1][0] if snaps else -1
        self.last_saved_unix: float | None = None
        if snaps:
            try:
                self.last_saved_unix = snaps[-1][1].stat().st_mtime
            except OSError:
                pass

    def _path_for(self, key: int) -> pathlib.Path:
        return self.directory / f"eigensystem-{key:012d}.npz"

    def maybe_save(self, state: Eigensystem) -> bool:
        """Snapshot if a full period elapsed since the last one."""
        if state.n_seen // self.every <= self._last_saved_at // self.every:
            if self._last_saved_at >= 0:
                return False
        self.save(state)
        return True

    def save(
        self,
        state: Eigensystem,
        extras: dict[str, Any] | None = None,
        *,
        key: int | None = None,
    ) -> pathlib.Path:
        """Snapshot unconditionally, under ``key`` (default: ``n_seen``).

        ``extras`` is stored with the arrays as JSON (see
        :func:`save_eigensystem`).
        """
        path = self._path_for(state.n_seen if key is None else int(key))
        save_eigensystem(path, state, extras=extras, fsync=self.fsync)
        self._last_saved_at = state.n_seen
        self.last_saved_unix = time.time()
        self._prune()
        return path

    def age_s(self, now: float | None = None) -> float | None:
        """Seconds since the newest snapshot was written (None if none)."""
        if self.last_saved_unix is None:
            return None
        return max(0.0, (now or time.time()) - self.last_saved_unix)

    def _prune(self) -> None:
        if self.keep is None:
            return
        self.gc(self.keep)

    def gc(self, keep_last: int) -> int:
        """Delete all but the newest ``keep_last`` snapshots.

        Retention GC for long-running services; returns the number of
        snapshots removed.  A snapshot that vanished underneath us
        (concurrent GC, manual cleanup) is not an error.
        """
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        snaps = self.list()
        removed = 0
        for _n_seen, path in snaps[: max(len(snaps) - keep_last, 0)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed and self.fsync:
            fsync_directory(self.directory)
        return removed

    def list(self) -> list[tuple[int, pathlib.Path]]:
        """All snapshots as ``(key, path)``, ascending."""
        out = []
        for path in self.directory.iterdir():
            m = _CKPT_RE.match(path.name)
            if m:
                out.append((int(m.group(1)), path))
        return sorted(out)

    def load_latest(self) -> Eigensystem | None:
        """The most recent *readable* snapshot (``None`` if none)."""
        loaded = self.load_latest_extras()
        return None if loaded is None else loaded[0]

    def load_latest_extras(
        self,
    ) -> tuple[Eigensystem, dict[str, Any]] | None:
        """The most recent *readable* snapshot and its extras.

        Snapshots written by current code are atomic, but a store may
        hold a truncated archive from an older writer or a torn copy;
        fall back to the next-newest rather than fail the restart.
        """
        for _, path in reversed(self.list()):
            try:
                return load_eigensystem_extras(path)
            except (OSError, EOFError, ValueError, KeyError):
                continue
        return None

    def load_history(self) -> list[tuple[int, Eigensystem]]:
        """Every snapshot — the convergence history."""
        return [(n, load_eigensystem(p)) for n, p in self.list()]
