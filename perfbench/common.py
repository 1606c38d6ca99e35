"""Shared pieces of the benchmark: percentiles, the environment stamp,
the in-memory span tracer and the result record.

Nothing here imports ``repro`` at module level, so ``run.py`` can put the
checkout's ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import platform
import resource
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def pct(samples, q: float) -> float:
    """The ``q``-th percentile of ``samples`` (linear interpolation)."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50.0) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux.  Children count because the graph
    runtimes do their work in worker processes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def steal_s() -> float:
    """CPU seconds the hypervisor gave to others while this machine's
    CPUs wanted to run (summed over CPUs); 0 where not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def steal_mark() -> tuple[float, float]:
    return time.perf_counter(), steal_s()


def stolen_since(mark: tuple[float, float]) -> float:
    """Share of this machine's CPU time since ``mark`` (a
    :func:`steal_mark`) that the host gave to others."""
    t0, s0 = mark
    wall = max(time.perf_counter() - t0, 1e-9)
    return (steal_s() - s0) / (wall * (os.cpu_count() or 1))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will actually use, read through ctypes.

    ``OMP_NUM_THREADS`` says nothing when it is unset; the library's own
    answer does.  Returns ``None`` when no OpenBLAS is mapped.
    """
    import numpy  # noqa: F401  (maps the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(durability: str | None) -> dict:
    """The runtime environment every result is stamped with."""
    from repro.core import jit_status

    return {
        "n_cpus": os.cpu_count(),
        "blas_threads": blas_threads(),
        "omp_num_threads_env": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jit": jit_status(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "durability": durability,
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for calls into the program's layers.

    A span is ``(id, name, start, end, parent, request)``.  The parent is
    the innermost open span on the calling thread; a span opened on
    another thread (the server's event loop, a lane) finds its parent
    through ``link``: the caller registers its open span under a key the
    callee can compute, e.g. ``(tenant, op)`` with one request in flight
    per key.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, request=None, link=None, link_as=None):
        """Record one span; ``link`` finds a cross-thread parent and
        ``link_as`` publishes this span for callees on other threads."""
        stack = self._stack()
        parent, req = (stack[-1] if stack else (None, None))
        if parent is None and link is not None:
            parent, req = self._links.get(link, (None, None))
        sid = next(self._ids)
        req = request if request is not None else req
        stack.append((sid, req))
        if link_as is not None:
            self._links[link_as] = (sid, req)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            if link_as is not None:
                self._links.pop(link_as, None)
            self.spans.append((sid, name, start, end, parent, req))

    def wrap(self, obj, attr: str, name: str, *, request=None, link=None,
             link_as=None):
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``link``/``link_as`` are callables of the call's arguments that
        return the link key.  Returns the undo callable.
        """
        inner = getattr(obj, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(
                name,
                request=request,
                link=link(*args, **kwargs) if link else None,
                link_as=link_as(*args, **kwargs) if link_as else None,
            ):
                return inner(*args, **kwargs)

        wrapper.__wrapped__ = inner
        had_own = attr in getattr(obj, "__dict__", {})
        setattr(obj, attr, wrapper)

        def undo():
            if had_own:
                setattr(obj, attr, inner)
            else:
                delattr(obj, attr)

        return undo

    def layers(self) -> dict[str, dict]:
        """Per span name: count, duration p50/p99 (ms) and self total (ms).

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _n, s, e, parent, _r in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((s, e))
        out: dict[str, dict] = {}
        for sid, name, s, e, _p, _r in self.spans:
            covered = 0.0
            cur_s = cur_e = None
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, s), min(ce, e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            rec = out.setdefault(name, {"durs": [], "self_ms": 0.0})
            rec["durs"].append((e - s) * 1e3)
            rec["self_ms"] += (e - s - covered) * 1e3
        for rec in out.values():
            durs = rec.pop("durs")
            rec["count"] = len(durs)
            rec["total_ms"] = float(sum(durs))
            rec["mean_ms"] = rec["total_ms"] / len(durs)
            rec["p50_ms"] = pct(durs, 50)
            rec["p99_ms"] = pct(durs, 99)
        return out

    def durations_ms(self, name: str) -> dict:
        """Span durations (ms) of ``name``, grouped by request id."""
        out: dict = {}
        for _sid, n, s, e, _p, req in self.spans:
            if n == name:
                out.setdefault(req, []).append((e - s) * 1e3)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        import json

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, s, e, parent, req in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": s, "end": e,
                    "parent": parent,
                    "request": None if req is None else str(req),
                }) + "\n")


class Undo:
    """Collects undo callables of installed wrappers; restores in reverse."""

    def __init__(self) -> None:
        self._undo: list = []

    def add(self, fn) -> None:
        self._undo.append(fn)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def wrap_class(cls, attr: str, tracer: Tracer, name: str,
               undo: Undo) -> None:
    """Class-level span wrapper, for objects the benchmark cannot reach
    before the call (frozen snapshots, estimators inside a lane)."""
    own = cls.__dict__.get(attr)
    inner = getattr(cls, attr)

    def wrapper(self, *args, **kwargs):
        with tracer.span(name):
            return inner(self, *args, **kwargs)

    setattr(cls, attr, wrapper)
    undo.add(lambda: setattr(cls, attr, own) if own is not None
             else delattr(cls, attr))


def wrap_module(module, attr: str, tracer: Tracer, name: str,
                undo: Undo) -> None:
    """Module-level span wrapper for functions callers look up by
    attribute on every call (``repro.core.kernels``)."""
    undo.add(tracer.wrap(module, attr, name))


def stop_children(timeout_s: float = 5.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Graph workers and cluster hosts are normally joined by their runtime;
    any still alive are terminated here.  multiprocessing's forkserver and
    resource tracker are helpers that would otherwise outlive the run (they
    end only when they notice its exit), so they are stopped and reaped
    too.  Last, any other exited child is reaped.
    """
    import multiprocessing as mp
    from multiprocessing import forkserver, resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    import json

    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    })


def eprint(*args) -> None:
    print(*args, file=sys.stderr, flush=True)
