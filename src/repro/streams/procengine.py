"""ProcessEngine: a multi-process runtime completing the engine trilogy.

The paper's PEs run as separate OS processes placed across a cluster;
our :class:`~repro.streams.engine.ThreadedEngine` shares one GIL-bound
interpreter, so CPU-bound operators (robust PCA updates at large ``d``)
cannot scale past one core.  :class:`ProcessEngine` runs the same
operator graph with compute PEs in **worker processes** behind the same
``run()``/drain-shutdown contract as the other two engines.

Placement model (hybrid, like the paper's coordinator + compute nodes)
----------------------------------------------------------------------
Processing elements that contain a ``Source`` or ``Sink``, or any
operator named in ``main_ops``, execute in the **coordinator process**
on threads (reusing the threaded engine's PE runners); every other PE
becomes a worker process.  For the parallel-PCA application this puts
the source, batcher, split, sync controller, and diagnostics sink in the
coordinator and each PCA engine in its own process — blocks make
exactly one process hop, and run results (controller state, collected
diagnostics, operator counters) are read from coordinator-side objects
exactly as with the other runtimes.

Transport (see :mod:`repro.streams.shm`)
----------------------------------------
* ``BLOCK_SCHEMA`` data tuples cross on **shared-memory rings**: one
  bounded SPSC ring per (producer process → consumer process) edge,
  created lazily when the first block reveals ``d`` and announced over
  the destination's command queue.  The consumer dispatches numpy views
  into the mapped slot — block payloads are never pickled.
* Everything else (scalar/control tuples, punctuation, engine control)
  crosses on bounded ``multiprocessing`` queues as explicit wire dicts
  (:func:`repro.streams.tuples.to_wire`), with blocking backpressure.
  Each worker has one command queue in and, per incarnation, one queue
  of its own back to the coordinator: no worker shares a writer lock
  or a byte stream into the coordinator with another.

Ordering is FIFO *per transport*.  A producer's queue traffic can
overtake its in-flight ring blocks (and vice versa) — harmless for the
PCA sync protocol, whose control messages are order-tolerant — with one
exception that is **not** tolerable: punctuation.  A channel's
punctuation is therefore held back by the consumer until that
producer's ring has drained (the producer always publishes its blocks
before emitting punctuation, so the holdback is sufficient).

Shutdown and fault tolerance
----------------------------
The two-phase drain protocol matches the threaded engine: a shared
in-flight counter covers every cross-process message; the coordinator
raises ``finish`` only when sources are done, every PE (thread or
process) has quiesced, and nothing is in flight.  Workers then drain
their inboxes, ship each operator's data-only :func:`final_state` (plus
their metrics shard and transport counters) to the coordinator, and
exit; the coordinator folds it into the graph's own operators with
:func:`apply_final_state`, so ``RunStats`` and application-level result
collection are runtime-agnostic.

A worker that dies mid-run is detected by the coordinator.  If the
attached :class:`~repro.streams.supervision.Supervisor` gives any of the
worker's operators a
:class:`~repro.streams.supervision.RestartFromCheckpoint` policy, the
worker is respawned with ``resume=True`` — operators reload their last
snapshot from the policy's on-disk
:class:`~repro.io.checkpoint.CheckpointStore`, the unread contents of
the command queue and ring survive (both are process-external), and the
coordinator re-announces rings and re-sends any punctuation the dead
worker had already received.  Loss is bounded to tuples that were being
dispatched at the instant of death plus operator state since the last
checkpoint.  Without a restart policy a worker death aborts the run
with :class:`~repro.streams.supervision.OperatorFailure`.

A SIGKILL can land in the middle of a queue operation.  On the way out
the dead worker can tear only its own queue to the coordinator, which
then reads EOF and drops it (frames written before the death are still
delivered).  On the way in, a worker waits for input outside its
command queue's reader lock; a lock still held at death therefore means
it died reading a frame, and the respawn gets a fresh command queue
(what the old one held is counted crash loss) unless another worker
also writes to it.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue
import threading
import time
import traceback
import uuid
from copy import copy as _shallow_copy
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..core.eigensystem import Eigensystem
from .batcher import BLOCK_SCHEMA
from .engine import RunStats, _PERunner, _SourceRunner
from .fusion import FusionPlan, ProcessingElement
from .graph import Graph
from .operators import Operator, Sink, Source
from .split import Split
from .supervision import (
    EngineAborted,
    OperatorFailure,
    RestartFromCheckpoint,
    StallDetected,
    Supervisor,
    Watchdog,
)
from .telemetry import (
    BackpressureSampler,
    Telemetry,
    operator_metric_samples,
)
from .tuples import (
    StreamTuple,
    TupleKind,
    from_wire,
    reseed_sequence,
    to_wire,
    tuple_from_fields,
)
from .shm import (
    BlockRing,
    RingFull,
    ensure_shared_tracker,
    ring_name,
    safe_mp_context,
)

__all__ = ["ProcessEngine"]

#: Attributes never shipped across the process boundary: runtime wiring
#: (closures), telemetry objects (hold locks), and probe callables.
_UNPICKLABLE_ATTRS = (
    "_emit", "_load_probe", "_latency_hist", "_telemetry",
    "_e2e_hist", "_watermark", "_health_monitor",
    "_state_lock", "_snapshot_listeners",
)

_MAIN = "main"


def _loc_str(loc: Any) -> str:
    return _MAIN if loc == _MAIN else f"w{loc}"


def _sanitize(op: Operator) -> Operator:
    """A shallow copy of ``op`` safe to pickle into a worker."""
    clone = _shallow_copy(op)
    for attr in _UNPICKLABLE_ATTRS:
        if hasattr(clone, attr):
            setattr(clone, attr, None)
    return clone


def _scalars(obj: Any) -> dict[str, int | float]:
    return {k: v for k, v in vars(obj).items() if isinstance(v, (int, float))}


def _set_scalars(obj: Any, values: Mapping[str, Any]) -> None:
    # Overwrite only attributes already holding a scalar, only with a
    # scalar: in the cluster runtime the values come off a socket.
    own, num = vars(obj), (int, float)
    for k, v in values.items():
        if isinstance(v, num) and isinstance(own.get(k), num):
            own[k] = v


def final_state(op: Operator) -> dict[str, Any]:
    """The data-only state a remote operator ships home at end of run:
    its scalar counters (what ``RunStats``, telemetry and
    ``diagnostics()`` read) and, for an operator driving an
    ``estimator``, the estimator's counters plus its full ``p+q``
    eigensystem — or, still in warm-up, its buffered rows."""
    msg: dict[str, Any] = {"counters": _scalars(op)}
    est = getattr(op, "estimator", None)
    if est is not None and hasattr(est, "adopt_state"):
        msg["estimator"] = _scalars(est)
        if est.is_initialized:
            msg["state"] = dict(vars(est.state))
        else:
            msg["warmup"] = est._buffer.view()
    return msg


def apply_final_state(op: Operator, msg: Mapping[str, Any]) -> None:
    """Fold a :func:`final_state` message into the coordinator's ``op``."""
    _set_scalars(op, msg.get("counters", {}))
    est = getattr(op, "estimator", None)
    if est is None or "estimator" not in msg:
        return
    if "state" in msg:
        est.adopt_state(Eigensystem(**msg["state"]))
    else:
        est._buffer.clear()
        est._buffer.extend(np.asarray(msg["warmup"], dtype=np.float64))
    _set_scalars(est, msg["estimator"])


def _unlink_segment(name: str) -> None:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass


# ---------------------------------------------------------------------------
# Transport sender (used by the coordinator and by every worker)
# ---------------------------------------------------------------------------


class _TransportSender:
    """Routes outgoing tuples onto the right transport.

    ``BLOCK_SCHEMA`` data tuples that fit a ring slot go to the lazily
    created shared-memory ring for their destination process (announced
    over the destination's queue before first use); everything else is
    wire-encoded onto the destination's bounded queue.  Every message
    increments the shared in-flight counter before it is made visible.

    With ``coalesce=True`` (workers — their sender is single-threaded by
    construction) queue-path tuples are not shipped one ``"tuple"``
    message each: they accumulate in a per-destination pending list that
    :meth:`flush` ships as one ``"tuples"`` batch per loop iteration.
    One queue put, one pickle header and one in-flight lock acquisition
    then cover the whole batch — this is what keeps per-row diagnostics
    fan-in from dominating the coordinator (see docs/performance.md §8).
    The coordinator's own sender keeps ``coalesce=False``: it is shared
    by several PE threads and per-message puts are already off the block
    hot path there.
    """

    #: Pending-batch cap per destination before an eager flush.
    _COALESCE_MAX = 64

    def __init__(
        self,
        src_loc: Any,
        run_id: str,
        queues: Mapping[Any, Any],
        inflight,
        stop_check,
        op_index: Mapping[str, int],
        *,
        ring_slots: int,
        slot_rows: int,
        disown_rings: bool,
        coalesce: bool = False,
    ) -> None:
        self.src_loc = src_loc
        self.run_id = run_id
        self.queues = dict(queues)
        self.inflight = inflight
        self.stop_check = stop_check
        self.op_index = op_index
        self.ring_slots = ring_slots
        self.slot_rows = slot_rows
        self.disown_rings = disown_rings
        self.coalesce = coalesce
        #: dst_loc -> [(dst_name, dst_port, wire), ...] awaiting flush.
        self._pending: dict[Any, list[tuple[str, int, dict]]] = {}
        self.rings: dict[Any, BlockRing] = {}
        self.counters = {
            "blocks_ring": 0,
            "blocks_queue": 0,
            "tuples_queue": 0,
            "tuple_batches": 0,
        }

    # -- in-flight helpers ----------------------------------------------

    def _inc(self, n: int = 1) -> None:
        with self.inflight.get_lock():
            self.inflight.value += n

    def _dec(self, n: int = 1) -> None:
        with self.inflight.get_lock():
            self.inflight.value -= n

    # -- queue path -----------------------------------------------------

    def _qput(self, dst_loc: Any, msg: dict) -> None:
        while True:
            # Looked up on every retry: a respawn may replace the
            # destination's queue while this put waits on the old one.
            q = self.queues[dst_loc]
            try:
                q.put(msg, timeout=0.05)
                return
            except queue.Full:
                if self.stop_check():
                    raise EngineAborted from None

    def send_raw(self, dst_loc: Any, msg: dict) -> None:
        """Send a non-tuple control message (no in-flight accounting)."""
        self._qput(dst_loc, msg)

    # -- ring path ------------------------------------------------------

    def _ring_for(self, dst_loc: Any, dim: int) -> BlockRing | None:
        ring = self.rings.get(dst_loc)
        if ring is not None:
            return ring if ring.dim == dim else None
        name = ring_name(
            self.run_id, _loc_str(self.src_loc), _loc_str(dst_loc)
        )
        ring = BlockRing(
            name,
            slots=self.ring_slots,
            slot_rows=self.slot_rows,
            dim=dim,
            create=True,
        )
        if self.disown_rings:
            ring.disown()
        self.rings[dst_loc] = ring
        self.announce(dst_loc)
        return ring

    def announce(self, dst_loc: Any) -> None:
        """(Re-)announce the ring for ``dst_loc`` on its queue."""
        ring = self.rings.get(dst_loc)
        if ring is None:
            return
        self.send_raw(dst_loc, {
            "t": "ring",
            "src": self.src_loc,
            "name": ring.name,
            "slots": ring.slots,
            "rows": ring.slot_rows,
            "dim": ring.dim,
        })

    # -- the one entry point --------------------------------------------

    def send(
        self, dst_loc: Any, dst_name: str, dst_port: int, tup: StreamTuple
    ) -> None:
        if tup.is_data and tup.schema is BLOCK_SCHEMA:
            xs = tup.payload["xs"]
            if (
                isinstance(xs, np.ndarray)
                and xs.ndim == 2
                and xs.shape[0] <= self.slot_rows
            ):
                ring = self._ring_for(dst_loc, xs.shape[1])
                if ring is not None:
                    self._inc()
                    try:
                        ring.put(
                            self.op_index[dst_name],
                            dst_port,
                            xs,
                            tup.payload.get("seqs"),
                            tup.seq,
                            tup.event_ts,
                            should_abort=self.stop_check,
                            timeout_s=120.0,
                        )
                    except RingFull:
                        self._dec()
                        if self.stop_check():
                            raise EngineAborted from None
                        raise
                    self.counters["blocks_ring"] += 1
                    return
            # Oversized block or dimension change: visible fallback.
            self.counters["blocks_queue"] += 1
        else:
            self.counters["tuples_queue"] += 1
        if self.coalesce:
            # Counted at append: the shared counter must cover the tuple
            # from the instant it leaves the operator, or the quiesce
            # check could fire while it sits in the pending list.
            self._inc()
            pending = self._pending.setdefault(dst_loc, [])
            pending.append((dst_name, dst_port, to_wire(tup)))
            if len(pending) >= self._COALESCE_MAX:
                self._flush_dst(dst_loc)
            return
        msg = {
            "t": "tuple",
            "src": self.src_loc,
            "dst": dst_name,
            "port": dst_port,
            "wire": to_wire(tup),
        }
        self._inc()
        try:
            self._qput(dst_loc, msg)
        except EngineAborted:
            self._dec()
            raise

    def _flush_dst(self, dst_loc: Any) -> None:
        items = self._pending.get(dst_loc)
        if not items:
            return
        self._pending[dst_loc] = []
        self.counters["tuple_batches"] += 1
        try:
            self._qput(
                dst_loc,
                {"t": "tuples", "src": self.src_loc, "items": items},
            )
        except EngineAborted:
            self._dec(len(items))
            raise

    def flush(self) -> None:
        """Ship every pending coalesced batch (one message per dest)."""
        for dst_loc in list(self._pending):
            self._flush_dst(dst_loc)

    def close(self, *, unlink: bool) -> None:
        for ring in self.rings.values():
            ring.close()
            if unlink:
                ring.unlink()


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything a worker process needs, picklable under any start method."""

    worker_id: int
    label: str
    ops: list[Operator]
    op_index: dict[str, int]
    idx_names: list[str]
    #: op name -> out port -> [(dst_loc, dst_name, dst_port)]
    routes: dict[str, dict[int, list[tuple[Any, str, int]]]]
    cmd_q: Any
    #: This worker's own queue to the coordinator (set per incarnation).
    main_q: Any
    peer_qs: dict[int, Any]
    inflight: Any
    stop_ev: Any
    finish_ev: Any
    run_id: str
    queue_size: int
    ring_slots: int
    slot_rows: int
    policies: dict[str, Any] = field(default_factory=dict)
    metrics: bool = True
    resume: bool = False


def _dec_inflight(spec: _WorkerSpec, n: int = 1) -> None:
    with spec.inflight.get_lock():
        spec.inflight.value -= n


def _worker_main(spec: _WorkerSpec) -> None:
    """Worker process entry point (top-level: importable under spawn)."""
    try:
        _worker_loop(spec)
    except EngineAborted:
        pass
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            spec.main_q.put(
                {
                    "t": "error",
                    "w": spec.worker_id,
                    "error": repr(exc),
                    "traceback": traceback.format_exc(),
                },
                timeout=5.0,
            )
        except Exception:
            pass
        spec.stop_ev.set()


def _worker_loop(spec: _WorkerSpec) -> None:
    reseed_sequence(spec.worker_id + 1)
    wid = spec.worker_id
    ops_by_name = {op.name: op for op in spec.ops}
    supervisor = Supervisor(policies=spec.policies) if spec.policies else None

    queues: dict[Any, Any] = {_MAIN: spec.main_q}
    queues.update(spec.peer_qs)
    sender = _TransportSender(
        wid,
        spec.run_id,
        queues,
        spec.inflight,
        spec.stop_ev.is_set,
        spec.op_index,
        ring_slots=spec.ring_slots,
        slot_rows=spec.slot_rows,
        disown_rings=True,
        coalesce=True,
    )

    def deliver(op: Operator, tup: StreamTuple, port: int) -> None:
        if supervisor is not None:
            supervisor.dispatch(op, tup, port)
        else:
            op._dispatch(tup, port)

    for op in spec.ops:
        op_routes = spec.routes.get(op.name, {})

        def emit(
            tup: StreamTuple,
            port: int,
            _routes: dict = op_routes,
        ) -> None:
            for dst_loc, dst_name, dst_port in _routes.get(port, ()):
                if dst_loc == wid:
                    deliver(ops_by_name[dst_name], tup, dst_port)
                else:
                    sender.send(dst_loc, dst_name, dst_port, tup)

        op.bind(emit)

    # Checkpoint resume: a restarted worker reloads each restartable
    # operator's last persisted snapshot before opening it.
    if spec.resume:
        for name, policy in spec.policies.items():
            if not isinstance(policy, RestartFromCheckpoint):
                continue
            if policy.store is None:
                continue
            op = ops_by_name.get(name)
            if op is None or not hasattr(op, "restore_state"):
                continue
            snap = policy.store.load_latest()
            if snap is not None:
                op.restore_state(snap)

    for op in spec.ops:
        op.open()

    # Inbound rings, keyed by segment name (a restarted producer creates
    # a *new* segment for the same source, and both must keep draining),
    # with a source → rings view for punctuation holdback.
    rings: dict[str, BlockRing] = {}
    rings_of: dict[Any, list[BlockRing]] = {}
    held: list[tuple[Any, str, int, StreamTuple]] = []
    quiesced_sent = False

    def src_has_blocks(src: Any) -> bool:
        return any(r.depth() > 0 for r in rings_of.get(src, ()))

    def drain_rings() -> bool:
        progressed = False
        for ring in rings.values():
            while True:
                item = ring.get()
                if item is None:
                    break
                _dec_inflight(spec)
                name = spec.idx_names[item.dst_idx]
                tup = tuple_from_fields(
                    {
                        "xs": item.xs,
                        "seqs": item.seqs,
                        "count": int(item.xs.shape[0]),
                    },
                    TupleKind.DATA,
                    BLOCK_SCHEMA,
                    item.tuple_seq,
                    item.event_ts,
                )
                try:
                    # The payload views into the ring slot are valid only
                    # during this dispatch; the slot is released after.
                    deliver(ops_by_name[name], tup, item.dst_port)
                finally:
                    ring.release()
                progressed = True
        return progressed

    def release_held() -> bool:
        progressed = False
        remaining = []
        for src, name, port, tup in held:
            if src_has_blocks(src):
                remaining.append((src, name, port, tup))
                continue
            deliver(ops_by_name[name], tup, port)
            progressed = True
        held[:] = remaining
        return progressed

    def dispatch_wire(src: Any, dst: str, port: int, wire: dict) -> None:
        tup = from_wire(wire)
        if tup.is_punctuation and src_has_blocks(src):
            # Punctuation holdback: this producer's blocks are still
            # in its ring; dispatching end-of-stream now would lose
            # them.  Deliver once the ring drains.
            held.append((src, dst, port, tup))
            return
        deliver(ops_by_name[dst], tup, port)

    def handle(msg: dict) -> bool:
        kind = msg["t"]
        if kind == "tuple":
            _dec_inflight(spec)
            dispatch_wire(msg["src"], msg["dst"], msg["port"], msg["wire"])
            return True
        if kind == "tuples":
            # A coalesced batch: one in-flight decrement for all items.
            items = msg["items"]
            _dec_inflight(spec, len(items))
            src = msg["src"]
            for dst, port, wire in items:
                dispatch_wire(src, dst, port, wire)
            return True
        if kind == "ring":
            if msg["name"] not in rings:
                ring = BlockRing(
                    msg["name"],
                    slots=msg["slots"],
                    slot_rows=msg["rows"],
                    dim=msg["dim"],
                    create=False,
                )
                rings[msg["name"]] = ring
                rings_of.setdefault(msg["src"], []).append(ring)
            return True
        return False  # "finish" wake-up sentinel

    while True:
        if spec.stop_ev.is_set():
            break
        progressed = drain_rings()
        try:
            # After ring progress there is usually more ring traffic
            # right behind; poll the command queue without the blocking
            # timeout so the pipeline never stalls on an idle syscall.
            # The idle wait polls outside the queue's reader lock, so
            # a SIGKILL that lands in it leaves the lock free; a held
            # lock at death then means the victim died mid-read.
            if not progressed:
                spec.cmd_q._reader.poll(0.002)
            msg = spec.cmd_q.get_nowait()
        except queue.Empty:
            msg = None
        if msg is not None:
            progressed = handle(msg) or progressed
        if held:
            progressed = release_held() or progressed
        # Ship everything the iteration's dispatches emitted as one
        # batch per destination (bounded latency: one loop iteration).
        sender.flush()
        if not quiesced_sent and all(op.is_closed for op in spec.ops):
            spec.main_q.put({"t": "quiesced", "w": wid})
            quiesced_sent = True
        if (
            spec.finish_ev.is_set()
            and not progressed
            and not held
            and all(r.depth() == 0 for r in rings.values())
        ):
            break

    if spec.stop_ev.is_set():
        for ring in rings.values():
            ring.close()
        sender.close(unlink=False)
        return

    # Ship final operator state, the metrics shard, supervision stats and
    # transport counters back to the coordinator.
    payloads = {op.name: final_state(op) for op in spec.ops}
    shard = (
        [
            (name, kind, dict(labels), float(value))
            for name, kind, labels, value in operator_metric_samples(spec.ops)
        ]
        if spec.metrics
        else []
    )
    sup_stats = None
    if supervisor is not None:
        s = supervisor.stats
        sup_stats = {
            "failures": dict(s.failures),
            "retries": dict(s.retries),
            "skipped_tuples": dict(s.skipped_tuples),
            "restarts": dict(s.restarts),
            "recovery_time_s": dict(s.recovery_time_s),
        }
    transport = dict(sender.counters)
    transport["blocks_ring_in"] = sum(r.blocks_out for r in rings.values())
    spec.main_q.put({
        "t": "done",
        "w": wid,
        "ops": payloads,
        "metrics": shard,
        "sup": sup_stats,
        "transport": transport,
        "rings": [r.name for r in sender.rings.values()]
        + [r.name for r in rings.values()],
    })
    for ring in rings.values():
        ring.close()
    sender.close(unlink=False)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ProcessEngine:
    """Multi-process runtime with shared-memory block transport.

    Parameters
    ----------
    graph:
        The application graph — unchanged operator code runs under all
        three engines.
    fusion:
        PE assignment; default :meth:`FusionPlan.per_operator`.
    main_ops:
        Names of operators pinned to the coordinator process (sources
        and sinks are always pinned).  PEs containing only unpinned
        non-source/sink operators become worker processes.
    queue_size:
        Bound of each cross-process command queue (backpressure).
    ring_slots / ring_slot_rows:
        Shared-memory ring geometry per transport edge: ``ring_slots``
        blocks of up to ``ring_slot_rows`` rows each.  Keep
        ``ring_slot_rows`` ≥ the upstream batch size or blocks fall back
        to the (pickled, counted) queue path.  See
        ``docs/performance.md``.
    mp_context:
        Start-method name (``"fork"``/``"forkserver"``/``"spawn"``) or
        ``None`` for :func:`repro.streams.shm.safe_mp_context`.  When a
        supervisor carries ``RestartFromCheckpoint`` policies the
        default prefers ``forkserver``: restarts fork from a clean
        server instead of the by-then multi-threaded coordinator.
    supervisor:
        Coordinator-side supervisor.  Its *policies* (not the object —
        it holds locks) are shipped to workers, which run their own
        in-process supervisor; worker stats merge back at shutdown.
        ``RestartFromCheckpoint`` policies additionally enable worker
        respawn on process death.
    telemetry:
        Coordinator telemetry.  Metrics and backpressure sampling work
        across processes (worker registries merge back as
        ``process``-labelled shards); span tracing does not propagate
        across the process boundary and is ignored.
    stall_timeout_s:
        Arm a :class:`~repro.streams.supervision.Watchdog` on
        coordinator-visible progress (local dispatches, worker
        messages, ring drains).  When progress stops for this long, a
        *wedged* worker — alive but making no progress, e.g. stuck in a
        hung syscall — covered by a ``RestartFromCheckpoint`` policy is
        terminated and respawned from its checkpoint, exactly like a
        crashed one; with no restartable worker to blame the run fails
        fast with :class:`StallDetected` instead of hanging until
        ``timeout_s``.  Must exceed the slowest single-tuple processing
        time plus worker startup.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        fusion: FusionPlan | None = None,
        main_ops: Iterable[str] = (),
        queue_size: int = 256,
        ring_slots: int = 8,
        ring_slot_rows: int = 64,
        mp_context: str | None = None,
        supervisor: Supervisor | None = None,
        telemetry: Telemetry | None = None,
        stall_timeout_s: float | None = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.fusion = fusion or FusionPlan.per_operator(graph)
        self.fusion.validate(graph)
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self.ring_slots = ring_slots
        self.ring_slot_rows = ring_slot_rows
        self.supervisor = supervisor
        self.telemetry = telemetry
        self.stall_timeout_s = stall_timeout_s
        self._watchdog: Watchdog | None = None
        self._tracer = None  # tracing is not propagated across processes
        if telemetry is not None:
            telemetry.attach_graph(graph, fusion=self.fusion)
            if supervisor is not None:
                telemetry.attach_supervisor(supervisor)

        known = {op.name for op in graph}
        self.main_ops = set(main_ops)
        unknown = self.main_ops - known
        if unknown:
            raise ValueError(
                f"main_ops name unknown operators: {sorted(unknown)}"
            )

        if mp_context is None and supervisor is not None and any(
            isinstance(p, RestartFromCheckpoint)
            for p in supervisor.policies.values()
        ):
            # Worker respawn happens while coordinator threads are live;
            # forking the coordinator then is unsafe.
            if "forkserver" in mp.get_all_start_methods():
                mp_context = "forkserver"
        self._ctx = safe_mp_context(mp_context)

        self._ops_by_name: dict[str, Operator] = {
            op.name: op for op in graph
        }
        self._op_index = {op.name: i for i, op in enumerate(graph.operators)}
        self._idx_names = [op.name for op in graph.operators]

        # Placement: worker PEs vs coordinator PEs.
        self._worker_pes: dict[int, ProcessingElement] = {}
        self._main_pes: list[ProcessingElement] = []
        next_wid = 0
        for pe in self.fusion.pes:
            if self._pinned(pe):
                self._main_pes.append(pe)
            else:
                self._worker_pes[next_wid] = pe
                next_wid += 1
        self._loc_of: dict[str, Any] = {}
        for pe in self._main_pes:
            for op in pe.operators:
                self._loc_of[op.name] = _MAIN
        for wid, pe in self._worker_pes.items():
            for op in pe.operators:
                self._loc_of[op.name] = wid
        #: Workers another worker sends to directly: their command queue
        #: has writers outside the coordinator, so it is never replaced.
        self._peer_fed: set[int] = {
            self._loc_of[dst.name]
            for wid, pe in self._worker_pes.items()
            for op in pe.operators
            for port in range(op.n_outputs)
            for dst, _ in self.graph.successors(op, port)
            if self._loc_of[dst.name] not in (_MAIN, wid)
        }

        # Coordinator-side threading state (mirrors ThreadedEngine).
        self._inboxes: dict[int, queue.Queue] = {}
        self._pe_of: dict[int, ProcessingElement] = {}
        self._stop = threading.Event()
        self._finish = threading.Event()
        self._errors: list[BaseException] = []
        self._local_inflight = 0
        self._local_lock = threading.Lock()

        # Cross-process state, populated by run().
        self._procs: dict[int, Any] = {}
        self._specs: dict[int, _WorkerSpec] = {}
        self._cmd_qs: dict[int, Any] = {}
        #: One queue per worker incarnation into the coordinator, each
        #: with a single writer process, so a worker killed mid-put can
        #: hold no lock and tear no frame that another worker needs.
        #: The receiver drops a queue at EOF (its writer is gone).
        self._up_qs: list[Any] = []
        self._up_lock = threading.Lock()
        self._retired_qs: list[Any] = []
        self._quiesced: set[int] = set()
        self._done: dict[int, dict] = {}
        self._worker_deaths = 0
        self._death_grace: dict[int, float] = {}
        self._sent_puncts: dict[int, set[tuple[str, int]]] = {}
        self._main_rings: dict[str, BlockRing] = {}
        self._main_rings_of: dict[Any, list[BlockRing]] = {}
        self._held: list[tuple[Any, str, int, StreamTuple]] = []
        self._worker_ring_names: set[str] = set()
        self._sender: _TransportSender | None = None
        #: Aggregated transport counters, merged from every process at
        #: shutdown.  ``blocks_queue`` staying 0 verifies the zero-copy
        #: hot path.
        self.transport_stats: dict[str, int] = {}

    # -- placement -------------------------------------------------------

    def _pinned(self, pe: ProcessingElement) -> bool:
        return any(
            isinstance(op, (Source, Sink)) or op.name in self.main_ops
            for op in pe.operators
        )

    @property
    def n_workers(self) -> int:
        """Worker processes this graph will run with."""
        return len(self._worker_pes)

    # -- in-flight accounting (coordinator local + shared) --------------

    def _tuple_enqueued(self) -> None:
        with self._local_lock:
            self._local_inflight += 1

    def _tuple_done(self) -> None:
        with self._local_lock:
            self._local_inflight -= 1
        if self._watchdog is not None:
            self._watchdog.poke()

    def _dec_shared(self, n: int = 1) -> None:
        with self._inflight.get_lock():
            self._inflight.value -= n

    # -- dispatch (coordinator threads) ----------------------------------

    def _deliver(self, dst: Operator, tup: StreamTuple, port: int) -> None:
        if self.supervisor is not None:
            self.supervisor.dispatch(dst, tup, port)
        else:
            dst._dispatch(tup, port)

    _dispatch = _deliver  # _PERunner calls engine._dispatch

    def _local_put(self, pe_id: int, item) -> None:
        inbox = self._inboxes[pe_id]
        self._tuple_enqueued()
        while True:
            try:
                inbox.put(item, timeout=0.05)
                return
            except queue.Full:
                if self._stop.is_set():
                    with self._local_lock:
                        self._local_inflight -= 1
                    raise EngineAborted from None

    # -- wiring ----------------------------------------------------------

    def _routes_for(
        self, op: Operator
    ) -> dict[int, list[tuple[Any, str, int]]]:
        routes: dict[int, list[tuple[Any, str, int]]] = {}
        for port in range(op.n_outputs):
            entries = [
                (self._loc_of[dst.name], dst.name, in_port)
                for dst, in_port in self.graph.successors(op, port)
            ]
            if entries:
                routes[port] = entries
        return routes

    def _wire_main(self) -> None:
        for pe in self._main_pes:
            inbox: queue.Queue = queue.Queue(maxsize=self.queue_size)
            self._inboxes[pe.pe_id] = inbox
            for op in pe.operators:
                self._pe_of[id(op)] = pe

        for pe in self._main_pes:
            for op in pe.operators:
                routes = self._routes_for(op)

                def emit(
                    tup: StreamTuple,
                    port: int,
                    _routes: dict = routes,
                    _my_pe: ProcessingElement = pe,
                ) -> None:
                    for dst_loc, dst_name, dst_port in _routes.get(port, ()):
                        if dst_loc == _MAIN:
                            dst = self._ops_by_name[dst_name]
                            dst_pe = self._pe_of[id(dst)]
                            if dst_pe is _my_pe:
                                self._dispatch(dst, tup, dst_port)
                            else:
                                self._local_put(
                                    dst_pe.pe_id, (dst, dst_port, tup)
                                )
                        else:
                            if tup.is_punctuation:
                                self._sent_puncts.setdefault(
                                    dst_loc, set()
                                ).add((dst_name, dst_port))
                            self._sender.send(
                                dst_loc, dst_name, dst_port, tup
                            )

                op.bind(emit)
                if isinstance(op, Split):
                    op.set_load_probe(self._make_probe(op))

    def _make_probe(self, split: Split):
        def probe(port: int) -> int:
            succ = self.graph.successors(split, port)
            if not succ:
                return 0
            dst = succ[0][0]
            loc = self._loc_of[dst.name]
            if loc == _MAIN:
                dst_pe = self._pe_of[id(dst)]
                if dst_pe is self._pe_of.get(id(split)):
                    return 0
                return self._inboxes[dst_pe.pe_id].qsize()
            return self._transport_depth(loc)

        return probe

    def _transport_depth(self, wid: int) -> int:
        depth = 0
        try:
            depth += self._cmd_qs[wid].qsize()
        except (NotImplementedError, OSError):  # pragma: no cover - macOS
            pass
        if self._sender is not None:
            ring = self._sender.rings.get(wid)
            if ring is not None:
                depth += ring.depth()
        return depth

    # -- worker lifecycle ------------------------------------------------

    def _worker_policies(self, pe: ProcessingElement) -> dict[str, Any]:
        if self.supervisor is None:
            return {}
        return {
            op.name: self.supervisor.policies[op.name]
            for op in pe.operators
            if op.name in self.supervisor.policies
        }

    def _build_spec(self, wid: int, pe: ProcessingElement) -> _WorkerSpec:
        return _WorkerSpec(
            worker_id=wid,
            label=pe.label(),
            ops=[_sanitize(op) for op in pe.operators],
            op_index=self._op_index,
            idx_names=self._idx_names,
            routes={
                op.name: self._routes_for(op) for op in pe.operators
            },
            cmd_q=self._cmd_qs[wid],
            main_q=None,
            peer_qs={
                w: q for w, q in self._cmd_qs.items() if w != wid
            },
            inflight=self._inflight,
            stop_ev=self._stop_ev,
            finish_ev=self._finish_ev,
            run_id=self._run_id,
            queue_size=self.queue_size,
            ring_slots=self.ring_slots,
            slot_rows=self.ring_slot_rows,
            policies=self._worker_policies(pe),
            metrics=(
                self.telemetry is not None and self.telemetry.config.metrics
            ),
        )

    def _start_worker(self, wid: int) -> None:
        spec = self._specs[wid]
        up_q = self._ctx.Queue(maxsize=max(self.queue_size * 4, 1024))
        spec.main_q = up_q
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec,),
            name=f"repro-{spec.label}",
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end, so its death reads as
        # EOF on the receiver, even in the middle of a torn frame.
        up_q._writer.close()
        with self._up_lock:
            self._up_qs.append(up_q)
        self._procs[wid] = proc

    def _restartable(self, wid: int) -> bool:
        if self.supervisor is None:
            return False
        pe = self._worker_pes[wid]
        for op in pe.operators:
            policy = self.supervisor.policies.get(op.name)
            if isinstance(policy, RestartFromCheckpoint):
                n = self.supervisor.stats.restarts.get(op.name, 0)
                if policy.max_restarts is None or n < policy.max_restarts:
                    return True
        return False

    def _check_workers(self) -> None:
        for wid, proc in list(self._procs.items()):
            if wid in self._done or proc.is_alive():
                self._death_grace.pop(wid, None)
                continue
            if proc.exitcode == 0:
                # Clean exit: the final "done" message may still be in
                # transit to the receiver; give it a grace window before
                # declaring the worker dead.
                first_seen = self._death_grace.setdefault(
                    wid, time.perf_counter()
                )
                if time.perf_counter() - first_seen < 5.0:
                    continue
            self._death_grace.pop(wid, None)
            # Worker process died before reporting done.
            self._worker_deaths += 1
            pe = self._worker_pes[wid]
            if not self._restartable(wid):
                raise OperatorFailure(
                    pe.label(),
                    RuntimeError(
                        f"worker process exited with code {proc.exitcode}"
                    ),
                    "no RestartFromCheckpoint policy covers this PE",
                )
            for op in pe.operators:
                if isinstance(
                    self.supervisor.policies.get(op.name),
                    RestartFromCheckpoint,
                ):
                    stats = self.supervisor.stats
                    stats.restarts[op.name] = (
                        stats.restarts.get(op.name, 0) + 1
                    )
            self._quiesced.discard(wid)
            if self._unpoison_cmd_queue(wid) and wid not in self._peer_fed:
                self._replace_cmd_queue(wid)
            spec = self._specs[wid]
            spec.resume = True
            self._start_worker(wid)
            # The new worker re-attaches the surviving queue/ring state;
            # re-announce coordinator rings and re-send punctuation the
            # dead worker had already consumed into local memory.
            if self._sender is not None:
                self._sender.announce(wid)
            for dst_name, dst_port in sorted(
                self._sent_puncts.get(wid, ())
            ):
                self._sender.send(
                    wid, dst_name, dst_port, StreamTuple.punctuation()
                )

    def _unpoison_cmd_queue(self, wid: int) -> bool:
        """Release the command queue's reader lock if the dead worker
        took it to the grave; return whether it had to.

        A worker SIGKILLed inside ``Queue.get_nowait`` dies holding the
        queue's shared ``_rlock``.  The respawned worker would then read
        nothing, producers spin on Full, and the run livelocks until the
        graph timeout.  The dead worker was this queue's only reader, so
        an unavailable lock here can only be the victim's orphaned hold
        — force-release it.  The worker waits for input outside the
        lock, so an orphaned hold means it died reading a frame, and
        the byte stream may be torn mid-frame.
        """
        rlock = getattr(self._cmd_qs.get(wid), "_rlock", None)
        if rlock is None:  # pragma: no cover - exotic Queue implementation
            return False
        if rlock.acquire(block=False):
            rlock.release()
            return False
        try:
            rlock.release()
        except ValueError:  # pragma: no cover - lost the (benign) race
            pass
        return True

    def _replace_cmd_queue(self, wid: int) -> None:
        """Give a worker that died mid-read a fresh command queue.

        The old queue's byte stream may be torn mid-frame, which the
        respawn would read as garbage.  What it still held is lost —
        counted, like any crash loss, by the in-flight grace period in
        :meth:`run`.  Only the coordinator writes to the queue (see
        ``_peer_fed``), so swapping its one reference is enough.
        """
        old = self._cmd_qs[wid]
        fresh = self._ctx.Queue(maxsize=self.queue_size)
        self._cmd_qs[wid] = fresh
        self._specs[wid].cmd_q = fresh
        if self._sender is not None:
            self._sender.queues[wid] = fresh
        self._retired_qs.append(old)

    def _check_stall(self) -> None:
        """Recover from a wedged (alive but progress-free) worker.

        A worker stuck in a hung syscall never dies, so
        :meth:`_check_workers` never fires; the watchdog converts "no
        coordinator-visible progress for ``stall_timeout_s``" into a
        worker termination, and the normal death path respawns it from
        its checkpoint.  Without a restartable worker to blame, failing
        fast beats hanging until the run timeout.
        """
        wd = self._watchdog
        if wd is None:
            return
        idle = wd.stalled_for()
        if idle is None:
            return
        wedged = [
            wid for wid, proc in self._procs.items()
            if proc.is_alive()
            and wid not in self._quiesced and wid not in self._done
        ]
        killable = [wid for wid in wedged if self._restartable(wid)]
        if not killable:
            raise StallDetected(
                f"graph {self.graph.name!r}: no coordinator-visible "
                f"progress for {idle:.1f}s and no wedged worker with a "
                f"RestartFromCheckpoint policy to recover "
                f"(wedged: {wedged})"
            )
        for wid in killable:
            proc = self._procs[wid]
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)
        wd.poke()  # the kill is progress; _check_workers respawns them

    # -- receiver thread -------------------------------------------------

    def _route_to_main(
        self, dst_name: str, tup: StreamTuple, port: int
    ) -> None:
        dst = self._ops_by_name[dst_name]
        self._local_put(self._pe_of[id(dst)].pe_id, (dst, port, tup))

    def _src_has_blocks(self, src: Any) -> bool:
        return any(
            r.depth() > 0 for r in self._main_rings_of.get(src, ())
        )

    def _drain_main_rings(self) -> bool:
        progressed = False
        for ring in self._main_rings.values():
            while True:
                item = ring.get()
                if item is None:
                    break
                self._dec_shared()
                name = self._idx_names[item.dst_idx]
                # Copy out of the slot: delivery is asynchronous (via a
                # PE inbox), so views into the ring cannot outlive the
                # release.  Still no pickling — one memcpy.
                tup = tuple_from_fields(
                    {
                        "xs": np.array(item.xs, copy=True),
                        "seqs": np.array(item.seqs, copy=True),
                        "count": int(item.xs.shape[0]),
                    },
                    TupleKind.DATA,
                    BLOCK_SCHEMA,
                    item.tuple_seq,
                    item.event_ts,
                )
                ring.release()
                self._route_to_main(name, tup, item.dst_port)
                progressed = True
        if progressed and self._watchdog is not None:
            self._watchdog.poke()
        return progressed

    def _release_held(self) -> None:
        remaining = []
        for src, name, port, tup in self._held:
            if self._src_has_blocks(src):
                remaining.append((src, name, port, tup))
                continue
            self._route_to_main(name, tup, port)
        self._held[:] = remaining

    def _dispatch_wire(
        self, src: Any, dst: str, port: int, wire: dict
    ) -> None:
        tup = from_wire(wire)
        if tup.is_punctuation and self._src_has_blocks(src):
            self._held.append((src, dst, port, tup))
            return
        self._route_to_main(dst, tup, port)

    def _handle_main_msg(self, msg: dict) -> None:
        if self._watchdog is not None:
            self._watchdog.poke()
        kind = msg["t"]
        if kind == "tuple":
            self._dec_shared()
            self._dispatch_wire(
                msg["src"], msg["dst"], msg["port"], msg["wire"]
            )
        elif kind == "tuples":
            items = msg["items"]
            self._dec_shared(len(items))
            src = msg["src"]
            for dst, port, wire in items:
                self._dispatch_wire(src, dst, port, wire)
        elif kind == "ring":
            if msg["name"] not in self._main_rings:
                ring = BlockRing(
                    msg["name"],
                    slots=msg["slots"],
                    slot_rows=msg["rows"],
                    dim=msg["dim"],
                    create=False,
                )
                self._main_rings[msg["name"]] = ring
                self._main_rings_of.setdefault(msg["src"], []).append(ring)
                self._worker_ring_names.add(msg["name"])
        elif kind == "quiesced":
            self._quiesced.add(msg["w"])
        elif kind == "done":
            self._done[msg["w"]] = msg
            self._quiesced.add(msg["w"])
            self._worker_ring_names.update(msg.get("rings", ()))
        elif kind == "error":
            self._errors.append(
                OperatorFailure(
                    self._worker_pes[msg["w"]].label(),
                    RuntimeError(msg["error"]),
                    msg.get("traceback", ""),
                )
            )
            self._stop.set()
            self._stop_ev.set()

    def _recv_up(self, timeout: float) -> bool:
        """Handle at most one message from each worker queue that has
        one; a queue at EOF (its worker died) is dropped."""
        with self._up_lock:
            by_reader = {q._reader: q for q in self._up_qs}
        got = False
        for reader in mp_connection.wait(list(by_reader), timeout):
            q = by_reader[reader]
            try:
                msg = q.get_nowait()
            except queue.Empty:
                continue
            except (EOFError, OSError):
                # The writer is gone; a frame it tore dies with it.
                with self._up_lock:
                    self._up_qs.remove(q)
                self._retired_qs.append(q)
                continue
            self._handle_main_msg(msg)
            got = True
        return got

    def _receiver_loop(self) -> None:
        try:
            while True:
                progressed = self._drain_main_rings()
                # Same no-stall poll as the worker loop: only block on
                # the queues when the rings had nothing.
                if self._recv_up(0.0 if progressed else 0.005):
                    progressed = True
                if self._held:
                    self._release_held()
                if self._recv_halt.is_set() and not progressed:
                    return
                if self._stop.is_set() and not progressed:
                    # Keep draining while workers are still alive so their
                    # final puts cannot block the abort path.
                    if all(not p.is_alive() for p in self._procs.values()):
                        return
        except EngineAborted:
            pass
        except BaseException as exc:  # pragma: no cover - defensive
            self._errors.append(exc)
            self._stop.set()
            self._stop_ev.set()

    # -- run -------------------------------------------------------------

    def run(self, *, timeout_s: float = 300.0) -> RunStats:
        """Execute to completion; raises on worker/operator failure.

        Follows the same quiesce → drain → finish protocol as the
        threaded engine, extended with worker processes: completion
        requires every source thread done, every coordinator PE and
        every worker quiesced, and both in-flight counters (local thread
        hops, cross-process messages) at zero.
        """
        ctx = self._ctx
        ensure_shared_tracker()
        self._run_id = uuid.uuid4().hex[:8]
        self._stop_ev = ctx.Event()
        self._finish_ev = ctx.Event()
        self._inflight = ctx.Value("q", 0)
        self._cmd_qs = {
            wid: ctx.Queue(maxsize=self.queue_size)
            for wid in self._worker_pes
        }
        self._recv_halt = threading.Event()
        self._sender = _TransportSender(
            _MAIN,
            self._run_id,
            self._cmd_qs,
            self._inflight,
            self._stop.is_set,
            self._op_index,
            ring_slots=self.ring_slots,
            slot_rows=self.ring_slot_rows,
            disown_rings=False,
        )

        if self.telemetry is not None:
            self.telemetry.run_started(
                engine="process", graph=self.graph.name
            )

        # Specs are built (and, under spawn/forkserver, pickled) before
        # any coordinator thread starts: worker startup is spawn-safe by
        # construction.
        self._specs = {
            wid: self._build_spec(wid, pe)
            for wid, pe in self._worker_pes.items()
        }
        start = time.perf_counter()
        self._watchdog = (
            Watchdog(self.stall_timeout_s)
            if self.stall_timeout_s is not None
            else None
        )
        for wid in self._worker_pes:
            self._start_worker(wid)

        self._wire_main()
        for pe in self._main_pes:
            for op in pe.operators:
                op.open()

        pe_runners = []
        for pe in self._main_pes:
            if all(isinstance(op, Source) for op in pe.operators):
                continue
            pe_runners.append(_PERunner(pe, self._inboxes[pe.pe_id], self))
        src_threads = [
            _SourceRunner(src, self._errors, self._stop)
            for src in self.graph.sources
        ]
        receiver = threading.Thread(
            target=self._receiver_loop, name="proc-receiver", daemon=True
        )
        sampler = self._start_sampler()
        for t in src_threads + pe_runners:
            t.start()
        receiver.start()

        deadline = start + timeout_s
        inflight_stable_since: tuple[float, int] | None = None
        try:
            while True:
                if self._errors:
                    raise self._errors[0]
                self._check_workers()
                self._check_stall()
                shared = self._inflight.value
                quiet = (
                    all(not t.is_alive() for t in src_threads)
                    and all(r.quiesced.is_set() for r in pe_runners)
                    and set(self._worker_pes)
                    <= (self._quiesced | set(self._done))
                    and self._local_inflight == 0
                )
                if quiet and shared <= 0:
                    break
                if quiet and self._worker_deaths:
                    # A crash can leak in-flight counts for messages that
                    # died inside the worker; once everything is quiesced
                    # and the count has been frozen for a grace period,
                    # treat the residue as the (bounded) crash loss.
                    now = time.perf_counter()
                    if inflight_stable_since is None:
                        inflight_stable_since = (now, shared)
                    elif inflight_stable_since[1] != shared:
                        inflight_stable_since = (now, shared)
                    elif now - inflight_stable_since[0] > 2.0:
                        break
                else:
                    inflight_stable_since = None
                if time.perf_counter() > deadline:
                    alive = [
                        f"w{w}" for w, p in self._procs.items()
                        if p.is_alive()
                    ] + [t.name for t in src_threads + pe_runners
                         if t.is_alive()]
                    raise RuntimeError(
                        f"graph {self.graph.name!r} did not finish within "
                        f"{timeout_s}s (still running: {alive})"
                    )
                time.sleep(0.002)

            # Global quiescence: raise finish everywhere, collect workers.
            self._finish.set()
            self._finish_ev.set()
            for wid, q in self._cmd_qs.items():
                try:
                    q.put_nowait({"t": "finish"})
                except queue.Full:
                    pass
            done_deadline = time.perf_counter() + 60.0
            while set(self._worker_pes) - set(self._done):
                if self._errors:
                    raise self._errors[0]
                self._check_workers()
                self._check_stall()
                if time.perf_counter() > done_deadline:
                    missing = sorted(set(self._worker_pes) - set(self._done))
                    raise RuntimeError(
                        f"workers {missing} did not report final state"
                    )
                time.sleep(0.002)
            for t in pe_runners:
                t.join(timeout=5.0)
            if self._errors:
                raise self._errors[0]
        finally:
            self._finish.set()
            self._finish_ev.set()
            self._stop.set()
            self._stop_ev.set()
            self._recv_halt.set()
            for t in src_threads + pe_runners:
                t.join(timeout=1.0)
            for proc in self._procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
            receiver.join(timeout=5.0)
            if sampler is not None:
                sampler.stop()
            self._cleanup_transport()

        self._apply_done()
        stats = RunStats.collect(
            self.graph, time.perf_counter() - start, self.supervisor
        )
        if self.telemetry is not None:
            self.telemetry.run_finished(stats)
        return stats

    # -- shutdown bookkeeping --------------------------------------------

    def _apply_done(self) -> None:
        """Fold worker results back into coordinator-side objects."""
        totals: dict[str, int] = {
            "blocks_ring": 0,
            "blocks_queue": 0,
            "tuples_queue": 0,
            "tuple_batches": 0,
            "blocks_ring_in": 0,
        }
        if self._sender is not None:
            for key, value in self._sender.counters.items():
                totals[key] += value
            totals["blocks_ring_in"] += sum(
                r.blocks_out for r in self._main_rings.values()
            )
        for wid, msg in self._done.items():
            for name, payload in msg["ops"].items():
                op = self._ops_by_name.get(name)
                if op is not None:
                    apply_final_state(op, payload)
            if self.telemetry is not None and msg.get("metrics"):
                self.telemetry.merge_shard(f"w{wid}", msg["metrics"])
            sup = msg.get("sup")
            if sup and self.supervisor is not None:
                stats = self.supervisor.stats
                for field_name in (
                    "failures", "retries", "skipped_tuples", "restarts",
                ):
                    table = getattr(stats, field_name)
                    for name, n in sup[field_name].items():
                        table[name] = table.get(name, 0) + n
                for name, s in sup["recovery_time_s"].items():
                    stats.recovery_time_s[name] = (
                        stats.recovery_time_s.get(name, 0.0) + s
                    )
            for key, value in msg.get("transport", {}).items():
                totals[key] = totals.get(key, 0) + value
        self.transport_stats = totals

    def _cleanup_transport(self) -> None:
        if self._sender is not None:
            self._sender.close(unlink=True)
        for ring in self._main_rings.values():
            ring.close()
        for name in self._worker_ring_names:
            _unlink_segment(name)
        for q in (
            list(self._cmd_qs.values()) + self._up_qs + self._retired_qs
        ):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - platform quirks
                pass

    # -- sampler ---------------------------------------------------------

    def _start_sampler(self) -> BackpressureSampler | None:
        tel = self.telemetry
        if tel is None or tel.config.sampler_interval_s is None:
            return None

        def probe():
            per_pe = [
                (
                    pe.label(),
                    self._inboxes[pe.pe_id].qsize(),
                    self.queue_size,
                )
                for pe in self._main_pes
            ]
            per_pe += [
                (
                    f"w{wid}:{pe.label()}",
                    self._transport_depth(wid),
                    self.queue_size + self.ring_slots,
                )
                for wid, pe in self._worker_pes.items()
            ]
            inflight = self._local_inflight + max(self._inflight.value, 0)
            dispatched = sum(
                op.tuples_in
                for pe in self._main_pes
                for op in pe.operators
            )
            return per_pe, inflight, dispatched

        sampler = BackpressureSampler(
            tel, probe, interval_s=tel.config.sampler_interval_s
        )
        sampler.start()
        return sampler
