"""Serving workloads: ``ingest`` (closed loop) and ``mixed`` (open loop).

Each round boots a fresh in-process :class:`ServingServer` (2 lanes, a
write-ahead log under the round's own data directory, durability
``async``), drives it over HTTP with :class:`ServingClient`, drains it,
checks what it produced, and shuts it down.  A run is several rounds;
the caller reads each figure across rounds.
"""

from __future__ import annotations

import bisect
import shutil
import threading
import time
from collections import deque

import numpy as np

from common import (
    CheckFailed, Tracer, Undo, median, pct, steal_mark, stolen_since,
    wrap_class, wrap_module,
)

DIM = 32
P = 4
BLOCK_ROWS = 64
QUERY_ROWS = 4
PUBLISH_EVERY = 4
INGEST_CLIENTS = 2
MIXED_ROWS_PER_S = 3000.0
#: Length of ``mixed``'s pre-made ingest schedule, in blocks.
MIXED_MAX_BLOCKS = 4096
MIXED_QUERIES_PER_S = 200.0
#: After an ``ingest`` round drains, the unloaded probe: blocks sent at a
#: fixed rate (a multiple of the publish cadence, so each is published),
#: then sequential queries.
PROBE_BLOCKS = 32
PROBE_BLOCKS_PER_S = 100.0
IDLE_QUERIES = 300
#: How long a traced round waits after its last ack before counting the
#: rows accepted but still invisible (the publish tail).
TAIL_WAIT_S = 1.0
#: Largest principal angle (radians) allowed between the published basis
#: and the planted subspace.
MAX_ANGLE = 0.1


class Inputs:
    """Rows from a planted ``P``-dimensional subspace, made from the seed."""

    def __init__(self, seed: int, n_blocks: int, n_queries: int) -> None:
        rng = np.random.default_rng(seed)
        self.basis, _ = np.linalg.qr(rng.normal(size=(DIM, P)))
        self.mean = rng.normal(size=DIM)
        scales = np.array([6.0, 4.0, 3.0, 2.0])

        def rows(n: int) -> np.ndarray:
            coeff = rng.normal(size=(n, P)) * scales
            noise = 0.1 * rng.normal(size=(n, DIM))
            return coeff @ self.basis.T + self.mean + noise

        self.blocks = rows(n_blocks * BLOCK_ROWS).reshape(
            n_blocks, BLOCK_ROWS, DIM
        )
        self.queries = rows(n_queries * QUERY_ROWS).reshape(
            n_queries, QUERY_ROWS, DIM
        )
        # Jittered probe send times (seconds from the probe's start), so
        # freshness is not quantized by the publish cadence.
        gaps = rng.uniform(0.5, 1.5, PROBE_BLOCKS) / PROBE_BLOCKS_PER_S
        self.probe_due = np.cumsum(gaps) - gaps[0]
        # ``mixed``'s ingest schedule: each block jittered about its slot
        # on a fixed grid, so the rate over any window is exact.
        slots = np.arange(MIXED_MAX_BLOCKS) + 0.5
        jitter = rng.uniform(-0.4, 0.4, MIXED_MAX_BLOCKS)
        self.mixed_due = (slots + jitter) * BLOCK_ROWS / MIXED_ROWS_PER_S


def check_query_reply(op: str, reply) -> str | None:
    """Why a query reply is malformed, or ``None`` when it is sound."""
    if reply.code != 200:
        return f"{op}: HTTP {reply.code}"
    body = reply.body
    if not isinstance(body, dict):
        return f"{op}: body is not a JSON object"
    version = body.get("snapshot_version")
    if not isinstance(version, int) or version < 1:
        return f"{op}: bad snapshot_version {version!r}"
    if body.get("dim") != DIM or body.get("n_components") != P:
        return f"{op}: bad dim/n_components"
    try:
        if op == "transform":
            coeff = np.asarray(body["coefficients"], dtype=np.float64)
            if coeff.shape != (QUERY_ROWS, P):
                return f"{op}: coefficients shape {coeff.shape}"
            if not np.all(np.isfinite(coeff)):
                return f"{op}: non-finite coefficients"
        else:
            scores = np.asarray(body["scores"], dtype=np.float64)
            flags = body["is_outlier"]
            if scores.shape != (QUERY_ROWS,) or len(flags) != QUERY_ROWS:
                return f"{op}: scores/flags of wrong length"
            if not (np.all(np.isfinite(scores)) and np.all(scores >= 0)):
                return f"{op}: bad scores"
            if not all(isinstance(f, bool) for f in flags):
                return f"{op}: non-boolean outlier flags"
    except (KeyError, TypeError, ValueError) as exc:
        return f"{op}: {exc!r}"
    return None


def _lane_distinct_names(pool, n: int) -> list[str]:
    """Tenant names the router places on ``n`` different lanes."""
    lanes = pool.live_lane_ids()
    names: list[str] = []
    taken: set[int] = set()
    for i in range(256):
        name = f"t{i}"
        lane = pool.router.lane_of(name, lanes)
        if lane not in taken:
            taken.add(lane)
            names.append(name)
            if len(names) == n:
                return names
    raise RuntimeError("could not place tenants on distinct lanes")


class _QueueWaits:
    """Times each admitted block from ``IngestQueue.push`` until a lane's
    ``pop_block`` takes it (FIFO, so pops consume pushes in order)."""

    def __init__(self, queue) -> None:
        self.waits_ms: list[float] = []
        self.depth_max = 0
        self._pushed: deque = deque()
        self._lock = threading.Lock()
        push, pop_block = queue.push, queue.pop_block

        def traced_push(block, *args, **kwargs):
            depth = push(block, *args, **kwargs)
            with self._lock:
                self._pushed.append([time.perf_counter(), block.shape[0]])
                self.depth_max = max(self.depth_max, depth)
            return depth

        def traced_pop(max_rows):
            got = pop_block(max_rows)
            if got is not None:
                now = time.perf_counter()
                left = got[0].shape[0]
                with self._lock:
                    while left > 0 and self._pushed:
                        head = self._pushed[0]
                        take = min(left, head[1])
                        head[1] -= take
                        left -= take
                        if head[1] == 0:
                            self._pushed.popleft()
                            self.waits_ms.append((now - head[0]) * 1e3)
            return got

        queue.push = traced_push
        queue.pop_block = traced_pop


def _trace_service(tracer: Tracer, svc, states: dict, undo: Undo):
    """Install span wrappers around every serving layer of one round."""
    from repro.core import kernels
    from repro.core.robust import RobustIncrementalPCA
    from repro.serving.snapshots import BasisSnapshot

    undo.add(tracer.wrap(svc, "ingest", "service.ingest",
                         link=lambda t, rows: (t, "ingest")))
    for op in ("transform", "outlier_score"):
        undo.add(tracer.wrap(svc, op, "service.query",
                             link=lambda t, rows: (t, "query")))
    plane = svc.durability
    undo.add(tracer.wrap(plane, "append", "wal.append"))
    checkpoints_for = plane.checkpoints_for
    wrapped_stores: set[int] = set()

    def traced_checkpoints_for(tenant):
        store = checkpoints_for(tenant)
        if id(store) not in wrapped_stores:
            wrapped_stores.add(id(store))
            tracer.wrap(store, "save", "checkpoint.save")
        return store

    plane.checkpoints_for = traced_checkpoints_for
    undo.add(lambda: delattr(plane, "checkpoints_for"))
    waits = {}
    for name, st in states.items():
        undo.add(tracer.wrap(st.queue, "push", "queue.push"))
        waits[name] = _QueueWaits(st.queue)
        undo.add(lambda q=st.queue: delattr(q, "pop_block"))
        undo.add(tracer.wrap(st.model, "apply_block", "lane.apply",
                             request=name))
        undo.add(tracer.wrap(st.model, "publish", "publish"))
    wrap_class(RobustIncrementalPCA, "update_block", tracer,
               "kernel.update_block", undo)
    wrap_class(BasisSnapshot, "transform", tracer, "snapshot.query", undo)
    wrap_class(BasisSnapshot, "outlier_score", tracer, "snapshot.query", undo)
    for attr, name in KERNEL_SPANS.items():
        wrap_module(kernels, attr, tracer, name, undo)
    return waits


#: ``repro.core.kernels`` entry points and the span each one records.
KERNEL_SPANS = {
    "rank_k_core": "kernel.rank_k",
    "residual_norm2_block": "kernel.residual",
    "rho_weights_bisquare": "kernel.rho",
    "rho_weights_cauchy": "kernel.rho",
    "rho_weights_skipped": "kernel.rho",
    "fill_gappy_rows": "kernel.fill_gaps",
}


def _client(host, port, tracer: Tracer | None, undo: Undo):
    from repro.serving import ServingClient

    c = ServingClient(host, port, timeout_s=30.0)
    if tracer is not None:
        tracer.wrap(c, "ingest", "client.ingest",
                    link_as=lambda t, rows: (t, "ingest"))
        for op in ("transform", "outlier_score"):
            tracer.wrap(c, op, "client.query",
                        link_as=lambda t, rows: (t, "query"))
    return c


def serving_round(kind: str, seconds: float, inputs: Inputs, data_dir: str,
                  tracer: Tracer | None = None) -> dict:
    """One server lifetime under workload ``kind``; returns its figures.

    Raises :class:`CheckFailed` when the served output is wrong.
    """
    from repro.core.metrics import principal_angles
    from repro.serving import (
        PCAService, ServingConfig, ServingServer, TenantSpec,
    )

    shutil.rmtree(data_dir, ignore_errors=True)
    n_tenants = INGEST_CLIENTS if kind == "ingest" else 1
    undo = Undo()
    publishes: dict[str, list] = {}
    t_setup = time.perf_counter()
    svc = PCAService(ServingConfig(
        n_lanes=2, elastic=False, data_dir=data_dir, durability="async",
    ))
    server = ServingServer(svc, port=0).start()
    clients = []
    try:
        names = _lane_distinct_names(svc.pool, n_tenants)
        states = {}
        for name in names:
            states[name] = svc.add_tenant(TenantSpec(
                name, n_components=P, init_size=20,
                publish_every_blocks=PUBLISH_EVERY,
                queue_capacity_rows=200_000,
            ))
            publishes[name] = []

        def on_publish(snap, _log=publishes):
            _log[snap.tenant].append(
                (time.perf_counter(), snap.rows_applied, snap.version)
            )

        svc.cache.add_listener(on_publish)
        first = _client(server.host, server.port, None, undo)
        clients.append(first)
        for name in names:
            while True:  # 503 while the durability plane finishes recovery
                reply = first.ingest(name, inputs.blocks[0])
                if reply.code == 202:
                    break
                if reply.code != 503:
                    raise CheckFailed(f"first ingest: HTTP {reply.code}")
                time.sleep(0.005)
        setup_s = time.perf_counter() - t_setup
        # The first snapshot must exist before queries are due.
        while any(svc.cache.peek(n) is None for n in names):
            time.sleep(0.002)
        waits = {}
        if tracer is not None:
            waits = _trace_service(tracer, svc, states, undo)
        mark = steal_mark()
        if kind == "ingest":
            load = _closed_loop_ingest(server, names, seconds, inputs,
                                       tracer, undo, clients)
        else:
            load = _open_loop_mixed(server, names[0], seconds, inputs,
                                    tracer, undo, clients)
        _drain(states)
        tail_rows = 0
        if tracer is not None:
            time.sleep(max(0.0, load["t_last_ack"] + TAIL_WAIT_S
                           - time.perf_counter()))
            tail_rows = sum(
                st.rows_accepted - svc.cache.peek(n).rows_applied
                for n, st in states.items()
            )
        else:
            time.sleep(0.05)  # let an in-flight publish land
        out = _figures(load, publishes, names, setup_s, tail_rows)
        # Host steal in each measured phase; the worse one speaks for the
        # round (a burst in the short probe would hide in a round mean).
        out["steal_frac"] = stolen_since(mark)
        if kind == "ingest":
            reader = _client(server.host, server.port, tracer, undo)
            clients.append(reader)
            mark = steal_mark()
            probe = _idle_probe(reader, names[0], inputs, states[names[0]])
            out["steal_frac"] = max(out["steal_frac"], stolen_since(mark))
            _drain(states)
            # Saturated freshness is kept for the traced report; the
            # end-to-end figures of ``ingest`` are the unloaded ones.
            out["saturated_fresh_ms"] = out["fresh_ms"]
            out["fresh_ms"] = _freshness(probe["blocks"][names[0]],
                                         publishes[names[0]])
            out["query_ms"] = probe["query_ms"]
            out["lag_ms"] = probe["lag_ms"]
            load["acked_rows"][names[0]] += probe["acked_rows"][names[0]]
            for key in ("attempted", "failed"):
                out[key] += probe[key]
            load["bad_replies"] += probe["bad_replies"]
        undo.restore()
        out["wal_bytes"] = sum(
            svc.durability.wal_for(n).n_bytes for n in names
        )
        out["wal_rows"] = (sum(load["acked_rows"].values())
                           + BLOCK_ROWS * len(names))
        out["checkpoints"] = svc.durability.checkpointer.n_checkpoints
        out["queue_waits_ms"] = [w for q in waits.values() for w in q.waits_ms]
        out["queue_depth_max"] = max(
            (q.depth_max for q in waits.values()), default=0
        )
        # Correctness: zero loss, monotone versions, the planted basis.
        for name, st in states.items():
            acked = load["acked_rows"][name] + BLOCK_ROWS
            if not (acked == st.rows_accepted == st.model.rows_applied):
                raise CheckFailed(
                    f"{name}: acked {acked} accepted {st.rows_accepted} "
                    f"applied {st.model.rows_applied}"
                )
            versions = [v for _t, _r, v in publishes[name]]
            if any(b <= a for a, b in zip(versions, versions[1:])):
                raise CheckFailed(f"{name}: snapshot versions not monotone")
            snap = svc.cache.peek(name)
            angle = float(np.max(principal_angles(
                snap.state.basis[:, :P], inputs.basis
            )))
            if angle > MAX_ANGLE:
                raise CheckFailed(
                    f"{name}: basis {angle:.3f} rad off the planted subspace"
                )
        if load["bad_replies"]:
            raise CheckFailed(load["bad_replies"][0])
        return out
    finally:
        undo.restore()
        for c in clients:
            c.close()
        # Let the server see each close before its loop stops, so no
        # connection handler is cancelled mid-close.
        time.sleep(0.05)
        server.stop()
        shutil.rmtree(data_dir, ignore_errors=True)


def _drain(states: dict) -> None:
    """Wait until every accepted row is applied; a count that stops short
    of it with the queues empty is lost rows."""
    last, since = None, time.perf_counter()
    while True:
        now = time.perf_counter()
        seen = [(st.queue.depth_rows, st.model.rows_applied, st.rows_accepted)
                for st in states.values()]
        if all(depth == 0 and applied == accepted
               for depth, applied, accepted in seen):
            return
        if seen != last:
            last, since = seen, now
        elif now - since > 1.0:
            raise CheckFailed(f"rows lost (queued, applied, accepted): {seen}")
        time.sleep(0.002)


def _count_reply(load: dict, reply) -> None:
    if reply.code == 429:
        reason = (reply.body or {}).get("reason", "other")
        load["refused"][reason] = load["refused"].get(reason, 0) + 1
    if not 200 <= reply.code < 300:
        load["failed"] += 1


def _new_load(names, base_rows: int = BLOCK_ROWS) -> dict:
    return {
        # Rows the tenant had accepted before this load (the set-up block).
        "base_rows": base_rows,
        "attempted": 0, "failed": 0, "refused": {}, "bad_replies": [],
        "ack_ms": [], "query_ms": [], "lag_ms": [],
        "blocks": {n: [] for n in names},  # (due, cumulative rows) per 202
        "acked_rows": {n: 0 for n in names},
        "t_start": 0.0, "t_end": 0.0, "t_last_ack": 0.0,
    }


def _ingest_one(client, name, block, due, load, lock) -> None:
    try:
        reply = client.ingest(name, block)
    except OSError as exc:
        with lock:
            load["attempted"] += 1
            load["failed"] += 1
            load["bad_replies"].append(f"ingest: {exc!r}")
        return
    now = time.perf_counter()
    with lock:
        load["attempted"] += 1
        _count_reply(load, reply)
        load["ack_ms"].append((now - due) * 1e3)
        if reply.code == 202:
            load["acked_rows"][name] += block.shape[0]
            load["blocks"][name].append(
                (due, load["acked_rows"][name] + load["base_rows"])
            )
            load["t_last_ack"] = max(load["t_last_ack"], now)


def _closed_loop_ingest(server, names, seconds, inputs, tracer, undo,
                        clients) -> dict:
    load = _new_load(names)
    lock = threading.Lock()
    mine = [_client(server.host, server.port, tracer, undo) for _ in names]
    clients.extend(mine)
    n_blocks = inputs.blocks.shape[0]
    errors: list[BaseException] = []

    def loop(cid: int) -> None:
        try:
            i = 1 + cid * (n_blocks // len(names))
            while time.perf_counter() < load["t_end"]:
                _ingest_one(mine[cid], names[cid],
                            inputs.blocks[i % n_blocks],
                            time.perf_counter(), load, lock)
                i += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    load["t_start"] = time.perf_counter()
    load["t_end"] = load["t_start"] + seconds
    threads = [threading.Thread(target=loop, args=(i,)) for i in
               range(len(names))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return load


def _open_loop_mixed(server, name, seconds, inputs, tracer, undo,
                     clients) -> dict:
    load = _new_load([name])
    lock = threading.Lock()
    ing = _client(server.host, server.port, tracer, undo)
    qry = _client(server.host, server.port, tracer, undo)
    clients.extend([ing, qry])
    errors: list[BaseException] = []
    query_dt = 1.0 / MIXED_QUERIES_PER_S

    def ingest_loop() -> None:
        try:
            n_blocks = inputs.blocks.shape[0]
            for i, offset in enumerate(inputs.mixed_due):
                due = load["t_start"] + offset
                if due >= load["t_end"]:
                    return
                _sleep_until(due)
                with lock:
                    load["lag_ms"].append((time.perf_counter() - due) * 1e3)
                _ingest_one(ing, name, inputs.blocks[1 + i % (n_blocks - 1)],
                            due, load, lock)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    def query_loop() -> None:
        try:
            n_q = inputs.queries.shape[0]
            i = 0
            while True:
                due = load["t_start"] + i * query_dt
                if due >= load["t_end"]:
                    return
                _sleep_until(due)
                with lock:
                    load["lag_ms"].append((time.perf_counter() - due) * 1e3)
                op = "transform" if i % 2 == 0 else "outlier_score"
                _query_one(qry, op, name, inputs.queries[i % n_q], due,
                           load, lock)
                i += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    load["t_start"] = time.perf_counter() + 0.01
    load["t_end"] = load["t_start"] + seconds
    threads = [threading.Thread(target=ingest_loop),
               threading.Thread(target=query_loop)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return load


def _query_one(client, op, name, rows, due, load, lock) -> None:
    try:
        reply = getattr(client, op)(name, rows)
    except OSError as exc:
        with lock:
            load["attempted"] += 1
            load["failed"] += 1
            load["bad_replies"].append(f"{op}: {exc!r}")
        return
    now = time.perf_counter()
    problem = check_query_reply(op, reply)
    with lock:
        load["attempted"] += 1
        _count_reply(load, reply)
        load["query_ms"].append((now - due) * 1e3)
        if problem is not None:
            load["bad_replies"].append(problem)


def _idle_probe(client, name, inputs, state) -> dict:
    """Ingest-to-visible and query latency on the drained server: a few
    blocks at a fixed rate, then sequential queries."""
    probe = _new_load([name], base_rows=state.rows_accepted)
    lock = threading.Lock()
    t0 = time.perf_counter()
    for i in range(PROBE_BLOCKS):
        due = t0 + inputs.probe_due[i]
        _sleep_until(due)
        probe["lag_ms"].append((time.perf_counter() - due) * 1e3)
        _ingest_one(client, name, inputs.blocks[1 + i], due, probe, lock)
    for i in range(IDLE_QUERIES):
        op = "transform" if i % 2 == 0 else "outlier_score"
        _query_one(client, op, name,
                   inputs.queries[i % inputs.queries.shape[0]],
                   time.perf_counter(), probe, lock)
    return probe


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _freshness(blocks, pubs) -> list[float]:
    """Per acked block, ms from its due time until the first snapshot
    whose ``rows_applied`` covers it (blocks never made visible are left
    out: the traced ``publish.tail_invisible_rows`` counts them)."""
    pub_rows = [r for _t, r, _v in pubs]
    fresh = []
    for due, cum_rows in blocks:
        k = bisect.bisect_left(pub_rows, cum_rows)
        if k < len(pubs):
            fresh.append((pubs[k][0] - due) * 1e3)
    return fresh


def _figures(load, publishes, names, setup_s, tail_rows) -> dict:
    """Freshness per acked block and rows made visible per second."""
    fresh_ms: list[float] = []
    visible_rows = 0
    t_last_pub = load["t_start"]
    for name in names:
        pubs = publishes[name]
        fresh_ms += _freshness(load["blocks"][name], pubs)
        if pubs:
            visible_rows += pubs[-1][1] - BLOCK_ROWS
            t_last_pub = max(t_last_pub, pubs[-1][0])
    wall = max(t_last_pub - load["t_start"], 1e-9)
    return {
        "setup_s": setup_s,
        "rows_per_s": visible_rows / wall,
        "ack_ms": load["ack_ms"],
        "fresh_ms": fresh_ms,
        "query_ms": load["query_ms"],
        "lag_ms": load["lag_ms"],
        "attempted": load["attempted"],
        "failed": load["failed"],
        "refused": dict(load["refused"]),
        "rows_acked": sum(load["acked_rows"].values()),
        "tail_invisible_rows": tail_rows,
        "window_s": wall,
    }


def summarize_layers(tracer: Tracer, rounds: list[dict]) -> dict:
    """Per-layer serving figures from the traced rounds' spans."""
    lay = tracer.layers()

    def get(name, key, default=0.0):
        return lay.get(name, {}).get(key, default)

    attempted = sum(r["attempted"] for r in rounds) or 1
    refused = {}
    for r in rounds:
        for reason, n in r["refused"].items():
            refused[reason] = refused.get(reason, 0) + n
    rows = sum(r["rows_acked"] for r in rounds) or 1
    window = sum(r["window_s"] for r in rounds) or 1e-9
    # Each tenant sits on its own lane, so per-tenant apply time is
    # per-lane busy time.
    per_lane = tracer.durations_ms("lane.apply")
    applies = [d for ds in per_lane.values() for d in ds]
    busiest = max((sum(ds) for ds in per_lane.values()), default=0.0)
    apply_count = len(applies) or 1
    apply_mean = float(np.mean(applies)) if applies else 0.0
    waits = [w for r in rounds for w in r["queue_waits_ms"]]
    ack = [a for r in rounds for a in r["ack_ms"]]
    # Freshness from the same phase as the queue waits and applies.
    fresh = [f for r in rounds
             for f in r.get("saturated_fresh_ms", r["fresh_ms"])]
    queries = [q for r in rounds for q in r["query_ms"]]
    mean = (lambda xs: float(np.mean(xs)) if len(xs) else 0.0)
    m = {
        "client.ingest_ms_p50": (get("client.ingest", "p50_ms"), "ms"),
        "client.ingest_ms_p99": (get("client.ingest", "p99_ms"), "ms"),
        "query.client_ms_p50": (get("client.query", "p50_ms"), "ms"),
        "service.ingest_ms_p50": (get("service.ingest", "p50_ms"), "ms"),
        "service.ingest_ms_p99": (get("service.ingest", "p99_ms"), "ms"),
        "query.service_ms_p50": (get("service.query", "p50_ms"), "ms"),
        # Freshness of the load phase: saturated in ``ingest`` (its
        # end-to-end freshness is the unloaded probe's), the 3k rows/s
        # stream in ``mixed``.
        "freshness.load_ms_p50": (median([
            pct(r.get("saturated_fresh_ms", r["fresh_ms"]), 50)
            for r in rounds]), "ms"),
        "freshness.load_ms_p90": (median([
            pct(r.get("saturated_fresh_ms", r["fresh_ms"]), 90)
            for r in rounds]), "ms"),
        "http.overhead_ms_p50": (
            get("client.ingest", "p50_ms") - get("service.ingest", "p50_ms"),
            "ms"),
        "admission.refused_frac": (sum(refused.values()) / attempted,
                                   "ratio"),
        "admission.refused_frac.rate": (refused.get("rate", 0) / attempted,
                                        "ratio"),
        "admission.refused_frac.queue_full": (
            refused.get("queue_full", 0) / attempted, "ratio"),
        "wal.append_ms_p50": (get("wal.append", "p50_ms"), "ms"),
        "wal.append_ms_p99": (get("wal.append", "p99_ms"), "ms"),
        "wal.bytes_per_row": (sum(r["wal_bytes"] for r in rounds)
                              / (sum(r["wal_rows"] for r in rounds) or 1),
                              "B"),
        "checkpoint.ms_p50": (get("checkpoint.save", "p50_ms"), "ms"),
        "checkpoint.count": (sum(r["checkpoints"] for r in rounds), "count"),
        "queue.wait_ms_p50": (pct(waits, 50), "ms"),
        "queue.wait_ms_p99": (pct(waits, 99), "ms"),
        "queue.depth_rows_max": (max(r["queue_depth_max"] for r in rounds),
                                 "rows"),
        "lane.apply_ms_p50": (pct(applies, 50), "ms"),
        "lane.rows_per_apply": (rows / apply_count, "rows"),
        "lane.busy_frac": (busiest / (window * 1e3), "ratio"),
        "kernel.update_block_ms_p50": (get("kernel.update_block", "p50_ms"),
                                       "ms"),
        "publish.ms_p50": (get("publish", "p50_ms"), "ms"),
        "publish.count": (get("publish", "count"), "count"),
        "query.snapshot_ms_p50": (get("snapshot.query", "p50_ms"), "ms"),
        "publish.tail_invisible_rows": (
            sum(r["tail_invisible_rows"] for r in rounds), "rows"),
        "residual.ingest_ack_ms": (
            mean(ack) - get("client.ingest", "mean_ms"), "ms"),
        "residual.freshness_ms": (
            mean(fresh) - (mean(ack) + mean(waits) + apply_mean
                           + get("publish", "mean_ms")), "ms"),
        "residual.query_ms": (
            mean(queries) - get("client.query", "mean_ms"), "ms"),
        "residual.rows_per_s_frac": (1.0 - busiest / (window * 1e3),
                                     "ratio"),
    }
    m.update(kernel_and_self_times(lay))
    return m


#: Span name prefix → layer name for the self-time report.
LAYERS = {
    "client.": "client", "service.": "service", "wal.": "wal",
    "checkpoint.": "checkpoint", "queue.": "queue", "lane.": "lane",
    "kernel.": "kernel", "publish": "publish", "snapshot.": "snapshot",
    "transport.": "transport", "sync.": "sync",
}


def kernel_and_self_times(lay: dict) -> dict:
    """Self-time totals of each kernel stage and of each layer."""
    out = {
        f"{name}_ms": (lay.get(name, {}).get("self_ms", 0.0), "ms")
        for name in sorted(set(KERNEL_SPANS.values()))
        if name != "kernel.fill_gaps"  # serving rows have no gaps
    }
    out.update({f"self.{layer}_ms": (0.0, "ms") for layer in
                sorted(set(LAYERS.values()))})
    for name, rec in lay.items():
        for prefix, layer in LAYERS.items():
            if name.startswith(prefix):
                key = f"self.{layer}_ms"
                out[key] = (out[key][0] + rec["self_ms"], "ms")
                break
    return out
