#!/usr/bin/env python3
"""The repository benchmark: serving ingest, freshness and query, plus
stream-graph throughput, each broken into named layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``ingest``   closed loop, 2 HTTP clients, one tenant each
* ``mixed``    open loop, 3,000 rows/s ingest beside 200 queries/s

The graph workloads (``pipeline``: the parallel PCA graph on the process
runtime; ``cluster``: on the TCP runtime) were dropped because their
throughput is not steady on a 2-vCPU machine (see the notes); every
traced run still measures their layers.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the calls into each layer with spans and prints the
per-layer metrics instead.  The last stdout line is the JSON result;
earlier lines carry the environment stamp and, when tracing, the full
layer table.  Spans are written to ``.perfbench/`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import (  # noqa: E402
    CheckFailed, Tracer, eprint, environment, median, pct, peak_rss_mb,
    result_line, steal_mark, stolen_since, stop_children,
)

WORKLOADS = ("ingest", "mixed")

#: End-to-end metrics: name → unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "ingest_ack_p50_ms": "ms",
    "ingest_ack_p90_ms": "ms",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name → unit.  A layer a workload does not exercise
#: reads 0 there.
PER_LAYER = {
    "client.ingest_ms_p50": "ms",
    "client.ingest_ms_p99": "ms",
    "query.client_ms_p50": "ms",
    "service.ingest_ms_p50": "ms",
    "service.ingest_ms_p99": "ms",
    "query.service_ms_p50": "ms",
    "http.overhead_ms_p50": "ms",
    "admission.refused_frac": "ratio",
    "admission.refused_frac.rate": "ratio",
    "admission.refused_frac.queue_full": "ratio",
    "wal.append_ms_p50": "ms",
    "wal.append_ms_p99": "ms",
    "wal.bytes_per_row": "B",
    "checkpoint.ms_p50": "ms",
    "checkpoint.count": "count",
    "queue.wait_ms_p50": "ms",
    "queue.wait_ms_p99": "ms",
    "queue.depth_rows_max": "rows",
    "lane.apply_ms_p50": "ms",
    "lane.rows_per_apply": "rows",
    "lane.busy_frac": "ratio",
    "kernel.update_block_ms_p50": "ms",
    "kernel.rank_k_ms": "ms",
    "kernel.residual_ms": "ms",
    "kernel.rho_ms": "ms",
    "publish.ms_p50": "ms",
    "publish.count": "count",
    "publish.tail_invisible_rows": "rows",
    "query.snapshot_ms_p50": "ms",
    "graph.rows_per_s": "1/s",
    "split.skew": "ratio",
    "transport.ring_put_wait_ms": "ms",
    "transport.ring_blocks": "count",
    "transport.queue_tuples": "count",
    "wire.bytes_in": "B",
    "wire.bytes_out": "B",
    "wire.frames_in": "count",
    "wire.frames_out": "count",
    "wire.bytes_in_per_result": "B",
    "wire.bytes_in_per_row": "B",
    "wire.cluster_rows_per_s": "1/s",
    "sync.merges": "count",
    "sync.states_routed": "count",
    "sync.throttled": "count",
    "sync.merge_ms": "ms",
    "engine.kernel_us_per_row": "us",
    "engine.kernel_share": "ratio",
    "engine.update_block_ms_p50": "ms",
    "engine.rank_k_ms": "ms",
    "engine.fill_gaps_ms": "ms",
    "loadgen.lag_ms_p99": "ms",
    "freshness.load_ms_p50": "ms",
    "freshness.load_ms_p90": "ms",
    "env.steal_frac": "ratio",
    "self.client_ms": "ms",
    "self.service_ms": "ms",
    "self.wal_ms": "ms",
    "self.checkpoint_ms": "ms",
    "self.queue_ms": "ms",
    "self.lane_ms": "ms",
    "self.kernel_ms": "ms",
    "self.publish_ms": "ms",
    "self.snapshot_ms": "ms",
    "self.transport_ms": "ms",
    "self.sync_ms": "ms",
    "residual.ingest_ack_ms": "ms",
    "residual.freshness_ms": "ms",
    "residual.query_ms": "ms",
    "residual.rows_per_s_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "env.n_cpus": "count",
    "env.blas_threads": "count",
    "env.jit_enabled": "count",
}

#: Measured window of one serving round, in seconds.  A run is as many
#: rounds as ``--seconds`` holds: many short rounds, each with its own
#: set-up, so a slow round moves the figure across rounds little.
SERVING_WINDOW_S = {"ingest": 2.0, "mixed": 2.5}
#: Length of the untimed round that warms a serving run's process.
WARMUP_S = 1.5
#: Rows per graph round in a traced run.
GRAPH_ROWS = 4096
#: A round is calm when the host stole at most this share of its CPU
#: time (see ``clean_rounds``).
CALM_STEAL = 0.02


def clean_rounds(rounds: list[dict]) -> list[dict]:
    """The rounds the host left alone.

    On a shared virtual machine another tenant can take the CPUs for
    seconds (steal time); an open loop then queues behind the gap and a
    round's figures say more about the neighbour than the program.
    Rounds with at most ``CALM_STEAL`` of their CPU time stolen are kept
    when they are at least half of the rounds; otherwise the calmer half
    is.  Steal is the host's doing, so the program's own slow rounds are
    as likely to be kept as any other.
    """
    calm = [r for r in rounds if r["steal_frac"] <= CALM_STEAL]
    if 2 * len(calm) >= len(rounds):
        return calm
    keep = max(1, (len(rounds) + 1) // 2)
    return sorted(rounds, key=lambda r: r["steal_frac"])[:keep]


def end_to_end(rounds: list[dict]) -> dict:
    """Each round's own figure, read across rounds at the quartile on the
    good side: the lower quartile of a latency, the upper one of rows/s.
    The host only ever slows a round (a noisy neighbour, a slow vCPU
    wake-up), so the better quartile follows the program while up to
    three rounds in four are disturbed; a median holds only while fewer
    than half are.  Set-up time is the median of the rounds' set-ups.
    The tail is p90: a round's samples support it with ten or more
    beyond, where p99 would rest on a handful."""
    rounds = clean_rounds(rounds)

    def per_round(key, q):
        return pct([pct(r[key], q) for r in rounds], 25.0)

    values = {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "rows_per_s": pct([r["rows_per_s"] for r in rounds], 75.0),
        "ingest_ack_p50_ms": per_round("ack_ms", 50),
        "ingest_ack_p90_ms": per_round("ack_ms", 90),
        "freshness_p50_ms": per_round("fresh_ms", 50),
        "freshness_p90_ms": per_round("fresh_ms", 90),
        "query_p50_ms": per_round("query_ms", 50),
        "query_p90_ms": per_round("query_ms", 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def run_serving(kind: str, seed: int, seconds: float, trace: bool):
    import serving_load as sl

    window = SERVING_WINDOW_S[kind]
    n_rounds = max(1, round(seconds / window))
    inputs = sl.Inputs(seed, n_blocks=512, n_queries=256)
    data_dir = os.path.join(OUT_DIR, f"data-{os.getpid()}")
    tracer = Tracer() if trace else None
    # A server is long-lived: its process pays first-use costs once
    # (imports, and OpenBLAS running ~30x slow for its first second of
    # use with 2 threads).  An untimed round pays them before timing.
    sl.serving_round(kind, WARMUP_S, inputs, data_dir)
    base = None
    if trace:
        # One untraced round prices the wrappers: the overhead is the
        # traced rows/s against this one.
        base = sl.serving_round(kind, window, inputs, data_dir)
    rounds = [
        sl.serving_round(kind, window, inputs, data_dir, tracer)
        for _ in range(n_rounds)
    ]
    e2e = end_to_end(rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    layers = None
    if trace:
        layers = sl.summarize_layers(tracer, rounds)
        layers.update(graph_layers(seed))
        layers["loadgen.lag_ms_p99"] = (
            pct([v for r in rounds for v in r["lag_ms"]], 99), "ms")
        layers["trace.overhead_frac"] = (
            1.0 - e2e["rows_per_s"][0] / base["rows_per_s"], "ratio")
    return e2e, layers, attempted, failed, tracer, rounds


def graph_layers(seed: int) -> dict:
    """Per-layer counts of the parallel PCA graph, for a traced run.

    One round on the process runtime with coordinator-side spans, a
    replay of one engine's kernel work in this process, and one round on
    the TCP cluster runtime for the wire counts.  Graph throughput is
    too unsteady on a 2-vCPU machine to gate on (see the notes), so it is
    reported here and not as a workload.
    """
    import graph_load as gl

    inputs = gl.Inputs(seed, GRAPH_ROWS)
    tracer = Tracer()
    gl.graph_round("process", inputs)  # pays the coordinator's first use
    r = gl.graph_round("process", inputs, tracer)
    us = gl.replay_kernel(inputs, tracer, max(r["engine_rows"]))
    return gl.summarize_layers(tracer, r, us,
                               gl.graph_round("cluster", inputs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(src):
        eprint(f"error: no program source at {src}; run from a checkout")
        return 2
    # A run must end inside its time limit even if the program hangs.
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(170)
    try:
        return _run(args)
    finally:
        signal.alarm(0)
        # No process the run started may outlive it, on any path out.
        stop_children()


def _run(args) -> int:
    env = environment("async")
    print(json.dumps({"env": env}), flush=True)
    trace = bool(args.trace)
    run_mark = steal_mark()
    try:
        e2e, layers, attempted, failed, tracer, rounds = run_serving(
            args.workload, args.seed, args.seconds, trace)
    except CheckFailed as exc:
        eprint(f"check failed: {exc}")
        print(result_line(False, 1, 1, {}), flush=True)
        return 1
    signal.alarm(0)
    # Host CPU steal during the run: the share of this machine's CPU time
    # another tenant of the host took.  Context for a noisy figure.
    steal_frac = stolen_since(run_mark)
    print(json.dumps({"run": {
        "steal_frac": steal_frac,
        "rounds": len(rounds),
        "rounds_kept": len(clean_rounds(rounds)),
    }}), flush=True)

    if not trace:
        print(result_line(True, attempted, failed, e2e), flush=True)
        return 0
    print(json.dumps({"layers": tracer.layers()}), flush=True)
    tracer.dump(os.path.join(
        OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    layers["failed_frac"] = (failed / max(attempted, 1), "ratio")
    layers["env.n_cpus"] = (env["n_cpus"] or 0, "count")
    layers["env.blas_threads"] = (env["blas_threads"] or 0, "count")
    layers["env.jit_enabled"] = (int(bool(env["jit"]["enabled"])), "count")
    layers["env.steal_frac"] = (steal_frac, "ratio")
    metrics = {name: (layers.get(name, (0.0, unit))[0], unit)
               for name, unit in PER_LAYER.items()}
    print(result_line(True, attempted, failed, metrics), flush=True)
    return 0


def _on_alarm(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


if __name__ == "__main__":
    sys.exit(main())
