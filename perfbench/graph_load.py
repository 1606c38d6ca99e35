"""The parallel streaming-PCA graph, for the graph layers of a traced
run: rounds on the process runtime and on the TCP cluster runtime.

Each round runs :class:`~repro.parallel.ParallelStreamingPCA` once over
the same pre-generated galaxy spectra (d = 1000, dropout gaps, 2 %
junk spectra), fed through an iterator that notes when the graph's
source takes the first row.
"""

from __future__ import annotations

import time

import numpy as np

from common import CheckFailed, Tracer, Undo, wrap_class, wrap_module

DIM = 1000
P = 4
BLOCK_ROWS = 64
N_ENGINES = 2
#: Largest angle (radians) allowed between the leading merged
#: eigenspectrum and the clean-population ground truth.  Only the leading
#: one is well separated on this manifold (lambda1/lambda2 is about 60);
#: the second drifts 0.14-0.42 rad across seeds at this stream length.
MAX_ANGLE = 0.1


class Inputs:
    """Galaxy spectra from the seed, normalized to unit mean flux."""

    def __init__(self, seed: int, n_rows: int) -> None:
        from repro.core.normalize import NormalizationError, unit_mean_flux
        from repro.data.spectra import GalaxySpectrumModel, WavelengthGrid

        self.model = GalaxySpectrumModel(
            grid=WavelengthGrid(n_bins=DIM), outlier_rate=0.02,
            dropout_rate=0.15, seed=7,
        )
        sample = self.model.sample(n_rows, np.random.default_rng(seed))
        rows = []
        for flux in sample.flux:
            try:
                rows.append(unit_mean_flux(flux))
            except NormalizationError:
                continue  # a junk spectrum with no positive mean flux
        self.x = np.vstack(rows)
        self._truth = None

    def truth(self) -> np.ndarray:
        if self._truth is None:
            _, self._truth, _ = self.model.ground_truth_basis(1, n_mc=1000)
        return self._truth


class _StampedRows:
    """The rows, handed out one by one, noting when the graph's source
    takes the first one."""

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.t_first: float | None = None

    def __iter__(self):
        self.t_first = time.perf_counter()
        yield from self.x


def graph_round(runtime: str, inputs: Inputs,
                tracer: Tracer | None = None) -> dict:
    """One graph run over every input row; returns its figures.

    Raises :class:`CheckFailed` unless every row is folded into an
    engine, no tuple is lost, and the merged leading eigenspectrum lies
    within ``MAX_ANGLE`` of the ground truth.
    """
    from repro.core.metrics import principal_angles
    from repro.data.streams import VectorStream
    from repro.parallel import ParallelStreamingPCA

    rows = _StampedRows(inputs.x)
    n = inputs.x.shape[0]
    undo = Undo()
    seen: dict = {}
    try:
        if tracer is not None:
            _trace_graph(tracer, undo, seen)
        runner = ParallelStreamingPCA(
            P, n_engines=N_ENGINES, alpha=0.999, runtime=runtime,
            batch_size=BLOCK_ROWS, collect_diagnostics=False,
            timeout_s=120.0,
        )
        result = runner.run(VectorStream.from_iterable(rows, DIM, n))
        t_done = time.perf_counter()
    finally:
        undo.restore()
    wire = (dict(runner.cluster_engine.cluster_stats)
            if runtime == "cluster" else {})
    engine_rows = [r["n_local_rows"] for r in result.engine_reports]
    if sum(engine_rows) != n:
        raise CheckFailed(f"engines folded {sum(engine_rows)} of {n} rows")
    if wire.get("tuples_lost", 0) or wire.get("host_deaths", 0):
        raise CheckFailed(f"cluster lost tuples: {wire}")
    angle = float(np.max(principal_angles(
        result.global_state.basis[:, :1], inputs.truth()
    )))
    if angle > MAX_ANGLE:
        raise CheckFailed(f"merged basis {angle:.3f} rad off ground truth")
    sync = result.sync_stats
    return {
        # From the first row taken to the merged result, drain included.
        "rows_per_s": n / (t_done - rows.t_first),
        "wall_s": t_done - rows.t_first,
        "rows": n,
        "engine_rows": engine_rows,
        "wire": wire,
        "transport": dict(seen.get("transport", {})),
        "sync": {
            "merges": sync.n_merge_commands,
            "states_routed": sync.n_states_routed,
            "throttled": sync.n_throttled,
        },
    }


def _trace_graph(tracer: Tracer, undo: Undo, seen: dict) -> None:
    """Coordinator-side spans: ring puts and sync merges.  Workers are
    separate processes; they are attributed by counts and the replay."""
    from repro.parallel import sync
    from repro.streams.procengine import ProcessEngine
    from repro.streams.shm import BlockRing

    wrap_class(BlockRing, "put", tracer, "transport.ring_put", undo)
    wrap_module(sync, "merge_eigensystems", tracer, "sync.merge", undo)

    inner = ProcessEngine.__dict__["run"]

    def run(self, *args, **kwargs):
        try:
            return inner(self, *args, **kwargs)
        finally:
            seen["transport"] = dict(self.transport_stats)

    ProcessEngine.run = run
    undo.add(lambda: setattr(ProcessEngine, "run", inner))


def replay_kernel(inputs: Inputs, tracer: Tracer, engine_rows: int) -> float:
    """Microseconds per row of ``update_block`` on one engine's share of
    the rows, replayed in this process with kernel spans on."""
    from repro.core import kernels
    from repro.core.robust import RobustIncrementalPCA

    from serving_load import KERNEL_SPANS

    undo = Undo()
    x = inputs.x[:engine_rows]
    est = RobustIncrementalPCA(P, alpha=0.999, delta=0.5)
    try:
        for attr, name in KERNEL_SPANS.items():
            wrap_module(kernels, attr, tracer, name, undo)
        wrap_class(RobustIncrementalPCA, "update_block", tracer,
                   "kernel.update_block", undo)
        t0 = time.perf_counter()
        for i in range(0, x.shape[0], BLOCK_ROWS):
            est.update_block(x[i:i + BLOCK_ROWS])
        dt = time.perf_counter() - t0
    finally:
        undo.restore()
    return dt / max(x.shape[0], 1) * 1e6


def summarize_layers(tracer: Tracer, r: dict, kernel_us_per_row: float,
                     wire_round: dict) -> dict:
    """Per-layer graph figures of one process-runtime round ``r`` (its
    spans in ``tracer``), the kernel replay, and ``wire_round``, a
    cluster-runtime round."""
    lay = tracer.layers()
    wire, tr = wire_round["wire"], r["transport"]
    engine_rows = r["engine_rows"]
    skew = max(engine_rows) / (sum(engine_rows) / len(engine_rows))
    share = kernel_us_per_row * 1e-6 * max(engine_rows) / r["wall_s"]

    def total(name):
        return lay.get(name, {}).get("total_ms", 0.0)

    return {
        "graph.rows_per_s": (r["rows_per_s"], "1/s"),
        "split.skew": (skew, "ratio"),
        "transport.ring_put_wait_ms": (total("transport.ring_put"), "ms"),
        "transport.ring_blocks": (tr.get("blocks_ring", 0), "count"),
        "transport.queue_tuples": (tr.get("tuples_queue", 0), "count"),
        "wire.bytes_in": (wire.get("bytes_in", 0), "B"),
        "wire.bytes_out": (wire.get("bytes_out", 0), "B"),
        "wire.frames_in": (wire.get("frames_in", 0), "count"),
        "wire.frames_out": (wire.get("frames_out", 0), "count"),
        "wire.bytes_in_per_result": (
            wire.get("bytes_in", 0) / max(wire.get("tuples_from_hosts", 0), 1),
            "B"),
        "wire.bytes_in_per_row": (wire.get("bytes_in", 0)
                                  / wire_round["rows"], "B"),
        "wire.cluster_rows_per_s": (wire_round["rows_per_s"], "1/s"),
        "sync.merges": (r["sync"]["merges"], "count"),
        "sync.states_routed": (r["sync"]["states_routed"], "count"),
        "sync.throttled": (r["sync"]["throttled"], "count"),
        "sync.merge_ms": (total("sync.merge"), "ms"),
        "engine.kernel_us_per_row": (kernel_us_per_row, "us"),
        "engine.kernel_share": (share, "ratio"),
        "engine.update_block_ms_p50": (
            lay.get("kernel.update_block", {}).get("p50_ms", 0.0), "ms"),
        "engine.fill_gaps_ms": (
            lay.get("kernel.fill_gaps", {}).get("self_ms", 0.0), "ms"),
        "engine.rank_k_ms": (
            lay.get("kernel.rank_k", {}).get("self_ms", 0.0), "ms"),
        "self.transport_ms": (lay.get("transport.ring_put", {})
                              .get("self_ms", 0.0), "ms"),
        "self.sync_ms": (lay.get("sync.merge", {}).get("self_ms", 0.0),
                         "ms"),
    }
