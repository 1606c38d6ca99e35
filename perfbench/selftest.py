#!/usr/bin/env python3
"""Fast seeded self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

It runs every workload at toy size, untraced and traced, and checks that
the result line names every metric of ``BENCHMARK.json`` with its unit.
Then it corrupts the program's replies and output on purpose and checks
that the correctness checks trip: malformed query replies, a model that
loses rows, and a graph that loses a block.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import graph_load  # noqa: E402
import serving_load  # noqa: E402

SEED = 7


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS), names
    return e2e, layers


def _run(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def _patched(obj, attr, value):
    old = obj.__dict__[attr]
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def toy_sizes():
    """Shrink every workload so the whole self-test stays short."""
    run.SERVING_WINDOW_S = {"ingest": 1.0, "mixed": 1.0}
    run.WARMUP_S = 0.3
    run.GRAPH_ROWS = 1024
    serving_load.IDLE_QUERIES = 20
    serving_load.TAIL_WAIT_S = 0.2


def check_metric_names() -> None:
    e2e, layers = _declared()
    assert e2e == run.END_TO_END, "BENCHMARK.json end_to_end != run.py"
    assert layers == run.PER_LAYER, "BENCHMARK.json per_layer != run.py"
    for workload in run.WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            code, res = _run(workload, trace)
            assert code == 0 and res["correct"], (workload, trace, res)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            if trace == 0:
                zero = [k for k, v in res["metrics"].items()
                        if not v["value"] > 0]
                assert not zero, (workload, zero)
            print(f"ok  {workload:8s} trace={trace}  "
                  f"{len(got)} metrics", flush=True)


class _Reply:
    def __init__(self, code, body):
        self.code, self.body, self.headers = code, body, {}


def check_reply_checks() -> None:
    good_t = {"snapshot_version": 3, "dim": serving_load.DIM,
              "n_components": serving_load.P,
              "coefficients": np.zeros((serving_load.QUERY_ROWS,
                                        serving_load.P)).tolist()}
    good_o = {**good_t, "scores": [0.5] * serving_load.QUERY_ROWS,
              "is_outlier": [False] * serving_load.QUERY_ROWS}
    check = serving_load.check_query_reply
    assert check("transform", _Reply(200, good_t)) is None
    assert check("outlier_score", _Reply(200, good_o)) is None
    broken = [
        ("transform", _Reply(503, good_t)),
        ("transform", _Reply(200, "not json")),
        ("transform", _Reply(200, {**good_t, "snapshot_version": 0})),
        ("transform", _Reply(200, {**good_t, "coefficients": [[1.0]]})),
        ("transform", _Reply(200, {**good_t, "coefficients":
                                   [[float("nan")] * serving_load.P]
                                   * serving_load.QUERY_ROWS})),
        ("outlier_score", _Reply(200, {**good_o, "scores": [-1.0] * 4})),
        ("outlier_score", _Reply(200, {**good_o, "is_outlier": [0] * 4})),
        ("outlier_score", _Reply(200, {**good_t})),
    ]
    for op, reply in broken:
        assert check(op, reply) is not None, (op, reply.body)
    print("ok  malformed replies are refused", flush=True)


def check_trips_end_to_end() -> None:
    from repro.serving.client import Reply, ServingClient
    from repro.serving.tenancy import TenantModel

    transform = ServingClient.__dict__["transform"]

    def bad_transform(self, tenant, rows):
        r = transform(self, tenant, rows)
        return Reply(r.code, {**r.body, "coefficients": [[0.0]]}, r.headers)

    with _patched(ServingClient, "transform", bad_transform):
        code, res = _run("mixed", 0)
    assert code != 0 and not res["correct"], res
    print("ok  a broken query reply fails the run", flush=True)

    apply_block = TenantModel.__dict__["apply_block"]

    def lossy_apply(self, xs, wal_seq=-1):
        apply_block(self, xs[1:], wal_seq)  # drops one row per block

    with _patched(TenantModel, "apply_block", lossy_apply):
        code, res = _run("ingest", 0)
    assert code != 0 and not res["correct"], res
    print("ok  a model that loses rows fails the run", flush=True)

    class _Short(graph_load._StampedRows):
        def __iter__(self):
            for i, row in enumerate(super().__iter__()):
                if i < len(self.x) - graph_load.BLOCK_ROWS:
                    yield row

    inputs = graph_load.Inputs(SEED, 1024)
    inputs.x = inputs.x[:1024]
    with _patched(graph_load, "_StampedRows", _Short):
        try:
            graph_load.graph_round("process", inputs)
        except serving_load.CheckFailed as exc:
            print(f"ok  a graph that loses a block fails: {exc}", flush=True)
        else:
            raise AssertionError("a graph that lost a block passed")


def main() -> int:
    try:
        toy_sizes()
        check_reply_checks()
        check_metric_names()
        check_trips_end_to_end()
    finally:
        run.stop_children()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
