"""Tests for the serving layer (``repro.serving``).

Covers the full stack bottom-up — immutable basis snapshots and the
copy-on-publish cache, tenant specs/queues/models, the rendezvous
router, the engine-lane pool with chaos kill/respawn, the
transport-independent service core, the asyncio HTTP/WS front end —
and finishes with the end-to-end acceptance test: ≥16 concurrent
clients over ≥2 tenants ingesting while querying, overload shedding
with zero loss on admitted traffic, and a lane kill driving
``/ready`` through 503 and back.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.robust import RobustIncrementalPCA
from repro.serving import (
    BasisSnapshot,
    EigenbasisCache,
    EnginePool,
    EventBus,
    IngestQueue,
    PCAService,
    QueueFull,
    ServingClient,
    ServingConfig,
    ServingServer,
    TenantModel,
    TenantRouter,
    TenantSpec,
    TenantState,
    WebSocketClient,
)

SEED = 20120513


def _rows(n, dim=8, seed=SEED):
    # One planted 3-d subspace shared by every draw (so rows from any
    # seed are inliers of a model fitted on any other seed's rows).
    plant = np.random.default_rng(SEED).normal(size=(3, dim))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=(n, 3)) * np.array([5.0, 3.0, 2.0])
    return coeff @ plant + 0.1 * rng.normal(size=(n, dim))


def _fitted_state(n=400, dim=8, n_components=4):
    est = RobustIncrementalPCA(n_components, init_size=20)
    est.update_block(_rows(n, dim))
    return est.public_state()


def _spec(name="t0", **kw):
    kw.setdefault("n_components", 4)
    kw.setdefault("init_size", 10)
    kw.setdefault("publish_every_blocks", 1)
    return TenantSpec(name, **kw)


def _service(*specs, **cfg_kw):
    cfg_kw.setdefault("n_lanes", 2)
    cfg_kw.setdefault("elastic", False)
    svc = PCAService(ServingConfig(**cfg_kw))
    for spec in specs:
        svc.add_tenant(spec)
    return svc


def _wait(pred, timeout_s=10.0, interval_s=0.005):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if pred():
            return True
        time.sleep(interval_s)
    return pred()


# ---------------------------------------------------------------------------
# snapshots: BasisSnapshot + EigenbasisCache
# ---------------------------------------------------------------------------


class TestBasisSnapshot:
    def _snap(self, version=1):
        return BasisSnapshot(
            tenant="t0",
            version=version,
            state=_fitted_state(),
            rows_applied=400,
            blocks_applied=1,
            outlier_t=9.0,
        )

    def test_transform_roundtrip_shapes(self):
        snap = self._snap()
        x = _rows(5)
        z = snap.transform(x)
        assert z.shape == (5, snap.n_components)
        back = snap.inverse_transform(z)
        assert back.shape == x.shape

    def test_transform_matches_manual_projection(self):
        snap = self._snap()
        x = _rows(7, seed=1)
        want = (x - snap.state.mean) @ snap.state.basis
        np.testing.assert_allclose(snap.transform(x), want)

    def test_reconstruction_error_small_on_inliers(self):
        snap = self._snap()
        err = snap.reconstruction_error(_rows(50, seed=2))
        assert err.shape == (50,)
        assert np.all(err >= 0)
        assert np.median(err) < 1.0

    def test_outlier_score_flags_gross_outliers(self):
        snap = self._snap()
        x = _rows(20, seed=3)
        x[::4] += 40.0  # blast a quarter of the rows off the subspace
        scores, flags = snap.outlier_score(x)
        assert scores.shape == flags.shape == (20,)
        assert flags[::4].all()
        assert not flags[1::4].any()

    def test_eigenspectra_topk(self):
        snap = self._snap()
        spec = snap.eigenspectra(top_k=2)
        assert len(spec["eigenvalues"]) == 2
        assert spec["eigenvalues"][0] >= spec["eigenvalues"][1]
        assert "basis" not in spec
        with_basis = snap.eigenspectra(top_k=2, include_basis=True)
        assert np.asarray(with_basis["basis"]).shape == (2, snap.dim)

    def test_meta_and_age(self):
        snap = self._snap(version=3)
        meta = snap.meta()
        assert meta["tenant"] == "t0"
        assert meta["snapshot_version"] == 3
        assert meta["model_rows"] == 400
        assert meta["n_components"] == snap.n_components
        assert meta["dim"] == snap.dim
        assert snap.age_s() >= 0.0

    def test_snapshot_state_is_a_copy(self):
        est = RobustIncrementalPCA(4, init_size=20)
        est.update_block(_rows(100))
        cache = EigenbasisCache()
        snap = cache.publish(
            "t0", est.state, rows_applied=100, blocks_applied=1
        )
        before = snap.state.basis.copy()
        est.update_block(_rows(500, seed=9) + 3.0)  # keep mutating
        np.testing.assert_array_equal(snap.state.basis, before)


class TestEigenbasisCache:
    def test_versions_monotone_per_tenant(self):
        cache = EigenbasisCache()
        state = _fitted_state()
        for i in range(1, 4):
            snap = cache.publish(
                "a", state, rows_applied=i, blocks_applied=i
            )
            assert snap.version == i
        assert cache.version("a") == 3
        assert cache.version("nope") == 0

    def test_get_counts_hits_and_misses(self):
        cache = EigenbasisCache()
        assert cache.get("a") is None
        cache.publish("a", _fitted_state(), rows_applied=1, blocks_applied=1)
        assert cache.get("a") is not None
        stats = cache.stats()
        assert stats["n_hits"] == 1
        assert stats["n_misses"] == 1
        # peek must not touch the counters
        cache.peek("a")
        assert cache.stats()["n_hits"] == 1

    def test_listener_fires_and_errors_are_swallowed(self):
        cache = EigenbasisCache()
        seen = []
        cache.add_listener(seen.append)
        cache.add_listener(lambda s: 1 / 0)
        snap = cache.publish(
            "a", _fitted_state(), rows_applied=1, blocks_applied=1
        )
        assert seen == [snap]

    def test_drop_and_tenants(self):
        cache = EigenbasisCache()
        cache.publish("a", _fitted_state(), rows_applied=1, blocks_applied=1)
        cache.publish("b", _fitted_state(), rows_applied=1, blocks_applied=1)
        assert sorted(cache.tenants()) == ["a", "b"]
        cache.drop("a")
        assert cache.tenants() == ["b"]


# ---------------------------------------------------------------------------
# tenancy: spec validation, ingest queue, tenant model, router
# ---------------------------------------------------------------------------


class TestTenantSpec:
    def test_rejects_bad_names(self):
        for bad in ("", ".hidden", "a/b", "x" * 65, "sp ace"):
            with pytest.raises(ValueError):
                TenantSpec(bad)

    def test_accepts_reasonable_names(self):
        for good in ("a", "bulk", "team-1", "a.b_c", "X" * 64):
            TenantSpec(good)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            TenantSpec("t", n_components=0)
        with pytest.raises(ValueError):
            TenantSpec("t", max_rate_hz=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", queue_capacity_rows=0)


class TestIngestQueue:
    def test_push_pop_coalesces_blocks(self):
        q = IngestQueue(capacity_rows=1000)
        q.push(_rows(10))
        q.push(_rows(20, seed=1))
        got = q.pop(max_rows=256)
        assert got.shape[0] == 30
        assert q.depth_rows == 0

    def test_pop_respects_max_rows(self):
        q = IngestQueue(capacity_rows=1000)
        for i in range(5):
            q.push(_rows(10, seed=i))
        first = q.pop(max_rows=25)
        second = q.pop(max_rows=25)
        third = q.pop(max_rows=25)
        assert first.shape[0] == 20  # whole blocks only, under the cap
        assert second.shape[0] == 20
        assert third.shape[0] == 10
        assert q.pop(max_rows=25) is None

    def test_push_raises_when_full(self):
        q = IngestQueue(capacity_rows=25)
        q.push(_rows(20))
        with pytest.raises(QueueFull):
            q.push(_rows(10))
        assert q.depth_rows == 20  # rejected block not partially taken

    def test_requeue_front_preserves_rows(self):
        q = IngestQueue(capacity_rows=100)
        q.push(_rows(40))
        block = q.pop(max_rows=40)
        q.requeue_front(block)
        assert q.depth_rows == 40
        assert q.rows_requeued == 40


class TestTenantModel:
    def test_direct_apply_and_publish(self):
        model = TenantModel(_spec())
        cache = EigenbasisCache()
        model.apply_block(_rows(64))
        assert model.is_initialized
        assert model.should_publish()
        snap = model.publish(cache)
        assert snap is not None and snap.version == 1
        assert cache.get("t0").rows_applied == 64

    def test_reseed_adopts_snapshot(self):
        model = TenantModel(_spec())
        cache = EigenbasisCache()
        model.apply_block(_rows(128))
        snap = model.publish(cache)
        other = TenantModel(_spec())
        other.reseed(snap)
        assert other.is_initialized
        state = other._estimator.public_state()
        np.testing.assert_allclose(state.basis, snap.state.basis)


class TestTenantRouter:
    def test_assignment_is_deterministic(self):
        r = TenantRouter()
        lanes = [0, 1, 2]
        names = [f"tenant-{i}" for i in range(20)]
        a = {n: r.lane_of(n, lanes) for n in names}
        b = {n: r.lane_of(n, lanes) for n in names}
        assert a == b
        assert set(a.values()) == {0, 1, 2}  # spreads across lanes

    def test_rendezvous_minimal_movement(self):
        r = TenantRouter()
        names = [f"tenant-{i}" for i in range(50)]
        before = {n: r.lane_of(n, [0, 1, 2]) for n in names}
        after = {n: r.lane_of(n, [0, 1, 2, 3]) for n in names}
        # Adding a lane must never move a tenant between *surviving* lanes.
        moved = [n for n in names if after[n] != before[n]]
        assert all(after[n] == 3 for n in moved)
        assert 0 < len(moved) < len(names)


# ---------------------------------------------------------------------------
# pool: lanes drain queues, chaos kill → evict → reseed → respawn
# ---------------------------------------------------------------------------


class TestEnginePool:
    def _pool(self, tenants, **kw):
        cache = EigenbasisCache()
        kw.setdefault("n_lanes", 2)
        kw.setdefault("idle_wait_s", 0.005)
        pool = EnginePool(cache, lambda: tenants, **kw)
        return cache, pool

    def test_lanes_drain_and_publish(self):
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t})
        pool.start()
        try:
            t.queue.push(_rows(64))
            pool.work_event.set()
            assert _wait(lambda: cache.get("a") is not None)
            assert pool.drain(10.0)
            assert t.model.rows_applied == 64
        finally:
            pool.stop()

    def test_idle_lane_publishes_the_tail_of_a_burst(self):
        """Three blocks against a cadence of four: the last two are
        applied after the first snapshot and would wait for more
        traffic, but the idle lane publishes them."""
        t = TenantState(_spec("a", publish_every_blocks=4))
        cache, pool = self._pool({"a": t}, n_lanes=1, idle_wait_s=0.05)
        pool.start()
        try:
            for i in range(3):
                t.queue.push(_rows(16, seed=i))
                pool.work_event.set()
                assert _wait(lambda: t.model.rows_applied == 16 * (i + 1))
            assert _wait(
                lambda: cache.peek("a") is not None
                and cache.peek("a").rows_applied == 48,
                timeout_s=5.0,
            )
            # Nothing new since: the idle lane does not publish again.
            version = cache.peek("a").version
            time.sleep(0.3)
            assert cache.peek("a").version == version
        finally:
            pool.stop()

    def test_kill_lane_evicts_reseeds_respawns(self):
        tenants = {
            n: TenantState(_spec(n)) for n in ("a", "b", "c", "d")
        }
        events = []
        cache, pool = self._pool(
            tenants, on_event=lambda kind, **p: events.append(kind)
        )
        pool.start()
        try:
            for t in tenants.values():
                t.queue.push(_rows(64, seed=hash(t.name) % 1000))
            pool.work_event.set()
            assert pool.drain(10.0)

            victim_id = pool.lane_of("a")
            victims = {t.name for t in pool.tenants_for(victim_id)}
            with pool._lock:
                pool._lanes[victim_id].kill()
            pool.work_event.set()
            # The pool replaces the dead lane by itself.
            assert _wait(
                lambda: victim_id not in pool.live_lane_ids()
                and len(pool.live_lane_ids()) == pool.desired_lanes
            )
            assert pool.stats.n_evictions == 1
            assert pool.stats.n_rejoins == 1
            assert events.count("lane_dead") == 1
            assert events.count("lane_respawned") == 1

            # The pool keeps serving after the rejoin, and the tenants
            # stranded on the dead lane are reseeded before they apply.
            for t in tenants.values():
                t.queue.push(_rows(32, seed=7))
            pool.work_event.set()
            assert pool.drain(10.0)
            assert _wait(
                lambda: events.count("tenant_reseeded") == len(victims)
            )
            assert all(tenants[n].model.n_reseeds == 1 for n in victims)
        finally:
            pool.stop()

    def test_block_failing_every_apply_respawns_at_a_bounded_rate(
        self, monkeypatch
    ):
        t = TenantState(_spec("a"))
        events = []
        cache, pool = self._pool(
            {"a": t}, n_lanes=1,
            on_event=lambda kind, **p: events.append(kind),
        )

        def poisoned(xs, wal_seq=-1):
            raise RuntimeError("poisoned block")

        monkeypatch.setattr(t.model, "apply_block", poisoned)
        t.queue.push(_rows(16))
        pool.start()
        try:
            pool.work_event.set()
            time.sleep(1.0)
            # Each replacement lane dies on the requeued block, but at
            # most one respawn happens per 0.25 s: no busy loop.
            assert 2 <= pool.stats.n_rejoins <= 5
            assert events.count("lane_dead") == pool.stats.n_evictions
            # The block is never lost while lanes keep dying on it.
            assert t.queue.depth_rows == 16
        finally:
            pool.stop()
        assert pool.live_lane_ids() == []

    def test_scale_to_and_membership_quorum(self):
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t}, n_lanes=2)
        pool.start()
        try:
            assert pool.scale_to(4) == 2
            assert _wait(lambda: len(pool.live_lane_ids()) == 4)
            m = pool.membership
            assert m.quorum == 4 // 2 + 1
            assert len(m.peers) == 4
            assert pool.scale_to(2) == -2
            assert _wait(lambda: len(pool.live_lane_ids()) == 2)
        finally:
            pool.stop()

    def test_backpressure_probe_shape(self):
        t = TenantState(_spec("a"))
        cache, pool = self._pool({"a": t})
        pool.start()
        try:
            per_pe, inflight, dispatched = pool.backpressure_probe()
            assert isinstance(per_pe, list)
            for label, depth, capacity in per_pe:
                assert label.startswith("lane-")
                assert depth >= 0
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# service core (transport-independent)
# ---------------------------------------------------------------------------


class TestPCAService:
    def test_ingest_and_query_codes(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            code, body = svc.ingest("nope", _rows(4).tolist())
            assert code == 404
            code, body = svc.ingest("a", {"bogus": True})
            assert code == 422
            code, body = svc.ingest("a", _rows(64).tolist())
            assert code == 202
            assert body["accepted_rows"] == 64

            # query before any snapshot exists on an unknown tenant
            code, body = svc.transform("nope", _rows(2).tolist())
            assert code == 404

            assert _wait(lambda: svc.cache.get("a") is not None)
            code, body = svc.transform("a", _rows(2).tolist())
            assert code == 200
            assert body["snapshot_version"] >= 1
            assert "snapshot_age_s" in body
            code, body = svc.outlier_score("a", _rows(2).tolist())
            assert code == 200
            code, body = svc.eigenspectra("a", top_k=2)
            assert code == 200
            assert len(body["spectra"]["eigenvalues"]) == 2
        finally:
            svc.stop()

    def test_query_409_before_first_snapshot(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            code, body = svc.transform("a", _rows(2).tolist())
            assert code == 409
            assert "snapshot" in body["error"]
        finally:
            svc.stop()

    def test_rate_limited_tenant_gets_429_with_retry_after(self):
        svc = _service(
            _spec("slow", max_rate_hz=64.0, burst_s=1.0)
        )
        svc.start()
        try:
            codes = []
            for _ in range(8):
                code, body = svc.ingest("slow", _rows(32).tolist())
                codes.append(code)
                if code == 429:
                    assert body["retry_after_s"] > 0
            assert 202 in codes and 429 in codes
            st = svc.tenant("slow")
            assert st.rows_shed > 0
            assert st.rows_accepted + st.rows_shed == 8 * 32
        finally:
            svc.stop()

    def test_queue_full_gets_429_shed_not_drop(self):
        svc = _service(_spec("tiny", queue_capacity_rows=64))
        svc.start()
        svc.pool.stop()  # freeze draining so the queue can actually fill
        try:
            codes = [
                svc.ingest("tiny", _rows(32).tolist())[0] for _ in range(4)
            ]
            assert codes.count(202) == 2
            assert codes.count(429) == 2
            st = svc.tenant("tiny")
            # shed-not-drop: everything admitted is still in the queue
            assert st.queue.depth_rows == st.rows_accepted == 64
            assert st.rows_rejected_full == 64
        finally:
            svc.stop()

    def test_ready_flips_on_lane_kill_and_recovers(self):
        svc = _service(_spec("a"), n_lanes=2)
        svc.start()
        try:
            code, _ = svc.ingest("a", _rows(64).tolist())
            assert code == 202
            assert _wait(lambda: svc.ready()[0] == 200)

            victim = svc.pool.lane_of("a")
            with svc.pool._lock:
                svc.pool._lanes[victim].kill()
            svc.pool.work_event.set()
            # The pool evicts the dead lane, spawns its replacement by
            # itself, and the new owner reseeds the tenant.
            assert _wait(lambda: svc.pool.stats.n_rejoins == 1)
            assert svc.pool.stats.n_evictions == 1
            assert victim not in svc.pool.live_lane_ids()
            assert _wait(lambda: svc.tenant("a").model.n_reseeds == 1)
            assert _wait(lambda: svc.ready()[0] == 200)
            kinds = {e["kind"] for e in svc.telemetry.events.events()}
            assert {
                "serving_lane_dead", "serving_lane_respawned",
                "serving_tenant_reseeded",
            } <= kinds
            # ingest still works end to end after the rejoin
            code, _ = svc.ingest("a", _rows(32).tolist())
            assert code == 202
            assert svc.pool.drain(10.0)
        finally:
            svc.stop()

    def test_ready_is_critical_while_lanes_stay_below_quorum(
        self, monkeypatch
    ):
        svc = _service(_spec("a"), n_lanes=2)
        monkeypatch.setattr(svc.pool, "respawn_dead", lambda: 0)
        svc.start()
        try:
            assert _wait(lambda: svc.ready()[0] == 200)
            victim = svc.pool.live_lane_ids()[0]
            with svc.pool._lock:
                svc.pool._lanes[victim].kill()
            svc.pool.work_event.set()
            assert _wait(lambda: svc.ready()[0] == 503)
            code, body = svc.ready()
            assert body["health_status"] == "CRITICAL"
            assert body["live_lanes"] == 1
        finally:
            svc.stop()

    def test_block_of_another_width_is_refused_before_admission(
        self, tmp_path
    ):
        svc = _service(_spec("a"), data_dir=str(tmp_path))
        svc.start()
        try:
            assert _wait(lambda: svc.ready()[0] == 200)
            code, ack = svc.ingest("a", _rows(64, dim=8).tolist())
            assert code == 202
            wal = svc.durability.wal_for("a")
            next_seq = wal.next_seq
            accepted = svc.tenant("a").rows_accepted
            code, body = svc.ingest("a", _rows(64, dim=5).tolist())
            assert code == 422
            assert "width 5" in body["error"]
            assert svc.tenant("a").rows_accepted == accepted
            assert wal.next_seq == next_seq  # no WAL record written
            assert svc.pool.drain(10.0)
            time.sleep(0.2)
            kinds = {e["kind"] for e in svc.telemetry.events.events()}
            assert "serving_lane_dead" not in kinds
            assert svc.tenant("a").model.rows_applied == 64
            assert svc.ready()[0] == 200
        finally:
            svc.stop()

    def test_status_and_metrics_exposed(self):
        svc = _service(_spec("a"))
        svc.start()
        try:
            svc.ingest("a", _rows(64).tolist())
            assert _wait(lambda: svc.cache.get("a") is not None)
            code, body = svc.status()
            assert code == 200
            assert "a" in body["tenants"]
            text = svc.telemetry.metrics.to_prometheus()
            assert "repro_serving_queue_depth" in text
            assert "repro_serving_live_lanes" in text
        finally:
            svc.stop()

    def test_auto_tenant_template(self):
        svc = PCAService(ServingConfig(
            n_lanes=1, elastic=False,
            auto_tenant_template=_spec("template"),
        ))
        svc.start()
        try:
            code, _ = svc.ingest("fresh", _rows(64).tolist())
            assert code == 202
            assert svc.tenant("fresh") is not None
        finally:
            svc.stop()


class TestEventBus:
    def test_publish_drain_and_overflow(self):
        bus = EventBus(max_queue=4)
        sid = bus.subscribe()
        for i in range(8):
            bus.publish({"i": i})
        got = bus.drain(sid)
        assert len(got) == 4
        assert got[-1]["i"] == 7  # oldest dropped, newest kept
        assert bus.n_dropped == 4
        bus.unsubscribe(sid)

    def test_waker_called_on_publish(self):
        bus = EventBus()
        woke = threading.Event()
        bus.subscribe(waker=woke.set)
        bus.publish({"k": 1})
        assert woke.is_set()


# ---------------------------------------------------------------------------
# HTTP/WS front end
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    svc = _service(_spec("a"), _spec("b"))
    srv = ServingServer(svc, port=0)
    srv.start()
    yield srv
    srv.stop()


class TestServingHTTP:
    def test_basic_routes(self, server):
        with ServingClient(server.host, server.port) as c:
            assert c.live().code == 200
            assert c.ready().code in (200, 503)
            r = c.ingest("a", _rows(64).tolist())
            assert r.code == 202
            assert _wait(lambda: c.snapshot("a").code == 200)
            meta = c.snapshot("a").body
            assert meta["snapshot_version"] >= 1
            r = c.transform("a", _rows(3).tolist())
            assert r.code == 200
            assert len(r.body["coefficients"]) == 3
            r = c.eigenspectra("a", top_k=2)
            assert r.code == 200
            assert len(r.body["spectra"]["eigenvalues"]) == 2
            assert "repro_serving_requests_total" in c.metrics_text()

    def test_json_errors(self, server):
        with ServingClient(server.host, server.port) as c:
            r = c.request("GET", "/no/such/path")
            assert r.code == 404 and "error" in r.body
            r = c.request("GET", "/v1/nope/snapshot")
            assert r.code == 404
            r = c.request("GET", "/v1/a/transform")  # GET on a POST route
            assert r.code == 405
            r = c.request("POST", "/v1/a/ingest", {"x": 1})
            assert r.code == 422

    def test_malformed_json_body_gets_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            conn.request(
                "POST", "/v1/a/ingest", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()

    def test_snapshot_409_then_200(self, server):
        with ServingClient(server.host, server.port) as c:
            assert c.transform("b", _rows(2).tolist()).code == 409
            c.ingest("b", _rows(64).tolist())
            assert _wait(
                lambda: c.transform("b", _rows(2).tolist()).code == 200
            )

    def test_websocket_event_push(self, server):
        with ServingClient(server.host, server.port) as c:
            with WebSocketClient(
                server.host, server.port, "a", timeout_s=10.0
            ) as ws:
                first = ws.recv_event()
                assert first["event"] == "subscribed"
                c.ingest("a", _rows(64).tolist())
                kinds = set()
                deadline = time.perf_counter() + 10.0
                while time.perf_counter() < deadline:
                    ev = ws.recv_event()
                    if ev is None:
                        break
                    kinds.add(ev["event"])
                    if "snapshot_published" in kinds:
                        break
                assert "snapshot_published" in kinds


# ---------------------------------------------------------------------------
# acceptance: the end-to-end contract from ISSUE.md
# ---------------------------------------------------------------------------


class TestServingEndToEnd:
    N_CLIENTS = 16
    DIM = 8

    def test_concurrent_clients_two_tenants_chaos(self):
        svc = _service(
            _spec("bulk", max_block_rows=128),
            _spec("throttled", max_rate_hz=600.0, burst_s=0.5),
            n_lanes=2,
        )
        srv = ServingServer(svc, port=0)
        srv.start()
        stop = threading.Event()
        errors: list[str] = []
        lock = threading.Lock()
        sent = {"bulk": 0, "throttled": 0}
        shed_seen = {"throttled": 0}
        queries_ok = [0]
        versions: dict[int, int] = {}

        def client_loop(cid: int) -> None:
            tenant = "bulk" if cid % 2 == 0 else "throttled"
            crng = np.random.default_rng(SEED + cid)
            try:
                with ServingClient(srv.host, srv.port) as c:
                    while not stop.is_set():
                        rows = _rows(16, self.DIM, seed=int(
                            crng.integers(0, 2**31)
                        ))
                        r = c.ingest(tenant, rows.tolist())
                        if r.code == 202:
                            with lock:
                                sent[tenant] += 16
                        elif r.code == 429:
                            with lock:
                                if tenant == "throttled":
                                    shed_seen[tenant] += 16
                            ra = r.retry_after_s
                            time.sleep(min(ra or 0.01, 0.02))
                        elif r.code >= 500:
                            with lock:
                                errors.append(f"{cid}: ingest {r.code}")
                            return
                        # interleave reads with writes on every pass
                        q = c.transform(tenant, rows[:2].tolist())
                        if q.code == 200:
                            v = q.body["snapshot_version"]
                            with lock:
                                queries_ok[0] += 1
                                # versions only ever move forward
                                if v < versions.get(cid, 0):
                                    errors.append(
                                        f"{cid}: version went backwards"
                                    )
                                versions[cid] = v
                        elif q.code not in (409,):
                            with lock:
                                errors.append(f"{cid}: query {q.code}")
                            return
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"{cid}: {exc!r}")

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(self.N_CLIENTS)
        ]
        try:
            for t in threads:
                t.start()
            time.sleep(1.5)

            # chaos: kill one lane mid-traffic, watch /ready flip, recover
            with ServingClient(srv.host, srv.port) as probe:
                victim = svc.pool.lane_of("bulk")
                with svc.pool._lock:
                    svc.pool._lanes[victim].kill()
                svc.pool.work_event.set()
                # evict, reseed and rejoin, with no outside help
                assert _wait(lambda: svc.pool.stats.n_rejoins >= 1, 10.0)
                assert _wait(
                    lambda: svc.tenant("bulk").model.n_reseeds >= 1, 10.0
                )
                assert _wait(lambda: probe.ready().code == 200, 10.0)

            time.sleep(1.0)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)

        try:
            assert not errors, errors[:5]
            assert svc.pool.drain(30.0)
            # zero loss on admitted traffic, per tenant
            for name in ("bulk", "throttled"):
                st = svc.tenant(name)
                assert st.model.rows_applied == sent[name], (
                    name, st.model.rows_applied, sent[name]
                )
                assert st.rows_accepted == sent[name]
            # overload actually happened and was shed, not dropped
            assert shed_seen["throttled"] > 0
            assert svc.tenant("throttled").rows_shed >= shed_seen[
                "throttled"
            ]
            # reads really ran against published snapshots
            assert queries_ok[0] > 0
            assert svc.cache.stats()["n_hits"] > 0
            assert svc.pool.stats.n_evictions >= 1
            assert svc.pool.stats.n_rejoins >= 1
        finally:
            srv.stop()

    def test_queries_never_take_the_model_lock(self):
        """Readers are served from the cache even while a writer holds
        the tenant model lock (the copy-on-publish contract)."""
        svc = _service(_spec("a"))
        svc.start()
        srv = ServingServer(svc, port=0)
        srv.start()
        try:
            with ServingClient(srv.host, srv.port) as c:
                c.ingest("a", _rows(64).tolist())
                assert _wait(
                    lambda: c.transform("a", _rows(2).tolist()).code == 200
                )
                st = svc.tenant("a")
                acquired = st.model.lock.acquire()
                assert acquired
                try:
                    t0 = time.perf_counter()
                    r = c.transform("a", _rows(2).tolist())
                    elapsed = time.perf_counter() - t0
                finally:
                    st.model.lock.release()
                assert r.code == 200
                # a lock-waiting reader would block until release; a
                # cache reader answers immediately
                assert elapsed < 1.0
        finally:
            srv.stop()


# ---------------------------------------------------------------------------
# smoke entrypoint (short run of the CI job's driver)
# ---------------------------------------------------------------------------


class TestSmokeDriver:
    def test_run_smoke_short(self, tmp_path):
        from repro.serving.smoke import run_smoke

        out = tmp_path / "telemetry.jsonl"
        report = run_smoke(
            n_clients=6,
            duration_s=2.0,
            seed=SEED,
            dim=8,
            block_rows=16,
            n_lanes=2,
            overload=True,
            telemetry_out=str(out),
            verbose=False,
        )
        assert report["ok"] is True
        assert report["failures"] == []
        assert out.exists()
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert lines
