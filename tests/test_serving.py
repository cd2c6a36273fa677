"""The multi-tenant serving layer (docs/serving.md).

Four pillars:

* unit coverage of admission control (bounded queue, quotas, the
  two-phase guarantee-round + priority-fill batch selection) and the
  session/submit API surface;
* the hypothesis property the tenancy model promises — priority
  admission never starves an under-quota tenant: whenever batch capacity
  covers the number of waiting tenants, every waiting tenant gets a slot
  in the very next batch, regardless of priorities and arrival order;
* the acceptance differential — one seeded Poisson trace, served once on
  the virtual-time scheduler and once on ``ThreadRuntime``, must agree
  bitwise on admission decisions, batch compositions, latencies, and the
  per-query result vectors (chaos runs included: the fault plan replays
  the same drops on both);
* the serving counters surfacing as first-class typed
  ``QueryRunResult`` fields and ``serve.*`` metrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.errors import SourceRangeError
from repro.graph import powerlaw_cluster
from repro.rpc import RetryPolicy
from repro.serving import (
    AdmissionController,
    AdmissionRejected,
    Query,
    RejectReason,
    ServiceCostModel,
    SessionConfig,
    TenantSpec,
    bursty_trace,
    poisson_trace,
    serve_trace,
)
from repro.simt import FaultPlan

TENANTS = (TenantSpec("gold", priority=2, quota=32, weight=2.0),
           TenantSpec("silver", priority=1, quota=16, weight=1.5),
           TenantSpec("free", priority=0, quota=4, weight=1.0))


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(400, 5, mixing=0.2, seed=11)
    return GraphEngine(graph, EngineConfig(n_machines=2))


class TestAdmissionController:
    def test_queue_full_rejection_typed(self):
        ac = AdmissionController(queue_cap=2, batch_cap=4)
        assert ac.offer(0, "a", "x").admitted
        assert ac.offer(1, "a", "y").admitted
        d = ac.offer(2, "a", "z")
        assert not d.admitted
        assert d.reason is RejectReason.QUEUE_FULL
        assert "queue_full" in d.describe()

    def test_quota_rejection_typed_and_released_by_drain(self):
        ac = AdmissionController(tenants=(TenantSpec("t", quota=1),),
                                 queue_cap=8, batch_cap=8)
        assert ac.offer(0, "t", "x").admitted
        d = ac.offer(1, "t", "y")
        assert d.reason is RejectReason.QUOTA_EXCEEDED
        assert ac.take_batch() == ["x"]
        assert ac.offer(2, "t", "z").admitted  # quota freed by the batch

    def test_guarantee_round_then_priority_fill(self):
        ac = AdmissionController(tenants=TENANTS, queue_cap=16, batch_cap=4)
        # free floods first, gold and silver arrive later
        for seq in range(3):
            ac.offer(seq, "free", f"f{seq}")
        ac.offer(3, "gold", "g0")
        ac.offer(4, "silver", "s0")
        ac.offer(5, "gold", "g1")
        batch = ac.take_batch()
        # guarantee round: one slot each (gold first, then silver, free);
        # priority fill: the second gold; returned in submit order
        assert batch == ["f0", "g0", "s0", "g1"]

    def test_batch_returned_in_submit_order(self):
        ac = AdmissionController(tenants=TENANTS, queue_cap=16, batch_cap=8)
        ac.offer(0, "free", "f")
        ac.offer(1, "gold", "g")
        assert ac.take_batch() == ["f", "g"]

    def test_undeclared_tenant_gets_default_contract(self):
        ac = AdmissionController(queue_cap=4, batch_cap=4)
        assert ac.offer(0, "walk-in", "w").admitted
        assert ac.spec("walk-in").quota is None
        assert ac.spec("walk-in").priority == 0


class TestStarvationFreedom:
    """Priority admission never starves an under-quota tenant."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["gold", "silver", "free"]),
                    min_size=1, max_size=24),
           st.integers(min_value=3, max_value=8))
    def test_every_waiting_tenant_in_next_batch(self, offers, batch_cap):
        ac = AdmissionController(tenants=TENANTS, queue_cap=64,
                                 batch_cap=batch_cap)
        admitted_tenants = set()
        for seq, tenant in enumerate(offers):
            if ac.offer(seq, tenant, (seq, tenant)).admitted:
                admitted_tenants.add(tenant)
        # batch_cap >= 3 >= number of distinct waiting tenants, so the
        # guarantee round must cover every one of them
        batch = ac.take_batch()
        assert {t for (_, t) in batch} == admitted_tenants

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["gold", "silver", "free"]),
                    min_size=4, max_size=40))
    def test_drain_to_empty_preserves_everything(self, offers):
        ac = AdmissionController(tenants=TENANTS, queue_cap=64, batch_cap=3)
        kept = []
        for seq, tenant in enumerate(offers):
            if ac.offer(seq, tenant, seq).admitted:
                kept.append(seq)
        drained = []
        while ac.depth:
            drained.extend(ac.take_batch())
        assert sorted(drained) == kept  # nothing lost, nothing duplicated


class TestArrivalTraces:
    def test_poisson_deterministic_per_seed(self):
        pool = np.arange(100)
        a = poisson_trace(pool, rate=300, duration=0.2, seed=5,
                          tenants=TENANTS, walk_frac=0.3)
        b = poisson_trace(pool, rate=300, duration=0.2, seed=5,
                          tenants=TENANTS, walk_frac=0.3)
        assert a == b
        c = poisson_trace(pool, rate=300, duration=0.2, seed=6,
                          tenants=TENANTS, walk_frac=0.3)
        assert a != c

    def test_weights_shape_the_mix(self):
        pool = np.arange(50)
        trace = poisson_trace(pool, rate=2000, duration=0.5, seed=1,
                              tenants=TENANTS)
        mix = trace.mix()
        assert mix["gold"] > mix["free"]  # weight 2.0 vs 1.0

    def test_bursty_is_burstier_than_poisson(self):
        pool = np.arange(50)
        po = poisson_trace(pool, rate=200, duration=1.0, seed=3)
        bu = bursty_trace(pool, rate=200, duration=1.0, seed=3,
                          burst_factor=8.0, period=0.2, duty=0.25)
        def peak_window(trace, w=0.05):
            times = [a.time for a in trace]
            return max(sum(1 for t in times if s <= t < s + w)
                       for s in np.arange(0, 1.0, w))
        assert peak_window(bu) > peak_window(po)

    def test_validation(self):
        pool = np.arange(10)
        with pytest.raises(ValueError, match="rate"):
            poisson_trace(pool, rate=0, duration=1.0)
        with pytest.raises(ValueError, match="walk_frac"):
            poisson_trace(pool, rate=1, duration=1.0, walk_frac=2.0)
        with pytest.raises(ValueError, match="non-empty"):
            poisson_trace(np.array([]), rate=1, duration=1.0)
        with pytest.raises(ValueError, match="duty"):
            bursty_trace(pool, rate=1, duration=1.0, duty=1.5)


class TestSessionApi:
    def test_submit_drain_result(self, engine):
        session = engine.open_session(SessionConfig(slo=1.0))
        h = session.submit(Query(source=3))
        assert h.status == "queued"
        with pytest.raises(RuntimeError, match="still queued"):
            h.result()
        run = session.drain()
        assert h.done and h.slo_ok
        assert run.admitted == 1 and run.deadline_missed == 0
        vec = h.result().dense_result(engine.sharded, engine.graph.n_nodes)
        assert vec.sum() > 0

    def test_rejected_handle_raises_typed(self, engine):
        session = engine.open_session(SessionConfig(
            tenants=(TenantSpec("t", quota=1),)))
        session.submit(Query(source=1), tenant="t")
        h = session.submit(Query(source=2), tenant="t")
        assert h.rejected
        with pytest.raises(AdmissionRejected) as err:
            h.result()
        assert err.value.reason is RejectReason.QUOTA_EXCEEDED

    def test_batch_equals_engine_run_bitwise(self, engine):
        """The satellite guarantee: one code path, identical results."""
        sources = np.array([5, 9, 23, 41])
        run = engine.run(RunRequest(sources=sources, mode="batched"))
        session = engine.open_session()
        handles = [session.submit(Query(source=int(s))) for s in sources]
        session.drain()
        n = engine.graph.n_nodes
        for h in handles:
            np.testing.assert_array_equal(
                run.states[h.query.source].dense_result(engine.sharded, n),
                h.result().dense_result(engine.sharded, n))

    def test_walk_queries_resolve_to_rows(self, engine):
        session = engine.open_session()
        h = session.submit(Query(source=7, kind="walk", walk_length=5))
        session.drain()
        row = h.result()
        assert row.shape == (6,)      # walk_length + 1 incl. the root
        assert int(row[0]) == 7

    def test_mixed_batch_and_counters(self, engine):
        session = engine.open_session(SessionConfig(slo=10.0))
        hs = [session.submit(Query(source=2)),
              session.submit(Query(source=4, kind="walk", walk_length=3)),
              session.submit(Query(source=6))]
        run = session.drain()
        assert all(h.done for h in hs)
        assert run.admitted == 3
        snap = session.snapshot()
        assert snap["serve.admitted"] == 3
        assert snap["serve.completed"] == 3
        assert snap["serve.batches"] == 1
        assert snap["serve.latency.count"] == 3

    def test_cost_model_validation_and_clock(self, engine):
        cm = ServiceCostModel()
        with pytest.raises(ValueError):
            cm.service_time(n_queries=-1)
        session = engine.open_session(SessionConfig(cost_model=cm))
        session.submit(Query(source=1))
        assert session.now == 0.0
        session.drain()
        assert session.now > 0.0      # modeled service time, not wall time

    def test_empty_drain_is_a_zero_result(self, engine):
        session = engine.open_session()
        run = session.drain()
        assert run.n_queries == 0 and run.admitted == 0

    @pytest.mark.parametrize("kind", ["sppr", "walk"])
    @pytest.mark.parametrize("offset", [5, -405])
    def test_out_of_range_source_is_typed(self, engine, kind, offset):
        n = engine.graph.n_nodes
        source = n + offset
        session = engine.open_session()
        with pytest.raises(SourceRangeError,
                           match=rf"source {source} .*\[0, {n}\)"):
            session.submit(Query(source=source, kind=kind))
        assert session.decisions == [] and session.admission.depth == 0
        assert session.snapshot().get("serve.submitted", 0) == 0
        assert session.submit(Query(source=0, kind=kind)).seq == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SessionConfig(mode="bogus")
        with pytest.raises(ValueError, match="runtime"):
            SessionConfig(runtime="gpu")
        with pytest.raises(ValueError, match="slo"):
            SessionConfig(slo=-1.0)
        with pytest.raises(ValueError, match="kind"):
            Query(source=1, kind="bogus")


def _serve(engine, trace, runtime, *, chaos=False):
    cfg = SessionConfig(
        tenants=TENANTS, queue_cap=24, batch_cap=8, slo=0.05,
        runtime=runtime,
        fault_plan=FaultPlan(seed=13, drop_prob=0.08) if chaos else None,
        retry_policy=RetryPolicy(max_attempts=6, timeout=5.0)
        if chaos else None,
    )
    return serve_trace(engine, trace, cfg)


class TestRuntimeDifferential:
    """The acceptance assertion: one seeded trace, two runtimes, bitwise
    identical admission decisions, batch compositions, and results."""

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["healthy", "chaos"])
    def test_sim_equals_threads(self, engine, chaos):
        trace = poisson_trace(np.arange(engine.graph.n_nodes), rate=400,
                              duration=0.2, seed=7, tenants=TENANTS,
                              walk_frac=0.25)
        sim = _serve(engine, trace, "sim", chaos=chaos)
        thr = _serve(engine, trace, "threads", chaos=chaos)

        assert sim.session.decisions == thr.session.decisions
        assert sim.session.batch_log == thr.session.batch_log
        assert sim.row() == thr.row()
        n = engine.graph.n_nodes
        for a, b in zip(sim.handles, thr.handles):
            assert (a.status, a.latency, a.slo_ok) == \
                (b.status, b.latency, b.slo_ok)
            if not a.done:
                continue
            if a.query.kind == "sppr":
                np.testing.assert_array_equal(
                    a.result().dense_result(engine.sharded, n),
                    b.result().dense_result(engine.sharded, n))
            else:
                np.testing.assert_array_equal(a.result(), b.result())
        if chaos:
            # faults actually fired on both runtimes, identically
            sim_c = sim.session.metrics.counters()
            thr_c = thr.session.metrics.counters()
            assert sim_c["rpc.dropped_messages"] > 0
            for key in ("rpc.dropped_messages", "rpc.retries",
                        "serve.batch_retries"):
                assert sim_c.get(key, 0) == thr_c.get(key, 0), key

    def test_chaos_slows_the_serving_clock(self, engine):
        trace = poisson_trace(np.arange(engine.graph.n_nodes), rate=300,
                              duration=0.15, seed=3, tenants=TENANTS)
        healthy = _serve(engine, trace, "sim", chaos=False)
        chaos = _serve(engine, trace, "sim", chaos=True)
        # retries carry a modeled cost, so chaos serving is strictly slower
        assert chaos.clock > healthy.clock
        assert chaos.p95 >= healthy.p95
        # ... but never changes any answer
        n = engine.graph.n_nodes
        for a, b in zip(healthy.handles, chaos.handles):
            if a.done and b.done and a.query.kind == "sppr":
                np.testing.assert_array_equal(
                    a.result().dense_result(engine.sharded, n),
                    b.result().dense_result(engine.sharded, n))


class TestOverloadBehavior:
    def test_overload_produces_typed_rejections(self, engine):
        trace = bursty_trace(np.arange(engine.graph.n_nodes), rate=500,
                             duration=0.3, seed=9, tenants=TENANTS,
                             burst_factor=8.0)
        cfg = SessionConfig(tenants=TENANTS, queue_cap=8, batch_cap=4,
                            slo=0.02)
        report = serve_trace(engine, trace, cfg)
        assert report.rejected > 0
        assert report.rejected == (report.rejected_queue_full
                                   + report.rejected_quota)
        assert report.admitted + report.rejected == report.arrivals
        assert report.admitted == report.completed  # open loop drains all
        assert 0.0 <= report.attainment <= 1.0
        assert report.goodput <= report.throughput

    def test_report_row_matches_describe(self, engine):
        trace = poisson_trace(np.arange(engine.graph.n_nodes), rate=100,
                              duration=0.1, seed=2)
        report = serve_trace(engine, trace, SessionConfig(slo=0.05))
        row = report.row()
        text = report.describe()
        assert f"arrivals={row['arrivals']}" in text
        assert f"goodput={row['goodput']:.1f}/s" in text
