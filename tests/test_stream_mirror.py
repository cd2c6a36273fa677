"""The columnar streaming mirror against a dict-of-dicts reference.

:class:`~repro.stream.dynamic.DynamicGraph` keeps the graph as one
copy-on-write CSR version per applied batch.  Its observable contract is
the one the simple per-row dict mirror below defines: every row, weighted
degree, count, snapshot array and applied delta must match it *bitwise*
under random upserts, re-weights, deletes and no-ops with interleaved
LIFO reverts.  Also pinned here: the mirror's read-only views, the LIFO
revert rule, that captured pre-rows never pin a retired version, and
that the array-gather ``refresh`` matches the per-neighbour loop
version bitwise.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine
from repro.errors import GraphFormatError, SourceRangeError, StreamError
from repro.graph import powerlaw_cluster
from repro.graph.csr import CSRGraph
from repro.ppr import PPRParams
from repro.ppr.incremental import IncrementalState, _normalized_row, refresh
from repro.stream import (DynamicGraph, StreamConfig, StreamingSession,
                          TemporalEdgeStream, UpdateBatch)


class DictMirror:
    """Reference mirror: one ``{neighbor: weight}`` dict per vertex."""

    def __init__(self, graph):
        self.adj = [{} for _ in range(graph.n_nodes)]
        for u in range(graph.n_nodes):
            for v, w in zip(graph.neighbors(u), graph.neighbor_weights(u)):
                self.adj[u][int(v)] = float(w)

    def row(self, u):
        gids = np.array(sorted(self.adj[u]), dtype=np.int64)
        return gids, np.array([self.adj[u][g] for g in gids.tolist()],
                              dtype=np.float64)

    def wdeg(self, u):
        return float(np.sum(self.row(u)[1]))

    def apply(self, batch):
        changed, undo, counts = set(), [], [0, 0, 0]
        for u, v, w, op in zip(batch.src.tolist(), batch.dst.tolist(),
                               batch.weight.tolist(), batch.op.tolist()):
            prev = self.adj[u].get(v)
            if op == 1:
                if prev == w:
                    continue
                self.adj[u][v] = self.adj[v][u] = w
                counts[0 if prev is None else 2] += 1
            else:
                if prev is None:
                    continue
                del self.adj[u][v], self.adj[v][u]
                counts[1] += 1
            undo.append((u, v, prev))
            changed |= {u, v}
        return sorted(changed), counts, undo

    def revert(self, undo):
        for u, v, prev in reversed(undo):
            if prev is None:
                del self.adj[u][v], self.adj[v][u]
            else:
                self.adj[u][v] = self.adj[v][u] = prev

    def snapshot(self):
        n = len(self.adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self.adj], out=indptr[1:])
        rows = [self.row(u) for u in range(n)]
        cat = (lambda i, dt: np.concatenate([r[i] for r in rows])
               if n else np.empty(0, dt))
        return CSRGraph(n, indptr, cat(0, np.int64), cat(1, np.float64))


def assert_same(dyn, ref):
    n = dyn.n_nodes
    assert dyn.n_arcs == sum(len(a) for a in ref.adj)
    for u in range(n):
        gids, wts = dyn.row(u)
        r_gids, r_wts = ref.row(u)
        assert gids.dtype == np.int64 and wts.dtype == np.float64
        assert np.array_equal(gids, r_gids)
        assert wts.tobytes() == r_wts.tobytes()
        assert np.float64(dyn.wdeg(u)).tobytes() == \
            np.float64(ref.wdeg(u)).tobytes()
        assert dyn.degree(u) == len(ref.adj[u])
        for v in range(n):
            assert dyn.has_edge(u, v) == (v in ref.adj[u])
    snap, r_snap = dyn.snapshot(), ref.snapshot()
    for name in ("indptr", "indices", "weights", "weighted_degrees"):
        assert getattr(snap, name).tobytes() == \
            getattr(r_snap, name).tobytes(), name


WEIGHTS = (0.5, 1.0, 1.5)   # a small set, so re-weights and no-ops recur

event = st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.sampled_from(WEIGHTS), st.sampled_from((1, -1)))
action = st.one_of(st.just("revert"),
                   st.lists(event, max_size=8))


def make_batch(events):
    events = [e for e in events if e[0] != e[1]]
    if not events:
        return UpdateBatch.empty()
    src, dst, w, op = zip(*events)
    return UpdateBatch(src, dst, w, op)


class TestDifferential:
    @given(st.lists(event, max_size=12), st.lists(action, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, initial, actions):
        edges = [(u, v, w) for u, v, w, _ in initial if u != v]
        graph = CSRGraph.from_edges(8, [e[0] for e in edges],
                                    [e[1] for e in edges],
                                    [e[2] for e in edges])
        dyn, ref = DynamicGraph.from_csr(graph), DictMirror(graph)
        assert_same(dyn, ref)
        stack = []
        for act in actions:
            if act == "revert":
                if stack:
                    delta, undo = stack.pop()
                    dyn.revert(delta)
                    ref.revert(undo)
            else:
                batch = make_batch(act)
                delta = dyn.apply(batch)
                changed, counts, undo = ref.apply(batch)
                assert delta.changed.tolist() == changed
                assert [delta.arcs_inserted, delta.arcs_deleted,
                        delta.arcs_reweighted] == counts
                stack.append((delta, undo))
            assert_same(dyn, ref)

    def test_from_csr_sorts_unsorted_constructor_rows(self):
        # rows deliberately out of order, plus one duplicate arc whose
        # last stored weight wins (dict-assignment semantics)
        indptr = np.array([0, 3, 5, 8, 9])
        indices = np.array([3, 1, 2, 2, 0, 1, 0, 0, 0])
        weights = np.array([0.3, 0.1, 0.2, 1.2, 1.0, 2.1, 2.0, 2.5, 3.0])
        graph = CSRGraph(4, indptr, indices, weights)
        dyn, ref = DynamicGraph.from_csr(graph), DictMirror(graph)
        assert_same(dyn, ref)
        assert dyn.row(2)[1].tolist() == [2.5, 2.1]
        delta = dyn.apply(make_batch([(0, 3, 0.7, 1), (1, 2, 1.0, 1)]))
        ref.apply(make_batch([(0, 3, 0.7, 1), (1, 2, 1.0, 1)]))
        assert delta.changed.tolist() == [0, 1, 2, 3]
        assert_same(dyn, ref)

    def test_out_of_range_raises_before_any_change(self):
        graph = powerlaw_cluster(30, 3, mixing=0.2, seed=1)
        dyn = DynamicGraph.from_csr(graph)
        before = dyn.snapshot()
        with pytest.raises(GraphFormatError, match="outside fixed node"):
            dyn.apply(UpdateBatch([0, 1], [2, 30], [1.0, 1.0], [1, 1]))
        assert dyn.indices is before.indices
        assert dyn.weights is before.weights


class TestVersions:
    def test_views_are_read_only(self):
        dyn = DynamicGraph.from_csr(powerlaw_cluster(30, 3, seed=2))
        gids, wts = dyn.row(0)
        with pytest.raises(ValueError):
            gids[0] = 1
        with pytest.raises(ValueError):
            wts[0] = 1.0
        assert not dyn.wdegs.flags.writeable

    def test_revert_is_lifo(self):
        graph = powerlaw_cluster(40, 3, mixing=0.2, seed=3)
        dyn = DynamicGraph.from_csr(graph)
        stream = TemporalEdgeStream(graph, seed=1, batch_size=6)
        first, second = (dyn.apply(b) for b in stream.batches(2))
        with pytest.raises(StreamError, match="out of order"):
            dyn.revert(first)
        dyn.revert(second)
        dyn.revert(first)
        with pytest.raises(StreamError):
            dyn.revert(first)            # already reverted
        assert dyn.snapshot().indices.tobytes() == graph.indices.tobytes()


class TestPreRowCapture:
    def test_captured_rows_pin_no_arena(self):
        graph = powerlaw_cluster(120, 4, mixing=0.2, seed=5)
        engine = GraphEngine(graph, EngineConfig(n_machines=2, seed=0))
        session = StreamingSession(engine, StreamConfig(refresh_every=8))
        session.publish([0, 7])
        arenas = []
        for batch in TemporalEdgeStream(graph, seed=2,
                                        batch_size=8).batches(4):
            arenas += [session.dyn.indices, session.dyn.weights]
            session.ingest(batch)
        arenas += [session.dyn.indices, session.dyn.weights]
        captured = [a for state in session.states.values()
                    for gids, wts, _ in state.pre_rows.values()
                    for a in (gids, wts)]
        assert captured                  # refresh_every=8: not folded yet
        for row in captured:
            for arena in arenas:
                assert not np.shares_memory(row, arena)


def loop_refresh(state, mirror):
    """Reference refresh: per-neighbour threshold loop over dict rows."""
    alpha, eps = state.params.alpha, state.params.epsilon
    p, r = state.p, state.r
    seeds = set()
    for u in sorted(state.pre_rows):
        seeds.add(u)
        pre_g, pre_w, pre_d = state.pre_rows[u]
        cur_g, cur_w = mirror.row(u)
        if p[u] == 0.0 or (mirror.wdeg(u) == pre_d
                           and np.array_equal(cur_g, pre_g)
                           and np.array_equal(cur_w, pre_w)):
            continue
        n_pre = _normalized_row(pre_g, pre_w, pre_d, u)
        n_cur = _normalized_row(cur_g, cur_w, mirror.wdeg(u), u)
        for t in sorted(n_pre.keys() | n_cur.keys()):
            d = n_cur.get(t, 0.0) - n_pre.get(t, 0.0)
            if d != 0.0:
                r[t] += (1.0 - alpha) / alpha * (p[u] * d)
                seeds.add(t)
    state.pre_rows.clear()

    def over(v):
        d_v = mirror.wdeg(v)
        return abs(r[v]) > eps * d_v if d_v > 0.0 else r[v] != 0.0

    queue = deque(v for v in sorted(seeds) if over(v))
    queued, pushes = set(queue), 0
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if not over(v):
            continue
        pushes += 1
        d_v, r_v = mirror.wdeg(v), r[v]
        r[v] = 0.0
        if d_v <= 0.0:
            p[v] += r_v
            continue
        p[v] += alpha * r_v
        gids, wts = mirror.row(v)
        r[gids] += wts * ((1.0 - alpha) * r_v / d_v)
        for g in gids.tolist():
            if g not in queued and over(g):
                queue.append(g)
                queued.add(g)
    return pushes


class TestRefreshDifferential:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_gather_refresh_matches_loop_bitwise(self, seed):
        params = PPRParams(alpha=0.2, epsilon=1e-4)
        graph = powerlaw_cluster(50, 3, mixing=0.3, seed=seed % 101)
        dyn, ref = DynamicGraph.from_csr(graph), DictMirror(graph)
        fast = IncrementalState.from_scratch(graph, seed % 50, params)
        slow = IncrementalState(fast.source, params, fast.p.copy(),
                                fast.r.copy())
        stream = TemporalEdgeStream(graph, seed=seed, batch_size=10)
        for batch in stream.batches(3):
            touched = np.union1d(batch.src, batch.dst)
            fast.capture_pre_rows(dyn, touched)
            slow.capture_pre_rows(dyn, touched)
            dyn.apply(batch)
            ref.apply(batch)
            stats = refresh(fast, dyn)
            assert stats.n_pushes == loop_refresh(slow, ref)
            assert fast.p.tobytes() == slow.p.tobytes()
            assert fast.r.tobytes() == slow.r.tobytes()


class TestStreamingSourceRange:
    @pytest.fixture()
    def session(self):
        graph = powerlaw_cluster(60, 3, mixing=0.2, seed=4)
        engine = GraphEngine(graph, EngineConfig(n_machines=2, seed=0))
        return StreamingSession(engine)

    @pytest.mark.parametrize("source", [65, -5])
    def test_publish_rejects_before_any_change(self, session, source):
        with pytest.raises(SourceRangeError,
                           match=rf"source {source} .*\[0, 60\)"):
            session.publish([1, source])
        assert session.states == {} and session.now == 0.0
        assert session.metrics.counters() == {}

    @pytest.mark.parametrize("source", [65, -5])
    def test_submit_rejects_before_any_change(self, session, source):
        with pytest.raises(SourceRangeError) as info:
            session.submit(source)
        assert (info.value.source, info.value.n_nodes) == (source, 60)
        assert session.report.n_queries == 0
        assert session.serving.admission.depth == 0
        assert session.metrics.counters() == {}
