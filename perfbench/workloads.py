"""The three benchmark workloads.

Every workload runs in one process and one thread on the simulated
cluster (4 machines x 3 compute processes, default ``EngineConfig``:
OVERLAP, fetch split on, 4 MiB hot cache, coalescing on, sim runtime).
Inputs come only from the ``seed`` argument; the graph stand-ins are the
fixed ``repro`` datasets.  See ``perfbench/README.md`` for why each
workload exists and which layers it is meant to move.

A workload object is driven in this order by ``run.py``::

    w.prepare()           # generate inputs (untimed)
    w.setup()             # timed set-up, repeated; the last one is kept
    w.warmup()
    w.run(seconds, tracer)   # -> Phase, one or more times
    w.verify()            # correctness of sampled outputs
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import EngineConfig, GraphEngine, RunRequest
from repro.engine.query import assign_queries
from repro.graph.datasets import DATASETS
from repro.serving import Query, SessionConfig, TenantSpec
from repro.stream import StreamConfig, StreamingSession, TemporalEdgeStream

from checks import PprChecker, check_walks

#: program counters summed from every QueryRunResult.metrics / session
#: registry the workloads see
HARVESTED = (
    "ppr.pushes", "fetch.requests", "fetch.cache_hits", "fetch.halo_hits",
    "fetch.coalesced", "fetch.misses", "fetch.evictions",
    "fetch.bytes_saved", "rpc.calls_remote", "rpc.calls_local",
    "rpc.request_bytes", "rpc.response_bytes", "rpc.retries",
)

#: scale of each dataset stand-in per benchmark size; ``tiny`` is the
#: self-test size
SCALES = {
    "full": {"products": 1.0, "twitter": 0.5},
    "tiny": {"products": 0.03, "twitter": 0.03},
}


def engine_config() -> EngineConfig:
    return EngineConfig(n_machines=4, procs_per_machine=3)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose, phase) tuple."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def queryable(graph) -> np.ndarray:
    """Nodes with at least one neighbour (the engine's own source rule)."""
    return np.flatnonzero(np.diff(graph.indptr) > 0)


def batched_vlat(engine, sources: np.ndarray, result) -> list[float]:
    """Virtual latency of each query of one batched (MultiSSPPR) run.

    A process advances its whole chunk in lockstep, so each query
    finishes at its owning process's final clock (clocks start at 0).
    """
    cfg = engine.config
    out: list[float] = []
    for (m, p), chunk in assign_queries(engine.sharded, sources,
                                        cfg.procs_per_machine).items():
        out.extend([result.per_proc_clocks[cfg.worker_name(m, p)]]
                   * len(chunk))
    return out


@dataclass
class Verdict:
    """Outcome of the output checks on one run's sampled answers."""

    checked: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, errors: list[str]) -> None:
        self.checked += 1
        if errors:
            self.failed += 1
            self.errors += errors


@dataclass
class Phase:
    """Everything one timed phase measured."""

    wall: float = 0.0            # seconds from phase start to last completion
    steps: int = 0               # loop steps: batches / drains / ingests
    attempted: int = 0           # queries issued (+ update batches)
    failed: int = 0              # rejected + raised
    completed: int = 0           # queries completed
    updates: int = 0             # edge updates applied (stream only)
    busy: float = 0.0            # seconds spent inside program calls
    lat_ms: list = field(default_factory=list)    # wall, due -> done
    vlat_ms: list = field(default_factory=list)   # virtual, per query
    step_ms: list = field(default_factory=list)   # wall per loop step
    makespan: float = 0.0        # sum of QueryRunResult.makespan
    virtual_queries: int = 0     # SSPPR queries inside those makespans
    counts: dict = field(default_factory=dict)    # harvested totals
    per_step: dict = field(default_factory=dict)  # harvested, per step
    extra: dict = field(default_factory=dict)     # workload-specific
    errors: list = field(default_factory=list)

    def harvest(self, result) -> None:
        """Typed counters plus the flat metrics of one QueryRunResult."""
        metrics = {**result.metrics, "rpc.retries": result.retries}
        if "ppr.pushes" not in metrics:
            # batched runs count pushes on the shared MultiSSPPR objects
            multis = {id(v.multi): v.multi for v in result.states.values()
                      if hasattr(v, "multi")}
            metrics["ppr.pushes"] = sum(int(m.n_pushes)
                                        for m in multis.values())
        for name in HARVESTED:
            v = metrics.get(name, 0)
            self.counts[name] = self.counts.get(name, 0) + v
            self.per_step.setdefault(name, []).append(v)

    def raised(self, n_ops: int, where: str) -> None:
        self.failed += n_ops
        self.errors.append(f"{where}: {traceback.format_exc(limit=4)}")


class PprProducts:
    """Closed loop, one caller: back-to-back 32-query engine batches."""

    name = "ppr-products"
    batch = 32
    probe_mode = "engine"

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.samples: list[tuple[int, object]] = []
        self._phase = 0

    def prepare(self) -> None:
        self.graph = DATASETS["products"].generate(SCALES[self.size]["products"])
        self.pool = queryable(self.graph)
        self.rng = seeded_rng(self.seed, 1)

    def setup(self) -> None:
        self.engine = GraphEngine(self.graph, engine_config())

    def _sources(self) -> np.ndarray:
        return self.rng.choice(self.pool, self.batch, replace=False)

    def warmup(self) -> None:
        self.engine.run(RunRequest(sources=self._sources(), mode="engine",
                                   keep_states=True))

    def run(self, seconds: float, tracer=None) -> Phase:
        ph = Phase()
        pick = seeded_rng(self.seed, 2, self._phase)
        self._phase += 1
        clock = time.perf_counter
        t0 = clock()
        while clock() - t0 < seconds:
            sources = self._sources()
            if tracer is not None:
                tracer.request_id = ph.steps
            ph.attempted += len(sources)
            start = clock()
            try:
                res = self.engine.run(RunRequest(
                    sources=sources, mode="engine", keep_states=True))
            except Exception:
                ph.raised(len(sources), f"batch {ph.steps}")
                continue
            done = clock()
            ph.steps += 1
            ph.busy += done - start
            missing = [s for s in sources.tolist() if s not in res.states]
            if missing:
                ph.failed += len(missing)
                ph.errors.append(f"batch lost queries {missing}")
            ph.completed += len(sources) - len(missing)
            ph.step_ms.append((done - start) * 1e3)
            ph.lat_ms.extend([(done - start) * 1e3]
                             * (len(sources) - len(missing)))
            ph.vlat_ms.extend(v * 1e3 for v in res.latencies.values())
            ph.makespan += res.makespan
            ph.virtual_queries += res.n_queries
            ph.harvest(res)
            src = int(sources[pick.integers(len(sources))])
            if src in res.states:
                self.samples.append((src, res.states[src]))
        ph.wall = clock() - t0
        return ph

    def verify(self) -> Verdict:
        checker = PprChecker(self.graph)
        n = self.graph.n_nodes
        verdict = Verdict()
        for src, state in self.samples:
            verdict.add(checker.check(src, state.dense_result(
                self.engine.sharded, n), state.total_mass()))
        return verdict


class ServeTwitter:
    """Open loop on the wall clock: Poisson arrivals through a session."""

    name = "serve-twitter"
    probe_mode = "batched"
    #: arrival rate, queries per wall second; below the knee on the
    #: reference host (see README) so the backlog does not grow
    rate = 8.0
    walk_length = 16
    walk_share = 0.5
    zipf_s = 1.2
    popularity_seed = 0
    tenants = (TenantSpec("gold", priority=2, quota=64, weight=2.0),
               TenantSpec("free", priority=0, quota=16, weight=1.0))
    #: share of completed SSPPR queries whose answers are checked
    check_share = 0.1
    max_checks = 24

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.samples: list[tuple[int, object]] = []
        self.walks: list[tuple[int, np.ndarray]] = []
        self._phase = 0

    def prepare(self) -> None:
        self.graph = DATASETS["twitter"].generate(SCALES[self.size]["twitter"])
        # Zipf ranks over a permutation of the nodes: hot sources share
        # frontiers.  The ranking belongs to the workload, like the graph,
        # so it is seeded by a constant; --seed draws the arrivals.
        self.perm = seeded_rng(self.popularity_seed, 1).permutation(
            queryable(self.graph))
        ranks = np.arange(1, len(self.perm) + 1, dtype=np.float64)
        weights = ranks ** -self.zipf_s
        self.cdf = np.cumsum(weights) / weights.sum()

    def setup(self) -> None:
        self.engine = GraphEngine(self.graph, engine_config())
        self.session = self.engine.open_session(
            SessionConfig(tenants=self.tenants))

    def schedule(self, seconds: float, phase: int):
        """``[(due seconds, tenant, Query)]`` of one open-loop phase.

        A Poisson process conditioned on its count: ``rate * seconds``
        arrivals at sorted uniform times, so every seed offers the same
        load and only its timing, mix and sources vary.
        """
        rng = seeded_rng(self.seed, 3, phase)
        names = [t.name for t in self.tenants]
        share = np.array([t.weight for t in self.tenants])
        share = share / share.sum()
        n = int(round(self.rate * seconds))
        due = np.sort(rng.uniform(0.0, seconds, n))
        tenant = rng.choice(len(names), size=n, p=share)
        rank = np.minimum(np.searchsorted(self.cdf, rng.random(n)),
                          len(self.perm) - 1)
        walk = rng.random(n) < self.walk_share
        out = []
        for t, who, src, is_walk in zip(due.tolist(), tenant.tolist(),
                                        self.perm[rank].tolist(),
                                        walk.tolist()):
            q = (Query(source=src, kind="walk", walk_length=self.walk_length)
                 if is_walk else Query(source=src))
            out.append((t, names[who], q))
        return out

    def warmup(self) -> None:
        for due, tenant, q in self.schedule(0.5, phase=10_000):
            self.session.submit(q, tenant=tenant)
        while self.session.pending:
            self.session.drain()

    def run(self, seconds: float, tracer=None) -> Phase:
        ph = Phase()
        phase = self._phase
        self._phase += 1
        arrivals = self.schedule(seconds, phase)
        pick = seeded_rng(self.seed, 4, phase)
        session = self.session
        before = session.snapshot()
        late: list[float] = []
        qwait: list[float] = []
        walk_lat: list[float] = []
        walk_steps = 0
        outstanding: dict[int, tuple] = {}    # seq -> (handle, due)
        depth_mid = depth_end = None
        clock = time.perf_counter
        t0 = clock()
        i = 0
        while i < len(arrivals) or session.pending:
            now = clock() - t0
            while i < len(arrivals) and arrivals[i][0] <= now:
                due, tenant, q = arrivals[i]
                i += 1
                if tracer is not None:
                    tracer.request_id = ph.steps
                h = session.submit(q, tenant=tenant)
                now = clock() - t0
                late.append(now - due)
                ph.attempted += 1
                if h.rejected:
                    ph.failed += 1
                else:
                    outstanding[h.seq] = (h, due)
            if depth_mid is None and now >= seconds / 2:
                depth_mid = session.pending
            if depth_end is None and i == len(arrivals):
                depth_end = session.pending
            if not session.pending:
                if i < len(arrivals):
                    idle = (tracer.span("loadgen.idle") if tracer
                            else contextlib.nullcontext())
                    with idle:
                        time.sleep(max(0.0, arrivals[i][0]
                                       - (clock() - t0)))
                continue
            if tracer is not None:
                tracer.request_id = ph.steps
            start = clock() - t0
            try:
                res = session.drain()
            except Exception:
                ph.raised(0, f"drain {ph.steps}")
                res = None
            done = clock() - t0
            ph.steps += 1
            ph.busy += done - start
            seqs = session.batch_log[-1] if session.batch_log else ()
            batch = [outstanding.pop(s) for s in seqs if s in outstanding]
            sppr_sources = []
            for h, due in batch:
                if res is None or not h.done:
                    ph.failed += 1
                    continue
                ph.completed += 1
                qwait.append((start - due) * 1e3)
                if h.query.kind == "walk":
                    walk_steps += h.query.walk_length
                    walk_lat.append((done - due) * 1e3)
                    if pick.random() < self.check_share:
                        self.walks.append((h.query.source, h.result()))
                else:
                    # walks alone in a drain take a few ms, SSPPR tens:
                    # the gated latency is the SSPPR one, walks are extra
                    ph.lat_ms.append((done - due) * 1e3)
                    sppr_sources.append(h.query.source)
                    if (pick.random() < self.check_share
                            and len(self.samples) < self.max_checks):
                        self.samples.append((h.query.source, h.result()))
            if res is not None and sppr_sources:
                # walk-only drains take a few ms; the batch metric is the
                # service time of drains that run SSPPR
                ph.step_ms.append((done - start) * 1e3)
                ph.vlat_ms.extend(v * 1e3 for v in batched_vlat(
                    self.engine, np.array(sppr_sources, dtype=np.int64),
                    res))
                ph.makespan += res.makespan
                ph.virtual_queries += len(sppr_sources)
                ph.harvest(res)
        ph.wall = clock() - t0
        ph.failed += len(outstanding)
        after = session.snapshot()
        ph.extra.update({
            "loadgen.late_p90_ms": (float(np.percentile(late, 90)) * 1e3
                                    if late else 0.0, "ms"),
            "loadgen.depth_mid": (depth_mid or 0, "count"),
            "loadgen.depth_end": (depth_end or 0, "count"),
            "serve.queue_wait_p90_ms": (float(np.percentile(qwait, 90))
                                        if qwait else 0.0, "ms"),
            "serve.rejected": (after.get("serve.rejected", 0)
                               - before.get("serve.rejected", 0), "count"),
            "walk.steps": (walk_steps, "count"),
            "walk_lat_p50_ms": (float(np.percentile(walk_lat, 50))
                                if walk_lat else 0.0, "ms"),
        })
        # A backlog still growing at the end of the schedule means the
        # rate is above the knee: its latencies are queueing artefacts.
        batch_cap = session.config.batch_cap
        if (depth_end or 0) > max(depth_mid or 0, batch_cap // 2):
            ph.errors.append(
                f"backlog grew: queue depth {depth_mid} at midpoint, "
                f"{depth_end} at end of schedule")
        return ph

    def verify(self) -> Verdict:
        checker = PprChecker(self.graph)
        n = self.graph.n_nodes
        verdict = Verdict()
        for src, view in self.samples:
            verdict.add(checker.check(src, view.dense_result(
                self.engine.sharded, n), view.total_mass()))
        if self.walks:
            roots = np.array([r for r, _ in self.walks], dtype=np.int64)
            for errors in check_walks(self.graph, roots,
                                      [w for _, w in self.walks]):
                verdict.add(errors)
        return verdict


class StreamProducts:
    """Writes beside reads: ingest, query, rebalance in a closed loop."""

    name = "stream-products"
    probe_mode = "batched"
    n_published = 16
    update_batch = 64
    queries_per_step = 8
    rebalance_every = 8
    n_checked = 4

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.seed = seed
        self._steps = 0

    def prepare(self) -> None:
        self.graph = DATASETS["products"].generate(SCALES[self.size]["products"])
        self.pool = queryable(self.graph)
        rng = seeded_rng(self.seed, 1)
        self.published = rng.choice(self.pool, self.n_published,
                                    replace=False)
        self.stream = TemporalEdgeStream(self.graph, seed=self.seed,
                                         batch_size=self.update_batch)
        self.rng = seeded_rng(self.seed, 2)

    def setup(self) -> None:
        self.engine = GraphEngine(self.graph, engine_config())
        self.ss = StreamingSession(self.engine, StreamConfig(refresh_every=1))
        self.ss.publish(self.published)

    def warmup(self) -> None:
        self._step(Phase())

    def _step(self, ph: Phase) -> None:
        ss = self.ss
        clock = time.perf_counter
        update = self.stream.next_batch()
        ph.attempted += 1
        start = clock()
        try:
            ss.ingest(update)
            ph.updates += len(update)
        except Exception:
            ph.raised(1, f"ingest {ph.steps}")
        done = clock()
        ph.busy += done - start
        ph.step_ms.append((done - start) * 1e3)
        sources = self.rng.choice(self.pool, self.queries_per_step,
                                  replace=False)
        ph.attempted += len(sources)
        sent = clock()
        handles = [ss.submit(int(s)) for s in sources]
        try:
            res = ss.drain()
        except Exception:
            ph.raised(len(sources), f"drain {ph.steps}")
            res = None
        done = clock()
        ph.busy += done - sent
        if res is not None:
            by_seq = {h.seq: h for h in handles}
            order = [by_seq[s].query.source
                     for s in ss.serving.batch_log[-1]]
            ph.vlat_ms.extend(v * 1e3 for v in batched_vlat(
                self.engine, np.array(order, dtype=np.int64), res))
            for h in handles:
                if not h.done:
                    ph.failed += 1
                    continue
                ph.completed += 1
                ph.lat_ms.append((done - sent) * 1e3)
            ph.makespan += res.makespan
            ph.virtual_queries += len(sources)
            ph.harvest(res)
        ph.steps += 1
        self._steps += 1
        if self._steps % self.rebalance_every == 0:
            start = clock()
            try:
                ss.epoch_rebalance()
            except Exception:
                ph.raised(1, f"rebalance after step {ph.steps}")
            ph.busy += clock() - start

    def run(self, seconds: float, tracer=None) -> Phase:
        ph = Phase()
        before = self.ss.metrics.snapshot()
        clock = time.perf_counter
        t0 = clock()
        while clock() - t0 < seconds:
            if tracer is not None:
                tracer.request_id = ph.steps
            self._step(ph)
        ph.wall = clock() - t0
        after = self.ss.metrics.snapshot()
        ph.extra.update({
            "updates_per_s": (ph.updates / ph.wall, "edges/s"),
            "stream.staged_rows": (
                sum(r.staged_rows for r in self.ss.report.ingest_reports
                    [-ph.steps:]) if ph.steps else 0, "count"),
            "stream.refresh_pushes": (
                after.get("stream.refresh_pushes", 0)
                - before.get("stream.refresh_pushes", 0), "count"),
        })
        return ph

    def verify(self) -> Verdict:
        snap = self.ss.dyn.snapshot()
        checker = PprChecker(snap)
        verdict = Verdict()
        rng = seeded_rng(self.seed, 5)
        for src in rng.choice(self.published, self.n_checked,
                              replace=False).tolist():
            p, r = self.ss.published(src)
            verdict.add(checker.check(src, p, float(p.sum() + r.sum())))
        return verdict


WORKLOADS = {w.name: w for w in (PprProducts, ServeTwitter, StreamProducts)}
