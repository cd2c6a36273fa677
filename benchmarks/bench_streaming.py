"""Incremental PPR maintenance vs. recompute-from-scratch (docs/streaming.md).

One streaming session per update rate: publish a batch of sources, then
stream edge-update batches through the two-phase shard protocol while
the published vectors are maintained by residual correction + signed
re-push.  The recompute column counts what a from-scratch Forward Push
of every published source after every batch would have cost — the
policy the incremental path replaces.

Both answer within the same ``eps * sum(wdeg)`` accuracy bound (pinned
bitwise-tight by the tier-1 equivalence suite); what changes is the
work: incremental pushes must stay well under recompute pushes at every
update rate, and the gap is the point of the subsystem.  All push and
byte counts here are deterministic operator counts on virtual time, so
they replay exactly.  The one wall column, ``Ingest ms/batch``, times
the write side itself: mirror apply, payload build, two-phase shard
application and refresh, per batch.
"""

import time

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_graph
from repro.engine import GraphEngine
from repro.ppr import PPRParams
from repro.ppr.forward_push_seq import forward_push_sequential
from repro.stream import (StreamConfig, StreamEvent, StreamingSession,
                          TemporalEdgeStream)

PARAMS = PPRParams(alpha=0.2, epsilon=1e-4)
N_MACHINES = 2
N_BATCHES = 4
N_PUBLISH = 3

#: arcs per update batch — the streamed update rate
RATES = (8, 32, 128)


def run_rate(graph, sources, rate) -> dict:
    engine = GraphEngine(graph, engine_config(N_MACHINES))
    session = StreamingSession(engine, StreamConfig(
        runtime="sim", params=PARAMS, refresh_every=1))
    session.publish(sources)

    stream = TemporalEdgeStream(graph, seed=41, batch_size=rate)
    recompute_pushes = 0
    ingest_s = 0.0
    for batch in stream.batches(N_BATCHES):
        t0 = time.perf_counter()
        session.run_stream([StreamEvent("update", batch=batch)])
        ingest_s += time.perf_counter() - t0
        snap = session.dyn.snapshot()
        for gid in sources:
            _, _, stats = forward_push_sequential(snap, int(gid), PARAMS)
            recompute_pushes += stats.n_pushes
    c = session.metrics.counters()
    inc_pushes = int(c.get("stream.refresh_pushes", 0))
    return {
        "Arcs/batch": rate,
        "Batches": N_BATCHES,
        "Staged rows": int(c.get("stream.staged_rows", 0)),
        "Ingest bytes": int(c.get("rpc.request_bytes", 0)
                            + c.get("rpc.response_bytes", 0)),
        "Inc. corrections": int(c.get("stream.refresh_corrections", 0)),
        "Inc. pushes": inc_pushes,
        "Recompute pushes": recompute_pushes,
        "Push ratio": round(recompute_pushes / max(inc_pushes, 1), 1),
        "Clock (s)": round(session.report.clock, 4),
        "Ingest ms/batch": round(1e3 * ingest_s / N_BATCHES, 2),
    }


EXPECTATIONS = [
    {"kind": "per_row", "label": "incremental beats recompute on pushes",
     "left_col": "Inc. pushes", "op": "lt", "right_col": "Recompute pushes",
     "scales": "all"},
    {"kind": "per_row", "label": "every batch stages rows on every shard",
     "left_col": "Staged rows", "op": "gt", "right": 0, "scales": "all"},
    {"kind": "cmp", "label": "higher update rates stage more rows",
     "left": {"col": "Staged rows", "where": {"Arcs/batch": RATES[-1]}},
     "op": "gt",
     "right": {"col": "Staged rows", "where": {"Arcs/batch": RATES[0]}},
     "scales": "all"},
    {"kind": "cmp", "label": "higher update rates cost more ingest bytes",
     "left": {"col": "Ingest bytes", "where": {"Arcs/batch": RATES[-1]}},
     "op": "gt",
     "right": {"col": "Ingest bytes", "where": {"Arcs/batch": RATES[0]}},
     "scales": "all"},
]


def test_streaming_incremental_vs_recompute(benchmark):
    scale = bench_scale()
    graph = get_graph("products")
    sources = [int(s) for s in
               np.linspace(0, graph.n_nodes - 1, N_PUBLISH).astype(int)]

    def run_all():
        return [run_rate(graph, sources, rate) for rate in RATES]

    rows, wall = common.timed(benchmark, run_all)
    common.publish(
        "streaming",
        "Incremental PPR maintenance vs recompute on ogbn-products "
        f"({N_MACHINES} machines, {N_PUBLISH} published sources, "
        f"{N_BATCHES} update batches)",
        rows, key=("Arcs/batch",),
        deterministic=("Staged rows", "Inc. corrections", "Inc. pushes",
                       "Recompute pushes"),
        higher_is_better=("Push ratio",),
        lower_is_better=("Inc. pushes", "Ingest bytes", "Ingest ms/batch"),
        expectations=EXPECTATIONS, wall_s=wall,
        virtual_cols=("Clock (s)",),
    )
    for row in rows:
        benchmark.extra_info[row["Arcs/batch"]] = (
            f"inc={row['Inc. pushes']} full={row['Recompute pushes']}"
        )
