"""Two-phase distributed application of one update batch.

The driver coroutine stages one :class:`~repro.storage.shard_update.ShardUpdate`
on every shard (invisible to readers), then commits everywhere:

* any **stage** failure aborts the staged state on all shards — nothing
  was ever visible, the batch is simply not applied;
* any **commit** failure rolls every shard back to its retained
  pre-image — including shards whose commit *reply* was lost but whose
  commit applied (``rollback_updates`` restores either way);
* a rollback that itself fails permanently is reported as
  ``"inconsistent"`` — the typed :class:`~repro.errors.StreamIngestError`
  carries ``applied=None`` and the cluster needs operator attention.

So a batch is all-or-nothing across the cluster under drops, stragglers
and crash windows, which ``tests/test_failure_and_sync.py`` pins.

All traffic flows through the normal RPC layer (fault injection,
retries, ``rpc.*`` metrics, spans), and the driver runs identically on
the virtual-time scheduler and on
:class:`~repro.rpc.thread_runtime.ThreadRuntime`.  The one asymmetry
between the runtimes — the sim scheduler *throws* a failed future's
exception into the waiting coroutine, while the thread trampoline calls
``future.value()`` itself so the exception never reaches the generator —
is neutralized by *shielded futures*: wrappers that always resolve with
an ``("ok", value)`` / ``("err", exc)`` tuple, so the driver branches on
data instead of catching across a ``yield``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RpcTimeoutError, StreamIngestError, \
    WorkerCrashedError
from repro.rpc.retry import RetryPolicy
from repro.simt.events import WaitAll
from repro.simt.futures import SimFuture
from repro.storage.shard_update import ShardUpdate

#: injected-fault errors the two-phase driver tolerates and reacts to;
#: anything else (e.g. a ShardError) is a bug and propagates
TRANSPORT_ERRORS = (RpcTimeoutError, WorkerCrashedError)

_EMPTY_I = np.empty(0, dtype=np.int64)


@dataclass
class IngestReport:
    """Outcome of one distributed batch application."""

    tag: int
    status: str          # "applied" | "aborted" | "rolled_back" |
    #                      "inconsistent" | "empty"
    n_changed: int       # vertices whose rows the batch changed
    staged_rows: int     # core rows staged across all shards
    error: str | None
    retries: int         # RPC retransmissions the round needed

    @property
    def applied(self) -> bool:
        return self.status in ("applied", "empty")


# -- payload planning -------------------------------------------------------

def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions of the segments ``[starts[i], starts[i] + counts[i])``,
    concatenated in order."""
    total = int(counts.sum())
    if not total:
        return _EMPTY_I
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(total)


def build_shard_payloads(sharded, dyn, changed) -> list[ShardUpdate]:
    """One :class:`ShardUpdate` per shard for the given changed vertices.

    ``dyn`` must already hold the *post*-batch adjacency.  Row targets
    carry owner addressing from ``sharded`` (ownership never changes
    during ingestion — only rebalancing moves vertices) and the targets'
    new weighted degrees, so shards apply rows without lookups.  The
    changed rows are gathered from the mirror's arrays once, addressed
    with one ``address_of`` call, and every block below is a segment
    gather from that concatenation.
    """
    k = sharded.n_shards
    changed = np.asarray(changed, dtype=np.int64)
    wdegs = dyn.wdegs
    deg_wdeg = wdegs[changed]
    counts = dyn.indptr[changed + 1] - dyn.indptr[changed]
    arcs = _segments(dyn.indptr[changed], counts)
    cat_global = dyn.indices[arcs]
    cat = {"global": cat_global, "weight": dyn.weights[arcs],
           "wdeg": wdegs[cat_global]}
    cat["local"], cat["shard"] = sharded.address_of(cat_global)
    first = np.cumsum(counts) - counts

    def block(sel: np.ndarray) -> tuple[np.ndarray, dict]:
        """``indptr`` and concatenated columns of ``changed[sel]``'s rows."""
        indptr = np.zeros(len(sel) + 1, dtype=np.int64)
        np.cumsum(counts[sel], out=indptr[1:])
        pos = _segments(first[sel], counts[sel])
        return indptr, {name: col[pos] for name, col in cat.items()}

    # Halo refresh block: every changed vertex's full row, keyed and
    # sorted by packed owner address — identical for all shards.
    halo_keys = sharded.keys_of(changed) if len(changed) else _EMPTY_I
    order = np.argsort(halo_keys)
    halo_keys, halo_src_wdeg = halo_keys[order], deg_wdeg[order]
    halo_indptr, halo = block(order)

    payloads = []
    owner = sharded.owner_shard[changed]
    for p in range(k):
        sel = np.flatnonzero(owner == p)
        indptr, rows = block(sel)
        payloads.append(ShardUpdate(
            row_lids=sharded.owner_local[changed[sel]], row_indptr=indptr,
            row_local=rows["local"], row_shard=rows["shard"],
            row_global=rows["global"], row_weight=rows["weight"],
            row_wdeg=rows["wdeg"],
            deg_gids=changed, deg_wdeg=deg_wdeg,
            halo_keys=halo_keys, halo_src_wdeg=halo_src_wdeg,
            halo_indptr=halo_indptr, halo_local=halo["local"],
            halo_shard=halo["shard"], halo_global=halo["global"],
            halo_weight=halo["weight"], halo_wdeg=halo["wdeg"],
        ))
    return payloads


# -- shielded futures -------------------------------------------------------

class _ThreadShield:
    """Wraps a ThreadFuture so ``value()`` returns a status tuple."""

    __slots__ = ("_fut",)

    def __init__(self, fut) -> None:
        self._fut = fut

    def value(self):
        try:
            return ("ok", self._fut.value())
        except TRANSPORT_ERRORS as exc:
            return ("err", exc)


def _shielded(fut):
    """A future resolving with ``("ok", v)`` / ``("err", exc)``.

    Transport faults become data; genuine handler errors still
    propagate (on the sim runtime via ``set_exception``, on threads by
    re-raising out of ``value()``).
    """
    if isinstance(fut, SimFuture):
        out = SimFuture(tag="stream.shield")

        def _done(f: SimFuture) -> None:
            exc = f.exception
            if exc is None:
                out.set_result(("ok", f.value()), f.ready_time)
            elif isinstance(exc, TRANSPORT_ERRORS):
                out.set_result(("err", exc), f.ready_time)
            else:
                out.set_exception(exc, f.ready_time)

        fut.add_done_callback(_done)
        return out
    return _ThreadShield(fut)


# -- the two-phase driver ---------------------------------------------------

def _phase(rrefs, caller, method, args_per_shard):
    """Issue one RPC per shard; collect all shielded outcomes."""
    futs = [_shielded(rrefs[p].rpc_async(caller, method, *args_per_shard[p]))
            for p in range(len(rrefs))]
    results = yield WaitAll(futs)
    return results


def ingest_driver(rrefs, caller, payloads, tag, metrics):
    """Coroutine body of the two-phase protocol (see module docstring).

    Never raises for transport faults — returns an outcome dict the
    runner converts into an :class:`IngestReport`, so both runtimes
    surface failures the same way.
    """
    k = len(rrefs)
    stage = yield from _phase(rrefs, caller, "stage_updates",
                              [(tag, payloads[p]) for p in range(k)])
    stage_errs = [val for status, val in stage if status == "err"]
    if stage_errs:
        metrics.inc("stream.stage_failures", len(stage_errs))
        metrics.inc("stream.batches_aborted")
        # Best-effort abort: staged state is invisible, so a lost abort
        # only leaves garbage the next stage_updates clears.
        yield from _phase(rrefs, caller, "abort_updates", [(tag,)] * k)
        return {"status": "aborted", "error": repr(stage_errs[0]),
                "staged_rows": 0}
    staged_rows = sum(int(val) for _, val in stage)
    metrics.inc("stream.staged_rows", staged_rows)

    commit = yield from _phase(rrefs, caller, "commit_updates", [(tag,)] * k)
    commit_errs = [val for status, val in commit if status == "err"]
    if not commit_errs:
        metrics.inc("stream.batches_committed")
        return {"status": "applied", "error": None,
                "staged_rows": staged_rows}
    metrics.inc("stream.commit_failures", len(commit_errs))
    rollback = yield from _phase(rrefs, caller, "rollback_updates",
                                 [(tag,)] * k)
    rollback_errs = [val for status, val in rollback if status == "err"]
    if rollback_errs:
        metrics.inc("stream.rollback_failures", len(rollback_errs))
        return {"status": "inconsistent", "error": repr(commit_errs[0]),
                "staged_rows": staged_rows}
    metrics.inc("stream.batches_rolled_back")
    return {"status": "rolled_back", "error": repr(commit_errs[0]),
            "staged_rows": staged_rows}


# -- runners (one per runtime) ----------------------------------------------

def _resolve_retry_policy(fault_plan, retry_policy):
    if retry_policy is None and fault_plan is not None \
            and not fault_plan.is_empty():
        return RetryPolicy()
    return retry_policy


def ingest_on_cluster(engine, payloads, tag, *, fault_plan=None,
                      retry_policy=None):
    """Apply one batch on a fresh virtual-time cluster.

    Returns ``(outcome dict, metrics registry, retries)``; the metrics
    carry this round's ``stream.*`` and ``rpc.*`` counters.
    """
    from repro.engine.cluster import SimCluster

    cfg = engine.config
    cluster = SimCluster(engine.sharded, cfg, fault_plan=fault_plan,
                         retry_policy=_resolve_retry_policy(fault_plan,
                                                            retry_policy))
    name = cluster.spawn_compute(0, 0, ingest_driver(
        cluster.rrefs, cfg.worker_name(0, 0), payloads, tag,
        cluster.obs.metrics))
    cluster.run()
    outcome = cluster.scheduler.result_of(name)
    return outcome, cluster.obs.metrics, cluster.ctx.retries


def ingest_on_threads(engine, payloads, tag, *, fault_plan=None,
                      retry_policy=None):
    """Apply one batch over :class:`ThreadRuntime` (same driver body)."""
    from repro.rpc.thread_runtime import ThreadRuntime

    cfg = engine.config
    runtime = ThreadRuntime(
        fault_plan=fault_plan,
        retry_policy=_resolve_retry_policy(fault_plan, retry_policy))
    rrefs = []
    try:
        for m in range(cfg.n_machines):
            runtime.register_server(cfg.server_name(m), m)
            rrefs.append(runtime.create_remote(
                cfg.server_name(m), "storage",
                lambda shard=engine.sharded.shards[m]: shard,
            ))
        name = cfg.worker_name(0, 0)
        runtime.register_worker(name, 0)
        runtime.spawn(name, ingest_driver(rrefs, name, payloads, tag,
                                          runtime.obs.metrics))
        runtime.join(timeout=180)
        outcome = runtime.process_of(name).result
    finally:
        runtime.shutdown()
    return outcome, runtime.obs.metrics, runtime.retries


def report_from_outcome(tag, outcome, n_changed, retries) -> IngestReport:
    return IngestReport(tag=int(tag), status=outcome["status"],
                        n_changed=int(n_changed),
                        staged_rows=int(outcome["staged_rows"]),
                        error=outcome["error"], retries=int(retries))


def raise_if_failed(report: IngestReport) -> None:
    """Typed atomicity escalation for a batch that did not apply."""
    if report.applied:
        return
    applied = None if report.status == "inconsistent" else False
    raise StreamIngestError(
        f"batch tag {report.tag} {report.status}: {report.error}",
        applied=applied)
