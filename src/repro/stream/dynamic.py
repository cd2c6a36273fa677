"""Driver-side mirror of the deployed graph as a copy-on-write CSR arena.

:class:`DynamicGraph` is the authoritative adjacency during streaming:
update batches apply here first, then the resulting *row replacements*
are shipped to the shards (:mod:`repro.stream.ingest`).  The mirror is
columnar — ``indptr``/``indices``/``weights`` plus one weighted degree
per vertex in ``wdegs`` — and every array is read-only.  A batch never
writes in place: :meth:`DynamicGraph.apply` builds the batch's changed
rows on small per-vertex overlays, then splices them into *new* arrays,
so each applied batch yields a new version and the previous one stays
intact for :meth:`DynamicGraph.revert`.

Two invariants make the metamorphic exactness guarantees of the
incremental PPR layer possible:

* ``row(u)`` is always sorted by neighbor id, and
* ``wdeg(u)`` is ``float(np.sum(row_weights))`` over that sorted row —
  a pure function of the row content, recomputed whenever the row is
  rebuilt and never adjusted by deltas — so restoring a row's content
  (e.g. insert-then-delete of the same edge) restores its weighted
  degree *bitwise*.

The mirror stores undirected edges as two arcs, and ``snapshot()``
wraps the current arrays in a :class:`~repro.graph.csr.CSRGraph` equal
to what ``CSRGraph.from_edges`` would build from the current edge set.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError, StreamError
from repro.graph.csr import CSRGraph
from repro.stream.updates import OP_UPSERT, UpdateBatch


def _row_sums(indptr: np.ndarray, weights: np.ndarray,
              rows) -> list[float]:
    """``float(np.sum(row))`` per row — the bitwise wdeg definition."""
    return [float(np.sum(weights[indptr[u]:indptr[u + 1]])) for u in rows]


class AppliedDelta:
    """Effect of one applied batch: changed vertices + edge-level counts.

    ``undo`` holds the mirror version the batch replaced — the
    ``(indptr, indices, weights, wdegs)`` arrays themselves, which
    copy-on-write never mutates — so :meth:`DynamicGraph.revert` can
    restore the mirror bitwise when the distributed application of the
    batch fails.  ``version`` / ``prev_version`` identify the mirror
    version the batch produced and the one it replaced.
    """

    __slots__ = ("changed", "arcs_inserted", "arcs_deleted",
                 "arcs_reweighted", "undo", "version", "prev_version")

    def __init__(self, changed: np.ndarray, arcs_inserted: int,
                 arcs_deleted: int, arcs_reweighted: int, undo: tuple,
                 version: int, prev_version: int) -> None:
        self.changed = changed  # sorted int64 vertex ids with changed rows
        self.arcs_inserted = arcs_inserted
        self.arcs_deleted = arcs_deleted
        self.arcs_reweighted = arcs_reweighted
        self.undo = undo
        self.version = version
        self.prev_version = prev_version

    @property
    def n_changed(self) -> int:
        return int(self.changed.shape[0])

    def __bool__(self) -> bool:
        return self.n_changed > 0


class DynamicGraph:
    """Undirected adjacency over a fixed node set, one version per batch."""

    __slots__ = ("n_nodes", "indptr", "indices", "weights", "wdegs",
                 "_version", "_next_version")

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 0:
            raise GraphFormatError(f"n_nodes must be >= 0, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._install(np.zeros(n_nodes + 1, dtype=np.int64),
                      np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.float64),
                      np.zeros(n_nodes, dtype=np.float64))
        self._version = self._next_version = 0

    def _install(self, *arrays: np.ndarray) -> None:
        """Make ``(indptr, indices, weights, wdegs)`` the current version."""
        for array in arrays:
            array.flags.writeable = False
        self.indptr, self.indices, self.weights, self.wdegs = arrays

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        """Mirror a (symmetrized) CSR graph.

        Rows are sorted by neighbor id; a duplicate arc keeps the weight
        stored last, as assigning the arcs into a dict in storage order
        would.
        """
        n = graph.n_nodes
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        indices, weights = graph.indices, graph.weights
        if np.all((rows[1:] != rows[:-1]) | (indices[1:] > indices[:-1])):
            # Already sorted and unique (any from_edges graph): share the
            # arrays through read-only views.
            indptr = graph.indptr.view()
            indices, weights = indices.view(), weights.view()
        else:
            order = np.lexsort((indices, rows))  # stable within ties
            rows, indices, weights = rows[order], indices[order], \
                weights[order]
            last = np.ones(rows.shape[0], dtype=bool)
            last[:-1] = (rows[1:] != rows[:-1]) \
                | (indices[1:] != indices[:-1])
            rows, indices, weights = rows[last], indices[last], \
                weights[last]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        dyn = cls(n)
        dyn._install(indptr, indices, weights,
                     np.array(_row_sums(indptr, weights, range(n)),
                              dtype=np.float64))
        return dyn

    # -- queries ----------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        return int(self.indptr[-1])

    def has_edge(self, u: int, v: int) -> bool:
        gids = self.indices[self.indptr[u]:self.indptr[u + 1]]
        pos = int(np.searchsorted(gids, v))
        return pos < gids.shape[0] and int(gids[pos]) == v

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids (sorted ascending) and aligned weights of ``u``.

        Read-only views into the current version's arrays.
        """
        s, e = self.indptr[u], self.indptr[u + 1]
        return self.indices[s:e], self.weights[s:e]

    def wdeg(self, u: int) -> float:
        """Weighted degree: ``float(np.sum(w))`` over the sorted row."""
        return float(self.wdegs[u])

    # -- mutation ---------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> AppliedDelta:
        """Apply a batch sequentially; report the effective delta.

        No-ops (delete of an absent edge, upsert at the existing weight)
        change nothing and mark nothing changed.  A batch naming a vertex
        outside the node set raises before anything changes.
        """
        n = self.n_nodes
        src, dst = batch.src, batch.dst
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphFormatError(
                f"edge ({int(src[i])}, {int(dst[i])}) outside fixed node "
                f"set of {n} (streams never add nodes)")

        indptr, indices, weights = self.indptr, self.indices, self.weights
        overlay: dict[int, dict[int, float]] = {}

        def row_of(x: int) -> dict[int, float]:
            got = overlay.get(x)
            if got is None:
                s, e = indptr[x], indptr[x + 1]
                got = overlay[x] = dict(zip(indices[s:e].tolist(),
                                            weights[s:e].tolist()))
            return got

        changed: set[int] = set()
        inserted = deleted = reweighted = 0
        for u, v, w, op in zip(src.tolist(), dst.tolist(),
                               batch.weight.tolist(), batch.op.tolist()):
            row_u = row_of(u)
            prev = row_u.get(v)
            if op == OP_UPSERT:
                if prev is not None and prev == w:
                    continue
                row_u[v] = w
                row_of(v)[u] = w
                if prev is None:
                    inserted += 1
                else:
                    reweighted += 1
            else:
                if prev is None:
                    continue
                del row_u[v]
                del row_of(v)[u]
                deleted += 1
            changed.add(u)
            changed.add(v)

        out = np.fromiter(sorted(changed), dtype=np.int64,
                          count=len(changed))
        undo = (indptr, indices, weights, self.wdegs)
        prev_version = self._version
        if len(changed):
            self._splice(out, [sorted(overlay[u].items())
                               for u in out.tolist()])
            self._next_version += 1
            self._version = self._next_version
        return AppliedDelta(out, inserted, deleted, reweighted, undo,
                            self._version, prev_version)

    def _splice(self, changed: np.ndarray, rows: list) -> None:
        """Install a new version whose ``changed`` rows are ``rows``.

        ``rows[i]`` is the new row of ``changed[i]`` as ``(gid, weight)``
        pairs sorted by gid.  The runs of unchanged rows between changed
        ones are copied as slices, so one concatenation per array builds
        the new version.
        """
        old = self.indptr
        counts = np.diff(old)
        counts[changed] = [len(r) for r in rows]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        run_starts = [0] + old[changed + 1].tolist()
        run_ends = old[changed].tolist() + [int(old[-1])]
        gids, wts = [], []
        for s, e, row in zip(run_starts, run_ends, rows + [()]):
            gids += [self.indices[s:e],
                     np.array([g for g, _ in row], dtype=np.int64)]
            wts += [self.weights[s:e],
                    np.array([w for _, w in row], dtype=np.float64)]
        indices, weights = np.concatenate(gids), np.concatenate(wts)
        wdegs = self.wdegs.copy()
        wdegs[changed] = _row_sums(indptr, weights, changed.tolist())
        self._install(indptr, indices, weights, wdegs)

    def revert(self, delta: AppliedDelta) -> None:
        """Restore the version ``delta`` replaced, bitwise.

        Reverts are LIFO: only the latest applied, not yet reverted
        delta can be undone.  Used when the distributed two-phase
        application of the batch aborts or rolls back.
        """
        if delta.version != self._version:
            raise StreamError(
                f"revert out of order: delta produced mirror version "
                f"{delta.version}, current version is {self._version}")
        self._install(*delta.undo)
        self._version = delta.prev_version

    # -- export -----------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The current version as an immutable CSR graph (no copy)."""
        return CSRGraph(self.n_nodes, self.indptr, self.indices,
                        self.weights)
