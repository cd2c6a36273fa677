"""Output checks run by every benchmark invocation.

Each check returns a list of failure strings (empty = passed).  A failed
check counts as one failed operation in the run's result; none is ever
dropped.
"""

from __future__ import annotations

import numpy as np

from repro.ppr.accuracy import l1_error
from repro.ppr.incremental import accuracy_bound
from repro.ppr.params import PPRParams
from repro.ppr.power_iteration import build_transition, power_iteration_ssppr

#: tolerance on ``sum(p) + sum(r) == 1`` (float accumulation only)
MASS_TOL = 1e-8


class PprChecker:
    """Forward-push answers against power iteration on one graph."""

    def __init__(self, graph, params: PPRParams | None = None) -> None:
        self.graph = graph
        self.params = params if params is not None else PPRParams()
        self.bound = accuracy_bound(graph, self.params)
        self._pt = build_transition(graph)

    def check(self, source: int, p: np.ndarray, mass: float) -> list[str]:
        exact = power_iteration_ssppr(self.graph, int(source),
                                      alpha=self.params.alpha, pt=self._pt)
        errors = []
        err = l1_error(p, exact)
        if not err <= self.bound:
            errors.append(f"source {source}: l1 error {err:.3e} > bound "
                          f"{self.bound:.3e}")
        if not abs(mass - 1.0) <= MASS_TOL:
            errors.append(f"source {source}: p+r mass {mass!r} != 1")
        return errors


def check_walks(graph, roots: np.ndarray,
                walks: np.ndarray) -> list[list[str]]:
    """Per walk: it starts at its root and steps only along edges.

    A node without neighbours may only step to itself (the shard's
    self-transition convention).  Returns one error list per walk.
    """
    n = graph.n_nodes
    deg = np.diff(graph.indptr)
    arcs = np.unique(np.repeat(np.arange(n, dtype=np.int64), deg) * n
                     + graph.indices.astype(np.int64))
    out = []
    for root, walk in zip(roots.tolist(), walks):
        errors = []
        if walk[0] != root:
            errors.append(f"walk from {root} starts at {int(walk[0])}")
        u, v = walk[:-1], walk[1:]
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
            out.append(errors + [f"walk from {root} leaves [0, {n})"])
            continue
        step = u * n + v
        pos = np.minimum(np.searchsorted(arcs, step), len(arcs) - 1)
        ok = (arcs[pos] == step) | ((deg[u] == 0) & (u == v))
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            errors.append(f"walk from {root} steps {int(u[i])}->{int(v[i])}"
                          " off the edge set")
        out.append(errors)
    return out
