"""Wall-clock layer tracing from outside the program.

:class:`LayerTracer` replaces public functions and methods of ``repro``
with thin wrappers that record one span per call: name (the layer),
start, end, parent span and request id.  Spans stay in memory in flat
arrays and are written to disk once, when the run ends.  A layer's self
time is its spans' durations minus the durations of their direct wrapped
children, so the self times of all layers plus an explicit remainder sum
to the wall time of the traced phase.

Nothing inside ``src/repro`` is edited: :meth:`LayerTracer.install`
patches attributes at their import sites and :meth:`LayerTracer.remove`
puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

#: setup spans carry negative request ids; the layer table counts only
#: spans with request id >= 0 (the timed phase)
SETUP_RID = -1


def _n_keys(arg_index: int):
    """Counter of keys in positional argument ``arg_index`` (self = 0).

    A scalar key (the source slot of a new query) counts as one.
    """

    def count(args, kwargs) -> int:
        return int(np.size(args[arg_index]))

    return count


def targets():
    """``(owner, attribute, layer, key counter)`` for every traced call.

    Module-level functions are patched where the caller looks them up
    (``repro.rpc.api.payload_sizes``, not the defining module), so that
    recursive calls inside the defining module are not counted as spans.
    """
    from repro.engine import engine as engine_mod
    from repro.partition.metis_lite import MetisLitePartitioner
    from repro.ppr.hashmap import ShardedMap
    from repro.ppr.multi_query import MultiSSPPR
    from repro.ppr.ppr_ops import SSPPR
    from repro.rpc import api as rpc_api
    from repro.rpc.serialization import BufferPool
    from repro.serving.session import Session
    from repro.simt.scheduler import Scheduler
    from repro.storage import build as build_mod
    from repro.storage.fetch import FetchCache, NeighborFetchService
    from repro.storage.shard import GraphShard
    from repro.stream import session as stream_session
    from repro.stream.dynamic import DynamicGraph

    return [
        (SSPPR, "push", "ppr.push", _n_keys(2)),
        (MultiSSPPR, "push", "ppr.push", _n_keys(2)),
        (SSPPR, "pop", "ppr.pop", None),
        (MultiSSPPR, "pop", "ppr.pop", None),
        (ShardedMap, "get_or_insert", "ppr.hashmap", _n_keys(1)),
        (ShardedMap, "lookup", "ppr.hashmap", _n_keys(1)),
        (NeighborFetchService, "get_neighbor_infos", "fetch", None),
        (FetchCache, "admit", "fetch.admit", None),
        (rpc_api.RpcContext, "rref_call", "rpc", None),
        (rpc_api, "payload_sizes", "rpc.serialize", None),
        (rpc_api, "request_payload_sizes", "rpc.serialize", None),
        (BufferPool, "stage", "rpc.serialize", None),
        (GraphShard, "get_neighbor_batch", "shard.read", None),
        (GraphShard, "get_vertex_props", "shard.read", None),
        (GraphShard, "get_cached_batch", "shard.read", None),
        (GraphShard, "sample_one_neighbor", "shard.read", None),
        (GraphShard, "stage_updates", "shard.write", None),
        (GraphShard, "commit_updates", "shard.write", None),
        (GraphShard, "rollback_updates", "shard.write", None),
        (GraphShard, "abort_updates", "shard.write", None),
        (GraphShard, "install_halo_rows", "shard.write", None),
        (DynamicGraph, "apply", "stream.mirror", None),
        (DynamicGraph, "row", "stream.mirror", None),
        (DynamicGraph, "wdeg", "stream.mirror", None),
        (DynamicGraph, "snapshot", "stream.snapshot", None),
        (stream_session, "build_shard_payloads", "stream.payload", None),
        (stream_session, "refresh_state", "stream.refresh", None),
        (stream_session.StreamingSession, "epoch_rebalance",
         "stream.rebalance", None),
        (Session, "submit", "serve.submit", None),
        (Session, "drain", "serve.drain", None),
        (Session, "_execute", "engine.execute", None),
        (Scheduler, "run", "simt.scheduler", None),
        (MetisLitePartitioner, "partition", "setup.partition", None),
        (engine_mod, "build_shards", "setup.build", None),
        (build_mod, "build_shards", "setup.build", None),
    ]


class LayerTracer:
    """In-memory span recorder around patched ``repro`` entry points."""

    def __init__(self) -> None:
        self._layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("i")
        #: keys handed to a layer (for ns-per-key ratios)
        self.keys: dict[str, int] = defaultdict(int)
        self.request_id = SETUP_RID
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self._layers)
            self._layers.append(layer)
        return lid

    def _open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span for work the benchmark itself does (e.g. load-gen idle)."""
        idx = self._open(self._layer_id(layer))
        try:
            yield
        finally:
            self._close(idx)

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer, count in targets():
            self._wrap(owner, attr, layer, count)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, layer: str, count) -> None:
        original = owner.__dict__[attr]
        lid = self._layer_id(layer)
        keys = self.keys
        open_, close = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                keys[layer] += count(args, kwargs)
            idx = open_(lid)
            try:
                return original(*args, **kwargs)
            finally:
                close(idx)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rid": np.frombuffer(self.rid, dtype=np.int32).copy(),
        }

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer over the timed phase (request id >= 0)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        keep = a["rid"] >= 0
        sums = np.bincount(a["layer"][keep], weights=(dur - child)[keep],
                           minlength=len(self._layers))
        return {name: float(sums[lid])
                for lid, name in enumerate(self._layers)}

    def setup_seconds_per_rep(self, layer: str) -> list[float]:
        """Summed duration of ``layer`` spans for each setup repetition."""
        a = self.arrays()
        lid = self._layer_ids[layer]
        per: dict[int, float] = defaultdict(float)
        for i in np.flatnonzero((a["layer"] == lid) & (a["rid"] < 0)):
            per[int(a["rid"][i])] += float(a["end"][i] - a["start"][i])
        return [per[k] for k in sorted(per, reverse=True)]

    def write(self, path) -> None:
        """Write every recorded span (plus the layer-name table)."""
        np.savez(path, names=np.array(self._layers), **self.arrays())
