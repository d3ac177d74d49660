"""Span tracing around the calls into each layer's public functions.

The program itself carries no tracing.  :class:`Tracer` patches the layer
classes in place, wrapping each listed method so that every call records a
span: name, wall and simulated start/end, parent span and the op it belongs
to.  Patching happens on the classes before any deployment object exists,
because bound methods captured at construction (the frontend's
``metadata_resolver=self.directory.resolve``, the network's handler table)
would otherwise keep calling the unwrapped function.

Self time is a span's wall duration minus the part its child spans cover.
It is accumulated online per span name and phase, so the aggregates stay
exact even when the stored span list is capped.  A root ``bench`` span per
phase holds the benchmark's own residual, so the self times of all groups
add up to the phase's traced wall time.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.chain.blockchain import Blockchain
from repro.core.directory import DocumentDirectory
from repro.core.engine import QueenBeeEngine
from repro.core.publisher import ContentPublisher
from repro.core.worker import WorkerBee
from repro.dht.dht import DHTNetwork
from repro.dht.node import KademliaNode
from repro.index.directory import TermDirectory
from repro.index.distributed import DistributedIndex, ShardedPostings
from repro.net.gossip import GossipPlane
from repro.net.network import SimulatedNetwork
from repro.ranking.distributed import (
    DecentralizedPageRank,
    RankCeilingPublisher,
    RankVectorPublisher,
)
from repro.search.executor import QueryExecutor
from repro.search.frontend import SearchFrontend
from repro.serve.service import QueryService
from repro.sim.simulator import Simulator
from repro.storage.ipfs import DecentralizedStorage
from repro.storage.peer import StoragePeer

# Spans of the measured phase kept for writing out; the aggregates cover
# every phase and keep counting past the cap.
MAX_SPANS = 100_000
STORED_PHASE = "run"
# Index of the child-time accumulator in a stack frame (see ``enter``).
_CHILD = 7


def _retried(tracer: "Tracer", result) -> None:
    if getattr(result, "retried", False):
        tracer.count("storage.retried")


def _rank_bytes(tracer: "Tracer", receipt) -> None:
    tracer.count("ranking.publish.bytes", getattr(receipt, "bytes_published", 0))


# (class, method, span name, group, result observer).  The group is the
# layer a span's self time is charged to; span names refine it.
WRAPPED: List[Tuple[type, str, str, str, Optional[Callable]]] = [
    (QueryService, "submit", "serve.submit", "serve", None),
    (SearchFrontend, "search", "search.search", "search", None),
    (SearchFrontend, "search_degraded", "search.degraded", "search", None),
    (SearchFrontend, "search_batch", "search.batch", "search", None),
    (QueryExecutor, "execute", "search.exec", "search.exec", None),
    (DocumentDirectory, "resolve", "core.directory.resolve", "core.directory", None),
    (DocumentDirectory, "resolve_many", "core.directory.resolve_many", "core.directory", None),
    (DocumentDirectory, "resolve_url", "core.directory.resolve_url", "core.directory", None),
    (DocumentDirectory, "publish", "core.directory.publish", "core.directory", None),
    (DocumentDirectory, "mark_deleted", "core.directory.mark_deleted", "core.directory", None),
    (DistributedIndex, "fetch_term_manifest", "index.fetch.manifest", "index.fetch", None),
    (DistributedIndex, "fetch_term_sharded", "index.fetch.sharded", "index.fetch", None),
    (DistributedIndex, "fetch_term", "index.fetch.term", "index.fetch", None),
    (DistributedIndex, "fetch_statistics", "index.fetch.statistics", "index.fetch", None),
    (ShardedPostings, "shard", "index.fetch.shard", "index.fetch", None),
    (ShardedPostings, "materialize", "index.fetch.materialize", "index.fetch", None),
    (DistributedIndex, "publish_term", "index.publish.term", "index.publish", None),
    (DistributedIndex, "merge_term", "index.publish.merge", "index.publish", None),
    (DistributedIndex, "remove_document", "index.publish.remove", "index.publish", None),
    (DistributedIndex, "publish_statistics", "index.publish.statistics", "index.publish", None),
    (DistributedIndex, "refresh_rank_ceilings", "index.publish.ceilings", "index.publish", None),
    (DistributedIndex, "refresh_shard_providers", "index.publish.providers", "index.publish", None),
    (TermDirectory, "publish", "index.directory.publish", "index.directory", None),
    (TermDirectory, "delete", "index.directory.delete", "index.directory", None),
    (TermDirectory, "fetch", "index.directory.fetch", "index.directory", None),
    (DHTNetwork, "put", "dht.put", "dht", None),
    (DHTNetwork, "get", "dht.get", "dht", None),
    (DHTNetwork, "add_to_set", "dht.add_to_set", "dht", None),
    (DHTNetwork, "get_set", "dht.get_set", "dht", None),
    (DHTNetwork, "contains", "dht.contains", "dht", None),
    (KademliaNode, "handle_message", "dht.handle", "dht", None),
    (DecentralizedStorage, "add_bytes", "storage.add", "storage", None),
    (DecentralizedStorage, "add_bytes_placed", "storage.add_placed", "storage", None),
    (DecentralizedStorage, "get_bytes", "storage.get", "storage", _retried),
    (DecentralizedStorage, "replicate_to", "storage.replicate", "storage", None),
    (StoragePeer, "handle_message", "storage.handle", "storage", None),
    (StoragePeer, "fetch_block_from", "storage.fetch_block", "storage", None),
    (StoragePeer, "push_block_to", "storage.push_block", "storage", None),
    (SimulatedNetwork, "rpc", "net.rpc", "net", None),
    (SimulatedNetwork, "rpc_parallel", "net.rpc_parallel", "net", None),
    (SimulatedNetwork, "rpc_hedged", "net.rpc_hedged", "net", None),
    (SimulatedNetwork, "request_with_retry", "net.request_with_retry", "net", None),
    (GossipPlane, "run_round", "gossip.round", "net.gossip", None),
    (DecentralizedPageRank, "compute", "ranking.compute", "ranking", None),
    (RankVectorPublisher, "publish", "ranking.publish", "ranking", _rank_bytes),
    (RankCeilingPublisher, "publish", "ranking.ceilings", "ranking", None),
    (QueenBeeEngine, "bootstrap_corpus", "core.engine.bootstrap", "core", None),
    (QueenBeeEngine, "publish_document", "core.engine.publish", "core", None),
    (QueenBeeEngine, "delete_document", "core.engine.delete", "core", None),
    (QueenBeeEngine, "compute_page_ranks", "core.engine.rank_round", "core", None),
    (QueenBeeEngine, "publish_statistics", "core.engine.statistics", "core", None),
    (QueenBeeEngine, "converge_metadata", "core.engine.converge", "core", None),
    (WorkerBee, "index_document", "core.worker.index", "core.worker", None),
    (WorkerBee, "delete_document", "core.worker.delete", "core.worker", None),
    (ContentPublisher, "publish", "core.publisher.publish", "core.publisher", None),
    (Blockchain, "submit", "chain.submit", "chain", None),
    (Blockchain, "query", "chain.query", "chain", None),
    (Simulator, "step", "sim.step", "sim", None),
    (Simulator, "parallel_region", "sim.parallel_region", "sim", None),
]

ROOT = "bench"
GROUPS = sorted({group for _, _, _, group, _ in WRAPPED} | {ROOT})


class _SpanStats:
    __slots__ = ("calls", "self_wall", "sim")

    def __init__(self) -> None:
        self.calls = 0
        self.self_wall = 0.0
        # Simulated time of calls not nested in another span of the same
        # group (so a fetch calling a fetch is not counted twice).
        self.sim = 0.0


class Tracer:
    """Records spans around the wrapped layer methods while installed."""

    def __init__(self) -> None:
        self.simulator: Optional[Simulator] = None
        self.phase = "setup"
        self.op = -1
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.stats: Dict[Tuple[str, str], _SpanStats] = defaultdict(_SpanStats)
        self.groups: Dict[str, str] = {ROOT: ROOT}
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase_wall: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._open_in_group: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._restore: List[Tuple[type, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every listed method (and ``Simulator.__init__``) in place."""
        tracer = self
        original_init = Simulator.__dict__["__init__"]

        def init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            tracer.simulator = sim

        self._patch(Simulator, "__init__", init)
        for owner, method, name, group, observer in WRAPPED:
            self.groups[name] = group
            self._patch(owner, method, self._wrapper(owner.__dict__[method], name, group, observer))

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._restore):
            setattr(owner, method, original)
        self._restore.clear()

    def _patch(self, owner: type, method: str, replacement) -> None:
        self._restore.append((owner, method, owner.__dict__[method]))
        replacement.__name__ = method
        replacement.__qualname__ = f"{owner.__name__}.{method}"
        setattr(owner, method, replacement)

    def _wrapper(self, function, name: str, group: str, observer):
        enter, leave = self.enter, self.leave
        if observer is None:
            def traced(*args, **kwargs):
                enter(name, group)
                try:
                    return function(*args, **kwargs)
                finally:
                    leave()
        else:
            def traced(*args, **kwargs):
                enter(name, group)
                try:
                    result = function(*args, **kwargs)
                finally:
                    leave()
                observer(self, result)
                return result
        traced.__doc__ = function.__doc__
        return traced

    # -- spans ------------------------------------------------------------------

    def _sim_now(self) -> float:
        return self.simulator.now if self.simulator is not None else 0.0

    def enter(self, name: str, group: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        outermost = self._open_in_group[group] == 0
        self._open_in_group[group] += 1
        self._stack.append(
            [span_id, parent, name, group, outermost, time.perf_counter(), self._sim_now(), 0.0]
        )  # the last field accumulates the wall time of child spans

    def leave(self) -> None:
        wall_end = time.perf_counter()
        sim_end = self._sim_now()
        span_id, parent, name, group, outermost, wall_start, sim_start, child = self._stack.pop()
        self._open_in_group[group] -= 1
        duration = wall_end - wall_start
        stats = self.stats[(self.phase, name)]
        stats.calls += 1
        stats.self_wall += duration - child
        if outermost:
            stats.sim += sim_end - sim_start
        if self._stack:
            self._stack[-1][_CHILD] += duration
        else:
            self.phase_wall[self.phase] += duration
        if self.phase != STORED_PHASE:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent, self.op, name, wall_start, wall_end, sim_start, sim_end)
            )
        else:
            self.dropped += 1

    def begin_phase(self, phase: str) -> None:
        """Open the root span of ``phase`` (closed by :meth:`end_phase`)."""
        self.phase = phase
        self.op = -1
        self.enter(ROOT, ROOT)

    def end_phase(self, next_phase: str) -> None:
        """Close the phase's root span; later spans count under ``next_phase``."""
        self.leave()
        self.phase = next_phase
        self.op = -1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.phase, name)] += amount

    # -- read-out ---------------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.stats[(phase, name)].calls

    def spans_in(self, phase: str) -> int:
        return sum(s.calls for (p, _), s in self.stats.items() if p == phase)

    def sim_of(self, phase: str, group: str) -> float:
        return sum(
            s.sim for (p, n), s in self.stats.items() if p == phase and self.groups[n] == group
        )

    def group_self(self, phase: str) -> Dict[str, float]:
        """Wall self seconds per group in ``phase`` (every group present)."""
        totals = {group: 0.0 for group in GROUPS}
        for (p, name), stats in self.stats.items():
            if p == phase:
                totals[self.groups[name]] += stats.self_wall
        return totals

    def write(self, path: str) -> None:
        """Write the measured phase's spans as tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "span\tparent\top\tname\twall_start_s\twall_end_s\tsim_start_ms\tsim_end_ms\n"
            )
            for span in self.spans:
                handle.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in span))
                handle.write("\n")
            if self.dropped:
                handle.write(f"# {self.dropped} further spans not stored (cap {MAX_SPANS})\n")
