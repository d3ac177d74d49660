"""Deployment sizing and the timed set-up phase shared by every workload.

A deployment is one :class:`QueenBeeEngine` on the gossip metadata plane
with a bootstrapped corpus, one rank round and converged gossip.  Its inputs
(corpus, query pool, publish stream, arrivals) are derived from the run's
seed only; the engine never sees the seed except through its own config.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from repro.core.config import QueenBeeConfig
from repro.core.engine import QueenBeeEngine
from repro.workloads.corpus import CorpusGenerator, GeneratedCorpus


# Posting-cache entries (one per shard): more than the shards a query pool
# touches, so a warm frontend fetches only shards a write superseded.
POSTING_CACHE = 256


@dataclass(frozen=True)
class Scale:
    """Every size knob of one benchmark deployment and its inputs.

    ``FULL`` is what the benchmark command runs.  ``TINY`` keeps the same
    shape at a size the determinism test can run twice in a few seconds.
    """

    documents: int
    vocabulary: int
    peers: int
    workers: int
    shard_size: int
    # Set-ups timed per untraced run; the median is ``setup_s``.
    setups: int
    # query-stream: distinct queries.
    query_pool: int
    # publish-churn: one rank round every ``rank_every`` publish events.
    rank_every: int
    # serve-open: distinct queries, and the per-replica result cache the
    # degraded path replays from.
    serve_pool: int
    result_cache: int


FULL = Scale(
    documents=160,
    vocabulary=250,
    peers=32,
    workers=8,
    shard_size=64,
    setups=3,
    query_pool=400,
    rank_every=5,
    serve_pool=400,
    result_cache=16,
)

TINY = replace(
    FULL,
    documents=40,
    vocabulary=80,
    peers=8,
    workers=4,
    shard_size=16,
    setups=1,
    query_pool=12,
    rank_every=3,
    serve_pool=12,
    result_cache=4,
)


def build_corpus(scale: Scale, seed: int) -> GeneratedCorpus:
    """The seeded synthetic corpus (Zipfian terms, skewed owners, link graph)."""
    generator = CorpusGenerator(
        vocabulary_size=scale.vocabulary,
        term_exponent=1.0,
        mean_document_length=40,
        length_spread=12,
        owner_count=40,
        owner_exponent=1.0,
        mean_out_degree=5.0,
        seed=seed,
    )
    return generator.generate(scale.documents)


def engine_config(
    scale: Scale, seed: int, posting_cache: int = POSTING_CACHE, result_cache: int = 0
) -> QueenBeeConfig:
    """The deployment config: gossip plane, posting cache on, sized by ``scale``."""
    config = QueenBeeConfig(
        seed=seed,
        peer_count=scale.peers,
        worker_count=scale.workers,
        dht_k=8,
        dht_alpha=3,
        dht_replicate=4,
        storage_replication=3,
        latency_median=25.0,
        latency_sigma=0.45,
        rank_max_iterations=25,
        index_shard_size=scale.shard_size,
        posting_cache_capacity=posting_cache,
        result_cache_capacity=result_cache,
        metadata_plane="gossip",
    )
    config.validate()
    return config


def build_deployment(config: QueenBeeConfig, documents) -> QueenBeeEngine:
    """Bootstrap, first rank round, converged gossip: the warm deployment."""
    engine = QueenBeeEngine(config)
    engine.bootstrap_corpus(documents)
    engine.compute_page_ranks()
    if engine.converge_metadata() < 0:
        raise RuntimeError("gossip did not converge after the bootstrap")
    return engine


# A probe slice: a fixed pure-Python loop whose duration tracks the
# machine's current speed.  Wall times are rescaled to a machine on which it
# takes PROBE_REFERENCE_S (see README.md, "Machine speed").
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.002


def probe_slice() -> float:
    """Seconds one probe slice takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def timed_setups(
    count: int, build: Callable[[], Tuple[QueenBeeEngine, object]]
) -> Tuple[List[float], List[float], QueenBeeEngine, object]:
    """Run ``build`` ``count`` times, timing each; keep the last deployment.

    ``build`` returns ``(engine, client)`` where the client (frontend or
    service) is created inside the timed region.  Earlier deployments are
    dropped and collected before the next build so each one starts from a
    comparable heap.  Returns the raw wall times, the same times rescaled
    to the reference machine speed by ten probe slices on either side of
    each build, and the last deployment.
    """
    times: List[float] = []
    rescaled: List[float] = []
    engine = client = None
    for _ in range(count):
        engine = client = None
        gc.collect()
        before = [probe_slice() for _ in range(10)]
        started = time.perf_counter()
        engine, client = build()
        elapsed = time.perf_counter() - started
        after = [probe_slice() for _ in range(10)]
        times.append(elapsed)
        rescaled.append(elapsed * PROBE_REFERENCE_S / statistics.mean(before + after))
    return times, rescaled, engine, client
