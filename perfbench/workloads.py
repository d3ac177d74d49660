"""The three benchmark workloads and the correctness gate.

Each workload has five parts: ``inputs`` (derived from the seed, untimed),
``build`` (the timed set-up: deployment plus the frontend or service),
``warm`` (untimed posting-cache fill), ``measure`` (the measured phase,
bounded by wall time or, for tests, by an op count) and ``frontends`` (the
frontends whose caches the counters read).  README.md says why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.index.analysis import Analyzer
from repro.index.distributed import DistributedIndex
from repro.search.frontend import FrontendOptions, SearchFrontend
from repro.search.results import SERVED_DEGRADED, SERVED_SHED
from repro.serve.service import ServiceOptions
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.queries import QueryWorkloadGenerator
from repro.workloads.updates import PublishWorkloadGenerator

from perfbench.deployment import (
    Scale,
    build_corpus,
    build_deployment,
    engine_config,
    probe_slice,
)

# Requester peer of the measured frontend (fixed so seeds only move inputs).
REQUESTER = "peer-001:store"
# Length of the pre-generated query stream and publish stream; the measured
# phase cycles the query stream and stops early if the publish stream ends.
STREAM_LENGTH = 20_000
PUBLISH_EVENTS = 4_000
# serve-open admission policy: 2 replicas x 4 slots, queue 16 per replica.
SERVICE = ServiceOptions(replicas=2, concurrency=4, queue_capacity=16, degraded=True)
# Arrivals pre-generated for serve-open, in simulated ms.
SERVE_HORIZON_MS = 3_600_000.0
# query-stream's posting cache holds fewer shards than its pool touches, so
# about four in ten shard lookups miss and go to the DHT and storage: the
# fetch path stays loaded after the warm-up.  serve-open's replicas keep
# the default cache, because cache misses there spread its latency tail
# from seed to seed three times as much as the serving layer does.
QUERY_STREAM_POSTING_CACHE = 32
# Zipf exponents of query repeats in query-stream and serve-open.
QUERY_EXPONENT = 0.4
SERVE_EXPONENT = 0.6
# serve-open's offered Poisson rate, in requests per simulated second.
SERVE_RATE = 2.0
# publish-churn: share of the corpus bootstrapped before the stream starts.
INITIAL_FRACTION = 0.8

# A probe slice is timed every PROBE_EVERY_S of the measured phase, so the
# slices track the machine's speed while the workload runs.
PROBE_EVERY_S = 0.25

# Per-op states.
OK, FAILED, SHED, DEGRADED = "ok", "failed", "shed", "degraded"

TopK = Tuple[Tuple[int, float], ...]


@dataclass
class OpRecord:
    """One op of the measured phase, in the order the ops were issued."""

    state: str = OK
    # The workload's user-visible simulated latency (sim ms), or None.
    latency: Optional[float] = None
    # Simulated latency of the search call itself (no queue wait), or None.
    read_latency: Optional[float] = None


@dataclass
class Outcome:
    """What one measured phase produced."""

    records: List[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0
    docs_scored: int = 0
    # serve-open: queue wait of admitted requests and how late each arrival
    # fired after its due time (both sim ms).
    queue_waits: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    # query -> every distinct top-k it was answered with in the phase, or
    # None when the gate must re-run it on the measured frontend.
    answers: Dict[str, Optional[Set[TopK]]] = field(default_factory=dict)
    # Durations of the machine-speed slices run during the phase.
    probe_slices: List[float] = field(default_factory=list)
    _next_probe: float = 0.0

    def tick(self) -> None:
        """Called once per op: times a probe slice when one is due."""
        now = time.perf_counter()
        if now < self._next_probe:
            return
        self.probe_slices.append(probe_slice())
        self._next_probe = now + PROBE_EVERY_S

    def answered(self, query: str, page) -> None:
        """Keep ``page``'s top-k among the distinct answers to ``query``."""
        self.answers.setdefault(query, set()).add(top_k(page))

    @property
    def ops(self) -> int:
        return len(self.records)

    def count(self, state: str) -> int:
        return sum(1 for record in self.records if record.state == state)


def top_k(page) -> TopK:
    return tuple((result.doc_id, result.score) for result in page.results)


def _report_failure(what: str) -> None:
    sys.stderr.write(f"[perfbench] {what} failed:\n{traceback.format_exc()}")


@dataclass(frozen=True)
class Budget:
    """When a measured phase ends.

    It ends at ``deadline`` (a ``time.perf_counter`` value), but never
    before ``min_ops`` ops, so the sampled metrics always see their whole
    sample even on a slow machine.  ``max_ops``, when set, replaces both
    with an exact op count, which makes every count reproducible.
    """

    deadline: float
    min_ops: int
    max_ops: Optional[int] = None

    def spent(self, done: int) -> bool:
        if self.max_ops is not None:
            return done >= self.max_ops
        return done >= self.min_ops and time.perf_counter() >= self.deadline


def warm_frontends(frontends, queries) -> None:
    """Fetch every term of ``queries`` once on each frontend.

    That caches every term's shard manifest and fills the posting cache
    (on query-stream, with the last of the shards: its cache is smaller, so
    the measured phase still misses and fetches).  One search per frontend
    then settles its lazy statistics and rank-vector fetches.  Result caches
    stay cold: filling them is part of the workload.
    """
    analyzer = Analyzer()
    terms = dict.fromkeys(term for query in queries for term in analyzer.analyze(query))
    for frontend in frontends:
        for term in terms:
            frontend.index.fetch_term(term, requester=frontend.requester)
        frontend.search(queries[0])


# -- query-stream ----------------------------------------------------------------


def query_stream_inputs(scale: Scale, seed: int) -> dict:
    corpus = build_corpus(scale, seed)
    stream = QueryWorkloadGenerator(corpus.documents, seed=seed).generate_stream(
        STREAM_LENGTH, scale.query_pool, repeat_exponent=QUERY_EXPONENT
    )
    return {"documents": corpus.documents, "stream": stream.queries}


def query_stream_build(scale: Scale, seed: int, inputs: dict):
    config = engine_config(scale, seed, posting_cache=QUERY_STREAM_POSTING_CACHE)
    engine = build_deployment(config, inputs["documents"])
    return engine, engine.create_frontend(requester=REQUESTER)


def query_stream_warm(engine, frontend, inputs: dict) -> None:
    warm_frontends([frontend], list(dict.fromkeys(inputs["stream"])))


def query_stream_measure(engine, frontend, inputs, budget: Budget, tracer) -> Outcome:
    outcome = Outcome()
    stream = inputs["stream"]
    started = time.perf_counter()
    while not budget.spent(outcome.ops):
        query = stream[outcome.ops % len(stream)]
        tracer.op = outcome.ops
        outcome.tick()
        try:
            page = frontend.search(query)
        except Exception:
            _report_failure(f"query {query!r}")
            outcome.records.append(OpRecord(FAILED))
            continue
        outcome.records.append(OpRecord(OK, page.latency, page.latency))
        outcome.docs_scored += page.diagnostics.get("docs_scored", 0)
        outcome.answered(query, page)
    outcome.wall_s = time.perf_counter() - started
    return outcome


def query_stream_frontends(client) -> list:
    return [client]


# -- publish-churn -----------------------------------------------------------------


def publish_churn_inputs(scale: Scale, seed: int) -> dict:
    corpus = build_corpus(scale, seed)
    generator = PublishWorkloadGenerator(
        corpus,
        initial_fraction=INITIAL_FRACTION,
        update_probability=0.7,
        delete_probability=0.1,
        update_drop_fraction=0.3,
        seed=seed,
    )
    return {
        "documents": generator.initial_documents(),
        "events": generator.generate(PUBLISH_EVENTS).events,
        "rank_every": scale.rank_every,
    }


def publish_churn_build(scale: Scale, seed: int, inputs: dict):
    engine = build_deployment(engine_config(scale, seed), inputs["documents"])
    # The read-your-write reader shares the engine's index, so a write's
    # epoch bump invalidates its posting cache at once.
    return engine, engine.create_shared_frontend(requester=REQUESTER)


def publish_churn_warm(engine, reader, inputs: dict) -> None:
    return None


def publish_churn_measure(engine, reader, inputs, budget: Budget, tracer) -> Outcome:
    """Closed loop in cycles of ``rank_every`` events and one rank round.

    The wall-clock budget is checked between cycles only, so every run
    measures whole cycles and the rank rounds' share of the time does not
    depend on where the budget happened to end.
    """
    outcome = Outcome()
    events = iter(inputs["events"])
    rank_every = inputs["rank_every"]
    started = time.perf_counter()
    while not budget.spent(outcome.ops):
        cycle = list(itertools.islice(events, rank_every))
        if budget.max_ops is not None:
            cycle = cycle[: budget.max_ops - outcome.ops]
        if not cycle:
            break
        for event in cycle:
            tracer.op = outcome.ops
            outcome.records.append(_publish_and_read(engine, reader, event, outcome))
            outcome.tick()
        tracer.op = -1
        engine.compute_page_ranks()
    outcome.wall_s = time.perf_counter() - started
    return outcome


def _publish_and_read(engine, reader, event, outcome: Outcome) -> OpRecord:
    """Apply one publish event, then read its page back."""
    document = event.document
    lag = None
    try:
        if event.is_delete:
            accepted = engine.delete_document(document.doc_id)
        else:
            lags_before = len(engine.freshness.lags())
            accepted = engine.publish_document(document).accepted
            lags = engine.freshness.lags()
            if len(lags) > lags_before:
                lag = lags[-1]
    except Exception:
        _report_failure(f"publish of document {document.doc_id}")
        return OpRecord(FAILED)
    # The read asks for any of the page's title terms, which every version
    # of the page contains; a disjunctive query fills the whole top-k, so
    # its latency does not swing with how many pages match all the terms.
    query = " OR ".join(document.title.split())
    try:
        page = reader.search(query)
    except Exception:
        _report_failure(f"read of document {document.doc_id}")
        return OpRecord(FAILED, lag)
    outcome.docs_scored += page.diagnostics.get("docs_scored", 0)
    outcome.answers[query] = None
    return OpRecord(OK if accepted else FAILED, lag, page.latency)


def publish_churn_frontends(client) -> list:
    return [client]


# -- serve-open ---------------------------------------------------------------------


def serve_open_inputs(scale: Scale, seed: int) -> dict:
    corpus = build_corpus(scale, seed)
    # Disjunctive queries fill the whole top-k, so every result-cache miss
    # resolves the same number of results' metadata and the misses'
    # latencies form one mode.  Conjunctive pages of one to nine results
    # spread from 0.2 s to 2 s, which put the median on the edge of the
    # full-page mode, where it moved 12% from seed to seed.
    pool = [
        " OR ".join(query.split())
        for query in QueryWorkloadGenerator(corpus.documents, seed=seed)
        .generate(scale.serve_pool)
        .queries
    ]
    arrivals = PoissonArrivals(
        pool,
        rate=SERVE_RATE / 1000.0,
        rng=random.Random(seed),
        repeat_exponent=SERVE_EXPONENT,
    ).generate(SERVE_HORIZON_MS)
    return {"documents": corpus.documents, "pool": pool, "arrivals": arrivals.arrivals}


def serve_open_build(scale: Scale, seed: int, inputs: dict):
    engine = build_deployment(
        engine_config(scale, seed, result_cache=scale.result_cache), inputs["documents"]
    )
    return engine, engine.create_service(SERVICE)


def serve_open_warm(engine, service, inputs: dict) -> None:
    warm_frontends(serve_open_frontends(service), inputs["pool"])


def serve_open_measure(engine, service, inputs, budget: Budget, tracer) -> Outcome:
    """Open loop: Poisson arrivals fire as simulator events until time is up.

    Each arrival schedules the next one until the budget is spent;
    requests already in the system are then drained.
    Gossip rounds fire as the events they are.  A round advances the clock,
    so an arrival can fire after its due time: latency is counted from the
    due time and the lateness is recorded.
    """
    outcome = Outcome()
    simulator = engine.simulator
    arrivals = inputs["arrivals"]
    origin = simulator.now
    first = len(service.responses)
    submitted = 0
    stopping = False

    def due(index: int) -> float:
        return origin + arrivals[index][0]

    def arrive() -> None:
        nonlocal submitted, stopping
        tracer.op = submitted
        service.submit(arrivals[submitted][1])
        tracer.op = -1
        submitted += 1
        outcome.tick()
        if budget.spent(submitted) or submitted == len(arrivals):
            stopping = True
        else:
            simulator.schedule_at(max(due(submitted), simulator.now), arrive, label="bench-arrival")

    stats = service.stats
    simulator.schedule_at(due(0), arrive, label="bench-arrival")
    started = time.perf_counter()
    while not (stopping and stats.completed + stats.degraded + stats.shed == stats.submitted):
        if not simulator.step():
            raise RuntimeError("event queue drained with requests in flight")
    outcome.wall_s = time.perf_counter() - started

    for index, request in enumerate(service.responses[first:]):
        lateness = request.arrival_time - due(index)
        outcome.lateness.append(lateness)
        serving = request.page.serving
        if serving.served_from == SERVED_SHED:
            outcome.records.append(OpRecord(SHED))
        elif serving.served_from == SERVED_DEGRADED:
            outcome.records.append(OpRecord(DEGRADED, lateness + serving.latency))
        else:
            service_time = serving.latency - serving.queue_delay
            outcome.records.append(OpRecord(OK, lateness + serving.latency, service_time))
            outcome.queue_waits.append(serving.queue_delay)
            outcome.docs_scored += request.page.diagnostics.get("docs_scored", 0)
            outcome.answered(request.query, request.page)
    return outcome


def serve_open_frontends(client) -> list:
    return [replica.frontend for replica in client.replicas]


@dataclass(frozen=True)
class Workload:
    """One workload's parts (README.md gives each workload's rationale)."""

    inputs: Callable
    build: Callable
    warm: Callable
    measure: Callable
    frontends: Callable
    # Simulated-latency and answer-share metrics are taken over the first
    # ``sample_ops`` ops only, so they depend on the seed and not on how
    # many ops the machine managed within the wall-clock budget; the
    # measured phase always runs at least that many.
    sample_ops: int


WORKLOADS: Dict[str, Workload] = {
    "query-stream": Workload(
        query_stream_inputs, query_stream_build, query_stream_warm,
        query_stream_measure, query_stream_frontends, sample_ops=600,
    ),
    "publish-churn": Workload(
        publish_churn_inputs, publish_churn_build, publish_churn_warm,
        publish_churn_measure, publish_churn_frontends, sample_ops=25,
    ),
    "serve-open": Workload(
        serve_open_inputs, serve_open_build, serve_open_warm,
        serve_open_measure, serve_open_frontends, sample_ops=250,
    ),
}


# -- correctness gate ---------------------------------------------------------------


def reference_frontend(engine) -> SearchFrontend:
    """Term-at-a-time, no posting/result cache, no rank pruning: the oracle."""
    config = engine.config
    index = DistributedIndex(
        engine.dht,
        engine.storage,
        compress=config.compress_index,
        cache=None,
        shard_size=config.index_shard_size,
        delta_publication=config.delta_publication,
        delta_max_ratio=config.delta_max_ratio,
    )
    return SearchFrontend(
        simulator=engine.simulator,
        index=index,
        rank_provider=engine.page_ranks,
        rank_version_provider=engine.rank_version,
        metadata_resolver=engine.directory.resolve,
        analyzer=Analyzer(),
        statistics=None,
        planning_strategy=config.planning_strategy,
        execution_mode="taat",
        requester="peer-000:store",
        options=FrontendOptions(
            top_k=config.top_k,
            result_cache_capacity=0,
            use_rank_ceilings=False,
            use_rank_range_index=False,
        ),
    )


def same_top_k(got: TopK, expected: TopK) -> bool:
    return len(got) == len(expected) and all(
        doc == ref_doc and math.isclose(score, ref_score, rel_tol=1e-9, abs_tol=1e-12)
        for (doc, score), (ref_doc, ref_score) in zip(got, expected)
    )


def gate(engine, frontends, outcome: Outcome) -> Tuple[int, int]:
    """Compare every distinct answer to every query with the reference top-k.

    The index does not change while a read-only phase runs, so each answer
    to a query must equal the one reference answer.  Returns ``(checked,
    mismatches)``, both counted over distinct answers.  Queries recorded as
    ``None`` (the publish-churn reads, whose index moved on after they were
    answered) are re-run on the measured frontend first, after the
    statistics and gossip have caught up with the last write.
    """
    if any(answers is None for answers in outcome.answers.values()):
        engine.publish_statistics()
        if engine.converge_metadata() < 0:
            raise RuntimeError("gossip did not converge before the gate")
    reference = reference_frontend(engine)
    checked = mismatches = 0
    for query, answers in outcome.answers.items():
        if answers is None:
            answers = {top_k(frontends[0].search(query))}
        expected = top_k(reference.search(query))
        for answer in answers:
            checked += 1
            if not same_top_k(answer, expected):
                mismatches += 1
                sys.stderr.write(
                    f"[perfbench] mismatch on {query!r}: got {answer[:3]}... "
                    f"expected {expected[:3]}...\n"
                )
    return checked, mismatches
