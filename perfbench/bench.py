"""One benchmark run: set-up, warm-up, measured phase, gate, metrics.

``run_workload`` is the whole run; ``run.py`` is its command line.  Untraced
runs report the end-to-end metrics, traced runs the per-layer ones (see
README.md for the glossary and the layer-to-end-to-end map).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.dht.node import APPEND, FIND_NODE, FIND_VALUE, PING, STORE
from repro.metrics.summary import percentile
from repro.serve.service import QueryService
from repro.storage.peer import GET_BLOCK, HAS_BLOCK, PUT_BLOCK

from perfbench.deployment import FULL, PROBE_REFERENCE_S, Scale, probe_slice, timed_setups
from perfbench.tracer import GROUPS, Tracer
from perfbench.workloads import (
    DEGRADED,
    FAILED,
    SHED,
    WORKLOADS,
    Budget,
    Outcome,
    Workload,
    gate,
)

MESSAGE_TYPES = (PING, STORE, APPEND, FIND_NODE, FIND_VALUE, GET_BLOCK, HAS_BLOCK, PUT_BLOCK)
# Traced runs write their spans to perfbench/out/.
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def machine_probe() -> float:
    """Seconds 50 probe slices take: the machine's current speed."""
    return sum(probe_slice() for _ in range(50))


def snapshot(engine, frontends, client) -> Dict[str, float]:
    """Exact counters of the deployment; deltas of two snapshots are a phase."""
    net = engine.network.stats
    counts = {
        "net.bytes": net.bytes_sent,
        "net.messages": net.messages_sent,
        "net.drops": net.messages_dropped,
        "net.retries": net.retries,
        "dht.lookups": engine.dht.stats.lookups,
        "dht.rounds": engine.dht.stats.total_rounds,
        "dht.contacted": engine.dht.stats.total_contacted,
        "storage.adds": engine.storage.stats.adds,
        "storage.gets": engine.storage.stats.gets,
        "gossip.rounds": engine.gossip.stats.rounds,
        "gossip.entries_sent": engine.gossip.stats.entries_sent,
        "sim.events": engine.simulator.events_processed,
        "index.shards_published": engine.index.stats.shards_published,
        "publish.delta_bytes": engine.metrics.counter("publish.delta_bytes"),
        "publish.full_bytes": engine.metrics.counter("publish.full_bytes"),
        "posting_cache.hits": 0,
        "posting_cache.misses": 0,
        "result_cache.hits": 0,
        "result_cache.misses": 0,
    }
    for msg_type in MESSAGE_TYPES:
        counts["net.rpcs." + msg_type] = net.per_type.get(msg_type, 0)
    for frontend in frontends:
        if frontend.index.cache is not None:
            counts["posting_cache.hits"] += frontend.index.cache.stats.hits
            counts["posting_cache.misses"] += frontend.index.cache.stats.misses
        if frontend.result_cache is not None:
            counts["result_cache.hits"] += frontend.result_cache.stats.hits
            counts["result_cache.misses"] += frontend.result_cache.stats.misses
    for name in ("admitted", "queued", "degraded", "shed"):
        counts["serve." + name] = (
            getattr(client.stats, name) if isinstance(client, QueryService) else 0
        )
    return counts


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ten samples beyond.

    That is the eleventh-largest sample, but never below the median: with
    fewer than 21 samples the tail is the median.
    """
    if len(samples) < 21:
        return 0.5, percentile(samples, 0.5)
    ordered = sorted(samples)
    index = len(ordered) - 11
    return index / (len(ordered) - 1), ordered[index]


def reference_speed_rate(outcome: Outcome) -> float:
    """Ops per second, rescaled to a machine whose probe slice takes 2 ms.

    The raw rate is ops over the phase's wall time less the probe slices.
    The machine this was built on ran the same code up to 1.7x slower from
    one minute to the next; the slices, timed all through the phase, slow
    down with it, so multiplying by their mean duration cancels the
    machine's speed and keeps the program's.
    """
    slices = outcome.probe_slices
    busy = outcome.wall_s - sum(slices)
    return outcome.ops / busy * statistics.mean(slices) / PROBE_REFERENCE_S


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(outcome: Outcome, setup_times: List[float], delta, workload: Workload):
    """The end-to-end metrics and, for the detail line, how they were taken."""
    sample = outcome.records[: workload.sample_ops]
    latencies = [r.latency for r in sample if r.latency is not None]
    reads = [r.read_latency for r in sample if r.read_latency is not None]
    unanswered = sum(1 for r in sample if r.state in (FAILED, SHED))
    degraded = sum(1 for r in sample if r.state == DEGRADED)
    tail_fraction, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (reference_speed_rate(outcome), "op/s"),
        "sim_p50_ms": (percentile(latencies, 0.5), "sim_ms"),
        "sim_tail_ms": (tail_value, "sim_ms"),
        "kib_per_op": (delta["net.bytes"] / 1024.0 / outcome.ops, "KiB"),
        "answered_pct": (100.0 * (len(sample) - unanswered) / len(sample), "%"),
        "fresh_pct": (100.0 * (len(sample) - degraded) / len(sample), "%"),
        "read_sim_p50_ms": (percentile(reads, 0.5), "sim_ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    how = {
        "ops_per_s_raw": outcome.ops / outcome.wall_s,
        "probe_slices": len(outcome.probe_slices),
        "probe_slice_mean_s": statistics.mean(outcome.probe_slices),
        "sampled_ops": len(sample),
        "latency_samples": len(latencies),
        "tail_percentile": tail_fraction,
        "failed_pct": 100.0 * unanswered / len(sample),
        "degraded_pct": 100.0 * degraded / len(sample),
    }
    return metrics, how


def per_layer(
    tracer: Tracer, outcome: Outcome, delta, ops_per_s: float
) -> Dict[str, Tuple[float, str]]:
    ops = outcome.ops
    run_self = tracer.group_self("run")
    wall = tracer.phase_wall["run"]
    if abs(sum(run_self.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError("layer self times do not add up to the traced wall time")
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    def calls(name: str) -> int:
        return tracer.calls("run", name)

    for group in GROUPS:
        put(f"{group}.self_ms_per_op", 1000.0 * run_self[group] / ops, "ms/op")
    put("trace.wall_ms_per_op", 1000.0 * wall / ops, "ms/op")
    put("trace.ops_per_s", ops_per_s, "op/s")
    put("trace.spans_per_op", tracer.spans_in("run") / ops, "1/op")

    waits = outcome.queue_waits
    put("serve.queue_wait_sim_ms", sum(waits) / len(waits) if waits else 0.0, "sim_ms")
    for name in ("admitted", "queued", "shed", "degraded"):
        put(f"serve.{name}_per_op", delta["serve." + name] / ops, "1/op")

    put("search.exec.docs_scored_per_op", outcome.docs_scored / ops, "1/op")
    hits, misses = delta["result_cache.hits"], delta["result_cache.misses"]
    put("search.result_cache.hit_ratio", _ratio(hits, hits + misses), "ratio")
    put("core.directory.resolve.calls_per_op", calls("core.directory.resolve") / ops, "1/op")
    put(
        "core.directory.resolve.sim_ms_per_op",
        tracer.stats[("run", "core.directory.resolve")].sim / ops,
        "sim_ms/op",
    )
    put("index.fetch.sim_ms_per_op", tracer.sim_of("run", "index.fetch") / ops, "sim_ms/op")
    hits, misses = delta["posting_cache.hits"], delta["posting_cache.misses"]
    put("index.posting_cache.hit_ratio", _ratio(hits, hits + misses), "ratio")
    put("index.publish.shards_per_op", delta["index.shards_published"] / ops, "1/op")
    patch, full = delta["publish.delta_bytes"], delta["publish.full_bytes"]
    put("index.publish.delta_ratio", _ratio(patch, patch + full), "ratio")

    for method in ("put", "get", "add_to_set", "get_set"):
        put(f"dht.{method}.calls_per_op", calls(f"dht.{method}") / ops, "1/op")
    put("dht.sim_ms_per_op", tracer.sim_of("run", "dht") / ops, "sim_ms/op")
    put("dht.lookup_rounds_mean", _ratio(delta["dht.rounds"], delta["dht.lookups"]), "rounds")
    put("dht.contacted_mean", _ratio(delta["dht.contacted"], delta["dht.lookups"]), "peers")

    adds = calls("storage.add") + calls("storage.add_placed")
    put("storage.add.calls_per_op", adds / ops, "1/op")
    put("storage.get.calls_per_op", calls("storage.get") / ops, "1/op")
    put("storage.retried", tracer.counters[("run", "storage.retried")], "count")

    for msg_type in MESSAGE_TYPES:
        put(f"net.rpcs_per_op.{msg_type}", delta["net.rpcs." + msg_type] / ops, "1/op")
    put("net.drops", delta["net.drops"], "count")
    put("net.retries", delta["net.retries"], "count")

    rounds = delta["gossip.rounds"]
    put("gossip.rounds", rounds, "count")
    put("gossip.self_ms_per_round", 1000.0 * _ratio(run_self["net.gossip"], rounds), "ms/round")
    put("gossip.entries_sent_per_round", _ratio(delta["gossip.entries_sent"], rounds), "1/round")

    phases = ("setup", "run")
    rank_rounds = sum(tracer.calls(phase, "ranking.compute") for phase in phases)
    rank_self = sum(tracer.stats[(phase, "ranking.compute")].self_wall for phase in phases)
    rank_bytes = sum(tracer.counters[(phase, "ranking.publish.bytes")] for phase in phases)
    put("ranking.compute.self_ms", 1000.0 * _ratio(rank_self, rank_rounds), "ms/round")
    put("ranking.publish.kib", _ratio(rank_bytes, rank_rounds) / 1024.0, "KiB/round")

    put("chain.tx_per_op", calls("chain.submit") / ops, "1/op")
    put("sim.events_per_op", delta["sim.events"] / ops, "1/op")
    put("sim.parallel_regions_per_op", calls("sim.parallel_region") / ops, "1/op")

    setup_self = tracer.group_self("setup")
    put("setup.wall_s", tracer.phase_wall["setup"], "s")
    for group in GROUPS:
        put(f"setup.{group}.self_s", setup_self[group], "s")
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = FULL,
    max_ops: Optional[int] = None,
) -> dict:
    """Run one workload; returns ``{"result": ..., "detail": ...}``.

    ``result`` is the contract line (correct/attempted/failed/metrics);
    ``detail`` holds the exact counts, the machine-speed probe and the gate
    outcome.  ``max_ops`` replaces the wall-clock budget with an op count,
    which makes every count reproducible (the determinism test uses it).
    """
    workload = WORKLOADS[name]
    clock = time.perf_counter()
    inputs = workload.inputs(scale, seed)
    inputs_s = time.perf_counter() - clock
    # Always a tracer, so the phases need no branches; only an installed
    # one wraps the layers and records more than the phase root spans.
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        tracer.begin_phase("setup")
        setup_times, setup_rescaled, engine, client = timed_setups(
            1 if trace else scale.setups, lambda: workload.build(scale, seed, inputs)
        )
        tracer.end_phase(next_phase="warm")
        clock = time.perf_counter()
        workload.warm(engine, client, inputs)
        warm_s = time.perf_counter() - clock
        frontends = workload.frontends(client)
        probe_before = machine_probe()
        before = snapshot(engine, frontends, client)
        budget = Budget(time.perf_counter() + seconds, workload.sample_ops, max_ops)
        cpu_before = time.process_time()
        tracer.begin_phase("run")
        outcome = workload.measure(engine, client, inputs, budget, tracer)
        tracer.end_phase(next_phase="gate")
        phase_cpu_s = time.process_time() - cpu_before
        after = snapshot(engine, frontends, client)
        probe_after = machine_probe()
        delta = {key: after[key] - before[key] for key in before}
        if outcome.ops == 0:
            raise RuntimeError("the measured phase completed no op")
        e2e, sampling = end_to_end(outcome, setup_rescaled, delta, workload)
        layers = per_layer(tracer, outcome, delta, e2e["ops_per_s"][0]) if trace else None
        clock = time.perf_counter()
        checked, mismatches = gate(engine, frontends, outcome)
        gate_s = time.perf_counter() - clock
    finally:
        tracer.uninstall()
    if trace:
        tracer.write(os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.tsv"))

    chosen = layers if trace else e2e
    result = {
        "correct": checked > 0 and mismatches == 0,
        "attempted": outcome.ops,
        "failed": outcome.count(FAILED),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in chosen.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "ops": outcome.ops,
        "wall_s": outcome.wall_s,
        "cpu_s": phase_cpu_s,
        "setup_times_s": setup_times,
        "setup_s_raw": statistics.median(setup_times),
        "untimed_s": {"inputs": inputs_s, "warm": warm_s, "gate": gate_s},
        "machine_probe_s": {"before": probe_before, "after": probe_after},
        "states": {state: outcome.count(state) for state in (FAILED, SHED, DEGRADED)},
        "lateness_max_sim_ms": max(outcome.lateness, default=0.0),
        "gate": {"checked": checked, "mismatches": mismatches},
        **sampling,
        # Exact counts: identical for identical seeds and op counts.
        "counts": {
            **delta,
            "docs_scored": outcome.docs_scored,
            "sim_p50_ms": e2e["sim_p50_ms"][0],
            "sim_tail_ms": e2e["sim_tail_ms"][0],
            "read_sim_p50_ms": e2e["read_sim_p50_ms"][0],
        },
    }
    return {"result": result, "detail": detail}
