"""Same seed, same op count: identical exact counts, traced or not.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import pytest

from perfbench.bench import run_workload
from perfbench.deployment import TINY
from perfbench.workloads import WORKLOADS

OPS = 24


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first = run_workload(workload, seed=5, seconds=60, trace=False, scale=TINY, max_ops=OPS)
    second = run_workload(workload, seed=5, seconds=60, trace=False, scale=TINY, max_ops=OPS)
    traced = run_workload(workload, seed=5, seconds=60, trace=True, scale=TINY, max_ops=OPS)
    for run in (first, second, traced):
        assert run["result"]["correct"], run["detail"]["gate"]
        assert run["result"]["attempted"] == OPS
    counts = first["detail"]["counts"]
    assert counts["net.messages"] > 0 and counts["dht.lookups"] > 0
    assert second["detail"]["counts"] == counts
    # Tracing wraps the layers but must not change what the simulation does.
    assert traced["detail"]["counts"] == counts


def test_other_seed_gives_other_inputs():
    one = run_workload("query-stream", seed=5, seconds=60, trace=False, scale=TINY, max_ops=OPS)
    other = run_workload("query-stream", seed=6, seconds=60, trace=False, scale=TINY, max_ops=OPS)
    assert one["detail"]["counts"] != other["detail"]["counts"]


def test_traced_self_times_add_up_to_the_traced_wall_time():
    metrics = run_workload(
        "publish-churn", seed=5, seconds=60, trace=True, scale=TINY, max_ops=OPS
    )["result"]["metrics"]
    layers = sum(
        metric["value"] for name, metric in metrics.items()
        if name.endswith(".self_ms_per_op") and not name.startswith("setup.")
    )
    wall = metrics["trace.wall_ms_per_op"]["value"]
    assert layers == pytest.approx(wall, rel=1e-6)
    # Receive-side handler work is charged to its layer, not to the network.
    assert metrics["dht.self_ms_per_op"]["value"] > 0
    assert metrics["storage.self_ms_per_op"]["value"] > 0
