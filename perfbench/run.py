"""Command line of the benchmark.

    python3 perfbench/run.py --workload query-stream --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Prints one detail line and, as the
last line of standard output, the result object (``correct``, ``attempted``,
``failed``, ``metrics``).  Exits non-zero when an output was wrong or the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"no program sources at {os.path.join(ROOT, 'src', 'repro')}\n")
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": outcome["detail"]}, sort_keys=True))
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
