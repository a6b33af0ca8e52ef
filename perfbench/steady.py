#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/steady.py --workload flow-sweep --seeds 10

For each end-to-end metric this prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  A benchmark is steady when every spread, set-up time
excepted, stays within its bound; aim for a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    """Inter-quartile distance of ``values`` as a share of their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)

    worst = 0.0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        s = spread(vals)
        if metric["name"] != "setup_s":
            worst = max(worst, s / metric["bound"])
        print(f"{metric['name']:12s} median {statistics.median(vals):.6g} {metric['unit']:3s} "
              f"spread {s:.4f} bound {metric['bound']} ({s / metric['bound']:.2f} of bound)")
    print(f"largest spread, set-up excepted: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
