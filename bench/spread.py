"""Run the benchmark once per seed and print each metric's median and spread.

    python3 bench/spread.py --workload refine-face --seeds 1-10 [--seconds 40]

Runs ``bench/run.py`` one seed at a time, never in parallel, and prints for
every metric its median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
plus the failed share of operations. Each run's result line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, metavar="A-B")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        line = out.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", file=sys.stderr)
        results.append(json.loads(line))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload}: {len(results)} runs, {failed}/{attempted} operations failed")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name}: median {median:.6g} {first['unit']}, quartile spread {spread:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
