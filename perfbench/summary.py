#!/usr/bin/env python3
"""Median and quartile spread of every metric over the result files that
runs of perfbench/run.py left in perfbench/out/.

    python3 perfbench/summary.py            # untraced runs (--trace 0)
    python3 perfbench/summary.py --trace 1  # traced runs

The spread is (Q3 - Q1) / median over the runs of one workload, with the
quartiles of ``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    runs = defaultdict(list)
    for f in sorted(OUT_DIR.glob(f"result-*-trace{args.trace}.json")):
        res = json.loads(f.read_text())
        runs[res["workload"]].append(res)
    for workload, results in runs.items():
        seeds = sorted(r["seed"] for r in results)
        print(f"{workload}: {len(results)} runs, seeds {seeds}, "
              f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}, "
              f"HiGHS median {statistics.median(r['highs_s'] for r in results):.4g} s")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {name:32s} median {med:12.6g} {m['unit']:14s}"
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f" spread {(q3 - q1) / abs(med):.3f}"
            print(line)


if __name__ == "__main__":
    main()
