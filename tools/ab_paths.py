#!/usr/bin/env python3
"""Time ``solve_path`` of two source trees against each other in one process.

    python3 tools/ab_paths.py OLD_SRC NEW_SRC [--workload W] [--rounds N] [--quick]

OLD_SRC and NEW_SRC are directories holding an ``l1linf`` package (a
checkout's ``src``).  Each package is loaded under its own module name,
``l1linf_old`` and ``l1linf_new``, in one process with one BLAS thread, so
both sides share the interpreter, numpy and the host's speed state; the
same tree given twice is an A/A control.  The cases are the seed-1 cases
of ``perfbench/workloads.py`` (imported read-only, as
``path_fingerprint.py`` does), solved warm and, where the workload solves
them cold too, cold.  ``--quick`` takes the workloads' tiny sizes.

The two sides run in alternating rounds, the old side first in even
rounds and the new side first in odd ones, since the first side of a pair
can read slower.  Every path is timed on its own.  For each workload the
tool prints each side's sum of per-path medians over the rounds, with its
breakpoint count (the two sides do the same work only when these agree),
and the ratio new / old.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def load_package(src: Path, name: str):
    """The ``l1linf`` package under ``src``, imported as ``name``; its
    relative imports resolve inside that tree."""
    init = src / "l1linf" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_paths: no l1linf package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _jobs(package, workload):
    """(ProblemInstance of the package, warm) of every path of a workload."""
    out = []
    for case in workload.cases:
        inst = package.ProblemInstance(case.A, case.b, case.delta)
        out.append((inst, True))
        if workload.solve_cold:
            out.append((inst, False))
    return out


def compare(packages: dict, workload, rounds: int) -> dict:
    """Alternated rounds over a workload; returns each side's sum of
    per-path medians and breakpoint count."""
    jobs = {side: _jobs(packages[side], workload) for side in SIDES}
    times = {side: [[] for _ in jobs[side]] for side in SIDES}
    breakpoints = dict.fromkeys(SIDES, 0)
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            solve = packages[side].solve_path
            for samples, (inst, warm) in zip(times[side], jobs[side]):
                tick = time.perf_counter()
                path = solve(inst, use_warm_starts=warm)
                samples.append(time.perf_counter() - tick)
                if r == 0:
                    breakpoints[side] += len(path.breakpoints) - 1
    return {side: (sum(statistics.median(s) for s in times[side]), breakpoints[side])
            for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the old side")
    parser.add_argument("new", type=Path, help="source tree of the new side")
    parser.add_argument("--workload", default="all",
                        help="a workload of perfbench/workloads.py, or all (default)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds of each side (default 10)")
    parser.add_argument("--quick", action="store_true", help="the workloads' tiny sizes")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    packages = {side: load_package(src.resolve(), f"l1linf_{side}")
                for side, src in zip(SIDES, (args.old, args.new))}
    for name in names:
        result = compare(packages, WORKLOADS[name](1, args.quick), args.rounds)
        for side in SIDES:
            seconds, count = result[side]
            print(f"{name} {side}: {seconds:.4f} s, {count} breakpoints")
        print(f"{name} new/old: {result['new'][0] / result['old'][0]:.3f} "
              f"({args.rounds} alternated rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
