#!/usr/bin/env python3
"""Compare two trees' ``check_optimal_pair`` verdicts on the reference paths.

    python3 tools/certify_sweep.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``l1linf`` package (a
checkout's ``src``), loaded side by side as ``tools/ab_paths.py`` loads
them.  The cases are the 1,026 reference paths of
``tools/path_fingerprint.py``, drawn and solved, warm and cold, by the old
side.  Every breakpoint is then judged by both sides' certifiers, each on
its own ``ProblemInstance`` of the same data, in four forms:

- as it is;
- with 0.1 added to y at row k mod m (k the breakpoint's index);
- with 1e-7 added to x at column k mod n;
- with x negated;

each at tol = the old side's ``PAIR_TOL``, 0 and 1e-3.  The nudged forms
fail the y-block, x-block and sign tests, so both outcomes are covered.
The tool prints the number of checks, how many the old side refuses and
how many verdicts differ, with the first few differences, and exits 1
when there is one.  A certifier rewrite that claims to change no verdict
runs this against its parent.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SHOWN = 10   # differences listed in full


def forms(bp, m: int, n: int):
    """(name, x, y) of the four forms of a breakpoint that are judged."""
    x, y = bp.x, bp.y
    moved_y, moved_x = y.copy(), x.copy()
    moved_y[bp.k % m] += 0.1
    moved_x[bp.k % n] += 1e-7
    return (("as-is", x, y), ("y+0.1", x, moved_y), ("x+1e-7", moved_x, y),
            ("-x", -x, y))


def sweep(packages: dict, cases) -> tuple[int, int, list[str]]:
    """Judge every form of every breakpoint of each (label, A, b, delta)
    case, solved warm and cold by the old side, with both sides'
    certifiers; returns the number of checks, the old side's refusals and
    a line for each verdict that differs."""
    old, new = packages["old"], packages["new"]
    tols = (old.homotopy.PAIR_TOL, 0.0, 1e-3)
    checks, refused, diffs = 0, 0, []
    for label, a, b, delta in cases:
        insts = {side: package.ProblemInstance(a, b, delta)
                 for side, package in packages.items()}
        m, n = a.shape
        for warm in (True, False):
            for bp in old.solve_path(insts["old"], use_warm_starts=warm).breakpoints:
                for name, x, y in forms(bp, m, n):
                    for tol in tols:
                        was = old.check_optimal_pair(insts["old"], x, y, bp.delta_k, tol)
                        now = new.check_optimal_pair(insts["new"], x, y, bp.delta_k, tol)
                        checks += 1
                        refused += not was
                        if was != now:
                            diffs.append(f"{label}/{'warm' if warm else 'cold'} k={bp.k} "
                                         f"{name} tol={tol:g}: old {was}, new {now}")
    return checks, refused, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the old side")
    parser.add_argument("new", type=Path, help="source tree of the new side")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(args.old.resolve()), str(TOOLS), str(TOOLS.parent / "perfbench")]
    from ab_paths import SIDES, load_package
    from path_fingerprint import _cases
    packages = {side: load_package(src.resolve(), f"l1linf_{side}")
                for side, src in zip(SIDES, (args.old, args.new))}
    cases = ((label, inst.A, inst.b, inst.delta) for label, inst in _cases())
    checks, refused, diffs = sweep(packages, cases)
    for line in diffs[:SHOWN]:
        print(line)
    print(f"{checks} checks, {refused} refused by the old side, {len(diffs)} verdicts differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
