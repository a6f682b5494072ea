#!/usr/bin/env python3
"""Time ``solve_path``, the certify pass or the export of two source trees in one process.

    python3 tools/ab_paths.py OLD_SRC NEW_SRC [--workload W] [--rounds N] [--quick]
                              [--memory] [--phase path|certify|export]

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
can read slower.  ``--rounds`` defaults to 30: on a shared 2-vCPU host,
30-round A/A controls on ``gauss-deep`` stayed within 0.996-1.028, so a
default run resolves a 5% difference, where 10-round A/B runs of code
about 1% apart read anywhere in 0.945-1.088.  Every path is timed on its
own.  For each workload the tool prints each side's sum of per-path
medians over the rounds, with its breakpoint count (the two sides do the
same work only when these agree) and its kernel counts summed over one
round of its paths (``SolutionPath.kernel``, each route as
``route=count``, the routes the side's own package counts), so a run
shows the work that a change saves, and the ratio new / old.  The line
also gives the side's profiled Python and C calls per breakpoint, a work
counter that does not depend on the machine: after the timed rounds,
each of its paths is solved once more, untimed, under ``sys.setprofile``,
and the calls of all of them are divided by their breakpoints.
``--memory`` adds, after the timed rounds, the
bytes that ``tracemalloc`` sees held by one round of each side's paths
(every path of the workload solved once and kept, as the benchmark's path
round keeps them), on the side's line and as a ratio new / old.

``--phase certify`` times the certify pass instead: each side solves its
paths once, untimed, then certifies every breakpoint of each of them with
its own ``check_optimal_pair`` (``bp.x``, ``bp.y`` and ``bp.delta_k``, as
the benchmark's ``certify_s`` pass does), in the same alternated rounds
with per-path medians summed.  A side's line gives how many of its
breakpoints it certified; the run exits 1 when the two sides' verdicts
differ at any breakpoint.

``--phase export`` times the export in the same way: each side solves its
paths once, untimed, then writes each of them as JSON with its own
``path_to_export`` and ``export_to_json`` (as the benchmark's
``export_s`` pass does), in alternated rounds with per-path medians
summed.  A side's line gives its paths and the megabytes of their text;
the run exits 1 when the two sides' texts differ for any path.
``--memory`` measures paths, so it goes with ``--phase path`` only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def load_package(src: Path, name: str):
    """The ``l1linf`` package under ``src``, imported as ``name`` with its
    ``pathexport`` module; its relative imports resolve inside that tree."""
    init = src / "l1linf" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_paths: no l1linf package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.pathexport")
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


def _alternated(packages: dict, jobs: dict, rounds: int, work, keep) -> dict:
    """Time ``work(package, job)`` on each side's jobs in alternated rounds;
    returns each side's sum of per-job medians and ``keep`` of each of its
    first round's results, taken outside the timed call."""
    times = {side: [[] for _ in jobs[side]] for side in SIDES}
    kept = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            for samples, job in zip(times[side], jobs[side]):
                tick = time.perf_counter()
                out = work(packages[side], job)
                samples.append(time.perf_counter() - tick)
                if r == 0:
                    kept[side].append(keep(out))
    return {side: (sum(statistics.median(s) for s in times[side]), kept[side])
            for side in SIDES}


def compare(packages: dict, workload, rounds: int) -> dict:
    """Alternated rounds over a workload; returns each side's sum of
    per-path medians, breakpoint count and kernel counts summed over its
    paths (route: count)."""
    jobs = {side: _jobs(packages[side], workload) for side in SIDES}
    result = _alternated(
        packages, jobs, rounds,
        lambda package, job: package.solve_path(job[0], use_warm_starts=job[1]),
        lambda path: (len(path.breakpoints) - 1, vars(path.kernel)))
    out = {}
    for side, (seconds, kept) in result.items():
        kernel = Counter()
        for _, counts in kept:
            kernel.update(counts)
        out[side] = (seconds, sum(count for count, _ in kept), dict(kernel))
    return out


def _solved(packages: dict, workload) -> dict:
    """Each side's (instance, path) of every path of a workload, solved
    once with its own package."""
    return {side: [(inst, packages[side].solve_path(inst, use_warm_starts=warm))
                   for inst, warm in _jobs(packages[side], workload)]
            for side in SIDES}


def compare_certify(packages: dict, workload, rounds: int) -> dict:
    """Alternated rounds of the certify pass over each side's own paths;
    returns each side's sum of per-path medians and its verdicts, one list
    per path."""
    return _alternated(
        packages, _solved(packages, workload), rounds,
        lambda package, job: [package.check_optimal_pair(job[0], bp.x, bp.y, bp.delta_k)
                              for bp in job[1].breakpoints],
        lambda verdicts: verdicts)


def compare_export(packages: dict, workload, rounds: int) -> dict:
    """Alternated rounds of the JSON export of each side's own paths;
    returns each side's sum of per-path medians and its texts, one a path."""
    def export(package, job):
        return package.pathexport.export_to_json(package.pathexport.path_to_export(*job))
    return _alternated(packages, _solved(packages, workload), rounds, export, lambda text: text)


def calls_per_breakpoint(packages: dict, workload) -> dict:
    """Each side's Python and C calls per breakpoint over one untimed
    round of its paths, each path solved under ``sys.setprofile`` alone;
    operators and ufuncs make no profile event."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
    out = {}
    previous = sys.getprofile()
    for side in SIDES:
        calls = breakpoints = 0
        for inst, warm in _jobs(packages[side], workload):
            sys.setprofile(profile)
            try:
                path = packages[side].solve_path(inst, use_warm_starts=warm)
            finally:
                sys.setprofile(previous)
            breakpoints += len(path.breakpoints) - 1
        out[side] = calls / max(breakpoints, 1)
    return out


def held_bytes(packages: dict, workload) -> dict:
    """Bytes that tracemalloc sees held by one round of each side's paths;
    garbage is collected before both readings, so only what the paths
    keep reachable counts."""
    out = {}
    for side in SIDES:
        jobs = _jobs(packages[side], workload)
        solve = packages[side].solve_path
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            paths = [solve(inst, use_warm_starts=warm) for inst, warm in jobs]
            gc.collect()
            out[side] = tracemalloc.get_traced_memory()[0] - before
            del paths
        finally:
            tracemalloc.stop()
    return out


def _certified(verdicts) -> str:
    flat = [v for path in verdicts for v in path]
    return f"{sum(flat)} of {len(flat)} breakpoints certified"


def _written(texts) -> str:
    return f"{len(texts)} paths, {sum(map(len, texts)) / 1e6:.3f} MB of text"


# --phase: (compare, a side's line from its kept results, what those are)
PHASES = {"certify": (compare_certify, _certified, "verdicts"),
          "export": (compare_export, _written, "texts")}


def report_phase(name: str, phase: str, result: dict, rounds: int) -> int:
    """Print a workload's certify or export A/B; 1 when the two sides'
    verdicts or texts differ."""
    _, describe, what = PHASES[phase]
    for side in SIDES:
        seconds, kept = result[side]
        print(f"{name} {side}: {seconds:.4f} s, {describe(kept)}")
    print(f"{name} new/old: {result['new'][0] / result['old'][0]:.3f} "
          f"({rounds} alternated rounds)")
    if result["old"][1] == result["new"][1]:
        return 0
    print(f"{name}: the two sides' {what} differ")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the old side")
    parser.add_argument("new", type=Path, help="source tree of the new side")
    parser.add_argument("--workload", default="all",
                        help="a workload of perfbench/workloads.py, or all (default)")
    parser.add_argument("--rounds", type=int, default=30,
                        help="rounds of each side (default 30, enough to resolve "
                             "a 5%% difference)")
    parser.add_argument("--quick", action="store_true", help="the workloads' tiny sizes")
    parser.add_argument("--memory", action="store_true",
                        help="also the bytes held by one round of each side's paths")
    parser.add_argument("--phase", choices=("path", *PHASES), default="path",
                        help="time solve_path (default), the certify pass or the export")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.memory and args.phase != "path":
        parser.error("--memory measures the paths: use it with --phase path")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    packages = {side: load_package(src.resolve(), f"l1linf_{side}")
                for side, src in zip(SIDES, (args.old, args.new))}
    status = 0
    for name in names:
        workload = WORKLOADS[name](1, args.quick)
        if args.phase in PHASES:
            result = PHASES[args.phase][0](packages, workload, args.rounds)
            status |= report_phase(name, args.phase, result, args.rounds)
            continue
        result = compare(packages, workload, args.rounds)
        calls = calls_per_breakpoint(packages, workload)
        held = held_bytes(packages, workload) if args.memory else None
        for side in SIDES:
            seconds, count, kernel = result[side]
            routes = " ".join(f"{route}={n}" for route, n in kernel.items())
            memory = f", {held[side] / 1e6:.3f} MB held" if held else ""
            print(f"{name} {side}: {seconds:.4f} s, {count} breakpoints, "
                  f"{calls[side]:.2f} calls a breakpoint, kernel {routes}{memory}")
        print(f"{name} new/old: {result['new'][0] / result['old'][0]:.3f} "
              f"({args.rounds} alternated rounds)")
        if held:
            print(f"{name} held new/old: {held['new'] / held['old']:.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
