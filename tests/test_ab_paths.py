"""``tools/ab_paths.py`` run A/A on this tree at the workloads' tiny sizes."""

import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from l1linf import ProblemInstance, solve_path
from test_linalg import _workload

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_paths.py"
SIDE = (r"small-many (old|new): ([0-9.]+) s, (\d+) breakpoints, "
        r"kernel ((?:\w+=\d+ ?)+)")


def _run(*args):
    src = str(ROOT / "src")
    return subprocess.run([sys.executable, str(TOOL), src, src, "--quick",
                           "--workload", "small-many", *args],
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_ab_paths_runs_a_against_a():
    lines = _run("--rounds", "2", "--memory").splitlines()
    sides = [re.fullmatch(SIDE + r", ([0-9.]+) MB held", line) for line in lines[:2]]
    assert [m.group(1) for m in sides] == ["old", "new"]
    # the same tree does the same work, and holds about as many bytes, on both sides
    assert sides[0].group(3) == sides[1].group(3) != "0"
    assert sides[0].group(4) == sides[1].group(4)
    held = [float(m.group(5)) for m in sides]
    assert held[0] > 0.0 and abs(held[1] - held[0]) <= 0.01 * held[0]
    ratio = re.fullmatch(r"small-many new/old: ([0-9.]+) \(2 alternated rounds\)", lines[2])
    assert ratio and float(ratio.group(1)) > 0.0
    held_ratio = re.fullmatch(r"small-many held new/old: ([0-9.]+)", lines[3])
    assert held_ratio and abs(float(held_ratio.group(1)) - 1.0) <= 0.01 and len(lines) == 4


def test_ab_paths_sums_each_sides_kernel_counts():
    # each side's line carries the kernel counts of one round of its
    # paths, warm and cold, summed route by route
    lines = _run("--rounds", "1").splitlines()
    sides = [re.fullmatch(SIDE, line) for line in lines[:2]]
    shown = [dict((route, int(calls)) for route, calls in
                  (pair.split("=") for pair in m.group(4).split())) for m in sides]
    expected = Counter()
    for case in _workload("small-many")(1, True).cases:
        for warm in (True, False):
            path = solve_path(ProblemInstance(case.A, case.b, case.delta), use_warm_starts=warm)
            expected.update(vars(path.kernel))
    assert shown[0] == shown[1] == dict(expected)
    # the cold paths ask again for systems the carry has just answered
    assert shown[0]["reused"] > 0 and shown[0]["updates"] > 0


CERTIFY_SIDE = r"small-many (old|new): ([0-9.]+) s, (\d+) of (\d+) breakpoints certified"


def test_ab_paths_certify_phase_runs_a_against_a():
    lines = _run("--rounds", "2", "--phase", "certify").splitlines()
    sides = [re.fullmatch(CERTIFY_SIDE, line) for line in lines[:2]]
    assert [m.group(1) for m in sides] == ["old", "new"]
    # each side certifies every breakpoint of its own paths, warm and cold,
    # the origins included
    checked = sum(len(solve_path(ProblemInstance(case.A, case.b, case.delta),
                                 use_warm_starts=warm).breakpoints)
                  for case in _workload("small-many")(1, True).cases for warm in (True, False))
    assert [m.group(3, 4) for m in sides] == [(str(checked), str(checked))] * 2
    ratio = re.fullmatch(r"small-many new/old: ([0-9.]+) \(2 alternated rounds\)", lines[2])
    assert ratio and float(ratio.group(1)) > 0.0 and len(lines) == 3


def test_ab_paths_certify_phase_fails_on_different_verdicts(tmp_path):
    # a side whose certifier refuses every pair
    shutil.copytree(ROOT / "src" / "l1linf", tmp_path / "l1linf")
    with open(tmp_path / "l1linf" / "homotopy.py", "a") as f:
        f.write("\n\ndef check_optimal_pair(*args, **kwargs):\n    return False\n")
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(tmp_path),
                          "--quick", "--workload", "small-many", "--rounds", "1",
                          "--phase", "certify"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert re.fullmatch(r"small-many new: [0-9.]+ s, 0 of \d+ breakpoints certified", lines[1])
    assert lines[-1] == "small-many: the two sides' verdicts differ"
