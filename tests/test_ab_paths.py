"""``tools/ab_paths.py`` run A/A on this tree at the workloads' tiny sizes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_paths.py"


def test_ab_paths_runs_a_against_a():
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(TOOL), src, src, "--quick", "--rounds", "2",
                          "--workload", "small-many", "--memory"],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    sides = [re.fullmatch(r"small-many (old|new): ([0-9.]+) s, (\d+) breakpoints, "
                          r"([0-9.]+) MB held", line)
             for line in lines[:2]]
    assert [m.group(1) for m in sides] == ["old", "new"]
    # the same tree does the same work, and holds about as many bytes, on both sides
    assert sides[0].group(3) == sides[1].group(3) != "0"
    held = [float(m.group(4)) for m in sides]
    assert held[0] > 0.0 and abs(held[1] - held[0]) <= 0.01 * held[0]
    ratio = re.fullmatch(r"small-many new/old: ([0-9.]+) \(2 alternated rounds\)", lines[2])
    assert ratio and float(ratio.group(1)) > 0.0
    held_ratio = re.fullmatch(r"small-many held new/old: ([0-9.]+)", lines[3])
    assert held_ratio and abs(float(held_ratio.group(1)) - 1.0) <= 0.01 and len(lines) == 4
