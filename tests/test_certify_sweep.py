"""``tools/certify_sweep.py``'s sweep on a few small paths, A/A and against
a certifier that differs."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import l1linf
from test_homotopy import random_instance

TOOL = Path(__file__).resolve().parent.parent / "tools" / "certify_sweep.py"
_spec = importlib.util.spec_from_file_location("certify_sweep", TOOL)
certify_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_sweep)


def _cases():
    rng = np.random.default_rng(5)
    for i in range(3):
        inst = random_instance(rng, delta_zero=i == 0)
        yield f"small/{i}", inst.A, inst.b, inst.delta


def _breakpoints():
    return sum(len(l1linf.solve_path(l1linf.ProblemInstance(a, b, d),
                                     use_warm_starts=warm).breakpoints)
               for _, a, b, d in _cases() for warm in (True, False))


def test_sweep_of_a_tree_against_itself_finds_no_difference():
    checks, refused, diffs = certify_sweep.sweep({"old": l1linf, "new": l1linf}, _cases())
    # four forms of every breakpoint, each at three tolerances
    assert checks == 12 * _breakpoints()
    assert 0 < refused < checks and diffs == []


def test_sweep_lists_each_verdict_that_differs():
    def lenient_at_zero(inst, x, y, delta, tol):
        return tol == 0.0 or l1linf.check_optimal_pair(inst, x, y, delta, tol)

    new = SimpleNamespace(ProblemInstance=l1linf.ProblemInstance,
                          check_optimal_pair=lenient_at_zero)
    checks, refused, diffs = certify_sweep.sweep({"old": l1linf, "new": new}, _cases())
    assert 0 < len(diffs) <= checks // 3
    assert all(line.endswith("tol=0: old False, new True") for line in diffs)
    assert diffs[0].startswith("small/0/warm k=")
