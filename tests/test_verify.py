import dataclasses

import numpy as np
import pytest

from l1linf import verify
from l1linf.homotopy import solve_path
from l1linf.verify import _path_checks, random_instance, run_suite


@pytest.mark.parametrize("args, message", [
    ({"count": -3}, "count must be nonnegative"),
    ({"pair_tol": np.inf}, "pair_tol must be finite and nonnegative"),
    ({"pair_tol": np.nan}, "pair_tol must be finite and nonnegative"),
    ({"pair_tol": -1.0}, "pair_tol must be finite and nonnegative"),
])
def test_run_suite_refuses_bad_arguments_before_solving(monkeypatch, args, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved an instance for invalid arguments")

    monkeypatch.setattr(verify, "solve_path", no_solve)
    with pytest.raises(ValueError, match=message):
        run_suite(**args)


@pytest.mark.parametrize("shrunk, inner", [("J_D", "J_P"), ("I_P", "I_D")])
def test_path_checks_name_the_breakpoint_that_breaks_a_set_containment(shrunk, inner):
    inst = random_instance(np.random.default_rng(3))
    path = solve_path(inst)
    assert _path_checks(inst, path, 1e-8, False)["set-containments"] is None
    bp = path.breakpoints[len(path.breakpoints) // 2]
    assert bp.k > 0 and len(getattr(bp.sets, inner)) > 0
    empty = np.array([], dtype=np.intp)
    bp.sets = dataclasses.replace(bp.sets, **{shrunk: empty})
    detail = _path_checks(inst, path, 1e-8, False)["set-containments"]
    assert detail == f"{inner} not within {shrunk} at k={bp.k}"
