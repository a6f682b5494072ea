import dataclasses

import numpy as np
import pytest

from l1linf.homotopy import solve_path
from l1linf.linalg import IndexSet
from l1linf.verify import _path_checks, random_instance


@pytest.mark.parametrize("shrunk, inner", [("J_D", "J_P"), ("I_P", "I_D")])
def test_path_checks_name_the_breakpoint_that_breaks_a_set_containment(shrunk, inner):
    inst = random_instance(np.random.default_rng(3))
    path = solve_path(inst)
    assert _path_checks(inst, path, 1e-8, False)["set-containments"] is None
    bp = path.breakpoints[len(path.breakpoints) // 2]
    assert bp.k > 0 and len(getattr(bp.sets, inner)) > 0
    empty = IndexSet((), getattr(bp.sets, shrunk).universe)
    bp.sets = dataclasses.replace(bp.sets, **{shrunk: empty})
    detail = _path_checks(inst, path, 1e-8, False)["set-containments"]
    assert detail == f"{inner} not within {shrunk} at k={bp.k}"
