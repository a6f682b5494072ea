"""The paper's "never gets stuck" claim as a property on tied data.

At an exact dual optimum the theorem of the alternative makes the primal
step positive, so on data with many ties (entries on a grid of 1/2 or
1/4, a duplicated or a zero last column) a path is either certified and
optimal or it says honestly that it stopped: below the least feasible
bound when the LP is infeasible, or at a zero-length step otherwise.
"""

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from l1linf import oracle
from l1linf.homotopy import ProblemInstance, check_optimal_pair, solve_path


@st.composite
def tied_instances(draw):
    """m x n, m in [3, 8] and n in {2m, m, m // 2 + 1}: A and b integers
    over q in {2, 4}, the last column of A kept, duplicated from the one
    before it or zeroed, and delta = 0.1 ||b||_inf.  A square or tall A
    leaves b outside its range, so many of those draws are infeasible."""
    m = draw(st.integers(3, 8))
    n = draw(st.sampled_from([2 * m, m, m // 2 + 1]))
    q = draw(st.sampled_from([2, 4]))
    entries = st.lists(st.integers(-2 * q, 2 * q), min_size=m * (n + 1),
                       max_size=m * (n + 1))
    values = np.array(draw(entries), dtype=float) / q
    a, b = values[:-m].reshape(m, n), values[-m:]
    tail = draw(st.sampled_from(["kept", "duplicated", "zeroed"]))
    if tail == "duplicated":
        a[:, -1] = a[:, -2]
    elif tail == "zeroed":
        a[:, -1] = 0.0
    return ProblemInstance(a, b, 0.1 * np.max(np.abs(b)))


def test_tied_paths_are_certified_or_honestly_stuck():
    infeasible = []     # generated draws below their least feasible bound

    # no explain phase: it imports libcst, whose DeprecationWarning fails under -W error
    @settings(derandomize=True, database=None, deadline=None, max_examples=200,
              phases=(Phase.explicit, Phase.generate, Phase.shrink))
    @given(inst=tied_instances())
    @example(inst=ProblemInstance(np.zeros((3, 6)), [1.0, -0.5, 0.5], 0.1))
    def check(inst):
        ref = oracle.simplex_solve(oracle.reformulate(inst))
        assert ref.status in ("optimal", "infeasible")
        for warm in (True, False):
            path = solve_path(inst, use_warm_starts=warm)
            assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
                       for bp in path.breakpoints)
            if ref.status == "infeasible":
                assert path.terminated == "failure"
                assert "below the minimal feasible bound" in path.failure_reason
            elif path.terminated == "target-reached":
                assert abs(path.objective - ref.value) <= 1e-9
            else:
                assert path.failure_reason.startswith("degenerate step"), path.failure_reason
        # the explicit example's A is zero
        if ref.status == "infeasible" and np.count_nonzero(inst.A):
            infeasible.append(inst)

    check()
    assert infeasible
