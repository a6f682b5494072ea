import numpy as np
import pytest

from l1linf import oracle
from l1linf.homotopy import ProblemInstance, solve_path
from reference_lp import lp_from_parts, split_recover


def test_min_x_subject_to_lower_bound():
    # min x s.t. x >= 1, as -x <= -1
    lp = lp_from_parts([1.0], ub_matrix=[[-1.0]], ub_rhs=[-1.0])
    res = oracle.simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(res.x, [1.0], atol=1e-10)


def test_infeasible_and_unbounded_reported():
    lp = lp_from_parts([0.0], ub_matrix=[[-1.0], [1.0]], ub_rhs=[-1.0, 0.0])
    assert oracle.simplex_solve(lp).status == "infeasible"
    lp = lp_from_parts([-1.0])  # min -x, x >= 0
    assert oracle.simplex_solve(lp).status == "unbounded"


def test_reformulate_scalar():
    inst = ProblemInstance([[1.0]], [2.0], 1.0)
    lp = oracle.reformulate(inst)
    assert lp.eq_rhs.size == 2
    assert lp.n == 4
    res = oracle.simplex_solve(lp)
    assert res.status == "optimal"
    x = split_recover(res.x, 1)
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_reformulate_trivial_delta():
    inst = ProblemInstance([[1.0]], [2.0], 2.0)
    res = oracle.simplex_solve(oracle.reformulate(inst))
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_reformulate_identity_soft_threshold_value():
    inst = ProblemInstance(np.eye(2), [3.0, -0.5], 0.5)
    res = oracle.simplex_solve(oracle.reformulate(inst))
    assert res.value == pytest.approx(2.5, abs=1e-9)


def test_degenerate_redundant_rows_terminate():
    # duplicated constraint rows force degenerate vertices; Bland still ends
    lp = lp_from_parts(
        [1.0, 1.0],
        eq_matrix=[[1.0, 1.0], [2.0, 2.0]], eq_rhs=[1.0, 2.0],
        ub_matrix=[[-1.0, 0.0], [-1.0, 0.0]], ub_rhs=[0.0, 0.0])
    res = oracle.simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_strong_duality_random():
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        n = int(rng.integers(2, 6))
        me = int(rng.integers(0, 3))
        mu = int(rng.integers(1, 5))
        x0 = rng.uniform(0, 1, n)
        eq = rng.standard_normal((me, n))
        ub = rng.standard_normal((mu, n))
        lp = lp_from_parts(rng.uniform(0.1, 2, n), eq, eq @ x0,
                                  ub, ub @ x0 + rng.uniform(0, 1, mu))
        res = oracle.simplex_solve(lp)
        if res.status != "optimal":
            continue
        dual_value = float(lp.eq_rhs @ res.dual_eq + lp.ub_rhs @ res.dual_ub)
        assert abs(res.value - dual_value) <= 1e-9 * (1 + abs(res.value))
        assert np.all(res.dual_ub <= 1e-9)
        done += 1


def test_feasibility_basic():
    lp = lp_from_parts([0.0], ub_matrix=[[-1.0], [1.0]], ub_rhs=[-1.0, 0.0])
    assert oracle.feasibility(lp) is False
    empty = lp_from_parts([0.0, 0.0])
    assert oracle.feasibility(empty) is True


def test_feasibility_strict_row():
    # e free with -e < 0 strictly: satisfiable
    lp = lp_from_parts([0.0], ub_matrix=[[-1.0]], ub_rhs=[0.0],
                              free_vars=[0])
    assert oracle.feasibility(lp, strict_ub_row=0) is True
    # adding e = 0 forces the strict row to fail
    lp = lp_from_parts([0.0], eq_matrix=[[1.0]], eq_rhs=[0.0],
                              ub_matrix=[[-1.0]], ub_rhs=[0.0], free_vars=[0])
    assert oracle.feasibility(lp, strict_ub_row=0) is False


def test_certificate_scalar():
    y = oracle.certificate_l1(np.array([[1.0]]), np.array([1.0]))
    np.testing.assert_allclose(y, [-1.0], atol=1e-9)


def test_certificate_identity():
    y = oracle.certificate_l1(np.eye(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(y, [-1.0, 0.0], atol=1e-9)


def test_certificate_feasibility_random():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.standard_normal((8, 12))
        a /= np.linalg.norm(a, axis=0)
        x = np.zeros(12)
        x[[1, 5, 9]] = [2.0, -1.0, 0.5]
        try:
            y = oracle.certificate_l1(a, x)
        except ValueError:
            continue  # draw not l1-minimal: certificate rightly refused
        g = a.T @ y
        supp = np.abs(x) > 1e-8
        assert np.max(np.abs(g[supp] + np.sign(x[supp]))) <= 1e-8
        assert np.max(np.abs(g[~supp])) <= 1 + 1e-8


def test_reformulation_matches_homotopy_objective():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(3, 8))
        inst = ProblemInstance(rng.standard_normal((m, 2 * m)),
                               rng.standard_normal(m),
                               0.3 * rng.uniform())
        path = solve_path(inst)
        assert path.terminated == "target-reached"
        res = oracle.simplex_solve(oracle.reformulate(inst))
        assert abs(path.objective - res.value) <= 1e-7 * (1 + abs(res.value))
