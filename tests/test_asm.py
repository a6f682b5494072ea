import numpy as np
import pytest

from l1linf import oracle
from l1linf.asm import (AsmState, StandardLp, UnboundedDirectionError,
                        asm_solve, check_feasible, classify, complement,
                        find_direction, kkt_check, multipliers, step_size)

NONE = np.empty(0, dtype=np.intp)


def one_var_eq_lp():
    # min x s.t. x = 1 (no inequality rows, sigma = +1)
    return StandardLp(c=[1.0], A_eq=[[1.0]], b_eq=[1.0],
                      D=np.zeros((0, 1)), e=[], sigma=[1.0])


def test_kkt_check_examples():
    lp = one_var_eq_lp()
    assert kkt_check(lp, [1.0], [1.0], np.zeros(0), [0.0])
    assert not kkt_check(lp, [1.0], [0.0], np.zeros(0), [0.0])
    with pytest.raises(ValueError):
        kkt_check(lp, [1.0], [1.0, 2.0], np.zeros(0), [0.0])


def test_kkt_check_accepts_oracle_multipliers():
    rng = np.random.default_rng(21)
    done = 0
    while done < 10:
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sigma = rng.choice([-1.0, 1.0], n)
        x_feas = sigma * rng.uniform(0, 1, n)
        d = rng.standard_normal((k, n))
        e = d @ x_feas - rng.uniform(0.1, 1, k)
        c = sigma * rng.uniform(0.1, 1, n)  # bounded below over the cone
        lp = StandardLp(c, np.zeros((0, n)), [], d, e, sigma)
        # oracle solves the flipped problem with all-nonnegative variables
        flip = sigma < 0
        c2, d2 = c.copy(), d.copy()
        c2[flip] *= -1
        d2[:, flip] *= -1
        res = oracle.simplex_solve(oracle.lp_from_parts(c2, ub_matrix=-d2, ub_rhs=-e))
        if res.status != "optimal":
            continue
        x = res.x.copy()
        x[flip] *= -1
        mu = -res.dual_ub
        nu = sigma * (c - d.T @ mu)
        assert kkt_check(lp, x, np.zeros(0), mu, nu)
        done += 1


def state_for(lp, x):
    active, support = classify(lp, np.asarray(x, dtype=float))
    return AsmState(np.asarray(x, dtype=float), active, support, NONE, NONE)


def test_find_direction_scalar():
    # min -t s.t. t <= 1, t in support, no active rows: xi = 1
    lp = StandardLp(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=[[-1.0]], e=[-1.0], sigma=[1.0])
    st = state_for(lp, [0.5])
    rep = find_direction(lp, st)
    assert rep.consistent
    np.testing.assert_allclose(rep.solution, [1.0], atol=1e-12)
    # with the constraint active the rows contradict: no direction
    st = state_for(lp, [1.0])
    assert len(st.active) == 1
    assert not find_direction(lp, st).consistent


def test_find_direction_postconditions_random():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n, k, m = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(0, 3))
        lp = StandardLp(rng.standard_normal(n), rng.standard_normal((m, n)),
                        rng.standard_normal(m), rng.standard_normal((k, n)),
                        rng.standard_normal(k), rng.choice([-1.0, 1.0], n))
        st = AsmState(np.zeros(n), rng.choice(k, size=1),
                      np.sort(rng.choice(n, size=min(3, n), replace=False)), NONE, NONE)
        rep = find_direction(lp, st)
        if rep.consistent:
            xi = rep.solution
            assert lp.c @ xi == pytest.approx(-1.0, abs=1e-8)
            if m:
                assert np.max(np.abs(lp.A_eq @ xi)) <= 1e-8
            assert np.max(np.abs(lp.D[st.active] @ xi), initial=0.0) <= 1e-8
            assert np.max(np.abs(xi[complement(st.support, n)]), initial=0.0) == 0.0


def test_step_size_support_hits_zero():
    lp = StandardLp(c=[1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=np.zeros((0, 1)), e=[], sigma=[1.0])
    st = state_for(lp, [1.0])
    alpha, new_active, leaving = step_size(lp, st, np.array([-1.0]))
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert leaving.tolist() == [0]
    assert len(new_active) == 0


def test_step_size_upper_bound_blocks():
    # x <= 2 encoded as -x >= -2; from x = 0.5 along xi = 1 the bound blocks at 1.5
    lp = StandardLp(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=[[-1.0]], e=[-2.0], sigma=[1.0])
    st = state_for(lp, [0.5])
    alpha, new_active, leaving = step_size(lp, st, np.array([1.0]))
    assert alpha == pytest.approx(1.5, abs=1e-12)
    assert new_active.tolist() == [0]
    assert len(leaving) == 0


def test_step_size_tie_returns_both():
    # two symmetric bounds x1 <= 1 and x2 <= 1 hit together along (1, 1)
    lp = StandardLp(c=[-1.0, -1.0], A_eq=np.zeros((0, 2)), b_eq=[],
                    D=[[-1.0, 0.0], [0.0, -1.0]], e=[-1.0, -1.0],
                    sigma=[1.0, 1.0])
    st = state_for(lp, [0.0, 0.0])
    st = AsmState(st.x, st.active, np.array([0, 1]), NONE, NONE)
    alpha, new_active, _ = step_size(lp, st, np.array([1.0, 1.0]))
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert new_active.tolist() == [0, 1]


def test_step_size_unbounded_error():
    lp = StandardLp(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=np.zeros((0, 1)), e=[], sigma=[1.0])
    st = state_for(lp, [1.0])
    with pytest.raises(UnboundedDirectionError):
        step_size(lp, st, np.array([1.0]))


def test_multipliers_at_origin():
    # min x s.t. x >= 0 at x = 0: nu = sigma * c = 1, optimal
    lp = StandardLp(c=[1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=np.zeros((0, 1)), e=[], sigma=[1.0])
    st = state_for(lp, [0.0])
    mult = multipliers(lp, st)
    np.testing.assert_allclose(mult.nu_inactive, [1.0], atol=1e-12)


def test_multipliers_single_active_bound():
    # min -x s.t. x <= 1 at x = 1: mu = 1
    lp = StandardLp(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=[[-1.0]], e=[-1.0], sigma=[1.0])
    st = state_for(lp, [1.0])
    mult = multipliers(lp, st)
    np.testing.assert_allclose(mult.mu_active, [1.0], atol=1e-12)


def test_asm_solve_facet_example():
    lp = StandardLp(c=[1.0, 1.0], A_eq=np.zeros((0, 2)), b_eq=[],
                    D=[[1.0, 1.0]], e=[1.0], sigma=[1.0, 1.0])
    x, st, mult = asm_solve(lp, [1.0, 0.0])
    assert lp.c @ x == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(mult.mu_active, [1.0], atol=1e-10)
    lam, mu, nu = mult.expand(lp, st)
    assert kkt_check(lp, x, lam, mu, nu)


def test_asm_solve_rejects_infeasible_start():
    lp = StandardLp(c=[1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=[[1.0]], e=[1.0], sigma=[1.0])
    with pytest.raises(ValueError):
        asm_solve(lp, [0.0])


def random_bounded_lp(rng):
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, 9))
    m = int(rng.integers(0, 5))
    sigma = rng.choice([-1.0, 1.0], n)
    x_feas = sigma * rng.uniform(0, 1, n) * (rng.random(n) < 0.7)
    a_eq = rng.standard_normal((m, n))
    d = rng.standard_normal((k, n))
    lp = StandardLp(rng.standard_normal(n), a_eq, a_eq @ x_feas,
                    d, d @ x_feas - rng.uniform(0, 1, k) * (rng.random(k) < 0.8),
                    sigma)
    return lp, x_feas


def oracle_value(lp):
    flip = lp.sigma < 0
    c2, ae2, d2 = lp.c.copy(), lp.A_eq.copy(), lp.D.copy()
    c2[flip] *= -1
    ae2[:, flip] *= -1
    d2[:, flip] *= -1
    glp = oracle.GeneralLp(c2, ae2, lp.b_eq, -d2, -lp.e, np.zeros(lp.n))
    return oracle.simplex_solve(glp)


def test_asm_solve_matches_oracle_on_random_lps():
    rng = np.random.default_rng(23)
    done = 0
    while done < 50:
        lp, x_feas = random_bounded_lp(rng)
        res = oracle_value(lp)
        if res.status != "optimal":
            continue
        objs = []

        def record(rec, lp=lp):
            objs.append(rec[4])

        x, st, mult = asm_solve(lp, x_feas, trace=record)
        assert abs(lp.c @ x - res.value) <= 1e-7 * (1 + abs(res.value))
        lam, mu, nu = mult.expand(lp, st)
        assert kkt_check(lp, x, lam, mu, nu)
        # objective never increases along the iterates
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        done += 1


def test_asm_iterates_stay_feasible():
    rng = np.random.default_rng(24)
    done = 0
    while done < 15:
        lp, x_feas = random_bounded_lp(rng)
        if oracle_value(lp).status != "optimal":
            continue
        seen = []

        def snap(rec):
            seen.append(rec)

        x, st, _ = asm_solve(lp, x_feas, trace=snap)
        assert check_feasible(lp, x)
        if not np.allclose(x, x_feas):
            assert seen, "trace hook should fire whenever steps are taken"
        done += 1


def test_asm_warm_direction_input():
    # warm direction pointing at the optimum is accepted and used
    lp = StandardLp(c=[-1.0], A_eq=np.zeros((0, 1)), b_eq=[],
                    D=[[-1.0]], e=[-1.0], sigma=[1.0])
    x, st, mult = asm_solve(lp, [0.5], xi0=np.array([1.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_relaxed_constraint_direction_property():
    # after a multiplier round removes row i, the next direction moves
    # strictly off that constraint: D_i . xi = -1/mu_i > 0
    lp = StandardLp(c=[-1.0, 0.0], A_eq=np.zeros((0, 2)), b_eq=[],
                    D=[[-1.0, -1.0], [0.0, -1.0]], e=[-2.0, -1.0],
                    sigma=[1.0, 1.0])
    st = state_for(lp, [1.0, 1.0])
    assert st.active.tolist() == [0, 1]
    assert not find_direction(lp, st).consistent
    mult = multipliers(lp, st)
    assert mult.mu_active[1] == pytest.approx(-1.0, abs=1e-10)
    st.active = np.setdiff1d(st.active, [1])
    rep = find_direction(lp, st)
    assert rep.consistent
    assert lp.D[1] @ rep.solution == pytest.approx(1.0, abs=1e-9)
