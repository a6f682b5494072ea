import struct

import numpy as np
import pytest

import l1linf.primal_update as primal_module
from l1linf import oracle, solve_path
from l1linf.active_set import index_mask
from l1linf.asm import asm_solve
from l1linf.encodings import general_form, primal_lp_encoding
from l1linf.homotopy import ProblemInstance
from l1linf.primal_update import (PrimalContext, primal_direction,
                                  primal_multipliers, primal_step,
                                  primal_update)
from test_homotopy import pinned_gaussian, subproblem_contexts

NONE = np.empty(0, dtype=np.intp)
ZERO = np.array([0])
ON, OFF = np.array([True]), np.array([False])


def primal_step_sets(ctx, d, xi, tau, I_P, J_P, col_sign):
    """primal_step with the leaving columns returned as a list, so that
    whole results compare with ==."""
    alpha, hit, new_rows, leaving = primal_step(ctx, d, xi, tau, I_P, J_P, col_sign,
                                                ctx.A @ xi - ctx.b, ctx.A @ d)
    return alpha, hit, new_rows, leaving.tolist()


def scalar_ctx(delta_target=0.0):
    # A = [1], b = (2), x = 0, fresh certificate y = -1, delta_k = 2
    return PrimalContext(np.array([[1.0]]), np.array([2.0]), np.array([-1.0]),
                         2.0, delta_target, np.zeros(1),
                         I_P=ON, J_P=OFF, I_D=ON, J_D=ON,
                         residual_signs=np.array([-1.0]), col_y=np.array([-1.0]))


def test_primal_direction_scalar():
    ctx = scalar_ctx()
    rep = primal_direction(ctx, ZERO, ZERO, np.array([-1.0]))
    assert rep.consistent
    np.testing.assert_allclose(rep.solution, [1.0], atol=1e-12)


def test_primal_direction_overdetermined_inconsistent():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 6))
    ctx = PrimalContext(a, np.zeros(4), np.zeros(4), 1.0, 0.0, np.zeros(6),
                        index_mask(4, [0, 1, 2]), index_mask(6, ZERO), index_mask(4, NONE),
                        index_mask(6, ZERO),
                        residual_signs=np.array([1.0, 1.0, -1.0, 0.0]), col_y=np.zeros(6))
    rep = primal_direction(ctx, np.array([0, 1, 2]), ZERO, ctx.residual_signs)
    assert not rep.consistent


def test_primal_direction_substitution_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m, n = 6, 9
        a = rng.standard_normal((m, n))
        i_p = np.sort(rng.choice(m, size=3, replace=False))
        j_p = np.sort(rng.choice(n, size=3, replace=False))
        signs = np.zeros(m)
        signs[i_p] = rng.choice([-1.0, 1.0], len(i_p))
        ctx = PrimalContext(a, np.zeros(m), np.zeros(n), 1.0, 0.0, np.zeros(n),
                            index_mask(m, i_p), index_mask(n, j_p), index_mask(m, NONE),
                            index_mask(n, j_p), residual_signs=signs, col_y=np.zeros(n))
        rep = primal_direction(ctx, i_p, j_p, signs)
        if rep.consistent:
            d = rep.solution
            for i in i_p:
                assert a[i] @ d == pytest.approx(-signs[i], abs=1e-9)


def test_primal_step_reaches_target():
    # nothing blocks: alpha = delta_k - tau - delta = 2 and the run stops
    ctx = scalar_ctx(delta_target=0.0)
    d = np.array([1.0])
    col_sign = np.array([-1.0])
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, np.zeros(1), 0.0,
                                                     ZERO, ZERO, col_sign)
    assert hit and alpha == pytest.approx(2.0, abs=1e-12)
    assert not new_rows and len(leaving) == 0


def test_primal_step_identity_second_row_ratios():
    # A = I2, b = (3, -0.5), delta_k = 3, target 1: row 2 ratios are 3.5 and
    # 2.5, the target gap 2 is smaller, so the run stops at the target
    a = np.eye(2)
    ctx = PrimalContext(a, np.array([3.0, -0.5]), np.array([-1.0, 0.0]),
                        3.0, 1.0, np.zeros(2),
                        I_P=index_mask(2, ZERO), J_P=index_mask(2, NONE),
                        I_D=index_mask(2, ZERO), J_D=index_mask(2, ZERO),
                        residual_signs=np.array([-1.0, 0.0]), col_y=np.array([-1.0, 0.0]))
    d = np.array([1.0, 0.0])
    col_sign = np.array([-1.0, 0.0])
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, np.zeros(2), 0.0,
                                                     ZERO, ZERO, col_sign)
    assert hit and alpha == pytest.approx(2.0, abs=1e-12)


def test_primal_step_blocking_tie_adds_all_rows():
    # two further rows become tight at the same step length
    a = np.array([[1.0], [1.0], [1.0]])
    b = np.array([2.0, 1.0, 1.0])
    ctx = PrimalContext(a, b, np.array([-1.0, 0.0, 0.0]), 2.0, 0.0,
                        np.zeros(1),
                        I_P=index_mask(3, ZERO), J_P=OFF, I_D=index_mask(3, ZERO), J_D=ON,
                        residual_signs=np.array([-1.0, 0.0, 0.0]), col_y=np.array([-1.0]))
    d = np.array([1.0])
    col_sign = np.array([-1.0])
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, np.zeros(1), 0.0,
                                                     ZERO, ZERO, col_sign)
    # rows 1 and 2 start at residual -1 and tie at the upper bound
    assert not hit
    assert sorted(i for i, _ in new_rows) == [1, 2]
    # upper-bound ratio for rows 1, 2: (bound - r)/(a.d + 1) = (2+1)/2 = 1.5
    assert alpha == pytest.approx(1.5, abs=1e-12)


def test_primal_update_scalar_full_and_partial():
    res = primal_update(scalar_ctx(delta_target=0.0))
    assert res.reached_target
    np.testing.assert_allclose(res.x, [2.0], atol=1e-10)
    assert res.t == pytest.approx(2.0, abs=1e-12)
    assert res.e_hat is None

    res = primal_update(scalar_ctx(delta_target=0.5))
    np.testing.assert_allclose(res.x, [1.5], atol=1e-10)
    assert res.t == pytest.approx(1.5, abs=1e-12)


def capture_primal_contexts(count, seed):
    rng = np.random.default_rng(seed)
    captured = []
    while len(captured) < count:
        m = int(rng.integers(4, 11))
        b = rng.standard_normal(m) * 2
        inst = ProblemInstance(rng.standard_normal((m, 2 * m)), b,
                               float(rng.uniform(0.05, 0.9)) * np.max(np.abs(b)))
        captured.extend(c for k, c in subproblem_contexts(inst) if k == "primal")
    return captured[:count]


def test_primal_update_strict_progress():
    for ctx in capture_primal_contexts(25, seed=43):
        res = primal_update(ctx)
        assert res.t > 1e-12
        assert res.t <= ctx.delta_k - ctx.delta_target + 1e-12
        # feasibility of the result at the shrunk bound
        resid = ctx.A @ res.x - ctx.b
        assert np.max(np.abs(resid)) <= ctx.delta_k - res.t + 1e-8


def test_primal_update_multiplier_certificate():
    for ctx in capture_primal_contexts(15, seed=44):
        res = primal_update(ctx)
        if res.e_hat is None:
            continue
        rows = res.I_P
        # the returned e_hat solves its defining system
        assert np.max(np.abs(ctx.A[rows][:, res.J_P].T @ res.e_hat[rows]),
                      initial=0.0) <= 1e-9
        # e_hat lives on the final active rows
        assert not np.count_nonzero(res.e_hat[~res.I_P])


def test_primal_update_matches_generic_and_oracle():
    for ctx in capture_primal_contexts(12, seed=45):
        res = primal_update(ctx)
        lp, z0 = primal_lp_encoding(ctx)
        z_star, _ = asm_solve(lp, z0)
        assert abs(float(lp.c @ z_star) - (-res.t)) <= 1e-8 * (1 + abs(res.t))
        simplex = oracle.simplex_solve(general_form(lp))
        assert simplex.status == "optimal"
        assert abs(simplex.value - (-res.t)) <= 1e-7 * (1 + abs(res.t))


def test_primal_update_rejects_bad_target():
    ctx = scalar_ctx()
    ctx.delta_target = 3.0
    with pytest.raises(ValueError):
        primal_update(ctx)


def test_primal_update_intermediate_iterates_feasible():
    for ctx in capture_primal_contexts(8, seed=46):
        recs = []
        res = primal_update(ctx, trace=lambda rec: recs.append((rec[5], rec[6])))
        for tau, xi in recs:
            assert tau <= ctx.delta_k - ctx.delta_target + 1e-8
            bound = ctx.delta_k - tau
            assert np.max(np.abs(ctx.A @ xi - ctx.b)) <= bound + 1e-8
            # sign constraint on the dual active columns: (A_j.y) x_j <= 0
            cols = ctx.J_D
            prods = (ctx.A[:, cols].T @ ctx.y_next) * xi[cols]
            assert np.max(prods, initial=0.0) <= 1e-8


def test_primal_update_final_bound_tightness():
    for ctx in capture_primal_contexts(10, seed=47):
        res = primal_update(ctx)
        resid_norm = float(np.max(np.abs(ctx.A @ res.x - ctx.b)))
        if res.reached_target:
            assert resid_norm <= ctx.delta_target + 1e-8
        else:
            assert abs(resid_norm - (ctx.delta_k - res.t)) <= 1e-8


def loop_primal_step(ctx, d, xi, tau, I_P, J_P, col_sign, resid=None, a_d=None):
    """Reference: the per-row and per-column loop form of primal_step, on
    the given A xi - b and A d or, by default, on fresh products."""
    from l1linf.active_set import NONZERO_TOL, TIE_RTOL, ZERO_STEP_TOL
    from l1linf.primal_update import DEN_TOL
    bound = ctx.delta_k - tau
    gap = max(bound - ctx.delta_target, 0.0)
    resid = ctx.A @ xi - ctx.b if resid is None else resid
    a_d = ctx.A @ d if a_d is None else a_d
    ratios_rows = []
    for i in np.delete(np.arange(ctx.m), I_P):
        up_den = a_d[i] + 1.0
        if up_den > DEN_TOL:
            ratios_rows.append((max((bound - resid[i]) / up_den, 0.0), i, 1.0))
        dn_den = 1.0 - a_d[i]
        if dn_den > DEN_TOL:
            ratios_rows.append((max((bound + resid[i]) / dn_den, 0.0), i, -1.0))
    ratios_cols = []
    for j in J_P:
        if abs(col_sign[j]) <= NONZERO_TOL:
            continue
        if col_sign[j] * d[j] > ZERO_STEP_TOL:
            ratios_cols.append((max(-xi[j] / d[j], 0.0), j))
    blocking = min((r for r, *_ in ratios_rows + ratios_cols), default=np.inf)
    if gap <= blocking * (1.0 + TIE_RTOL) + ZERO_STEP_TOL:
        return gap, True, [], []
    if not np.isfinite(blocking):
        raise UnboundedDirectionError("unblocked")
    width = blocking + TIE_RTOL * (1.0 + blocking)
    new_rows, seen = [], set()
    for r, i, side in ratios_rows:
        if r <= width and i not in seen:
            new_rows.append((i, side))
            seen.add(i)
    leaving = [j for r, j in ratios_cols if r <= width]
    return blocking, False, new_rows, leaving


def test_primal_step_matches_loop_reference_with_exact_ties():
    # small-integer data on a half-integer grid: many ratios tie exactly,
    # and rows with a.d = 0 and zero residual tie with themselves on both sides
    rng = np.random.default_rng(48)
    row_ties = both_sides = 0
    for _ in range(300):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        a = rng.integers(-1, 2, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m) / 2.0
        j_d = (rng.random(n) < 0.7).nonzero()[0]
        j_p = ((rng.random(n) < 0.7) & np.isin(np.arange(n), j_d)).nonzero()[0]
        i_p = (rng.random(m) < 0.4).nonzero()[0]
        xi = np.zeros(n)
        xi[j_p] = rng.integers(-2, 3, len(j_p)) / 2.0
        d = np.zeros(n)
        d[j_p] = rng.integers(-2, 3, len(j_p)) / 2.0
        col_sign = np.zeros(n)
        col_sign[j_d] = rng.choice([-1.0, 0.0, 1.0], len(j_d))
        delta_k = float(np.max(np.abs(a @ xi - b))) + float(rng.integers(0, 3)) / 2.0
        tau = float(rng.integers(0, 2)) / 4.0
        ctx = PrimalContext(a, b, np.zeros(m), delta_k, float(rng.integers(-8, 1)),
                            xi, I_P=index_mask(m, i_p), J_P=index_mask(n, j_p),
                            I_D=index_mask(m, NONE), J_D=index_mask(n, j_d),
                            residual_signs=np.zeros(m), col_y=np.zeros(n))
        try:
            expected = loop_primal_step(ctx, d, xi, tau, i_p, j_p, col_sign)
        except UnboundedDirectionError:
            with pytest.raises(UnboundedDirectionError):
                primal_step_sets(ctx, d, xi, tau, i_p, j_p, col_sign)
            continue
        got = primal_step_sets(ctx, d, xi, tau, i_p, j_p, col_sign)
        assert got == expected
        new_rows = got[2]
        row_ties += len(new_rows) > 1
        a_d, resid = a @ d, a @ xi - b
        both_sides += any(a_d[i] == 0.0 and resid[i] == 0.0 for i, _ in new_rows)
    assert row_ties > 20 and both_sides > 5


def test_primal_step_matches_loop_reference_on_a_path(monkeypatch):
    # every ratio test of the pinned path, replayed on its carried A xi - b
    # and A d: the same alpha to the bit and the same sets as the loop
    calls = []

    def capture(ctx, d, xi, tau, I_P, J_P, col_sign, resid, a_d):
        calls.append((ctx, d.copy(), xi.copy(), tau, I_P, J_P, col_sign.copy(),
                      resid.copy(), a_d.copy()))
        return primal_step(ctx, d, xi, tau, I_P, J_P, col_sign, resid, a_d)
    monkeypatch.setattr(primal_module, "primal_step", capture)
    assert solve_path(pinned_gaussian()).terminated == "target-reached"
    assert len(calls) > 50
    for args in calls:
        alpha, hit, new_rows, leaving = primal_step(*args)
        ref = loop_primal_step(*args)
        assert struct.pack("<d", alpha) == struct.pack("<d", ref[0])
        assert (hit, new_rows, leaving.tolist()) == ref[1:]
