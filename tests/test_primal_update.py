import dataclasses
import struct

import numpy as np
import pytest

import l1linf.primal_update as primal_module
from l1linf import oracle, solve_path
from l1linf.active_set import SUPPORT_TOL
from l1linf.homotopy import ProblemInstance
from l1linf.primal_update import (PrimalContext, primal_direction,
                                  primal_multipliers, primal_step,
                                  primal_update)
from reference_lp import asm_solve, general_form, index_mask, primal_lp_encoding
from test_homotopy import (PRODUCT_RTOL, pinned_dantzig, pinned_gaussian, pinned_small,
                          subproblem_contexts)

NONE = np.empty(0, dtype=np.intp)
ZERO = np.array([0])
ON, OFF = np.array([True]), np.array([False])


def entering_pairs(rows, sides):
    """primal_step's entering rows, an int array, and their bound sides, a
    +-1 array of the same length, as a list of (row, side) pairs."""
    assert rows.dtype.kind == "i" and rows.shape == sides.shape
    assert set(sides.tolist()) <= {1.0, -1.0}
    return list(zip(rows.tolist(), sides.tolist()))


def primal_step_sets(ctx, d, tau, I_P, J_P, col_sign):
    """primal_step from the context's start point, on its carried
    A x_start - b, with the entering rows as (row, side) pairs and the
    leaving columns as a list, so that whole results compare with ==."""
    alpha, hit, rows, sides, leaving = primal_step(ctx, d, ctx.x_start, tau, I_P, J_P,
                                                   col_sign, ctx.resid_start, ctx.A @ d)
    return alpha, hit, entering_pairs(rows, sides), leaving.tolist()


def scalar_ctx(delta_target=0.0):
    # A = [1], b = (2), x = 0, fresh certificate y = -1, delta_k = 2
    return PrimalContext(np.array([[1.0]]), 2.0, delta_target, np.zeros(1),
                         I_P=ON, J_P=OFF, I_D=ON, J_D=ON,
                         residual_signs=np.array([-1.0]), col_y=np.array([-1.0]),
                         resid_start=np.array([-2.0]))


def test_primal_direction_scalar():
    ctx = scalar_ctx()
    rep = primal_direction(ctx, ZERO, ZERO, np.array([-1.0]))
    assert rep.consistent
    np.testing.assert_allclose(rep.solution, [1.0], atol=1e-12)


def test_primal_direction_overdetermined_inconsistent():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 6))
    ctx = PrimalContext(a, 1.0, 0.0, np.zeros(6),
                        index_mask(4, [0, 1, 2]), index_mask(6, ZERO), index_mask(4, NONE),
                        index_mask(6, ZERO),
                        residual_signs=np.array([1.0, 1.0, -1.0, 0.0]), col_y=np.zeros(6),
                        resid_start=np.zeros(4))
    rep = primal_direction(ctx, np.array([0, 1, 2]), ZERO, ctx.residual_signs)
    assert not rep.consistent


def test_primal_multipliers_scalar_terminal():
    # with the one column outside the support, the row's sign system gives
    # e_hat = -1 and A^T e_hat = -1: the column's nu = -1 asks it in
    ctx = scalar_ctx()
    report = primal_direction(ctx, ZERO, NONE, ctx.residual_signs)
    assert not report.consistent
    e_hat, col_e_hat, mu, nu = primal_multipliers(ctx, ZERO, NONE, ZERO,
                                                  ctx.residual_signs,
                                                  np.sign(ctx.col_y), report)
    np.testing.assert_allclose(e_hat, [-1.0], atol=1e-12)
    np.testing.assert_allclose(col_e_hat, ctx.A.T @ e_hat, atol=1e-12)
    assert mu.size == 0
    np.testing.assert_allclose(nu, [-1.0], atol=1e-12)


def test_primal_direction_substitution_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m, n = 6, 9
        a = rng.standard_normal((m, n))
        i_p = np.sort(rng.choice(m, size=3, replace=False))
        j_p = np.sort(rng.choice(n, size=3, replace=False))
        signs = np.zeros(m)
        signs[i_p] = rng.choice([-1.0, 1.0], len(i_p))
        ctx = PrimalContext(a, 1.0, 0.0, np.zeros(n),
                            index_mask(m, i_p), index_mask(n, j_p), index_mask(m, NONE),
                            index_mask(n, j_p), residual_signs=signs, col_y=np.zeros(n),
                            resid_start=np.zeros(m))
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
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, 0.0, ZERO, ZERO, col_sign)
    assert hit and alpha == pytest.approx(2.0, abs=1e-12)
    assert not new_rows and len(leaving) == 0


def test_primal_step_identity_second_row_ratios():
    # A = I2, b = (3, -0.5), delta_k = 3, target 1: row 2 ratios are 3.5 and
    # 2.5, the target gap 2 is smaller, so the run stops at the target
    a = np.eye(2)
    ctx = PrimalContext(a, 3.0, 1.0, np.zeros(2),
                        I_P=index_mask(2, ZERO), J_P=index_mask(2, NONE),
                        I_D=index_mask(2, ZERO), J_D=index_mask(2, ZERO),
                        residual_signs=np.array([-1.0, 0.0]), col_y=np.array([-1.0, 0.0]),
                        resid_start=np.array([-3.0, 0.5]))
    d = np.array([1.0, 0.0])
    col_sign = np.array([-1.0, 0.0])
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, 0.0, ZERO, ZERO, col_sign)
    assert hit and alpha == pytest.approx(2.0, abs=1e-12)


def test_primal_step_blocking_tie_adds_all_rows():
    # two further rows become tight at the same step length
    a = np.array([[1.0], [1.0], [1.0]])
    b = np.array([2.0, 1.0, 1.0])
    ctx = PrimalContext(a, 2.0, 0.0, np.zeros(1),
                        I_P=index_mask(3, ZERO), J_P=OFF, I_D=index_mask(3, ZERO), J_D=ON,
                        residual_signs=np.array([-1.0, 0.0, 0.0]), col_y=np.array([-1.0]),
                        resid_start=-b)
    d = np.array([1.0])
    col_sign = np.array([-1.0])
    alpha, hit, new_rows, leaving = primal_step_sets(ctx, d, 0.0, ZERO, ZERO, col_sign)
    # rows 1 and 2 start at residual -1 and tie at the upper bound
    assert not hit
    assert sorted(i for i, _ in new_rows) == [1, 2]
    # upper-bound ratio for rows 1, 2: (bound - r)/(a.d + 1) = (2+1)/2 = 1.5
    assert alpha == pytest.approx(1.5, abs=1e-12)


def test_primal_update_scalar_full_and_partial():
    res = primal_update(scalar_ctx(delta_target=0.0))
    np.testing.assert_allclose(res.x, [2.0], atol=1e-10)
    assert res.t == pytest.approx(2.0, abs=1e-12)
    assert res.warm is None

    res = primal_update(scalar_ctx(delta_target=0.5))
    np.testing.assert_allclose(res.x, [1.5], atol=1e-10)
    assert res.t == pytest.approx(1.5, abs=1e-12)


def capture_primal_contexts(count, seed):
    """(context, b, y) for the first count primal contexts of random paths,
    y the certificate of the dual update before each."""
    rng = np.random.default_rng(seed)
    captured = []
    while len(captured) < count:
        m = int(rng.integers(4, 11))
        b = rng.standard_normal(m) * 2
        inst = ProblemInstance(rng.standard_normal((m, 2 * m)), b,
                               float(rng.uniform(0.05, 0.9)) * np.max(np.abs(b)))
        captured.extend((c, inst.b, y) for k, c, _, y in subproblem_contexts(inst)
                        if k == "primal")
    return captured[:count]


def test_primal_update_strict_progress():
    for ctx, b, _ in capture_primal_contexts(25, seed=43):
        res = primal_update(ctx)
        assert res.t > 1e-12
        assert res.t <= ctx.delta_k - ctx.delta_target + 1e-12
        # feasibility of the result at the shrunk bound
        resid = ctx.A @ res.x - b
        assert np.max(np.abs(resid)) <= ctx.delta_k - res.t + 1e-8


def test_primal_update_multiplier_certificate():
    for ctx, _, _ in capture_primal_contexts(15, seed=44):
        res = primal_update(ctx)
        if res.warm is None:
            continue
        e_hat = res.warm[0]
        rows = res.I_P
        # the returned e_hat solves its defining system
        assert np.max(np.abs(ctx.A[rows][:, res.J_P].T @ e_hat[rows]),
                      initial=0.0) <= 1e-9
        # e_hat lives on the final active rows
        assert not np.count_nonzero(e_hat[~res.I_P])


def test_primal_update_matches_generic_and_oracle():
    for ctx, b, y in capture_primal_contexts(12, seed=45):
        res = primal_update(ctx)
        lp, z0 = primal_lp_encoding(ctx, b, y)
        z_star, _ = asm_solve(lp, z0)
        assert abs(float(lp.c @ z_star) - (-res.t)) <= 1e-8 * (1 + abs(res.t))
        simplex = oracle.simplex_solve(general_form(lp))
        assert simplex.status == "optimal"
        assert abs(simplex.value - (-res.t)) <= 1e-7 * (1 + abs(res.t))


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("family, least_rows", [
    ("pinned_gaussian", 850), ("pinned_small", 70), ("pinned_dantzig", 230),
    ("half_integer_draws", 3500),
])
def test_the_signs_handed_over_on_the_dual_support_are_the_signs_of_y(family, least_rows,
                                                                      warm):
    # the dual keeps s_i y_i >= 0 on I_P through its ratio test, so on the
    # rows of I_D with |y_i| > SUPPORT_TOL the residual signs that a primal
    # update is handed already equal sign(y_i), and the primal face takes
    # them as they stand; checked on every breakpoint, least_rows bounds
    # the count of rows checked so that the check is not vacuous
    from test_path_fingerprint import path_fingerprint
    instances = {"pinned_gaussian": lambda: [pinned_gaussian()],
                 "pinned_small": lambda: [pinned_small()],
                 "pinned_dantzig": lambda: [pinned_dantzig()],
                 "half_integer_draws": path_fingerprint.half_integer_draws}[family]()
    rows = 0
    for inst in instances:
        for kind, ctx, _, y in subproblem_contexts(inst, use_warm_starts=warm):
            if kind == "primal":
                held = ctx.I_D & (np.abs(y) > SUPPORT_TOL)
                np.testing.assert_array_equal(ctx.residual_signs[held], np.sign(y[held]))
                rows += np.count_nonzero(held)
    assert rows >= least_rows, rows


def test_primal_update_rejects_bad_target():
    ctx = scalar_ctx()
    ctx.delta_target = 3.0
    with pytest.raises(ValueError):
        primal_update(ctx)


def test_primal_update_intermediate_iterates_feasible():
    for ctx, b, y in capture_primal_contexts(8, seed=46):
        recs = []
        res = primal_update(ctx, trace=lambda rec: recs.append((rec[5], rec[6])))
        for tau, xi in recs:
            assert tau <= ctx.delta_k - ctx.delta_target + 1e-8
            bound = ctx.delta_k - tau
            assert np.max(np.abs(ctx.A @ xi - b)) <= bound + 1e-8
            # sign constraint on the dual active columns: (A_j.y) x_j <= 0
            cols = ctx.J_D
            prods = (ctx.A[:, cols].T @ y) * xi[cols]
            assert np.max(prods, initial=0.0) <= 1e-8


def test_primal_update_final_bound_tightness():
    for ctx, b, _ in capture_primal_contexts(10, seed=47):
        res = primal_update(ctx)
        resid_norm = float(np.max(np.abs(ctx.A @ res.x - b)))
        if res.warm is None:    # stopped at the target bound
            assert resid_norm <= ctx.delta_target + 1e-8
        else:
            assert abs(resid_norm - (ctx.delta_k - res.t)) <= 1e-8


def loop_primal_step(ctx, d, xi, tau, I_P, J_P, col_sign, resid, a_d=None):
    """Reference: the per-row and per-column loop form of primal_step, on
    the given A xi - b, and on the given A d or, by default, a fresh one."""
    from l1linf.active_set import NONZERO_TOL, TIE_RTOL, ZERO_STEP_TOL
    from l1linf.primal_update import DEN_TOL
    bound = ctx.delta_k - tau
    gap = max(bound - ctx.delta_target, 0.0)
    a_d = ctx.A @ d if a_d is None else a_d
    ratios_rows = []
    for i in np.delete(np.arange(ctx.A.shape[0]), I_P):
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
        ctx = PrimalContext(a, delta_k, float(rng.integers(-8, 1)),
                            xi, I_P=index_mask(m, i_p), J_P=index_mask(n, j_p),
                            I_D=index_mask(m, NONE), J_D=index_mask(n, j_d),
                            residual_signs=np.zeros(m), col_y=np.zeros(n),
                            resid_start=a @ xi - b)
        try:
            expected = loop_primal_step(ctx, d, xi, tau, i_p, j_p, col_sign,
                                        ctx.resid_start)
        except UnboundedDirectionError:
            with pytest.raises(UnboundedDirectionError):
                primal_step_sets(ctx, d, tau, i_p, j_p, col_sign)
            continue
        got = primal_step_sets(ctx, d, tau, i_p, j_p, col_sign)
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
        alpha, hit, rows, sides, leaving = primal_step(*args)
        ref = loop_primal_step(*args)
        assert struct.pack("<d", alpha) == struct.pack("<d", ref[0])
        assert (hit, entering_pairs(rows, sides), leaving.tolist()) == ref[1:]


def test_warm_direction_must_be_zero_off_the_dual_active_columns():
    # A d of the warm direction reads the columns of J_D only
    ctx = next(c for kind, c, _, _ in subproblem_contexts(pinned_gaussian())
               if kind == "primal" and c.warm is not None
               and np.count_nonzero(~c.J_D))
    primal_update(ctx)
    d_hat, a_d_hat = ctx.warm
    d_hat = d_hat.copy()
    d_hat[(~ctx.J_D).nonzero()[0][0]] = 1e-12
    ctx.warm = d_hat, a_d_hat
    with pytest.raises(ValueError, match="primal warm direction has mass"):
        primal_update(ctx)


def test_a_start_entry_off_the_dual_active_columns_leaves_through_zero():
    # x_start may hold entries up to SUPPORT_TOL off J_D: the update zeroes
    # them through the face's zero, so its carried A x - b stays A x - b; a
    # larger entry there is refused
    inst = pinned_gaussian()
    ctx = next(c for kind, c, _, _ in subproblem_contexts(inst)
               if kind == "primal" and c.warm is not None
               and np.count_nonzero(~c.J_D))
    col = (~ctx.J_D).nonzero()[0][0]
    for mass in (0.5 * SUPPORT_TOL, 2.0 * SUPPORT_TOL):
        x_start = ctx.x_start.copy()
        x_start[col] = mass
        planted = dataclasses.replace(ctx, x_start=x_start,
                                      resid_start=ctx.A @ x_start - inst.b)
        if mass > SUPPORT_TOL:
            with pytest.raises(ValueError, match="primal start point has mass"):
                primal_update(planted)
            continue
        res = primal_update(planted)
        assert res.x[col] == 0.0
        scale = (np.abs(ctx.A) @ np.abs(res.x) + np.abs(inst.b)).max()
        assert np.abs(res.resid - (ctx.A @ res.x - inst.b)).max() <= PRODUCT_RTOL * scale
