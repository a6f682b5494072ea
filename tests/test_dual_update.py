import struct

import numpy as np
import pytest

import l1linf.dual_update as dual_module
from l1linf import oracle, solve_path
from l1linf.active_set import TIE_RTOL, ZERO_STEP_TOL, UnboundedDirectionError, index_mask
from l1linf.asm import asm_solve
from l1linf.dual_update import (DualContext, dual_direction, dual_multipliers,
                                dual_step, dual_update)
from l1linf.encodings import dual_lp_encoding, general_form
from l1linf.homotopy import ProblemInstance
from test_homotopy import pinned_gaussian, subproblem_contexts

NONE = np.empty(0, dtype=np.intp)
ON, OFF = np.array([True]), np.array([False])


def dual_step_sets(ctx, e, psi, I_D, J_D):
    """dual_step with its index arrays returned as lists, so that whole
    results compare with ==."""
    alpha, new_cols, zero_rows = dual_step(ctx, e, psi, I_D, J_D, ctx.A.T @ e,
                                           ctx.A.T @ psi)
    return alpha, new_cols.tolist(), zero_rows.tolist()


def scalar_ctx():
    # A = [1], b = (2), x = 0: one active row with residual sign -1
    signs = np.array([-1.0])
    return DualContext(np.array([[1.0]]), np.array([0.0]), ON, OFF, signs,
                       y_start=np.zeros(1))


def test_dual_direction_scalar():
    ctx = scalar_ctx()
    rep = dual_direction(ctx, np.array([0]), NONE)
    assert rep.consistent
    np.testing.assert_allclose(rep.solution, [-1.0], atol=1e-12)


def test_dual_direction_contradiction():
    # with the single column active, e must be orthogonal to it and still
    # have unit product with the sign: impossible for a 1x1 nonzero matrix
    ctx = scalar_ctx()
    rep = dual_direction(ctx, np.array([0]), np.array([0]))
    assert not rep.consistent


def test_dual_direction_substitution_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n = 6, 9
        a = rng.standard_normal((m, n))
        i_p = np.sort(rng.choice(m, size=4, replace=False))
        i_d = i_p[:3]
        j_d = np.sort(rng.choice(n, size=2, replace=False))
        signs = np.zeros(m)
        signs[i_p] = rng.choice([-1.0, 1.0], len(i_p))
        ctx = DualContext(a, np.zeros(n), index_mask(m, i_p), index_mask(n, NONE), signs,
                          y_start=np.zeros(m))
        rep = dual_direction(ctx, i_d, j_d)
        if rep.consistent:
            e = rep.solution
            assert np.max(np.abs(a[i_d][:, j_d].T @ e[i_d])) <= 1e-9
            assert signs @ e == pytest.approx(1.0, abs=1e-9)


def test_dual_step_scalar_trace():
    # from psi = 0 along e = -1 the first column bound blocks at alpha = 1
    ctx = scalar_ctx()
    e = np.array([-1.0])
    alpha, new_cols, zero_rows = dual_step_sets(ctx, e, np.zeros(1), np.array([0]), NONE)
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert new_cols == [0]
    assert len(zero_rows) == 0


def test_dual_step_unbounded():
    # zero column: nothing blocks a direction with the right sign pattern
    ctx = DualContext(np.array([[0.0]]), np.array([0.0]), ON, OFF,
                      np.array([-1.0]), y_start=np.zeros(1))
    with pytest.raises(UnboundedDirectionError):
        dual_step_sets(ctx, np.array([-1.0]), np.zeros(1), np.array([0]), NONE)


def test_dual_step_tie_applies_both_updates():
    a = np.array([[1.0], [0.0]])
    signs = np.array([1.0, 1.0])
    ctx = DualContext(a, np.zeros(1), np.array([True, True]), OFF, signs,
                      y_start=np.zeros(2))
    psi = np.array([0.5, 0.5])
    e = np.array([0.5, -0.5])
    alpha, new_cols, zero_rows = dual_step_sets(ctx, e, psi, np.array([0, 1]), NONE)
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert new_cols == [0]
    assert zero_rows == [1]


def test_dual_multipliers_scalar_terminal():
    ctx = scalar_ctx()
    i_d, j_d = np.array([0]), np.array([0])
    report = dual_direction(ctx, i_d, j_d)
    assert not report.consistent
    d_hat, mu, nu = dual_multipliers(ctx, ctx.A.T @ np.array([-1.0]), j_d,
                                     np.setdiff1d(j_d, ctx.J_P.nonzero()[0]),
                                     np.setdiff1d(ctx.I_P.nonzero()[0], i_d), report)
    np.testing.assert_allclose(d_hat, [1.0], atol=1e-12)
    # J_P is empty here, so the single active column carries mu = 1 >= 0
    np.testing.assert_allclose(mu, [1.0], atol=1e-12)
    assert nu.size == 0


def test_dual_update_scalar():
    res = dual_update(scalar_ctx())
    np.testing.assert_allclose(res.y, [-1.0], atol=1e-10)
    np.testing.assert_allclose(res.d_hat, [1.0], atol=1e-10)
    assert res.J_D.tolist() == [True] and res.I_D.tolist() == [True]


def test_dual_update_identity_two_rows():
    # A = I2, b = (3, -0.5), x = 0, delta0 = 3: only row 0 is active
    a = np.eye(2)
    signs = np.array([-1.0, 0.0])
    ctx = DualContext(a, np.zeros(2), np.array([True, False]), np.array([False, False]),
                      signs, y_start=np.zeros(2))
    res = dual_update(ctx)
    np.testing.assert_allclose(res.y, [-1.0, 0.0], atol=1e-10)


def capture_contexts(kind, count, seed):
    rng = np.random.default_rng(seed)
    captured = []
    while len(captured) < count:
        m = int(rng.integers(4, 11))
        inst = ProblemInstance(rng.standard_normal((m, 2 * m)),
                               rng.standard_normal(m) * 2,
                               float(rng.uniform(0.1, 0.9)) * 1.0)
        captured.extend(c for k, c in subproblem_contexts(inst) if k == kind)
    return captured[:count]


def test_dual_update_certificate_property():
    # the output is always a certificate for the current x: -A^T y in Sign(x)
    for ctx in capture_contexts("dual", 25, seed=32):
        res = dual_update(ctx)
        g = ctx.A.T @ res.y
        supp = np.abs(ctx.x_k) > 1e-9
        assert np.max(np.abs(g[supp] + np.sign(ctx.x_k[supp])), initial=0.0) <= 1e-8
        assert np.max(np.abs(g)) <= 1 + 1e-8
        # sign compatibility and confinement to the active rows
        assert np.min(res.y * ctx.residual_signs, initial=0.0) >= -1e-8
        assert np.max(np.abs(res.y[~ctx.I_P]), initial=0.0) == 0.0


def test_dual_update_matches_generic_and_oracle():
    for ctx in capture_contexts("dual", 12, seed=33):
        res = dual_update(ctx)
        value = float(-ctx.residual_signs @ res.y)
        lp, psi0 = dual_lp_encoding(ctx)
        x_star, _ = asm_solve(lp, psi0)
        assert abs(float(lp.c @ x_star) - value) <= 1e-8 * (1 + abs(value))
        # independent simplex check on the same encoding
        simplex = oracle.simplex_solve(general_form(lp))
        assert simplex.status == "optimal"
        assert abs(simplex.value - value) <= 1e-7 * (1 + abs(value))


def test_dual_update_objective_monotone():
    for ctx in capture_contexts("dual", 8, seed=34):
        objs = []
        dual_update(ctx, trace=lambda rec: objs.append(rec[5]))
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


def test_dual_update_intermediate_iterates_feasible():
    for ctx in capture_contexts("dual", 8, seed=35):
        iterates = []
        res = dual_update(ctx, trace=lambda rec: iterates.append(rec[6]))
        jp = ctx.J_P
        for psi in iterates + [res.y]:
            g = ctx.A.T @ psi
            if jp.any():
                assert np.max(np.abs(g[jp] + np.sign(ctx.x_k[jp]))) <= 1e-8
            assert np.max(np.abs(g)) <= 1 + 1e-8
            assert np.min(psi * ctx.residual_signs, initial=0.0) >= -1e-8


def loop_dual_step(ctx, e, psi, I_D, J_D, col_e=None, col_psi=None):
    """Reference: the per-column and per-row loop form of dual_step, on
    the given A^T e and A^T psi or, by default, on fresh products."""
    in_jd = np.zeros(ctx.n, dtype=bool)
    in_jd[J_D] = True
    col_e = ctx.A.T @ e if col_e is None else col_e
    col_psi = ctx.A.T @ psi if col_psi is None else col_psi
    ratios_cols = []
    for j in range(ctx.n):
        if in_jd[j]:
            continue
        v = col_e[j]
        if v > ZERO_STEP_TOL:
            ratios_cols.append((max((1.0 - col_psi[j]) / v, 0.0), j))
        elif v < -ZERO_STEP_TOL:
            ratios_cols.append((max((1.0 + col_psi[j]) / (-v), 0.0), j))
    ratios_rows = []
    for i in I_D:
        if ctx.residual_signs[i] * e[i] < -ZERO_STEP_TOL:
            ratios_rows.append((max(-psi[i] / e[i], 0.0), i))
    if not ratios_cols and not ratios_rows:
        raise UnboundedDirectionError("unblocked")
    alpha = min(r for r, _ in ratios_cols + ratios_rows)
    width = alpha + TIE_RTOL * (1.0 + alpha)
    new_cols = [j for r, j in ratios_cols if r <= width]
    zero_rows = [i for r, i in ratios_rows if r <= width]
    return alpha, new_cols, zero_rows


def test_dual_step_matches_loop_reference_with_exact_ties():
    # small-integer data on a half-integer grid: many ratios tie exactly
    rng = np.random.default_rng(36)
    ties = 0
    for _ in range(300):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        i_p = (rng.random(m) < 0.8).nonzero()[0]
        signs = np.zeros(m)
        signs[i_p] = rng.choice([-1.0, 1.0], len(i_p))
        psi = np.zeros(m)
        psi[i_p] = signs[i_p] * rng.integers(0, 3, len(i_p)) / 4.0
        e = np.zeros(m)
        e[i_p] = rng.integers(-2, 3, len(i_p)) / 2.0
        i_d = (psi != 0.0).nonzero()[0]
        j_d = (rng.random(n) < 0.3).nonzero()[0]
        ctx = DualContext(a, np.zeros(n), index_mask(m, i_p), index_mask(n, NONE), signs,
                          y_start=psi)
        try:
            expected = loop_dual_step(ctx, e, psi, i_d, j_d)
        except UnboundedDirectionError:
            with pytest.raises(UnboundedDirectionError):
                dual_step_sets(ctx, e, psi, i_d, j_d)
            continue
        alpha, new_cols, zero_rows = dual_step_sets(ctx, e, psi, i_d, j_d)
        assert (alpha, new_cols, zero_rows) == expected
        ties += len(new_cols) + len(zero_rows) > 1
    assert ties > 20


def test_dual_step_matches_loop_reference_on_a_path(monkeypatch):
    # every ratio test of the pinned path, replayed on its carried A^T e
    # and A^T psi: the same alpha to the bit and the same sets as the loop
    calls = []

    def capture(ctx, e, psi, I_D, J_D, col_e, col_psi):
        calls.append((ctx, e.copy(), psi.copy(), I_D, J_D, col_e.copy(), col_psi.copy()))
        return dual_step(ctx, e, psi, I_D, J_D, col_e, col_psi)
    monkeypatch.setattr(dual_module, "dual_step", capture)
    assert solve_path(pinned_gaussian()).terminated == "target-reached"
    assert len(calls) > 50
    for ctx, e, psi, I_D, J_D, col_e, col_psi in calls:
        alpha, new_cols, zero_rows = dual_step(ctx, e, psi, I_D, J_D, col_e, col_psi)
        ref_alpha, ref_cols, ref_rows = loop_dual_step(ctx, e, psi, I_D, J_D, col_e, col_psi)
        assert struct.pack("<d", alpha) == struct.pack("<d", ref_alpha)
        assert (new_cols.tolist(), zero_rows.tolist()) == (ref_cols, ref_rows)
