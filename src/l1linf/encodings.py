"""Encodings of the update subproblems and alternative systems as explicit
LPs.  Used for cross-validation only: the specialized solvers in
``dual_update`` / ``primal_update`` never go through these.  A subproblem's
``StandardLp`` is solved by the generic reference ``asm.asm_solve`` and, in
the ``GeneralLp`` form of ``general_form``, by the Bland simplex
``oracle.simplex_solve``, which shares no code with the active-set loop.
Index sets are sorted int arrays."""

from __future__ import annotations

import numpy as np

from .asm import StandardLp, complement
from .dual_update import DualContext
from .oracle import GeneralLp
from .primal_update import PrimalContext


def general_form(lp: StandardLp) -> GeneralLp:
    """``lp`` over the nonnegative variables z = diag(sigma) x: the columns
    with sigma = -1 change sign and D x >= e becomes -D x <= -e.  Both LPs
    have the same optimal value."""
    return GeneralLp(lp.sigma * lp.c, lp.A_eq * lp.sigma, lp.b_eq,
                     -lp.D * lp.sigma, -lp.e, np.zeros(lp.n))


def dual_lp_encoding(ctx: DualContext) -> tuple[StandardLp, np.ndarray]:
    """Dual update as a structured LP over psi in R^{|I_P|}:

        min -s^T psi,  (-A^{I_P}_{J_P})^T psi = sign(x_{J_P}),
        +-(A^{I_P}_{J_Pc})^T psi >= -1,  diag(s) psi >= 0.

    Returns the LP and the feasible starting point y_start restricted to I_P.
    """
    rows = ctx.I_P
    s = ctx.residual_signs[rows]
    a_ip = ctx.A[rows]
    jp = ctx.J_P
    jpc = complement(jp, ctx.n)
    c = -s
    a_eq = -a_ip[:, jp].T
    b_eq = np.sign(ctx.x_k[jp])
    d = np.vstack([a_ip[:, jpc].T, -a_ip[:, jpc].T])
    e = -np.ones(2 * jpc.size)
    lp = StandardLp(c, a_eq, b_eq, d, e, s)
    return lp, ctx.y_start[rows]


def primal_lp_encoding(ctx: PrimalContext) -> tuple[StandardLp, np.ndarray]:
    """Primal update as a structured LP over (x_{J_D}, t):

        min -t,  [A^{I_D}_{J_D} | s] z = delta_k s + b_{I_D},
        rows for |a_i^T x - b_i| <= delta_k - t (i outside I_D) and
        t <= delta_k - delta_target as >= constraints, sign bounds
        -sign(A_j^T y) x_j >= 0 and t >= 0.

    Returns the LP and the feasible starting point (x_k on J_D, 0).
    """
    jd = ctx.J_D
    idx_id = ctx.I_D
    idc = complement(idx_id, ctx.m)
    s = np.sign(ctx.y_next[idx_id])
    n_lp = jd.size + 1
    a_eq = np.hstack([ctx.A[idx_id][:, jd], s[:, None]])
    b_eq = ctx.delta_k * s + ctx.b[idx_id]
    blocks = []
    rhs = []
    if idc.size:
        blocks.append(np.hstack([-ctx.A[idc][:, jd], -np.ones((idc.size, 1))]))
        rhs.append(-(ctx.delta_k + ctx.b[idc]))
        blocks.append(np.hstack([ctx.A[idc][:, jd], -np.ones((idc.size, 1))]))
        rhs.append(-(ctx.delta_k - ctx.b[idc]))
    gap_row = np.zeros((1, n_lp))
    gap_row[0, -1] = -1.0
    blocks.append(gap_row)
    rhs.append(np.array([-(ctx.delta_k - ctx.delta_target)]))
    d = np.vstack(blocks)
    e = np.concatenate(rhs)
    sigma = np.concatenate([-np.sign(ctx.A[:, jd].T @ ctx.y_next), [1.0]])
    c = np.zeros(n_lp)
    c[-1] = -1.0
    lp = StandardLp(c, a_eq, b_eq, d, e, sigma)
    x0 = np.concatenate([ctx.x_start[jd], [0.0]])
    return lp, x0


def improvement_system_dual(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """Feasibility system for a dual improvement direction e (supported on
    I_P): strict decrease row first (index 0 of the <= block), then the
    sign-preservation rows.  Feasibility must be tested with the first row
    strict."""
    s = residual_signs[i_p]
    k = i_p.size
    eq = a[i_p][:, j_p].T
    eq_rhs = np.zeros(j_p.size)
    ub_rows = [-s[None, :]]
    ub_rhs = [np.zeros(1)]
    free_cols = np.setdiff1d(j_d, j_p)
    if free_cols.size:
        w = (a[:, free_cols].T @ y_hat)[:, None]
        ub_rows.append(w * a[i_p][:, free_cols].T)
        ub_rhs.append(np.zeros(free_cols.size))
    for pos in np.isin(i_p, i_d, invert=True).nonzero()[0]:
        row = np.zeros(k)
        row[pos] = -s[pos]
        ub_rows.append(row[None, :])
        ub_rhs.append(np.zeros(1))
    return GeneralLp(np.zeros(k), eq, eq_rhs, np.vstack(ub_rows),
                     np.concatenate(ub_rhs), np.full(k, -np.inf))


def improvement_system_primal(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """Feasibility system for a primal improvement direction d (supported on
    J_D): equalities on the dual support rows, unit-margin decrease on the
    remaining active rows, sign compatibility on the free columns."""
    eq = a[i_d][:, j_d]
    eq_rhs = -np.sign(y_hat[i_d])
    ub_rows = []
    ub_rhs = []
    extra = np.setdiff1d(i_p, i_d)
    if extra.size:
        ub_rows.append(residual_signs[extra][:, None] * a[extra][:, j_d])
        ub_rhs.append(-np.ones(extra.size))
    for j in np.setdiff1d(j_d, j_p):
        pos = int(np.searchsorted(j_d, j))
        row = np.zeros(j_d.size)
        row[pos] = float(a[:, j] @ y_hat)
        ub_rows.append(row[None, :])
        ub_rhs.append(np.zeros(1))
    if ub_rows:
        ub = np.vstack(ub_rows)
        ub_b = np.concatenate(ub_rhs)
    else:
        ub = np.zeros((0, j_d.size))
        ub_b = np.zeros(0)
    return GeneralLp(np.zeros(j_d.size), eq, eq_rhs, ub, ub_b,
                     np.full(j_d.size, -np.inf))
