"""Dual-certificate update.

Given the primal half x of an optimal pair at level delta, the next dual
certificate solves, over y supported on the active rows I_P,

    min  -s^T y_{I_P}                      s = sign(A^{I_P} x - b_{I_P})
    s.t. -(A^{I_P}_{J_P})^T y_{I_P} = sign(x_{J_P})
         -1 <= A_j^T y <= 1               for j outside J_P
         s (x) y_{I_P} >= 0.

The active-set scheme below works directly on the structure: the support
is the dual support I_D = {i : y_i != 0} and the active set is
J_D \\ J_P with J_D = {j : |A_j^T y| = 1}.  Directions e live on I_D and
solve (A^{I_D}_{J_D})^T e = 0 together with s_{I_D}^T e = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asm import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL,
                  AsmError, UnboundedDirectionError, _argmin_with_ties)
from .linalg import IndexSet, SolveReport, solve_consistent

NONZERO_TOL = 1e-9  # zero test for warm-start entries and products


@dataclass
class DualContext:
    A: np.ndarray
    b: np.ndarray
    x_k: np.ndarray
    I_P: IndexSet
    J_P: IndexSet
    residual_signs: np.ndarray           # full length m, +-1 on I_P, 0 elsewhere
    y_start: np.ndarray                  # full length m, zero off I_P
    warm_direction: np.ndarray | None = None  # full length m, zero off I_P

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class DualUpdateResult:
    y: np.ndarray
    d_hat: np.ndarray
    I_D: IndexSet
    J_D: IndexSet
    iterations: int


def dual_direction(ctx: DualContext, I_D: IndexSet, J_D: IndexSet) -> SolveReport:
    """Descent direction on the dual support: orthogonal to all active
    columns, unit inner product with the residual signs.

    One kernel solve of B d = -s_{I_D} with B = A^{I_D}_{J_D}: the direction
    is the Fredholm alternative e = -w / ||w||^2.  The report's
    ``alternative`` is the kernel report of d, which ``dual_multipliers``
    reads when no direction exists."""
    rows_i = I_D.array
    kernel = solve_consistent(ctx.A[np.ix_(rows_i, J_D.array)],
                              -ctx.residual_signs[rows_i])
    found = kernel.alternative
    e = None
    if found.consistent:
        e = np.zeros(ctx.m)
        e[rows_i] = -found.solution
    return SolveReport(e, found.residual_norm, found.consistent, alternative=kernel)


def dual_step(ctx: DualContext, e: np.ndarray, psi: np.ndarray,
              I_D: IndexSet, J_D: IndexSet) -> tuple[float, IndexSet, IndexSet]:
    """Largest feasible step along e; returns (alpha, columns hitting the
    unit bound, support rows hitting zero)."""
    col_e = ctx.A.T @ e
    col_psi = ctx.A.T @ psi
    free = np.ones(ctx.n, dtype=bool)
    free[J_D.array] = False
    up = free & (col_e > ZERO_STEP_TOL)
    down = free & (col_e < -ZERO_STEP_TOL)
    col_r = np.full(ctx.n, np.inf)
    col_r[up] = np.maximum((1.0 - col_psi[up]) / col_e[up], 0.0)
    col_r[down] = np.maximum((1.0 + col_psi[down]) / (-col_e[down]), 0.0)
    rows_i = I_D.array
    rows_i = rows_i[ctx.residual_signs[rows_i] * e[rows_i] < -ZERO_STEP_TOL]
    row_r = np.maximum(-psi[rows_i] / e[rows_i], 0.0)
    if not (up.any() or down.any() or rows_i.size):
        raise UnboundedDirectionError("dual subproblem direction is unblocked")
    alpha = float(min(col_r.min(), row_r.min(initial=np.inf)))
    width = alpha + TIE_RTOL * (1.0 + alpha)
    new_cols = IndexSet.from_mask(col_r <= width)
    zero_rows = IndexSet(tuple(rows_i[row_r <= width].tolist()), ctx.m)
    return alpha, new_cols, zero_rows


def dual_multipliers(ctx: DualContext, psi: np.ndarray, I_D: IndexSet,
                     J_D: IndexSet,
                     report: SolveReport) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers once no direction exists, from the solution of
    A^{I_D}_{J_D} d = -s_{I_D} in the ``alternative`` of the failed
    ``dual_direction`` report; mu on J_D \\ J_P, nu on I_P \\ I_D (aligned
    with those sets)."""
    kernel = report.alternative
    if not kernel.consistent:
        raise AsmError("dual multiplier system inconsistent although no direction exists")
    d_hat = np.zeros(ctx.n)
    d_hat[J_D.array] = kernel.solution
    col_psi = ctx.A.T @ psi
    free_cols = J_D.difference(ctx.J_P).array
    mu = -(col_psi[free_cols]) * d_hat[free_cols]
    out_rows = ctx.I_P.difference(I_D).array
    nu = -ctx.residual_signs[out_rows] * (ctx.A[out_rows] @ d_hat) - 1.0
    return d_hat, mu, nu


def dual_update(ctx: DualContext, max_iters: int | None = None,
                opt_tol: float = OPT_TOL, trace=None) -> DualUpdateResult:
    """Solve the dual-certificate subproblem by the specialized active-set
    scheme; returns the new certificate embedded in R^m together with the
    final multiplier-system solution d_hat (warm start for the next primal
    update) and the final dual sets."""
    psi = np.asarray(ctx.y_start, dtype=float).copy()
    off = np.ones(ctx.m, dtype=bool)
    off[ctx.I_P.array] = False
    if np.max(np.abs(psi[off]), initial=0.0) > SUPPORT_TOL:
        raise ValueError("y_start has mass outside the primal active rows")
    psi[off] = 0.0

    col_psi = ctx.A.T @ psi
    I_D = IndexSet.from_iterable((i for i in ctx.I_P if abs(psi[i]) > SUPPORT_TOL), ctx.m)
    J_D = IndexSet.from_mask(np.abs(np.abs(col_psi) - 1.0) <= ACTIVE_TOL * 2.0).union(ctx.J_P)

    pending_e = None
    if ctx.warm_direction is not None:
        e_hat = np.asarray(ctx.warm_direction, dtype=float)
        grow = [i for i in ctx.I_P.difference(I_D) if abs(e_hat[i]) > NONZERO_TOL]
        I_D = I_D.union(grow)
        rows_ip = ctx.I_P.array
        prods = ctx.A[rows_ip].T @ e_hat[rows_ip]
        shrink = [j for j in J_D.difference(ctx.J_P) if abs(prods[j]) > NONZERO_TOL]
        J_D = J_D.difference(shrink)
        pending_e = e_hat

    ledger_cols = IndexSet.empty(ctx.n)   # columns removed from J_D \ J_P
    ledger_rows = IndexSet.empty(ctx.m)   # rows added to I_D
    if max_iters is None:
        max_iters = 50 * (ctx.m + ctx.n + 5)

    for it in range(max_iters):
        if pending_e is not None:
            e, have_direction = pending_e, True
            pending_e = None
        else:
            report = dual_direction(ctx, I_D, J_D)
            e, have_direction = report.solution, report.consistent

        if have_direction:
            alpha, new_cols, zero_rows = dual_step(ctx, e, psi, I_D, J_D)
            psi = psi + alpha * e
            psi[zero_rows.array] = 0.0
            J_D = J_D.union(new_cols)
            I_D = I_D.difference(zero_rows)
            if alpha <= ZERO_STEP_TOL:
                ledger_cols = ledger_cols.difference(new_cols)
                ledger_rows = ledger_rows.difference(zero_rows)
            elif len(ledger_cols) + len(ledger_rows) > 1:
                col_e = ctx.A.T @ e
                col_now = ctx.A.T @ psi
                stay = [j for j in ledger_cols
                        if abs(col_e[j]) <= TIE_RTOL
                        and abs(abs(col_now[j]) - 1.0) <= ACTIVE_TOL * 2.0]
                drop = [i for i in ledger_rows
                        if abs(e[i]) <= TIE_RTOL and abs(psi[i]) <= SUPPORT_TOL]
                J_D = J_D.union(stay)
                psi[np.array(drop, dtype=int)] = 0.0
                I_D = I_D.difference(drop)
                ledger_cols = IndexSet.empty(ctx.n)
                ledger_rows = IndexSet.empty(ctx.m)
            if trace is not None:
                trace(("dual", it, alpha, len(J_D), len(I_D),
                       float(-ctx.residual_signs @ psi), psi.copy()))
            continue

        d_hat, mu, nu = dual_multipliers(ctx, psi, I_D, J_D, report)
        mu_best, j_minus = _argmin_with_ties(mu, J_D.difference(ctx.J_P).array)
        nu_best, i_plus = _argmin_with_ties(nu, ctx.I_P.difference(I_D).array)
        if mu_best >= -opt_tol and nu_best >= -opt_tol:
            return DualUpdateResult(psi, d_hat, I_D, J_D, it + 1)
        if mu_best < nu_best:
            J_D = J_D.difference([j_minus])
            ledger_cols = ledger_cols.union([j_minus])
        else:
            I_D = I_D.union([i_plus])
            ledger_rows = ledger_rows.union([i_plus])
    raise AsmError(f"dual update iteration cap {max_iters} exceeded")
