"""Primal update: maximal decrease of the constraint bound.

With a fresh dual certificate y fixed, the next primal iterate and the
decrease t of the bound solve, over x supported on J_D = {j : |A_j^T y| = 1},

    max  t
    s.t. a_i^T x - b_i = (delta_k - t) sign(y_i)      for i in I_D
         |a_i^T x - b_i| <= delta_k - t               for i outside I_D
         (A_j^T y) x_j <= 0                           for j in J_D
         0 <= t <= delta_k - delta_target.

The active-set scheme fixes d_t = 1, so a direction is a solution of
A^{I_P}_{J_P} d = -sign(A^{I_P} xi - b_{I_P}) with d zero on J_D \\ J_P.
Residual signs on the active rows are carried as state (on I_D they equal
sign(y_i)) instead of being re-derived from near-tight residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asm import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL,
                  AsmError, UnboundedDirectionError, _argmin_with_ties)
from .linalg import IndexSet, SolveReport, solve_consistent

NONZERO_TOL = 1e-9   # zero tests in the warm-start set updates
DEN_TOL = 1e-11      # |a_i^T d -+ 1| below this: treated as non-blocking


@dataclass
class PrimalContext:
    A: np.ndarray
    b: np.ndarray
    y_next: np.ndarray
    delta_k: float
    delta_target: float
    x_start: np.ndarray
    I_P: IndexSet
    J_P: IndexSet
    I_D: IndexSet
    J_D: IndexSet
    residual_signs: np.ndarray                # full m; +-1 on I_P (sign(y) on I_D)
    warm_direction: np.ndarray | None = None  # d_hat, full length n

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class PrimalUpdateResult:
    x: np.ndarray
    t: float
    e_hat: np.ndarray | None   # None when the run stopped at the target bound
    I_P: IndexSet
    J_P: IndexSet
    reached_target: bool
    iterations: int


def primal_direction(ctx: PrimalContext, I_P: IndexSet, J_P: IndexSet,
                     signs: np.ndarray) -> SolveReport:
    """Ascent direction (with the t component fixed at 1): solve
    A^{I_P}_{J_P} d_{J_P} = -signs_{I_P}, zero elsewhere.  The report's
    ``alternative`` is the kernel's other Fredholm alternative, which
    ``primal_multipliers`` reads when no direction exists."""
    rows_i = I_P.array
    kernel = solve_consistent(ctx.A[np.ix_(rows_i, J_P.array)], -signs[rows_i])
    d = None
    if kernel.consistent:
        d = np.zeros(ctx.n)
        d[J_P.array] = kernel.solution
    return SolveReport(d, kernel.residual_norm, kernel.consistent,
                       alternative=kernel.alternative)


def primal_step(ctx: PrimalContext, d: np.ndarray, xi: np.ndarray, tau: float,
                I_P: IndexSet, J_P: IndexSet,
                col_sign: np.ndarray) -> tuple[float, bool, list[tuple[int, float]], IndexSet]:
    """Largest feasible step: min over inactive-row ratios, support-sign
    ratios and the remaining homotopy gap delta_k - tau - delta_target.

    Returns (alpha, reached_target, [(row, bound side)], leaving columns).
    The target bound takes precedence on ties, ending the whole run; a row
    tied on both sides enters at its upper bound.
    """
    bound = ctx.delta_k - tau
    gap = max(bound - ctx.delta_target, 0.0)
    resid = ctx.A @ xi - ctx.b
    a_d = ctx.A @ d
    off = np.ones(ctx.m, dtype=bool)
    off[I_P.array] = False
    up_den = a_d + 1.0
    down_den = 1.0 - a_d
    up = off & (up_den > DEN_TOL)
    down = off & (down_den > DEN_TOL)
    up_r = np.full(ctx.m, np.inf)
    up_r[up] = np.maximum((bound - resid[up]) / up_den[up], 0.0)
    down_r = np.full(ctx.m, np.inf)
    down_r[down] = np.maximum((bound + resid[down]) / down_den[down], 0.0)
    # a degenerate bound coefficient (col_sign 0) is non-blocking by convention
    cols = J_P.array
    cols = cols[(np.abs(col_sign[cols]) > NONZERO_TOL)
                & (col_sign[cols] * d[cols] > ZERO_STEP_TOL)]
    col_r = np.maximum(-xi[cols] / d[cols], 0.0)
    blocking = float(min(up_r.min(initial=np.inf), down_r.min(initial=np.inf),
                         col_r.min(initial=np.inf)))
    if gap <= blocking * (1.0 + TIE_RTOL) + ZERO_STEP_TOL:
        return gap, True, [], IndexSet.empty(ctx.n)
    if not np.isfinite(blocking):
        raise UnboundedDirectionError("primal subproblem direction is unblocked")
    width = blocking + TIE_RTOL * (1.0 + blocking)
    up_hit = up_r <= width
    rows = np.flatnonzero(up_hit | (down_r <= width))
    new_rows = list(zip(rows.tolist(), np.where(up_hit[rows], 1.0, -1.0).tolist()))
    leaving = IndexSet(tuple(cols[col_r <= width].tolist()), ctx.n)
    return blocking, False, new_rows, leaving


def primal_multipliers(ctx: PrimalContext, I_P: IndexSet, J_P: IndexSet,
                       signs: np.ndarray, col_sign: np.ndarray,
                       report: SolveReport) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers once no direction exists, from the solution z of
    [A^{I_P}_{J_P}^T; -signs_{I_P}^T] z = (0, ..., 0, 1) in the
    ``alternative`` of the failed ``primal_direction`` report: e = -z solves
    (A^{I_P}_{J_P})^T e = 0, signs^T e = 1; mu on I_P \\ I_D, nu on
    J_D \\ J_P."""
    found = report.alternative
    if not found.consistent:
        raise AsmError("primal multiplier system inconsistent although no direction exists")
    e_hat = np.zeros(ctx.m)
    e_hat[I_P.array] = -found.solution
    extra_rows = I_P.difference(ctx.I_D).array
    mu = signs[extra_rows] * e_hat[extra_rows]
    free_cols = ctx.J_D.difference(J_P).array
    nu = -col_sign[free_cols] * (ctx.A[:, free_cols].T @ e_hat)
    return e_hat, mu, nu


def primal_update(ctx: PrimalContext, max_iters: int | None = None,
                  opt_tol: float = OPT_TOL, trace=None) -> PrimalUpdateResult:
    """Solve the primal subproblem with the specialized active-set scheme.

    Returns the new primal iterate, the achieved decrease t, the final
    multiplier-system solution e_hat (warm start for the next dual update;
    None when the target bound was reached) and the final sets.
    """
    if ctx.delta_target > ctx.delta_k + ZERO_STEP_TOL:
        raise ValueError("delta_target exceeds the current bound")
    xi = np.asarray(ctx.x_start, dtype=float).copy()
    off = np.ones(ctx.n, dtype=bool)
    off[ctx.J_D.array] = False
    if np.max(np.abs(xi[off]), initial=0.0) > SUPPORT_TOL:
        raise ValueError("x_start has support outside the dual active columns")
    xi[off] = 0.0
    tau = 0.0
    signs = np.asarray(ctx.residual_signs, dtype=float).copy()
    for i in ctx.I_D:
        if abs(ctx.y_next[i]) > SUPPORT_TOL:
            signs[i] = 1.0 if ctx.y_next[i] > 0 else -1.0
    col_sign = np.zeros(ctx.n)
    cols = ctx.J_D.array
    col_sign[cols] = np.sign(ctx.A[:, cols].T @ ctx.y_next)

    I_P, J_P = ctx.I_P, ctx.J_P
    pending_d = None
    if ctx.warm_direction is not None:
        d_hat = np.asarray(ctx.warm_direction, dtype=float)
        grow = [j for j in ctx.J_D.difference(J_P) if abs(d_hat[j]) > NONZERO_TOL]
        J_P = J_P.union(grow)
        a_dhat = ctx.A @ d_hat
        shrink = [i for i in I_P.difference(ctx.I_D)
                  if abs(a_dhat[i] + signs[i]) > NONZERO_TOL]
        I_P = I_P.difference(shrink)
        pending_d = d_hat

    ledger_rows = IndexSet.empty(ctx.m)   # rows removed from I_P \ I_D
    ledger_cols = IndexSet.empty(ctx.n)   # columns added to J_P
    if max_iters is None:
        max_iters = 50 * (ctx.m + ctx.n + 5)

    for it in range(max_iters):
        if pending_d is not None:
            d, have_direction = pending_d, True
            pending_d = None
        else:
            report = primal_direction(ctx, I_P, J_P, signs)
            d, have_direction = report.solution, report.consistent

        if have_direction:
            alpha, hit_target, new_rows, leaving = primal_step(
                ctx, d, xi, tau, I_P, J_P, col_sign)
            xi = xi + alpha * d
            tau += alpha
            if hit_target:
                if trace is not None:
                    trace(("primal", it, alpha, len(I_P), len(J_P), tau, xi.copy()))
                return PrimalUpdateResult(xi, tau, None, I_P, J_P, True, it + 1)
            xi[leaving.array] = 0.0
            for i, side in new_rows:
                signs[i] = side
            I_P = I_P.union([i for i, _ in new_rows])
            J_P = J_P.difference(leaving)
            if alpha <= ZERO_STEP_TOL:
                ledger_rows = ledger_rows.difference([i for i, _ in new_rows])
                ledger_cols = ledger_cols.difference(leaving)
            elif len(ledger_rows) + len(ledger_cols) > 1:
                resid = ctx.A @ xi - ctx.b
                a_d = ctx.A @ d
                bound = ctx.delta_k - tau
                stay = [i for i in ledger_rows
                        if abs(a_d[i] + signs[i]) <= TIE_RTOL
                        and abs(abs(resid[i]) - bound) <= ACTIVE_TOL * (1.0 + bound)]
                drop = [j for j in ledger_cols
                        if abs(d[j]) <= TIE_RTOL and abs(xi[j]) <= SUPPORT_TOL]
                I_P = I_P.union(stay)
                xi[np.array(drop, dtype=int)] = 0.0
                J_P = J_P.difference(drop)
                ledger_rows = IndexSet.empty(ctx.m)
                ledger_cols = IndexSet.empty(ctx.n)
            if trace is not None:
                trace(("primal", it, alpha, len(I_P), len(J_P), tau, xi.copy()))
            continue

        e_hat, mu, nu = primal_multipliers(ctx, I_P, J_P, signs, col_sign, report)
        mu_best, i_minus = _argmin_with_ties(mu, I_P.difference(ctx.I_D).array)
        nu_best, j_plus = _argmin_with_ties(nu, ctx.J_D.difference(J_P).array)
        if mu_best >= -opt_tol and nu_best >= -opt_tol:
            return PrimalUpdateResult(xi, tau, e_hat, I_P, J_P, False, it + 1)
        if mu_best < nu_best:
            I_P = I_P.difference([i_minus])
            ledger_rows = ledger_rows.union([i_minus])
        else:
            J_P = J_P.union([j_plus])
            ledger_cols = ledger_cols.union([j_plus])
    raise AsmError(f"primal update iteration cap {max_iters} exceeded")
