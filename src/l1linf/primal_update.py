"""Primal update: maximal decrease of the constraint bound.

With a fresh dual certificate y fixed, the next primal iterate and the
decrease t of the bound solve, over x supported on J_D = {j : |A_j^T y| = 1},

    max  t
    s.t. a_i^T x - b_i = (delta_k - t) sign(y_i)      for i in I_D
         |a_i^T x - b_i| <= delta_k - t               for i outside I_D
         (A_j^T y) x_j <= 0                           for j in J_D
         0 <= t <= delta_k - delta_target.

This module is the primal face of the shared loop in ``active_set.py``: the
support is J_P inside J_D, and the removable constraints are the active
rows I_P \\ I_D.  The face fixes d_t = 1, so a direction is a solution of
A^{I_P}_{J_P} d = -sign(A^{I_P} xi - b_{I_P}) with d zero off J_P.
Residual signs on the active rows are carried as state (on I_D they equal
sign(y_i)) instead of being re-derived from near-tight residuals, and are
returned with the result.  Index sets, in the context, the result and the
face functions, are sorted int arrays.

The face carries r = A xi - b: computed once when the update starts,
moved by alpha A d with each step, and corrected for every entry of xi
that the loop sets to zero.  A d is formed once per direction and serves
the ratio test, the warm-start edits and the ledger's stay test.  The
signs of A^T y on J_D come from the dual update's A^T y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import (ACTIVE_TOL, NONZERO_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL,
                         ZERO_STEP_TOL, AsmError, UnboundedDirectionError,
                         index_mask, run_active_set)
from .linalg import Block, InverseCarry, SolveReport, solve_consistent

DEN_TOL = 1e-11      # |a_i^T d -+ 1| below this: treated as non-blocking


@dataclass
class PrimalContext:
    A: np.ndarray
    b: np.ndarray
    y_next: np.ndarray
    delta_k: float
    delta_target: float
    x_start: np.ndarray
    I_P: np.ndarray                           # sorted index arrays
    J_P: np.ndarray
    I_D: np.ndarray
    J_D: np.ndarray
    residual_signs: np.ndarray                # full m; +-1 on I_P (sign(y) on I_D)
    col_y: np.ndarray                         # A^T y_next
    warm_direction: np.ndarray | None = None  # d_hat, full length n
    carry: InverseCarry | None = None         # the path's kernel inverse

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
    I_P: np.ndarray
    J_P: np.ndarray
    reached_target: bool
    iterations: int
    signs: np.ndarray          # full m; the residual signs on I_P


def primal_direction(ctx: PrimalContext, I_P: np.ndarray, J_P: np.ndarray,
                     signs: np.ndarray) -> SolveReport:
    """Ascent direction (with the t component fixed at 1): solve
    A^{I_P}_{J_P} d_{J_P} = -signs_{I_P}, zero elsewhere, with the block
    passed as a ``Block`` of A, which the kernel gathers only when it
    factors afresh.  The report's ``alternative`` is the kernel's other
    Fredholm alternative, which ``primal_multipliers`` reads when no
    direction exists."""
    kernel = solve_consistent(Block(ctx.A, I_P, J_P), -signs[I_P],
                              carry=ctx.carry, rows=I_P, cols=J_P)
    d = None
    if kernel.consistent:
        d = np.zeros(ctx.n)
        d[J_P] = kernel.solution
    return SolveReport(d, kernel.residual_norm, kernel.consistent,
                       alternative=kernel.alternative)


def primal_step(ctx: PrimalContext, d: np.ndarray, xi: np.ndarray, tau: float,
                I_P: np.ndarray, J_P: np.ndarray, col_sign: np.ndarray,
                resid: np.ndarray,
                a_d: np.ndarray) -> tuple[float, bool, list[tuple[int, float]], np.ndarray]:
    """Largest feasible step, given resid = A xi - b and a_d = A d: min
    over inactive-row ratios, support-sign ratios and the remaining
    homotopy gap delta_k - tau - delta_target.

    Returns (alpha, reached_target, [(row, bound side)], leaving columns).
    The target bound takes precedence on ties, ending the whole run; a row
    tied on both sides enters at its upper bound.
    """
    bound = ctx.delta_k - tau
    gap = max(bound - ctx.delta_target, 0.0)
    off = np.ones(ctx.m, dtype=bool)
    off[I_P] = False
    up_den = a_d + 1.0
    down_den = 1.0 - a_d
    up = off & (up_den > DEN_TOL)
    down = off & (down_den > DEN_TOL)
    up_r = np.full(ctx.m, np.inf)
    up_r[up] = np.maximum((bound - resid[up]) / up_den[up], 0.0)
    down_r = np.full(ctx.m, np.inf)
    down_r[down] = np.maximum((bound + resid[down]) / down_den[down], 0.0)
    # a degenerate bound coefficient (col_sign 0) is non-blocking by convention
    cols = J_P[(np.abs(col_sign[J_P]) > NONZERO_TOL)
               & (col_sign[J_P] * d[J_P] > ZERO_STEP_TOL)]
    col_r = np.maximum(-xi[cols] / d[cols], 0.0)
    blocking = float(min(up_r.min(initial=np.inf), down_r.min(initial=np.inf),
                         col_r.min(initial=np.inf)))
    if gap <= blocking * (1.0 + TIE_RTOL) + ZERO_STEP_TOL:
        return gap, True, [], np.empty(0, dtype=int)
    if not np.isfinite(blocking):
        raise UnboundedDirectionError("primal subproblem direction is unblocked")
    width = blocking + TIE_RTOL * (1.0 + blocking)
    up_hit = up_r <= width
    rows = (up_hit | (down_r <= width)).nonzero()[0]
    new_rows = list(zip(rows.tolist(), np.where(up_hit[rows], 1.0, -1.0).tolist()))
    return blocking, False, new_rows, cols[col_r <= width]


def primal_multipliers(ctx: PrimalContext, I_P: np.ndarray, extra_rows: np.ndarray,
                       free_cols: np.ndarray, signs: np.ndarray, col_sign: np.ndarray,
                       report: SolveReport) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers once no direction exists, from the solution z of
    [A^{I_P}_{J_P}^T; -signs_{I_P}^T] z = (0, ..., 0, 1) in the
    ``alternative`` of the failed ``primal_direction`` report: e = -z solves
    (A^{I_P}_{J_P})^T e = 0, signs^T e = 1; mu on extra_rows = I_P \\ I_D,
    nu on free_cols = J_D \\ J_P."""
    found = report.alternative
    if not found.consistent:
        raise AsmError("primal multiplier system inconsistent although no direction exists")
    e_hat = np.zeros(ctx.m)
    e_hat[I_P] = -found.solution
    mu = signs[extra_rows] * e_hat[extra_rows]
    nu = -col_sign[free_cols] * (ctx.A[:, free_cols].T @ e_hat)
    return e_hat, mu, nu


class _PrimalFace:
    """Carries the bound decrease tau, the residual signs of the active rows,
    the signs of A_j^T y on J_D, resid = A xi - b and a_d = A d of the
    last direction."""

    name = "primal"

    def __init__(self, ctx: PrimalContext):
        self.ctx = ctx
        self.outer = index_mask(ctx.n, ctx.J_D)
        self.fixed = index_mask(ctx.m, ctx.I_D)
        self.tau = 0.0
        self.signs = np.asarray(ctx.residual_signs, dtype=float).copy()
        signed = self.fixed & (np.abs(ctx.y_next) > SUPPORT_TOL)
        self.signs[signed] = np.sign(ctx.y_next[signed])
        self.col_sign = np.zeros(ctx.n)
        self.col_sign[ctx.J_D] = np.sign(ctx.col_y[ctx.J_D])
        self.resid = self.a_d = None

    def direction(self, support, active):
        report = primal_direction(self.ctx, active, support, self.signs)
        if report.consistent:
            self.a_d = self.ctx.A @ report.solution
        return report

    def step(self, d, xi, support, active):
        alpha, reached_target, new_rows, leaving = primal_step(
            self.ctx, d, xi, self.tau, active, support, self.col_sign,
            self.resid, self.a_d)
        self.tau += alpha
        self.resid += alpha * self.a_d
        rows = [i for i, _ in new_rows]
        self.signs[rows] = [side for _, side in new_rows]
        return alpha, rows, leaving, reached_target

    def zero(self, xi, cols):
        if len(cols):
            self.resid -= self.ctx.A[:, cols] @ xi[cols]
            xi[cols] = 0.0

    def multipliers(self, report, xi, active, removable, candidates):
        return primal_multipliers(self.ctx, active, removable, candidates,
                                  self.signs, self.col_sign, report)

    def warm_slack(self, d):
        self.a_d = self.ctx.A @ d
        return self.a_d + self.signs

    def stays(self, d, xi):
        bound = self.ctx.delta_k - self.tau
        return (np.abs(self.a_d + self.signs) <= TIE_RTOL) \
            & (np.abs(np.abs(self.resid) - bound) <= ACTIVE_TOL * (1.0 + bound))

    def value(self, xi):
        return self.tau


def primal_update(ctx: PrimalContext, opt_tol: float = OPT_TOL,
                  trace=None) -> PrimalUpdateResult:
    """Solve the primal subproblem with the specialized active-set scheme.

    Returns the new primal iterate, the achieved decrease t, the final
    multiplier-system solution e_hat (warm start for the next dual update;
    None when the target bound was reached), the final sets and the
    residual signs.
    """
    if ctx.delta_target > ctx.delta_k + ZERO_STEP_TOL:
        raise ValueError("delta_target exceeds the current bound")
    face = _PrimalFace(ctx)
    xi = np.asarray(ctx.x_start, dtype=float).copy()
    if np.abs(xi[~face.outer]).max(initial=0.0) > SUPPORT_TOL:
        raise ValueError("x_start has support outside the dual active columns")
    xi[~face.outer] = 0.0
    face.resid = ctx.A @ xi - ctx.b
    xi, support, active, e_hat, iterations = run_active_set(
        face, xi, index_mask(ctx.n, ctx.J_P), index_mask(ctx.m, ctx.I_P),
        ctx.warm_direction, opt_tol, trace)
    return PrimalUpdateResult(xi, face.tau, e_hat, active.nonzero()[0],
                              support.nonzero()[0], e_hat is None, iterations,
                              face.signs)
