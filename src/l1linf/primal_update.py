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
returned with the result.  The context and the result hold the sets as
boolean masks, the form in which the loop keeps them; the face functions
take sorted int arrays.

The face carries r = A xi - b: computed once when the update starts,
moved by alpha A d with each step, and corrected for every entry of xi
that the loop sets to zero.  A d is formed once per direction and serves
the ratio test, the warm-start edits and the ledger's stay test.  The
signs of A^T y on J_D come from the dual update's A^T y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .active_set import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL,
                         ZERO_STEP_TOL, AsmError, UnboundedDirectionError,
                         run_active_set, smallest)
from .linalg import Block, InverseCarry, SolveReport, solve_consistent

DEN_TOL = 1e-11      # |a_i^T d -+ 1| below this: treated as non-blocking
_SIDES = np.array([[1.0], [-1.0]])   # a row's upper and lower bound


@dataclass
class PrimalContext:
    """The primal subproblem at delta_k.  The four sets are boolean masks:
    the update reads J_D and I_D as its outer and fixed sets and starts its
    loop from copies of J_P and I_P, so it edits none of them."""

    A: np.ndarray
    b: np.ndarray
    y_next: np.ndarray
    delta_k: float
    delta_target: float
    x_start: np.ndarray
    I_P: np.ndarray                           # masks: I_P and I_D of length m,
    J_P: np.ndarray                           # J_P and J_D of length n
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
    I_P: np.ndarray            # row mask, length m
    J_P: np.ndarray            # column mask, length n
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
    kernel = solve_consistent(Block(ctx.A, I_P, J_P), -signs[I_P], carry=ctx.carry)
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
    homotopy gap delta_k - tau - delta_target.  col_sign holds the signs
    of A_j^T y, in {-1, 0, 1}; a degenerate coefficient 0 is
    non-blocking by convention, since 0 * d_j is not above ZERO_STEP_TOL.

    Returns (alpha, reached_target, [(row, bound side)], leaving columns).
    The target bound takes precedence on ties, ending the whole run; a row
    tied on both sides enters at its upper bound.
    """
    bound = ctx.delta_k - tau
    gap = max(bound - ctx.delta_target, 0.0)
    # each row's ratio to its upper bound (row 0 of num / den) and to its
    # lower bound (row 1): (bound -+ resid_i) / (1 +- a_i^T d)
    num = bound - _SIDES * resid
    den = _SIDES * a_d + 1.0
    blocks = den > DEN_TOL
    blocks[0][I_P] = blocks[1][I_P] = False
    row_r = np.where(blocks, num, np.inf) / np.where(blocks, den, 1.0)
    np.maximum(row_r, 0.0, out=row_r)
    cols = J_P[(col_sign * d)[J_P] > ZERO_STEP_TOL]
    col_r = np.maximum(-xi[cols] / d[cols], 0.0)
    blocking = min(smallest(row_r), smallest(col_r))
    if gap <= blocking * (1.0 + TIE_RTOL) + ZERO_STEP_TOL:
        return gap, True, [], np.empty(0, dtype=int)
    if not math.isfinite(blocking):
        raise UnboundedDirectionError("primal subproblem direction is unblocked")
    width = blocking + TIE_RTOL * (1.0 + blocking)
    up_hit, down_hit = row_r <= width
    rows = (up_hit | down_hit).nonzero()[0]
    new_rows = list(zip(rows.tolist(), np.where(up_hit[rows], 1.0, -1.0).tolist())) \
        if rows.size else []
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
        self.outer, self.fixed = ctx.J_D, ctx.I_D
        self.tau = 0.0
        self.signs = np.array(ctx.residual_signs, dtype=float)
        np.copyto(self.signs, np.sign(ctx.y_next),
                  where=self.fixed & (np.abs(ctx.y_next) > SUPPORT_TOL))
        self.col_sign = np.sign(ctx.col_y)     # read on J_D only
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
        if rows:
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
    xi = np.array(ctx.x_start, dtype=float)
    off = ~face.outer
    if np.count_nonzero(np.abs(xi[off]) > SUPPORT_TOL):
        raise ValueError("x_start has support outside the dual active columns")
    xi[off] = 0.0
    face.resid = ctx.A @ xi - ctx.b
    xi, support, active, e_hat, iterations = run_active_set(
        face, xi, ctx.J_P.copy(), ctx.I_P.copy(), ctx.warm_direction, opt_tol, trace)
    return PrimalUpdateResult(xi, face.tau, e_hat, active, support, e_hat is None,
                              iterations, face.signs)
