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
Residual signs on the active rows are carried as state instead of being
re-derived from near-tight residuals, and are returned with the result.
They start as the signs s that the dual update was handed, which equal
sign(y_i) where y_i != 0 on I_D, since the dual keeps s (x) y >= 0.  A
context states its subproblem through its feasible start point and that
point's carried product, resid_start = A x_start - b, so neither y nor b
is handed over.  The context and the result hold the sets as boolean
masks, the form in which the loop keeps them; the face functions take
sorted int arrays.

The face carries r = A xi - b along the whole path: it starts from the
previous primal update's final r (-b at the first breakpoint), is moved
by alpha A d with each step, and is corrected for every entry of xi that
the loop sets to zero, the start entries outside J_D included
(``active_set.start_point``, the rule the dual update shares); the final
r goes out with the result.  A d is formed once per direction, from the
columns of J_P, and serves the ratio test.  The warm start is the dual
update's pair (d_hat, A d_hat), whose product the dual formed for its own
multipliers.  The multipliers form A^T e_hat once, from the rows of I_P,
and read nu off it; the pair (e_hat, A^T e_hat) goes out as the next dual
update's warm start.  On a large A these products read only those
columns or rows (``linalg.right_product``, ``left_product``).  The signs
of A^T y on J_D come from the dual update's A^T y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .active_set import (TIE_RTOL, ZERO_STEP_TOL, AsmError, UnboundedDirectionError,
                         run_active_set, smallest, start_point)
from .linalg import (Block, InverseCarry, SolveReport, left_product, right_product,
                     solve_consistent)

DEN_TOL = 1e-11      # |a_i^T d -+ 1| below this: treated as non-blocking
_SIDES = np.array([[1.0], [-1.0]])   # a row's upper and lower bound


@dataclass
class PrimalContext:
    """The primal subproblem at delta_k, stated by its sets, its residual
    signs, A^T y and a feasible start point with its carried A x_start - b.
    The four sets are boolean masks: the update reads J_D and I_D as its
    outer and fixed sets and starts its loop from copies of J_P and I_P,
    so it edits none of them."""

    A: np.ndarray
    delta_k: float
    delta_target: float
    x_start: np.ndarray                       # at most SUPPORT_TOL off J_D
    I_P: np.ndarray                           # masks: I_P and I_D of length m,
    J_P: np.ndarray                           # J_P and J_D of length n
    I_D: np.ndarray
    J_D: np.ndarray
    residual_signs: np.ndarray                # full m; +-1 on I_P (sign(y) on I_D)
    col_y: np.ndarray                         # A^T y of the dual update
    resid_start: np.ndarray                   # A x_start - b, which the update carries on
    # the dual update's (d_hat, A d_hat); d_hat is full length n and zero off J_D
    warm: tuple[np.ndarray, np.ndarray] | None = None
    carry: InverseCarry | None = None         # the path's kernel inverse


@dataclass
class PrimalUpdateResult:
    x: np.ndarray
    t: float
    # (e_hat, A^T e_hat), the next dual update's warm start; None when the
    # run stopped at the target bound
    warm: tuple[np.ndarray, np.ndarray] | None
    I_P: np.ndarray            # row mask, length m
    J_P: np.ndarray            # column mask, length n
    iterations: int
    signs: np.ndarray          # full m, the update's own copy; the residual signs on I_P
    resid: np.ndarray          # A x - b, carried through the update


def primal_direction(ctx: PrimalContext, I_P: np.ndarray, J_P: np.ndarray,
                     signs: np.ndarray) -> SolveReport:
    """Ascent direction (with the t component fixed at 1): solve
    A^{I_P}_{J_P} d_{J_P} = -signs_{I_P}, zero elsewhere, with the block
    passed as a ``Block`` of A, which the kernel gathers only when it
    factors afresh.  Returns the kernel's report, or, when a direction
    exists, a new report of its solution embedded in R^n, since the kernel
    may hand the same report out again; its ``alternative``, the other
    Fredholm alternative, is what ``primal_multipliers`` reads when no
    direction exists."""
    kernel = solve_consistent(Block(ctx.A, I_P, J_P), -signs[I_P], carry=ctx.carry)
    if not kernel.consistent:
        return kernel
    d = np.zeros(ctx.A.shape[1])
    d[J_P] = kernel.solution
    return SolveReport(d, kernel.residual_norm, True, kernel.alternative)


def primal_step(ctx: PrimalContext, d: np.ndarray, xi: np.ndarray, tau: float,
                I_P: np.ndarray, J_P: np.ndarray, col_sign: np.ndarray,
                resid: np.ndarray, a_d: np.ndarray
                ) -> tuple[float, bool, np.ndarray, np.ndarray, np.ndarray]:
    """Largest feasible step, given resid = A xi - b and a_d = A d: min
    over inactive-row ratios, support-sign ratios and the remaining
    homotopy gap delta_k - tau - delta_target.  col_sign holds the signs
    of A_j^T y, in {-1, 0, 1}; a degenerate coefficient 0 is
    non-blocking by convention, since 0 * d_j is not above ZERO_STEP_TOL.

    Returns (alpha, reached_target, entering rows, their bound sides +-1.0,
    leaving columns), the rows and columns as sorted int arrays.  The
    target bound takes precedence on ties, ending the whole run; a row
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
        none = np.empty(0, dtype=int)
        return gap, True, none, none, none
    if not math.isfinite(blocking):
        raise UnboundedDirectionError("primal subproblem direction is unblocked")
    width = blocking + TIE_RTOL * (1.0 + blocking)
    up_hit, down_hit = row_r <= width
    rows = (up_hit | down_hit).nonzero()[0]
    return blocking, False, rows, np.where(up_hit[rows], 1.0, -1.0), cols[col_r <= width]


def primal_multipliers(ctx: PrimalContext, I_P: np.ndarray, extra_rows: np.ndarray,
                       free_cols: np.ndarray, signs: np.ndarray, col_sign: np.ndarray,
                       report: SolveReport
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers once no direction exists, from the solution z of
    [A^{I_P}_{J_P}^T; -signs_{I_P}^T] z = (0, ..., 0, 1) in the
    ``alternative`` of the failed ``primal_direction`` report: e = -z solves
    (A^{I_P}_{J_P})^T e = 0, signs^T e = 1.  Returns e_hat, A^T e_hat
    (formed from the rows of I_P), mu on extra_rows = I_P \\ I_D and nu on
    free_cols = J_D \\ J_P."""
    found = report.alternative
    if not found.consistent:
        raise AsmError("primal multiplier system inconsistent although no direction exists")
    e_hat = np.zeros(ctx.A.shape[0])
    e_hat[I_P] = -found.solution
    col_e_hat = left_product(ctx.A, e_hat, I_P)
    mu = signs[extra_rows] * e_hat[extra_rows]
    nu = -col_sign[free_cols] * col_e_hat[free_cols]
    return e_hat, col_e_hat, mu, nu


class _PrimalFace:
    """Carries the bound decrease tau, the residual signs of the active rows,
    the signs of A_j^T y on J_D, resid = A xi - b and a_d = A d of the last
    direction."""

    name = "primal"

    def __init__(self, ctx: PrimalContext):
        self.ctx = ctx
        self.outer, self.fixed = ctx.J_D, ctx.I_D
        self.tau = 0.0
        self.signs = np.array(ctx.residual_signs, dtype=float)
        self.col_sign = np.sign(ctx.col_y)     # read on J_D only
        self.resid = np.array(ctx.resid_start, dtype=float)
        self.a_d = None

    def direction(self, support, active):
        report = primal_direction(self.ctx, active, support, self.signs)
        if report.consistent:
            self.a_d = right_product(self.ctx.A, report.solution, support)
        return report

    def step(self, d, xi, support, active):
        alpha, reached_target, rows, sides, leaving = primal_step(
            self.ctx, d, xi, self.tau, active, support, self.col_sign,
            self.resid, self.a_d)
        self.tau += alpha
        self.resid += alpha * self.a_d
        self.signs[rows] = sides
        return alpha, rows, leaving, reached_target

    def zero(self, xi, cols):
        if len(cols):
            self.resid -= self.ctx.A[:, cols].dot(xi[cols])
            xi[cols] = 0.0

    def multipliers(self, report, active, removable, candidates):
        e_hat, col_e_hat, mu, nu = primal_multipliers(
            self.ctx, active, removable, candidates, self.signs, self.col_sign, report)
        return (e_hat, col_e_hat), mu, nu

    def warm_slack(self, a_d):
        self.a_d = a_d
        return a_d + self.signs

    def value(self, xi):
        return self.tau


def primal_update(ctx: PrimalContext, trace=None) -> PrimalUpdateResult:
    """Solve the primal subproblem with the specialized active-set scheme.

    Returns the new primal iterate, the achieved decrease t, the warm
    start (e_hat, A^T e_hat) for the next dual update, built from the final
    multiplier-system solution (None when the target bound was reached),
    the final sets, the residual signs and A x - b.
    """
    if ctx.delta_target > ctx.delta_k + ZERO_STEP_TOL:
        raise ValueError("delta_target exceeds the current bound")
    face = _PrimalFace(ctx)
    xi = np.array(ctx.x_start, dtype=float)
    start_point(face, xi, ctx.warm)
    xi, support, active, warm, iterations = run_active_set(
        face, xi, ctx.J_P.copy(), ctx.I_P.copy(), ctx.warm, trace)
    return PrimalUpdateResult(xi, face.tau, warm, active, support, iterations,
                              face.signs, face.resid)
