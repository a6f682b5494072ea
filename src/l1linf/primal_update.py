"""Primal update: maximal decrease of the constraint bound.

With a fresh dual certificate y fixed, the next primal iterate and the
decrease t of the bound solve, over x supported on J_D = {j : |A_j^T y| = 1},

    max  t
    s.t. a_i^T x - b_i = (delta_k - t) sign(y_i)      for i in I_D
         |a_i^T x - b_i| <= delta_k - t               for i outside I_D
         (A_j^T y) x_j <= 0                           for j in J_D
         0 <= t <= delta_k - delta_target.

``PrimalContext`` is the primal face of the shared loop in
``active_set.py``: the support is J_P inside J_D, and the removable
constraints are the active rows I_P \\ I_D.  The face fixes d_t = 1, so a
direction solves A^{I_P}_{J_P} d = -sign(A^{I_P} xi - b_{I_P}) with d zero
off J_P.  Residual signs on the active rows are carried as state instead
of being re-derived from near-tight residuals, and are returned with the
result.  They start as the signs s that the dual update was handed, which
equal sign(y_i) where y_i != 0 on I_D, since the dual keeps s (x) y >= 0.
A context states its subproblem through its feasible start point and
that point's carried product, resid_start = A x_start - b, so neither y
nor b is handed over.  The sets cross as boolean masks, the form in which
the loop keeps them; the face functions take sorted int arrays.

``primal_update`` sets the loop state on the context when it starts and
never edits the context's inputs.  That state carries r = A xi - b along
the whole path: r starts from the previous primal update's final r (-b
at the first breakpoint), moves by alpha A d with each step and is
corrected for every entry of xi that the loop sets to zero, the start
entries outside J_D included (``active_set.start_point``); the final r
goes out with the result.  A d is formed once per direction, from the
columns of J_P, for the ratio test.  The warm start is the dual update's
pair (d_hat, A d_hat).  The multipliers form A^T e_hat once, from the
rows of I_P, and read nu off it; (e_hat, A^T e_hat) goes out as the next
dual update's warm start.  On a large A these products read only those
columns or rows (``linalg.right_product``, ``left_product``).  The signs
of A^T y on J_D come from the dual update's A^T y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .active_set import (TIE_RTOL, ZERO_STEP_TOL, AsmError, UnboundedDirectionError,
                         run_active_set, smallest, start_point)
from .linalg import (Block, InverseCarry, SolveReport, left_product, right_product,
                     solve_consistent)

DEN_TOL = 1e-11      # |a_i^T d -+ 1| below this: treated as non-blocking
_SIDES = np.array([[1.0], [-1.0]])   # a row's upper and lower bound


@dataclass
class PrimalContext:
    """The primal subproblem at delta_k and the face that ``primal_update``
    runs: its sets, its residual signs, A^T y and a feasible start point
    with its carried A x_start - b.  The four sets are boolean masks: J_D
    and I_D are the outer and fixed sets, and the loop starts from copies
    of J_P and I_P.  The update sets the loop state and edits no input."""

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
    outer: np.ndarray = field(init=False, repr=False, compare=False)    # J_D
    fixed: np.ndarray = field(init=False, repr=False, compare=False)    # I_D
    tau: float = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)
    col_sign: np.ndarray = field(init=False, repr=False, compare=False)  # read on J_D only
    resid: np.ndarray = field(init=False, repr=False, compare=False)
    a_d: np.ndarray | None = field(init=False, repr=False, compare=False)

    name = "primal"

    def direction(self, support, active):
        report = primal_direction(self, active, support, self.signs)
        if report.consistent:
            self.a_d = right_product(self.A, report.solution, support)
        return report

    def step(self, d, xi, support, active):
        alpha, reached_target, rows, sides, leaving = primal_step(
            self, d, xi, self.tau, active, support, self.col_sign, self.resid, self.a_d)
        self.tau += alpha
        self.resid += alpha * self.a_d
        self.signs[rows] = sides
        return alpha, rows, leaving, reached_target

    def zero(self, xi, cols):
        if len(cols):
            self.resid -= self.A[:, cols].dot(xi[cols])
            xi[cols] = 0.0

    def multipliers(self, report, active, removable, candidates):
        e_hat, col_e_hat, mu, nu = primal_multipliers(
            self, active, removable, candidates, self.signs, self.col_sign, report)
        return (e_hat, col_e_hat), mu, nu

    def warm_slack(self, a_d):
        self.a_d = a_d
        return a_d + self.signs

    def value(self, xi):
        return self.tau


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


def primal_step(ctx: PrimalContext, d: np.ndarray, xi: np.ndarray, tau: float, I_P: np.ndarray,
                J_P: np.ndarray, col_sign: np.ndarray, resid: np.ndarray, a_d: np.ndarray
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


def primal_update(ctx: PrimalContext, trace=None) -> PrimalUpdateResult:
    """Solve the primal subproblem by the specialized active-set scheme;
    returns the new primal iterate, the achieved decrease t, the warm start
    (e_hat, A^T e_hat) for the next dual update, built from the final
    multiplier-system solution (None when the target bound was reached),
    the final sets, the residual signs and A x - b."""
    if ctx.delta_target > ctx.delta_k + ZERO_STEP_TOL:
        raise ValueError("delta_target exceeds the current bound")
    ctx.outer, ctx.fixed, ctx.tau, ctx.a_d = ctx.J_D, ctx.I_D, 0.0, None
    ctx.signs, ctx.col_sign = np.array(ctx.residual_signs, dtype=float), np.sign(ctx.col_y)
    ctx.resid, xi = np.array(ctx.resid_start, dtype=float), np.array(ctx.x_start, dtype=float)
    start_point(ctx, xi, ctx.warm)
    xi, support, active, warm, iterations = run_active_set(
        ctx, xi, ctx.J_P.copy(), ctx.I_P.copy(), ctx.warm, trace)
    return PrimalUpdateResult(xi, ctx.tau, warm, active, support, iterations, ctx.signs, ctx.resid)
