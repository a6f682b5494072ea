"""Dual-certificate update.

Given the primal half x of an optimal pair at level delta, the next dual
certificate solves, over y supported on the active rows I_P,

    min  -s^T y_{I_P}                      s = sign(A^{I_P} x - b_{I_P})
    s.t. -(A^{I_P}_{J_P})^T y_{I_P} = sign(x_{J_P})
         -1 <= A_j^T y <= 1               for j outside J_P
         s (x) y_{I_P} >= 0.

This module is the dual face of the shared loop in ``active_set.py``: the
support is the dual support I_D = {i : y_i != 0} inside I_P, and the
removable constraints are J_D \\ J_P with J_D = {j : |A_j^T y| = 1}.
Directions e live on I_D and solve (A^{I_D}_{J_D})^T e = 0 together with
s_{I_D}^T e = 1.  The context and the result hold the sets as boolean
masks, the form in which the loop keeps them; the face functions take
sorted int arrays.  A context states its subproblem through its feasible
start point and that point's carried product: A^T y_start is
-sign(x_{J_P}) on J_P, which the directions keep, so x is not handed
over.  The ratio test keeps s_i psi_i >= 0, so the residual signs are
sign(y_i) wherever y_i != 0, as the primal update reads them on I_D.

The face carries c = A^T psi along the whole path: it starts from the
previous dual update's final c (zeros at the first breakpoint), is moved
by alpha A^T e with each step, and is corrected for every entry of psi
that the loop sets to zero, the start entries outside I_P included
(``active_set.start_point``, the rule the primal update shares).  A^T e
is formed once per direction, from the rows of I_D, and serves the ratio
test.  The warm start is the primal update's pair (e_hat, A^T e_hat),
whose product the primal formed for its own multipliers.  The multipliers
form A d_hat once, from the columns of J_D, and read nu off it; the pair
(d_hat, A d_hat) goes out as the next primal update's warm start, and the
final c goes out with the result.  On a large A these products read only
those rows or columns (``linalg.left_product``, ``right_product``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import (ACTIVE_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL, AsmError,
                         UnboundedDirectionError, run_active_set, smallest, start_point)
from .linalg import (Block, InverseCarry, SolveReport, left_product, right_product,
                     solve_consistent)


@dataclass
class DualContext:
    """The dual subproblem at x_k, stated by its sets, its residual signs
    and a feasible start point with its carried A^T y_start, which is
    -sign(x_{J_P}) on J_P, so x_k itself is not needed.  I_P and J_P are
    boolean masks, which the update reads as its outer and fixed sets and
    does not edit."""

    A: np.ndarray
    I_P: np.ndarray                      # row mask, length m
    J_P: np.ndarray                      # column mask, length n
    residual_signs: np.ndarray           # full length m, +-1 on I_P, 0 elsewhere
    y_start: np.ndarray                  # full length m, at most SUPPORT_TOL off I_P
    col_y_start: np.ndarray              # A^T y_start, which the update carries on
    # the primal update's (e_hat, A^T e_hat); e_hat is full length m and zero off I_P
    warm: tuple[np.ndarray, np.ndarray] | None = None
    carry: InverseCarry | None = None         # the path's kernel inverse


@dataclass
class DualUpdateResult:
    y: np.ndarray
    warm: tuple[np.ndarray, np.ndarray]   # (d_hat, A d_hat), the next primal warm start
    I_D: np.ndarray          # row mask, length m
    J_D: np.ndarray          # column mask, length n
    iterations: int
    col_y: np.ndarray        # A^T y, carried through the update


def dual_direction(ctx: DualContext, I_D: np.ndarray, J_D: np.ndarray) -> SolveReport:
    """Descent direction on the dual support: orthogonal to all active
    columns, unit inner product with the residual signs.

    One kernel solve of B d = -s_{I_D} with B = A^{I_D}_{J_D}, passed as a
    ``Block`` of A, which the kernel gathers only when it factors afresh:
    the direction is the Fredholm alternative e = -w / ||w||^2.  The
    report's ``alternative`` is the kernel report of d, which
    ``dual_multipliers`` reads when no direction exists."""
    kernel = solve_consistent(Block(ctx.A, I_D, J_D), -ctx.residual_signs[I_D],
                              carry=ctx.carry)
    found = kernel.alternative
    e = None
    if found.consistent:
        e = np.zeros(ctx.A.shape[0])
        e[I_D] = -found.solution
    return SolveReport(e, found.residual_norm, found.consistent, alternative=kernel)


def dual_step(ctx: DualContext, e: np.ndarray, psi: np.ndarray,
              I_D: np.ndarray, J_D: np.ndarray, col_e: np.ndarray,
              col_psi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest feasible step along e, given col_e = A^T e and
    col_psi = A^T psi; returns (alpha, columns hitting the unit bound,
    support rows hitting zero).

    A column j outside J_D with |c_j| > ZERO_STEP_TOL, c = col_e, moves
    A_j^T psi towards sign(c_j) and blocks at (1 - sign(c_j) A_j^T psi) / |c_j|."""
    moving = np.abs(col_e) > ZERO_STEP_TOL
    moving[J_D] = False
    cols = moving.nonzero()[0]
    c = col_e[cols]
    col_r = np.maximum((1.0 - col_psi[cols] * np.sign(c)) / np.abs(c), 0.0)
    rows_i = I_D[(ctx.residual_signs * e)[I_D] < -ZERO_STEP_TOL]
    row_r = np.maximum(-psi[rows_i] / e[rows_i], 0.0)
    if not (cols.size or rows_i.size):
        raise UnboundedDirectionError("dual subproblem direction is unblocked")
    alpha = min(smallest(col_r), smallest(row_r))
    width = alpha + TIE_RTOL * (1.0 + alpha)
    return alpha, cols[col_r <= width], rows_i[row_r <= width]


def dual_multipliers(ctx: DualContext, col_psi: np.ndarray, J_D: np.ndarray,
                     free_cols: np.ndarray, out_rows: np.ndarray,
                     report: SolveReport
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers at psi, with col_psi = A^T psi, once no direction
    exists, from the solution of A^{I_D}_{J_D} d = -s_{I_D} in the
    ``alternative`` of the failed ``dual_direction`` report.  Returns
    d_hat, A d_hat (formed from the columns of J_D), mu on free_cols =
    J_D \\ J_P and nu on out_rows = I_P \\ I_D (aligned with those arrays)."""
    kernel = report.alternative
    if not kernel.consistent:
        raise AsmError("dual multiplier system inconsistent although no direction exists")
    d_hat = np.zeros(ctx.A.shape[1])
    d_hat[J_D] = kernel.solution
    a_d_hat = right_product(ctx.A, d_hat, J_D)
    mu = -(col_psi[free_cols]) * d_hat[free_cols]
    nu = -ctx.residual_signs[out_rows] * a_d_hat[out_rows] - 1.0
    return d_hat, a_d_hat, mu, nu


class _DualFace:
    """Carries col_psi = A^T psi and col_e = A^T e of the last direction."""

    name = "dual"

    def __init__(self, ctx: DualContext):
        self.ctx = ctx
        self.outer, self.fixed = ctx.I_P, ctx.J_P
        self.col_psi = np.array(ctx.col_y_start, dtype=float)
        self.col_e = None

    def direction(self, support, active):
        report = dual_direction(self.ctx, support, active)
        if report.consistent:
            self.col_e = left_product(self.ctx.A, report.solution, support)
        return report

    def step(self, e, psi, support, active):
        alpha, entering, leaving = dual_step(self.ctx, e, psi, support, active,
                                             self.col_e, self.col_psi)
        self.col_psi += alpha * self.col_e
        return alpha, entering, leaving, False

    def zero(self, psi, rows):
        if len(rows):
            self.col_psi -= psi[rows].dot(self.ctx.A[rows])
            psi[rows] = 0.0

    def multipliers(self, report, active, removable, candidates):
        d_hat, a_d_hat, mu, nu = dual_multipliers(
            self.ctx, self.col_psi, active, removable, candidates, report)
        return (d_hat, a_d_hat), mu, nu

    def warm_slack(self, col_e):
        self.col_e = col_e
        return col_e

    def value(self, psi):
        return float(-self.ctx.residual_signs @ psi)


def dual_update(ctx: DualContext, trace=None) -> DualUpdateResult:
    """Solve the dual-certificate subproblem by the specialized active-set
    scheme; returns the new certificate embedded in R^m together with the
    warm start (d_hat, A d_hat) for the next primal update, built from the
    final multiplier-system solution, the final dual sets and A^T y."""
    face = _DualFace(ctx)
    psi = np.array(ctx.y_start, dtype=float)
    start_point(face, psi, ctx.warm)
    support = np.abs(psi) > SUPPORT_TOL
    active = (np.abs(np.abs(face.col_psi) - 1.0) <= ACTIVE_TOL * 2.0) | face.fixed
    psi, support, active, warm, iterations = run_active_set(
        face, psi, support, active, ctx.warm, trace)
    return DualUpdateResult(psi, warm, support, active, iterations, face.col_psi)
