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
sorted int arrays.

The face carries c = A^T psi: computed once when the update starts,
moved by alpha A^T e with each step, and corrected for every entry of psi
that the loop sets to zero.  A^T e is formed once per direction, the
warm start's included, and serves the ratio test, the warm-start edits
and the ledger's stay test; the final c goes out with the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL,
                         AsmError, UnboundedDirectionError, run_active_set,
                         smallest)
from .linalg import Block, InverseCarry, SolveReport, solve_consistent


@dataclass
class DualContext:
    """The dual subproblem at x_k.  I_P and J_P are boolean masks, which
    the update reads as its outer and fixed sets and does not edit."""

    A: np.ndarray
    x_k: np.ndarray
    I_P: np.ndarray                      # row mask, length m
    J_P: np.ndarray                      # column mask, length n
    residual_signs: np.ndarray           # full length m, +-1 on I_P, 0 elsewhere
    y_start: np.ndarray                  # full length m, zero off I_P
    warm_direction: np.ndarray | None = None  # full length m, zero off I_P
    carry: InverseCarry | None = None         # the path's kernel inverse

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
        e = np.zeros(ctx.m)
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
                     report: SolveReport) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers at psi, with col_psi = A^T psi, once no direction
    exists, from the solution of A^{I_D}_{J_D} d = -s_{I_D} in the
    ``alternative`` of the failed ``dual_direction`` report; mu on
    free_cols = J_D \\ J_P, nu on out_rows = I_P \\ I_D (aligned with those
    arrays)."""
    kernel = report.alternative
    if not kernel.consistent:
        raise AsmError("dual multiplier system inconsistent although no direction exists")
    d_hat = np.zeros(ctx.n)
    d_hat[J_D] = kernel.solution
    mu = -(col_psi[free_cols]) * d_hat[free_cols]
    nu = -ctx.residual_signs[out_rows] * (ctx.A[out_rows] @ d_hat) - 1.0
    return d_hat, mu, nu


class _DualFace:
    """Carries col_psi = A^T psi and col_e = A^T e of the last direction."""

    name = "dual"

    def __init__(self, ctx: DualContext):
        self.ctx = ctx
        self.outer, self.fixed = ctx.I_P, ctx.J_P
        self.col_psi = self.col_e = None

    def direction(self, support, active):
        report = dual_direction(self.ctx, support, active)
        if report.consistent:
            self.col_e = self.ctx.A.T @ report.solution
        return report

    def step(self, e, psi, support, active):
        alpha, entering, leaving = dual_step(self.ctx, e, psi, support, active,
                                             self.col_e, self.col_psi)
        self.col_psi += alpha * self.col_e
        return alpha, entering, leaving, False

    def zero(self, psi, rows):
        if len(rows):
            self.col_psi -= self.ctx.A[rows].T @ psi[rows]
            psi[rows] = 0.0

    def multipliers(self, report, psi, active, removable, candidates):
        return dual_multipliers(self.ctx, self.col_psi, active, removable, candidates,
                                report)

    def warm_slack(self, e):
        self.col_e = self.ctx.A.T @ e
        return self.col_e

    def stays(self, e, psi):
        return (np.abs(self.col_e) <= TIE_RTOL) \
            & (np.abs(np.abs(self.col_psi) - 1.0) <= ACTIVE_TOL * 2.0)

    def value(self, psi):
        return float(-self.ctx.residual_signs @ psi)


def dual_update(ctx: DualContext, opt_tol: float = OPT_TOL,
                trace=None) -> DualUpdateResult:
    """Solve the dual-certificate subproblem by the specialized active-set
    scheme; returns the new certificate embedded in R^m together with the
    final multiplier-system solution d_hat (warm start for the next primal
    update), the final dual sets and A^T y."""
    face = _DualFace(ctx)
    psi = np.array(ctx.y_start, dtype=float)
    support = np.abs(psi) > SUPPORT_TOL
    off = ~face.outer
    if np.count_nonzero(support & off):
        raise ValueError("y_start has mass outside the primal active rows")
    psi[off] = 0.0
    face.col_psi = ctx.A.T @ psi
    active = (np.abs(np.abs(face.col_psi) - 1.0) <= ACTIVE_TOL * 2.0) | face.fixed
    psi, support, active, d_hat, iterations = run_active_set(
        face, psi, support, active, ctx.warm_direction, opt_tol, trace)
    return DualUpdateResult(psi, d_hat, support, active, iterations, face.col_psi)
