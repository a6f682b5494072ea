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
s_{I_D}^T e = 1.  Index sets, in the context, the result and the face
functions, are sorted int arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import index_mask, run_active_set
from .asm import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL,
                  AsmError, UnboundedDirectionError)
from .linalg import InverseCarry, SolveReport, solve_consistent


@dataclass
class DualContext:
    A: np.ndarray
    x_k: np.ndarray
    I_P: np.ndarray                      # sorted row indices
    J_P: np.ndarray                      # sorted column indices
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
    I_D: np.ndarray
    J_D: np.ndarray
    iterations: int


def dual_direction(ctx: DualContext, I_D: np.ndarray, J_D: np.ndarray) -> SolveReport:
    """Descent direction on the dual support: orthogonal to all active
    columns, unit inner product with the residual signs.

    One kernel solve of B d = -s_{I_D} with B = A^{I_D}_{J_D}: the direction
    is the Fredholm alternative e = -w / ||w||^2.  The report's
    ``alternative`` is the kernel report of d, which ``dual_multipliers``
    reads when no direction exists."""
    kernel = solve_consistent(ctx.A.take(I_D, 0).take(J_D, 1), -ctx.residual_signs[I_D],
                              carry=ctx.carry, rows=I_D, cols=J_D)
    found = kernel.alternative
    e = None
    if found.consistent:
        e = np.zeros(ctx.m)
        e[I_D] = -found.solution
    return SolveReport(e, found.residual_norm, found.consistent, alternative=kernel)


def dual_step(ctx: DualContext, e: np.ndarray, psi: np.ndarray,
              I_D: np.ndarray, J_D: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest feasible step along e; returns (alpha, columns hitting the
    unit bound, support rows hitting zero)."""
    col_e = ctx.A.T @ e
    col_psi = ctx.A.T @ psi
    free = np.ones(ctx.n, dtype=bool)
    free[J_D] = False
    up = free & (col_e > ZERO_STEP_TOL)
    down = free & (col_e < -ZERO_STEP_TOL)
    col_r = np.full(ctx.n, np.inf)
    col_r[up] = np.maximum((1.0 - col_psi[up]) / col_e[up], 0.0)
    col_r[down] = np.maximum((1.0 + col_psi[down]) / (-col_e[down]), 0.0)
    rows_i = I_D[ctx.residual_signs[I_D] * e[I_D] < -ZERO_STEP_TOL]
    row_r = np.maximum(-psi[rows_i] / e[rows_i], 0.0)
    if not (up.any() or down.any() or rows_i.size):
        raise UnboundedDirectionError("dual subproblem direction is unblocked")
    alpha = float(min(col_r.min(), row_r.min(initial=np.inf)))
    width = alpha + TIE_RTOL * (1.0 + alpha)
    return alpha, (col_r <= width).nonzero()[0], rows_i[row_r <= width]


def dual_multipliers(ctx: DualContext, psi: np.ndarray, J_D: np.ndarray,
                     free_cols: np.ndarray, out_rows: np.ndarray,
                     report: SolveReport) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers once no direction exists, from the solution of
    A^{I_D}_{J_D} d = -s_{I_D} in the ``alternative`` of the failed
    ``dual_direction`` report; mu on free_cols = J_D \\ J_P, nu on
    out_rows = I_P \\ I_D (aligned with those arrays)."""
    kernel = report.alternative
    if not kernel.consistent:
        raise AsmError("dual multiplier system inconsistent although no direction exists")
    d_hat = np.zeros(ctx.n)
    d_hat[J_D] = kernel.solution
    col_psi = ctx.A.T @ psi
    mu = -(col_psi[free_cols]) * d_hat[free_cols]
    nu = -ctx.residual_signs[out_rows] * (ctx.A[out_rows] @ d_hat) - 1.0
    return d_hat, mu, nu


class _DualFace:
    name = "dual"

    def __init__(self, ctx: DualContext):
        self.ctx = ctx
        self.outer = index_mask(ctx.m, ctx.I_P)
        self.fixed = index_mask(ctx.n, ctx.J_P)

    def direction(self, support, active):
        return dual_direction(self.ctx, support, active)

    def step(self, e, psi, support, active):
        return (*dual_step(self.ctx, e, psi, support, active), False)

    def multipliers(self, report, psi, active, removable, candidates):
        return dual_multipliers(self.ctx, psi, active, removable, candidates, report)

    def warm_slack(self, e):
        rows = self.ctx.I_P
        return self.ctx.A[rows].T @ e[rows]

    def stays(self, e, psi):
        return (np.abs(self.ctx.A.T @ e) <= TIE_RTOL) \
            & (np.abs(np.abs(self.ctx.A.T @ psi) - 1.0) <= ACTIVE_TOL * 2.0)

    def value(self, psi):
        return float(-self.ctx.residual_signs @ psi)


def dual_update(ctx: DualContext, opt_tol: float = OPT_TOL,
                trace=None) -> DualUpdateResult:
    """Solve the dual-certificate subproblem by the specialized active-set
    scheme; returns the new certificate embedded in R^m together with the
    final multiplier-system solution d_hat (warm start for the next primal
    update) and the final dual sets."""
    face = _DualFace(ctx)
    psi = np.asarray(ctx.y_start, dtype=float).copy()
    if np.max(np.abs(psi[~face.outer]), initial=0.0) > SUPPORT_TOL:
        raise ValueError("y_start has mass outside the primal active rows")
    psi[~face.outer] = 0.0
    support = face.outer & (np.abs(psi) > SUPPORT_TOL)
    active = (np.abs(np.abs(ctx.A.T @ psi) - 1.0) <= ACTIVE_TOL * 2.0) | face.fixed
    psi, support, active, d_hat, iterations = run_active_set(
        face, psi, support, active, ctx.warm_direction, opt_tol, trace)
    return DualUpdateResult(psi, d_hat, support.nonzero()[0], active.nonzero()[0],
                            iterations)
