"""Generic reference solver for linear programs of the structured form

    min  c^T x
    s.t. A_eq x  = b_eq
         D x    >= e
         diag(sigma) x >= 0,          sigma in {+1, -1}^n,

assumed feasible and bounded.  ``StandardFace`` presents such an LP to the
shared active-set loop ``active_set.run_active_set``: the point is x, its
support may grow over all n variables, and the active constraints are the
tight D rows, none of them fixed.  Directions preserve the equalities, the
active rows and the zero variables while decreasing the cost at unit rate;
multipliers come from the stationarity system on the support.  The
subproblem encodings in ``encodings.py`` are cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .active_set import (ACTIVE_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL, AsmError,
                         UnboundedDirectionError, index_mask, run_active_set)
from .linalg import SolveReport, as_matrix, as_vector, solve_consistent

FEAS_TOL = 1e-8         # feasibility validation of supplied starting points


@dataclass
class StandardLp:
    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    D: np.ndarray
    e: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.c = as_vector(self.c, "c")
        n = self.c.size
        self.A_eq = as_matrix(np.asarray(self.A_eq, dtype=float).reshape(-1, n), "A_eq")
        self.b_eq = as_vector(self.b_eq, "b_eq")
        self.D = as_matrix(np.asarray(self.D, dtype=float).reshape(-1, n), "D")
        self.e = as_vector(self.e, "e")
        self.sigma = as_vector(self.sigma, "sigma")
        if self.A_eq.shape[0] != self.b_eq.size:
            raise ValueError("A_eq/b_eq row mismatch")
        if self.D.shape[0] != self.e.size:
            raise ValueError("D/e row mismatch")
        if self.sigma.shape != (n,) or not np.all(np.abs(self.sigma) == 1.0):
            raise ValueError("sigma must be a +-1 vector of length n")

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def n_ineq(self) -> int:
        return self.e.size


def complement(indices: np.ndarray, size: int) -> np.ndarray:
    """The sorted indices of {0..size-1} outside ``indices``."""
    return np.setdiff1d(np.arange(size), indices)


def classify(lp: StandardLp, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    slack = lp.D @ x - lp.e if lp.n_ineq else np.zeros(0)
    active = (np.abs(slack) <= ACTIVE_TOL * (1.0 + np.abs(lp.e))).nonzero()[0]
    support = (np.abs(x) > SUPPORT_TOL).nonzero()[0]
    return active, support


def check_feasible(lp: StandardLp, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    if lp.b_eq.size and np.max(np.abs(lp.A_eq @ x - lp.b_eq)) > tol * (1.0 + np.max(np.abs(lp.b_eq))):
        return False
    if lp.n_ineq and np.min(lp.D @ x - lp.e) < -tol * (1.0 + np.max(np.abs(lp.e))):
        return False
    return bool(np.min(lp.sigma * x, initial=0.0) >= -tol)


def kkt_check(lp: StandardLp, x, lam, mu, nu, tol: float = 1e-8) -> bool:
    """Full KKT test: feasibility, stationarity, complementarity, sign."""
    x = as_vector(x, "x")
    lam = as_vector(lam, "lam")
    mu = as_vector(mu, "mu")
    nu = as_vector(nu, "nu")
    if x.size != lp.n or lam.size != lp.b_eq.size or mu.size != lp.n_ineq or nu.size != lp.n:
        raise ValueError("multiplier dimensions do not match the LP")
    if not check_feasible(lp, x, tol):
        return False
    stat = lp.A_eq.T @ lam + lp.D.T @ mu + lp.sigma * nu - lp.c
    if np.max(np.abs(stat), initial=0.0) > tol * (1.0 + np.max(np.abs(lp.c), initial=0.0)):
        return False
    if lp.n_ineq:
        slack = lp.D @ x - lp.e
        scale = 1.0 + np.max(np.abs(mu)) + np.max(np.abs(slack))
        if np.max(np.abs(mu * slack)) > tol * scale:
            return False
    scale = 1.0 + np.max(np.abs(nu), initial=0.0) + np.max(np.abs(x), initial=0.0)
    if np.max(np.abs(nu * x), initial=0.0) > tol * scale:
        return False
    return bool(np.min(mu, initial=0.0) >= -tol and np.min(nu, initial=0.0) >= -tol)


class StandardFace:
    """The LP as a face of ``run_active_set``: the point is x, ``outer`` is
    all n variables and no D row is ``fixed``."""

    name = "standard"

    def __init__(self, lp: StandardLp):
        self.lp = lp
        self.outer = np.ones(lp.n, dtype=bool)
        self.fixed = np.zeros(lp.n_ineq, dtype=bool)

    def direction(self, support, active) -> SolveReport:
        """Solve [A_eq_S; D^act_S; c_S^T] xi_S = (0, ..., 0, -1), xi zero
        off the support S."""
        lp = self.lp
        m = np.vstack([lp.A_eq[:, support], lp.D[active][:, support],
                       lp.c[support][None, :]])
        rhs = np.zeros(m.shape[0])
        rhs[-1] = -1.0
        report = solve_consistent(m, rhs)
        if report.consistent:
            xi = np.zeros(lp.n)
            xi[support] = report.solution
            return SolveReport(xi, report.residual_norm, True)
        return report

    def step(self, xi, x, support, active):
        """Largest feasible step along xi: returns (alpha, inactive rows that
        become tight, support variables that hit zero, False)."""
        lp = self.lp
        d_xi = lp.D @ xi
        rows = (~index_mask(lp.n_ineq, active) & (d_xi < -ZERO_STEP_TOL)).nonzero()[0]
        row_r = np.maximum((lp.e[rows] - lp.D[rows] @ x) / d_xi[rows], 0.0)
        cols = support[lp.sigma[support] * xi[support] < -ZERO_STEP_TOL]
        col_r = np.maximum(-x[cols] / xi[cols], 0.0)
        if not (rows.size or cols.size):
            raise UnboundedDirectionError("no blocking constraint limits the step")
        alpha = float(min(row_r.min(initial=np.inf), col_r.min(initial=np.inf)))
        width = alpha + TIE_RTOL * (1.0 + alpha)
        return alpha, rows[row_r <= width], cols[col_r <= width], False

    def zero(self, x, indices):
        x[indices] = 0.0

    def multipliers(self, report, x, active, removable, candidates):
        """Solve the stationarity system [A_eq_S; D^act_S]^T (lam, mu) = c_S
        on the support S and read off nu on the other variables.  Returns
        the full-length (lam, mu, nu), mu on ``removable`` (the active rows)
        and nu on ``candidates`` (the variables outside the support).

        The system is solved afresh rather than read from the failed
        direction report's alternative: that alternative's residual test is
        absolute, and it refuses some stationarity systems that this solve
        accepts with a residual far below the tolerance."""
        lp = self.lp
        support = complement(candidates, lp.n)
        m = np.hstack([lp.A_eq[:, support].T, lp.D[active][:, support].T])
        found = solve_consistent(m, lp.c[support])
        if not found.consistent:
            raise AsmError("stationarity system inconsistent although no direction exists")
        lam = found.solution[:lp.b_eq.size]
        mu = np.zeros(lp.n_ineq)
        mu[active] = found.solution[lp.b_eq.size:]
        nu = np.zeros(lp.n)
        nu[candidates] = (lp.sigma * (lp.c - lp.A_eq.T @ lam - lp.D.T @ mu))[candidates]
        return (lam, mu, nu), mu[active], nu[candidates]

    def value(self, x):
        return float(self.lp.c @ x)


def asm_solve(lp: StandardLp, x0,
              trace=None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the shared active-set loop on ``lp`` from a feasible x0.

    Returns x and the full-length multipliers (lam, mu, nu).  ``trace``
    receives the loop's record after every step, the objective c^T x at
    index 5.
    """
    x = as_vector(x0, "x0").copy()
    if x.size != lp.n:
        raise ValueError("x0 has wrong length")
    if not check_feasible(lp, x):
        raise ValueError("x0 is not feasible")
    x[np.abs(x) <= SUPPORT_TOL] = 0.0
    active, support = classify(lp, x)
    x, _, _, multipliers, _ = run_active_set(
        StandardFace(lp), x, index_mask(lp.n, support), index_mask(lp.n_ineq, active),
        None, trace=trace)
    return x, multipliers
