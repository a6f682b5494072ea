"""Test-only LP references and builders.

``asm_solve`` runs the shared active-set loop ``active_set.run_active_set``
on any LP of the form

    min c^T x  s.t.  A_eq x = b_eq,  D x >= e,  diag(sigma) x >= 0,

assumed feasible and bounded, through ``StandardFace``: the point is x, its
support may grow over all n variables, and the active constraints are the
tight D rows, none of them fixed.  Since it runs the subproblems' own loop it
stress-tests that loop; the independent reference is the Bland simplex
``oracle.simplex_solve``, which reads a ``StandardLp`` through
``general_form``.  ``dual_lp_encoding`` and ``primal_lp_encoding`` write the
two update subproblems as such LPs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from l1linf.active_set import (ACTIVE_TOL, SUPPORT_TOL, TIE_RTOL, ZERO_STEP_TOL,
                               AsmError, UnboundedDirectionError, run_active_set)
from l1linf.dual_update import DualContext
from l1linf.linalg import SolveReport, as_matrix, as_vector, solve_consistent
from l1linf.oracle import GeneralLp
from l1linf.primal_update import PrimalContext

FEAS_TOL = 1e-8         # feasibility validation of supplied starting points


def index_mask(size: int, indices) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[indices] = True
    return mask


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

    def multipliers(self, report, active, removable, candidates):
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


def general_form(lp: StandardLp) -> GeneralLp:
    """``lp`` over the nonnegative variables z = diag(sigma) x: the columns
    with sigma = -1 change sign and D x >= e becomes -D x <= -e.  Both LPs
    have the same optimal value."""
    return GeneralLp(lp.sigma * lp.c, lp.A_eq * lp.sigma, lp.b_eq,
                     -lp.D * lp.sigma, -lp.e, np.zeros(lp.n))


def dual_lp_encoding(ctx: DualContext, x_k: np.ndarray) -> tuple[StandardLp, np.ndarray]:
    """Dual update at x_k as a structured LP over psi in R^{|I_P|}:

        min -s^T psi,  (-A^{I_P}_{J_P})^T psi = sign(x_{J_P}),
        +-(A^{I_P}_{J_Pc})^T psi >= -1,  diag(s) psi >= 0.

    Returns the LP and the feasible starting point y_start restricted to I_P.
    """
    rows = ctx.I_P
    s = ctx.residual_signs[rows]
    a_ip = ctx.A[rows]
    jp = ctx.J_P
    c = -s
    a_eq = -a_ip[:, jp].T
    b_eq = np.sign(x_k[jp])
    d = np.vstack([a_ip[:, ~jp].T, -a_ip[:, ~jp].T])
    e = -np.ones(d.shape[0])
    lp = StandardLp(c, a_eq, b_eq, d, e, s)
    return lp, ctx.y_start[rows]


def primal_lp_encoding(ctx: PrimalContext, b: np.ndarray,
                       y: np.ndarray) -> tuple[StandardLp, np.ndarray]:
    """Primal update for b and the dual update's y as a structured LP over
    (x_{J_D}, t):

        min -t,  [A^{I_D}_{J_D} | s] z = delta_k s + b_{I_D},
        rows for |a_i^T x - b_i| <= delta_k - t (i outside I_D) and
        t <= delta_k - delta_target as >= constraints, sign bounds
        -sign(A_j^T y) x_j >= 0 and t >= 0.

    Returns the LP and the feasible starting point (x_k on J_D, 0).
    """
    jd, i_d = ctx.J_D, ctx.I_D
    s = np.sign(y[i_d])
    n_lp = np.count_nonzero(jd) + 1
    a_eq = np.hstack([ctx.A[i_d][:, jd], s[:, None]])
    b_eq = ctx.delta_k * s + b[i_d]
    a_out, b_out = ctx.A[~i_d][:, jd], b[~i_d]
    ones = np.ones((b_out.size, 1))
    gap_row = np.zeros((1, n_lp))
    gap_row[0, -1] = -1.0
    d = np.vstack([np.hstack([-a_out, -ones]), np.hstack([a_out, -ones]), gap_row])
    e = np.concatenate([-(ctx.delta_k + b_out), -(ctx.delta_k - b_out),
                        [-(ctx.delta_k - ctx.delta_target)]])
    sigma = np.concatenate([-np.sign(ctx.A[:, jd].T @ y), [1.0]])
    c = np.zeros(n_lp)
    c[-1] = -1.0
    lp = StandardLp(c, a_eq, b_eq, d, e, sigma)
    x0 = np.concatenate([ctx.x_start[jd], [0.0]])
    return lp, x0


def lp_from_parts(cost, eq_matrix=None, eq_rhs=None, ub_matrix=None, ub_rhs=None,
                  free_vars=None) -> GeneralLp:
    """Convenience constructor; ``free_vars`` lists indices with lower = -inf."""
    cost = as_vector(cost, "cost")
    n = cost.size
    eq_matrix = np.zeros((0, n)) if eq_matrix is None else np.asarray(eq_matrix, dtype=float).reshape(-1, n)
    eq_rhs = np.zeros(0) if eq_rhs is None else as_vector(eq_rhs, "eq_rhs")
    ub_matrix = np.zeros((0, n)) if ub_matrix is None else np.asarray(ub_matrix, dtype=float).reshape(-1, n)
    ub_rhs = np.zeros(0) if ub_rhs is None else as_vector(ub_rhs, "ub_rhs")
    lower = np.zeros(n)
    if free_vars is not None:
        for j in free_vars:
            lower[j] = -np.inf
    return GeneralLp(cost, eq_matrix, eq_rhs, ub_matrix, ub_rhs, lower)


def split_recover(z: np.ndarray, n: int) -> np.ndarray:
    return z[:n] - z[n:2 * n]


def write_matrixmarket_array(a: np.ndarray) -> str:
    a = as_matrix(a)
    rows = [f"%%MatrixMarket matrix array real general", f"{a.shape[0]} {a.shape[1]}"]
    for j in range(a.shape[1]):
        for i in range(a.shape[0]):
            rows.append(repr(float(a[i, j])))
    return "\n".join(rows) + "\n"
