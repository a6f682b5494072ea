"""Active-set method for linear programs of the structured form

    min  c^T x
    s.t. A_eq x  = b_eq
         D x    >= e
         diag(sigma) x >= 0,          sigma in {+1, -1}^n,

assumed feasible and bounded.  The solver walks from a feasible point
along directions that preserve the current active set (tight D rows) and
support (nonzero variables), alternating with Lagrange-multiplier rounds
that relax one active constraint or open one support variable at a time.

Degenerate steps are handled with two ledgers: indices recently removed
from the active set and indices recently added to the support.  A
zero-length step re-adds/re-removes the blocking subset of the ledgers; a
positive step with more than one ledger entry re-activates entries the
direction left tight and then clears both ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SolveReport, as_matrix, as_vector, solve_consistent

ACTIVE_TOL = 1e-9       # inequality i is active iff |d_i^T x - e_i| <= ACTIVE_TOL*(1+|e_i|)
SUPPORT_TOL = 1e-9      # variable j is in the support iff |x_j| > SUPPORT_TOL
OPT_TOL = 1e-9          # multiplier nonnegativity slack
TIE_RTOL = 1e-9         # blocking-set membership width around the minimal ratio
ZERO_STEP_TOL = 1e-12   # alpha at or below this counts as a zero step
FEAS_TOL = 1e-8         # feasibility validation of supplied starting points


class AsmError(RuntimeError):
    pass


class UnboundedDirectionError(AsmError):
    """No blocking index limits the step: the boundedness contract is violated."""


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


@dataclass
class AsmState:
    """Index sets are sorted int arrays."""

    x: np.ndarray
    active: np.ndarray             # tight D rows
    support: np.ndarray            # nonzero variables
    recently_removed: np.ndarray
    recently_added: np.ndarray
    iteration: int = 0


@dataclass
class Multipliers:
    lam: np.ndarray          # equality multipliers, length m
    mu_active: np.ndarray    # aligned with state.active
    nu_inactive: np.ndarray  # aligned with complement(state.support, lp.n)

    def expand(self, lp: StandardLp, state: AsmState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mu = np.zeros(lp.n_ineq)
        mu[state.active] = self.mu_active
        nu = np.zeros(lp.n)
        nu[complement(state.support, lp.n)] = self.nu_inactive
        return self.lam, mu, nu


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


def find_direction(lp: StandardLp, state: AsmState) -> SolveReport:
    """Direction preserving equalities, active rows and zero variables while
    decreasing cost at unit rate: solve

        [A_eq_S; D^act_S; c_S^T] xi_S = (0, ..., 0, -1),   xi on support only.
    """
    s = state.support
    rows = [lp.A_eq[:, s], lp.D[state.active][:, s], lp.c[s][None, :]]
    m = np.vstack(rows)
    rhs = np.zeros(m.shape[0])
    rhs[-1] = -1.0
    report = solve_consistent(m, rhs)
    if report.consistent:
        xi = np.zeros(lp.n)
        xi[s] = report.solution
        return SolveReport(xi, report.residual_norm, True)
    return report


def _direction_after_support_add(lp: StandardLp, state: AsmState, j: int) -> SolveReport:
    """Variable-fixing variant usable right after j entered the support: fix
    xi_j = sigma_j, drop the cost row, solve the smaller homogeneous system,
    then rescale so that c^T xi = -1.  Falls back to the full system when the
    reduced one is inconsistent or numerically unusable."""
    s_rest = np.setdiff1d(state.support, [j])
    m = np.vstack([lp.A_eq[:, s_rest], lp.D[state.active][:, s_rest]])
    rhs = -lp.sigma[j] * np.concatenate([lp.A_eq[:, j], lp.D[state.active][:, j]])
    report = solve_consistent(m, rhs)
    if report.consistent:
        xi = np.zeros(lp.n)
        xi[s_rest] = report.solution
        xi[j] = lp.sigma[j]
        descent = float(lp.c @ xi)
        if descent < -1e-12:
            return SolveReport(xi / (-descent), report.residual_norm, True)
    return find_direction(lp, state)


def step_size(lp: StandardLp, state: AsmState,
              xi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest feasible step along xi and the blocking index sets
    (inactive rows that become tight, support variables that hit zero)."""
    xi = as_vector(xi, "xi")
    ratios_a: list[tuple[float, int]] = []
    for i in complement(state.active, lp.n_ineq):
        d_xi = float(lp.D[i] @ xi)
        if d_xi < -ZERO_STEP_TOL:
            ratios_a.append((max((lp.e[i] - float(lp.D[i] @ state.x)) / d_xi, 0.0), i))
    ratios_s: list[tuple[float, int]] = []
    for j in state.support:
        if lp.sigma[j] * xi[j] < -ZERO_STEP_TOL:
            ratios_s.append((max(-state.x[j] / xi[j], 0.0), j))
    if not ratios_a and not ratios_s:
        raise UnboundedDirectionError("no blocking constraint limits the step")
    alpha = min(r for r, _ in ratios_a + ratios_s)
    width = alpha + TIE_RTOL * (1.0 + alpha)
    new_active = np.array([i for r, i in ratios_a if r <= width], dtype=np.intp)
    leaving = np.array([j for r, j in ratios_s if r <= width], dtype=np.intp)
    return alpha, new_active, leaving


def multipliers(lp: StandardLp, state: AsmState) -> Multipliers:
    """Solve the stationarity system on the support for (lambda, mu_active)
    and read off nu on the inactive variables."""
    s = state.support
    act = state.active
    m = np.hstack([lp.A_eq[:, s].T, lp.D[act][:, s].T])
    report = solve_consistent(m, lp.c[s])
    if not report.consistent:
        raise AsmError("stationarity system inconsistent although no direction exists")
    n_eq = lp.b_eq.size
    lam = report.solution[:n_eq]
    mu_act = report.solution[n_eq:]
    sc = complement(s, lp.n)
    nu = lp.sigma[sc] * (lp.c[sc] - lp.A_eq[:, sc].T @ lam - lp.D[act][:, sc].T @ mu_act)
    return Multipliers(lam, mu_act, nu)


def _argmin_with_ties(values: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Smallest value; labels arrive sorted, so ties keep the smallest label."""
    best_val, best_label = np.inf, -1
    for v, lab in zip(values, labels):
        if v < best_val:
            best_val, best_label = float(v), int(lab)
    return best_val, best_label


def asm_solve(lp: StandardLp, x0, xi0=None, max_iters: int | None = None,
              trace=None) -> tuple[np.ndarray, AsmState, Multipliers]:
    """Run the active-set method from a feasible x0.

    ``xi0``, when given, is used as the first direction (it must satisfy the
    direction-system equations for the initial active set and support).
    ``trace`` receives (iteration, alpha, |active|, |support|, objective)
    after every step.
    """
    x = as_vector(x0, "x0").copy()
    if x.size != lp.n:
        raise ValueError("x0 has wrong length")
    if not check_feasible(lp, x):
        raise ValueError("x0 is not feasible")
    x[np.abs(x) <= SUPPORT_TOL] = 0.0
    active, support = classify(lp, x)
    state = AsmState(x, active, support, np.empty(0, dtype=np.intp),
                     np.empty(0, dtype=np.intp))
    if max_iters is None:
        max_iters = 50 * (lp.n + lp.n_ineq + lp.b_eq.size + 5)

    pending_xi = None if xi0 is None else as_vector(xi0, "xi0").copy()
    last_added: int | None = None
    for it in range(max_iters):
        state.iteration = it
        if pending_xi is not None:
            xi, have_direction = pending_xi, True
            pending_xi = None
        else:
            if last_added is not None:
                report = _direction_after_support_add(lp, state, last_added)
            else:
                report = find_direction(lp, state)
            xi, have_direction = report.solution, report.consistent

        if have_direction:
            last_added = None
            alpha, blocked_active, blocked_support = step_size(lp, state, xi)
            state.x = state.x + alpha * xi
            state.x[blocked_support] = 0.0
            state.active = np.union1d(state.active, blocked_active)
            state.support = np.setdiff1d(state.support, blocked_support)
            if alpha <= ZERO_STEP_TOL:
                state.recently_removed = np.setdiff1d(state.recently_removed, blocked_active)
                state.recently_added = np.setdiff1d(state.recently_added, blocked_support)
            elif state.recently_removed.size + state.recently_added.size > 1:
                # entries the direction kept tight stay active / out of support;
                # the extra activity test filters entries that pre-date the
                # last positive step and have drifted off their bound
                stay = np.array([i for i in state.recently_removed
                                 if abs(float(lp.D[i] @ xi)) <= TIE_RTOL
                                 and abs(float(lp.D[i] @ state.x) - lp.e[i])
                                 <= ACTIVE_TOL * (1.0 + abs(lp.e[i]))], dtype=np.intp)
                added = state.recently_added
                drop = added[(np.abs(xi[added]) <= TIE_RTOL)
                             & (np.abs(state.x[added]) <= SUPPORT_TOL)]
                state.active = np.union1d(state.active, stay)
                state.x[drop] = 0.0
                state.support = np.setdiff1d(state.support, drop)
                state.recently_removed = np.empty(0, dtype=np.intp)
                state.recently_added = np.empty(0, dtype=np.intp)
            if trace is not None:
                trace((it, alpha, len(state.active), len(state.support),
                       float(lp.c @ state.x)))
            continue

        mult = multipliers(lp, state)
        mu_best, i_minus = _argmin_with_ties(mult.mu_active, state.active)
        nu_best, j_plus = _argmin_with_ties(mult.nu_inactive, complement(state.support, lp.n))
        if mu_best >= -OPT_TOL and nu_best >= -OPT_TOL:
            return state.x, state, mult
        if mu_best < nu_best:
            state.active = np.setdiff1d(state.active, [i_minus])
            state.recently_removed = np.union1d(state.recently_removed, [i_minus])
            last_added = None
        else:
            state.support = np.union1d(state.support, [j_plus])
            state.recently_added = np.union1d(state.recently_added, [j_plus])
            last_added = j_plus
    raise AsmError(f"iteration cap {max_iters} exceeded (cycling or numerical failure)")
