"""Brute-force LP oracle: a dense two-phase tableau simplex with Bland's rule.

Serves as an independent cross-check for the homotopy solver and its
active-set subsolvers.  Bland's rule makes termination unconditional, so
speed is intentionally traded away; intended for desk-scale problems
(up to a few hundred variables).

The general form handled here is

    min  cost^T x
    s.t. eq_matrix x  = eq_rhs
         ub_matrix x <= ub_rhs
         x_j >= 0      where lower[j] == 0   (lower[j] = -inf means free)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
STRICT_SLACK_TOL = 1e-9
MAX_PIVOTS = 50000
L1_CERT_TOL = 1e-8   # certificate_l1: support threshold on x_bar; its self-check allows 10x


@dataclass
class GeneralLp:
    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    lower: np.ndarray  # per-variable lower bound, each entry 0.0 or -inf

    def __post_init__(self):
        self.cost = as_vector(self.cost, "cost")
        n = self.cost.size
        self.eq_matrix = as_matrix(np.asarray(self.eq_matrix, dtype=float).reshape(-1, n), "eq_matrix")
        self.eq_rhs = as_vector(self.eq_rhs, "eq_rhs")
        self.ub_matrix = as_matrix(np.asarray(self.ub_matrix, dtype=float).reshape(-1, n), "ub_matrix")
        self.ub_rhs = as_vector(self.ub_rhs, "ub_rhs")
        self.lower = np.asarray(self.lower, dtype=float)
        if self.eq_matrix.shape != (self.eq_rhs.size, n):
            raise ValueError("eq_matrix shape inconsistent with cost/eq_rhs")
        if self.ub_matrix.shape != (self.ub_rhs.size, n):
            raise ValueError("ub_matrix shape inconsistent with cost/ub_rhs")
        if self.lower.shape != (n,):
            raise ValueError("lower must have one entry per variable")
        if not np.all((self.lower == 0.0) | np.isneginf(self.lower)):
            raise ValueError("lower bounds must be 0 or -inf")

    @property
    def n(self) -> int:
        return self.cost.size


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None


class _Tableau:
    """Dense simplex tableau with artificial columns kept for dual recovery."""

    def __init__(self, m_rows: np.ndarray, rhs: np.ndarray):
        m, n = m_rows.shape
        self.m, self.n = m, n
        self.flip = np.where(rhs < 0.0, -1.0, 1.0)
        body = m_rows * self.flip[:, None]
        b = rhs * self.flip
        # columns: structural (n) | artificial (m) | rhs
        self.t = np.zeros((m + 1, n + m + 1))
        self.t[:m, :n] = body
        self.t[:m, n:n + m] = np.eye(m)
        self.t[:m, -1] = b
        self.basis = list(range(n, n + m))
        self.art_start = n

    def set_objective(self, cost: np.ndarray):
        obj = np.zeros(self.t.shape[1])
        obj[:cost.size] = cost
        self.t[-1, :] = obj
        for r, j in enumerate(self.basis):
            cj = self.t[-1, j]
            if abs(cj) > 0.0:
                self.t[-1, :] -= cj * self.t[r, :]

    def pivot(self, row: int, col: int):
        self.t[row, :] /= self.t[row, col]
        factors = self.t[:, col].copy()
        factors[row] = 0.0
        self.t -= np.outer(factors, self.t[row, :])
        self.t[:, col] = 0.0
        self.t[row, col] = 1.0
        self.basis[row] = col

    def run(self, allowed_cols: int) -> str:
        """Bland's rule: entering = smallest eligible column index; leaving =
        smallest basis index among minimum-ratio rows."""
        for _ in range(MAX_PIVOTS):
            enter = -1
            for j in range(allowed_cols):
                if self.t[-1, j] < -PIVOT_TOL:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            ratios = np.full(self.m, np.inf)
            col = self.t[:self.m, enter]
            pos = col > PIVOT_TOL
            ratios[pos] = self.t[:self.m, -1][pos] / col[pos]
            best = np.min(ratios) if self.m else np.inf
            if not np.isfinite(best):
                return "unbounded"
            leave, leave_var = -1, None
            for i in range(self.m):
                if ratios[i] <= best + PIVOT_TOL * (1.0 + abs(best)):
                    if leave_var is None or self.basis[i] < leave_var:
                        leave, leave_var = i, self.basis[i]
            self.pivot(leave, enter)
        raise RuntimeError("simplex pivot limit exceeded")

    def drive_out_artificials(self):
        for r in range(self.m):
            if self.basis[r] >= self.art_start:
                for j in range(self.art_start):
                    if abs(self.t[r, j]) > PIVOT_TOL:
                        self.pivot(r, j)
                        break
                # if no structural pivot exists the row is redundant; the
                # artificial stays basic at value 0 with an all-zero row

    def solution(self) -> np.ndarray:
        z = np.zeros(self.art_start)
        for r, j in enumerate(self.basis):
            if j < self.art_start:
                z[j] = self.t[r, -1]
        return z

    def row_duals(self) -> np.ndarray:
        # reduced cost of artificial i is -y_i for the (sign-normalized) rows
        y_norm = -self.t[-1, self.art_start:self.art_start + self.m]
        return y_norm * self.flip


def _standardize(lp: GeneralLp):
    """Split free variables, append slacks; returns (M, rhs, cost, recover)."""
    n = lp.n
    free = np.isneginf(lp.lower)
    cols = []
    col_cost = []
    col_map = []  # (var index, sign)
    for j in range(n):
        cols.append(j)
        col_cost.append(lp.cost[j])
        col_map.append((j, 1.0))
        if free[j]:
            cols.append(j)
            col_cost.append(-lp.cost[j])
            col_map.append((j, -1.0))
    me, mu = lp.eq_rhs.size, lp.ub_rhs.size
    width = len(col_map) + mu
    big = np.vstack([lp.eq_matrix, lp.ub_matrix]) if me + mu else np.zeros((0, n))
    m_std = np.zeros((me + mu, width))
    for k, (j, s) in enumerate(col_map):
        m_std[:, k] = s * big[:, j]
    for i in range(mu):
        m_std[me + i, len(col_map) + i] = 1.0
    rhs = np.concatenate([lp.eq_rhs, lp.ub_rhs])
    cost = np.concatenate([np.array(col_cost), np.zeros(mu)])

    def recover(z: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        for k, (j, s) in enumerate(col_map):
            x[j] += s * z[k]
        return x

    return m_std, rhs, cost, recover


def simplex_solve(lp: GeneralLp) -> SimplexResult:
    """Two-phase simplex.  Returns optimal x, value and row duals
    (stationarity: eq_matrix^T dual_eq + ub_matrix^T dual_ub <= cost on
    nonnegative columns, with equality on basic/free ones)."""
    m_std, rhs, cost, recover = _standardize(lp)
    me, mu = lp.eq_rhs.size, lp.ub_rhs.size
    tab = _Tableau(m_std, rhs)

    phase1 = np.zeros(tab.t.shape[1] - 1)
    phase1[tab.art_start:] = 1.0
    tab.set_objective(phase1)
    status = tab.run(allowed_cols=tab.art_start)
    if status != "optimal":
        raise RuntimeError("phase-1 problem cannot be unbounded")
    art_sum = sum(tab.t[r, -1] for r in range(tab.m) if tab.basis[r] >= tab.art_start)
    if art_sum > FEAS_TOL * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        return SimplexResult("infeasible")
    tab.drive_out_artificials()

    tab.set_objective(cost)
    status = tab.run(allowed_cols=tab.art_start)
    if status == "unbounded":
        return SimplexResult("unbounded")
    z = tab.solution()
    x = recover(z)
    duals = tab.row_duals()
    return SimplexResult("optimal", x=x, value=float(lp.cost @ x),
                         dual_eq=duals[:me], dual_ub=duals[me:me + mu])


def feasibility(lp: GeneralLp, strict_ub_row: int | None = None) -> bool:
    """Phase-1 feasibility test.

    When ``strict_ub_row`` is given, that <= row must hold strictly; this is
    decided by maximizing its slack (capped at 1) and testing the optimum
    against STRICT_SLACK_TOL.
    """
    if strict_ub_row is None:
        probe = GeneralLp(np.zeros(lp.n), lp.eq_matrix, lp.eq_rhs,
                          lp.ub_matrix, lp.ub_rhs, lp.lower)
        return simplex_solve(probe).status != "infeasible"

    i = int(strict_ub_row)
    n = lp.n
    # extra variable s in [0, 1]: row_i x + s <= rhs_i, maximize s
    ub = np.zeros((lp.ub_rhs.size + 1, n + 1))
    ub[:-1, :n] = lp.ub_matrix
    ub[i, n] = 1.0
    ub[-1, n] = 1.0
    ub_rhs = np.concatenate([lp.ub_rhs, [1.0]])
    eq = np.hstack([lp.eq_matrix, np.zeros((lp.eq_rhs.size, 1))])
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    lower = np.concatenate([lp.lower, [0.0]])
    probe = GeneralLp(cost, eq, lp.eq_rhs, ub, ub_rhs, lower)
    res = simplex_solve(probe)
    if res.status == "infeasible":
        return False
    if res.status == "unbounded":
        raise RuntimeError("slack-capped feasibility probe cannot be unbounded")
    return -res.value > STRICT_SLACK_TOL


def reformulate(inst) -> GeneralLp:
    """LP reformulation of min ||x||_1 s.t. ||Ax-b||_inf <= delta via the
    split x = x+ - x- and slack variables:

        min 1^T x+ + 1^T x-
        s.t. [ A -A  I  0] (x+,x-,s+,s-) = (b + delta 1)
             [-A  A  0  I]                 (-b + delta 1)
        all variables >= 0.

    Recover the original solution as x = z[:n] - z[n:2n].
    """
    a, b, delta = inst.A, inst.b, inst.delta
    m, n = a.shape
    eq = np.zeros((2 * m, 2 * n + 2 * m))
    eq[:m, :n] = a
    eq[:m, n:2 * n] = -a
    eq[:m, 2 * n:2 * n + m] = np.eye(m)
    eq[m:, :n] = -a
    eq[m:, n:2 * n] = a
    eq[m:, 2 * n + m:] = np.eye(m)
    rhs = np.concatenate([b + delta, -b + delta])
    cost = np.concatenate([np.ones(2 * n), np.zeros(2 * m)])
    return GeneralLp(cost, eq, rhs, np.zeros((0, 2 * n + 2 * m)), np.zeros(0),
                     np.zeros(2 * n + 2 * m))


def certificate_l1(a: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    """Minimum-l1-norm dual certificate: min ||y||_1 s.t. -A^T y in Sign(x_bar).

    Raises ValueError when infeasible (x_bar is then not l1-minimal for
    A x = A x_bar).
    """
    a = as_matrix(a)
    x_bar = as_vector(x_bar, "x_bar")
    m, n = a.shape
    supp = np.flatnonzero(np.abs(x_bar) > L1_CERT_TOL)
    off = np.setdiff1d(np.arange(n), supp)
    # variables (y+, y-) >= 0, y = y+ - y-
    eq = np.zeros((supp.size, 2 * m))
    eq[:, :m] = -a[:, supp].T
    eq[:, m:] = a[:, supp].T
    eq_rhs = np.sign(x_bar[supp])
    ub = np.zeros((2 * off.size, 2 * m))
    ub[:off.size, :m] = a[:, off].T
    ub[:off.size, m:] = -a[:, off].T
    ub[off.size:, :m] = -a[:, off].T
    ub[off.size:, m:] = a[:, off].T
    ub_rhs = np.ones(2 * off.size)
    lp = GeneralLp(np.ones(2 * m), eq, eq_rhs, ub, ub_rhs, np.zeros(2 * m))
    res = simplex_solve(lp)
    if res.status != "optimal":
        raise ValueError(f"certificate LP is {res.status}; x_bar is not l1-minimal")
    y = res.x[:m] - res.x[m:]
    g = a.T @ y
    if np.any(np.abs(g[supp] + np.sign(x_bar[supp])) > 10 * L1_CERT_TOL) or \
            np.any(np.abs(g[off]) > 1 + 10 * L1_CERT_TOL):
        raise RuntimeError("certificate LP solution fails its own constraints")
    return y
