"""Homotopy driver for min ||x||_1 subject to ||A x - b||_inf <= delta.

The bound is treated as a homotopy parameter: starting from
delta_0 = ||b||_inf (where x = 0 is optimal) it is driven down to the
requested target.  Each iteration first refreshes the dual certificate
(``dual_update``), then takes the maximal primal step (``primal_update``),
producing one breakpoint of the piecewise-linear primal solution path; the
dual path is piecewise constant between breakpoints.  Multiplier-system
solutions are passed across subproblems as warm starts, and each
breakpoint records the index sets and residual signs that the two
subsolvers end with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .active_set import (ACTIVE_TOL, OPT_TOL, SUPPORT_TOL, AsmError,
                         UnboundedDirectionError)
from .dual_update import DualContext, dual_update
from .encodings import improvement_system_dual, improvement_system_primal
from .linalg import IndexSet, InverseCarry, KernelCounts, as_matrix, as_vector
from .primal_update import PrimalContext, primal_update

PAIR_TOL = 1e-8        # optimal-pair certification tolerance
INIT_TIE_RTOL = 1e-12  # ties for the initial active rows |b_i| = ||b||_inf
T_MIN = 1e-12          # a primal step at or below this is a degenerate step
QUERY_TOL = 1e-9       # breakpoint matching in eval_path


@dataclass
class ProblemInstance:
    A: np.ndarray
    b: np.ndarray
    delta: float

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.b = as_vector(self.b, "b")
        self.delta = float(self.delta)
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b have incompatible shapes")
        if self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError("A must have at least one row and one column")
        if not self.delta >= 0.0:
            raise ValueError("delta must be nonnegative")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class IndexSets:
    J_P: IndexSet
    I_P: IndexSet
    J_D: IndexSet
    I_D: IndexSet
    residual_signs: np.ndarray  # aligned with I_P


@dataclass
class PathBreakpoint:
    k: int
    delta_k: float
    x: np.ndarray
    y: np.ndarray
    sets: IndexSets
    t_step: float


@dataclass
class SolutionPath:
    breakpoints: list[PathBreakpoint]
    terminated: str                      # "target-reached" | "failure"
    failure_reason: str | None = None
    dual_iterations: int = 0
    primal_iterations: int = 0
    retries: int = 0
    timing: dict = field(default_factory=dict)
    kernel: KernelCounts = field(default_factory=KernelCounts)

    @property
    def x_final(self) -> np.ndarray:
        return self.breakpoints[-1].x

    @property
    def objective(self) -> float:
        return float(np.sum(np.abs(self.x_final)))


def check_optimal_pair(inst: ProblemInstance, x, y, delta: float,
                       tol: float = PAIR_TOL) -> bool:
    """Subgradient certification of an optimal pair:
    -A^T y in Sign(x) and A x - b in delta * Sign(y), within tol."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    g = inst.A.T @ y
    if np.where(np.abs(x) > tol, np.abs(g + np.sign(x)) > tol, np.abs(g) > 1.0 + tol).any():
        return False
    r = inst.A @ x - inst.b
    rtol = tol * (1.0 + delta)
    return not np.where(np.abs(y) > tol, np.abs(r - delta * np.sign(y)) > rtol,
                        np.abs(r) > delta + rtol).any()


def duality_gap(inst: ProblemInstance, x, y, delta: float) -> float:
    primal = float(np.sum(np.abs(x)))
    dual = float(-inst.b @ y - delta * np.sum(np.abs(y)))
    return abs(primal - dual)


def _build_sets(inst: ProblemInstance, x, y, delta: float) -> IndexSets:
    """The sets of (x, y) at bound delta, classified by tolerance."""
    resid = inst.A @ x - inst.b
    scale = ACTIVE_TOL * (1.0 + delta + np.max(np.abs(inst.b)))
    i_d = np.abs(y) > SUPPORT_TOL
    i_p = (np.abs(np.abs(resid) - delta) <= scale) | i_d
    j_p = np.abs(x) > SUPPORT_TOL
    j_d = (np.abs(np.abs(inst.A.T @ y) - 1.0) <= 2 * ACTIVE_TOL) | j_p
    return _record(j_p, i_p, j_d, i_d, np.sign(resid[i_p]))


def _record(j_p, i_p, j_d, i_d, signs: np.ndarray) -> IndexSets:
    """The breakpoint record of four set masks; ``signs`` is aligned with
    the rows of i_p."""
    return IndexSets(J_P=IndexSet.from_mask(j_p), I_P=IndexSet.from_mask(i_p),
                     J_D=IndexSet.from_mask(j_d), I_D=IndexSet.from_mask(i_d),
                     residual_signs=signs)


def solve_path(inst: ProblemInstance, use_warm_starts: bool = True,
               max_iters: int | None = None, trace=None) -> SolutionPath:
    """Compute the full breakpoint path from ||b||_inf down to inst.delta.

    ``trace`` receives one dict per homotopy iteration.
    """
    m, n = inst.m, inst.n
    delta0 = float(np.max(np.abs(inst.b)))
    x = np.zeros(n)
    y = np.zeros(m)

    if inst.delta >= delta0 * (1.0 - INIT_TIE_RTOL):
        sets = _build_sets(inst, x, y, inst.delta)
        bp = PathBreakpoint(0, inst.delta, x, y, sets, 0.0)
        return SolutionPath([bp], "target-reached")

    # at x = 0, y = 0 the active rows are all i with |b_i| = ||b||_inf up
    # to a relative tie, and every other set is empty; signs holds the
    # residual signs on I_P and zeros elsewhere.  The sets are masks, which
    # the subproblems read and do not edit
    i_p = np.abs(inst.b) >= delta0 * (1.0 - INIT_TIE_RTOL)
    j_p = np.zeros(n, dtype=bool)
    signs = np.zeros(m)
    signs[i_p] = np.sign(-inst.b[i_p])
    sets = _record(j_p, i_p, j_p, np.zeros(m, dtype=bool), signs[i_p])
    path = SolutionPath([PathBreakpoint(0, delta0, x.copy(), y.copy(), sets, 0.0)],
                        "failure")
    path.timing = {"dual_s": 0.0, "primal_s": 0.0}
    carry = InverseCarry()   # one kernel system and inverse follow the whole path
    path.kernel = carry.counts
    delta_k = delta0
    warm_e: np.ndarray | None = None
    if max_iters is None:
        max_iters = 20 * (m + n)

    for k in range(max_iters):
        # theory rules out a zero step at an exact dual optimum; after one,
        # the step is retried once, cold and with a tighter multiplier tolerance
        for retry in (False, True):
            warm = use_warm_starts and not retry
            opt_tol = OPT_TOL / 100.0 if retry else OPT_TOL
            stage = "dual"
            try:
                dual_ctx = DualContext(inst.A, x, i_p, j_p, signs, y_start=y,
                                       warm_direction=warm_e if warm else None,
                                       carry=carry)
                tick = time.perf_counter()
                dual_res = dual_update(dual_ctx, opt_tol=opt_tol)
                path.timing["dual_s"] += time.perf_counter() - tick
                path.dual_iterations += dual_res.iterations

                stage = "primal"
                primal_ctx = PrimalContext(
                    inst.A, inst.b, dual_res.y, delta_k, inst.delta, x, i_p, j_p,
                    dual_res.I_D, dual_res.J_D, signs, dual_res.col_y,
                    warm_direction=dual_res.d_hat if warm else None, carry=carry)
                tick = time.perf_counter()
                primal_res = primal_update(primal_ctx, opt_tol=opt_tol)
                path.timing["primal_s"] += time.perf_counter() - tick
                path.primal_iterations += primal_res.iterations
            except (AsmError, ValueError) as exc:
                if retry:
                    path.failure_reason = f"degenerate-step retry failed at iteration {k}: {exc}"
                elif stage == "dual" and isinstance(exc, UnboundedDirectionError):
                    # unbounded certificate face: the bound cannot shrink any
                    # further, so the target lies below the least feasible value
                    # of ||Ax-b||_inf (possible whenever A has more rows than columns)
                    path.failure_reason = (
                        f"target delta={inst.delta:g} is below the minimal feasible "
                        f"bound; path stopped at delta={delta_k:g}")
                else:
                    path.failure_reason = f"{stage} update failed at iteration {k}: {exc}"
                return path
            if primal_res.t > T_MIN or primal_res.reached_target:
                break
            if retry:
                path.failure_reason = (
                    f"degenerate step at iteration {k}: t={primal_res.t:.3e} "
                    f"with delta_k={delta_k:.6e}")
                return path
            path.retries += 1

        t = float(primal_res.t)
        x = primal_res.x
        y = dual_res.y
        delta_next = inst.delta if primal_res.reached_target else delta_k - t
        if delta_next < inst.delta + T_MIN * (1.0 + inst.delta):
            delta_next = inst.delta
        i_p, j_p = primal_res.I_P, primal_res.J_P
        i_p_signs = primal_res.signs[i_p]
        signs = np.zeros(m)
        signs[i_p] = i_p_signs
        sets = _record(j_p, i_p, dual_res.J_D, dual_res.I_D, i_p_signs)
        # x and y are fresh arrays of the two updates, which the next
        # iteration only reads: the breakpoint keeps them uncopied
        path.breakpoints.append(PathBreakpoint(k + 1, delta_next, x, y, sets, t))
        if trace is not None:
            trace({"k": k + 1, "delta": delta_next, "t": t,
                   "nnz_x": len(sets.J_P), "nnz_y": len(sets.I_D),
                   "active_rows": len(sets.I_P), "active_cols": len(sets.J_D),
                   "dual_iters": dual_res.iterations,
                   "primal_iters": primal_res.iterations,
                   "kernel_updates": path.kernel.updates, "kernel_fresh": path.kernel.fresh,
                   "kernel_drift": path.kernel.drift, "kernel_svd": path.kernel.svd})
        if delta_next <= inst.delta:
            path.terminated = "target-reached"
            return path
        delta_k = delta_next
        warm_e = primal_res.e_hat
    path.failure_reason = f"homotopy iteration cap {max_iters} exceeded"
    return path


def eval_path(path: SolutionPath, delta_query: float) -> tuple[np.ndarray, np.ndarray]:
    """Solution at an intermediate bound: x interpolates linearly between the
    bracketing breakpoints, y is the certificate of the covering segment."""
    bps = path.breakpoints
    q = float(delta_query)
    hi = bps[0].delta_k
    lo = bps[-1].delta_k
    tol = QUERY_TOL * (1.0 + abs(q))
    if q > hi + tol or q < lo - tol:
        raise ValueError(f"query {q} outside path range [{lo}, {hi}]")
    q = min(max(q, lo), hi)
    for bp in bps:
        if abs(bp.delta_k - q) <= tol:
            return bp.x.copy(), bp.y.copy()
    for upper, lower in zip(bps, bps[1:]):
        if lower.delta_k < q < upper.delta_k:
            w = (upper.delta_k - q) / (upper.delta_k - lower.delta_k)
            return upper.x + w * (lower.x - upper.x), lower.y.copy()
    raise ValueError(f"query {q} not bracketed by breakpoints")


def check_alternatives(inst: ProblemInstance, x_hat, y_hat,
                       delta_hat: float) -> tuple[bool, bool]:
    """Feasibility of the two mutually exclusive improvement-direction
    systems at an optimal pair: (dual improvement possible, primal
    improvement possible).  Exactly one holds for 0 < delta_hat < ||b||_inf."""
    x_hat = as_vector(x_hat, "x_hat")
    y_hat = as_vector(y_hat, "y_hat")
    if not check_optimal_pair(inst, x_hat, y_hat, delta_hat):
        raise ValueError("(x_hat, y_hat) is not an optimal pair at delta_hat")
    sets = _build_sets(inst, x_hat, y_hat, delta_hat)
    i_p, j_p, j_d, i_d = (s.array for s in (sets.I_P, sets.J_P, sets.J_D, sets.I_D))
    signs = np.zeros(inst.m)
    signs[i_p] = sets.residual_signs
    sys1 = improvement_system_dual(inst.A, signs, y_hat, i_p, j_p, j_d, i_d)
    sys2 = improvement_system_primal(inst.A, signs, y_hat, i_p, j_p, j_d, i_d)
    return (oracle.feasibility(sys1, strict_ub_row=0), oracle.feasibility(sys2))
