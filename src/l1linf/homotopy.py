"""Homotopy driver for min ||x||_1 subject to ||A x - b||_inf <= delta.

The bound is treated as a homotopy parameter: starting from
delta_0 = ||b||_inf (where x = 0 is optimal) it is driven down to the
requested target.  Each iteration first refreshes the dual certificate
(``dual_update``), then takes the maximal primal step (``primal_update``),
producing one breakpoint of the piecewise-linear primal solution path; the
dual path is piecewise constant between breakpoints.  Multiplier-system
solutions are passed across subproblems as warm starts, each paired with
its product with A; A^T y and A x - b are carried from one update of their
kind to the next; and each breakpoint records the index sets and
residual signs that the two subsolvers end with, and x and y on their
supports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .active_set import ACTIVE_TOL, SUPPORT_TOL, AsmError, UnboundedDirectionError
from .dual_update import DualContext, dual_update
from .encodings import improvement_system_dual, improvement_system_primal
from .linalg import (InverseCarry, KernelCounts, as_matrix, as_vector, left_product,
                     right_product)
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
        if not 0.0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and nonnegative")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class IndexSets:
    """A breakpoint's four sets, each the read-only, strictly increasing
    np.int32 array of its positions (rows for I_P and I_D, columns for J_P
    and J_D), the index width of the path export; the residual signs are
    int8."""

    J_P: np.ndarray
    I_P: np.ndarray
    J_D: np.ndarray
    I_D: np.ndarray
    residual_signs: np.ndarray  # int8 +-1, aligned with I_P


class PathBreakpoint:
    """One breakpoint of the path: its bound ``delta_k``, the primal step
    ``t_step`` that reached it (0 at k = 0), its index sets and its optimal
    pair (x, y).

    The record keeps x and y on their supports: each as its entries
    ``(size, positions, values)``, the positions being its exact nonzeros,
    a strictly increasing read-only np.int32 array.  Where those are the
    positions of J_P (for x) or of I_D (for y), the record holds that
    set's own array, so no index is stored twice.  ``x`` and ``y`` are
    dense float64 vectors, each built at every access by one scatter into
    fresh zeros and marked read-only.  Nothing is cached, since a cache
    would grow back to the size of dense vectors in a pass that reads
    every breakpoint, as certification does; a reader that needs a vector
    twice keeps it.  A zero reads as +0.0.

    A vector assigned to ``x`` or ``y``, or given to the constructor in
    place of entries, is kept exactly as given: reading the attribute
    returns that same array, writable if it was, and ``x_entries`` and
    ``y_entries`` read its nonzeros.  Neither vector reads ``sets``."""

    __slots__ = ("k", "delta_k", "_x", "_y", "sets", "t_step")

    def __init__(self, k: int, delta_k: float, x, y, sets: IndexSets, t_step: float):
        self.k, self.delta_k, self._x, self._y = k, delta_k, x, y
        self.sets, self.t_step = sets, t_step

    @property
    def x(self) -> np.ndarray:
        return _dense(self._x)

    @x.setter
    def x(self, value) -> None:
        self._x = value

    @property
    def y(self) -> np.ndarray:
        return _dense(self._y)

    @y.setter
    def y(self, value) -> None:
        self._y = value

    @property
    def x_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """x's exact nonzero positions, increasing np.int32, and its values there."""
        return _entries(self._x)

    @property
    def y_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """y's exact nonzero positions, increasing np.int32, and its values there."""
        return _entries(self._y)


def _dense(vector) -> np.ndarray:
    """A breakpoint's vector, dense: a recorded one scattered into fresh
    zeros, an assigned one as given."""
    if not isinstance(vector, tuple):
        return vector
    size, positions, values = vector
    out = np.zeros(size)
    out.put(positions, values)
    out.setflags(write=False)
    return out


def _entries(vector) -> tuple[np.ndarray, np.ndarray]:
    """A breakpoint's vector as (positions, values) of its exact nonzeros."""
    if isinstance(vector, tuple):
        return vector[1], vector[2]
    positions = vector.nonzero()[0]
    return positions.astype(np.int32), vector[positions]


@dataclass
class SolutionPath:
    breakpoints: list[PathBreakpoint]
    failure_reason: str | None = None    # None exactly when the path reached the target
    dual_iterations: int = 0
    primal_iterations: int = 0
    timing: dict = field(default_factory=dict)
    # how the path's kernel calls were solved, each non-empty call counted
    # once under its route (see KernelCounts)
    kernel: KernelCounts = field(default_factory=KernelCounts)
    # no path retries a step (a zero step ends it): perfbench tracing, the
    # export's stats and the path fingerprints read this constant
    retries = 0

    @property
    def terminated(self) -> str:
        """Read off failure_reason, which every exit above the target sets."""
        return "failure" if self.failure_reason is not None else "target-reached"

    @property
    def x_final(self) -> np.ndarray:
        return self.breakpoints[-1].x

    @property
    def objective(self) -> float:
        return float(np.sum(np.abs(self.x_final)))


def _pair(inst: ProblemInstance, x, y, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y as finite vectors of lengths n and m, for a finite delta >= 0;
    ValueError otherwise (a gathered product would take a short x or y)."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta={delta} must be finite and nonnegative")
    x, y = as_vector(x, "x"), as_vector(y, "y")
    if x.size != inst.n or y.size != inst.m:
        raise ValueError(f"x and y have lengths {x.size} and {y.size}, not n and m")
    return x, y


def check_optimal_pair(inst: ProblemInstance, x, y, delta: float,
                       tol: float = PAIR_TOL) -> bool:
    """Subgradient certification of an optimal pair:
    -A^T y in Sign(x) and A x - b in delta * Sign(y), within tol.

    The supports are the pair's own exact nonzeros, never a solver's
    sets, so an entry that should be zero is read like any other.  On a
    large A the two products read only the rows of supp(y) and the
    columns of supp(x) (``linalg.left_product``, ``right_product``): on
    the seed-1 wide-shallow paths (200 x 2000) that is 32,488 entries of
    A per breakpoint instead of 576,398.  A condition that is not
    finite fails; a tol or delta that is negative or not finite (an
    infinite one would pass any pair), or an x or y not of length n or m,
    raises ValueError.

    Both conditions are tested in one pass over w = [x; y] and
    v = [A^T y; A x - b]: where |w| > tol, v gains sign(w), times -delta on
    the y block, and |v| is held to tol (x block) or rtol = tol (1 + delta)
    (y block); elsewhere v gains a signed zero and |v| is held to 1 + tol
    or delta + rtol.  Each |v| is the float that the two conditions tested
    apart compare, since r + (-delta s) is r - delta s bit for bit and a
    signed zero changes no magnitude, so the verdicts are the same, at
    delta = 0 too."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol={tol} must be finite and nonnegative")
    x, y = _pair(inst, x, y, delta)
    n = x.size
    w = np.concatenate((x, y))
    v = np.concatenate((left_product(inst.A, y), right_product(inst.A, x) - inst.b))
    on = np.abs(w) > tol
    s = np.copysign(on, w)   # sign(w) on the supports, a signed zero off them
    s[n:] *= -delta
    v += s
    # the bound of each entry by its block and support: x off, x on, y off, y on
    pick = on.view(np.int8)
    pick[n:] += 2
    rtol = tol * (1.0 + delta)
    bound = np.array((1.0 + tol, tol, delta + rtol, rtol)).take(pick)
    return bool((np.abs(v) <= bound).all())


def duality_gap(inst: ProblemInstance, x, y, delta: float) -> float:
    """The gap | ||x||_1 + b^T y + delta ||y||_1 | of (x, y) at bound delta;
    it refuses what ``check_optimal_pair`` refuses (``_pair``)."""
    x, y = _pair(inst, x, y, delta)
    primal = float(np.sum(np.abs(x)))
    dual = float(-inst.b @ y - delta * np.sum(np.abs(y)))
    return abs(primal - dual)


def _build_sets(inst: ProblemInstance, x, y, delta: float) -> IndexSets:
    """The sets of (x, y) at bound delta, classified by tolerance."""
    resid = right_product(inst.A, x) - inst.b
    scale = ACTIVE_TOL * (1.0 + delta + np.max(np.abs(inst.b)))
    i_d = np.abs(y) > SUPPORT_TOL
    i_p = (np.abs(np.abs(resid) - delta) <= scale) | i_d
    j_p = np.abs(x) > SUPPORT_TOL
    j_d = (np.abs(np.abs(left_product(inst.A, y)) - 1.0) <= 2 * ACTIVE_TOL) | j_p
    return _record(np.arange(inst.m, dtype=np.int32), np.arange(inst.n, dtype=np.int32),
                   j_p, i_p, j_d, i_d, np.sign(resid[i_p]))


def _record(rows: np.ndarray, cols: np.ndarray, j_p, i_p, j_d, i_d,
            signs: np.ndarray) -> IndexSets:
    """The breakpoint record of four set masks, each kept as the read-only
    sorted array of its positions; ``rows`` and ``cols`` are the np.int32
    ranges of m and n, and ``signs``, aligned with the rows of i_p, is
    kept as int8.  A range indexed by a mask is one array, where
    ``mask.nonzero()[0]`` is a view and a 2-d base: about 500 bytes more a
    breakpoint.  The export's 4-byte index width and 1-byte signs, and x
    and y kept on their supports, keep the record of a seed-1 gauss-deep
    round (1,851 breakpoints) at 7.51 MB under tracemalloc (11.96 MB with
    dense x and y)."""
    sets = cols[j_p], rows[i_p], cols[j_d], rows[i_d]
    for s in sets:
        s.setflags(write=False)
    return IndexSets(*sets, signs.astype(np.int8))


def _positions(positions: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The read-only positions of a mask, taken from the np.int32 range."""
    out = positions[mask]
    out.setflags(write=False)
    return out


def _origin(delta: float, x: np.ndarray, y: np.ndarray, sets: IndexSets) -> PathBreakpoint:
    """The breakpoint at x = 0, y = 0, whose sets J_P and I_D are empty."""
    return PathBreakpoint(0, delta, (x.size, sets.J_P, x[sets.J_P]),
                          (y.size, sets.I_D, y[sets.I_D]), sets, 0.0)


def solve_path(inst: ProblemInstance, use_warm_starts: bool = True,
               max_iters: int | None = None, trace=None) -> SolutionPath:
    """Compute the full breakpoint path from ||b||_inf down to inst.delta.

    ``trace`` receives one dict per homotopy iteration.
    """
    if max_iters is not None and max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, not {max_iters}")
    m, n = inst.m, inst.n
    delta0 = float(np.max(np.abs(inst.b)))
    x = np.zeros(n)
    y = np.zeros(m)

    if inst.delta >= delta0 * (1.0 - INIT_TIE_RTOL):
        sets = _build_sets(inst, x, y, inst.delta)
        return SolutionPath([_origin(inst.delta, x, y, sets)])

    # at x = 0, y = 0 the active rows are all i with |b_i| = ||b||_inf up
    # to a relative tie, and every other set is empty; signs holds the
    # residual signs on I_P and zeros elsewhere.  The sets are masks, which
    # the subproblems read and do not edit
    i_p = np.abs(inst.b) >= delta0 * (1.0 - INIT_TIE_RTOL)
    j_p = np.zeros(n, dtype=bool)
    signs = np.zeros(m)
    signs[i_p] = np.sign(-inst.b[i_p])
    rows, cols = np.arange(m, dtype=np.int32), np.arange(n, dtype=np.int32)
    sets = _record(rows, cols, j_p, i_p, j_p, np.zeros(m, dtype=bool), signs[i_p])
    path = SolutionPath([_origin(delta0, x, y, sets)])
    path.timing = {"dual_s": 0.0, "primal_s": 0.0}
    carry = InverseCarry()   # one kernel system and inverse follow the whole path
    path.kernel = carry.counts
    delta_k = delta0
    # A^T y and A x - b at the start point, each carried on by its updates
    col_y, resid = np.zeros(n), -inst.b
    warm_e = None   # the primal's warm start (e_hat, A^T e_hat)
    if max_iters is None:
        max_iters = 20 * (m + n)

    for k in range(max_iters):
        stage = "dual"
        try:
            dual_ctx = DualContext(inst.A, i_p, j_p, signs, y_start=y, col_y_start=col_y,
                                   warm=warm_e, carry=carry)
            tick = time.perf_counter()
            dual_res = dual_update(dual_ctx)
            tock = time.perf_counter()   # primal_s counts from here
            path.timing["dual_s"] += tock - tick
            path.dual_iterations += dual_res.iterations

            stage = "primal"
            primal_ctx = PrimalContext(
                inst.A, delta_k, inst.delta, x, i_p, j_p, dual_res.I_D, dual_res.J_D,
                signs, dual_res.col_y, resid_start=resid,
                warm=dual_res.warm if use_warm_starts else None, carry=carry)
            primal_res = primal_update(primal_ctx)
            path.timing["primal_s"] += time.perf_counter() - tock
            path.primal_iterations += primal_res.iterations
        except (AsmError, ValueError) as exc:
            if stage == "dual" and isinstance(exc, UnboundedDirectionError):
                # unbounded certificate face: the bound cannot shrink any
                # further, so the target lies below the least feasible value
                # of ||Ax-b||_inf (possible whenever A has more rows than columns)
                path.failure_reason = (
                    f"target delta={inst.delta:g} is below the minimal feasible "
                    f"bound; path stopped at delta={delta_k:g}")
            else:
                path.failure_reason = f"{stage} update failed at iteration {k}: {exc}"
            return path
        # the primal update hands over no warm start exactly when it stopped
        # at the target bound
        at_target = primal_res.warm is None
        # theory rules out a zero step at an exact dual optimum, so one ends the path
        if primal_res.t <= T_MIN and not at_target:
            path.failure_reason = (
                f"degenerate step at iteration {k}: t={primal_res.t:.3e} "
                f"with delta_k={delta_k:.6e}")
            return path

        t = float(primal_res.t)
        x, resid = primal_res.x, primal_res.resid
        y, col_y = dual_res.y, dual_res.col_y
        delta_next = inst.delta if at_target else delta_k - t
        if delta_next < inst.delta + T_MIN * (1.0 + inst.delta):
            delta_next = inst.delta
        # J_P hands over the support of x: a column that the primal update
        # left at zero would hold the next dual face's |A_j^T y| = 1
        i_p, j_p = primal_res.I_P, primal_res.J_P & (np.abs(x) > SUPPORT_TOL)
        # the primal update's signs are its own copy: zero them off I_P in place
        signs = primal_res.signs
        signs[~i_p] = 0.0
        sets = _record(rows, cols, j_p, i_p, dual_res.J_D, dual_res.I_D, signs[i_p])
        # the breakpoint keeps x and y on their exact nonzeros, whose
        # positions are J_P's and I_D's own arrays wherever they coincide
        # (at all but 34 of the 18,954 breakpoints of the reference paths,
        # all on tied data).  J_P holds nonzeros of x only, so it is x's
        # support when it has as many; I_D may hold a zero of y, so it is
        # compared in full
        nz_x, nz_y = x != 0.0, y != 0.0
        x_val = x[nz_x]
        x_at = sets.J_P if x_val.size == sets.J_P.size else _positions(cols, nz_x)
        y_at = sets.I_D if not rows[nz_y != dual_res.I_D].size else _positions(rows, nz_y)
        path.breakpoints.append(PathBreakpoint(k + 1, delta_next, (n, x_at, x_val),
                                               (m, y_at, y[nz_y]), sets, t))
        if trace is not None:
            trace({"k": k + 1, "delta": delta_next, "t": t,
                   "nnz_x": len(sets.J_P), "nnz_y": len(sets.I_D),
                   "active_rows": len(sets.I_P), "active_cols": len(sets.J_D),
                   "dual_iters": dual_res.iterations,
                   "primal_iters": primal_res.iterations,
                   **{f"kernel_{key}": count for key, count in vars(path.kernel).items()}})
        if delta_next <= inst.delta:
            return path
        delta_k = delta_next
        if use_warm_starts:
            warm_e = primal_res.warm
    path.failure_reason = f"homotopy iteration cap {max_iters} exceeded"
    return path


def eval_path(path: SolutionPath, delta_query: float) -> tuple[np.ndarray, np.ndarray]:
    """Solution at an intermediate bound: x interpolates linearly between the
    bracketing breakpoints, y is the certificate of the covering segment."""
    bps = path.breakpoints
    q = float(delta_query)
    if not np.isfinite(q):
        raise ValueError(f"query {q} is not finite")
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
    i_p, j_p, j_d, i_d = sets.I_P, sets.J_P, sets.J_D, sets.I_D
    signs = np.zeros(inst.m)
    signs[i_p] = sets.residual_signs
    sys1 = improvement_system_dual(inst.A, signs, y_hat, i_p, j_p, j_d, i_d)
    sys2 = improvement_system_primal(inst.A, signs, y_hat, i_p, j_p, j_d, i_d)
    return (oracle.feasibility(sys1, strict_ub_row=0), oracle.feasibility(sys2))
