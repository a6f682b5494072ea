"""Dense linear algebra kernel: the breakpoint index-set record and
consistency-detecting solves for possibly rank-deficient systems.

Everything here is deliberately dense and deterministic.  Matrices and
vectors are plain numpy arrays of float64; ``as_matrix``/``as_vector``
coerce and validate them (finite entries only).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Residual threshold for declaring a linear system consistent:
# ||M x - rhs||_inf <= CONSISTENCY_TOL * (1 + ||rhs||_inf).
CONSISTENCY_TOL = 1e-9

# solve_consistent solves square and (k+1) x k blocks through the inverse of
# a square system from this many columns up; below it the thin SVD is as
# cheap or cheaper.  One whole call on k x k and (k+1) x k blocks, one BLAS
# thread on a 2-vCPU Xeon: the SVD takes 90 us at k = 10, 240 us at k = 30
# and 5.3 ms at k = 180, a fresh Householder QR solve 90-100 us, 110-135 us
# and 1.5 ms.  An update of the carried inverse takes 110-130 us a call on
# the replayed blocks of 12 to 29 columns of the dantzig-gram paths, where
# the QR solve took 120-150 us, and about 0.25 ms a call on the gauss-deep
# paths (mean k = 89).
QR_MIN_COLS = 12
# left_product and right_product, the products of A with a vector that is
# zero off a few rows or columns, gather those rows or columns once A has
# GATHER_MIN_SIZE entries and the vector lives on at most the share
# GATHER_ROW_SHARE of the rows or GATHER_COL_SHARE of the columns;
# otherwise they make the dense product.  Every product of a path replayed
# both ways, one BLAS thread on a 2-vCPU Xeon, dense against gathered per
# call: 200 x 2000 (wide-shallow) A^T v 170 against 20-30 us and A v 175
# against 17 us; 200 x 800 (a sparse-recovery path) A^T v 38-41 against
# 13-33 us and A v 44 against 32 us; 200 x 400 (gauss-deep) A^T v 17-20
# against 10-27 us and A v 15 against 19 us; 100 x 400 A v 9 against
# 11 us.  Below 10^5 entries a gather saves nothing.  In isolation, on
# 200 x 2000, A^T v takes 143 us dense, 20 us over a tenth of the rows and
# 92 us over a third; A v takes 133 us dense, 43 us over 5% of the
# columns, 116 us over 10% and 210 us over 15%, since a column gather is
# strided.
GATHER_MIN_SIZE = 100_000
GATHER_ROW_SHARE = 1 / 3
GATHER_COL_SHARE = 0.1
# A square system counts as nonsingular when the R of its QR factor has
# min |R_ii| > QR_RANK_RTOL * max |R_ii|.  This is five orders above the
# SVD's eps * max(shape) rank cutoff, so the two rank decisions agree away
# from the margin; systems that fail it go to the SVD.  An update of the
# carried inverse whose pivot is below QR_RANK_RTOL times the terms that
# make it is refused in the same spirit.
QR_RANK_RTOL = 1e-8
# A carried inverse's answer is kept only when one step of iterative
# refinement against the real system moves it by at most DRIFT_RTOL *
# ||u||_inf; otherwise the system is factored afresh.  Measured on 826
# paths (seed 1 of the four benchmark workloads and verify --count 200
# --seed 0, warm and cold): the corrections of 35,967 carried answers have
# median 9.3e-14 and 99.9th percentile 5.3e-11, 2 exceed the bound, and
# those of fresh inverses stay below 3e-13.
DRIFT_RTOL = 1e-10


def _max_abs(v: np.ndarray) -> float:
    """max_i |v_i| of a vector, 0 when it is empty.  argmax spares the
    set-up of a numpy reduction, which costs more than the work itself on
    the vectors of a path."""
    a = np.abs(v)
    return float(a[a.argmax()]) if a.size else 0.0


def left_product(a: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A^T v for a v that is zero off ``rows``, sorted row indices or a
    row mask; only those rows of A are read when A is large and they are
    few (see GATHER_MIN_SIZE)."""
    if a.size >= GATHER_MIN_SIZE:
        if rows.dtype == bool:
            rows = rows.nonzero()[0]
        if rows.size <= GATHER_ROW_SHARE * a.shape[0]:
            return v.take(rows) @ a.take(rows, 0)
    return a.T @ v


def right_product(a: np.ndarray, v: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A v for a v that is zero off ``cols``, sorted column indices or a
    column mask; only those columns of A are read when A is large and they
    are few (see GATHER_MIN_SIZE)."""
    if a.size >= GATHER_MIN_SIZE:
        if cols.dtype == bool:
            cols = cols.nonzero()[0]
        if cols.size <= GATHER_COL_SHARE * a.shape[1]:
            return a.take(cols, 1) @ v.take(cols)
    return a @ v


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {out.shape}")
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {out.shape}")
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 0-based positions inside a universe {0..universe-1}.

    The validated, immutable record of one index set at a path breakpoint;
    the solver itself works on sorted int arrays and boolean masks."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self):
        idx = self.indices
        if isinstance(idx, np.ndarray):     # the solver's sorted int arrays
            if idx.ndim != 1 or idx.dtype.kind not in "iu":
                raise ValueError("indices must be a 1-d integer array")
            increasing = not np.count_nonzero(idx[1:] <= idx[:-1])
            idx = tuple(idx.tolist())
        else:
            idx = tuple(idx)
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       for i in idx):
                raise ValueError("indices must be integers")
            idx = tuple(map(int, idx))
            increasing = all(map(operator.lt, idx, idx[1:]))
        object.__setattr__(self, "indices", idx)
        if not increasing:
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError(f"index out of range for universe {self.universe}")

    @staticmethod
    def from_mask(mask) -> "IndexSet":
        mask = np.asarray(mask, dtype=bool)
        return IndexSet(mask.nonzero()[0], mask.size)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


@dataclass
class SolveReport:
    """Outcome of a consistency-detecting linear solve.

    ``solution`` is None when the system is inconsistent; ``residual_norm``
    is always the sup-norm residual at the least-squares point.  A report of
    ``solve_consistent(M, rhs)`` also carries ``w``, the part of rhs outside
    range(M), and ``alternative``, the report of the other Fredholm
    alternative: z = w / ||w||^2 (z = 0 when w = 0) as a solution of
    [M^T; rhs^T] z = (0, ..., 0, 1).  Exactly one of the two systems is
    solvable in exact arithmetic.
    """

    solution: np.ndarray | None
    residual_norm: float
    consistent: bool
    w: np.ndarray | None = None
    alternative: "SolveReport | None" = None


@dataclass
class KernelCounts:
    """How the square systems of one path were solved: answers served by
    the carried inverse, fresh inverses after a passed rank test, carried
    answers refused by the refinement test, and systems that failed the
    rank test and went to the SVD."""

    updates: int = 0
    fresh: int = 0
    drift: int = 0
    svd: int = 0


class Block:
    """The block A[rows][:, cols] of a matrix A that its owner has already
    validated, without gathering it.  An index pair reads block entries as
    on an ndarray when one of the two indices is a scalar, or when both
    come from ``np.ix_``; ``np.asarray`` gathers the whole block."""

    __slots__ = ("a", "rows", "cols", "shape")

    def __init__(self, a: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.a, self.rows, self.cols = a, rows, cols
        self.shape = (rows.size, cols.size)

    def __getitem__(self, key):
        i, j = key if isinstance(key, tuple) else (key, slice(None))
        return self.a[self.rows[i], self.cols[j]]

    def __array__(self, dtype=None, copy=None):
        return self.a.take(self.rows, 0).take(self.cols, 1)


class InverseCarry:
    """The last square system S of one path and its inverse H = S^-1,
    kept from one kernel call to the next.

    S is the block itself for a square block and [M | rhs] for a (k+1) x k
    block.  Its rows carry the labels of the rows of A they come from and
    its columns the labels of A's columns, which the ``Block`` names; the
    rhs column takes the label A.shape[1], so it sorts last, and its place
    in S is ``slot`` (-1 when S has none).  S and H stay in the order in
    which rows and columns joined S, so an update never reorders them;
    ``rp`` and ``cp`` place the carried rows and columns in the current
    block.  S is the leading block of a buffer that grows, up to the row
    count of A, when a bordering needs room; H is a contiguous array, since
    the subtraction of its rank-one updates runs 3-5 times faster on one
    than on a view.  ``follow`` brings both to the next system in O(k^2)
    when that differs from S by one bordering, one un-bordering or one
    replaced column, reading the O(k) new entries of S from the block; any
    other change, new values in the rhs column included, clears them, so
    the system is gathered and factored afresh.
    """

    def __init__(self):
        self.counts = KernelCounts()
        self._sbuf = None
        self.clear()

    def clear(self) -> None:
        self.s = self.h = None
        self.rows = self.cols = self.rp = self.cp = None
        self.slot = -1

    def start(self, s: np.ndarray, h: np.ndarray, rows: np.ndarray,
              cols: np.ndarray, k: int) -> None:
        """Carry S, which becomes the buffer, and H = S^-1, the system of a
        block with k columns."""
        self.s = self._sbuf = s
        self.h = h
        self.rows, self.cols = rows.copy(), cols.copy()
        self.rp, self.cp = np.arange(rows.size), np.arange(cols.size)
        self.slot = k if cols.size > k else -1

    def follow(self, m: Block, rhs: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> bool:
        """Update S and H to the system of (m, rhs) whose sorted labels are
        rows and cols, the rhs column's label last in cols for a
        (k+1) x k block.  Returns False, and clears, when no update applies
        or an update's pivot is too small."""
        if self.h is None:
            return False
        k = m.shape[1]
        rmatch, cmatch = _match(rows, self.rows), _match(cols, self.cols)
        if rmatch is None or cmatch is None:
            self.clear()
            return False
        rpos, rgone, rnew = rmatch
        cpos, cgone, cnew = cmatch
        if cols.size > k and self.slot >= 0:
            # new values in the rhs column of a kept row: factor afresh
            moved = rhs.take(rpos, mode="clip") != self.s[:, self.slot]
            if rgone:
                moved[rgone[0]] = False
            if np.count_nonzero(moved):
                self.clear()
                return False
        change = (len(rgone), len(rnew), len(cgone), len(cnew))
        ok = True
        if change == (0, 0, 1, 1):
            q, j = cgone[0], cnew[0]
            col = m[rpos, j] if j < k else rhs[rpos]
            ok = _replace_column(self.h, q, col)
            self.s[:, q] = col
            self.cols[q], cpos[q] = cols[j], j
            if j == k:
                self.slot = q
            elif q == self.slot:
                self.slot = -1
        elif change == (0, 1, 0, 1):
            i, j = rnew[0], cnew[0]
            col = m[rpos, j] if j < k else rhs[rpos]
            row = _row(m, rhs, i)[cpos]
            corner = m[i, j] if j < k else rhs[i]
            ok = self._border(col, row, corner, m.a.shape[0])
            if j == k:
                self.slot = cpos.size
            self.rows, rpos = _appended(self.rows, rows[i]), _appended(rpos, i)
            self.cols, cpos = _appended(self.cols, cols[j]), _appended(cpos, j)
        elif change == (1, 0, 1, 0):
            ok = self._unborder(rgone[0], cgone[0], rpos, cpos)
            rpos, cpos = rpos[:-1], cpos[:-1]
        elif change != (0, 0, 0, 0):
            ok = False
        if not ok:
            self.clear()
            return False
        self.rp, self.cp = rpos, cpos
        return True

    def _border(self, col: np.ndarray, row: np.ndarray, corner: float,
                limit: int) -> bool:
        """S becomes [[S, col], [row^T, corner]] and H its inverse, from
        the Schur complement sigma = corner - row^T H col; False when sigma
        is too small.  limit, the row count of the block's matrix, bounds
        the size of S and so of its buffer."""
        h = self.h
        hc, rh = h @ col, row @ h
        sigma = corner - row @ hc
        if not abs(sigma) > QR_RANK_RTOL * (abs(corner) + np.abs(row) @ np.abs(hc)):
            return False
        size = h.shape[0]
        out = np.empty((size + 1, size + 1))
        a = hc / sigma
        np.add(h, np.outer(a, rh), out=out[:size, :size])
        out[:size, size] = -a
        out[size, :size] = rh / -sigma
        out[size, size] = 1.0 / sigma
        self.h = out
        if size == self._sbuf.shape[0]:     # a full buffer doubles, up to limit
            buf = np.empty((max(size + 1, min(2 * size, limit)),) * 2)
            buf[:size, :size] = self.s
            self._sbuf = buf
        s = self.s = self._sbuf[:size + 1, :size + 1]
        s[:size, size] = col
        s[size, :size] = row
        s[size, size] = corner
        return True

    def _unborder(self, p: int, q: int, rpos: np.ndarray, cpos: np.ndarray) -> bool:
        """Remove row p and column q of S.  With f = H e_p, g = e_q^T H and
        h = H_qp, the rank-one step H - f g^T / h zeroes column p and row q
        of H and leaves the new inverse in the rest; the last row and
        column of S and H then move into the freed places."""
        h, s = self.h, self.s
        f, g, piv = h[:, p], h[q], h[q, p]
        if not abs(piv) > QR_RANK_RTOL * max(_max_abs(f), _max_abs(g)):
            return False
        h -= np.outer(f / piv, g)
        last = h.shape[0] - 1
        h[q], h[:, p] = h[last], h[:, last]
        s[:, q], s[p] = s[:, last], s[last]
        self.cols[q], cpos[q] = self.cols[last], cpos[last]
        self.rows[p], rpos[p] = self.rows[last], rpos[last]
        self.slot = -1 if self.slot == q else q if self.slot == last else self.slot
        self.h, self.s = h[:last, :last].copy(), s[:last, :last]
        self.rows, self.cols = self.rows[:last], self.cols[:last]
        return True

    def answer(self, rhs: np.ndarray, k: int,
               carried: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(solution, w, M solution - rhs in S's order) of the block with k
        columns and right-hand side rhs, from H after one step of
        iterative refinement against S.  A carried H's answer is None when
        it is not finite or the refinement moved it by more than
        DRIFT_RTOL."""
        s, h, rp, cp = self.s, self.h, self.rp, self.cp
        if self.slot >= 0:
            # S^T u = e_last, that is M^T u = 0 and rhs^T u = 1
            u = h[self.slot].copy()
            res = -(u @ s)
            res[self.slot] += 1.0
            du = res @ h
        else:
            b = rhs[rp]
            u = h @ b
            du = h @ (b - s @ u)
        u += du
        size = _max_abs(u)
        if carried and not (math.isfinite(size) and _max_abs(du) <= DRIFT_RTOL * size):
            return None
        if self.slot < 0:
            x = np.empty(k)
            x[cp] = u
            return x, np.zeros(k), s @ u - b
        unit = u / size                 # u . u itself could overflow
        ws = unit / ((unit @ unit) * size)
        # S [x; -1] = M x - rhs = -w at the least-squares point x
        v = -(h @ ws)
        x, w = np.empty(k + 1), np.empty(k + 1)
        x[cp], w[rp] = v, ws
        v[self.slot] = -1.0
        return x[:k], w, s @ v

    def alternative_residual(self, z: np.ndarray) -> np.ndarray:
        """M^T z with rhs^T z - 1 in the rhs column's place, in S's order,
        for a (k+1) x k block; a square block's w, and so its z, is 0."""
        g = z[self.rp] @ self.s
        g[self.slot] -= 1.0
        return g


def _match(labels: np.ndarray, carried: np.ndarray) -> tuple | None:
    """(positions of the carried labels in the sorted labels, the carried
    positions of those that are not there, the positions of the labels
    that are new), or None when more than one label is gone or more than
    one is new, which no update follows.  A position of a missing label
    is meaningless."""
    pos = labels.searchsorted(carried)
    found = labels.take(pos, mode="clip") == carried
    kept = int(np.count_nonzero(found))
    if carried.size - kept > 1 or labels.size - kept > 1:
        return None
    gone = () if kept == carried.size else (int(found.argmin()),)
    new = ()
    if kept < labels.size:
        # the kept labels take every position of 0..labels.size-1 but one
        taken = int(pos.sum()) - (int(pos[gone[0]]) if gone else 0)
        new = (labels.size * (labels.size - 1) // 2 - taken,)
    return pos, gone, new


def _appended(a: np.ndarray, x) -> np.ndarray:
    return np.concatenate((a, (x,)))


def _row(m, rhs: np.ndarray, i: int) -> np.ndarray:
    """Row i of S, sorted: the block's row, then rhs_i for a (k+1) x k block."""
    return m[i] if m.shape[0] == m.shape[1] else _appended(m[i], rhs[i])


def _replace_column(h: np.ndarray, q: int, col: np.ndarray) -> bool:
    """Sherman-Morrison in place for column q of S replaced by col: with
    v = H col, row q of the new inverse is H_q / v_q, and every other row
    loses v_i times it."""
    v = h @ col
    piv = v[q]
    if not abs(piv) > QR_RANK_RTOL * _max_abs(v):
        return False
    hq = h[q] / piv
    h -= np.outer(v, hq)
    h[q] = hq
    return True


def solve_consistent(m, rhs, *, carry: InverseCarry | None = None) -> SolveReport:
    """Solve M x = rhs if a solution exists within tolerance, and its
    Fredholm alternative [M^T; rhs^T] z = (0, ..., 0, 1).

    M may be rectangular and rank-deficient.  It is an array, validated
    here and labelled by position, or a ``Block`` of a matrix A validated
    by its owner, whose ``rows`` and ``cols`` label the block's rows and
    columns in A; a Block is read entry by entry and gathered only for a
    fresh factor or the SVD.  A square or (k+1) x k block with
    k >= ``QR_MIN_COLS`` is turned into one square system S: a square
    block solves S x = rhs with S = M, and a (k+1) x k block solves
    S^T z = e_last with S = [M | rhs], whose solution is exactly the
    alternative z (M^T z = 0, rhs^T z = 1), so w = z / (z . z).  S is
    solved with its inverse H: fresh, after the rank test
    min |R_ii| > QR_RANK_RTOL * max |R_ii| on the R of a Householder QR
    of S, or carried from the last call along a path.  With ``carry``,
    which takes a Block only, S and H are brought to this block by an
    O(k^2) update when it differs from the last square system by one
    column or one border (see ``InverseCarry``); new values in the rhs
    column of a (k+1) x k block take a fresh factor.  Each answer gets one
    step of iterative refinement against S; a carried answer that the
    refinement moves by more than DRIFT_RTOL is refused for a fresh
    factor.  Every other block (wide, empty, small, taller than k+1, or a
    system that fails the rank test) goes to ``_svd_solve``, which gives
    the minimum-2-norm solution and w from a truncated thin SVD.  Either
    way z = w / ||w||^2 is the minimum-norm solution of the alternative
    system, and each answer is accepted by the residual test of its own
    system against the block, through S when there is one:
    ||residual||_inf <= CONSISTENCY_TOL * (1 + ||right-hand side||_inf).
    Repeated calls on identical inputs without a carry are bit-for-bit
    reproducible; a carried answer depends on the earlier blocks of its
    path through rounding only.
    """
    if isinstance(m, Block):
        rows, cols, n = m.rows, m.cols, m.a.shape[1]
    elif carry is None:
        m = as_matrix(m, "M")
        rows, cols, n = np.arange(m.shape[0]), np.arange(m.shape[1]), m.shape[1]
    else:
        raise TypeError("a carried solve takes a Block, whose labels name its system")
    rhs = as_vector(rhs, "rhs")
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: M has {m.shape[0]} rows, rhs has {rhs.shape[0]}")
    rows_n, cols_n = m.shape

    found = None
    if cols_n >= QR_MIN_COLS and rows_n - cols_n in (0, 1):
        if carry is None:   # a stateless call factors afresh in a carry of its own
            carry = InverseCarry()
        found = _square_solve(m, rhs, carry, rows,
                              _appended(cols, n) if rows_n > cols_n else cols)
    if found is None:
        m = np.asarray(m)
        sol, w = _svd_solve(m, rhs)
        r = m @ sol - rhs
    else:
        sol, w, r = found
    ww = float(w @ w)
    if ww > 0.0:
        z = w / ww
        g = _appended(m.T @ z, rhs @ z - 1.0) if found is None \
            else carry.alternative_residual(z)
        z_resid = _max_abs(g)
    else:   # M^T 0 = 0 and rhs^T 0 - 1 = -1 exactly: every square block's case
        z, z_resid = np.zeros(rows_n), 1.0
    resid = _max_abs(r)
    ok = resid <= CONSISTENCY_TOL * (1.0 + _max_abs(rhs))
    z_ok = z_resid <= CONSISTENCY_TOL * 2.0
    alternative = SolveReport(z if z_ok else None, z_resid, z_ok)
    return SolveReport(sol if ok else None, resid, ok, w, alternative)


def _square_solve(m, rhs: np.ndarray, carry: InverseCarry, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(solution, w, M solution - rhs) of a square or (k+1) x k block from
    the inverse of its square system S, or None when S fails the rank
    test."""
    counts, k = carry.counts, m.shape[1]
    if carry.follow(m, rhs, rows, cols):
        found = carry.answer(rhs, k, carried=True)
        if found is not None:
            counts.updates += 1
            return found
        counts.drift += 1
    s = np.array(m) if cols.size == k else np.column_stack((m, rhs))
    diag = np.abs(np.diagonal(np.linalg.qr(s, mode="r")))
    if not diag.min() > QR_RANK_RTOL * diag.max():
        counts.svd += 1
        carry.clear()
        return None
    carry.start(s, np.linalg.inv(s), rows, cols, k)
    counts.fresh += 1
    return carry.answer(rhs, k, carried=False)


def _svd_solve(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-2-norm least-squares solution x and w = rhs - U_r U_r^T rhs
    from one thin SVD M = U S V^T, truncated at lstsq's rank cutoff
    eps * max(shape) * sigma_max."""
    rows, cols = m.shape
    if not (rows and cols):
        return np.zeros(cols), rhs.copy()
    u, sig, vt = np.linalg.svd(m, full_matrices=False)
    rank = int(np.count_nonzero(sig > np.finfo(float).eps * max(rows, cols) * sig[0]))
    u, sig, vt = u[:, :rank], sig[:rank], vt[:rank]
    coef = u.T @ rhs
    return vt.T @ (coef / sig), rhs - u @ coef
