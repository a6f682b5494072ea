"""Dense linear algebra kernel: consistency-detecting solves for possibly
rank-deficient systems, the products of A with a vector that lives on a
few rows or columns, and the validated ``IndexSet`` tuple: its two fields
and the check made when it is built, nothing more.  No path builds one (a
breakpoint records its sets in ``homotopy.IndexSets``).

Along a path the square systems of the solves are answered by one
``InverseCarry``, which keeps a system S, its inverse H and the last two
systems it answered.  One invariant holds between calls: S and H are the
system of the latest answered entry.  Both the update of S and H and
the lookup of a stored report key on the block's matrix and labels.

Everything here is deliberately dense and deterministic.  Matrices and
vectors are plain numpy arrays of float64; ``as_matrix``/``as_vector``
coerce and validate them (finite entries only).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Residual threshold for declaring a linear system consistent:
# ||M x - rhs||_inf <= CONSISTENCY_TOL * (1 + ||rhs||_inf).
CONSISTENCY_TOL = 1e-9

# left_product and right_product, the products of A with a vector that is
# zero off a few rows or columns, gather those rows or columns once A has
# GATHER_MIN_SIZE entries and the vector lives on at most the share
# GATHER_ROW_SHARE of the rows or GATHER_COL_SHARE of the columns; otherwise
# they make the dense product.  Without a set they find the vector's
# nonzeros, and only above the floor, so the certifier's products on a small
# A pay for no such search.  They search the mask ``v != 0.0``: it holds the
# positions of ``v.nonzero()`` (-0.0 out, NaN in), and over 2,000 floats
# with 60 nonzeros it takes 1.9 us against 7.4 us.  Every product of a path
# replayed both ways, one BLAS thread on a 2-vCPU Xeon, dense against
# gathered per call: 200 x 2000 (wide-shallow) A^T v 170 against 20-30 us
# and A v 175 against 17 us; 200 x 800 (a sparse-recovery path) A^T v 38-41
# against 13-33 us and A v 44 against 32 us; 200 x 400 (gauss-deep) A^T v
# 17-20 against 10-27 us and A v 15 against 19 us; 100 x 400 A v 9 against
# 11 us.  Below 10^5 entries a gather saves nothing.  In isolation, on
# 200 x 2000, A^T v takes 143 us dense, 20 us over a tenth of the rows and
# 92 us over a third; A v takes 133 us dense, 43 us over 5% of the columns,
# 116 us over 10% and 210 us over 15%, since a column gather is strided.
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
_EPS = float(np.finfo(float).eps)


def _max_abs(v: np.ndarray) -> float:
    """max_i |v_i| of a vector, 0 when it is empty.  argmax spares the
    set-up of a numpy reduction, which costs more than the work itself on
    the vectors of a path."""
    a = np.abs(v)
    return float(a[a.argmax()]) if a.size else 0.0


def left_product(a: np.ndarray, v: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """A^T v for a v that is zero off ``rows``: sorted row indices, or
    None for v's own nonzero entries; only those rows of A are read when
    A is large and they are few (see GATHER_MIN_SIZE).  The dense product
    is ``v.dot(a)``, the bits of ``a.T @ v``."""
    if a.size >= GATHER_MIN_SIZE:
        if rows is None:
            rows = (v != 0.0).nonzero()[0]
        if rows.size <= GATHER_ROW_SHARE * a.shape[0]:
            return v.take(rows).dot(a.take(rows, 0))
    return v.dot(a)


def right_product(a: np.ndarray, v: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """A v for a v that is zero off ``cols``: sorted column indices, or
    None for v's own nonzero entries; only those columns of A are read
    when A is large and they are few (see GATHER_MIN_SIZE).  The dense
    product is ``a.dot(v)``, the bits of ``a @ v``."""
    if a.size >= GATHER_MIN_SIZE:
        if cols is None:
            cols = (v != 0.0).nonzero()[0]
        if cols.size <= GATHER_COL_SHARE * a.shape[1]:
            return a.take(cols, 1).dot(v.take(cols))
    return a.dot(v)


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

    The package's validated, immutable index-set value: ``indices`` is
    built from any iterable of integers (an int array included) and kept
    as a tuple of ints, and construction refuses anything else.  It offers
    nothing beyond that check and its two fields.  The solver builds none:
    it works on boolean masks and sorted int arrays, and a breakpoint
    records its sets as read-only sorted int arrays."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self):
        idx = tuple(self.indices)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                   for i in idx):
            raise ValueError("indices must be integers")
        idx = tuple(map(int, idx))
        object.__setattr__(self, "indices", idx)
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError(f"index out of range for universe {self.universe}")


@dataclass
class SolveReport:
    """Outcome of a consistency-detecting linear solve.

    ``solution`` is None when the system is inconsistent; ``residual_norm``
    is always the sup-norm residual at the least-squares point.  A report of
    ``solve_consistent(M, rhs)`` also carries ``alternative``, the report of
    the other Fredholm alternative: z = w / ||w||^2, with w the part of rhs
    outside range(M) (z = 0 when w = 0), as a solution of
    [M^T; rhs^T] z = (0, ..., 0, 1).  Exactly one of the two systems is
    solvable in exact arithmetic.
    """

    solution: np.ndarray | None
    residual_norm: float
    consistent: bool
    alternative: "SolveReport | None" = None


@dataclass
class KernelCounts:
    """How the kernel systems of one path were solved: answers served by
    the carried inverse, fresh inverses after a passed rank test, carried
    answers refused by the refinement test, non-empty blocks sent to the
    SVD (rank test failed, wide, or taller than k+1), and systems answered
    by a stored report, since the carry already answered them as one of
    its last two (see ``InverseCarry``).  So updates + fresh + svd +
    reused counts every non-empty kernel call."""

    updates: int = 0
    fresh: int = 0
    drift: int = 0
    svd: int = 0
    reused: int = 0


class Block:
    """The block A[rows][:, cols] of a matrix A that its owner has already
    validated, without gathering it; the carried inverse reads the few
    entries it needs from ``a``, and ``np.asarray`` gathers the whole
    block.  A carry keeps ``rows`` and ``cols`` as its labels, so they
    must not change afterwards."""

    __slots__ = ("a", "rows", "cols", "shape")

    def __init__(self, a: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.a, self.rows, self.cols = a, rows, cols
        self.shape = (rows.size, cols.size)

    def __array__(self, dtype=None, copy=None):
        return self.a.take(self.rows, 0).take(self.cols, 1)


class InverseCarry:
    """One path's square system S, its inverse H = S^-1, and the last two
    systems it answered, kept from one kernel call to the next.

    ``answered`` holds those systems, the latest last, each as (block,
    keys, rhs, report): a ``Block``, the bytes of its row and column
    labels, the rhs and the report.  The latest entry is the one record of
    the system S and H hold; with no entry there is none.  The block and
    rhs are kept by reference and must not change afterwards.  S is the
    block for a square block and [M | rhs] for a (k+1) x k one, in the
    block's own order (its sorted labels in A, the rhs column last).  S and
    H are contiguous: ndarray.dot costs about twice as much on a strided
    view, and a rank-one update's subtraction 3-5 times as much.

    ``solve`` hands a system held in ``answered`` its stored report, which
    was tested against exactly that system: without warm starts the two
    subproblems of a breakpoint ask for the same block and rhs, one reading
    each Fredholm alternative.  Otherwise ``follow`` brings S and H to the
    next system in O(k^2) when it differs by one bordering, un-bordering or
    replaced column: it reads the O(k) new entries of S from A, updates H
    and shifts rows and columns in place (``_move``).  Both key on the
    block's matrix (``block.a is``) and label bytes; any other change,
    another matrix or new values in the rhs column, clears the carry for a
    fresh factor.
    """

    def __init__(self):
        self.counts = KernelCounts()
        self.clear()

    def clear(self) -> None:
        self.s = self.h = None
        self.answered = (None, None)

    def solve(self, m: Block, rhs: np.ndarray) -> SolveReport | None:
        """The report of a square or (k+1) x k block: the stored one when
        the carry answered this system as one of its last two, else from
        the inverse of its square system S, carried or fresh; None, with
        the carry cleared, when a fresh S fails the rank test."""
        counts, k = self.counts, m.shape[1]
        keys = (m.rows.tobytes(), m.cols.tobytes())
        for held in self.answered:
            # labels first, so a path that repeats no block reads no rhs bytes
            if held is not None and held[1] == keys and held[0].a is m.a \
                    and held[2].tobytes() == rhs.tobytes():
                counts.reused += 1
                return held[3]
        report = None
        if self.follow(m, rhs, keys):
            report = self.answer(rhs, k, carried=True)
            if report is not None:
                counts.updates += 1
            else:
                counts.drift += 1
        if report is None:
            s = np.array(m) if m.shape[0] == k else np.column_stack((m, rhs))
            diag = np.abs(np.diagonal(np.linalg.qr(s, mode="r")))
            if not diag.min() > QR_RANK_RTOL * diag.max():
                counts.svd += 1
                self.clear()
                return None
            self.s, self.h = s, np.linalg.inv(s)
            counts.fresh += 1
            report = self.answer(rhs, k, carried=False)
        self.answered = (self.answered[1], (m, keys, rhs, report))
        return report

    def follow(self, m: Block, rhs: np.ndarray, keys: tuple[bytes, bytes]) -> bool:
        """Update S and H from the latest entry's system to that of
        (m, rhs), whose row and column labels have the bytes keys; the rhs
        column joins as column k or leaves as the last column.  Returns
        False, and clears, when m is a block of another matrix, no update
        applies or an update's pivot is too small."""
        held = self.answered[1]
        if held is None or held[0].a is not m.a:
            self.clear()
            return False
        last, last_keys = held[0], held[1]
        a, rows, cols = m.a, m.rows, m.cols
        size, k = m.shape
        tall, was_tall = size > k, last.shape[0] > last.shape[1]
        # almost every block keeps the rows or the columns of A of the last
        # one (the same bytes), whose places then stand; the other side is
        # matched
        rmatch = (None, -1, -1) if keys[0] == last_keys[0] else _match(rows, last.rows)
        cmatch = (None, -1, -1) if keys[1] == last_keys[1] else _match(cols, last.cols)
        if rmatch is None or cmatch is None:
            self.clear()
            return False
        rpos, p, i = rmatch
        _, q, j = cmatch
        if tall != was_tall:
            # a second change on the columns takes a fresh factor
            if (j if tall else q) >= 0:
                self.clear()
                return False
            j, q = (k, q) if tall else (j, last.shape[1])
        elif tall:
            # new values in the rhs column of a kept row: factor afresh
            moved = (rhs if rpos is None else rhs.take(rpos, mode="clip")) != self.s[:, -1]
            if p >= 0:
                moved[p] = False
            if np.count_nonzero(moved):
                self.clear()
                return False
        change = (p >= 0, i >= 0, q >= 0, j >= 0)
        ok = True
        if change == (False, True, False, True):    # a bordering by row i, column j
            col = a[last.rows, cols[j]] if j < k else rhs[rpos]
            row = a[rows[i]].take(last.cols)
            if was_tall:
                row = np.append(row, rhs[i])
            corner = a[rows[i], cols[j]] if j < k else rhs[i]
            ok = self._border(col, row, corner, i, j)
        elif change == (True, False, True, False):  # an un-bordering of row p, column q
            ok = self._unborder(p, q)
        elif change == (False, False, True, True):  # column q replaced by column j
            col = a[rows, cols[j]] if j < k else rhs
            ok = _replace_column(self.h, q, col)
            self.s[:, q] = col
            _move(self.s.T, q, j)
            _move(self.h, q, j)
        elif any(change):               # a replaced row, or more than one change
            ok = False
        if not ok:
            self.clear()
        return ok

    def _border(self, col: np.ndarray, row: np.ndarray, corner: float,
                i: int, j: int) -> bool:
        """S becomes [[S, col], [row^T, corner]] and H its inverse, from
        the Schur complement sigma = corner - row^T H col, and the new row
        and column then move to places i and j; False when sigma is too
        small."""
        h = self.h
        hc, rh = h.dot(col), row.dot(h)
        sigma = corner - row.dot(hc)
        if not abs(sigma) > QR_RANK_RTOL * (abs(corner) + np.abs(row).dot(np.abs(hc))):
            return False
        size = h.shape[0]
        out = np.empty((size + 1, size + 1))
        a = hc / -sigma                 # so H - a rh^T = H + hc rh^T / sigma
        np.subtract(h, _outer(a, rh), out=out[:size, :size])
        out[:size, size] = a
        out[size, :size] = rh / -sigma
        out[size, size] = 1.0 / sigma
        s = np.empty((size + 1, size + 1))
        s[:size, :size] = self.s
        s[:size, size] = col
        s[size, :size] = row
        s[size, size] = corner
        # H's columns follow S's rows and its rows S's columns
        _move(s, size, i)
        _move(s.T, size, j)
        _move(out.T, size, i)
        _move(out, size, j)
        self.s, self.h = s, out
        return True

    def _unborder(self, p: int, q: int) -> bool:
        """Remove row p and column q of S.  With f = H e_p, g = e_q^T H and
        h = H_qp, the rank-one step H - f g^T / h zeroes column p and row q
        of H and leaves the new inverse in the rest, once row p and column
        q of S, and column p and row q of H, have moved to the end."""
        h, s = self.h, self.s
        f, g, piv = h[:, p], h[q], h[q, p]
        if not abs(piv) > QR_RANK_RTOL * max(_max_abs(f), _max_abs(g)):
            return False
        h -= _outer(f / piv, g)
        last = h.shape[0] - 1
        _move(s, p, last)
        _move(s.T, q, last)
        _move(h.T, p, last)
        _move(h, q, last)
        self.h, self.s = h[:last, :last].copy(), s[:last, :last].copy()
        return True

    def answer(self, rhs: np.ndarray, k: int, carried: bool) -> SolveReport | None:
        """The report of the block with k columns and right-hand side rhs,
        from H after one step of iterative refinement against S, with both
        residual tests run through S.  A carried H's answer is None when
        it is not finite or the refinement moved it by more than
        DRIFT_RTOL."""
        s, h = self.s, self.h
        tall = s.shape[0] > k
        if tall:
            # S^T u = e_last, that is M^T u = 0 and rhs^T u = 1
            u = h[-1]
            g = u.dot(s)
            g[-1] -= 1.0
            du = g.dot(h)
            u = u - du
        else:
            u = h.dot(rhs)
            du = h.dot(rhs - s.dot(u))
            u += du
        size = _max_abs(u)
        if carried and not (math.isfinite(size) and _max_abs(du) <= DRIFT_RTOL * size):
            return None
        if not tall:   # a square block's w, and so its z, is 0
            resid = _max_abs(s.dot(u) - rhs)
            ok, _ = _passes(resid, 1.0, rhs)
            return SolveReport(u if ok else None, resid, ok, SolveReport(None, 1.0, False))
        unit = u / size                 # u . u itself could overflow
        w = unit / (unit.dot(unit) * size)
        # S [x; -1] = M x - rhs = -w at the least-squares point x
        v = -h.dot(w)
        v[-1] = -1.0
        resid = _max_abs(s.dot(v))
        z_resid = 1.0
        ww = float(w.dot(w))
        if ww > 0.0:
            # z = w / ww, whose residual M^T z, rhs^T z - 1 is g
            g = (w / ww).dot(s)
            g[-1] -= 1.0
            z_resid = _max_abs(g)
        ok, z_ok = _passes(resid, z_resid, rhs)
        return SolveReport(v[:k] if ok else None, resid, ok,
                           SolveReport(w / ww if z_ok else None, z_resid, z_ok))


def _passes(resid: float, z_resid: float, rhs: np.ndarray) -> tuple[bool, bool]:
    """The residual tests of the least-squares point and of the
    alternative, whose residuals have sup-norms resid and z_resid:
    ||residual||_inf <= CONSISTENCY_TOL * (1 + ||right-hand side||_inf)."""
    return resid <= CONSISTENCY_TOL * (1.0 + _max_abs(rhs)), z_resid <= CONSISTENCY_TOL * 2.0


def _match(labels: np.ndarray, carried: np.ndarray) -> tuple | None:
    """Match the sorted labels of S's rows, or of its columns of A,
    against the sorted labels of the next block: (the block position of
    each carried label, the index in S of the one label that is gone or
    -1, the block position of the one that is new or -1), or None when
    more than one label is gone or more than one is new, which no update
    follows.  The position of a gone label is meaningless."""
    size = labels.size
    pos = labels.searchsorted(carried)
    hit = labels.take(pos, mode="clip") == carried
    kept = np.count_nonzero(hit)
    if carried.size - kept > 1 or size - kept > 1:
        return None
    gone = -1 if kept == carried.size else int(hit.argmin())
    new = -1
    if kept < size:
        # the kept labels take every position of 0..size-1 but one
        taken = sum(pos.tolist()) - (int(pos[gone]) if gone >= 0 else 0)
        new = size * (size - 1) // 2 - taken
    return pos, gone, new


def _move(x: np.ndarray, q: int, j: int) -> None:
    """Move row q of x to place j in place, the rows between shifting by
    one; applied to x.T, it moves a column."""
    if q != j:
        r = x[q].copy()
        if q < j:
            x[q:j] = x[q + 1:j + 1]
        else:
            x[j + 1:q + 1] = x[j:q]
        x[j] = r


def _outer(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v w^T, as a BLAS product of inner dimension one, 2-3 times faster
    than np.multiply.outer at k = 20-90.  The products are the same but
    for the sign of zero: BLAS writes +0 where the product is -0, so an
    update can differ only in the sign of an exact zero of H, which moves
    none of the 1,026 reference paths of tools/path_fingerprint.py."""
    return v[:, None].dot(w[None, :])


def _replace_column(h: np.ndarray, q: int, col: np.ndarray) -> bool:
    """Sherman-Morrison in place for column q of S replaced by col: with
    v = H col, row q of the new inverse is H_q / v_q, and every other row
    loses v_i times it."""
    v = h.dot(col)
    piv = v[q]
    if not abs(piv) > QR_RANK_RTOL * _max_abs(v):
        return False
    hq = h[q] / piv
    h -= _outer(v, hq)
    h[q] = hq
    return True


def solve_consistent(m, rhs, *, carry: InverseCarry | None = None) -> SolveReport:
    """Solve M x = rhs if a solution exists within tolerance, and its
    Fredholm alternative [M^T; rhs^T] z = (0, ..., 0, 1).

    M may be rectangular and rank-deficient.  It is a ``Block`` of a
    matrix A validated by its owner, whose ``rows`` and ``cols`` label it
    in A, or an array, validated here and taken as the Block of itself
    labelled by position; a Block is gathered only for a fresh factor or
    the SVD.  Every non-empty square or (k+1) x k block goes to
    ``carry.solve`` (a stateless call to a carry of its own), which turns
    it into one square system S: S = M solves S x = rhs, and for a
    (k+1) x k block S = [M | rhs] solves S^T z = e_last, whose solution is
    exactly the alternative z (M^T z = 0, rhs^T z = 1), so w = z / (z . z).
    S is solved with its inverse H: fresh, after the rank test
    min |R_ii| > QR_RANK_RTOL * max |R_ii| on the R of a Householder QR of
    S, or carried.  With ``carry``, which takes a Block only, S and H are
    the system of the carry's latest answered block and follow this block
    by an O(k^2) update, or this system gets its stored report back (see
    ``InverseCarry``); the carry keeps references to the Block and rhs,
    which must not change afterwards.  Each answer gets one step of
    iterative refinement against S; a carried answer that it moves by more
    than DRIFT_RTOL is refused for a fresh factor.  Every other block
    (wide, empty, taller than k+1, or failing the rank test) goes to
    ``_svd_solve``: the minimum-2-norm solution and w from a truncated thin
    SVD.  Either way z = w / ||w||^2 is the minimum-norm solution of the
    alternative system, and each answer must pass the residual test of its
    own system against the block, through S when there is one:
    ||residual||_inf <= CONSISTENCY_TOL * (1 + ||right-hand side||_inf).
    Repeated calls on identical inputs without a carry are bit-for-bit
    reproducible; a carried answer depends on the earlier blocks of its
    path through rounding only.  A returned report may be handed out again,
    so its caller must not edit it.
    """
    if not isinstance(m, Block):
        if carry is not None:
            raise TypeError("a carried solve takes a Block, whose labels name its system")
        m = as_matrix(m, "M")
        m = Block(m, np.arange(m.shape[0]), np.arange(m.shape[1]))
    rhs = as_vector(rhs, "rhs")
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: M has {m.shape[0]} rows, rhs has {rhs.shape[0]}")
    rows_n, cols_n = m.shape
    if cols_n and rows_n - cols_n in (0, 1):
        if carry is None:
            carry = InverseCarry()
        report = carry.solve(m, rhs)
        if report is not None:
            return report
    elif carry is not None and rows_n and cols_n:  # a wide block, or one taller than k+1
        carry.counts.svd += 1
    m = np.asarray(m)
    sol, w = _svd_solve(m, rhs)
    resid = _max_abs(m.dot(sol) - rhs)
    z, z_resid = None, 1.0      # M^T 0 = 0 and rhs^T 0 - 1 = -1 exactly
    ww = float(w.dot(w))
    if ww > 0.0:
        z = w / ww
        z_resid = max(_max_abs(m.T.dot(z)), abs(float(rhs.dot(z)) - 1.0))
    ok, z_ok = _passes(resid, z_resid, rhs)
    return SolveReport(sol if ok else None, resid, ok,
                       SolveReport(z if z_ok else None, z_resid, z_ok))


def _svd_solve(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-2-norm least-squares solution x and w = rhs - U_r U_r^T rhs
    from one thin SVD M = U S V^T, truncated at lstsq's rank cutoff
    eps * max(shape) * sigma_max."""
    rows, cols = m.shape
    if not (rows and cols):
        return np.zeros(cols), rhs.copy()
    u, sig, vt = np.linalg.svd(m, full_matrices=False)
    rank = np.count_nonzero(sig > _EPS * max(rows, cols) * sig[0])
    if rank < sig.size:
        u, sig, vt = u[:, :rank], sig[:rank], vt[:rank]
    coef = u.T.dot(rhs)
    return vt.T.dot(coef / sig), rhs - u.dot(coef)
