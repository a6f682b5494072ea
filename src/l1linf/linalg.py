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


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {out.shape}")
    if not np.isfinite(out).all():
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
        idx = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", idx)
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError(f"index out of range for universe {self.universe}")

    @staticmethod
    def from_mask(mask) -> "IndexSet":
        mask = np.asarray(mask, dtype=bool)
        return IndexSet(mask.nonzero()[0].tolist(), mask.size)

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


class InverseCarry:
    """The inverse H = S^-1 of the last square system S of one path, kept
    from one kernel call to the next.

    S is the block itself for a square block and [M | rhs] for a (k+1) x k
    block.  Its rows carry the labels of the rows of A they come from and
    its columns the labels of A's columns; the label ``n`` stands for the
    rhs column.  H stays in the order in which rows and columns joined S,
    so an update never reorders it; ``rp`` and ``cp`` place the carried
    rows and columns in the current block.  ``follow`` brings H to the
    next system in O(k^2) when that differs from S by one bordering, one
    un-bordering, one replaced column or one replaced row; any other
    change, new values in the rhs column included, clears it, so the
    system gets a fresh factor.
    """

    def __init__(self, n: int):
        self.n = n
        self.counts = KernelCounts()
        self.clear()

    def clear(self) -> None:
        self.h = None
        self.rows = self.cols = self.rhs = self.rp = self.cp = None

    def start(self, h: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              rhs: np.ndarray) -> None:
        self.h, self.rows, self.cols, self.rhs = h, rows.copy(), cols.copy(), rhs.copy()
        self.rp, self.cp = np.arange(rows.size), np.arange(cols.size)

    def follow(self, m: np.ndarray, rhs: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> bool:
        """Update H to the system of (m, rhs) whose sorted labels are rows
        and cols.  Returns False, and clears, when no update applies or an
        update's pivot is too small."""
        if self.h is None:
            return False
        k = m.shape[1]
        rpos, rin, rgone, rnew = _match(rows, self.rows)
        cpos, _, cgone, cnew = _match(cols, self.cols)
        change = (len(rgone), len(rnew), len(cgone), len(cnew))
        if cols[-1] == self.n and self.cols.max() == self.n \
                and (rhs[rpos[rin]] != self.rhs[rin]).any():
            change = None           # new values in the rhs column: factor afresh
        ok = True
        if change == (0, 0, 1, 1):
            q, j = cgone[0], cnew[0]
            ok = _replace_column(self.h, q, (m[:, j] if j < k else rhs)[rpos])
            self.cols[q], cpos[q] = cols[j], j
        elif change == (1, 1, 0, 0):
            p, i = rgone[0], rnew[0]
            ok = _replace_column(self.h.T, p, _row(m, rhs, i)[cpos])
            self.rows[p], rpos[p] = rows[i], i
        elif change == (0, 1, 0, 1):
            i, j = rnew[0], cnew[0]
            col = (m[:, j] if j < k else rhs)[rpos]
            corner = m[i, j] if j < k else rhs[i]
            self.h = _border(self.h, col, _row(m, rhs, i)[cpos], corner)
            ok = self.h is not None
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
        self.rp, self.cp, self.rhs = rpos, cpos, rhs[rpos]
        return True

    def _unborder(self, p: int, q: int, rpos: np.ndarray, cpos: np.ndarray) -> bool:
        """Remove row p and column q of S.  With f = H e_p, g = e_q^T H and
        h = H_qp, the rank-one step H - f g^T / h zeroes column p and row q
        of H and leaves the new inverse in the rest; the last row and
        column then move into the freed places."""
        h = self.h
        f, g, piv = h[:, p], h[q], h[q, p]
        if not abs(piv) > QR_RANK_RTOL * max(np.abs(f).max(), np.abs(g).max()):
            return False
        h -= np.outer(f / piv, g)
        last = h.shape[0] - 1
        h[q], h[:, p] = h[last], h[:, last]
        self.cols[q], cpos[q] = self.cols[last], cpos[last]
        self.rows[p], rpos[p] = self.rows[last], rpos[last]
        self.h, self.rows, self.cols = h[:last, :last], self.rows[:last], self.cols[:last]
        return True

    def answer(self, m: np.ndarray, rhs: np.ndarray,
               carried: bool) -> tuple[np.ndarray, np.ndarray] | None:
        """(solution, w) from H after one step of iterative refinement
        against S.  A carried H's answer is None when it is not finite or
        the refinement moved it by more than DRIFT_RTOL."""
        h, rp, cp, k = self.h, self.rp, self.cp, m.shape[1]
        tall = cp.size > k
        u, du = np.empty(cp.size), np.empty(cp.size)
        if tall:
            # S^T u = e_last, that is M^T u = 0 and rhs^T u = 1
            u[rp] = h[cp.argmax()]
            du[rp] = np.concatenate((-(m.T @ u), (1.0 - rhs @ u,)))[cp] @ h
        else:
            u[cp] = h @ rhs[rp]
            du[cp] = h @ (rhs - m @ u)[rp]
        u += du
        size = float(np.abs(u).max())
        if carried and not (math.isfinite(size) and np.abs(du).max() <= DRIFT_RTOL * size):
            return None
        if not tall:
            return u, np.zeros(k)
        unit = u / size                 # u . u itself could overflow
        w = unit / ((unit @ unit) * size)
        # S [x; -1] = M x - rhs = -w at the least-squares point x
        x = np.empty(k + 1)
        x[cp] = h @ w[rp]
        return -x[:k], w


def _match(labels: np.ndarray, carried: np.ndarray) -> tuple:
    """(positions of the carried labels in the sorted labels, which of them
    are there, the carried positions of those that are not, the positions
    of the labels that are new).  A position of a missing label is
    meaningless."""
    pos = labels.searchsorted(carried)
    found = labels.take(pos, mode="clip") == carried
    kept = np.count_nonzero(found)
    gone = () if kept == carried.size else (~found).nonzero()[0]
    new = ()
    if kept < labels.size:
        unseen = np.ones(labels.size, dtype=bool)
        unseen[pos[found] if len(gone) else pos] = False
        new = unseen.nonzero()[0]
    return pos, found, gone, new


def _appended(a: np.ndarray, x) -> np.ndarray:
    return np.concatenate((a, (x,)))


def _row(m: np.ndarray, rhs: np.ndarray, i: int) -> np.ndarray:
    """Row i of S, sorted: the block's row, then rhs_i for a (k+1) x k block."""
    return m[i] if m.shape[0] == m.shape[1] else _appended(m[i], rhs[i])


def _replace_column(h: np.ndarray, q: int, col: np.ndarray) -> bool:
    """Sherman-Morrison in place for column q of S replaced by col: with
    v = H col, row q of the new inverse is H_q / v_q, and every other row
    loses v_i times it.  Called on H^T, it replaces row q of S by col."""
    v = h @ col
    piv = v[q]
    if not abs(piv) > QR_RANK_RTOL * np.abs(v).max():
        return False
    hq = h[q] / piv
    h -= np.outer(v, hq)
    h[q] = hq
    return True


def _border(h: np.ndarray, col: np.ndarray, row: np.ndarray,
            corner: float) -> np.ndarray | None:
    """Inverse of [[S, col], [row^T, corner]] from the Schur complement
    sigma = corner - row^T H col; None when sigma is too small."""
    hc, rh = h @ col, row @ h
    sigma = corner - row @ hc
    if not abs(sigma) > QR_RANK_RTOL * (abs(corner) + np.abs(row) @ np.abs(hc)):
        return None
    size = h.shape[0]
    out = np.empty((size + 1, size + 1))
    a = hc / sigma
    np.add(h, np.outer(a, rh), out=out[:size, :size])
    out[:size, size] = -a
    out[size, :size] = rh / -sigma
    out[size, size] = 1.0 / sigma
    return out


def solve_consistent(m, rhs, *, carry: InverseCarry | None = None, rows=None,
                     cols=None) -> SolveReport:
    """Solve M x = rhs if a solution exists within tolerance, and its
    Fredholm alternative [M^T; rhs^T] z = (0, ..., 0, 1).

    M may be rectangular and rank-deficient.  A square or (k+1) x k block
    with k >= ``QR_MIN_COLS`` is turned into one square system S: a square
    block solves S x = rhs with S = M, and a (k+1) x k block solves
    S^T z = e_last with S = [M | rhs], whose solution is exactly the
    alternative z (M^T z = 0, rhs^T z = 1), so w = z / (z . z).  S is
    solved with its inverse H: fresh, after the rank test
    min |R_ii| > QR_RANK_RTOL * max |R_ii| on the R of a Householder QR of
    S, or carried from the last call along a path.  With ``carry``, which
    needs ``rows`` and ``cols``, the sorted labels of the block's rows and
    columns in A, H is brought to this block by an O(k^2) update when it
    differs from the last square system by one row, one column or one
    border (see ``InverseCarry``); new values in the rhs column of a
    (k+1) x k block take a fresh factor.  Each answer gets one step of
    iterative refinement against S; a carried answer that the refinement
    moves by more than DRIFT_RTOL is refused for a fresh factor.  Every other block
    (wide, empty, small, taller than k+1, or a system that fails the rank
    test) goes to ``_svd_solve``, which gives the minimum-2-norm solution
    and w from a truncated thin SVD.  Either way z = w / ||w||^2 is the
    minimum-norm solution of the alternative system, and each answer is
    accepted by the residual test of its own system against the block M
    itself: ||residual||_inf <= CONSISTENCY_TOL * (1 + ||right-hand side||_inf).
    Repeated calls on identical inputs without a carry are bit-for-bit
    reproducible; a carried answer depends on the earlier blocks of its
    path through rounding only.
    """
    m = as_matrix(m, "M")
    rhs = as_vector(rhs, "rhs")
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: M has {m.shape[0]} rows, rhs has {rhs.shape[0]}")
    rows_n, cols_n = m.shape

    found = None
    if cols_n >= QR_MIN_COLS and rows_n - cols_n in (0, 1):
        if carry is None:   # a stateless call factors afresh in a carry of its own
            carry, rows, cols = InverseCarry(cols_n), np.arange(rows_n), np.arange(cols_n)
        found = _square_solve(m, rhs, carry, np.asarray(rows),
                              np.concatenate((cols, (carry.n,))) if rows_n > cols_n
                              else np.asarray(cols))
    sol, w = found if found is not None else _svd_solve(m, rhs)
    resid = float(np.max(np.abs(m @ sol - rhs), initial=0.0))
    ok = resid <= CONSISTENCY_TOL * (1.0 + np.max(np.abs(rhs), initial=0.0))

    ww = float(w @ w)
    z = w / ww if ww > 0.0 else np.zeros(rows_n)
    z_resid = max(float(np.max(np.abs(m.T @ z), initial=0.0)), abs(float(rhs @ z) - 1.0))
    z_ok = z_resid <= CONSISTENCY_TOL * 2.0
    alternative = SolveReport(z if z_ok else None, z_resid, z_ok)
    return SolveReport(sol if ok else None, resid, ok, w, alternative)


def _square_solve(m: np.ndarray, rhs: np.ndarray, carry: InverseCarry,
                  rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(solution, w) of a square or (k+1) x k block from the inverse of
    its square system S, or None when S fails the rank test."""
    counts = carry.counts
    if carry.follow(m, rhs, rows, cols):
        found = carry.answer(m, rhs, carried=True)
        if found is not None:
            counts.updates += 1
            return found
        counts.drift += 1
    s = m if cols.size == m.shape[1] else np.column_stack((m, rhs))
    diag = np.abs(np.diagonal(np.linalg.qr(s, mode="r")))
    if not diag.min() > QR_RANK_RTOL * diag.max():
        counts.svd += 1
        carry.clear()
        return None
    carry.start(np.linalg.inv(s), rows, cols, rhs)
    counts.fresh += 1
    return carry.answer(m, rhs, carried=False)


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
