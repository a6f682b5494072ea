"""Dense linear algebra kernel: index sets, sub-matrix selection and
consistency-detecting solves for possibly rank-deficient systems.

Everything here is deliberately dense and deterministic.  Matrices and
vectors are plain numpy arrays of float64; ``as_matrix``/``as_vector``
coerce and validate them (finite entries only).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Residual threshold for declaring a linear system consistent:
# ||M x - rhs||_inf <= CONSISTENCY_TOL * (1 + ||rhs||_inf).
CONSISTENCY_TOL = 1e-9

# solve_consistent factors square and tall blocks by Householder QR from
# this many columns up; below it the thin SVD is as cheap or cheaper.  One
# whole call on k x k and (k+1) x k blocks, one BLAS thread on a 2-vCPU
# Xeon, SVD against QR: 90 against 90-100 us at k = 10, 240 against
# 110-135 us at k = 30, 5.3 ms against 1.5 ms at k = 180.
QR_MIN_COLS = 12
# A QR factor counts as full column rank when min |R_ii| > QR_RANK_RTOL *
# max |R_ii|.  This is five orders above the SVD's eps * max(shape) rank
# cutoff, so the two rank decisions agree away from the margin; blocks
# that fail it go to the SVD.
QR_RANK_RTOL = 1e-8


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
    """Strictly increasing 0-based positions inside a universe {0..universe-1}."""

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
    def from_iterable(items: Iterable[int], universe: int) -> "IndexSet":
        return IndexSet(tuple(sorted(set(int(i) for i in items))), universe)

    @staticmethod
    def from_mask(mask) -> "IndexSet":
        mask = np.asarray(mask, dtype=bool)
        return IndexSet(mask.nonzero()[0].tolist(), mask.size)

    @staticmethod
    def empty(universe: int) -> "IndexSet":
        return IndexSet((), universe)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.indices, dtype=int)

    def complement(self) -> "IndexSet":
        inside = set(self.indices)
        return IndexSet(tuple(i for i in range(self.universe) if i not in inside),
                        self.universe)

    def union(self, other: "IndexSet | Iterable[int]") -> "IndexSet":
        other_idx = other.indices if isinstance(other, IndexSet) else other
        return IndexSet.from_iterable(list(self.indices) + list(other_idx), self.universe)

    def difference(self, other: "IndexSet | Iterable[int]") -> "IndexSet":
        drop = set(other.indices if isinstance(other, IndexSet) else other)
        return IndexSet(tuple(i for i in self.indices if i not in drop), self.universe)

    def intersection(self, other: "IndexSet | Iterable[int]") -> "IndexSet":
        keep = set(other.indices if isinstance(other, IndexSet) else other)
        return IndexSet(tuple(i for i in self.indices if i in keep), self.universe)

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

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


def submatrix(a: np.ndarray, rows: IndexSet, cols: IndexSet) -> np.ndarray:
    a = as_matrix(a)
    if rows.universe != a.shape[0] or cols.universe != a.shape[1]:
        raise ValueError("index set universe does not match matrix shape")
    return a[np.ix_(rows.array, cols.array)]


def solve_consistent(m, rhs, tol: float = CONSISTENCY_TOL) -> SolveReport:
    """Solve M x = rhs if a solution exists within tolerance, and its
    Fredholm alternative [M^T; rhs^T] z = (0, ..., 0, 1) from the same
    factorisation.

    M may be rectangular and rank-deficient.  A square or tall block with
    at least ``QR_MIN_COLS`` columns is factored by a complete Householder
    QR, M = [Q_1 Q_2] [R; 0].  If R passes the rank test
    min |R_ii| > QR_RANK_RTOL * max |R_ii|, then x = R^-1 Q_1^T rhs is the
    unique least-squares solution and w = Q_2 Q_2^T rhs is the part of rhs
    outside range(M).  A square block has no Q_2, so w = 0 exactly and Q
    is never formed: rhs is factored along as one more column.  Every
    other block (wide, empty, small or numerically rank-deficient) goes to
    ``_svd_solve``, which gives the minimum-2-norm solution and w from a
    truncated thin SVD.  Either way z = w / ||w||^2 is the minimum-norm
    solution of the alternative system, and each answer is accepted by the
    residual test of its own system against the block M itself:
    ||residual||_inf <= tol * (1 + ||right-hand side||_inf).
    Repeated calls on identical inputs are bit-for-bit reproducible.
    """
    m = as_matrix(m, "M")
    rhs = as_vector(rhs, "rhs")
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: M has {m.shape[0]} rows, rhs has {rhs.shape[0]}")
    rows, cols = m.shape

    sol = None
    if rows >= cols >= QR_MIN_COLS:
        if rows == cols:
            # the reflectors that factor M turn the extra column into Q^T rhs
            r = np.linalg.qr(np.column_stack((m, rhs)), mode="r")
            r, coef, w = r[:, :cols], r[:, cols], np.zeros(rows)
        else:
            q, r = np.linalg.qr(m, mode="complete")
            coef = q.T @ rhs
            w = q[:, cols:] @ coef[cols:]
        diag = np.abs(np.diagonal(r))
        if diag.min() > QR_RANK_RTOL * diag.max():
            sol = np.linalg.solve(r[:cols], coef[:cols])
    if sol is None:
        sol, w = _svd_solve(m, rhs)
    resid = float(np.max(np.abs(m @ sol - rhs), initial=0.0))
    ok = resid <= tol * (1.0 + np.max(np.abs(rhs), initial=0.0))

    ww = float(w @ w)
    z = w / ww if ww > 0.0 else np.zeros(rows)
    z_resid = max(float(np.max(np.abs(m.T @ z), initial=0.0)), abs(float(rhs @ z) - 1.0))
    z_ok = z_resid <= tol * 2.0
    alternative = SolveReport(z if z_ok else None, z_resid, z_ok)
    return SolveReport(sol if ok else None, resid, ok, w, alternative)


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
