"""Dense linear algebra kernel: index sets, sub-matrix selection and
consistency-detecting solves for possibly rank-deficient systems.

Everything here is deliberately dense and deterministic.  Matrices and
vectors are plain numpy arrays of float64; ``as_matrix``/``as_vector``
coerce and validate them (finite entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Residual threshold for declaring a linear system consistent:
# ||M x - rhs||_inf <= CONSISTENCY_TOL * (1 + ||rhs||_inf).
CONSISTENCY_TOL = 1e-9


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
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError(f"index out of range for universe {self.universe}")

    @staticmethod
    def from_iterable(items: Iterable[int], universe: int) -> "IndexSet":
        return IndexSet(tuple(sorted(set(int(i) for i in items))), universe)

    @staticmethod
    def from_mask(mask) -> "IndexSet":
        mask = np.asarray(mask, dtype=bool)
        return IndexSet(tuple(int(i) for i in np.flatnonzero(mask)), mask.size)

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

    M may be rectangular and rank-deficient.  One thin SVD M = U S V^T,
    truncated at lstsq's rank cutoff eps * max(shape) * sigma_max, gives
    the minimum-2-norm least-squares solution x = V_r S_r^-1 U_r^T rhs and
    w = rhs - U_r U_r^T rhs; z = w / ||w||^2 is the minimum-norm solution of
    the alternative system.  Each answer is accepted by the residual test of
    its own system, ||residual||_inf <= tol * (1 + ||right-hand side||_inf).
    Repeated calls on identical inputs are bit-for-bit reproducible.
    """
    m = as_matrix(m, "M")
    rhs = as_vector(rhs, "rhs")
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"dimension mismatch: M has {m.shape[0]} rows, rhs has {rhs.shape[0]}")
    rows, cols = m.shape

    if rows and cols:
        u, sig, vt = np.linalg.svd(m, full_matrices=False)
        rank = int(np.count_nonzero(sig > np.finfo(float).eps * max(rows, cols) * sig[0]))
        u, sig, vt = u[:, :rank], sig[:rank], vt[:rank]
        coef = u.T @ rhs
        sol = vt.T @ (coef / sig)
        w = rhs - u @ coef
    else:
        sol = np.zeros(cols)
        w = rhs.copy()
    resid = float(np.max(np.abs(m @ sol - rhs), initial=0.0))
    ok = resid <= tol * (1.0 + np.max(np.abs(rhs), initial=0.0))

    ww = float(w @ w)
    z = w / ww if ww > 0.0 else np.zeros(rows)
    z_resid = max(float(np.max(np.abs(m.T @ z), initial=0.0)), abs(float(rhs @ z) - 1.0))
    z_ok = z_resid <= tol * 2.0
    alternative = SolveReport(z if z_ok else None, z_resid, z_ok)
    return SolveReport(sol if ok else None, resid, ok, w, alternative)
