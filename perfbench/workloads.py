"""Seeded inputs of the four benchmark workloads.

Every generator takes the run's seed and returns plain arrays; the program
under test only ever sees the generated (A, b, delta).  Two kinds of
seeding are used, chosen per workload so that a run's figures are steady
across seeds:

* ``gauss-deep``, ``wide-shallow`` and ``dantzig-gram`` are made of a few
  to a dozen paths whose length varies by 15-45% between independent
  draws, and one 200x400 path alone takes about 20 s, so averaging over
  fresh draws does not fit in a run.  Their base instances are fixed; the
  seed draws permutations and sign flips of rows and columns.  These
  symmetries map the path onto itself (same breakpoints, permuted and
  sign-flipped vectors), so the seed changes the input bytes and index
  order but not the amount of work.
* ``small-many`` is a stream of a few hundred tiny paths drawn afresh from
  the seed; its sum is steady because it averages many independent draws,
  with sizes and bounds stratified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASE_SEED = 20161031   # fixed base instances of the symmetry-seeded workloads


@dataclass
class Case:
    label: str
    A: np.ndarray
    b: np.ndarray
    delta: float


@dataclass
class Workload:
    name: str
    cases: list[Case]
    solve_cold: bool   # each case is solved warm and again cold


def _symmetry(rng: np.random.Generator, A: np.ndarray, b: np.ndarray):
    """Row/column permutation and row/column sign flips of (A, b): the
    optimal path of the image is the image of the optimal path."""
    m, n = A.shape
    rows = rng.permutation(m)
    cols = rng.permutation(n)
    row_sign = rng.choice([-1.0, 1.0], size=m)
    col_sign = rng.choice([-1.0, 1.0], size=n)
    A2 = row_sign[:, None] * A[np.ix_(rows, cols)] * col_sign[None, :]
    return np.ascontiguousarray(A2), row_sign * b[rows]


def _gaussian_base(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([BASE_SEED, m, n])
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def gauss_deep(seed: int, quick: bool) -> Workload:
    """The ROADMAP grid: Gaussian m x 2m, delta = 0.05 ||b||_inf."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for m in ((10, 20) if quick else (50, 100, 200)):
        A, b = _symmetry(rng, *_gaussian_base(m, 2 * m))
        cases.append(Case(f"gauss-{m}x{2 * m}", A, b, 0.05 * float(np.max(np.abs(b)))))
    return Workload("gauss-deep", cases, solve_cold=False)


def wide_shallow(seed: int, quick: bool) -> Workload:
    """n >> m with a large bound, so active sets stay small."""
    rng = np.random.default_rng([seed, 2])
    shapes = ((10, 200, 0.2),) if quick else ((100, 2000, 0.4), (200, 2000, 0.4))
    cases = []
    for m, n, frac in shapes:
        A, b = _symmetry(rng, *_gaussian_base(m, n))
        cases.append(Case(f"wide-{m}x{n}", A, b, frac * float(np.max(np.abs(b)))))
    return Workload("wide-shallow", cases, solve_cold=False)


def _correlated_design(rng: np.random.Generator, rows: int, cols: int,
                       rho: float) -> np.ndarray:
    """Gaussian rows with AR(1) correlation rho between neighbouring
    columns, columns scaled to unit norm."""
    z = rng.standard_normal((rows, cols))
    X = np.empty_like(z)
    X[:, 0] = z[:, 0]
    for j in range(1, cols):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1.0 - rho * rho) * z[:, j]
    return X / np.linalg.norm(X, axis=0)


def dantzig_gram(seed: int, quick: bool) -> Workload:
    """Dantzig-selector form ||X^T (X x - y)||_inf <= delta, i.e.
    (A, b) = (X^T X, X^T y) with X of full row rank and fewer rows than
    columns: A is cols x cols of rank rows.  The seed permutes and
    sign-flips the columns of each fixed base design X."""
    rng = np.random.default_rng([seed, 3])
    count, rows, cols = (2, 10, 20) if quick else (16, 30, 60)
    cases = []
    for c in range(count):
        base = np.random.default_rng([BASE_SEED, rows, cols, c])
        X = _correlated_design(base, rows, cols, rho=0.8)
        k = max(2, rows // 8)
        beta = np.zeros(cols)
        beta[base.choice(cols, size=k, replace=False)] = \
            base.choice([-1.0, 1.0], size=k) * base.uniform(1.0, 2.0, size=k)
        y = X @ beta + 0.1 * base.standard_normal(rows)
        X = X[:, rng.permutation(cols)] * rng.choice([-1.0, 1.0], size=cols)
        A, b = X.T @ X, X.T @ y
        cases.append(Case(f"dantzig-{c}-{cols}x{cols}-rank{rows}", A, b,
                          1e-3 * float(np.max(np.abs(b)))))
    return Workload("dantzig-gram", cases, solve_cold=False)


def small_many(seed: int, quick: bool) -> Workload:
    """A stream of tiny Gaussian instances (m in 5..20, n = 2m) in the
    distribution of ``l1linf verify``; sizes and bound fractions are
    stratified so that every round covers the whole range."""
    rng = np.random.default_rng([seed, 4])
    sizes = (5, 12, 20) if quick else tuple(range(5, 21))
    levels = 2 if quick else 12
    cases = []
    for level in range(levels):
        for m in sizes:
            A = rng.standard_normal((m, 2 * m))
            b = rng.standard_normal(m) * float(rng.uniform(0.5, 5.0))
            frac = 0.05 + 0.9 * (level + float(rng.uniform())) / levels
            cases.append(Case(f"small-{m}x{2 * m}-{level}", A, b,
                              frac * float(np.max(np.abs(b)))))
    return Workload("small-many", cases, solve_cold=True)


WORKLOADS = {
    "gauss-deep": gauss_deep,
    "wide-shallow": wide_shallow,
    "dantzig-gram": dantzig_gram,
    "small-many": small_many,
}
