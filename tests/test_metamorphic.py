"""Metamorphic properties of ``solve_path``: transforms of an instance that
must keep its path, each checked on the 100 draws of
``verify.random_instance(default_rng(0))`` and the 100 tied draws of
``half_integer_draws``, solved warm.  Draw i's transform takes its
permutation, signs or column from ``default_rng(i)``."""

import numpy as np
import pytest

from l1linf import ProblemInstance, check_optimal_pair, solve_path
from l1linf.verify import random_instance
from test_path_fingerprint import path_fingerprint

RTOL = 1e-12   # objectives and breakpoint bounds, relative to their own size


def _draws():
    rng = np.random.default_rng(0)
    for i in range(100):
        yield f"verify-0/{i}", random_instance(rng)
    for i, inst in enumerate(path_fingerprint.half_integer_draws()):
        yield f"half-integer/{i}", inst


@pytest.fixture(scope="module")
def solved():
    return [(label, inst, solve_path(inst)) for label, inst in _draws()]


def _row_permutation(inst, rng):
    p = rng.permutation(inst.m)
    return ProblemInstance(inst.A[p], inst.b[p], inst.delta)


def _column_permutation(inst, rng):
    return ProblemInstance(inst.A[:, rng.permutation(inst.n)], inst.b, inst.delta)


def _column_sign_flips(inst, rng):
    return ProblemInstance(inst.A * rng.choice([-1.0, 1.0], inst.n), inst.b, inst.delta)


def _zero_column(inst, rng):
    return ProblemInstance(np.column_stack([inst.A, np.zeros(inst.m)]), inst.b, inst.delta)


def _duplicate_column(inst, rng):
    j = int(rng.integers(inst.n))
    return ProblemInstance(np.column_stack([inst.A, inst.A[:, j]]), inst.b, inst.delta)


def _agree(got: float, expected: float) -> bool:
    return abs(got - expected) <= RTOL * abs(expected)


@pytest.mark.parametrize("transform", [_row_permutation, _column_permutation,
                                       _column_sign_flips, _zero_column],
                         ids=["row-permutation", "column-permutation",
                              "column-sign-flips", "zero-column"])
def test_transform_keeps_the_path(solved, transform):
    # the same status and breakpoint count, and the same objective and
    # breakpoint bounds up to rounding
    for i, (label, inst, path) in enumerate(solved):
        got = solve_path(transform(inst, np.random.default_rng(i)))
        assert got.terminated == path.terminated, label
        assert len(got.breakpoints) == len(path.breakpoints), label
        assert _agree(got.objective, path.objective), label
        assert all(_agree(a.delta_k, b.delta_k)
                   for a, b in zip(got.breakpoints, path.breakpoints)), label


def test_duplicate_column_keeps_the_objective(solved):
    # a tie between the two copies may change the breakpoint count (seen
    # on a tied draw), so only the status and the objective are compared,
    # and every breakpoint must be certified on the transformed instance
    for i, (label, inst, path) in enumerate(solved):
        dup = _duplicate_column(inst, np.random.default_rng(i))
        got = solve_path(dup)
        assert got.terminated == path.terminated, label
        assert _agree(got.objective, path.objective), label
        assert all(check_optimal_pair(dup, bp.x, bp.y, bp.delta_k)
                   for bp in got.breakpoints), label
