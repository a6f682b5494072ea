"""Metamorphic properties of ``solve_path``: transforms of an instance that
must keep its path, each checked on the 100 draws of
``verify.random_instance(default_rng(0))`` and the 100 tied draws of
``half_integer_draws``, solved warm.  Draw i's transform takes its
permutation, signs or column from ``default_rng(i)``.  Scaling ``A``, or
``(b, delta)``, by a power of ten is checked on one Gaussian instance."""

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


# the scaled cases that do not keep the path, each with how it fails
SCALE_FAILURES = {
    ("A", -9): "target reached with 26 breakpoints, 15 of 27 certified once mapped back",
    ("A", -8): "target reached with 27 breakpoints, 16 of 28 certified once mapped back",
    ("A", 7): "primal multiplier system inconsistent although no direction exists, "
              "at iteration 1",
    ("A", 8): "primal multiplier system inconsistent although no direction exists, "
              "at iteration 0",
    ("A", 9): "primal multiplier system inconsistent although no direction exists, "
              "at iteration 0",
    ("b-delta", -9): "target reached after 4 breakpoints with the objective 1.1 off",
    ("b-delta", -8): "degenerate step at iteration 5",
    ("b-delta", -7): "degenerate step at iteration 19",
    ("b-delta", -6): "target reached with 27 breakpoints and the objective 2.4e-4 off",
}


def _scaled_cases():
    for kind in ("A", "b-delta"):
        for k in range(-9, 10):
            reason = SCALE_FAILURES.get((kind, k))
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
                     ] if reason else []
            yield pytest.param(kind, k, marks=marks, id=f"{kind}-1e{k}")


@pytest.fixture(scope="module")
def unscaled():
    # 28 breakpoints to the target, objective 2.6357
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((15, 30)), rng.standard_normal(15)
    inst = ProblemInstance(a, b, 0.1 * np.max(np.abs(b)))
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    return inst, path


@pytest.mark.parametrize("kind, k", _scaled_cases())
def test_scaling_keeps_the_path(unscaled, kind, k):
    # the path of A * s maps back by x * s and y * s, that of
    # (b, delta) * s by x / s and delta_k / s; mapped back, it must be the
    # unscaled path: its status, breakpoint count and objective, and an
    # optimal pair of the unscaled instance at every breakpoint
    inst, path = unscaled
    s = 10.0 ** k
    if kind == "A":
        got = solve_path(ProblemInstance(inst.A * s, inst.b, inst.delta))
        pairs = [(bp.x * s, bp.y * s, bp.delta_k) for bp in got.breakpoints]
    else:
        got = solve_path(ProblemInstance(inst.A, inst.b * s, inst.delta * s))
        pairs = [(bp.x / s, bp.y, bp.delta_k / s) for bp in got.breakpoints]
    assert got.terminated == path.terminated, got.failure_reason
    assert len(got.breakpoints) == len(path.breakpoints)
    objective = float(np.sum(np.abs(pairs[-1][0])))
    assert abs(objective - path.objective) <= 1e-9 * path.objective
    assert all(check_optimal_pair(inst, x, y, delta) for x, y, delta in pairs)
