import numpy as np
import pytest

from l1linf.linalg import IndexSet, solve_consistent, submatrix


def test_indexset_validation():
    IndexSet((0, 2, 5), 6)
    with pytest.raises(ValueError):
        IndexSet((2, 2), 5)
    with pytest.raises(ValueError):
        IndexSet((3, 1), 5)
    with pytest.raises(ValueError):
        IndexSet((0, 7), 5)


def test_indexset_algebra():
    s = IndexSet((1, 3), 5)
    assert s.complement().indices == (0, 2, 4)
    assert s.union([0]).indices == (0, 1, 3)
    assert s.difference([3]).indices == (1,)
    assert s.intersection([3, 4]).indices == (3,)
    assert 3 in s and 2 not in s
    assert IndexSet.from_mask(np.array([True, False, True])).indices == (0, 2)


def test_submatrix_identity_selection():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    full = IndexSet((0, 1), 2)
    np.testing.assert_array_equal(submatrix(a, full, full), a)


def test_submatrix_single_entry():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = submatrix(a, IndexSet((1,), 2), IndexSet((0,), 2))
    np.testing.assert_array_equal(out, [[3.0]])


def test_submatrix_iota():
    a = np.arange(12, dtype=float).reshape(3, 4)
    out = submatrix(a, IndexSet((0, 2), 3), IndexSet((1, 3), 4))
    np.testing.assert_array_equal(out, [[1.0, 3.0], [9.0, 11.0]])


def test_submatrix_out_of_bounds():
    a = np.ones((2, 2))
    with pytest.raises(ValueError):
        submatrix(a, IndexSet((0,), 3), IndexSet((0,), 2))


def test_submatrix_composition():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 7))
    r = IndexSet((0, 2, 3, 5), 6)
    c = IndexSet((1, 2, 4, 6), 7)
    r2 = IndexSet((1, 3), 4)
    c2 = IndexSet((0, 2), 4)
    inner = submatrix(submatrix(a, r, c), r2, c2)
    composed_rows = IndexSet(tuple(r.indices[i] for i in r2.indices), 6)
    composed_cols = IndexSet(tuple(c.indices[j] for j in c2.indices), 7)
    np.testing.assert_array_equal(inner, submatrix(a, composed_rows, composed_cols))


def test_solve_identity():
    rep = solve_consistent(np.eye(2), [3.0, -1.0])
    assert rep.consistent
    np.testing.assert_allclose(rep.solution, [3.0, -1.0], atol=1e-12)


def test_solve_inconsistent_least_squares_residual():
    rep = solve_consistent([[1.0], [1.0]], [1.0, 2.0])
    assert not rep.consistent
    assert rep.solution is None
    assert rep.residual_norm == pytest.approx(0.5, abs=1e-12)


def test_solve_underdetermined():
    rep = solve_consistent([[1.0, 1.0]], [2.0])
    assert rep.consistent
    assert rep.solution[0] + rep.solution[1] == pytest.approx(2.0, abs=1e-12)
    # minimum-2-norm solution is the symmetric one
    np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-12)


def test_solve_errors():
    with pytest.raises(ValueError):
        solve_consistent(np.eye(2), [1.0])
    with pytest.raises(ValueError):
        solve_consistent([[np.nan]], [1.0])


def test_solve_determinism():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 3))
    rhs = rng.standard_normal(5)
    r1 = solve_consistent(m, rhs)
    r2 = solve_consistent(m, rhs)
    assert r1.consistent == r2.consistent
    assert r1.residual_norm == r2.residual_norm


def test_solve_random_consistent_systems():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows, cols = rng.integers(1, 8, size=2)
        m = rng.standard_normal((rows, cols))
        rhs = m @ rng.standard_normal(cols)
        rep = solve_consistent(m, rhs)
        assert rep.consistent
        assert np.max(np.abs(m @ rep.solution - rhs)) <= 1e-9 * (1 + np.max(np.abs(rhs)))


def test_solve_random_inconsistent_systems():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        cols = int(rng.integers(1, 4))
        rows = cols + int(rng.integers(2, 5))
        m = rng.standard_normal((rows, cols))
        rhs = rng.standard_normal(rows)
        ls, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        if np.max(np.abs(m @ ls - rhs)) <= 10 * 1e-9:
            continue
        assert not solve_consistent(m, rhs).consistent
        checked += 1


def _kernel_cases():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 8))
    gram = x.T @ x                                   # 8 x 8 of rank 4
    signs = rng.choice([-1.0, 1.0], size=8)
    cases = [
        ("full-rank", rng.standard_normal((6, 6)), rng.standard_normal(6)),
        ("rank-deficient", gram, -signs),
        ("rank-deficient-consistent", gram, gram @ rng.standard_normal(8)),
        ("tall", rng.standard_normal((8, 3)), rng.standard_normal(8)),
        ("wide", rng.standard_normal((3, 8)), rng.standard_normal(3)),
        ("no-columns", np.zeros((3, 0)), rng.standard_normal(3)),
        ("no-rows", np.zeros((0, 3)), np.zeros(0)),
        ("empty", np.zeros((0, 0)), np.zeros(0)),
    ]
    return [pytest.param(m, rhs, id=name) for name, m, rhs in cases]


def _close(a, b):
    return np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)


@pytest.mark.parametrize("m,rhs", _kernel_cases())
def test_kernel_gives_exactly_one_fredholm_alternative(m, rhs):
    rep = solve_consistent(m, rhs)
    alt = rep.alternative
    assert rep.consistent != alt.consistent
    # w is the least-squares residual rhs - M x of the minimum-norm solution
    if m.size:
        ls, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        assert _close(rep.w, rhs - m @ ls)
        assert rep.residual_norm == pytest.approx(np.max(np.abs(m @ ls - rhs)), rel=1e-9, abs=1e-14)
    if rep.consistent:
        expected = ls if m.size else np.zeros(m.shape[1])
        assert _close(rep.solution, expected)
        assert alt.solution is None
    else:
        # the alternative solves [M^T; rhs^T] z = (0, ..., 0, 1)
        stacked = np.vstack([m.T, rhs[None, :]])
        target = np.zeros(stacked.shape[0])
        target[-1] = 1.0
        ls_z, *_ = np.linalg.lstsq(stacked, target, rcond=None)
        assert _close(alt.solution, ls_z)
        assert rep.solution is None
