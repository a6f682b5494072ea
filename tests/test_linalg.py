import sys

import numpy as np
import pytest

from l1linf import dual_update, linalg, primal_update, solve_path
from l1linf.linalg import QR_MIN_COLS, IndexSet, _svd_solve, solve_consistent, submatrix
from test_homotopy import pinned_gaussian


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
        ("tall-qr", rng.standard_normal((20, 14)), rng.standard_normal(20)),
        ("square-qr", rng.standard_normal((14, 14)), rng.standard_normal(14)),
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



def _svd_calls(monkeypatch):
    calls = []

    def counting(m, rhs):
        calls.append(m.shape)
        return _svd_solve(m, rhs)
    monkeypatch.setattr(linalg, "_svd_solve", counting)
    return calls


def _rel_close(a, b, scale):
    return np.linalg.norm(a - b) <= 1e-10 * scale


def test_qr_branch_replays_the_svd_branch_on_a_path(monkeypatch):
    # every block of the pinned path gives the same report from the QR
    # branch as from the SVD branch, and only small blocks reach the SVD
    blocks = []

    def capture(m, rhs):
        blocks.append((m, rhs))
        return solve_consistent(m, rhs)
    monkeypatch.setattr(dual_update, "solve_consistent", capture)
    monkeypatch.setattr(primal_update, "solve_consistent", capture)
    assert solve_path(pinned_gaussian()).terminated == "target-reached"
    monkeypatch.undo()

    calls = _svd_calls(monkeypatch)
    reports = [solve_consistent(m, rhs) for m, rhs in blocks]
    qr_blocks = sum(m.shape[0] >= m.shape[1] >= QR_MIN_COLS for m, _ in blocks)
    assert qr_blocks > 0 and len(calls) == len(blocks) - qr_blocks
    monkeypatch.setattr(linalg, "QR_MIN_COLS", sys.maxsize)
    for (m, rhs), rep in zip(blocks, reports):
        ref = solve_consistent(m, rhs)
        assert rep.consistent == ref.consistent
        assert rep.alternative.consistent == ref.alternative.consistent
        assert _rel_close(rep.w, ref.w, np.linalg.norm(rhs))
        if ref.consistent:
            assert _rel_close(rep.solution, ref.solution, np.linalg.norm(ref.solution))
        if ref.alternative.consistent:
            z = ref.alternative.solution
            assert _rel_close(rep.alternative.solution, z, np.linalg.norm(z))


def _near_singular_cases():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((20, 14))
    repeated = np.column_stack([g, g[:, 3]])            # rank 14
    u, _ = np.linalg.qr(rng.standard_normal((20, 15)))
    v, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    graded = (u * np.logspace(0, -12, 15)) @ v.T        # condition number 1e12
    return [pytest.param(m, m @ rng.standard_normal(15), id=name)
            for name, m in (("repeated-column", repeated), ("cond-1e12", graded))]


@pytest.mark.parametrize("m,rhs", _near_singular_cases())
def test_near_singular_tall_block_takes_the_svd_branch(monkeypatch, m, rhs):
    diag = np.abs(np.diagonal(np.linalg.qr(m, mode="r")))
    assert diag.min() < linalg.QR_RANK_RTOL * diag.max()
    calls = _svd_calls(monkeypatch)
    rep = solve_consistent(m, rhs)
    assert calls == [m.shape]
    assert rep.consistent and not rep.alternative.consistent
    if np.linalg.matrix_rank(m) < m.shape[1]:
        # the minimum-norm solution is well determined; the solution of a
        # full-rank block of condition 1e12 is fixed only to about cond * eps
        ls, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        assert _close(rep.solution, ls)


def test_square_block_has_no_alternative(monkeypatch):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((QR_MIN_COLS + 3, QR_MIN_COLS + 3))
    rhs = rng.standard_normal(m.shape[0])
    calls = _svd_calls(monkeypatch)
    rep = solve_consistent(m, rhs)
    assert calls == []
    assert np.all(rep.w == 0.0)
    assert rep.consistent and not rep.alternative.consistent
    assert rep.alternative.solution is None
    assert _close(rep.solution, np.linalg.solve(m, rhs))
