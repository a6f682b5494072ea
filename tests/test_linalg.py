import sys
import warnings

import numpy as np
import pytest

from l1linf import dual_update, linalg, primal_update, solve_path
from l1linf.linalg import (QR_MIN_COLS, Block, IndexSet, InverseCarry, _svd_solve,
                           solve_consistent)
from test_homotopy import pinned_gaussian


def test_indexset_validation():
    IndexSet((0, 2, 5), 6)
    with pytest.raises(ValueError):
        IndexSet((2, 2), 5)
    with pytest.raises(ValueError):
        IndexSet((3, 1), 5)
    with pytest.raises(ValueError):
        IndexSet((0, 7), 5)
    # non-integral indices are refused, not truncated
    for bad in ([0.5, 1.7], np.array([0.9, 2.2]), [True, 2]):
        with pytest.raises(ValueError):
            IndexSet(bad, 5)
    # the solver's int arrays are checked like tuples
    with pytest.raises(ValueError):
        IndexSet(np.array([3, 1]), 5)
    with pytest.raises(ValueError):
        IndexSet(np.array([0, 5]), 5)
    assert IndexSet(np.array([0, 2], dtype=np.intp), 5).indices == (0, 2)


def test_indexset_from_mask_len_and_iteration():
    s = IndexSet.from_mask(np.array([False, True, False, True, False]))
    assert s.indices == (1, 3) and s.universe == 5
    assert len(s) == 2 and list(s) == [1, 3]
    np.testing.assert_array_equal(s.array, [1, 3])
    assert s.array.dtype == np.intp
    assert IndexSet(np.array([1, 3]), 5) == s


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


def test_a_carried_solve_takes_a_block():
    # a Block's rows and cols name its system; an array is validated and
    # labelled by position, so it cannot follow a carried system
    m = np.eye(QR_MIN_COLS + 1)
    rhs = np.ones(QR_MIN_COLS + 1)
    with pytest.raises(TypeError):
        solve_consistent(m, rhs, carry=InverseCarry())
    labels = np.arange(QR_MIN_COLS + 1)
    carry = InverseCarry()
    rep = solve_consistent(Block(m, labels, labels), rhs, carry=carry)
    assert rep.consistent and vars(carry.counts)["fresh"] == 1
    m[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_consistent(m, rhs)


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

    def capture(m, rhs, **kwargs):
        blocks.append((m, rhs))
        return solve_consistent(m, rhs, **kwargs)
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


def _assert_same_report(rep, ref, rhs):
    assert rep.consistent == ref.consistent
    assert rep.alternative.consistent == ref.alternative.consistent
    assert _rel_close(rep.w, ref.w, np.linalg.norm(rhs))
    if ref.consistent:
        assert _rel_close(rep.solution, ref.solution, np.linalg.norm(ref.solution))
    if ref.alternative.consistent:
        z = ref.alternative.solution
        assert _rel_close(rep.alternative.solution, z, np.linalg.norm(z))


def _carried_system_error(carry, m, rhs):
    """||H S - I||_max for the carried H against the block's square system,
    S in the carried order of rows and columns."""
    s = m if m.shape[0] == m.shape[1] else np.column_stack((m, rhs))
    s = s[np.ix_(carry.rp, carry.cp)]
    return np.max(np.abs(carry.h @ s - np.eye(s.shape[0])))


def test_carried_inverse_replays_the_stateless_kernel_on_a_path(monkeypatch):
    # the block sequence of the pinned path, fed through one carried
    # inverse, gives the stateless kernel's reports, and the updates keep H
    # the inverse of the square system
    blocks = []

    def capture(m, rhs, **kwargs):
        blocks.append((m, rhs))
        return solve_consistent(m, rhs, **kwargs)
    monkeypatch.setattr(dual_update, "solve_consistent", capture)
    monkeypatch.setattr(primal_update, "solve_consistent", capture)
    inst = pinned_gaussian()
    assert solve_path(inst).terminated == "target-reached"
    monkeypatch.undo()

    carry = InverseCarry()
    counts = carry.counts
    for m, rhs in blocks:
        served = counts.updates
        rep = solve_consistent(m, rhs, carry=carry)
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)
        if counts.updates > served:
            assert _carried_system_error(carry, m, rhs) <= 1e-10
    eligible = counts.updates + counts.fresh + counts.svd
    assert eligible > 50 and counts.updates >= 0.9 * eligible


def _carried_steps(a, steps, carry):
    """Feed (rows, cols, signs) blocks of a through one carry, a label
    a.shape[1] in cols standing for the rhs column; yields each block's
    gathered (m, rhs, report)."""
    for rows, cols, sgn in steps:
        rows, cols = np.array(rows), np.array(cols)
        if cols[-1] == a.shape[1]:
            cols = cols[:-1]
        block, rhs = Block(a, rows, cols), -sgn[rows]
        yield np.asarray(block), rhs, solve_consistent(block, rhs, carry=carry)


def test_each_kind_of_update_keeps_the_inverse():
    # one carried inverse through a bordering, a replaced column, the rhs
    # column taking an A column's place, an un-bordering and an A column
    # taking the rhs column's place; the carried S stays the gathered
    # system bit for bit
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 40))
    signs = rng.choice([-1.0, 1.0], size=30)
    k = QR_MIN_COLS + 2
    base = list(range(k))
    steps = [                                    # rows, cols (n: tall), signs
        (base, base, signs),
        (base + [k], base + [k], signs),
        (base + [k], base + [25], signs),
        (base + [k], base + [40], signs),
        ([i for i in base if i != 5] + [k], [j for j in base if j != 7] + [40], signs),
        ([i for i in base if i != 5] + [k], [j for j in base if j != 7] + [30], signs),
    ]
    carry = InverseCarry()
    for step, (m, rhs, rep) in enumerate(_carried_steps(a, steps, carry)):
        assert (carry.counts.fresh, carry.counts.updates) == (1, step)
        assert _carried_system_error(carry, m, rhs) <= 1e-10
        s = m if m.shape[0] == m.shape[1] else np.column_stack((m, rhs))
        assert np.array_equal(carry.s, s[np.ix_(carry.rp, carry.cp)])
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def test_new_rhs_values_take_a_fresh_factor():
    # a carried (k+1) x k system whose rhs column changes values is not
    # updated: the carry clears and the system is factored afresh
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 40))
    signs = rng.choice([-1.0, 1.0], size=30)
    flipped = signs.copy()
    flipped[[2, 9]] *= -1.0
    rows, cols = list(range(QR_MIN_COLS + 3)), list(range(QR_MIN_COLS + 2)) + [40]
    carry = InverseCarry()
    steps = [(rows, cols, signs), (rows, cols, flipped)]
    for step, (m, rhs, rep) in enumerate(_carried_steps(a, steps, carry)):
        assert vars(carry.counts) == {"updates": 0, "fresh": step + 1, "drift": 0, "svd": 0}
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def test_a_replaced_row_takes_a_fresh_factor():
    # paths almost never replace one row alone, so the carry keeps no
    # update for it
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 40))
    signs = rng.choice([-1.0, 1.0], size=30)
    rows, cols = list(range(QR_MIN_COLS + 2)), list(range(QR_MIN_COLS + 2))
    steps = [(rows, cols, signs), (rows[:3] + rows[4:] + [25], cols, signs)]
    carry = InverseCarry()
    for step, (m, rhs, rep) in enumerate(_carried_steps(a, steps, carry)):
        assert vars(carry.counts) == {"updates": 0, "fresh": step + 1, "drift": 0, "svd": 0}
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def _near_singular_next_block(tall):
    """A path's well-conditioned block and its next block, which replaces
    column 5 by a copy of column 3 up to 1e-10."""
    rng = np.random.default_rng(13)
    k = QR_MIN_COLS + 3
    a = rng.standard_normal((k + tall, k + 1))
    a[:, k] = a[:, 3] + 1e-10 * rng.standard_normal(k + tall)
    rows, first, second = np.arange(k + tall), np.arange(k), np.r_[0:5, 6:k + 1]
    return a, rows, first, second, rng.standard_normal(k + tall)


@pytest.mark.parametrize("tall", [False, True], ids=["square", "k+1-by-k"])
def test_near_singular_square_system_takes_the_svd(monkeypatch, tall):
    a, rows, first, second, rhs = _near_singular_next_block(tall)
    m = np.asarray(Block(a, rows, second))      # gathered as the kernel gathers it
    s = np.column_stack((m, rhs)) if tall else m
    diag = np.abs(np.diagonal(np.linalg.qr(s, mode="r")))
    assert diag.min() < linalg.QR_RANK_RTOL * diag.max()
    calls = _svd_calls(monkeypatch)
    ref = solve_consistent(m, rhs)
    assert calls == [m.shape]
    carry = InverseCarry()
    solve_consistent(Block(a, rows, first), rhs, carry=carry)
    rep = solve_consistent(Block(a, rows, second), rhs, carry=carry)
    assert calls == [m.shape, m.shape]
    assert vars(carry.counts) == {"updates": 0, "fresh": 1, "drift": 0, "svd": 1}
    assert carry.h is None
    assert rep.consistent == ref.consistent and rep.residual_norm == ref.residual_norm
    assert rep.alternative.consistent == ref.alternative.consistent


def test_update_to_a_singular_system_is_refused_without_warnings(monkeypatch):
    rng = np.random.default_rng(17)
    k = QR_MIN_COLS + 3
    a = rng.standard_normal((k, k + 1))
    a[:, k] = a[:, 3]                           # column k duplicates column 3
    rows, first, second = np.arange(k), np.arange(k), np.r_[0:5, 6:k + 1]
    rhs = rng.standard_normal(k)
    carry = InverseCarry()
    calls = _svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_consistent(Block(a, rows, first), rhs, carry=carry)
        rep = solve_consistent(Block(a, rows, second), rhs, carry=carry)
        assert calls == [(k, k)] and carry.h is None
        assert not rep.consistent and rep.alternative.consistent
        # the next call starts fresh rather than from a refused update
        solve_consistent(Block(a, rows, first), rhs, carry=carry)
    assert vars(carry.counts) == {"updates": 0, "fresh": 2, "drift": 0, "svd": 1}


def test_refinement_corrects_a_small_drift_and_refuses_a_large_one():
    rng = np.random.default_rng(19)
    k = QR_MIN_COLS + 3
    m, rhs, labels = rng.standard_normal((k, k)), rng.standard_normal(k), np.arange(k)
    ref = solve_consistent(m, rhs)
    block = Block(m, labels, labels)
    carry = InverseCarry()
    solve_consistent(block, rhs, carry=carry)
    carry.h *= 1.0 + 1e-11                      # within DRIFT_RTOL: kept, refined
    rep = solve_consistent(block, rhs, carry=carry)
    assert carry.counts.updates == 1
    assert np.linalg.norm(rep.solution - ref.solution) <= 1e-12 * np.linalg.norm(ref.solution)
    carry.h *= 1.0 + 1e-8                       # beyond it: a fresh factor
    rep = solve_consistent(block, rhs, carry=carry)
    assert vars(carry.counts) == {"updates": 1, "fresh": 2, "drift": 1, "svd": 0}
    _assert_same_report(rep, ref, rhs)
