import importlib.util
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from l1linf import ProblemInstance, dual_update, linalg, primal_update, solve_path
from l1linf.linalg import (GATHER_MIN_SIZE, Block, IndexSet, InverseCarry,
                           _svd_solve, left_product, right_product, solve_consistent)
from test_homotopy import pinned_gaussian, pinned_small


def test_indexset_validation():
    # the class offers its two fields and the check made when it is built:
    # a tuple and an int array of the same positions give the same value
    from_tuple = IndexSet((0, 2, 5), 6)
    from_array = IndexSet(np.array([0, 2, 5], dtype=np.intp), 6)
    assert from_tuple == from_array
    assert from_array.indices == (0, 2, 5) and from_array.universe == 6
    assert all(type(i) is int for i in from_array.indices)
    assert IndexSet((), 0).indices == ()
    # non-integral indices and bools are refused, not truncated
    for bad in ([0.5, 1.7], np.array([0.9, 2.2]), [True, 2], np.array([False, True])):
        with pytest.raises(ValueError, match="integers"):
            IndexSet(bad, 5)
    # a repeated or decreasing index, as a tuple or an int array
    for bad in ((2, 2), (3, 1), np.array([3, 1])):
        with pytest.raises(ValueError, match="strictly increasing"):
            IndexSet(bad, 5)
    # an index outside {0..universe-1}
    for bad in ((0, 7), np.array([0, 5]), (-1, 2)):
        with pytest.raises(ValueError, match="out of range"):
            IndexSet(bad, 5)


PRODUCT_RTOL = 1e-13    # a sum of fewer float64 terms, in another order


def _supported(rng, size, count):
    """A random vector supported on count sorted positions, and those."""
    idx = np.sort(rng.choice(size, count, replace=False))
    v = np.zeros(size)
    v[idx] = rng.standard_normal(count)
    return v, idx


def _given(mask, idx):
    """The support argument of a product: the sorted indices for mask
    False, none for mask None, so that the product takes its vector's
    nonzeros."""
    return () if mask is None else (idx,)


@pytest.mark.parametrize("mask", [False, None])
def test_products_gather_a_few_rows_or_columns_of_a_large_matrix(mask):
    # A has NaN off the support, which only a gathered product never reads
    rng = np.random.default_rng(3)
    m, n = 250, 500
    assert m * n >= GATHER_MIN_SIZE
    for _ in range(20):
        a = rng.standard_normal((m, n))
        v, rows = _supported(rng, m, int(rng.integers(0, m // 3 + 1)))
        ref = a.T @ v
        scale = np.abs(a).T @ np.abs(v)
        poisoned = a.copy()
        poisoned[np.setdiff1d(np.arange(m), rows)] = np.nan
        got = left_product(poisoned, v, *_given(mask, rows))
        assert np.all(np.abs(got - ref) <= PRODUCT_RTOL * scale)
        w, cols = _supported(rng, n, int(rng.integers(0, n // 10 + 1)))
        ref = a @ w
        scale = np.abs(a) @ np.abs(w)
        poisoned = a.copy()
        poisoned[:, np.setdiff1d(np.arange(n), cols)] = np.nan
        got = right_product(poisoned, w, *_given(mask, cols))
        assert np.all(np.abs(got - ref) <= PRODUCT_RTOL * scale)


@pytest.mark.parametrize("mask", [False, None])
@pytest.mark.parametrize("shape, row_share, col_share", [
    ((250, 500), 0.5, 0.2),                # large matrix, too many rows and columns
    ((200, 400), 0.1, 0.05),               # few rows and columns of a small matrix
])
def test_products_stay_dense_otherwise(mask, shape, row_share, col_share):
    rng = np.random.default_rng(4)
    m, n = shape
    if row_share <= 1 / 3:
        assert m * n < GATHER_MIN_SIZE
    for _ in range(20):
        a = rng.standard_normal((m, n))
        v, rows = _supported(rng, m, max(1, int(row_share * m)))
        got = left_product(a, v, *_given(mask, rows))
        assert got.tobytes() == (a.T @ v).tobytes()
        w, cols = _supported(rng, n, max(1, int(col_share * n)))
        got = right_product(a, w, *_given(mask, cols))
        assert got.tobytes() == (a @ w).tobytes()


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
    m = np.eye(12 + 1)
    rhs = np.ones(12 + 1)
    with pytest.raises(TypeError):
        solve_consistent(m, rhs, carry=InverseCarry())
    labels = np.arange(12 + 1)
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
    # z = w / ||w||^2, with w the least-squares residual rhs - M x of the
    # minimum-norm solution
    if m.size:
        ls, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        w = rhs - m @ ls
        if alt.consistent:
            assert _close(alt.solution, w / w.dot(w))
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


def _path_blocks(monkeypatch, inst, warm=True):
    """The (block, rhs) of every kernel call of inst's path, in order."""
    blocks = []

    def capture(m, rhs, **kwargs):
        blocks.append((m, rhs))
        return solve_consistent(m, rhs, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(dual_update, "solve_consistent", capture)
        patch.setattr(primal_update, "solve_consistent", capture)
        path = solve_path(inst, use_warm_starts=warm)
    assert path.terminated == "target-reached"
    return path, blocks


@pytest.mark.parametrize("inst,warm", [(pinned_gaussian(), True), (pinned_small(), True),
                                       (pinned_gaussian(), False), (pinned_small(), False)],
                         ids=["gaussian", "small", "gaussian-cold", "small-cold"])
def test_kernel_counts_cover_every_call_of_a_path(monkeypatch, inst, warm):
    # every non-empty block of a path is counted once, and none takes an
    # SVD; only a cold path asks again for a system it just asked for
    svd, svd_calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    path, blocks = _path_blocks(monkeypatch, inst, warm)
    counts = path.kernel
    assert counts.updates + counts.fresh + counts.svd + counts.reused \
        == sum(m.shape[0] * m.shape[1] > 0 for m, _ in blocks) > 0
    assert (counts.reused > 0) != warm
    assert svd_calls == []


def _report_fields(report):
    """Copies of every field of a report and of its alternative."""
    return [(None if r.solution is None else r.solution.copy(), r.residual_norm, r.consistent)
            for r in (report, report.alternative)]


def test_reports_stay_as_the_kernel_returned_them(monkeypatch):
    # a cold path hands some reports out twice, so no caller may edit one:
    # every report of the path is at its end what the kernel returned, and
    # answers its own system as the stateless kernel does
    returned = []

    def capture(m, rhs, **kwargs):
        report = solve_consistent(m, rhs, **kwargs)
        returned.append((m, rhs, report, _report_fields(report)))
        return report
    monkeypatch.setattr(dual_update, "solve_consistent", capture)
    monkeypatch.setattr(primal_update, "solve_consistent", capture)
    path = solve_path(pinned_small(), use_warm_starts=False)
    assert path.terminated == "target-reached" and path.kernel.reused > 0
    assert len({id(report) for _, _, report, _ in returned}) \
        == len(returned) - path.kernel.reused
    for m, rhs, report, snapshot in returned:
        for (sol, resid, ok), (ref_sol, ref_resid, ref_ok) in zip(_report_fields(report),
                                                                    snapshot):
            assert (resid, ok) == (ref_resid, ref_ok)
            assert (sol is None and ref_sol is None) or np.array_equal(sol, ref_sol)
        _assert_same_report(report, solve_consistent(m, rhs), rhs)


def test_qr_branch_replays_the_svd_branch_on_a_path(monkeypatch):
    # every block of the pinned path gives the same report from the QR
    # branch as from the SVD branch, and only empty blocks reach _svd_solve
    _, blocks = _path_blocks(monkeypatch, pinned_gaussian())
    calls = _svd_calls(monkeypatch)
    reports = [solve_consistent(m, rhs) for m, rhs in blocks]
    empty = [m.shape for m, _ in blocks if 0 in m.shape]
    assert 0 < len(empty) < len(blocks) and calls == empty
    # the rank-failure exit of the square route sends every block to the SVD
    monkeypatch.setattr(InverseCarry, "solve", lambda *args: None)
    for (m, rhs), rep in zip(blocks, reports):
        ref = solve_consistent(m, rhs)
        assert rep.consistent == ref.consistent
        assert rep.alternative.consistent == ref.alternative.consistent
        assert abs(rep.residual_norm - ref.residual_norm) <= 1e-10 * np.linalg.norm(rhs)
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
    cases = [pytest.param(m, m @ rng.standard_normal(15), id=name)
             for name, m in (("repeated-column", repeated), ("cond-1e12", graded))]
    # small blocks of the square route, whose square systems fail the rank test
    h = rng.standard_normal((3, 2))
    square = np.column_stack([h, h[:, 0] - h[:, 1]])    # 3 x 3 of rank 2
    t = rng.standard_normal((4, 2))
    tall = np.column_stack([t, t[:, 1]])                # 4 x 3 of rank 2
    cases += [pytest.param(m, m @ rng.standard_normal(3), id=name)
              for name, m in (("square-rank-2", square), ("4x3-rank-2", tall))]
    # the two recipes again at the sizes of the square route, which the
    # 20 x 15 blocks miss by shape
    g = rng.standard_normal((16, 14))
    repeated = np.column_stack([g, g[:, 3]])            # 16 x 15 of rank 14
    u, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    v, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    graded = (u * np.logspace(0, -12, 15)) @ v.T        # 15 x 15 of condition 1e12
    return cases + [pytest.param(m, m @ rng.standard_normal(15), id=name)
                    for name, m in (("16x15-repeated-column", repeated),
                                    ("15x15-cond-1e12", graded))]


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
    m = rng.standard_normal((12 + 3, 12 + 3))
    rhs = rng.standard_normal(m.shape[0])
    calls = _svd_calls(monkeypatch)
    rep = solve_consistent(m, rhs)
    assert calls == []
    # w = 0, so z = 0, whose residual rhs^T z - 1 is exactly -1
    assert rep.consistent and not rep.alternative.consistent
    assert rep.alternative.solution is None and rep.alternative.residual_norm == 1.0
    assert _close(rep.solution, np.linalg.solve(m, rhs))


def _assert_same_report(rep, ref, rhs):
    assert rep.consistent == ref.consistent
    assert rep.alternative.consistent == ref.alternative.consistent
    assert abs(rep.residual_norm - ref.residual_norm) <= 1e-10 * np.linalg.norm(rhs)
    if ref.consistent:
        assert _rel_close(rep.solution, ref.solution, np.linalg.norm(ref.solution))
    if ref.alternative.consistent:
        z = ref.alternative.solution
        assert _rel_close(rep.alternative.solution, z, np.linalg.norm(z))


def _carried_system_error(carry, m, rhs):
    """||H S - I||_max for the carried H against the block's square system;
    the carried S is that system bit for bit."""
    s = np.asarray(m) if m.shape[0] == m.shape[1] else np.column_stack((m, rhs))
    assert np.array_equal(carry.s, s)
    return np.max(np.abs(carry.h @ s - np.eye(s.shape[0])))


def _replay_on_one_carry(monkeypatch, inst, on_update=None, min_calls=50):
    """Feed the kernel calls of inst's path again, in order, through one
    carried inverse, and check each report against the stateless
    kernel's; on_update(carry, block, rhs) runs after each call that an
    update served."""
    _, blocks = _path_blocks(monkeypatch, inst)
    carry = InverseCarry()
    counts = carry.counts
    for m, rhs in blocks:
        served = counts.updates
        rep = solve_consistent(m, rhs, carry=carry)
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)
        if on_update is not None and counts.updates > served:
            on_update(carry, m, rhs)
    eligible = counts.updates + counts.fresh + counts.svd
    assert eligible > min_calls and counts.updates >= 0.9 * eligible


def test_carried_inverse_replays_the_stateless_kernel_on_a_path(monkeypatch):
    # the block sequence of the pinned path, fed through one carried
    # inverse, gives the stateless kernel's reports, and the updates keep H
    # the inverse of the square system; so do the blocks of a small path,
    # every one of fewer than 12 columns (33 kernel calls in 17 breakpoints)
    sizes = []

    def inverse_kept(carry, m, rhs):
        sizes.append(m.shape[1])
        block, _, held_rhs, _ = carry.answered[-1]
        assert np.array_equal(block.rows, m.rows) and np.array_equal(block.cols, m.cols)
        assert _carried_system_error(carry, block, held_rhs) <= 1e-10
    _replay_on_one_carry(monkeypatch, pinned_gaussian(), inverse_kept)
    sizes.clear()
    _replay_on_one_carry(monkeypatch, pinned_small(), inverse_kept, min_calls=30)
    assert max(sizes) < 12


def _workload(name):
    """A benchmark workload's generator, read from perfbench/workloads.py
    without changing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS[name]


def test_carried_inverse_replays_the_stateless_kernel_on_rank_deficient_data(monkeypatch):
    # base 0 of the dantzig-gram workload, A = X^T X of 60 x 60 and rank
    # 30 from the workload's own generator: the carried inverse follows the
    # path through all three kinds of update, as on Gaussian data
    case = _workload("dantzig-gram")(1, False).cases[0]
    assert case.A.shape == (60, 60) and np.linalg.matrix_rank(case.A) == 30
    made = Counter()

    def counted(kind, update):
        def wrapper(*args):
            ok = update(*args)
            made[kind] += ok
            return ok
        return wrapper
    monkeypatch.setattr(InverseCarry, "_border", counted("border", InverseCarry._border))
    monkeypatch.setattr(InverseCarry, "_unborder", counted("unborder", InverseCarry._unborder))
    monkeypatch.setattr(linalg, "_replace_column", counted("column", linalg._replace_column))
    inst = ProblemInstance(case.A, case.b, case.delta)
    _replay_on_one_carry(monkeypatch, inst)
    assert min(made["border"], made["unborder"], made["column"]) > 0


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
    k = 12 + 2
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
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def test_new_rhs_values_take_a_fresh_factor():
    # a carried (k+1) x k system whose rhs column changes values is not
    # updated: the carry clears and the system is factored afresh
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 40))
    signs = rng.choice([-1.0, 1.0], size=30)
    flipped = signs.copy()
    flipped[[2, 9]] *= -1.0
    rows, cols = list(range(12 + 3)), list(range(12 + 2)) + [40]
    carry = InverseCarry()
    steps = [(rows, cols, signs), (rows, cols, flipped)]
    for step, (m, rhs, rep) in enumerate(_carried_steps(a, steps, carry)):
        assert vars(carry.counts) == {"updates": 0, "fresh": step + 1, "drift": 0, "svd": 0,
                                      "reused": 0}
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def test_the_last_two_systems_answered_get_their_reports_back():
    # as a cold primal face asks for the dual face's last tall and square
    # systems again: each comes back as the report the carry stored, found
    # by its labels and rhs bytes, and S and H stay as they are
    rng = np.random.default_rng(21)
    k = 12 + 2
    a, rhs = rng.standard_normal((30, 40)), rng.standard_normal(k + 1)
    tall, square = Block(a, np.arange(k + 1), np.arange(k)), Block(a, np.arange(k), np.arange(k))
    carry = InverseCarry()
    first = solve_consistent(tall, rhs, carry=carry)
    second = solve_consistent(square, rhs[:k], carry=carry)
    s, h = carry.s, carry.h
    assert solve_consistent(tall, rhs.copy(), carry=carry) is first
    assert solve_consistent(square, rhs[:k].copy(), carry=carry) is second
    assert carry.s is s and carry.h is h
    assert vars(carry.counts) == {"updates": 1, "fresh": 1, "drift": 0, "svd": 0, "reused": 2}
    # new rhs values are a new system; the tall one is then three systems back
    third = solve_consistent(square, -rhs[:k], carry=carry)
    assert third is not second and carry.counts.updates == 2
    assert solve_consistent(tall, rhs, carry=carry) is not first
    assert vars(carry.counts) == {"updates": 3, "fresh": 1, "drift": 0, "svd": 0, "reused": 2}
    carry.clear()
    assert solve_consistent(tall, rhs, carry=carry) is not first
    assert carry.counts.fresh == 2 and carry.counts.reused == 2


def test_a_block_of_another_matrix_is_factored_afresh():
    # the update keys on the matrix, as the stored reports do: a block of
    # another matrix with the same labels and rhs is neither updated from
    # the last matrix's S nor handed its report
    rng = np.random.default_rng(23)
    a1, a2 = rng.standard_normal((10, 10)), rng.standard_normal((10, 10))
    rows, cols, rhs = np.arange(10), np.arange(10), rng.standard_normal(10)
    carry = InverseCarry()
    solve_consistent(Block(a1, rows, cols), rhs, carry=carry)
    rep = solve_consistent(Block(a2, rows, cols), rhs, carry=carry)
    _assert_same_report(rep, solve_consistent(a2, rhs), rhs)
    assert vars(carry.counts) == {"updates": 0, "fresh": 2, "drift": 0, "svd": 0, "reused": 0}


def test_a_replaced_row_takes_a_fresh_factor():
    # paths almost never replace one row alone, so the carry keeps no
    # update for it
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 40))
    signs = rng.choice([-1.0, 1.0], size=30)
    rows, cols = list(range(12 + 2)), list(range(12 + 2))
    steps = [(rows, cols, signs), (rows[:3] + rows[4:] + [25], cols, signs)]
    carry = InverseCarry()
    for step, (m, rhs, rep) in enumerate(_carried_steps(a, steps, carry)):
        assert vars(carry.counts) == {"updates": 0, "fresh": step + 1, "drift": 0, "svd": 0,
                                      "reused": 0}
        _assert_same_report(rep, solve_consistent(m, rhs), rhs)


def _near_singular_next_block(tall):
    """A path's well-conditioned block and its next block, which replaces
    column 5 by a copy of column 3 up to 1e-10."""
    rng = np.random.default_rng(13)
    k = 12 + 3
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
    assert vars(carry.counts) == {"updates": 0, "fresh": 1, "drift": 0, "svd": 1, "reused": 0}
    assert carry.h is None
    assert rep.consistent == ref.consistent and rep.residual_norm == ref.residual_norm
    assert rep.alternative.consistent == ref.alternative.consistent


def test_update_to_a_singular_system_is_refused_without_warnings(monkeypatch):
    rng = np.random.default_rng(17)
    k = 12 + 3
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
    assert vars(carry.counts) == {"updates": 0, "fresh": 2, "drift": 0, "svd": 1, "reused": 0}


def test_refinement_corrects_a_small_drift_and_refuses_a_large_one():
    rng = np.random.default_rng(19)
    k = 12 + 3
    m, rhs, labels = rng.standard_normal((k, k)), rng.standard_normal(k), np.arange(k)
    block = Block(m, labels, labels)
    carry = InverseCarry()
    solve_consistent(block, rhs, carry=carry)
    # each call brings new rhs values, so the carry answers it rather than
    # handing back a stored report
    rhs = rng.standard_normal(k)
    ref = solve_consistent(m, rhs)
    carry.h *= 1.0 + 1e-11                      # within DRIFT_RTOL: kept, refined
    rep = solve_consistent(block, rhs, carry=carry)
    assert carry.counts.updates == 1
    assert np.linalg.norm(rep.solution - ref.solution) <= 1e-12 * np.linalg.norm(ref.solution)
    rhs = rng.standard_normal(k)
    ref = solve_consistent(m, rhs)
    carry.h *= 1.0 + 1e-8                       # beyond it: a fresh factor
    rep = solve_consistent(block, rhs, carry=carry)
    assert vars(carry.counts) == {"updates": 1, "fresh": 2, "drift": 1, "svd": 0, "reused": 0}
    _assert_same_report(rep, ref, rhs)
