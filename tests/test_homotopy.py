import dataclasses
import sys

import numpy as np
import pytest

from l1linf import homotopy, oracle
from l1linf.homotopy import (ProblemInstance, _build_sets, check_alternatives,
                             check_optimal_pair, duality_gap, eval_path,
                             solve_path)
from l1linf.linalg import IndexSet
from l1linf.pathexport import export_to_json, path_to_export


def test_check_optimal_pair_scalar():
    inst = ProblemInstance([[1.0]], [2.0], 1.0)
    assert check_optimal_pair(inst, [1.0], [-1.0], 1.0)
    assert not check_optimal_pair(inst, [1.0], [1.0], 1.0)
    # an infinite tol or delta would certify that wrong pair
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_optimal_pair(inst, [1.0], [1.0], 1.0, tol=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_optimal_pair(inst, [1.0], [1.0], bad)


def test_scalar_path():
    inst = ProblemInstance([[1.0]], [2.0], 0.0)
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    assert len(path.breakpoints) == 2
    assert path.breakpoints[0].delta_k == pytest.approx(2.0)
    np.testing.assert_allclose(path.breakpoints[1].x, [2.0], atol=1e-12)
    np.testing.assert_allclose(path.breakpoints[1].y, [-1.0], atol=1e-12)


def test_identity_soft_threshold_path():
    inst = ProblemInstance(np.eye(2), [3.0, -0.5], 0.0)
    path = solve_path(inst)
    deltas = [bp.delta_k for bp in path.breakpoints]
    np.testing.assert_allclose(deltas, [3.0, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(path.breakpoints[1].x, [2.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(path.breakpoints[2].x, [3.0, -0.5], atol=1e-12)


def test_trivial_instance_when_delta_dominates():
    inst = ProblemInstance(np.eye(2), [1.0, -2.0], 5.0)
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    assert len(path.breakpoints) == 1
    np.testing.assert_array_equal(path.breakpoints[0].x, [0.0, 0.0])


def test_eval_path_scalar():
    inst = ProblemInstance([[1.0]], [2.0], 0.0)
    path = solve_path(inst)
    x, y = eval_path(path, 1.0)
    np.testing.assert_allclose(x, [1.0], atol=1e-12)
    np.testing.assert_allclose(y, [-1.0], atol=1e-12)
    # exact breakpoint returns the stored pair
    x, y = eval_path(path, 2.0)
    np.testing.assert_array_equal(x, [0.0])
    with pytest.raises(ValueError):
        eval_path(path, 2.5)
    with pytest.raises(ValueError):
        eval_path(path, -0.1)
    for q in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="not finite"):
            eval_path(path, q)


def subproblem_contexts(inst, use_warm_starts=True):
    """Solve the path of inst and return (kind, context, x_k, y) for every
    subproblem it solved, in order: kind is "dual" or "primal", x_k the
    primal point of the breakpoint its iteration starts from, and y that
    iteration's new dual certificate (None when its dual update failed),
    which neither context holds.  A context holds no b either:
    ``inst.b``."""
    captured = []       # (kind, context, iteration)
    certificates = []   # the y of each iteration's dual update

    def dual(ctx, **kw):
        captured.append(("dual", ctx, len(certificates)))
        res = dual_update(ctx, **kw)
        certificates.append(res.y)
        return res

    def primal(ctx, **kw):
        captured.append(("primal", ctx, len(certificates) - 1))
        return primal_update(ctx, **kw)

    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "dual_update", dual)
        patch.setattr(homotopy, "primal_update", primal)
        path = solve_path(inst, use_warm_starts=use_warm_starts)
    # iteration k starts from breakpoint k
    return [(kind, ctx, path.breakpoints[k].x,
             certificates[k] if k < len(certificates) else None)
            for kind, ctx, k in captured]


def random_instance(rng, delta_zero=False):
    m = int(rng.integers(4, 13))
    n = 2 * m
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m) * float(rng.uniform(0.5, 4.0))
    delta = 0.0 if delta_zero else float(rng.uniform(0.05, 0.95) * np.max(np.abs(b)))
    return ProblemInstance(a, b, delta)


def test_random_paths_certified_and_strictly_progressing():
    rng = np.random.default_rng(51)
    for trial in range(25):
        inst = random_instance(rng, delta_zero=(trial % 5 == 0))
        path = solve_path(inst)
        assert path.terminated == "target-reached", path.failure_reason
        assert len(path.breakpoints) - 1 <= 20 * (inst.m + inst.n)
        assert path.breakpoints[-1].delta_k == inst.delta
        for prev, cur in zip(path.breakpoints, path.breakpoints[1:]):
            assert cur.delta_k < prev.delta_k
            assert cur.t_step > 1e-12
        for bp in path.breakpoints:
            assert check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
            assert duality_gap(inst, bp.x, bp.y, bp.delta_k) <= \
                1e-8 * (1 + np.sum(np.abs(bp.x)))
            assert np.isin(bp.sets.J_P, bp.sets.J_D).all()
            assert np.isin(bp.sets.I_D, bp.sets.I_P).all()


def test_interpolated_points_are_optimal():
    rng = np.random.default_rng(52)
    for _ in range(8):
        inst = random_instance(rng)
        path = solve_path(inst)
        assert path.terminated == "target-reached"
        for upper, lower in zip(path.breakpoints, path.breakpoints[1:]):
            for w in (0.25, 0.5, 0.75):
                q = lower.delta_k + w * (upper.delta_k - lower.delta_k)
                x, y = eval_path(path, q)
                assert check_optimal_pair(inst, x, y, q)
                np.testing.assert_array_equal(y, lower.y)


def test_warm_and_cold_paths_agree():
    rng = np.random.default_rng(53)
    for _ in range(10):
        inst = random_instance(rng)
        warm = solve_path(inst)
        cold = solve_path(inst, use_warm_starts=False)
        assert warm.terminated == cold.terminated == "target-reached"
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + cold.objective)


def test_alternatives_on_post_dual_pairs():
    # (x_k, y_{k+1}) admits primal progress: system 2 feasible, system 1 not
    rng = np.random.default_rng(54)
    inst = random_instance(rng)
    path = solve_path(inst)
    bps = path.breakpoints
    for prev, cur in zip(bps[:3], bps[1:4]):
        if prev.delta_k <= 1e-9:
            continue
        s1, s2 = check_alternatives(inst, prev.x, cur.y, prev.delta_k)
        assert not s1 and s2


def test_alternatives_on_recorded_breakpoints():
    # at a recorded mid-path pair the primal subproblem is fully converged:
    # only the dual can improve (system 1)
    rng = np.random.default_rng(55)
    inst = random_instance(rng)
    path = solve_path(inst)
    mids = path.breakpoints[1:-1]
    assert mids, "need a mid-path breakpoint for this instance"
    for bp in mids[:3]:
        s1, s2 = check_alternatives(inst, bp.x, bp.y, bp.delta_k)
        assert s1 and not s2


def test_alternatives_exclusive_on_random_pairs():
    rng = np.random.default_rng(56)
    checked = 0
    while checked < 40:
        inst = random_instance(rng)
        path = solve_path(inst)
        if path.terminated != "target-reached":
            continue
        for bp in path.breakpoints[1:]:
            if bp.delta_k <= 1e-9 or checked >= 40:
                break
            s1, s2 = check_alternatives(inst, bp.x, bp.y, bp.delta_k)
            assert s1 != s2
            checked += 1


def test_alternatives_precondition():
    inst = ProblemInstance([[1.0]], [2.0], 1.0)
    with pytest.raises(ValueError):
        check_alternatives(inst, [0.0], [0.9], 1.0)


def test_zero_row_reports_failure_not_hang():
    # a zero row makes the dual subproblem unbounded once it activates
    inst = ProblemInstance([[0.0], [1.0]], [2.0, 1.0], 0.0)
    path = solve_path(inst)
    assert path.terminated == "failure"
    assert path.failure_reason
    assert len(path.breakpoints) >= 1


def test_iteration_cap_validation():
    inst = ProblemInstance([[1.0]], [2.0], 0.0)
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        solve_path(inst, max_iters=-1)
    # a zero cap takes no step and reports the cap
    path = solve_path(inst, max_iters=0)
    assert path.terminated == "failure" and len(path.breakpoints) == 1
    assert path.failure_reason == "homotopy iteration cap 0 exceeded"


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(np.zeros((0, 2)), [], 0.0)
    with pytest.raises(ValueError):
        ProblemInstance([[1.0]], [1.0], -0.5)
    with pytest.raises(ValueError):
        ProblemInstance([[np.inf]], [1.0], 0.5)
    with pytest.raises(ValueError):
        ProblemInstance([[1.0]], [1.0], np.inf)


def test_overdetermined_feasible_target_solves():
    # more rows than columns: the path exists down to the least feasible
    # bound min_x ||Ax-b||_inf and the solver certifies the whole way
    rng = np.random.default_rng(57)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal(10) * 2
    ls = np.linalg.lstsq(a, b, rcond=None)[0]
    target = float(np.max(np.abs(a @ ls - b)))  # >= Chebyshev minimum
    inst = ProblemInstance(a, b, target)
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    for bp in path.breakpoints:
        assert check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)


def test_overdetermined_infeasible_target_fails_with_diagnosis():
    rng = np.random.default_rng(58)
    a = rng.standard_normal((12, 4))
    b = rng.standard_normal(12) * 2
    inst = ProblemInstance(a, b, 0.0)  # 0 < min_x ||Ax-b||_inf almost surely
    path = solve_path(inst)
    assert path.terminated == "failure"
    assert "minimal feasible bound" in path.failure_reason


def test_all_rows_tied_at_start():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((5, 10))
    b = rng.choice([-1.0, 1.0], 5) * 2.0
    inst = ProblemInstance(a, b, 0.7)
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    assert len(path.breakpoints[0].sets.I_P) == 5
    for bp in path.breakpoints:
        assert check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)


def test_exact_low_rank_matrix():
    rng = np.random.default_rng(60)
    u = rng.standard_normal((6, 2))
    a = u @ rng.standard_normal((2, 10))
    b = u @ rng.standard_normal(2)  # in range(A): delta = 0 stays feasible
    inst = ProblemInstance(a, b, 0.0)
    path = solve_path(inst)
    assert path.terminated == "target-reached"
    for bp in path.breakpoints:
        assert check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)


def loop_check_optimal_pair(inst, x, y, delta, tol=1e-8):
    """Reference: the per-entry loop form of check_optimal_pair."""
    g = inst.A.T @ y
    for j in range(inst.n):
        if abs(x[j]) > tol:
            if abs(g[j] + np.sign(x[j])) > tol:
                return False
        elif abs(g[j]) > 1.0 + tol:
            return False
    r = inst.A @ x - inst.b
    rtol = tol * (1.0 + delta)
    for i in range(inst.m):
        if abs(y[i]) > tol:
            if abs(r[i] - delta * np.sign(y[i])) > rtol:
                return False
        elif abs(r[i]) > delta + rtol:
            return False
    return True


def test_check_optimal_pair_matches_loop_reference():
    # breakpoints as computed, and with one entry of x or y nudged so that
    # each of the four per-entry tests is the one that fails
    rng = np.random.default_rng(54)
    outcomes = set()
    for _ in range(6):
        inst = random_instance(rng)
        for bp in solve_path(inst).breakpoints:
            for which in ("none", "x", "y"):
                x, y = bp.x.copy(), bp.y.copy()
                v = x if which == "x" else y
                if which != "none":
                    v[int(rng.integers(v.size))] += float(rng.choice([-1e-6, 1e-3, 0.5]))
                got = check_optimal_pair(inst, x, y, bp.delta_k)
                assert type(got) is bool
                assert got == loop_check_optimal_pair(inst, x, y, bp.delta_k)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_one_kernel_solve_per_direction_attempt(monkeypatch):
    # the multipliers come from the failed direction's kernel solve
    import l1linf.dual_update as dual_mod
    import l1linf.primal_update as primal_mod
    counts = {}

    def count(module, name, label):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, side in ((dual_mod, "dual"), (primal_mod, "primal")):
        count(module, "solve_consistent", (side, "kernel"))
        count(module, f"{side}_direction", (side, "direction"))
        count(module, f"{side}_multipliers", (side, "multipliers"))
    path = solve_path(random_instance(np.random.default_rng(55), delta_zero=True))
    assert path.terminated == "target-reached"
    for side in ("dual", "primal"):
        assert counts[(side, "multipliers")] > 0
        assert counts[(side, "kernel")] == counts[(side, "direction")]


def pinned_gaussian():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((30, 60)), rng.standard_normal(30)
    return ProblemInstance(a, b, 0.05 * np.max(np.abs(b)))


def pinned_small():
    # the size of a small-many workload instance: every block has k < 12
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((8, 16)), rng.standard_normal(8)
    return ProblemInstance(a, b, 0.05 * np.max(np.abs(b)))


def pinned_dantzig():
    # Dantzig-selector form: A = X^T X is 24 x 24 of rank 12
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 24))
    x /= np.linalg.norm(x, axis=0)
    beta = np.zeros(24)
    beta[[3, 11, 17]] = [1.5, -1.0, 2.0]
    y = x @ beta + 0.1 * rng.standard_normal(12)
    a, b = x.T @ x, x.T @ y
    return ProblemInstance(a, b, 1e-3 * np.max(np.abs(b)))


def test_pinned_breakpoint_counts():
    # a change of kernel or ratio test must keep these paths step for step
    path = solve_path(pinned_gaussian())
    assert path.terminated == "target-reached"
    assert len(path.breakpoints) - 1 == 62

    path = solve_path(pinned_dantzig())
    assert path.terminated == "target-reached"
    assert len(path.breakpoints) - 1 == 33


# carried A^T y and A x - b, and the handed-over A d_hat and A^T e_hat,
# against fresh products, relative to the largest |A|^T |y|, |A| |x| + |b|,
# |A| |d_hat| and |A|^T |e_hat| entry
PRODUCT_RTOL = 1e-12


def _planting(cls, state, product):
    """A ``zero`` for a face class that first puts unit mass into the
    entries it is about to zero, and the mass's product with A into the
    carried state ``state``: a correction that ``zero`` leaves out then
    shows as a unit error rather than as rounding."""
    original = cls.zero

    def zero(self, point, indices):
        if len(indices):
            point[indices] += 1.0
            setattr(self, state, getattr(self, state)
                    + product(self.ctx.A, indices, np.ones(len(indices))))
        original(self, point, indices)
    return zero


def gathering_wide():
    """60 x 2000 with a short path: its products take the gathered
    branches of ``left_product`` and ``right_product``."""
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((60, 2000)), rng.standard_normal(60)
    return ProblemInstance(a, b, 0.6 * np.max(np.abs(b)))


def test_carried_state_matches_fresh_products(monkeypatch):
    # every S carried into a kernel call is the gathered block (with the
    # rhs column) bit for bit, every breakpoint's carried A^T y and A x - b
    # agree with fresh products, and so does each multiplier product that
    # an update hands to the next as its warm product
    import l1linf.dual_update as dual_mod
    import l1linf.primal_update as primal_mod
    from l1linf.linalg import GATHER_MIN_SIZE, InverseCarry
    follows, errors = [], []
    follow = InverseCarry.follow

    def checked_follow(self, m, rhs):
        if not follow(self, m, rhs):
            return False
        s = np.asarray(m)
        s = s if s.shape[0] == s.shape[1] else np.column_stack((s, rhs))
        follows.append(np.array_equal(self.s, s) and np.array_equal(self.rows, m.rows)
                       and np.array_equal(self.cols, m.cols))
        return True

    def checked(update, *products):
        """update, followed by the relative error of each (carried, fresh,
        scale) product of its result that is not None"""
        def wrapper(ctx, **kw):
            res = update(ctx, **kw)
            abs_a = np.abs(ctx.A)
            for carried, fresh, scale in products:
                got = carried(res)
                if got is not None:
                    errors.append(np.abs(got - fresh(ctx.A, ctx, res)).max()
                                  / scale(abs_a, ctx, res))
            return res
        return wrapper

    def handed_over(res):
        # the product of the warm pair an update hands to the next: the
        # pair comes whole, and only the primal at the target bound hands
        # over none
        if res.warm is None:
            assert res.reached_target
            return None
        assert all(v is not None for v in res.warm)
        return res.warm[1]

    monkeypatch.setattr(InverseCarry, "follow", checked_follow)
    monkeypatch.setattr(dual_mod._DualFace, "zero", _planting(
        dual_mod._DualFace, "col_psi", lambda a, rows, v: a[rows].T @ v))
    monkeypatch.setattr(primal_mod._PrimalFace, "zero", _planting(
        primal_mod._PrimalFace, "resid", lambda a, cols, v: a[:, cols] @ v))
    monkeypatch.setattr(homotopy, "dual_update", checked(
        homotopy.dual_update,
        (lambda res: res.col_y, lambda a, ctx, res: a.T @ res.y,
         lambda abs_a, ctx, res: (abs_a.T @ np.abs(res.y)).max()),
        (handed_over, lambda a, ctx, res: a @ res.warm[0],
         lambda abs_a, ctx, res: (abs_a @ np.abs(res.warm[0])).max())))
    # ``solving`` is the instance whose path runs: a context holds no b
    monkeypatch.setattr(homotopy, "primal_update", checked(
        homotopy.primal_update,
        (lambda res: res.resid, lambda a, ctx, res: a @ res.x - solving.b,
         lambda abs_a, ctx, res: (abs_a @ np.abs(res.x) + np.abs(solving.b)).max()),
        (handed_over, lambda a, ctx, res: a.T @ res.warm[0],
         lambda abs_a, ctx, res: (abs_a.T @ np.abs(res.warm[0])).max())))
    wide = gathering_wide()
    assert wide.A.size >= GATHER_MIN_SIZE
    for solving in (pinned_gaussian(), pinned_dantzig(), wide):
        assert solve_path(solving).terminated == "target-reached"
    assert len(follows) > 50 and all(follows)
    assert len(errors) > 200 and max(errors) <= PRODUCT_RTOL


def test_a_warm_one_step_breakpoint_forms_two_products_with_a(monkeypatch):
    # each multiplier product is the next face's warm product, and A^T y
    # and A x - b are carried across breakpoints: a warm breakpoint whose
    # subproblems take one step each calls left_product or right_product
    # twice, once in each multiplier function
    import l1linf.dual_update as dual_mod
    import l1linf.primal_update as primal_mod
    from l1linf import linalg
    breakpoints = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            breakpoints[-1][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dual(ctx, **kwargs):
        breakpoints.append({"warm": ctx.warm is not None, "products": 0,
                            "dual": 0, "primal": 0})
        return dual_update(ctx, **kwargs)

    def primal(ctx, **kwargs):
        res = primal_update(ctx, **kwargs)
        breakpoints[-1]["target"] = res.reached_target
        return res

    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update
    monkeypatch.setattr(homotopy, "dual_update", dual)
    monkeypatch.setattr(homotopy, "primal_update", primal)
    for module in (dual_mod, primal_mod):
        for name in ("left_product", "right_product"):
            monkeypatch.setattr(module, name, counted(getattr(linalg, name), "products"),
                                raising=False)
    for cls, key in ((dual_mod._DualFace, "dual"), (primal_mod._PrimalFace, "primal")):
        monkeypatch.setattr(cls, "step", counted(cls.step, key))
    assert solve_path(pinned_gaussian()).terminated == "target-reached"
    one_step = [bp["products"] for bp in breakpoints if bp["warm"] and not bp["target"]
                and bp["dual"] == bp["primal"] == 1]
    assert len(one_step) > 20 and set(one_step) == {2}, one_step


def test_breakpoint_sets_are_the_classified_sets():
    # solve_path records the sets the subsolvers end with; at every
    # breakpoint they equal what classifying the residuals by tolerance gives
    rng = np.random.default_rng(20260808)   # the acceptance suite's instances
    instances = [pinned_gaussian(), pinned_dantzig()]
    for _ in range(6):
        m = int(rng.integers(5, 21))
        a = rng.standard_normal((m, 2 * m))
        b = rng.standard_normal(m) * float(rng.uniform(0.5, 5.0))
        instances.append(ProblemInstance(a, b, float(rng.uniform(0.02, 0.98))
                                         * float(np.max(np.abs(b)))))
    # both records, the start breakpoint's included, keep the export's
    # int32 index width and int8 signs
    for inst in instances:
        path = solve_path(inst)
        assert path.terminated == "target-reached"
        for bp in path.breakpoints:
            ref = _build_sets(inst, bp.x, bp.y, bp.delta_k)
            for name in ("J_P", "I_P", "J_D", "I_D"):
                got = getattr(bp.sets, name)
                np.testing.assert_array_equal(got, getattr(ref, name), err_msg=f"{bp.k} {name}")
                for arr in (got, getattr(ref, name)):
                    assert arr.dtype == np.int32 and arr.ndim == 1 and not arr.flags.writeable
                    assert np.all(arr[1:] > arr[:-1])
                    assert arr.base is None    # no view keeping a larger base alive
            np.testing.assert_array_equal(bp.sets.residual_signs, ref.residual_signs)
            assert bp.sets.residual_signs.dtype == ref.residual_signs.dtype == np.int8


def test_breakpoint_sets_cannot_be_written():
    # the record is the sets the loop decided; no reader may edit them
    inst = pinned_gaussian()
    bp = solve_path(inst).breakpoints[-1]
    for sets in (bp.sets, _build_sets(inst, bp.x, bp.y, bp.delta_k)):
        for name in ("J_P", "I_P", "J_D", "I_D"):
            arr = getattr(sets, name)
            assert arr.size > 0
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_subsolvers_keep_index_sets_off_the_hot_path(monkeypatch):
    # the subsolvers work on masks and sorted int arrays, and the
    # breakpoint records keep sorted int arrays: a path makes no IndexSet
    built = []
    original = IndexSet.__post_init__

    def counting(self):
        built.append(1)
        original(self)
    monkeypatch.setattr(IndexSet, "__post_init__", counting)
    path = solve_path(pinned_gaussian())
    assert path.terminated == "target-reached" and len(path.breakpoints) > 50
    assert len(built) == 0


# the driver's Python and C calls outside the two updates: the set-up
# before the first update (33 measured on both pinned instances; 34 when
# the start breakpoint copied a dense x and y) and the
# loop's glue a breakpoint after it (13.98 on pinned_gaussian and 13.94 on
# pinned_small measured; 52.0 with four IndexSets a breakpoint).  Counted
# as one budget a breakpoint, the set-up's share grows on short paths:
# 15.94 a breakpoint on the 17 of pinned_small against 14.53 on the 62 of
# pinned_gaussian
SETUP_GLUE_CALLS = 33
LOOP_GLUE_CALLS_PER_BREAKPOINT = 14
# 215.5 on pinned_gaussian and 215.0 on pinned_small measured; 218.5 and
# 218.1 when the contexts carried x, b and y and the m and n properties,
# 222.3 and 220.9 when warm starts crossed as two fields and primal_step's
# entering rows as a list of (row, side) tuples, 226.3 and 224.8 when each
# update formed its start product and its warm product afresh, 229.5 and
# 244.4 when blocks below 12 columns took the SVD
CALLS_PER_BREAKPOINT = 217


def _profiled_calls(inst):
    """solve_path(inst) under sys.setprofile: the path, the Python and C
    calls made outside the two updates (contexts, timers, the record and
    the breakpoint) before the first update and in all, and all its calls.
    Operators and ufuncs make no profile event."""
    updates = {homotopy.dual_update.__code__, homotopy.primal_update.__code__}
    glue = calls = inside = 0
    setup = None

    def profile(frame, event, arg):
        nonlocal glue, calls, inside, setup
        if event in ("call", "c_call"):
            calls += 1
        if frame.f_code in updates and event in ("call", "return"):
            if setup is None:
                setup = glue
            inside += 1 if event == "call" else -1
        elif not inside and event in ("call", "c_call"):
            glue += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        path = solve_path(inst)
    finally:
        sys.setprofile(previous)
    assert path.terminated == "target-reached" and inside == 0
    return path, setup, glue, calls


def test_driver_glue_stays_within_its_call_budget():
    for inst in (pinned_gaussian(), pinned_small()):
        path, setup, glue, _ = _profiled_calls(inst)
        assert setup <= SETUP_GLUE_CALLS, setup
        loop = glue - setup
        assert loop <= LOOP_GLUE_CALLS_PER_BREAKPOINT * (len(path.breakpoints) - 1), loop


@pytest.mark.parametrize("inst", [pinned_gaussian(), pinned_small()], ids=["gaussian", "small"])
def test_a_breakpoint_stays_within_its_call_budget(inst):
    # the driver, both updates and the kernel together
    path, _, _, calls = _profiled_calls(inst)
    assert calls <= CALLS_PER_BREAKPOINT * (len(path.breakpoints) - 1), calls


def _zero_step_at(monkeypatch, iteration):
    """solve_path on the pinned instance with the first primal step of
    ``iteration`` set to zero.  Returns the path and the kind of each
    subproblem call, "dual" or "primal"."""
    calls = []
    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update

    def recording_dual(ctx, **kwargs):
        calls.append("dual")
        return dual_update(ctx, **kwargs)

    def zero_step_once(ctx, **kwargs):
        calls.append("primal")
        res = primal_update(ctx, **kwargs)
        if len(calls) == 2 * iteration + 2:   # the first primal call at iteration
            return dataclasses.replace(res, t=0.0)
        return res

    monkeypatch.setattr(homotopy, "dual_update", recording_dual)
    monkeypatch.setattr(homotopy, "primal_update", zero_step_once)
    return solve_path(pinned_gaussian()), calls


def test_zero_primal_step_ends_the_path(monkeypatch):
    # theory rules out a zero step at an exact dual optimum, so there is no
    # second attempt: the path stops at the step and keeps its certified
    # breakpoints
    inst = pinned_gaussian()
    path, calls = _zero_step_at(monkeypatch, 10)
    assert path.terminated == "failure"
    assert path.failure_reason.startswith("degenerate step at iteration 10")
    assert len(calls) == 2 * 10 + 2
    assert calls == ["dual", "primal"] * 11
    assert path.retries == 0
    assert len(path.breakpoints) == 11
    assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k) for bp in path.breakpoints)


def half_integer_draw(index, seed=7):
    """Draw ``index`` of the tied instances of the path fingerprint tool,
    from ``default_rng(seed)``."""
    from test_path_fingerprint import path_fingerprint
    return list(path_fingerprint.half_integer_draws(index + 1, seed=seed))[index]


@pytest.mark.parametrize("draw", [75, 84, 89, 59, 1, 4, 6, 48])
@pytest.mark.parametrize("warm", [True, False])
def test_solve_path_on_tied_draws_hands_over_the_support(draw, warm):
    # draws 75, 84 and 89 once stopped at a zero-length step: a primal
    # update returned a J_P column at x_j = 0, and the next dual face held
    # |A_j^T y| = 1 on it, an equality the dual LP does not have.  Draws
    # 59, 1, 4, 6 and 48 take zero-length steps that edit the sets, warm or
    # cold, and reach the simplex optimum all the same
    inst = half_integer_draw(draw)
    ref = oracle.simplex_solve(oracle.reformulate(inst))
    assert ref.status == "optimal"
    path = solve_path(inst, use_warm_starts=warm)
    assert path.terminated == "target-reached", path.failure_reason
    assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k) for bp in path.breakpoints)
    assert abs(path.objective - ref.value) <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the path stops at a primal step of length at most T_MIN")
@pytest.mark.parametrize("seed, draw, warm", [
    (8, 210, True), (8, 210, False), (8, 379, True), (8, 379, False),
    (10, 225, True), (10, 225, False), (10, 274, True), (10, 274, False),
    (10, 63, False), (10, 119, False)])
def test_solve_path_on_tied_draws_that_stick(seed, draw, warm):
    # every path of draws 0-449 of seeds 8, 9 and 10, warm and cold, that
    # stops short of the target
    inst = half_integer_draw(draw, seed=seed)
    path = solve_path(inst, use_warm_starts=warm)
    # pytest.fail, not assert: only the expected stop may count as the xfail
    if not all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k) for bp in path.breakpoints):
        pytest.fail("a breakpoint fails certification")
    if path.terminated == "failure" and not path.failure_reason.startswith("degenerate step"):
        pytest.fail(f"stopped for another reason: {path.failure_reason}")
    assert path.terminated == "target-reached", path.failure_reason


# ternary data (A in {-1, 0, 1}, integer b in [-3, 3]) whose target is
# feasible: draw 87 of a sweep of 1,000 draws from default_rng([42, 1]),
# each drawing m in [2, 12), n in [2, 20), A, b and then delta as 0, 0.01,
# 0.1 or 0.5 times ||b||_inf, which stops at iteration 1, warm and cold
TERNARY_STOP = ProblemInstance(
    [[1, -1, -1, -1, 0], [-1, 1, 1, 1, -1], [0, 0, 0, -1, -1], [0, 0, 1, -1, 0]],
    [3, -3, 3, 0], 0.03)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the path stops at a primal step of length at most T_MIN")
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_solve_path_on_a_ternary_draw_that_sticks(warm):
    ref = oracle.simplex_solve(oracle.reformulate(TERNARY_STOP))
    # pytest.fail, not assert: only the expected stop may count as the xfail
    if ref.status != "optimal":
        pytest.fail(f"the target is not feasible: {ref.status}")
    path = solve_path(TERNARY_STOP, use_warm_starts=warm)
    if not all(check_optimal_pair(TERNARY_STOP, bp.x, bp.y, bp.delta_k)
               for bp in path.breakpoints):
        pytest.fail("a breakpoint fails certification")
    if path.terminated == "failure" and not path.failure_reason.startswith("degenerate step"):
        pytest.fail(f"stopped for another reason: {path.failure_reason}")
    assert path.terminated == "target-reached", path.failure_reason
    if abs(path.objective - ref.value) > 1e-9 * (1.0 + abs(ref.value)):
        pytest.fail(f"objective {path.objective!r} against the simplex's {ref.value!r}")


def test_kernel_counts_reach_the_trace_but_not_the_export():
    inst = pinned_gaussian()
    records = []
    path = solve_path(inst, trace=records.append)
    counts = path.kernel
    assert counts.updates > 0 and counts.fresh >= 1
    shown = {key: records[-1][f"kernel_{key}"] for key in ("updates", "fresh", "drift", "svd")}
    assert shown == dataclasses.asdict(counts)
    assert "kernel" not in export_to_json(path_to_export(inst, path))


def test_gathered_products_keep_the_path(monkeypatch):
    # a wide instance whose faces gather their rows and columns, solved
    # again with every product dense: the same work, bounds that differ by
    # rounding only, and every breakpoint certified on both
    from l1linf import dual_update, linalg
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((50, 2000)), rng.standard_normal(50)
    inst = ProblemInstance(a, b, 0.4 * np.max(np.abs(b)))
    assert a.size >= linalg.GATHER_MIN_SIZE
    shares = []

    def watched(a, v, rows):
        shares.append(rows.size)
        return linalg.left_product(a, v, rows)
    monkeypatch.setattr(dual_update, "left_product", watched)
    gathered = solve_path(inst)
    assert min(shares) <= linalg.GATHER_ROW_SHARE * a.shape[0]
    monkeypatch.setattr(linalg, "GATHER_MIN_SIZE", a.size + 1)
    dense = solve_path(inst)
    for path in (gathered, dense):
        assert path.terminated == "target-reached", path.failure_reason
        assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
                   for bp in path.breakpoints)
    assert len(gathered.breakpoints) == len(dense.breakpoints) > 10
    assert (gathered.dual_iterations, gathered.primal_iterations) \
        == (dense.dual_iterations, dense.primal_iterations)
    assert gathered.kernel == dense.kernel
    for got, want in zip(gathered.breakpoints, dense.breakpoints):
        assert abs(got.delta_k - want.delta_k) <= 1e-12 * want.delta_k


def _read_only_on_supports(a, x, y):
    """A copy of a with NaN wherever neither a row of supp(y) nor a
    column of supp(x) reaches."""
    out = np.full_like(a, np.nan)
    rows, cols = y.nonzero()[0], x.nonzero()[0]
    out[rows] = a[rows]
    out[:, cols] = a[:, cols]
    return out


def test_certifier_reads_only_the_supports_of_a_large_matrix(monkeypatch):
    # every breakpoint of a path above the gather floor, and two pairs with
    # an entry moved off its support, is judged with A poisoned off the
    # pair's own supports; a NaN that the certifier read would fail the
    # pair, so each verdict equals the dense one on the clean A only if
    # the gathered products read nothing else
    from l1linf import linalg
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((50, 2000)), rng.standard_normal(50)
    inst = ProblemInstance(a, b, 0.4 * np.max(np.abs(b)))
    assert a.size >= linalg.GATHER_MIN_SIZE
    path = solve_path(inst)
    assert path.terminated == "target-reached", path.failure_reason
    pairs = [(bp.x, bp.y, bp.delta_k) for bp in path.breakpoints]
    middle = pairs[len(pairs) // 2]
    x, y, delta = middle
    i = np.flatnonzero(y == 0)[0]
    j = np.flatnonzero(x == 0)[0]
    moved_y, moved_x = y.copy(), x.copy()
    moved_y[i] += 0.1
    moved_x[j] += 0.1
    pairs += [(x, moved_y, delta), (moved_x, y, delta)]
    for x, y, _ in pairs:
        assert np.count_nonzero(y) <= linalg.GATHER_ROW_SHARE * a.shape[0]
        assert np.count_nonzero(x) <= linalg.GATHER_COL_SHARE * a.shape[1]
    poisoned = ProblemInstance(a, b, inst.delta)
    gathered = []
    for x, y, delta in pairs:
        poisoned.A = _read_only_on_supports(a, x, y)
        gathered.append(check_optimal_pair(poisoned, x, y, delta))
    poisoned.A = np.full_like(a, np.nan)
    assert not check_optimal_pair(poisoned, *middle)
    monkeypatch.setattr(linalg, "GATHER_MIN_SIZE", a.size + 1)
    dense = [check_optimal_pair(inst, x, y, delta) for x, y, delta in pairs]
    assert gathered == dense == [True] * len(path.breakpoints) + [False, False]
