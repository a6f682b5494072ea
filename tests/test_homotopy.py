import dataclasses

import numpy as np
import pytest

from l1linf import homotopy, oracle
from l1linf.active_set import OPT_TOL
from l1linf.homotopy import (ProblemInstance, _build_sets, check_alternatives,
                             check_optimal_pair, duality_gap, eval_path,
                             solve_path)
from l1linf.linalg import QR_MIN_COLS, IndexSet
from l1linf.pathexport import export_to_json, path_to_export


def test_check_optimal_pair_scalar():
    inst = ProblemInstance([[1.0]], [2.0], 1.0)
    assert check_optimal_pair(inst, [1.0], [-1.0], 1.0)
    assert not check_optimal_pair(inst, [1.0], [1.0], 1.0)


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


def subproblem_contexts(inst):
    """Solve the path of inst and return ("dual" or "primal", context) for
    every subproblem it solved, in order, degenerate-step retries included."""
    captured = []

    def recording(kind, update):
        def wrapper(ctx, **kw):
            captured.append((kind, ctx))
            return update(ctx, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "dual_update", recording("dual", homotopy.dual_update))
        patch.setattr(homotopy, "primal_update", recording("primal", homotopy.primal_update))
        solve_path(inst)
    return captured


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
            assert set(bp.sets.J_P.indices) <= set(bp.sets.J_D.indices)
            assert set(bp.sets.I_D.indices) <= set(bp.sets.I_P.indices)


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


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(np.zeros((0, 2)), [], 0.0)
    with pytest.raises(ValueError):
        ProblemInstance([[1.0]], [1.0], -0.5)
    with pytest.raises(ValueError):
        ProblemInstance([[np.inf]], [1.0], 0.5)


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


# carried A^T y and A x - b against fresh products, relative to the
# largest |A|^T |y| and |A| |x| + |b| entry
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


def test_carried_state_matches_fresh_products(monkeypatch):
    # every S carried into a kernel call is the gathered block (with the
    # rhs column) bit for bit, and every breakpoint's carried A^T y and
    # A x - b agree with fresh products
    import l1linf.dual_update as dual_mod
    import l1linf.primal_update as primal_mod
    from l1linf.linalg import InverseCarry
    follows, errors, faces = [], [], []
    follow = InverseCarry.follow

    def checked_follow(self, m, rhs, rows, cols):
        if not follow(self, m, rhs, rows, cols):
            return False
        s = np.asarray(m)
        s = s if s.shape[0] == s.shape[1] else np.column_stack((s, rhs))
        follows.append(np.array_equal(self.s, s[np.ix_(self.rp, self.cp)]))
        return True

    def recorded(cls):
        init = cls.__init__

        def wrapper(self, ctx):
            init(self, ctx)
            faces.append(self)
        return wrapper

    def checked(update, carried, fresh, scale):
        def wrapper(ctx, **kw):
            res = update(ctx, **kw)
            a = ctx.A
            errors.append(np.abs(carried(res) - fresh(a, ctx, res)).max()
                          / scale(np.abs(a), ctx, res))
            return res
        return wrapper

    monkeypatch.setattr(InverseCarry, "follow", checked_follow)
    monkeypatch.setattr(primal_mod._PrimalFace, "__init__", recorded(primal_mod._PrimalFace))
    monkeypatch.setattr(dual_mod._DualFace, "zero", _planting(
        dual_mod._DualFace, "col_psi", lambda a, rows, v: a[rows].T @ v))
    monkeypatch.setattr(primal_mod._PrimalFace, "zero", _planting(
        primal_mod._PrimalFace, "resid", lambda a, cols, v: a[:, cols] @ v))
    monkeypatch.setattr(homotopy, "dual_update", checked(
        homotopy.dual_update, lambda res: res.col_y,
        lambda a, ctx, res: a.T @ res.y,
        lambda abs_a, ctx, res: (abs_a.T @ np.abs(res.y)).max()))
    monkeypatch.setattr(homotopy, "primal_update", checked(
        homotopy.primal_update, lambda res: faces[-1].resid,
        lambda a, ctx, res: a @ res.x - ctx.b,
        lambda abs_a, ctx, res: (abs_a @ np.abs(res.x) + np.abs(ctx.b)).max()))
    for inst in (pinned_gaussian(), pinned_dantzig()):
        assert solve_path(inst).terminated == "target-reached"
    assert len(follows) > 50 and all(follows)
    assert len(errors) > 100 and max(errors) <= PRODUCT_RTOL


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
    for inst in instances:
        path = solve_path(inst)
        assert path.terminated == "target-reached"
        for bp in path.breakpoints:
            ref = _build_sets(inst, bp.x, bp.y, bp.delta_k)
            for name in ("J_P", "I_P", "J_D", "I_D"):
                assert getattr(bp.sets, name) == getattr(ref, name), (bp.k, name)
            np.testing.assert_array_equal(bp.sets.residual_signs, ref.residual_signs)


def test_subsolvers_keep_index_sets_off_the_hot_path(monkeypatch):
    # the subsolvers work on masks and sorted int arrays; IndexSet values
    # are made only for the breakpoint records, four for each
    built = []
    inside = []
    original = IndexSet.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    def watching(update):
        def wrapper(ctx, **kwargs):
            before = len(built)
            res = update(ctx, **kwargs)
            inside.append(len(built) - before)
            return res
        return wrapper
    monkeypatch.setattr(IndexSet, "__post_init__", counting)
    for name in ("dual_update", "primal_update"):
        monkeypatch.setattr(homotopy, name, watching(getattr(homotopy, name)))
    path = solve_path(pinned_gaussian())
    assert path.terminated == "target-reached"
    assert len(inside) == 2 * (len(path.breakpoints) - 1 + path.retries)
    assert not any(inside)
    assert len(built) == 4 * len(path.breakpoints)


def _zero_step_at(monkeypatch, iteration):
    """solve_path on the pinned instance with the first primal step of
    ``iteration`` set to zero.  Returns the path, each subproblem call as
    (kind, context, opt_tol) and the column count of every kernel block,
    keyed by the index of the subproblem call that made it."""
    import l1linf.dual_update as dual_mod
    import l1linf.primal_update as primal_mod
    calls, widths = [], {}
    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update
    solve = dual_mod.solve_consistent

    def recording_dual(ctx, **kwargs):
        calls.append(("dual", ctx, kwargs.get("opt_tol", OPT_TOL)))
        return dual_update(ctx, **kwargs)

    def zero_step_once(ctx, **kwargs):
        calls.append(("primal", ctx, kwargs.get("opt_tol", OPT_TOL)))
        res = primal_update(ctx, **kwargs)
        if len(calls) == 2 * iteration + 2:   # the first primal call at iteration
            return dataclasses.replace(res, t=0.0)
        return res

    def measuring(m, rhs, **kwargs):
        widths.setdefault(len(calls) - 1, []).append(m.shape[1])
        return solve(m, rhs, **kwargs)

    monkeypatch.setattr(homotopy, "dual_update", recording_dual)
    monkeypatch.setattr(homotopy, "primal_update", zero_step_once)
    monkeypatch.setattr(dual_mod, "solve_consistent", measuring)
    monkeypatch.setattr(primal_mod, "solve_consistent", measuring)
    return solve_path(pinned_gaussian()), calls, widths


def _assert_retried_once(path, calls, iteration):
    """One retry, cold and at OPT_TOL / 100, of the given iteration only."""
    assert path.retries == 1
    assert path.terminated == "target-reached"
    first = 2 * iteration + 2
    retry = calls[first:first + 2]
    assert [kind for kind, _, _ in retry] == ["dual", "primal"]
    for _, ctx, opt_tol in retry:
        assert ctx.warm_direction is None
        assert opt_tol == OPT_TOL / 100.0
    assert all(ctx.warm_direction is not None and opt_tol == OPT_TOL
               for _, ctx, opt_tol in calls[2:first] + calls[first + 2:])


def test_degenerate_step_retry(monkeypatch):
    # a zero primal step is retried once, cold and at OPT_TOL / 100; on a
    # path without degeneracy the retry reproduces the same breakpoint.
    # Bit for bit, because every block of iteration 10 is too small for
    # the carried inverse: the stateless SVD answers them on both tries
    reference = solve_path(pinned_gaussian())
    path, calls, widths = _zero_step_at(monkeypatch, 10)
    _assert_retried_once(path, calls, 10)
    retried = [w for call in range(20, 24) for w in widths.get(call, [])]
    assert retried and max(retried) < QR_MIN_COLS
    assert len(path.breakpoints) == len(reference.breakpoints)
    for got, want in zip(path.breakpoints, reference.breakpoints):
        assert got.delta_k == want.delta_k
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.y, want.y)


def test_degenerate_step_retry_on_the_carried_inverse(monkeypatch):
    # the same retry where the carried inverse answers: the cold retry
    # follows other systems than the warm path, so the breakpoints agree
    # to rounding rather than bit for bit
    reference = solve_path(pinned_gaussian())
    path, calls, widths = _zero_step_at(monkeypatch, 30)
    _assert_retried_once(path, calls, 30)
    assert max(w for call in range(60, 64) for w in widths.get(call, [])) >= QR_MIN_COLS
    assert len(path.breakpoints) == len(reference.breakpoints)
    for got, want in zip(path.breakpoints, reference.breakpoints):
        assert abs(got.delta_k - want.delta_k) <= 1e-12 * want.delta_k
        for v, w in ((got.x, want.x), (got.y, want.y)):
            assert np.abs(v - w).max() <= 1e-12 * np.abs(w).max()


def half_integer_draw(index):
    """Draw ``index`` of the tied instances of the path fingerprint tool."""
    from test_path_fingerprint import path_fingerprint
    return list(path_fingerprint.half_integer_draws(index + 1))[index]


def test_ledger_edits_reach_the_target_on_tied_data(monkeypatch):
    # on tied data the ledger changes sets: after positive steps, support
    # entries that joined since the last productive step and stayed at
    # zero leave again, and the path reaches the simplex optimum with
    # every breakpoint certified
    import l1linf.primal_update as primal_mod
    face = primal_mod._PrimalFace
    drops, ledger = [], []
    stays, zero = face.stays, face.zero

    def watched_stays(self, d, xi):
        ledger.append(True)
        return stays(self, d, xi)

    def watched_zero(self, xi, cols):
        if ledger:      # the ledger zeroes the entries it drops after its stay test
            drops.append(len(cols))
            ledger.clear()
        zero(self, xi, cols)
    monkeypatch.setattr(face, "stays", watched_stays)
    monkeypatch.setattr(face, "zero", watched_zero)
    inst = half_integer_draw(59)
    assert inst.A.shape == (5, 10)
    path = solve_path(inst, use_warm_starts=False)
    assert path.terminated == "target-reached", path.failure_reason
    assert len(path.breakpoints) == 5
    assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k) for bp in path.breakpoints)
    assert drops == [1, 1]
    ref = oracle.simplex_solve(oracle.reformulate(inst))
    assert ref.status == "optimal"
    assert abs(path.objective - ref.value) <= 1e-9


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="solve_path stops at a zero-length step that the retry repeats")
def test_solve_path_on_tied_draw_that_sticks():
    # draw 75 of the tied instances: every breakpoint up to the stop is
    # certified, and the simplex oracle solves the instance
    inst = half_integer_draw(75)
    assert inst.A.shape == (7, 14)
    ref = oracle.simplex_solve(oracle.reformulate(inst))
    assert ref.status == "optimal"
    for warm in (True, False):
        path = solve_path(inst, use_warm_starts=warm)
        assert all(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
                   for bp in path.breakpoints)
        assert path.terminated == "target-reached", path.failure_reason
        assert abs(path.objective - ref.value) <= 1e-9


def test_kernel_counts_reach_the_trace_but_not_the_export():
    inst = pinned_gaussian()
    records = []
    path = solve_path(inst, trace=records.append)
    counts = path.kernel
    assert counts.updates > 0 and counts.fresh >= 1
    shown = {key: records[-1][f"kernel_{key}"] for key in ("updates", "fresh", "drift", "svd")}
    assert shown == dataclasses.asdict(counts)
    assert "kernel" not in export_to_json(path_to_export(inst, path))
