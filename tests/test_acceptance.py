"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
a single ACCEPTANCE PASS/FAIL line (run pytest with -s to see them inline).
The 200-instance random suite is solved once and shared.
"""

import time

import numpy as np
import pytest

from l1linf import oracle
from l1linf.dual_update import dual_update
from l1linf.homotopy import (ProblemInstance, check_alternatives,
                             check_optimal_pair, duality_gap, eval_path,
                             solve_path)
from l1linf.instances import (GeneralizedBounds, random_ground_truth,
                              to_linf_form)
from l1linf.primal_update import primal_update
from reference_lp import asm_solve, dual_lp_encoding, general_form, primal_lp_encoding
from test_homotopy import subproblem_contexts

SUITE_SEED = 20260808
SUITE_SIZE = 200
ORACLE_RTOL = 1e-7
PAIR_TOL = 1e-8


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def random_suite_instance(rng):
    m = int(rng.integers(5, 21))
    n = 2 * m
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m) * float(rng.uniform(0.5, 5.0))
    delta = float(rng.uniform(0.02, 0.98)) * float(np.max(np.abs(b)))
    return ProblemInstance(a, b, delta)


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    runs = []
    t0 = time.perf_counter()
    for _ in range(SUITE_SIZE):
        inst = random_suite_instance(rng)
        warm = solve_path(inst)
        cold = solve_path(inst, use_warm_starts=False)
        res = oracle.simplex_solve(oracle.reformulate(inst))
        runs.append({"inst": inst, "warm": warm, "cold": cold, "oracle": res})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_oracle_equivalence(suite):
    bad = 0
    for run in suite["runs"]:
        res = run["oracle"]
        if run["warm"].terminated != "target-reached" or res.status != "optimal":
            bad += 1
            continue
        if abs(run["warm"].objective - res.value) > ORACLE_RTOL * (1 + abs(res.value)):
            bad += 1
    ok = bad == 0 and suite["elapsed"] < 60.0
    report("oracle equivalence on 200 random instances", ok,
           f"{SUITE_SIZE - bad}/{SUITE_SIZE} matched, suite took {suite['elapsed']:.1f}s")


def test_optimal_pair_certification(suite):
    bad = []
    for idx, run in enumerate(suite["runs"]):
        inst = run["inst"]
        for bp in run["warm"].breakpoints:
            if not check_optimal_pair(inst, bp.x, bp.y, bp.delta_k, tol=PAIR_TOL):
                bad.append((idx, bp.k, "pair"))
                break
            if duality_gap(inst, bp.x, bp.y, bp.delta_k) > \
                    PAIR_TOL * (1 + np.sum(np.abs(bp.x))):
                bad.append((idx, bp.k, "gap"))
                break
    report("optimal-pair certification at every breakpoint", not bad,
           f"first failure {bad[0]}" if bad else "all breakpoints certified")


def test_strict_progress_and_finiteness(suite):
    bad = []
    for idx, run in enumerate(suite["runs"]):
        inst, path = run["inst"], run["warm"]
        if len(path.breakpoints) - 1 > 20 * (inst.m + inst.n):
            bad.append((idx, "cap"))
        if path.retries:
            bad.append((idx, "retries"))
        for prev, cur in zip(path.breakpoints, path.breakpoints[1:]):
            if not (cur.delta_k < prev.delta_k and cur.t_step > 1e-12):
                bad.append((idx, cur.k))
                break
    report("strict progress and finite termination", not bad,
           f"first failure {bad[0]}" if bad else
           "monotone bounds, t > 1e-12, zero retries")


def test_alternatives_exclusivity(suite):
    checked = 0
    bad = []
    for idx, run in enumerate(suite["runs"]):
        inst = run["inst"]
        for bp in run["warm"].breakpoints[1:]:
            if checked >= 100:
                break
            if bp.delta_k <= 1e-6:
                continue
            # oracle-verify the pair before testing the alternative systems
            probe = ProblemInstance(inst.A, inst.b, bp.delta_k)
            res = oracle.simplex_solve(oracle.reformulate(probe))
            obj = float(np.sum(np.abs(bp.x)))
            if res.status != "optimal" or \
                    abs(obj - res.value) > ORACLE_RTOL * (1 + abs(res.value)):
                bad.append((idx, bp.k, "pair not oracle-optimal"))
                continue
            s1, s2 = check_alternatives(inst, bp.x, bp.y, bp.delta_k)
            checked += 1
            if s1 == s2:
                bad.append((idx, bp.k, f"systems ({s1},{s2})"))
        if checked >= 100:
            break
    report("exclusivity of the alternative systems on 100 verified pairs",
           checked >= 100 and not bad,
           f"{checked} pairs checked" + (f", first failure {bad[0]}" if bad else ""))


def test_path_linearity_and_constant_dual(suite):
    bad = []
    for idx, run in enumerate(suite["runs"][:60]):
        inst, path = run["inst"], run["warm"]
        for upper, lower in zip(path.breakpoints, path.breakpoints[1:]):
            for w in (1, 2, 3, 4, 5):
                q = lower.delta_k + w / 6.0 * (upper.delta_k - lower.delta_k)
                x_q, y_q = eval_path(path, q)
                if not check_optimal_pair(inst, x_q, y_q, q, tol=PAIR_TOL):
                    bad.append((idx, upper.k, q))
                    break
                if not np.array_equal(y_q, lower.y):
                    bad.append((idx, upper.k, "dual not constant"))
                    break
            if bad:
                break
        if bad:
            break
    report("piecewise linearity: interior samples stay optimal, dual constant",
           not bad, f"first failure {bad[0]}" if bad else
           "5 interior samples per segment on 60 instances")


def test_soft_threshold_closed_form():
    rng = np.random.default_rng(SUITE_SEED + 1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        b = rng.standard_normal(n) * float(rng.uniform(0.5, 4.0))
        delta = float(rng.uniform(0.0, 0.9) * np.max(np.abs(b)))
        inst = ProblemInstance(np.eye(n), b, delta)
        path = solve_path(inst)
        assert path.terminated == "target-reached"
        expect = np.sign(b) * np.maximum(np.abs(b) - delta, 0.0)
        worst = max(worst, float(np.max(np.abs(path.x_final - expect))))
        for w in (0.3, 0.7):
            q = delta + w * (np.max(np.abs(b)) - delta)
            x_q, _ = eval_path(path, q)
            expect_q = np.sign(b) * np.maximum(np.abs(b) - q, 0.0)
            worst = max(worst, float(np.max(np.abs(x_q - expect_q))))
    report("identity instances reproduce the soft-threshold path", worst <= 1e-10,
           f"max deviation {worst:.2e}")


def test_ground_truth_recovery():
    rng = np.random.default_rng(SUITE_SEED + 2)
    bad = []
    for certificate in ("sparse", "dense"):
        for trial in range(12):
            m = int(rng.integers(8, 16))
            sparsity = int(rng.integers(1, max(2, m // 3)))
            delta = float(rng.uniform(0.1, 1.5))
            gti = random_ground_truth(m, 2 * m, sparsity, delta,
                                      seed=int(rng.integers(0, 2**31)),
                                      certificate=certificate)
            path = solve_path(gti.inst)
            target = float(np.sum(np.abs(gti.x_bar)))
            if path.terminated != "target-reached" or \
                    abs(path.objective - target) > ORACLE_RTOL * (1 + target):
                bad.append((certificate, trial))
    report("ground-truth instances recover the planted objective", not bad,
           f"failures: {bad}" if bad else "12 sparse + 12 dense certificates")


def test_warm_start_consistency(suite):
    mismatched = 0
    not_worse = 0
    usable = 0
    for run in suite["runs"]:
        warm, cold = run["warm"], run["cold"]
        if warm.terminated != "target-reached" or cold.terminated != "target-reached":
            mismatched += 1
            continue
        usable += 1
        if abs(warm.objective - cold.objective) > 1e-9 * (1 + abs(cold.objective)):
            mismatched += 1
            continue
        if (warm.dual_iterations + warm.primal_iterations) <= \
                (cold.dual_iterations + cold.primal_iterations):
            not_worse += 1
    ok = mismatched == 0 and not_worse >= 0.9 * usable
    report("warm starts: identical objectives, not more subsolver iterations",
           ok, f"{not_worse}/{usable} instances at or below the cold iteration count")


def test_generic_vs_specialized_subsolvers():
    rng = np.random.default_rng(SUITE_SEED + 3)
    # each context with the x_k, b and y that its LP encoding reads
    captured = {"dual": [], "primal": []}
    while len(captured["dual"]) < 25 or len(captured["primal"]) < 25:
        inst = random_suite_instance(rng)
        for kind, ctx, x_k, y in subproblem_contexts(inst):
            if len(captured[kind]) < 25:
                captured[kind].append((ctx, x_k, inst.b, y))

    # (kind, StandardLp encoding, feasible start, specialized objective)
    solved = []
    for ctx, x_k, _, _ in captured["dual"]:
        res = dual_update(ctx)
        solved.append(("dual", *dual_lp_encoding(ctx, x_k),
                       float(-ctx.residual_signs @ res.y)))
    for ctx, _, b, y in captured["primal"]:
        solved.append(("primal", *primal_lp_encoding(ctx, b, y), -primal_update(ctx).t))

    # the generic solver runs the subsolvers' own loop; the Bland simplex
    # shares no code with it
    worst = {"generic": (0.0,), "simplex": (0.0,)}
    for kind, lp, start, value in solved:
        x_star, _ = asm_solve(lp, start)
        simplex = oracle.simplex_solve(general_form(lp))
        found = {"generic": float(lp.c @ x_star),
                 "simplex": simplex.value if simplex.status == "optimal" else np.inf}
        for leg, other in found.items():
            gap = abs(other - value) / (1 + abs(value))
            worst[leg] = max(worst[leg], (gap, kind, value, other))
    for leg, name in (("generic", "the generic active-set solver"),
                      ("simplex", "the Bland simplex on the GeneralLp form")):
        gap, kind, value, other = worst[leg]
        report(f"specialized subsolvers match {name}", gap <= 1e-8,
               f"largest relative gap {gap:.1e} ({kind}: {value!r} vs {other!r}) "
               f"over {len(solved)} captured subproblems, tolerance 1e-8")


def test_two_sided_bound_transform_round_trip():
    rng = np.random.default_rng(SUITE_SEED + 4)
    disagreements = 0
    for _ in range(100):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        alpha = rng.uniform(-3.0, 0.5, m)
        beta = alpha + rng.uniform(0.1, 3.0, m)
        gb = GeneralizedBounds(a, b, alpha, beta)
        delta_hat = float(rng.uniform(0.3, 3.0))
        ga, gb_tilde = to_linf_form(gb, delta_hat)
        for _ in range(100):
            x = rng.standard_normal(n) * float(rng.uniform(0.3, 2.0))
            r = a @ x - b
            inside = bool(np.all(r >= alpha) and np.all(r <= beta))
            mapped = bool(np.max(np.abs(ga @ x - gb_tilde)) <= delta_hat)
            if inside != mapped:
                disagreements += 1
    report("two-sided bound transform preserves membership", disagreements == 0,
           f"{disagreements} disagreements over 10000 samples")
