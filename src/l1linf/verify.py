"""Property-based verification harness behind the ``verify`` CLI command.

Runs seeded random instances through the path solver and checks the
contract every run must satisfy: certified breakpoints, strict progress,
oracle agreement, path linearity, warm-start consistency and exclusivity
of the two improvement-direction systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .homotopy import (PAIR_TOL, T_MIN, ProblemInstance, SolutionPath,
                       check_alternatives, check_optimal_pair, duality_gap, eval_path,
                       solve_path)
from .instances import instance_to_dict

MAX_EXCLUSIVITY_PAIRS = 100


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_instance(rng: np.random.Generator) -> ProblemInstance:
    m = int(rng.integers(5, 21))
    n = 2 * m
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m) * float(rng.uniform(0.5, 5.0))
    delta = float(rng.uniform(0.05, 0.95) * np.max(np.abs(b)))
    return ProblemInstance(a, b, delta)


def _path_checks(inst: ProblemInstance, path: SolutionPath, pair_tol: float,
                 perturb_y: bool) -> dict[str, str | None]:
    """Returns {check name: failure detail or None} for a single solved path."""
    out: dict[str, str | None] = {
        "termination": None, "optimal-pairs": None, "strict-progress": None,
        "set-containments": None, "path-linearity": None,
    }
    if path.terminated != "target-reached":
        out["termination"] = path.failure_reason or "did not reach the target"
        return out
    if len(path.breakpoints) - 1 > 20 * (inst.m + inst.n):
        out["termination"] = "breakpoint count exceeds 20(m+n)"

    for bp in path.breakpoints:
        x, y = bp.x, bp.y.copy()   # each access builds the dense vector anew
        if perturb_y and bp.k > 0:
            y[0] += 0.1
        if not check_optimal_pair(inst, x, y, bp.delta_k, tol=pair_tol):
            out["optimal-pairs"] = f"breakpoint {bp.k} fails certification"
            break
        gap = duality_gap(inst, x, y, bp.delta_k)
        if gap > pair_tol * (1.0 + np.sum(np.abs(x))):
            out["optimal-pairs"] = f"breakpoint {bp.k} duality gap {gap:.2e}"
            break

    for prev, cur in zip(path.breakpoints, path.breakpoints[1:]):
        if not cur.delta_k < prev.delta_k:
            out["strict-progress"] = f"delta not strictly decreasing at k={cur.k}"
            break
        if cur.t_step <= T_MIN:
            out["strict-progress"] = f"degenerate step t={cur.t_step:.2e} at k={cur.k}"
            break

    for bp in path.breakpoints:
        if not np.isin(bp.sets.J_P, bp.sets.J_D).all():
            out["set-containments"] = f"J_P not within J_D at k={bp.k}"
            break
        if not np.isin(bp.sets.I_D, bp.sets.I_P).all():
            out["set-containments"] = f"I_D not within I_P at k={bp.k}"
            break

    for prev, cur in zip(path.breakpoints, path.breakpoints[1:]):
        for w in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = cur.delta_k + w * (prev.delta_k - cur.delta_k)
            x_q, y_q = eval_path(path, q)
            if not check_optimal_pair(inst, x_q, y_q, q, tol=pair_tol):
                out["path-linearity"] = f"interpolant at delta={q:.4g} not optimal"
                break
        if out["path-linearity"]:
            break
    return out


def run_suite(count: int = 200, seed: int = 0, perturb_y: bool = False,
              pair_tol: float = PAIR_TOL, instances=None) -> tuple[list[CheckResult], dict | None]:
    """Run the default property suite.  Returns the check results and, when a
    property fails, the first failing instance serialized for replay."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, not {count}")
    if not 0.0 <= pair_tol < np.inf:
        raise ValueError("pair_tol must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    if instances is None:
        instances = [random_instance(rng) for _ in range(count)]
    failing: dict | None = None
    names = ["termination", "optimal-pairs", "strict-progress",
             "set-containments", "path-linearity", "oracle-equivalence",
             "warm-start-consistency", "alternatives-exclusivity"]
    fails: dict[str, str | None] = {name: None for name in names}
    warm_not_worse = 0
    pairs_checked = 0
    pairs_bad: str | None = None

    def fail(name: str, detail: str, idx: int | None = None) -> None:
        """Keep the first failure of check ``name``; one at instance idx
        also keeps that instance for replay, unless one is kept."""
        nonlocal failing
        if fails[name] is None:
            fails[name] = detail if idx is None else f"instance {idx}: {detail}"
            if idx is not None and failing is None:
                failing = instance_to_dict(instances[idx], seed=seed)

    for idx, inst in enumerate(instances):
        path = solve_path(inst)
        per = _path_checks(inst, path, pair_tol, perturb_y)
        for name, detail in per.items():
            if detail:
                fail(name, detail, idx)
        if path.terminated != "target-reached":
            continue

        res = oracle.simplex_solve(oracle.reformulate(inst))
        if res.status != "optimal" or \
                abs(path.objective - res.value) > 1e-7 * (1.0 + abs(res.value)):
            fail("oracle-equivalence", f"path {path.objective!r} vs oracle {res.value!r}", idx)

        cold = solve_path(inst, use_warm_starts=False)
        if cold.terminated == "target-reached" and \
                abs(path.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective)):
            if (path.dual_iterations + path.primal_iterations) <= \
                    (cold.dual_iterations + cold.primal_iterations):
                warm_not_worse += 1
        else:
            fail("warm-start-consistency", "warm/cold objectives differ", idx)

        if pairs_checked < MAX_EXCLUSIVITY_PAIRS and pairs_bad is None:
            for bp in path.breakpoints[1:]:
                if bp.delta_k <= 1e-9 or pairs_checked >= MAX_EXCLUSIVITY_PAIRS:
                    break
                s1, s2 = check_alternatives(inst, bp.x, bp.y, bp.delta_k)
                pairs_checked += 1
                if s1 == s2:
                    pairs_bad = (f"instance {idx} breakpoint {bp.k}: "
                                 f"systems ({s1}, {s2})")
                    break

    if instances and warm_not_worse < 0.9 * len(instances):
        fail("warm-start-consistency",
             f"warm start not-worse on only {warm_not_worse}/{len(instances)}")
    if pairs_bad:
        fail("alternatives-exclusivity", pairs_bad)

    results = [CheckResult(name, fails[name] is None, fails[name] or "")
               for name in names]
    return results, failing


def format_results(results: list[CheckResult]) -> str:
    width = max((len(r.name) for r in results), default=10)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{status}  {r.name.ljust(width)}{suffix}")
    return "\n".join(lines)
