"""Independent correctness checks of computed paths.

They share no code with the package's own ``check_optimal_pair``: the
certificate tests are numpy, the reference objective comes from scipy's
HiGHS, and only the export round trip calls the package's export reader.
Tolerances are relative to the size of the quantities they compare, so
they do not depend on how the instance is scaled.
"""

from __future__ import annotations

import time

import numpy as np
from l1linf import pathexport

SIGN_RTOL = 1e-8      # subgradient inclusions, relative to the rounding scale
SUPPORT_RTOL = 1e-9   # |v_i| <= SUPPORT_RTOL * ||v||_inf counts as zero
GAP_RTOL = 1e-8       # duality gap, relative to the sizes of its terms
HIGHS_RTOL = 1e-7     # final objective against HiGHS
WARM_COLD_RTOL = 1e-9


def optimality_failures(A, b, deltas, X, Y) -> list[str]:
    """Certificate checks of every breakpoint at once.  Row k of X and Y is
    the breakpoint at bound deltas[k]; returns failure descriptions."""
    out = []
    absA = np.abs(A)
    G = Y @ A                                    # row k: (A^T y_k)^T
    g_tol = SIGN_RTOL * (1.0 + np.max(np.abs(Y) @ absA, axis=1))
    x_on = np.abs(X) > SUPPORT_RTOL * np.max(np.abs(X), axis=1, initial=0.0)[:, None]
    sign_viol = np.where(x_on, np.abs(G + np.sign(X)), np.maximum(np.abs(G) - 1.0, 0.0))
    bad = np.flatnonzero(np.max(sign_viol, axis=1, initial=0.0) > g_tol)
    if bad.size:
        k = int(bad[0])
        out.append(f"-A^T y not in Sign(x) at breakpoint {k} "
                   f"(violation {np.max(sign_viol[k]):.3e}, tolerance {g_tol[k]:.3e})")

    R = X @ A.T - b                              # row k: residual A x_k - b
    r_tol = SIGN_RTOL * (deltas + np.max(np.abs(X) @ absA.T + np.abs(b), axis=1))
    y_on = np.abs(Y) > SUPPORT_RTOL * np.max(np.abs(Y), axis=1, initial=0.0)[:, None]
    res_viol = np.where(y_on, np.abs(R - deltas[:, None] * np.sign(Y)),
                        np.maximum(np.abs(R) - deltas[:, None], 0.0))
    bad = np.flatnonzero(np.max(res_viol, axis=1, initial=0.0) > r_tol)
    if bad.size:
        k = int(bad[0])
        out.append(f"Ax - b not in delta Sign(y) at breakpoint {k} "
                   f"(violation {np.max(res_viol[k]):.3e}, tolerance {r_tol[k]:.3e})")

    primal = np.sum(np.abs(X), axis=1)
    dual = -(Y @ b) - deltas * np.sum(np.abs(Y), axis=1)
    gap_tol = GAP_RTOL * (primal + np.abs(Y) @ np.abs(b) + deltas * np.sum(np.abs(Y), axis=1))
    bad = np.flatnonzero(np.abs(primal - dual) > gap_tol)
    if bad.size:
        k = int(bad[0])
        out.append(f"duality gap {abs(primal[k] - dual[k]):.3e} at breakpoint {k} "
                   f"(tolerance {gap_tol[k]:.3e})")
    return out


def schedule_failures(b, delta_target: float, deltas) -> list[str]:
    """delta_k starts at ||b||_inf, decreases strictly and ends at the target."""
    start = float(np.max(np.abs(b)))
    out = []
    if deltas[0] != start:
        out.append(f"path starts at {deltas[0]!r}, not ||b||_inf = {start!r}")
    if deltas[-1] != delta_target:
        out.append(f"path ends at {deltas[-1]!r}, not the target {delta_target!r}")
    steps = np.diff(deltas)
    if np.any(steps >= 0.0):
        out.append(f"delta not strictly decreasing at breakpoint {int(np.argmax(steps >= 0.0)) + 1}")
    return out


def highs_objective(A, b, delta: float) -> tuple[float, float]:
    """min 1^T (u + v) s.t. -delta <= A (u - v) - b <= delta, u, v >= 0,
    solved by HiGHS.  Returns (objective, seconds)."""
    # imported here so that scipy stays out of the peak memory of the timed rounds
    from scipy.optimize import linprog
    AA = np.hstack([A, -A])
    tick = time.perf_counter()
    res = linprog(np.ones(AA.shape[1]), A_ub=np.vstack([AA, -AA]),
                  b_ub=np.concatenate([b + delta, delta - b]),
                  bounds=(0, None), method="highs")
    seconds = time.perf_counter() - tick
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the reference LP: {res.message}")
    return float(res.fun), seconds


def objective_failures(objective: float, reference: float, rtol: float, what: str) -> list[str]:
    if abs(objective - reference) > rtol * max(abs(reference), 1e-300):
        return [f"objective {objective!r} differs from {what} {reference!r}"]
    return []


def export_failures(text: str, ks, deltas, X, Y) -> list[str]:
    """The JSON export read back reproduces every (k, delta, x, y) exactly."""
    vectors = pathexport.export_vectors(pathexport.export_from_json(text))
    if len(vectors) != len(ks):
        return [f"export holds {len(vectors)} breakpoints, the path {len(ks)}"]
    for (k, delta, x, y), k0, d0, x0, y0 in zip(vectors, ks, deltas, X, Y):
        if k != k0 or delta != d0 or not np.array_equal(x, x0) or not np.array_equal(y, y0):
            return [f"export does not reproduce breakpoint {k0}"]
    return []
