"""Instance construction: problems with known optimal solutions, random
draws with verified l1-minimality, and the reduction of two-sided bound
constraints alpha <= Ax - b <= beta to sup-norm form."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .homotopy import ProblemInstance, check_optimal_pair
from .linalg import as_matrix, as_vector
from .mmio import json_numbers, json_type, read_matrixmarket_array

CERT_TOL = 1e-10   # certificate validation for ground-truth construction
BP_TOL = 1e-9      # l1-minimality verification slack
BP_TRIES = 50      # draws random_bp_pair makes before it gives up
GROUND_TRUTH_TRIES = 20   # draws random_ground_truth makes before it gives up


@dataclass
class GroundTruthInstance:
    inst: ProblemInstance
    x_bar: np.ndarray
    y_bar: np.ndarray


@dataclass
class GeneralizedBounds:
    A: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.b = as_vector(self.b, "b")
        self.alpha = as_vector(self.alpha, "alpha")
        self.beta = as_vector(self.beta, "beta")
        m = self.A.shape[0]
        if not (self.b.size == self.alpha.size == self.beta.size == m):
            raise ValueError("bound vectors must match the row count")
        if np.any(self.alpha >= self.beta):
            raise ValueError("need alpha < beta componentwise")


def make_ground_truth(A, x_bar, y_bar, delta: float) -> GroundTruthInstance:
    """Shift the measurements so that x_bar is optimal at the given bound:
    b_hat = A x_bar - delta * sign(y_bar), where y_bar certifies the
    l1-minimality of x_bar (-A^T y_bar in Sign(x_bar), validated)."""
    A = as_matrix(A, "A")
    x_bar = as_vector(x_bar, "x_bar")
    y_bar = as_vector(y_bar, "y_bar")
    g = A.T @ y_bar
    supp = np.abs(x_bar) > CERT_TOL
    if np.any(np.abs(g[supp] + np.sign(x_bar[supp])) > CERT_TOL):
        raise ValueError("certificate violates the support sign condition")
    if np.any(np.abs(g[~supp]) > 1.0 + CERT_TOL):
        raise ValueError("certificate exceeds the unit bound off the support")
    b_hat = A @ x_bar - delta * np.sign(y_bar)
    inst = ProblemInstance(A, b_hat, delta)
    gti = GroundTruthInstance(inst, x_bar, y_bar)
    if not check_optimal_pair(inst, x_bar, y_bar, delta, tol=1e-9):
        raise RuntimeError("constructed instance fails its own optimality check")
    return gti


def random_bp_pair(m: int, n: int, sparsity: int, dynamic_range: float = 10.0,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw a unit-column Gaussian matrix and a sparse vector whose
    l1-minimality for A x = A x_bar is verified against the simplex oracle;
    failing draws are rejected and resampled."""
    if m < 1 or n < 1:
        raise ValueError(f"A must have at least one row and one column, not m={m}, n={n}")
    if sparsity < 0:
        raise ValueError("sparsity must be nonnegative")
    if sparsity > m // 2:
        raise ValueError("sparsity above m/2 rarely yields l1-minimal draws; lower it")
    if not 0.0 < dynamic_range < np.inf:
        raise ValueError("dynamic_range must be finite and positive")
    rng = np.random.default_rng(seed)
    for _ in range(BP_TRIES):
        a = rng.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=0)
        x_bar = np.zeros(n)
        if sparsity > 0:
            supp = np.sort(rng.choice(n, size=sparsity, replace=False))
            mags = dynamic_range ** rng.uniform(0.0, 1.0, size=sparsity)
            x_bar[supp] = rng.choice([-1.0, 1.0], size=sparsity) * mags
        if sparsity == 0:
            return a, x_bar
        b = a @ x_bar
        lp = oracle.reformulate(ProblemInstance(a, b, 0.0))
        res = oracle.simplex_solve(lp)
        target = float(np.sum(np.abs(x_bar)))
        if res.status == "optimal" and abs(res.value - target) <= BP_TOL * (1.0 + target):
            return a, x_bar
    raise RuntimeError(f"no l1-minimal draw in {BP_TRIES} tries; lower the sparsity")


def dense_certificate(A, x_bar) -> np.ndarray:
    """Least-squares certificate: minimum-2-norm solution of
    A_J^T y = -sign(x_bar_J); generically fully dense.  Raises when the
    off-support bound |A_j^T y| <= 1 fails (draw again in that case)."""
    A = as_matrix(A, "A")
    x_bar = as_vector(x_bar, "x_bar")
    supp = np.flatnonzero(np.abs(x_bar) > CERT_TOL)
    if supp.size == 0:
        return np.zeros(A.shape[0])
    y, *_ = np.linalg.lstsq(A[:, supp].T, -np.sign(x_bar[supp]), rcond=None)
    if np.max(np.abs(A[:, supp].T @ y + np.sign(x_bar[supp]))) > CERT_TOL:
        raise ValueError("support equations of the certificate are inconsistent")
    off = np.setdiff1d(np.arange(A.shape[1]), supp)
    if off.size and np.max(np.abs(A[:, off].T @ y)) > 1.0 - 1e-9:
        raise ValueError("least-squares certificate violates the unit bound")
    return y


def random_ground_truth(m: int, n: int, sparsity: int, delta: float,
                        seed: int = 0, certificate: str = "sparse",
                        dynamic_range: float = 10.0) -> GroundTruthInstance:
    """Complete generator: verified sparse draw plus a certificate of the
    chosen regime ("sparse" keeps the optimal active set small, "dense"
    makes it as large as possible)."""
    if certificate not in ("sparse", "dense"):
        raise ValueError("certificate must be 'sparse' or 'dense'")
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    for k in range(GROUND_TRUTH_TRIES):
        a, x_bar = random_bp_pair(m, n, sparsity, dynamic_range, seed + 1000 * k)
        try:
            y_bar = oracle.certificate_l1(a, x_bar) if certificate == "sparse" \
                else dense_certificate(a, x_bar)
            return make_ground_truth(a, x_bar, y_bar, delta)
        except ValueError:
            continue
    raise RuntimeError(f"no valid {certificate} certificate found in {GROUND_TRUTH_TRIES} draws")


def to_linf_form(gb: GeneralizedBounds, delta_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescale two-sided bounds alpha <= Ax - b <= beta into sup-norm form:
    with gamma = (beta - alpha)/2, b~ = b + (alpha + beta)/2 and
    G = diag(delta_hat / gamma), membership is equivalent to
    ||G A x - G b~||_inf <= delta_hat, for a finite positive delta_hat."""
    if not 0.0 < delta_hat < np.inf:
        raise ValueError("delta_hat must be finite and positive")
    gamma = 0.5 * (gb.beta - gb.alpha)
    b_tilde = gb.b + 0.5 * (gb.alpha + gb.beta)
    g = delta_hat / gamma
    return g[:, None] * gb.A, g * b_tilde


def instance_to_dict(inst: ProblemInstance, x_bar=None, y_bar=None,
                     seed: int | None = None) -> dict:
    out = {"A": inst.A.tolist(), "b": inst.b.tolist(), "delta": float(inst.delta)}
    if x_bar is not None:
        out["x_bar"] = np.asarray(x_bar, dtype=float).tolist()
    if y_bar is not None:
        out["y_bar"] = np.asarray(y_bar, dtype=float).tolist()
    if seed is not None:
        out["seed"] = int(seed)
    return out


def _floats(data: dict, name: str, scalar: bool = False) -> np.ndarray:
    return json_numbers(data[name], f"instance JSON field {name!r}", scalar)


def instance_from_dict(data: dict) -> tuple[ProblemInstance, np.ndarray | None, np.ndarray | None]:
    if not isinstance(data, dict):
        raise ValueError(f"instance JSON must be an object, not {json_type(data)}")
    if "A" not in data or "b" not in data:
        raise ValueError("instance JSON needs 'A' and 'b' fields")
    raw_a = data["A"]
    if isinstance(raw_a, dict) and "matrixmarket" in raw_a:
        a = read_matrixmarket_array(raw_a["matrixmarket"])
    else:
        a = as_matrix(_floats(data, "A"), "A")
    b = as_vector(_floats(data, "b"), "b")
    delta = float(_floats(data, "delta", scalar=True)) if "delta" in data else 0.0
    inst = ProblemInstance(a, b, delta)
    x_bar, y_bar = (as_vector(_floats(data, name), name) if name in data else None
                    for name in ("x_bar", "y_bar"))
    return inst, x_bar, y_bar


def save_instance(path, inst: ProblemInstance, x_bar=None, y_bar=None,
                  seed: int | None = None) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(inst, x_bar, y_bar, seed), indent=1) + "\n")


def load_instance(path) -> tuple[ProblemInstance, np.ndarray | None, np.ndarray | None]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad instance JSON: {exc}") from exc
    return instance_from_dict(data)


def instance_digest(inst: ProblemInstance) -> str:
    """Hash of the shape and the little-endian float64 bytes of A, b and delta."""
    h = hashlib.sha256(np.array(inst.A.shape, dtype="<i8").tobytes())
    for part in (inst.A, inst.b, np.array([inst.delta])):
        h.update(np.ascontiguousarray(part, dtype="<f8"))
    return "sha256:" + h.hexdigest()[:16]
