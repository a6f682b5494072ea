"""Lossless JSON / CSV serialization of solution paths."""

from __future__ import annotations

import json

import numpy as np

from .homotopy import ProblemInstance, SolutionPath
from .instances import instance_digest

SCHEMA_VERSION = 1


def _sparse_entries(v: np.ndarray) -> list[list]:
    idx = np.flatnonzero(v)
    return [[i, x] for i, x in zip(idx.tolist(), v[idx].tolist())]


def _dense_from_entries(entries, size: int) -> np.ndarray:
    out = np.zeros(size)
    for i, x in entries:
        out[int(i)] = float(x)
    return out


def path_to_export(inst: ProblemInstance, path: SolutionPath,
                   timing: dict | None = None) -> dict:
    bps = []
    for bp in path.breakpoints:
        bps.append({
            "k": bp.k,
            "delta": float(bp.delta_k),
            "t": float(bp.t_step),
            "x": _sparse_entries(bp.x),
            "y": _sparse_entries(bp.y),
            "sets": {
                "J_P": len(bp.sets.J_P),
                "I_P": len(bp.sets.I_P),
                "J_D": len(bp.sets.J_D),
                "I_D": len(bp.sets.I_D),
            },
        })
    out = {
        "schema_version": SCHEMA_VERSION,
        "instance_digest": instance_digest(inst),
        "m": inst.m,
        "n": inst.n,
        "delta_target": float(inst.delta),
        "terminated": path.terminated,
        "breakpoints": bps,
        "stats": {
            "dual_iterations": path.dual_iterations,
            "primal_iterations": path.primal_iterations,
            "retries": path.retries,
        },
    }
    if path.failure_reason:
        out["failure_reason"] = path.failure_reason
    if timing is not None:
        out["timing"] = {k: float(v) for k, v in timing.items()}
    return out


def export_to_json(export: dict) -> str:
    # compact separators keep json on its C encoder; indent forces the
    # Python one, which holds every chunk of the text before joining them
    return json.dumps(export, sort_keys=True, separators=(",", ":")) + "\n"


def export_from_json(text: str) -> dict:
    data = json.loads(text)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')}")
    if "breakpoints" not in data or "n" not in data:
        raise ValueError("path export missing required fields")
    return data


def export_vectors(export: dict) -> list[tuple[int, float, np.ndarray, np.ndarray]]:
    """Reconstruct (k, delta, x, y) per breakpoint from an export dict."""
    n, m = int(export["n"]), int(export["m"])
    out = []
    for bp in export["breakpoints"]:
        out.append((int(bp["k"]), float(bp["delta"]),
                    _dense_from_entries(bp["x"], n),
                    _dense_from_entries(bp["y"], m)))
    return out


def export_to_csv(export: dict) -> str:
    lines = ["k,delta,t,nnz_x,nnz_y,objective"]
    for (k, delta, x, y), bp in zip(export_vectors(export), export["breakpoints"]):
        obj = float(np.sum(np.abs(x)))
        lines.append(f"{k},{delta!r},{bp['t']!r},{np.count_nonzero(x)},{np.count_nonzero(y)},{obj!r}")
    return "\n".join(lines) + "\n"
