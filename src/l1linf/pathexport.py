"""Lossless JSON / CSV serialization of solution paths.

Schema 2 stores each breakpoint's sparse ``x`` and ``y`` as
``{"i": <base64 of little-endian int32 indices, strictly increasing>,
"v": <base64 of little-endian float64 values>}``; every other field is a
plain JSON value.  The indices are the vector's exact nonzeros.  The
writer encodes the positions and values that each breakpoint records
(``PathBreakpoint.x_entries`` and ``y_entries``) as they are, so it
builds and searches no dense vector.  The reader checks every vector it
decodes and raises ``ValueError`` on anything the writer cannot have
produced.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .homotopy import ProblemInstance, SolutionPath
from .instances import instance_digest

SCHEMA_VERSION = 2

_INDEX = np.dtype("<i4")
_VALUE = np.dtype("<f8")
_VECTOR_KEYS = {"i", "v"}
_BREAKPOINT_KEYS = {"k", "delta", "t", "x", "y"}


def _b64(a: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(a.astype(dtype, copy=False).tobytes()).decode("ascii")


def _encode_entries(entries: tuple[np.ndarray, np.ndarray]) -> dict:
    positions, values = entries
    return {"i": _b64(positions, _INDEX), "v": _b64(values, _VALUE)}


def _decode_array(text, dtype: np.dtype, what: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"{what} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII string
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{what} holds {len(raw)} bytes, not a multiple of {dtype.itemsize}")
    return np.frombuffer(raw, dtype=dtype)


def _decode_vector(field, size: int, what: str) -> np.ndarray:
    if not isinstance(field, dict) or field.keys() != _VECTOR_KEYS:
        raise ValueError(f'{what} is not an {{"i", "v"}} object')
    idx = _decode_array(field["i"], _INDEX, f"{what}.i")
    val = _decode_array(field["v"], _VALUE, f"{what}.v")
    if idx.size != val.size:
        raise ValueError(f"{what} has {idx.size} indices but {val.size} values")
    if np.any(idx[1:] <= idx[:-1]):
        raise ValueError(f"{what} indices are not strictly increasing")
    if idx.size and (idx[0] < 0 or idx[-1] >= size):
        raise ValueError(f"{what} has an index outside [0, {size})")
    if not np.all(np.isfinite(val)):
        raise ValueError(f"{what} holds a non-finite value")
    out = np.zeros(size)
    out[idx] = val
    return out


def path_to_export(inst: ProblemInstance, path: SolutionPath,
                   timing: dict | None = None) -> dict:
    bps = []
    for bp in path.breakpoints:
        bps.append({
            "k": bp.k,
            "delta": float(bp.delta_k),
            "t": float(bp.t_step),
            "x": _encode_entries(bp.x_entries),
            "y": _encode_entries(bp.y_entries),
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


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_real(v) -> bool:
    # the writer emits floats; an integer literal may not fit in one
    return isinstance(v, float) and math.isfinite(v)


def export_from_json(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("path export is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')}")
    bps = data.get("breakpoints")
    if not isinstance(bps, list) or not bps:
        raise ValueError("path export has no breakpoints")
    if not (_is_count(data.get("m")) and _is_count(data.get("n"))):
        raise ValueError("path export needs non-negative integers m and n")
    for j, bp in enumerate(bps):
        if not isinstance(bp, dict) or not _BREAKPOINT_KEYS <= bp.keys():
            raise ValueError(f"breakpoint {j} lacks one of {sorted(_BREAKPOINT_KEYS)}")
        if not (_is_count(bp["k"]) and _is_real(bp["delta"]) and _is_real(bp["t"])):
            raise ValueError(f"breakpoint {j} needs an integer k and finite floats delta and t")
    return data


def export_vectors(export: dict) -> list[tuple[int, float, np.ndarray, np.ndarray]]:
    """Reconstruct (k, delta, x, y) per breakpoint from an export dict."""
    n, m = export["n"], export["m"]
    return [(int(bp["k"]), float(bp["delta"]),
             _decode_vector(bp["x"], n, f"breakpoint {j} x"),
             _decode_vector(bp["y"], m, f"breakpoint {j} y"))
            for j, bp in enumerate(export["breakpoints"])]


def export_to_csv(export: dict) -> str:
    lines = ["k,delta,t,nnz_x,nnz_y,objective"]
    for (k, delta, x, y), bp in zip(export_vectors(export), export["breakpoints"]):
        obj = float(np.sum(np.abs(x)))
        lines.append(f"{k},{delta!r},{bp['t']!r},{np.count_nonzero(x)},{np.count_nonzero(y)},{obj!r}")
    return "\n".join(lines) + "\n"
