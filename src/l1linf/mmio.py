"""Readers for MatrixMarket dense array matrices and plain-text / JSON vectors."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix, as_vector


class ParseError(ValueError):
    pass


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_numbers(value, name: str, scalar: bool = False) -> np.ndarray:
    """A decoded JSON array of numbers (nested for a matrix), or with scalar
    one number, as floats.  A ParseError names any other JSON value, even a
    boolean or a numeric string, which numpy would read as a number."""
    items = [value]
    while items:
        item = items.pop()
        if type(item) is list and not scalar:
            items.extend(item)
        elif type(item) not in (int, float):
            raise ParseError(f"{name} must {'be a number' if scalar else 'hold numbers'}, "
                             f"not {json_type(item)}")
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{name}: {exc}") from None


def read_matrixmarket_array(source) -> np.ndarray:
    """Read a dense matrix in MatrixMarket ``array real general`` format.

    ``source`` may be a path or already-loaded text.  Entries are stored
    column-major in the file, one value per line.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    else:
        text = str(source)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5:
        raise ParseError(f"malformed header: {lines[0]!r}")
    _, obj, fmt, field, symmetry = header[:5]
    if obj.lower() != "matrix" or fmt.lower() != "array":
        raise ParseError(f"unsupported MatrixMarket type: {obj} {fmt} (dense array only)")
    if field.lower() not in ("real", "double", "integer"):
        raise ParseError(f"unsupported field: {field}")
    if symmetry.lower() != "general":
        raise ParseError(f"unsupported symmetry: {symmetry}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line")
    try:
        rows, cols = (int(tok) for tok in body[0].split())
    except ValueError as exc:
        raise ParseError(f"bad size line: {body[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"bad size line: {body[0]!r} (negative dimension)")
    values = []
    for ln in body[1:]:
        values.extend(ln.split())
    if len(values) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, found {len(values)}")
    try:
        data = np.array([float(v) for v in values])
    except ValueError as exc:
        raise ParseError("non-numeric matrix entry") from exc
    return as_matrix(data.reshape((cols, rows)).T, "MatrixMarket matrix")


def read_vector(source) -> np.ndarray:
    """Read a vector, whitespace-separated or a JSON array, from the file
    at a ``Path`` or from the text of a ``str``."""
    if isinstance(source, Path):
        try:
            text = source.read_text()
        except FileNotFoundError as exc:
            raise ParseError(f"vector file not found: {source}") from exc
    else:
        text = str(source)
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON vector: {exc}") from exc
        return as_vector(json_numbers(data, "JSON vector"), "vector")
    try:
        return as_vector(np.array([float(tok) for tok in stripped.split()]), "vector")
    except ValueError as exc:
        raise ParseError("non-numeric vector entry") from exc
