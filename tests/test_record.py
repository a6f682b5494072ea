"""The breakpoint record keeps x and y on their supports, losslessly.

On every breakpoint of the reference paths of ``tools/path_fingerprint.py``
(seed 1 of the four benchmark workloads, ``verify --count 200 --seed 0``
and the 100 tied draws, each solved warm and cold), the dense views equal
the vectors that the two updates returned, bit for bit, and the export
equals, byte for byte, that of a reference encoder which searches the
dense vectors for their nonzeros."""

import base64
import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from l1linf import homotopy, solve_path
from l1linf.pathexport import export_from_json, export_to_json, export_vectors, path_to_export
from test_homotopy import pinned_gaussian
from test_path_fingerprint import path_fingerprint

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
FAMILIES = ["gauss-deep", "wide-shallow", "dantzig-gram", "small-many", "verify-0",
            "half-integer"]


def _reference_cases(monkeypatch, family):
    """(label, instance) of one family of the fingerprint tool's reference
    paths; the benchmark's workloads file is read without changing it."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # the tool imports it by name
    spec.loader.exec_module(module)
    return [(label, inst) for label, inst in path_fingerprint._cases()
            if label.split("/")[0] == family]


def _returned_vectors(monkeypatch):
    """Copies of the y of every dual update and the x of every primal
    update that solve_path makes, in call order."""
    ys, xs = [], []
    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update

    def dual(ctx):
        res = dual_update(ctx)
        ys.append(res.y.copy())
        return res

    def primal(ctx):
        res = primal_update(ctx)
        xs.append(res.x.copy())
        return res
    monkeypatch.setattr(homotopy, "dual_update", dual)
    monkeypatch.setattr(homotopy, "primal_update", primal)
    return xs, ys


def _reference_encoding(v: np.ndarray) -> dict:
    idx = v.nonzero()[0]
    return {"i": base64.b64encode(idx.astype("<i4").tobytes()).decode("ascii"),
            "v": base64.b64encode(v[idx].astype("<f8").tobytes()).decode("ascii")}


@pytest.mark.parametrize("family", FAMILIES)
def test_record_keeps_every_reference_breakpoint_exactly(monkeypatch, family):
    cases = _reference_cases(monkeypatch, family)
    xs, ys = _returned_vectors(monkeypatch)
    for label, inst in cases:
        for warm in (True, False):
            xs.clear()
            ys.clear()
            path = solve_path(inst, use_warm_starts=warm)
            # breakpoint k >= 1 is the pair of iteration k - 1; a failing
            # last iteration may add one vector more
            dense = [(np.zeros(inst.n), np.zeros(inst.m)), *zip(xs, ys)]
            assert len(dense) >= len(path.breakpoints), label
            for bp, (x, y) in zip(path.breakpoints, dense):
                for view, returned, (positions, _), held in (
                        (bp.x, x, bp.x_entries, bp.sets.J_P),
                        (bp.y, y, bp.y_entries, bp.sets.I_D)):
                    assert view.dtype == np.float64 and not view.flags.writeable, label
                    assert view.tobytes() == returned.tobytes(), (label, warm, bp.k)
                    assert positions.dtype == np.int32 and not positions.flags.writeable
                    # a support that is its set is that set's own array
                    assert positions is held or not np.array_equal(positions, held), \
                        (label, warm, bp.k)
            export = path_to_export(inst, path)
            expected = dict(export, breakpoints=[
                dict(field, x=_reference_encoding(x), y=_reference_encoding(y))
                for field, (x, y) in zip(export["breakpoints"], dense)])
            assert export_to_json(export) == export_to_json(expected), (label, warm)


def test_record_holds_a_fraction_of_the_dense_vectors(monkeypatch):
    # the wide-shallow reference paths (200 x 2000, small supports), warm
    # and cold: 0.54 MB held under tracemalloc, where their dense x and y
    # alone take 5.5 MB (and held 5.96 MB in all before the record kept
    # its vectors on their supports)
    cases = _reference_cases(monkeypatch, "wide-shallow")
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        paths = [solve_path(inst, use_warm_starts=warm)
                 for _, inst in cases for warm in (True, False)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    dense = sum(8 * (inst.m + inst.n) * len(path.breakpoints)
                for (_, inst), path in zip([c for c in cases for _ in range(2)], paths))
    assert 0 < held <= 0.2 * dense, (held, dense)


def test_exporting_a_path_leaves_its_record_as_it_was():
    # the export encodes from array buffers; one taken from the record's
    # own arrays would leave numpy's buffer description on each of them
    # (14,390 bytes more held on these 63 breakpoints)
    inst = pinned_gaussian()
    path = solve_path(inst)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        export_to_json(path_to_export(inst, path))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(path.breakpoints) > 50 and held <= 1000, held


def test_planted_vectors_round_trip(monkeypatch):
    # at iteration 2 the primal's x gets a nonzero outside its J_P, and the
    # dual's y an exact zero inside its I_D and a nonzero outside it: the
    # record keeps their own supports, and the export gives them back
    planted = {}
    dual_update, primal_update = homotopy.dual_update, homotopy.primal_update
    calls = []

    def dual(ctx):
        res = dual_update(ctx)
        calls.append("dual")
        if len(calls) == 5:
            inside, outside = res.I_D.nonzero()[0][0], (~res.I_D).nonzero()[0][0]
            res.y[inside], res.y[outside] = 0.0, -2.5e-13
            planted["y"] = res.y.copy()
        return res

    def primal(ctx):
        res = primal_update(ctx)
        calls.append("primal")
        if len(calls) == 6:
            res.x[(~res.J_P).nonzero()[0][0]] = 1e-12
            planted["x"] = res.x.copy()
        return res
    monkeypatch.setattr(homotopy, "dual_update", dual)
    monkeypatch.setattr(homotopy, "primal_update", primal)
    inst = pinned_gaussian()
    path = solve_path(inst)
    bp = path.breakpoints[3]
    assert bp.x_entries[0] is not bp.sets.J_P and bp.y_entries[0] is not bp.sets.I_D
    assert bp.x.tobytes() == planted["x"].tobytes()
    assert bp.y.tobytes() == planted["y"].tobytes()
    vectors = export_vectors(export_from_json(export_to_json(path_to_export(inst, path))))
    k, _, x, y = vectors[3]
    assert k == 3 and x.tobytes() == planted["x"].tobytes()
    assert y.tobytes() == planted["y"].tobytes()


def test_views_are_fresh_read_only_and_do_not_read_the_sets():
    path = solve_path(pinned_gaussian())
    bp = path.breakpoints[5]
    first = bp.x
    assert bp.x is not first and np.array_equal(bp.x, first)
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    bp.sets = None
    assert np.array_equal(bp.x, first) and bp.y.size == 30


def test_an_assigned_vector_is_kept_as_given():
    # what the benchmark's negative control does to one certificate
    path = solve_path(pinned_gaussian())
    bp = path.breakpoints[5]
    bp.y = bp.y.copy()
    bp.y[0] += 0.1
    y = bp.y
    assert y is bp.y and y.flags.writeable and y[0] != 0.0
    positions, values = bp.y_entries
    assert positions.dtype == np.int32 and positions[0] == 0
    assert np.array_equal(values, y[y != 0.0])
