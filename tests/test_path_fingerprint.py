"""``tools/path_fingerprint.py compare`` on hand-written fingerprint files,
and the per-path digest on one small solved path."""

import copy
import hashlib
import importlib.util
import json
import struct
from pathlib import Path

import numpy as np

from l1linf import ProblemInstance, solve_path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "path_fingerprint.py"
_spec = importlib.util.spec_from_file_location("path_fingerprint", TOOL)
path_fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(path_fingerprint)


def fingerprint(deltas):
    return {"status": "target-reached", "failure_reason": None,
            "breakpoints": len(deltas) - 1, "dual_iterations": 3,
            "primal_iterations": 2, "retries": 0,
            "kernel": {"fresh": 1, "updated": 2}, "certified": len(deltas),
            "delta_k": np.array(deltas, dtype="<f8").tobytes().hex()}


REFERENCE = {"gauss/0/warm": fingerprint([2.0, 1.5, 0.75, 0.5]),
             "gauss/0/cold": fingerprint([2.0, 1.0, 0.5])}


def compare(tmp_path, other, *options):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(REFERENCE))
    b.write_text(json.dumps(other))
    return path_fingerprint.main(["compare", str(a), str(b), *options])


def test_identical_files_compare_equal(tmp_path, capsys):
    assert compare(tmp_path, REFERENCE) == 0
    assert "0 differences" in capsys.readouterr().out


def test_changed_breakpoint_count_is_listed(tmp_path, capsys):
    other = dict(REFERENCE, **{"gauss/0/cold": fingerprint([2.0, 1.0, 0.75, 0.5])})
    assert compare(tmp_path, other) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("gauss/0/cold: breakpoints 2 != 3") for line in lines)
    assert not any(line.startswith("gauss/0/warm") for line in lines)


def test_delta_k_moved_within_rtol(tmp_path, capsys):
    moved = 0.75 * (1 + 1e-11)
    other = dict(REFERENCE, **{"gauss/0/warm": fingerprint([2.0, 1.5, moved, 0.5])})
    assert compare(tmp_path, other) == 1
    assert "gauss/0/warm: delta_k differs by" in capsys.readouterr().out
    assert compare(tmp_path, other, "--rtol", "1e-10") == 0


def test_x_moved_by_one_ulp_changes_the_digest(tmp_path, capsys):
    rng = np.random.default_rng(5)
    inst = ProblemInstance(rng.standard_normal((6, 12)), rng.standard_normal(6), 0.1)
    path = solve_path(inst)
    assert path.terminated == "target-reached" and len(path.breakpoints) > 2
    moved = copy.deepcopy(path)
    x = moved.breakpoints[1].x.copy()   # the record's dense views are read-only
    j = int(np.flatnonzero(x)[0])
    x[j] = np.nextafter(x[j], np.inf)
    moved.breakpoints[1].x = x
    digest = path_fingerprint.path_digest
    assert digest(path) == digest(copy.deepcopy(path)) != digest(moved)
    fp = fingerprint([2.0, 1.5, 0.75, 0.5])
    ref = {"gauss/0/warm": dict(fp, digest=digest(path))}
    other = {"gauss/0/warm": dict(fp, digest=digest(moved))}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(ref))
    b.write_text(json.dumps(other))
    assert path_fingerprint.main(["compare", str(a), str(b)]) == 1
    assert "gauss/0/warm: digest" in capsys.readouterr().out
    # a positive rtol bounds delta_k alone and leaves the digests aside
    assert path_fingerprint.main(["compare", str(a), str(b), "--rtol", "1e-12"]) == 0


def test_digest_hashes_each_set_as_little_endian_int64_positions():
    # the bytes hashed for a set are its positions as 8-byte little-endian
    # integers, whatever type the record keeps them in, so fingerprints
    # written before and after a change of that type compare equal
    def chunk(values, code):
        return len(values).to_bytes(8, "little") + struct.pack(f"<{len(values)}{code}", *values)
    rng = np.random.default_rng(5)
    inst = ProblemInstance(rng.standard_normal((6, 12)), rng.standard_normal(6), 0.1)
    path = solve_path(inst)
    h = hashlib.sha256()
    for bp in path.breakpoints:
        s = bp.sets
        h.update(chunk(bp.x.tolist(), "d") + chunk(bp.y.tolist(), "d"))
        for idx in (s.J_P, s.I_P, s.J_D, s.I_D):
            h.update(chunk([int(i) for i in idx], "q"))
        h.update(chunk(s.residual_signs.tolist(), "d"))
    assert path_fingerprint.path_digest(path) == h.hexdigest()


def test_last_line_counts_the_differing_paths_of_each_family(tmp_path, capsys):
    reference = dict(REFERENCE, **{"tied/3/warm": fingerprint([1.0, 0.5]),
                                   "tied/3/cold": fingerprint([1.0, 0.5])})
    moved = dict(reference, **{
        "gauss/0/cold": dict(fingerprint([2.0, 1.0, 0.5 * (1 + 1e-15)]), retries=1),
        "gauss/0/warm": fingerprint([2.0, 1.5, 0.75, 0.5 * (1 + 1e-15)])})
    del moved["tied/3/cold"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(reference))
    b.write_text(json.dumps(moved))
    assert path_fingerprint.main(["compare", str(a), str(b)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("by family: gauss 2 (delta_k, retries) delta_k 1.1e-15; "
                    "tied 1 (presence) delta_k 0")
    assert path_fingerprint.main(["compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "by family: gauss 0 delta_k 0; tied 0 delta_k 0"


def test_last_line_gives_each_familys_largest_delta_k_difference(tmp_path, capsys):
    # one family moved within --rtol, one unchanged: no path differs, and
    # the moved family's line shows by how much, relative to each delta_k
    reference = dict(REFERENCE, **{"tied/3/warm": fingerprint([1.0, 0.5])})
    moved = dict(reference, **{
        "gauss/0/warm": fingerprint([2.0, 1.5, 0.75 * (1 + 1e-13), 0.5])})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(reference))
    b.write_text(json.dumps(moved))
    assert path_fingerprint.main(["compare", str(a), str(b), "--rtol", "1e-12"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "by family: gauss 0 delta_k 1.0e-13; tied 0 delta_k 0"
