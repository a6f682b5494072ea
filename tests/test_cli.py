import base64
import json

import numpy as np
import pytest

from l1linf import PathBreakpoint, solve_path
from l1linf.cli import main
from l1linf.pathexport import (_INDEX, _VALUE, _b64 as export_b64, _encode_entries,
                               export_from_json, export_to_csv, export_to_json,
                               export_vectors, path_to_export)
from reference_lp import write_matrixmarket_array
from test_homotopy import pinned_dantzig, pinned_gaussian


def write_scalar_instance(tmp_path, delta=0.0):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"A": [[1.0]], "b": [2.0], "delta": delta}))
    return f


def test_solve_scalar_json(tmp_path, capsys):
    inst = write_scalar_instance(tmp_path)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    assert export["terminated"] == "target-reached"
    assert len(export["breakpoints"]) == 2
    vecs = export_vectors(export)
    np.testing.assert_allclose(vecs[-1][2], [2.0], atol=1e-12)
    assert "timing" in export


def test_solve_trivial_delta_single_breakpoint(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=3.0)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    assert len(export["breakpoints"]) == 1


def test_solve_delta_flag_overrides(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=0.0)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "--delta", "0.5", "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    assert export["delta_target"] == 0.5


@pytest.mark.parametrize("route", ["json", "matrixmarket"])
def test_solve_non_finite_delta_flag_exit_2(tmp_path, capsys, route):
    inst = write_scalar_instance(tmp_path)
    extra = []
    if route == "matrixmarket":
        inst = tmp_path / "a.mtx"
        inst.write_text(write_matrixmarket_array(np.eye(1)))
        (tmp_path / "b.txt").write_text("2.0\n")
        extra = ["--b", str(tmp_path / "b.txt")]
    assert main(["solve", str(inst), *extra, "--delta", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("l1linf: ") and "delta must be finite" in err


def test_solve_matrixmarket_route(tmp_path):
    mm = tmp_path / "a.mtx"
    mm.write_text(write_matrixmarket_array(np.eye(2)))
    bf = tmp_path / "b.txt"
    bf.write_text("3.0\n-0.5\n")
    out = tmp_path / "path.json"
    assert main(["solve", str(mm), "--b", str(bf), "--delta", "0.0",
                 "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    deltas = [bp["delta"] for bp in export["breakpoints"]]
    np.testing.assert_allclose(deltas, [3.0, 0.5, 0.0], atol=1e-12)


def test_solve_malformed_matrix_exit_2(tmp_path, capsys):
    bad = tmp_path / "a.mtx"
    bad.write_text("definitely not a matrix\n")
    assert main(["solve", str(bad), "--delta", "0.1"]) == 2
    assert "l1linf:" in capsys.readouterr().err


def test_solve_negative_matrixmarket_size_exit_2(tmp_path, capsys):
    mm, bf = tmp_path / "a.mtx", tmp_path / "b.txt"
    mm.write_text("%%MatrixMarket matrix array real general\n-1 -2\n1.0\n2.0\n")
    bf.write_text("1.0\n")
    assert main(["solve", str(mm), "--b", str(bf), "--delta", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "l1linf:" in err and "size line: '-1 -2'" in err


def test_solve_missing_matrixmarket_named_by_json_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    missing = tmp_path / "missing.mtx"
    inst.write_text(json.dumps({"A": {"matrixmarket": str(missing)}, "b": [1.0],
                                "delta": 0.1}))
    assert main(["solve", str(inst)]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["verify", "--input"]])
@pytest.mark.parametrize("document, message", [
    (5, "instance JSON must be an object, not a number"),
    (True, "instance JSON must be an object, not a boolean"),
    (None, "instance JSON must be an object, not null"),
    ({"A": [[1.0]], "b": [2.0], "delta": None},
     "field 'delta' must be a number, not null"),
    ({"A": [[1.0]], "b": [2.0], "delta": [0.5]},
     "field 'delta' must be a number, not an array"),
    ({"A": [[1.0]], "b": [2.0], "delta": {"value": 0.5}},
     "field 'delta' must be a number, not an object"),
    ({"A": [[1.0]], "b": {"0": 2.0}}, "field 'b' must hold numbers, not an object"),
    # booleans and numeric strings are not JSON numbers, though numpy reads them as numbers
    ({"A": [["2"]], "b": [True], "delta": "0.5"}, "field 'A' must hold numbers, not a string"),
    ({"A": [[2.0]], "b": [True], "delta": 0.5}, "field 'b' must hold numbers, not a boolean"),
    ({"A": [[2.0]], "b": [1.0], "delta": "0.5"}, "field 'delta' must be a number, not a string"),
    ({"A": [[2.0]], "b": [1.0], "delta": True}, "field 'delta' must be a number, not a boolean"),
    ({"A": [[2.0]], "b": [1.0], "x_bar": [False]},
     "field 'x_bar' must hold numbers, not a boolean"),
    ({"A": [[2.0]], "b": [1.0], "y_bar": ["1"]}, "field 'y_bar' must hold numbers, not a string"),
    # written as Infinity, which Python's json reads back as a float
    ({"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0], "delta": float("inf")},
     "delta must be finite and nonnegative"),
])
def test_malformed_instance_json_exit_2(tmp_path, capsys, command, document, message):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(document))
    assert main([*command, str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("l1linf: ") and message in err and "Traceback" not in err


def test_solve_missing_vector_file_exit_2(tmp_path, capsys):
    mm = tmp_path / "a.mtx"
    mm.write_text(write_matrixmarket_array(np.eye(2)))
    missing = tmp_path / "missing.txt"
    assert main(["solve", str(mm), "--b", str(missing), "--delta", "0.1"]) == 2
    assert str(missing) in capsys.readouterr().err


def test_solve_csv_format(tmp_path, capsys):
    inst = write_scalar_instance(tmp_path)
    assert main(["solve", str(inst), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k,delta,t,nnz_x,nnz_y,objective"
    assert len(out.splitlines()) == 3


def test_solve_deterministic_modulo_timing(tmp_path):
    inst = write_scalar_instance(tmp_path)
    o1, o2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(["solve", str(inst), "-o", str(o1)]) == 0
    assert main(["solve", str(inst), "-o", str(o2)]) == 0
    e1 = json.loads(o1.read_text())
    e2 = json.loads(o2.read_text())
    e1.pop("timing")
    e2.pop("timing")
    assert e1 == e2


def test_trace_env(tmp_path, capsys, monkeypatch):
    inst = write_scalar_instance(tmp_path)
    monkeypatch.setenv("HOUDINI_TRACE", "1")
    assert main(["solve", str(inst), "-o", str(tmp_path / "p.json")]) == 0
    assert "trace" in capsys.readouterr().err


def test_plot_roundtrip_and_determinism(tmp_path):
    inst = write_scalar_instance(tmp_path)
    pj = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(pj)]) == 0
    s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert main(["plot", str(pj), "-o", str(s1)]) == 0
    assert main(["plot", str(pj), "-o", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    text = s1.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_plot_identity_has_two_polylines(tmp_path):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]],
                             "b": [3.0, -0.5], "delta": 0.0}))
    pj = tmp_path / "path.json"
    assert main(["solve", str(f), "-o", str(pj)]) == 0
    svg = tmp_path / "p.svg"
    assert main(["plot", str(pj), "-o", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 2


def test_plot_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["plot", str(bad), "-o", str(tmp_path / "o.svg")]) == 2


def test_gen_deterministic_and_solvable(tmp_path):
    o1, o2 = tmp_path / "i1.json", tmp_path / "i2.json"
    args = ["gen", "--m", "8", "--n", "16", "--sparsity", "3",
            "--delta", "0.5", "--seed", "42"]
    assert main(args + ["-o", str(o1)]) == 0
    assert main(args + ["-o", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    data = json.loads(o1.read_text())
    target = float(np.sum(np.abs(data["x_bar"])))
    out = tmp_path / "path.json"
    assert main(["solve", str(o1), "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    x_final = export_vectors(export)[-1][2]
    assert abs(float(np.sum(np.abs(x_final))) - target) <= 1e-7 * (1 + target)


@pytest.mark.parametrize("flag, value, message", [
    ("--m", "0", "at least one row and one column, not m=0, n=8"),
    ("--n", "0", "at least one row and one column, not m=4, n=0"),
    ("--m", "-2", "at least one row and one column, not m=-2, n=8"),
    ("--sparsity", "5", "sparsity above m/2"),
    ("--sparsity", "-1", "sparsity must be nonnegative"),
    ("--delta", "-0.1", "delta must be finite and nonnegative"),
    ("--delta", "inf", "delta must be finite and nonnegative"),
    ("--delta", "nan", "delta must be finite and nonnegative"),
    ("--dynamic-range", "0", "dynamic_range must be finite and positive"),
    ("--dynamic-range", "-2", "dynamic_range must be finite and positive"),
    ("--dynamic-range", "inf", "dynamic_range must be finite and positive"),
    ("--dynamic-range", "nan", "dynamic_range must be finite and positive"),
])
def test_gen_rejects_oversparse(tmp_path, capsys, flag, value, message):
    args = {"--m": "4", "--n": "8", "--sparsity": "1", "--delta": "0.5", flag: value}
    out = tmp_path / "x.json"
    assert main(["gen", *(item for pair in args.items() for item in pair),
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("l1linf: ") and message in err
    assert not out.exists()


def test_verify_vacuous_and_small(capsys):
    assert main(["verify", "--count", "0"]) == 0
    assert main(["verify", "--count", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_perturb_y_negative_control(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--count", "1", "--seed", "3", "--perturb-y"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert (tmp_path / "l1linf-failing-instance.json").exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("perturb", [[], ["--perturb-y"]], ids=["plain", "perturb-y"])
def test_verify_refuses_a_tolerance_that_certifies_nothing(tmp_path, monkeypatch, capsys,
                                                          tol, perturb):
    # an infinite tolerance passes every pair, the negative control included
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--count", "3", "--seed", "0", "--tol", tol, *perturb]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("l1linf: ") and "pair_tol must be finite" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "l1linf-failing-instance.json").exists()


def test_verify_refuses_a_negative_count(capsys):
    # a negative count ran no instance and printed PASS for every check
    assert main(["verify", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("l1linf: ") and "count must be nonnegative" in captured.err
    assert "PASS" not in captured.out


def test_solve_refuses_a_negative_iteration_cap(tmp_path, capsys):
    # an input error, not a solver failure (exit 1) at an exceeded cap
    inst = write_scalar_instance(tmp_path)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "--max-iters", "-2", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("l1linf: ") and "max_iters must be nonnegative" in err
    assert not out.exists()


def test_verify_single_input_instance(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=0.5)
    assert main(["verify", "--input", str(inst)]) == 0


def test_export_json_lossless_round_trip(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=0.25)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(out)]) == 0
    export = export_from_json(out.read_text())
    assert export_from_json(export_to_json(export)) == export
    for inst in (pinned_gaussian(), pinned_dantzig()):
        path = solve_path(inst)
        export = path_to_export(inst, path)
        assert export_from_json(export_to_json(export)) == export
        vectors = export_vectors(export_from_json(export_to_json(export)))
        assert len(vectors) == len(path.breakpoints)
        for (k, delta, x, y), bp in zip(vectors, path.breakpoints):
            assert k == bp.k and delta == bp.delta_k
            assert x.tobytes() == bp.x.tobytes() and y.tobytes() == bp.y.tobytes()
        rows = export_to_csv(export).splitlines()[1:]
        assert [r.split(",")[3:] for r in rows] == [
            [str(np.count_nonzero(bp.x)), str(np.count_nonzero(bp.y)),
             repr(float(np.sum(np.abs(bp.x))))] for bp in path.breakpoints]


def test_export_vector_encoding_is_pinned():
    # a subnormal, both extreme normals, a -0.0 among nonzeros and a value
    # that needs 17 significant digits; like every zero, -0.0 is not stored
    v = np.array([5e-324, 0.0, 1.7976931348623157e308, -0.0,
                  -1.7976931348623157e308, 0.1 + 0.2])
    assigned = PathBreakpoint(0, 1.0, v, np.zeros(0), None, 0.0)
    field = _encode_entries(assigned.x_entries)
    assert field == {"i": "AAAAAAIAAAAEAAAABQAAAA==",
                     "v": "AQAAAAAAAAD////////vf////////+//NDMzMzMz0z8="}
    # the same vector recorded on its support encodes to the same bytes
    at = np.array([0, 2, 4, 5], dtype=np.int32)
    recorded = PathBreakpoint(0, 1.0, (6, at, v[at]), (0, at[:0], v[:0]), None, 0.0)
    assert _encode_entries(recorded.x_entries) == field
    export = {"n": 6, "m": 0, "breakpoints": [
        {"k": 0, "delta": 1.0, "t": 0.0, "x": field,
         "y": _encode_entries(recorded.y_entries)}]}
    (_, _, x, _), = export_vectors(export)
    assert x.tobytes() == np.where(v == 0.0, 0.0, v).tobytes()


@pytest.mark.parametrize("dtype", [_INDEX, _VALUE])
def test_export_base64_matches_b64encode(dtype):
    # the export encodes from an array buffer, not a bytes copy: empty,
    # read-only, strided and other-dtype arrays give b64encode's text
    base = np.arange(-7, 13).astype(dtype)
    frozen = base.copy()
    frozen.setflags(write=False)
    cases = [base[:0], base, frozen, base[::3], base[::-2], base.astype(np.int64),
             np.arange(6.0) * 0.1]
    for a in cases:
        want = base64.b64encode(a.astype(dtype).tobytes()).decode("ascii")
        assert export_b64(a, dtype) == want


def _b64(values, dtype) -> str:
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")


def _vector(i, v) -> dict:
    return {"i": _b64(i, "<i4"), "v": _b64(v, "<f8")}


def _set_x(field):
    def mutate(export):
        export["breakpoints"][-1]["x"] = field
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set_x({"i": "AAAA!AAA=", "v": ""}), "not valid base64"),
    (_set_x({"i": "AAAAAA", "v": ""}), "not valid base64"),
    (_set_x({"i": _b64([0], "<i4")[:4], "v": ""}), "not a multiple of 4"),
    (_set_x({"i": _b64([0], "<i4"), "v": _b64([1.0], "<f4")}), "not a multiple of 8"),
    (_set_x(_vector([0, 1], [1.0])), "2 indices but 1 values"),
    (_set_x(_vector([7], [1.0])), "index outside [0, 2)"),
    (_set_x(_vector([-1], [5.0])), "index outside [0, 2)"),
    (_set_x(_vector([1, 0], [1.0, 2.0])), "not strictly increasing"),
    (_set_x(_vector([0, 0], [1.0, 2.0])), "not strictly increasing"),
    (_set_x(_vector([0], [np.nan])), "non-finite value"),
    (_set_x(_vector([1], [-np.inf])), "non-finite value"),
    (_set_x(5), 'not an {"i", "v"} object'),
    (_set_x([[0, 1.0]]), 'not an {"i", "v"} object'),
    (_set_x({"i": 5, "v": ""}), "not a base64 string"),
    (lambda e: e["breakpoints"][0].pop("k"), "breakpoint 0 lacks one of"),
    (lambda e: e["breakpoints"][1].update(delta=10 ** 400), "breakpoint 1 needs"),
    (lambda e: e["breakpoints"][1].update(t=float("nan")), "breakpoint 1 needs"),
    (lambda e: e["breakpoints"][0].update(k=None), "breakpoint 0 needs"),
    (lambda e: e.update(breakpoints=[]), "has no breakpoints"),
    (lambda e: e.update(schema_version=1), "unsupported schema_version 1"),
])
def test_plot_malformed_export_exit_2(tmp_path, capsys, mutate, message):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]],
                             "b": [3.0, -0.5], "delta": 0.0}))
    pj = tmp_path / "path.json"
    assert main(["solve", str(f), "-o", str(pj)]) == 0
    export = json.loads(pj.read_text())
    mutate(export)
    pj.write_text(json.dumps(export))
    assert main(["plot", str(pj), "-o", str(tmp_path / "p.svg")]) == 2
    err = capsys.readouterr().err
    assert "l1linf: cannot plot: " in err and message in err


def test_solve_then_plot_never_fails_on_random_instances(tmp_path):
    rng = np.random.default_rng(61)
    for trial in range(5):
        m = int(rng.integers(3, 8))
        a = rng.standard_normal((m, 2 * m))
        b = rng.standard_normal(m)
        f = tmp_path / f"i{trial}.json"
        f.write_text(json.dumps({"A": a.tolist(), "b": b.tolist(),
                                 "delta": float(0.3 * np.max(np.abs(b)))}))
        pj = tmp_path / f"p{trial}.json"
        assert main(["solve", str(f), "-o", str(pj)]) == 0
        assert main(["plot", str(pj), "-o", str(tmp_path / f"p{trial}.svg")]) == 0


def _missing_dir_file(tmp_path, name):
    return str(tmp_path / "missing" / name)


def test_solve_unwritable_output_exit_2(tmp_path, capsys):
    inst = write_scalar_instance(tmp_path)
    out = _missing_dir_file(tmp_path, "p.json")
    assert main(["solve", str(inst), "-o", out]) == 2
    assert f"l1linf: cannot write {out}" in capsys.readouterr().err


def test_plot_unwritable_output_exit_2(tmp_path, capsys):
    inst = write_scalar_instance(tmp_path)
    pj = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(pj)]) == 0
    out = _missing_dir_file(tmp_path, "p.svg")
    assert main(["plot", str(pj), "-o", out]) == 2
    assert f"l1linf: cannot write {out}" in capsys.readouterr().err


def test_gen_unwritable_output_exit_2(tmp_path, capsys):
    out = _missing_dir_file(tmp_path, "i.json")
    assert main(["gen", "--m", "4", "--n", "8", "--sparsity", "2",
                 "--delta", "0.5", "-o", out]) == 2
    assert f"l1linf: cannot write {out}" in capsys.readouterr().err


def test_verify_unwritable_replay_file_exit_2(tmp_path, monkeypatch, capsys):
    # a directory in the way of the replay file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l1linf-failing-instance.json").mkdir()
    assert main(["verify", "--count", "1", "--seed", "3", "--perturb-y"]) == 2
    assert "l1linf: cannot write l1linf-failing-instance.json" in capsys.readouterr().err
