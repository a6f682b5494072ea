import json

import numpy as np

from l1linf.cli import main
from l1linf.mmio import write_matrixmarket_array
from l1linf.pathexport import export_from_json, export_vectors


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


def test_solve_missing_matrixmarket_named_by_json_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    missing = tmp_path / "missing.mtx"
    inst.write_text(json.dumps({"A": {"matrixmarket": str(missing)}, "b": [1.0],
                                "delta": 0.1}))
    assert main(["solve", str(inst)]) == 2
    assert str(missing) in capsys.readouterr().err


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


def test_gen_rejects_oversparse(tmp_path, capsys):
    assert main(["gen", "--m", "4", "--n", "8", "--sparsity", "5",
                 "--delta", "0.5", "-o", str(tmp_path / "x.json")]) == 2


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


def test_verify_single_input_instance(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=0.5)
    assert main(["verify", "--input", str(inst)]) == 0


def test_export_json_lossless_round_trip(tmp_path):
    inst = write_scalar_instance(tmp_path, delta=0.25)
    out = tmp_path / "path.json"
    assert main(["solve", str(inst), "-o", str(out)]) == 0
    text = out.read_text()
    export = export_from_json(text)
    from l1linf.pathexport import export_to_json
    assert export_from_json(export_to_json(export)) == export


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
