import json

import numpy as np
import pytest

from l1linf import instances, oracle
from l1linf.homotopy import ProblemInstance, check_optimal_pair, solve_path
from l1linf.instances import (GeneralizedBounds, dense_certificate,
                              instance_digest, instance_from_dict,
                              instance_to_dict,
                              load_instance, make_ground_truth,
                              random_bp_pair, random_ground_truth,
                              save_instance, to_linf_form)
from reference_lp import write_matrixmarket_array


def test_make_ground_truth_scalar():
    gti = make_ground_truth([[1.0]], [1.0], [-1.0], 0.5)
    assert gti.inst.b[0] == pytest.approx(1.5, abs=1e-15)
    assert check_optimal_pair(gti.inst, gti.x_bar, gti.y_bar, 0.5)
    path = solve_path(gti.inst)
    assert path.objective == pytest.approx(1.0, abs=1e-10)


def test_make_ground_truth_rejects_bad_certificate():
    # y = 0 cannot certify a nonzero x_bar
    with pytest.raises(ValueError):
        make_ground_truth([[1.0]], [1.0], [0.0], 0.5)
    # wrong sign on the support
    with pytest.raises(ValueError):
        make_ground_truth([[1.0]], [1.0], [1.0], 0.5)


def test_make_ground_truth_zero_solution():
    gti = make_ground_truth(np.eye(2), [0.0, 0.0], [0.0, 0.0], 0.5)
    np.testing.assert_array_equal(gti.inst.b, [0.0, 0.0])


def test_random_bp_pair_deterministic():
    a1, x1 = random_bp_pair(8, 16, 3, seed=5)
    a2, x2 = random_bp_pair(8, 16, 3, seed=5)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(x1, x2)
    assert np.count_nonzero(x1) == 3


def test_random_bp_pair_zero_sparsity():
    _, x = random_bp_pair(6, 12, 0, seed=1)
    np.testing.assert_array_equal(x, np.zeros(12))


def test_random_bp_pair_sparsity_guard():
    with pytest.raises(ValueError):
        random_bp_pair(6, 12, 5, seed=1)


def test_certificates_validate():
    a, x_bar = random_bp_pair(10, 20, 3, seed=9)
    for cert in (oracle.certificate_l1(a, x_bar), dense_certificate(a, x_bar)):
        g = a.T @ cert
        supp = np.abs(x_bar) > 1e-10
        assert np.max(np.abs(g[supp] + np.sign(x_bar[supp]))) <= 1e-8
        assert np.max(np.abs(g[~supp])) <= 1 + 1e-10


def test_ground_truth_recovery_both_regimes():
    for certificate in ("sparse", "dense"):
        gti = random_ground_truth(10, 20, 3, delta=0.4, seed=17,
                                  certificate=certificate)
        path = solve_path(gti.inst)
        assert path.terminated == "target-reached"
        target = float(np.sum(np.abs(gti.x_bar)))
        assert abs(path.objective - target) <= 1e-7 * (1 + target)


def no_draw(*args, **kwargs):
    raise AssertionError("drew an instance for invalid arguments")


@pytest.mark.parametrize("changes, message", [
    ({"m": 0}, "not m=0, n=8"),
    ({"n": 0}, "not m=4, n=0"),
    ({"m": -2}, "not m=-2, n=8"),
    ({"sparsity": -1}, "sparsity must be nonnegative"),
    ({"sparsity": 5}, "sparsity above m/2"),
    ({"delta": -0.1}, "delta must be finite and nonnegative"),
    ({"delta": np.inf}, "delta must be finite and nonnegative"),
    ({"delta": np.nan}, "delta must be finite and nonnegative"),
    ({"dynamic_range": 0.0}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": -2.0}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": np.inf}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": np.nan}, "dynamic_range must be finite and positive"),
])
def test_random_ground_truth_refuses_bad_arguments_before_drawing(monkeypatch, changes,
                                                                   message):
    # random_bp_pair checks the sparsity and the dynamic range for both
    monkeypatch.setattr(instances.np.random, "default_rng", no_draw)
    args = {"m": 4, "n": 8, "sparsity": 1, "delta": 0.5, "dynamic_range": 10.0, **changes}
    with pytest.raises(ValueError, match=message):
        random_ground_truth(**args)


@pytest.mark.parametrize("changes, message", [
    ({"m": 0}, "at least one row and one column, not m=0, n=12"),
    ({"n": 0}, "at least one row and one column, not m=6, n=0"),
    ({"n": -1}, "at least one row and one column, not m=6, n=-1"),
    ({"sparsity": -1}, "sparsity must be nonnegative"),
    ({"dynamic_range": 0.0}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": -2.0}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": np.inf}, "dynamic_range must be finite and positive"),
    ({"dynamic_range": np.nan}, "dynamic_range must be finite and positive"),
])
def test_random_bp_pair_refuses_bad_arguments_before_drawing(monkeypatch, changes, message):
    monkeypatch.setattr(instances.np.random, "default_rng", no_draw)
    args = {"m": 6, "n": 12, "sparsity": 2, "dynamic_range": 10.0, **changes}
    with pytest.raises(ValueError, match=message):
        random_bp_pair(**args)


def test_to_linf_form_hand_example():
    gb = GeneralizedBounds([[1.0]], [0.0], [-1.0], [3.0])
    ga, gb_tilde = to_linf_form(gb, 1.0)
    np.testing.assert_allclose(ga, [[0.5]], atol=1e-15)
    np.testing.assert_allclose(gb_tilde, [0.5], atol=1e-15)
    # membership equivalence: -1 <= x <= 3  <=>  |x/2 - 1/2| <= 1
    for x in (-1.5, -1.0, 0.0, 3.0, 3.5):
        inside = -1.0 <= x <= 3.0
        assert (abs(ga[0, 0] * x - gb_tilde[0]) <= 1.0) == inside


def test_to_linf_form_symmetric_bounds_identity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    beta = np.array([1.0, 2.0, 0.5])
    gb = GeneralizedBounds(a, b, -beta, beta)
    ga, gb_tilde = to_linf_form(gb, 1.0)
    np.testing.assert_allclose(ga, a / beta[:, None], atol=1e-14)
    np.testing.assert_allclose(gb_tilde, b / beta, atol=1e-14)


def test_to_linf_form_round_trip_membership():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        alpha = rng.uniform(-3, 0, m)
        beta = alpha + rng.uniform(0.2, 3, m)
        gb = GeneralizedBounds(a, b, alpha, beta)
        delta_hat = float(rng.uniform(0.5, 2.0))
        ga, gb_tilde = to_linf_form(gb, delta_hat)
        for _ in range(50):
            x = rng.standard_normal(n) * rng.uniform(0.5, 2)
            r = a @ x - b
            inside = bool(np.all(r >= alpha) and np.all(r <= beta))
            mapped = bool(np.max(np.abs(ga @ x - gb_tilde)) <= delta_hat)
            assert inside == mapped


def test_to_linf_form_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GeneralizedBounds([[1.0]], [0.0], [1.0], [1.0])


@pytest.mark.parametrize("delta_hat", [np.inf, np.nan])
def test_to_linf_form_refuses_a_bound_that_is_not_finite(delta_hat):
    gb = GeneralizedBounds([[1.0]], [0.0], [-1.0], [3.0])
    with pytest.raises(ValueError, match="delta_hat must be finite and positive"):
        to_linf_form(gb, delta_hat)


def test_instance_serialization_round_trip(tmp_path):
    gti = random_ground_truth(6, 12, 2, delta=0.3, seed=2)
    f = tmp_path / "inst.json"
    save_instance(f, gti.inst, gti.x_bar, gti.y_bar, seed=2)
    inst, x_bar, y_bar = load_instance(f)
    np.testing.assert_array_equal(inst.A, gti.inst.A)
    np.testing.assert_array_equal(inst.b, gti.inst.b)
    assert inst.delta == gti.inst.delta
    np.testing.assert_array_equal(x_bar, gti.x_bar)
    np.testing.assert_array_equal(y_bar, gti.y_bar)


def test_instance_json_matrixmarket_embedding():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    data = {"A": {"matrixmarket": write_matrixmarket_array(a)},
            "b": [1.0, -1.0], "delta": 0.25}
    inst, _, _ = instance_from_dict(data)
    np.testing.assert_array_equal(inst.A, a)
    assert inst.delta == 0.25


def test_instance_dict_is_json_clean():
    gti = random_ground_truth(5, 10, 2, delta=0.2, seed=8)
    text = json.dumps(instance_to_dict(gti.inst, gti.x_bar, gti.y_bar, seed=8))
    assert "NaN" not in text


def test_instance_digest_covers_shape_and_every_value():
    inst = ProblemInstance([[1.0, 2.0, 3.0]], [4.0], 0.5)
    digest = instance_digest(inst)
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 16
    assert instance_digest(ProblemInstance([[1.0, 2.0, 3.0]], [4.0], 0.5)) == digest
    # the same values 1, 2, 3, 4, 0.5 in another shape, and a change in A,
    # b or delta, all give other digests
    others = [ProblemInstance([[1.0], [2.0]], [3.0, 4.0], 0.5),
              ProblemInstance([[1.0, 2.0, -3.0]], [4.0], 0.5),
              ProblemInstance([[1.0, 2.0, 3.0]], [4.5], 0.5),
              ProblemInstance([[1.0, 2.0, 3.0]], [4.0], 0.25)]
    assert len({digest, *(instance_digest(o) for o in others)}) == 5
