import numpy as np

from l1linf import oracle, solve_path
from l1linf.encodings import improvement_system_dual, improvement_system_primal
from l1linf.homotopy import _build_sets
from l1linf.oracle import GeneralLp
from test_homotopy import pinned_dantzig, pinned_gaussian, pinned_small

# the A_j^T y_hat entries of the primal system, one product against one
# dot product a column, relative to themselves (3.3e-16 measured)
PRODUCT_RTOL = 1e-15


def loop_system_dual(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """The dual improvement system built a row at a time: the reference
    that the vectorised build must reproduce."""
    s = residual_signs[i_p]
    k = i_p.size
    ub_rows = [-s[None, :]]
    ub_rhs = [np.zeros(1)]
    free_cols = np.setdiff1d(j_d, j_p)
    if free_cols.size:
        w = (a[:, free_cols].T @ y_hat)[:, None]
        ub_rows.append(w * a[i_p][:, free_cols].T)
        ub_rhs.append(np.zeros(free_cols.size))
    for pos in np.isin(i_p, i_d, invert=True).nonzero()[0]:
        row = np.zeros(k)
        row[pos] = -s[pos]
        ub_rows.append(row[None, :])
        ub_rhs.append(np.zeros(1))
    return GeneralLp(np.zeros(k), a[i_p][:, j_p].T, np.zeros(j_p.size), np.vstack(ub_rows),
                     np.concatenate(ub_rhs), np.full(k, -np.inf))


def loop_system_primal(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """The primal improvement system built a row at a time, each A_j^T y_hat
    its own dot product."""
    ub_rows, ub_rhs = [], []
    extra = np.setdiff1d(i_p, i_d)
    if extra.size:
        ub_rows.append(residual_signs[extra][:, None] * a[extra][:, j_d])
        ub_rhs.append(-np.ones(extra.size))
    for j in np.setdiff1d(j_d, j_p):
        row = np.zeros(j_d.size)
        row[int(np.searchsorted(j_d, j))] = float(a[:, j] @ y_hat)
        ub_rows.append(row[None, :])
        ub_rhs.append(np.zeros(1))
    if ub_rows:
        ub, ub_b = np.vstack(ub_rows), np.concatenate(ub_rhs)
    else:
        ub, ub_b = np.zeros((0, j_d.size)), np.zeros(0)
    return GeneralLp(np.zeros(j_d.size), a[i_d][:, j_d], -np.sign(y_hat[i_d]), ub, ub_b,
                     np.full(j_d.size, -np.inf))


def test_improvement_systems_match_the_row_by_row_build():
    # on every breakpoint of the pinned paths past the origin both systems
    # equal the loop-built ones entry for entry, the primal's A_j^T y_hat
    # entries to PRODUCT_RTOL, and the oracle gives the same verdicts
    built = {"dual": 0, "primal": 0, "primal without <= rows": 0}
    for inst in (pinned_gaussian(), pinned_dantzig(), pinned_small()):
        for bp in solve_path(inst).breakpoints[1:]:
            sets = _build_sets(inst, bp.x, bp.y, bp.delta_k)
            signs = np.zeros(inst.m)
            signs[sets.I_P] = sets.residual_signs
            args = (inst.A, signs, bp.y, sets.I_P, sets.J_P, sets.J_D, sets.I_D)
            for kind, build, reference, strict in (
                    ("dual", improvement_system_dual, loop_system_dual, {"strict_ub_row": 0}),
                    ("primal", improvement_system_primal, loop_system_primal, {})):
                got, want = build(*args), reference(*args)
                for name in ("cost", "eq_matrix", "eq_rhs", "ub_rhs", "lower"):
                    u, v = getattr(got, name), getattr(want, name)
                    assert u.shape == v.shape and np.array_equal(u, v), (kind, name)
                assert got.ub_matrix.shape == want.ub_matrix.shape, kind
                if kind == "dual":
                    assert np.array_equal(got.ub_matrix, want.ub_matrix)
                else:
                    np.testing.assert_allclose(got.ub_matrix, want.ub_matrix,
                                               rtol=PRODUCT_RTOL, atol=0.0)
                    built["primal without <= rows"] += got.ub_matrix.shape[0] == 0
                assert oracle.feasibility(got, **strict) == oracle.feasibility(want, **strict)
                built[kind] += 1
    assert built["dual"] == built["primal"] > 100 and built["primal without <= rows"] > 0, built
