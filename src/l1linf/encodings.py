"""The two improvement-direction systems of ``homotopy.check_alternatives``
as explicit LPs, in the ``GeneralLp`` form that the Bland simplex
``oracle.feasibility`` decides.  They take sorted int index arrays."""

from __future__ import annotations

import numpy as np

from .oracle import GeneralLp


def improvement_system_dual(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """Feasibility system for a dual improvement direction e (supported on
    I_P): strict decrease row first (index 0 of the <= block), then the
    sign-preservation rows.  Feasibility must be tested with the first row
    strict."""
    s = residual_signs[i_p]
    k = i_p.size
    eq = a[i_p][:, j_p].T
    eq_rhs = np.zeros(j_p.size)
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
    return GeneralLp(np.zeros(k), eq, eq_rhs, np.vstack(ub_rows),
                     np.concatenate(ub_rhs), np.full(k, -np.inf))


def improvement_system_primal(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """Feasibility system for a primal improvement direction d (supported on
    J_D): equalities on the dual support rows, unit-margin decrease on the
    remaining active rows, sign compatibility on the free columns."""
    eq = a[i_d][:, j_d]
    eq_rhs = -np.sign(y_hat[i_d])
    ub_rows = []
    ub_rhs = []
    extra = np.setdiff1d(i_p, i_d)
    if extra.size:
        ub_rows.append(residual_signs[extra][:, None] * a[extra][:, j_d])
        ub_rhs.append(-np.ones(extra.size))
    for j in np.setdiff1d(j_d, j_p):
        pos = int(np.searchsorted(j_d, j))
        row = np.zeros(j_d.size)
        row[pos] = float(a[:, j] @ y_hat)
        ub_rows.append(row[None, :])
        ub_rhs.append(np.zeros(1))
    if ub_rows:
        ub = np.vstack(ub_rows)
        ub_b = np.concatenate(ub_rhs)
    else:
        ub = np.zeros((0, j_d.size))
        ub_b = np.zeros(0)
    return GeneralLp(np.zeros(j_d.size), eq, eq_rhs, ub, ub_b,
                     np.full(j_d.size, -np.inf))
