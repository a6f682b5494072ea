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
    free_cols = np.setdiff1d(j_d, j_p)
    w = (a[:, free_cols].T @ y_hat)[:, None]
    ub = np.vstack([-s[None, :], w * a[i_p][:, free_cols].T,
                    np.diag(-s)[np.isin(i_p, i_d, invert=True)]])
    return GeneralLp(np.zeros(i_p.size), a[i_p][:, j_p].T, np.zeros(j_p.size), ub,
                     np.zeros(ub.shape[0]), np.full(i_p.size, -np.inf))


def improvement_system_primal(a, residual_signs, y_hat, i_p, j_p, j_d, i_d) -> GeneralLp:
    """Feasibility system for a primal improvement direction d (supported on
    J_D): equalities on the dual support rows, unit-margin decrease on the
    remaining active rows, sign compatibility on the free columns."""
    extra = np.setdiff1d(i_p, i_d)
    free = np.isin(j_d, j_p, invert=True)
    coef = np.zeros(j_d.size)
    coef[free] = a[:, j_d[free]].T @ y_hat
    ub = np.vstack([residual_signs[extra][:, None] * a[extra][:, j_d], np.diag(coef)[free]])
    ub_rhs = np.concatenate([-np.ones(extra.size), np.zeros(ub.shape[0] - extra.size)])
    return GeneralLp(np.zeros(j_d.size), a[i_d][:, j_d], -np.sign(y_hat[i_d]), ub, ub_rhs,
                     np.full(j_d.size, -np.inf))
