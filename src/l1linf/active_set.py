"""The active-set loop shared by the dual and the primal subproblem; the
tests also run it on a generic LP face (``tests/reference_lp.py``).

Each subproblem moves a point, supported on a *support* set that may grow
inside an *outer* set, while a block of tight *active* constraints, which
always contains a *fixed* set, stays tight.  The two are mirror images:

    face     point  support            active
    dual     psi    I_D inside I_P     J_D containing J_P
    primal   xi     J_P inside J_D     I_P containing I_D

A face supplies what differs.  A subproblem's face is its context
(``DualContext``, ``PrimalContext``): an update sets the loop state on
the context when it starts and never edits the context's inputs.  The
face gives ``name``, the masks ``fixed`` and ``outer``, the block's
direction report (``direction``), the ratio test (``step``), the zeroing
of point entries (``zero``), the multipliers (``multipliers``), a warm
direction's distance from keeping each constraint tight, read off its
product with A (``warm_slack``, needed only by a face that is given a
warm start) and the objective shown in trace records (``value``).  A face
may carry products of the point and of the current direction with A: the
direction comes from its ``direction`` call or, with its product, from
the warm start, ``step`` sees the point before the loop moves it by alpha
times the direction, and every entry that the loop sets to zero goes
through ``zero``.  A warm start is None or the (direction, product) pair
that the other face's ``multipliers`` handed back as its run's solution;
``start_point`` checks it and the start point for both faces.  The loop
keeps both sets as boolean masks and takes their sorted index arrays once
per iteration.  A zero-length step edits the sets like any other step.
"""

from __future__ import annotations

import numpy as np

ACTIVE_TOL = 1e-9       # a constraint is active iff its slack is within ACTIVE_TOL*(1+|rhs|)
SUPPORT_TOL = 1e-9      # an entry is in the support iff its magnitude exceeds SUPPORT_TOL
OPT_TOL = 1e-9          # multiplier nonnegativity slack
TIE_RTOL = 1e-9         # blocking-set membership width around the minimal ratio
ZERO_STEP_TOL = 1e-12   # zero test for the rates of change in the ratio tests
NONZERO_TOL = 1e-9      # zero test for warm-start entries and products


class AsmError(RuntimeError):
    pass


class UnboundedDirectionError(AsmError):
    """No blocking index limits the step: the boundedness contract is violated."""


def _argmin_with_ties(values: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Smallest value and its label, (inf, -1) when there is none below
    inf; labels arrive sorted, and argmin takes the first of tied values,
    so ties keep the smallest label."""
    if not values.size:
        return np.inf, -1
    i = int(values.argmin())
    best = float(values[i])
    return (best, int(labels[i])) if best < np.inf else (np.inf, -1)


def smallest(values: np.ndarray) -> float:
    """The smallest entry of an array, inf when it is empty; argmin spares
    the set-up of a numpy reduction."""
    return float(values.flat[values.argmin()]) if values.size else np.inf


def start_point(face, point: np.ndarray, warm) -> None:
    """Check a start point and a warm start against the face's outer set.

    Entries of ``point`` outside it, at most SUPPORT_TOL in size, are set
    to zero in place through ``face.zero``, so the face's carried products
    stay exact; a larger entry there, or a warm direction with any mass
    there, raises ValueError."""
    off = ~face.outer
    stray = off & (point != 0.0)
    if stray.any():
        if np.count_nonzero(np.abs(point[stray]) > SUPPORT_TOL):
            raise ValueError(f"the {face.name} start point has mass outside the outer set")
        face.zero(point, stray.nonzero()[0])
    if warm is not None and np.count_nonzero(warm[0][off]):
        raise ValueError(f"the {face.name} warm direction has mass outside the outer set")


def run_active_set(face, point: np.ndarray, support: np.ndarray, active: np.ndarray,
                   warm: tuple[np.ndarray, np.ndarray] | None, trace=None):
    """Run the active-set loop from a feasible point.

    ``support`` and ``active`` are updated in place.  A warm direction
    first grows the support by its nonzero entries inside the outer set and
    drops the removable constraints it does not keep tight, then serves as
    the first direction.  Returns (point, support, active, multiplier
    solution, iterations); the solution is the face's warm pair for the
    other face, None when a step ended the run.
    """
    max_iters = 50 * (support.size + active.size + 5)
    pending = None
    if warm is not None:
        pending, product = warm
        support |= face.outer & (np.abs(pending) > NONZERO_TOL)
        active &= face.fixed | (np.abs(face.warm_slack(product)) <= NONZERO_TOL)

    for it in range(max_iters):
        sup, act = support.nonzero()[0], active.nonzero()[0]
        if pending is not None:
            direction, pending = pending, None
        else:
            report = face.direction(sup, act)
            direction = report.solution

        if direction is not None:
            alpha, entering, leaving, done = face.step(direction, point, sup, act)
            point = point + alpha * direction
            if not done:
                face.zero(point, leaving)
                if len(entering):
                    active[entering] = True
                if len(leaving):
                    support[leaving] = False
            if trace is not None:
                trace((face.name, it, alpha, int(np.count_nonzero(active)),
                       int(np.count_nonzero(support)), face.value(point), point.copy()))
            if done:
                return point, support, active, None, it + 1
            continue

        removable = (active & ~face.fixed).nonzero()[0]
        candidates = (face.outer & ~support).nonzero()[0]
        solution, mu, nu = face.multipliers(report, act, removable, candidates)
        mu_best, leave = _argmin_with_ties(mu, removable)
        nu_best, join = _argmin_with_ties(nu, candidates)
        if mu_best >= -OPT_TOL and nu_best >= -OPT_TOL:
            return point, support, active, solution, it + 1
        if mu_best < nu_best:
            active[leave] = False
        else:
            support[join] = True
    raise AsmError(f"{face.name} update iteration cap {max_iters} exceeded")
