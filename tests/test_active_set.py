import types

import numpy as np
import pytest

from l1linf.active_set import run_active_set

NONE = np.empty(0, dtype=int)


class ScriptedFace:
    """A face that replays a script, one entry per engine iteration: either
    ("multipliers", mu, nu), with {index: value} maps for the multipliers of
    the removable constraints and of the candidates (every other one gets
    1.0), or ("step", direction, alpha, entering, leaving)."""

    name = "scripted"

    def __init__(self, size, script):
        self.outer = np.ones(size, dtype=bool)
        self.fixed = np.zeros(size, dtype=bool)
        self.script = iter(script)

    def direction(self, support, active):
        self.entry = next(self.script)
        found = self.entry[1] if self.entry[0] == "step" else None
        return types.SimpleNamespace(solution=found)

    def step(self, direction, point, support, active):
        _, _, alpha, entering, leaving = self.entry
        return alpha, entering, leaving, False

    def zero(self, point, indices):
        point[indices] = 0.0

    def multipliers(self, report, active, removable, candidates):
        _, mu, nu = self.entry
        return (None, np.array([mu.get(i, 1.0) for i in removable.tolist()]),
                np.array([nu.get(j, 1.0) for j in candidates.tolist()]))

    def value(self, point):
        return 0.0


DIRECTION = np.array([1.0, 0.0, 0.0])
ZERO_STEP_SCRIPTS = {
    # entry 1 joins the support, a zero-length step takes it out again, then
    # entry 2 joins, and the positive step keeps it
    "added": [("multipliers", {}, {1: -1.0}),
              ("step", DIRECTION, 0.0, NONE, np.array([1])),
              ("multipliers", {}, {2: -1.0}),
              ("step", DIRECTION, 0.5, NONE, NONE),
              ("multipliers", {}, {})],
    # constraint 1 leaves the active set, a zero-length step brings it back,
    # then constraint 2 leaves, and the positive step keeps it out
    "removed": [("multipliers", {1: -1.0}, {}),
                ("step", DIRECTION, 0.0, np.array([1]), NONE),
                ("multipliers", {2: -1.0}, {}),
                ("step", DIRECTION, 0.5, NONE, NONE),
                ("multipliers", {}, {})],
}


@pytest.mark.parametrize("side,support_after,active_after", [
    ("added", [0, 2], [0, 1, 2]),
    ("removed", [0], [0, 1]),
], ids=["added", "removed"])
def test_zero_length_step_edits_hold_through_the_next_positive_step(
        side, support_after, active_after):
    # the edits of a zero-length step and of the multiplier round after it
    # stand once a positive step follows: no later step undoes them
    face = ScriptedFace(3, ZERO_STEP_SCRIPTS[side])
    point, support, active, _, iterations = run_active_set(
        face, np.array([1.0, 0.0, 0.0]), np.array([True, False, False]),
        np.ones(3, dtype=bool), None)
    assert iterations == 5
    assert support.nonzero()[0].tolist() == support_after
    assert active.nonzero()[0].tolist() == active_after
    np.testing.assert_array_equal(point, [1.5, 0.0, 0.0])
