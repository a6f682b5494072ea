import os
import subprocess
import sys

import l1linf

SCRIPT = """
import sys
import numpy as np
import l1linf, l1linf.pathexport
rng = np.random.default_rng(0)
a, b = rng.standard_normal((20, 40)), rng.standard_normal(20)
path = l1linf.solve_path(l1linf.ProblemInstance(a, b, 0.05 * np.max(np.abs(b))))
assert path.terminated == "target-reached", path.failure_reason
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solver_does_not_import_scipy():
    # importing scipy.linalg costs about 28 MB of resident memory and
    # 150-330 ms of start-up; the solver runs on numpy alone
    env = dict(os.environ, PYTHONPATH=os.path.dirname(l1linf.__path__[0]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
