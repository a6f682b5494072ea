import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_package_definition_is_used_or_exported():
    # a top-level function or class that no other package code names is
    # either public (listed in __all__) or test-only, and then it belongs
    # under tests/ (see reference_lp.py)
    package = Path(l1linf.__file__).parent
    statements = [(path.stem, node) for path in sorted(package.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))} for _, node in statements]
    unused = [f"{module}.{node.name}" for i, (module, node) in enumerate(statements)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in l1linf.__all__
              and not any(node.name in used for j, used in enumerate(names) if j != i)]
    assert unused == []
