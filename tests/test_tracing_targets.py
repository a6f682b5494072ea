"""The functions that ``perfbench/tracing.py`` patches exist, and a path
calls every one on the solver side.

The benchmark's layer metrics come from wrapping these names from outside
the package; a name that is renamed, or bypassed by a direct call, leaves
its metric missing or at zero.  ``COUNT_TARGET``, the ``IndexSet``
constructor, still exists, and no path reaches it: breakpoints record
their sets as sorted int arrays, so ``linalg.indexset_built`` reads 0.
``TARGETS`` and ``COUNT_TARGET`` are read from the benchmark's file
without changing it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import l1linf
from l1linf import ProblemInstance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

EXPORT_MODULES = {"l1linf.pathexport"}
# solve_path classifies the sets itself only when delta >= ||b||_inf, the
# path without a step; every other path records the sets its updates kept
ONLY_WITHOUT_A_STEP = {"l1linf.homotopy._build_sets"}


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_target_names_an_existing_attribute():
    for module_name, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    module_name, cls_name, method, _ = tracing.COUNT_TARGET
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(getattr(cls, method, None)), f"{module_name}.{cls_name}.{method}"


def test_a_path_calls_every_solver_side_target(monkeypatch):
    calls = {}
    solver_side = set()
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        name = f"{module_name}.{attr}"
        monkeypatch.setattr(module, attr, _counted(calls, name, getattr(module, attr)))
        if module_name not in EXPORT_MODULES:
            solver_side.add(name)
    module_name, cls_name, method, _ = tracing.COUNT_TARGET
    cls = getattr(importlib.import_module(module_name), cls_name)
    count_target = f"{module_name}.{cls_name}.{method}"
    monkeypatch.setattr(cls, method, _counted(calls, count_target, getattr(cls, method)))

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((20, 40)), rng.standard_normal(20)
    # looked up on the package at call time, as the benchmark calls it
    path = l1linf.solve_path(ProblemInstance(a, b, 0.05 * np.max(np.abs(b))))
    assert path.terminated == "target-reached"
    assert solver_side - calls.keys() == ONLY_WITHOUT_A_STEP
    l1linf.solve_path(ProblemInstance(a, b, np.max(np.abs(b))))
    assert solver_side <= calls.keys()
    assert count_target not in calls
