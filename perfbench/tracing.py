"""Per-layer tracing from outside the package.

Each traced function is replaced, in the module that calls it, by a wrapper
that records a span (name, start, end, parent) and feeds boundary counters.
Nothing inside ``l1linf`` is edited.  A target that no longer exists (for
example after two subsolvers are merged) is recorded as missing; the metrics
that depend on it are reported as absent and the run carries on.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the attribute is replaced in that module.
TARGETS = [
    ("l1linf", "solve_path", "homotopy.solve_path"),
    ("l1linf.homotopy", "dual_update", "dual_update.update"),
    ("l1linf.homotopy", "primal_update", "primal_update.update"),
    ("l1linf.homotopy", "_build_sets", "homotopy.build_sets"),
    ("l1linf.dual_update", "dual_direction", "dual_update.direction"),
    ("l1linf.dual_update", "dual_step", "dual_update.ratio_test"),
    ("l1linf.dual_update", "dual_multipliers", "dual_update.multipliers"),
    ("l1linf.dual_update", "solve_consistent", "linalg.solve_consistent"),
    ("l1linf.primal_update", "primal_direction", "primal_update.direction"),
    ("l1linf.primal_update", "primal_step", "primal_update.ratio_test"),
    ("l1linf.primal_update", "primal_multipliers", "primal_update.multipliers"),
    ("l1linf.primal_update", "solve_consistent", "linalg.solve_consistent"),
    ("l1linf.pathexport", "path_to_export", "pathexport.path_to_export"),
    ("l1linf.pathexport", "export_to_json", "pathexport.export_to_json"),
    ("l1linf.pathexport", "instance_digest", "instances.instance_digest"),
]
# Counted, not timed: constructions of the index-set value type.
COUNT_TARGET = ("l1linf.linalg", "IndexSet", "__post_init__", "linalg.IndexSet")

# Counters compared exactly between two runs of the same inputs.
WORK_COUNTERS = (
    "linalg.solve_calls", "homotopy.breakpoints",
    "dual_update.calls", "dual_update.iterations",
    "primal_update.calls", "primal_update.iterations",
)


def _svd_lstsq_flops(rows: int, cols: int) -> float:
    """Computed, not measured: SVD least squares on a rows x cols matrix
    costs about 4 q p^2 + 8 p^3 flops (p = min, q = max; Golub & Van Loan),
    plus 2 rows cols for the residual check."""
    p, q = min(rows, cols), max(rows, cols)
    return 4.0 * q * p * p + 8.0 * p ** 3 + 2.0 * rows * cols


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- installation -------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            self._patch(module, attr, self._wrap(span, original))
        module_name, cls_name, method, counter = COUNT_TARGET
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, method)
        except (ImportError, AttributeError):
            self.missing.add(counter)
        else:
            self._patch(cls, method, self._counting(counter, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counting(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, span, fn):
        hook = _HOOKS.get(span)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return wrapper

    # -- results ------------------------------------------------------------
    def metrics(self, rounds: int, passes: int) -> tuple[dict, list[str]]:
        """Layer metrics per path round (solver layers) and per
        certify-and-export pass (export layers); returns (metrics, names of
        absent metrics)."""
        counts = self.counts
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        child_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            calls[name] += 1
            secs[name] += end - start
            if parent >= 0:
                child_s[self.names[parent]] += end - start

        def per_round(v):
            return v / rounds

        def per_pass(v):
            return v / passes

        def share(num, den):
            return counts.get(num, 0.0) / den if den else 0.0

        solve_calls = calls["linalg.solve_consistent"]
        table = {
            "linalg.solve_calls": (["linalg.solve_consistent"], per_round(solve_calls), "count"),
            "linalg.solve_s": (["linalg.solve_consistent"], per_round(secs["linalg.solve_consistent"]), "s"),
            "linalg.solve_mean_rows": (["linalg.solve_consistent"], share("linalg.rows", solve_calls), "rows"),
            "linalg.solve_mean_cols": (["linalg.solve_consistent"], share("linalg.cols", solve_calls), "cols"),
            "linalg.solve_max_cols": (["linalg.solve_consistent"], counts.get("linalg.max_cols", 0.0), "cols"),
            "linalg.solve_flops": (["linalg.solve_consistent"], per_round(counts.get("linalg.flops", 0.0)), "flop-computed"),
            "linalg.consistent_share": (["linalg.solve_consistent"], share("linalg.consistent", solve_calls), "share"),
            "linalg.indexset_built": (["linalg.IndexSet"], per_round(counts.get("linalg.IndexSet", 0.0)), "count"),
        }
        for layer in ("dual_update", "primal_update"):
            upd, dirn = f"{layer}.update", f"{layer}.direction"
            mult, ratio = f"{layer}.multipliers", f"{layer}.ratio_test"
            table.update({
                f"{layer}.calls": ([upd], per_round(calls[upd]), "count"),
                f"{layer}.iterations": ([upd], per_round(counts.get(f"{layer}.iterations", 0.0)), "count"),
                f"{layer}.s": ([upd], per_round(secs[upd]), "s"),
                f"{layer}.direction_calls": ([dirn], per_round(calls[dirn]), "count"),
                f"{layer}.direction_s": ([dirn], per_round(secs[dirn]), "s"),
                f"{layer}.direction_found_share": ([dirn], share(f"{layer}.found", calls[dirn]), "share"),
                f"{layer}.ratio_test_s": ([ratio], per_round(secs[ratio]), "s"),
                f"{layer}.multiplier_calls": ([mult], per_round(calls[mult]), "count"),
                f"{layer}.multipliers_s": ([mult], per_round(secs[mult]), "s"),
            })
        top = "homotopy.solve_path"
        table.update({
            "homotopy.breakpoints": ([top], per_round(counts.get("homotopy.breakpoints", 0.0)), "count"),
            "homotopy.retries": ([top], per_round(counts.get("homotopy.retries", 0.0)), "count"),
            "homotopy.refresh_s": (["homotopy.build_sets"], per_round(secs["homotopy.build_sets"]), "s"),
            "homotopy.driver_self_s": (
                [top, "dual_update.update", "primal_update.update", "homotopy.build_sets"],
                per_round(secs[top] - child_s[top]), "s"),
            "pathexport.build_s": (["pathexport.path_to_export"], per_pass(secs["pathexport.path_to_export"]), "s"),
            "pathexport.json_s": (["pathexport.export_to_json"], per_pass(secs["pathexport.export_to_json"]), "s"),
            "instances.digest_s": (["instances.instance_digest"], per_pass(secs["instances.instance_digest"]), "s"),
        })
        out, absent = {}, []
        for name, (needs, value, unit) in table.items():
            if self.missing.intersection(needs):
                absent.append(name)
            else:
                out[name] = {"value": float(value), "unit": unit}
        return out, absent

    def write(self, path, extra: dict) -> None:
        """Spans as [name index, start, end, parent] with times in seconds
        from the tracer's creation, plus the raw counters."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        spans = [[index[n], round(s - self.t0, 9), round(e - self.t0, 9), p]
                 for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        doc = dict(extra, span_names=list(index), spans=spans,
                   counters=dict(self.counts), missing_targets=sorted(self.missing))
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- boundary counters ------------------------------------------------------
def _on_solve(counts, args, kwargs, report):
    rows, cols = np.shape(args[0] if args else kwargs["m"])
    counts["linalg.rows"] += rows
    counts["linalg.cols"] += cols
    counts["linalg.max_cols"] = max(counts["linalg.max_cols"], cols)
    counts["linalg.flops"] += _svd_lstsq_flops(rows, cols)
    counts["linalg.consistent"] += bool(report.consistent)


def _iterations(layer):
    def hook(counts, args, kwargs, result):
        counts[f"{layer}.iterations"] += result.iterations
    return hook


def _found(layer):
    def hook(counts, args, kwargs, report):
        counts[f"{layer}.found"] += bool(report.consistent)
    return hook


def _on_path(counts, args, kwargs, path):
    counts["homotopy.breakpoints"] += len(path.breakpoints) - 1
    counts["homotopy.retries"] += path.retries


_HOOKS = {
    "linalg.solve_consistent": _on_solve,
    "dual_update.update": _iterations("dual_update"),
    "primal_update.update": _iterations("primal_update"),
    "dual_update.direction": _found("dual_update"),
    "primal_update.direction": _found("primal_update"),
    "homotopy.solve_path": _on_path,
}
