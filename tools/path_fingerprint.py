#!/usr/bin/env python3
"""Fingerprints of the 1,026 reference paths, and a comparison of two.

    python3 tools/path_fingerprint.py write OUT.json
    python3 tools/path_fingerprint.py compare A.json B.json [--rtol 1e-12]

The reference paths are seed 1 of the four benchmark workloads (imported
read-only from ``perfbench/workloads.py``), the instances of
``l1linf verify --count 200 --seed 0`` and the 100 tied draws of
``half_integer_draws``, each solved warm and cold.  The tied draws take
zero-length subproblem steps, which the other paths never make.  A
path's fingerprint is its status, failure reason, breakpoint count, dual
and primal iterations, retries (always 0), kernel counts
(``SolutionPath.kernel``: every non-empty kernel call of the path by the
route that answered it, ``updates``, ``fresh``, ``svd`` or ``reused`` for
a stored report handed back, and ``drift``, the carried answers refused; a
file written before ``reused`` existed lacks that key, so ``compare``
against one lists every path's kernel field), the number
of its breakpoints that ``check_optimal_pair`` certifies, the bytes of its
breakpoint bounds ``delta_k``, and ``digest``, a SHA-256 over every
breakpoint's ``x`` and ``y`` bytes, its four index sets and its
``residual_signs``, and ``export``, the SHA-256 of the path's JSON text
(``export_to_json(path_to_export(inst, path))``), so that the writer's
bytes are compared too; a file written before ``export`` existed lacks
that key, so ``compare`` against one lists every path's export field.
``compare`` asks every field to be equal, and each
bound to agree within ``--rtol`` times the bound itself (exact by
default); the two digests are compared in the exact mode only, since a
positive ``--rtol`` admits paths that differ by rounding.  It lists each
difference and exits 1 when there is one.  Its last line gives, for each
family of paths (the label's first part: ``gauss-deep``, ``verify-0``,
``half-integer``, ...), how many of its paths differ and in which fields,
and its largest delta_k difference relative to itself, which --rtol
bounds.
It also prints the largest
difference relative to the path's start bound delta_0 = ||b||_inf:
since delta_k = delta_{k-1} - t_k carries a rounding difference in an
early step unchanged down the path, a bound a thousand times below
delta_0 reads the same difference a thousand times larger.

Run with one BLAS thread for repeatable timings; the fingerprint itself
does not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def half_integer_draws(count: int = 100, seed: int = 7):
    """Instances with tied data: draw i of ``default_rng(seed)`` is m x 2m
    with m in [3, 12), A and b Gaussian rounded to multiples of 1/2, and
    delta = 0.1 ||b||_inf."""
    import numpy as np
    from l1linf import ProblemInstance
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(3, 12))
        a, b = rng.standard_normal((m, 2 * m)), rng.standard_normal(m)
        a, b = np.round(2 * a) / 2, np.round(2 * b) / 2
        yield ProblemInstance(a, b, 0.1 * np.max(np.abs(b)))


def _cases():
    """(label, ProblemInstance) of every reference instance."""
    import numpy as np
    from l1linf import ProblemInstance
    from l1linf.verify import random_instance
    from workloads import WORKLOADS
    for name, make in WORKLOADS.items():
        for case in make(1, False).cases:
            yield f"{name}/{case.label}", ProblemInstance(case.A, case.b, case.delta)
    rng = np.random.default_rng(0)
    for i in range(200):
        yield f"verify-0/{i}", random_instance(rng)
    for i, inst in enumerate(half_integer_draws()):
        yield f"half-integer/{i}", inst


def path_digest(path) -> str:
    """SHA-256 over every breakpoint's x, y, four index sets and residual
    signs, each array preceded by its length."""
    import numpy as np
    h = hashlib.sha256()
    for bp in path.breakpoints:
        sets = bp.sets
        for arr in (np.asarray(bp.x, dtype="<f8"), np.asarray(bp.y, dtype="<f8"),
                    *(np.asarray(s, dtype="<i8")
                      for s in (sets.J_P, sets.I_P, sets.J_D, sets.I_D)),
                    np.asarray(sets.residual_signs, dtype="<f8")):
            h.update(arr.size.to_bytes(8, "little"))
            h.update(arr.tobytes())
    return h.hexdigest()


def _fingerprint(inst, path) -> dict:
    import numpy as np
    from l1linf import check_optimal_pair
    from l1linf.pathexport import export_to_json, path_to_export
    deltas = np.array([bp.delta_k for bp in path.breakpoints], dtype="<f8")
    return {
        "status": path.terminated, "failure_reason": path.failure_reason,
        "breakpoints": len(path.breakpoints) - 1,
        "dual_iterations": path.dual_iterations,
        "primal_iterations": path.primal_iterations, "retries": path.retries,
        "kernel": vars(path.kernel),
        "certified": sum(check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
                         for bp in path.breakpoints),
        "delta_k": deltas.tobytes().hex(),
        "digest": path_digest(path),
        "export": hashlib.sha256(export_to_json(path_to_export(inst, path)).encode()).hexdigest(),
    }


def write(out: Path) -> int:
    from l1linf import solve_path
    doc = {}
    for label, inst in _cases():
        for warm in (True, False):
            path = solve_path(inst, use_warm_starts=warm)
            doc[f"{label}/{'warm' if warm else 'cold'}"] = _fingerprint(inst, path)
    out.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    uncertified = sum(fp["certified"] != fp["breakpoints"] + 1 for fp in doc.values())
    print(f"{len(doc)} paths written to {out}; {uncertified} with an uncertified breakpoint")
    return 0


def compare(a_file: Path, b_file: Path, rtol: float) -> int:
    import numpy as np
    a, b = (json.loads(Path(f).read_text()) for f in (a_file, b_file))
    diffs = [(key, "presence", f"{key}: only in {a_file if key in a else b_file}")
             for key in sorted(set(a) ^ set(b))]    # (path, field, line)
    worst = worst_start = 0.0
    family_worst = {}
    for key in sorted(set(a) & set(b)):
        fa, fb = a[key], b[key]
        for field in sorted(set(fa) | set(fb)):
            if field == "delta_k" or (field in ("digest", "export") and rtol > 0.0):
                continue
            if fa.get(field) != fb.get(field):
                diffs.append((key, field,
                              f"{key}: {field} {fa.get(field)!r} != {fb.get(field)!r}"))
        da, db = (np.frombuffer(bytes.fromhex(f["delta_k"]), dtype="<f8") for f in (fa, fb))
        if da.shape != db.shape:
            continue                 # the breakpoint counts differ, listed above
        gap = np.abs(da - db)
        scale = float(np.abs(da).max(initial=0.0))
        worst_start = max(worst_start, float(gap.max(initial=0.0)) / scale if scale else 0.0)
        rel = float((gap[gap > 0.0] / np.abs(da[gap > 0.0])).max(initial=0.0))
        worst = max(worst, rel)
        family = key.split("/")[0]
        family_worst[family] = max(family_worst.get(family, 0.0), rel)
        if rel > rtol:
            diffs.append((key, "delta_k", f"{key}: delta_k differs by {rel:.3e} of itself"))
    for _, _, line in diffs:
        print(line)
    print(f"{len(a)} vs {len(b)} paths; {len(diffs)} differences; largest delta_k "
          f"difference {worst:.3e} of delta_k itself (rtol {rtol:g}), "
          f"{worst_start:.3e} of delta_0")
    print("by family: " + family_summary(set(a) | set(b), diffs, family_worst))
    return 1 if diffs else 0


def family_summary(keys, diffs, worst) -> str:
    """Each family of paths (a label's first part), how many of its paths
    differ and in which fields, and the largest difference of a delta_k
    relative to itself among its paths of equal length (the quantity that
    --rtol bounds)."""
    paths, fields = {}, {}
    for key, field, _ in diffs:
        family = key.split("/")[0]
        paths.setdefault(family, set()).add(key)
        fields.setdefault(family, set()).add(field)

    def line(family):
        rel = worst.get(family, 0.0)
        moved = f"delta_k {rel:.1e}" if rel else "delta_k 0"
        if family not in paths:
            return f"{family} 0 {moved}"
        return f"{family} {len(paths[family])} ({', '.join(sorted(fields[family]))}) {moved}"
    return "; ".join(line(family) for family in sorted({key.split("/")[0] for key in keys}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("write", help="fingerprint the reference paths")
    p.add_argument("out", type=Path)
    p = sub.add_parser("compare", help="compare two fingerprint files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--rtol", type=float, default=0.0,
                   help="tolerance on each delta_k, relative to itself (default: exact); "
                        "a positive value skips the x/y/set and export digests")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        if not 0.0 <= args.rtol < float("inf"):
            parser.error("--rtol must be finite and nonnegative")
        return compare(args.a, args.b, args.rtol)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    return write(args.out)


if __name__ == "__main__":
    sys.exit(main())
