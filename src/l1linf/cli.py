"""Command-line front end: solve, plot, gen, verify.

Exit codes: 0 success, 1 solver failure or property violation, 2 input or
parse errors.  Setting HOUDINI_TRACE=1 prints a per-iteration trace of the
homotopy loop to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .homotopy import ProblemInstance, solve_path
from .instances import (instance_to_dict, load_instance, random_ground_truth,
                        save_instance)
from .mmio import ParseError, read_matrixmarket_array, read_vector
from .pathexport import (export_from_json, export_to_csv, export_to_json,
                         path_to_export)
from .svgplot import path_svg
from .verify import format_results, run_suite

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_INPUT = 2


def _err(msg: str) -> None:
    print(f"l1linf: {msg}", file=sys.stderr)


def _load_problem(args) -> ProblemInstance:
    path = Path(args.input)
    if not path.exists():
        raise ParseError(f"input file not found: {path}")
    if path.suffix.lower() == ".json":
        inst, _, _ = load_instance(path)
        if args.delta is not None:
            inst = ProblemInstance(inst.A, inst.b, args.delta)
        return inst
    a = read_matrixmarket_array(path)
    if args.b is None:
        raise ParseError("MatrixMarket input needs --b VECTOR_FILE")
    b = read_vector(Path(args.b))
    if args.delta is None:
        raise ParseError("--delta is required with MatrixMarket input")
    return ProblemInstance(a, b, args.delta)


def _trace_printer(rec: dict) -> None:
    print("trace " + " ".join(f"{k}={v}" for k, v in rec.items()), file=sys.stderr)


def cmd_solve(args) -> int:
    try:
        inst = _load_problem(args)
    except (ParseError, ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    trace = _trace_printer if os.environ.get("HOUDINI_TRACE") == "1" else None
    t0 = time.perf_counter()
    path = solve_path(inst, use_warm_starts=not args.cold,
                      max_iters=args.max_iters, trace=trace)
    total = time.perf_counter() - t0
    timing = dict(path.timing)
    timing["total_s"] = total
    export = path_to_export(inst, path, timing=timing)
    text = export_to_csv(export) if args.format == "csv" else export_to_json(export)
    if args.output and args.output != "-":
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if path.terminated != "target-reached":
        _err(f"solve failed: {path.failure_reason}")
        return EXIT_SOLVE
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        export = export_from_json(Path(args.input).read_text())
        svg = path_svg(export)
    except (OSError, ValueError, KeyError) as exc:
        _err(f"cannot plot: {exc}")
        return EXIT_INPUT
    Path(args.output).write_text(svg)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.sparsity > args.m:
        _err("sparsity cannot exceed the row count")
        return EXIT_INPUT
    try:
        gti = random_ground_truth(
            args.m, args.n, args.sparsity, args.delta, seed=args.seed,
            certificate="dense" if args.dense_certificate else "sparse",
            dynamic_range=args.dynamic_range)
    except (ValueError, RuntimeError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    if args.output and args.output != "-":
        save_instance(args.output, gti.inst, gti.x_bar, gti.y_bar, seed=args.seed)
    else:
        json.dump(instance_to_dict(gti.inst, gti.x_bar, gti.y_bar, seed=args.seed),
                  sys.stdout, indent=1)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    instances = None
    if args.input:
        try:
            inst, _, _ = load_instance(args.input)
        except (ValueError, OSError) as exc:
            _err(str(exc))
            return EXIT_INPUT
        instances = [inst]
    results, failing = run_suite(count=args.count, seed=args.seed,
                                 perturb_y=args.perturb_y, pair_tol=args.tol,
                                 instances=instances)
    print(format_results(results))
    if all(r.passed for r in results):
        return EXIT_OK
    if failing is not None:
        replay = Path("l1linf-failing-instance.json")
        replay.write_text(json.dumps(failing, indent=1) + "\n")
        _err(f"first failing instance written to {replay}")
    return EXIT_SOLVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1linf",
        description="Piecewise-linear solution paths for l1-minimization "
                    "under a sup-norm constraint ||Ax-b||_inf <= delta.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and export the path")
    p.add_argument("input", help="instance JSON, or MatrixMarket matrix with --b")
    p.add_argument("--b", help="vector file (plain text or JSON) for MatrixMarket input")
    p.add_argument("--delta", type=float, default=None, help="target bound")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--cold", action="store_true", help="disable warm starts")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("plot", help="render a path export as SVG")
    p.add_argument("input", help="path export JSON")
    p.add_argument("-o", "--output", required=True, help="SVG output file")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gen", help="generate an instance with known optimum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sparsity", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dynamic-range", type=float, default=10.0)
    p.add_argument("--dense-certificate", action="store_true",
                   help="least-squares certificate (large optimal active set)")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the property verification suite")
    p.add_argument("--count", type=int, default=200, help="number of random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8, help="certification tolerance")
    p.add_argument("--perturb-y", action="store_true",
                   help="negative control: corrupt dual certificates before checking")
    p.add_argument("--input", default=None, help="verify a single instance file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        _err(f"numerical failure: {exc}")
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
