"""Benchmark core: set-up, timed rounds, independent checks and output.

Imported by run.py once the BLAS thread cap is set and ``src/`` is on the
path.  A path round computes every path of the workload once
(``solve_path``); a pass certifies every breakpoint of those paths
(``check_optimal_pair``) and exports every path (``path_to_export`` +
``export_to_json``).  Each call is timed on its own and scaled to
reference seconds by calibration slices taken between calls; a phase's
time is the sum over paths of each path's median over repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import l1linf
from l1linf import pathexport

import checks
import tracing
from workloads import BASE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 4     # certify-and-export passes per run, at least
PASSES_PER_ROUND = 2
CAL_EVERY_S = 0.5  # seconds of timed work between two calibration slices
CAL_REF_S = 0.04   # seconds of one calibration slice at the reference host speed

END_TO_END_UNITS = {
    "setup_s": "s", "path_s": "s", "breakpoints_per_s": "1/s", "certify_s": "s",
    "export_s": "s", "export_mb": "MB", "peak_mem_mb": "MB",
}


@dataclass
class Job:
    label: str
    inst: l1linf.ProblemInstance
    warm: bool


@dataclass
class Measurement:
    """Timed work of one run.  ``times[phase][r][j]`` is the seconds job j
    took in repetition r of the phase, and ``slots[phase][r][j]`` the index
    of the last calibration slice taken before that call.  The paths are
    the last round's (every round's fingerprint is compared with the
    first's); the certification flags and exports are the first pass's."""
    times: dict[str, list[list[float]]]
    slots: dict[str, list[list[int]]]
    paths: list
    certified: list[bool]
    texts: list[str]
    fingerprints: list[list[str]]   # per path round, per job
    pass_digests: list[list[str]]   # per certify/export pass, per job
    calibration: list[float]        # seconds of each calibration slice

    @property
    def rounds(self) -> int:
        return len(self.times["path_s"])

    @property
    def passes(self) -> int:
        return len(self.times["export_s"])

    @property
    def breakpoints(self) -> int:
        return sum(len(p.breakpoints) - 1 for p in self.paths)

    @property
    def export_bytes(self) -> int:
        return sum(len(t) for t in self.texts)

    def _factor(self, seconds: float, slot: int) -> float:
        """Reference seconds per measured second for a call of ``seconds``
        made between calibration slices ``slot`` and ``slot + 1``: the
        reference slice time over the median time of those two slices and,
        for a call that spans n calibration intervals, of n more slices on
        either side.  The median keeps a slice that was preempted from
        moving a long call."""
        n = int(seconds / CAL_EVERY_S)
        near = self.calibration[max(0, slot - n):slot + 2 + n]
        return CAL_REF_S / statistics.median(near)

    def seconds(self, phase: str, raw: bool = False) -> float:
        """One pass over every path: the sum over paths of each path's
        median time across the repetitions of the phase.  Unless ``raw``,
        each call's time is first scaled by the slices around it."""
        reps = self.times[phase] if raw else [
            [t * self._factor(t, slot) for t, slot in zip(ts, slots)]
            for ts, slots in zip(self.times[phase], self.slots[phase])]
        return sum(statistics.median(t) for t in zip(*reps))


# -- host speed -------------------------------------------------------------
_CAL_RNG = np.random.default_rng(BASE_SEED)
_CAL_A = _CAL_RNG.standard_normal((60, 60))
_CAL_S = _CAL_RNG.standard_normal((30, 60))
_CAL_V = _CAL_RNG.standard_normal(60)


def calibration_slice() -> float:
    """Seconds of one fixed slice of the three kinds of work a path does:
    interpreted Python, numpy on short vectors and LAPACK least squares, in
    about equal parts.  It calls nothing in l1linf, so no change to the
    package moves it; it moves with the speed the shared host gives this
    process at the time."""
    tick = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    x = np.zeros(60)
    for _ in range(1500):
        x -= 1e-3 * (_CAL_S.T @ (_CAL_S @ x - _CAL_V[:30]))
    for _ in range(25):
        np.linalg.lstsq(_CAL_A, _CAL_V, rcond=None)
    return time.perf_counter() - tick


class Calibration:
    """Calibration slices interleaved with the timed work, at least one
    every CAL_EVERY_S seconds; their times are outside every timed call."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def between(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append(calibration_slice())
            self._last = time.perf_counter()


# -- set-up -----------------------------------------------------------------
def _warm_up() -> None:
    rng = np.random.default_rng(0)
    inst = l1linf.ProblemInstance(rng.standard_normal((8, 16)), rng.standard_normal(8), 0.1)
    path = l1linf.solve_path(inst)
    for bp in path.breakpoints:
        l1linf.check_optimal_pair(inst, bp.x, bp.y, bp.delta_k)
    pathexport.export_to_json(pathexport.path_to_export(inst, path))


def set_up(name: str, seed: int, quick: bool, repeats: int) -> tuple[list[Job], float, float]:
    """Import in a fresh interpreter, generate the instances, warm up; the
    whole sequence is repeated and its median time is the set-up time.
    Returns the jobs, that time, and the host factor of calibration slices
    taken before, between and after the repetitions."""
    env = dict(os.environ, PYTHONPATH=str(Path(l1linf.__file__).parent.parent))
    samples, calibration = [], []
    for _ in range(repeats):
        calibration.append(calibration_slice())
        tick = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import l1linf, l1linf.pathexport"],
                       env=env, check=True)
        workload = WORKLOADS[name](seed, quick)
        jobs = []
        for case in workload.cases:
            inst = l1linf.ProblemInstance(case.A, case.b, case.delta)
            jobs.append(Job(case.label, inst, True))
            if workload.solve_cold:
                jobs.append(Job(case.label, inst, False))
        _warm_up()
        samples.append(time.perf_counter() - tick)
    calibration.append(calibration_slice())
    return jobs, statistics.median(samples), CAL_REF_S / statistics.median(calibration)


# -- timed rounds -----------------------------------------------------------
def _corrupt_certificate(path) -> None:
    """Negative control: one dual certificate moved off the optimal face,
    in the spirit of ``l1linf verify --perturb-y``."""
    bp = path.breakpoints[len(path.breakpoints) // 2]
    bp.y = bp.y.copy()
    bp.y[0] += 0.1


def _fingerprint(path) -> str:
    h = hashlib.sha256(path.terminated.encode())
    for bp in path.breakpoints:
        h.update(np.float64(bp.delta_k).tobytes())
        h.update(bp.x.tobytes())
        h.update(bp.y.tobytes())
    return h.hexdigest()


def _timed(fn, items, cal: Calibration) -> tuple[list, list[float], list[int]]:
    out, seconds, slots = [], [], []
    for item in items:
        cal.between()
        slots.append(len(cal.samples) - 1)
        tick = time.perf_counter()
        out.append(fn(item))
        seconds.append(time.perf_counter() - tick)
    return out, seconds, slots


def _solve(job: Job):
    return l1linf.solve_path(job.inst, use_warm_starts=job.warm)


def _certify(job_path) -> bool:
    job, path = job_path
    return all([l1linf.check_optimal_pair(job.inst, bp.x, bp.y, bp.delta_k)
                for bp in path.breakpoints])


def _export(job_path) -> str:
    job, path = job_path
    return pathexport.export_to_json(pathexport.path_to_export(job.inst, path))


def measure(jobs: list[Job], seconds: float, corrupt: bool = False) -> Measurement:
    """Path rounds, each followed by PASSES_PER_ROUND passes that certify
    every breakpoint and export every path, until ``seconds`` have passed:
    at least one round, and at least MIN_PASSES passes (the extra ones over
    the last round's paths).  Interleaving puts every phase in the same
    stretch of host time that the calibration slices sample."""
    times = {"path_s": [], "certify_s": [], "export_s": []}
    slots = {phase: [] for phase in times}
    fingerprints, pass_digests = [], []
    cal = Calibration()
    deadline = time.perf_counter() + seconds
    while not (corrupt and pass_digests):
        running = time.perf_counter() < deadline
        if fingerprints and not running and len(pass_digests) >= MIN_PASSES:
            break
        if not fingerprints or (running and len(pass_digests) % PASSES_PER_ROUND == 0):
            paths = None   # one round in memory at a time: peak memory does not grow with rounds
            paths, seconds_each, slots_each = _timed(_solve, jobs, cal)
            times["path_s"].append(seconds_each)
            slots["path_s"].append(slots_each)
            fingerprints.append([_fingerprint(p) for p in paths])
            if corrupt:
                _corrupt_certificate(paths[0])
        pairs = list(zip(jobs, paths))
        certified, seconds_each, slots_each = _timed(_certify, pairs, cal)
        times["certify_s"].append(seconds_each)
        slots["certify_s"].append(slots_each)
        texts, seconds_each, slots_each = _timed(_export, pairs, cal)
        times["export_s"].append(seconds_each)
        slots["export_s"].append(slots_each)
        pass_digests.append([f"{c}:{hashlib.sha256(t.encode()).hexdigest()}"
                             for c, t in zip(certified, texts)])
        if len(pass_digests) == 1:
            first_certified, first_texts = certified, texts
    cal.samples.append(calibration_slice())
    return Measurement(times, slots, paths, first_certified, first_texts,
                       fingerprints, pass_digests, cal.samples)


# -- checks -----------------------------------------------------------------
def independent_checks(jobs: list[Job], first: Measurement) -> tuple[list[list[str]], float]:
    """Failures per job of the measured paths, and HiGHS seconds."""
    failures: list[list[str]] = [[] for _ in jobs]
    highs: dict[int, float] = {}
    highs_s = 0.0
    for i, (job, path) in enumerate(zip(jobs, first.paths)):
        if path.terminated != "target-reached":
            continue
        inst = job.inst
        bps = path.breakpoints
        ks = [bp.k for bp in bps]
        deltas = np.array([bp.delta_k for bp in bps])
        X = np.vstack([bp.x for bp in bps])
        Y = np.vstack([bp.y for bp in bps])
        f = failures[i]
        if not first.certified[i]:
            f.append("check_optimal_pair rejects a breakpoint")
        f += checks.optimality_failures(inst.A, inst.b, deltas, X, Y)
        f += checks.schedule_failures(inst.b, inst.delta, deltas)
        if id(inst) not in highs:
            highs[id(inst)], seconds = checks.highs_objective(inst.A, inst.b, inst.delta)
            highs_s += seconds
        f += checks.objective_failures(path.objective, highs[id(inst)],
                                       checks.HIGHS_RTOL, "HiGHS")
        f += checks.export_failures(first.texts[i], ks, deltas, X, Y)
    for i in range(1, len(jobs)):
        warm, cold = jobs[i - 1], jobs[i]
        if cold.inst is warm.inst and not cold.warm and \
                first.paths[i].terminated == first.paths[i - 1].terminated == "target-reached":
            failures[i] += checks.objective_failures(
                first.paths[i].objective, first.paths[i - 1].objective,
                checks.WARM_COLD_RTOL, "the warm-start objective")
    return failures, highs_s


def account(jobs: list[Job], runs: list[Measurement],
            failures: list[list[str]]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, messages) over every path round.  A path
    fails when it does not reach the target, fails a check, or differs from
    the first round or pass; ``correct`` is false when any path that
    reached the target is wrong."""
    ref = runs[0]
    attempted = failed = 0
    correct = True
    messages = []
    for run in runs:
        for r, prints in enumerate(run.fingerprints):
            for i, job in enumerate(jobs):
                attempted += 1
                bad = list(failures[i])
                if ref.paths[i].terminated != "target-reached":
                    bad.append(f"terminated: {ref.paths[i].failure_reason}")
                elif prints[i] != ref.fingerprints[0][i]:
                    bad.append("path differs from the first round")
                elif any(d[i] != ref.pass_digests[0][i] for d in run.pass_digests):
                    bad.append("certification or export differs between passes")
                if bad:
                    failed += 1
                    correct = correct and ref.paths[i].terminated != "target-reached"
                    if run is ref and r == 0:
                        mode = "warm" if job.warm else "cold"
                        messages += [f"FAIL {job.label} ({mode}): {b}" for b in bad]
    return attempted, failed, correct, messages


# -- one workload -----------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                 corrupt: bool = False, targets=tracing.TARGETS,
                 trace_file: Path | None = None) -> dict:
    jobs, setup_s, setup_factor = set_up(name, seed, quick, 1 if quick else SETUP_REPEATS)
    out = {"workload": name, "seed": seed, "paths_per_round": len(jobs),
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if trace:
        plain = measure(jobs, seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(targets)
        try:
            traced = measure(jobs, seconds / 2.0)
        finally:
            tracer.uninstall()
        if trace_file is not None:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(trace_file, {"workload": name, "seed": seed, "rounds": traced.rounds,
                                      "passes": traced.passes})
        metrics, absent = tracer.metrics(traced.rounds, traced.passes)
        metrics["trace.overhead_s"] = {
            "value": traced.seconds("path_s") - plain.seconds("path_s"), "unit": "s"}
        out.update(absent=absent,
                   work_counters={k: metrics[k]["value"] for k in tracing.WORK_COUNTERS
                                  if k in metrics})
        runs = [plain, traced]
    else:
        plain = measure(jobs, seconds, corrupt)
        path_s = plain.seconds("path_s")
        values = {
            "setup_s": setup_s * setup_factor,
            "path_s": path_s,
            "breakpoints_per_s": plain.breakpoints / path_s,
            "certify_s": plain.seconds("certify_s"),
            "export_s": plain.seconds("export_s"),
            "export_mb": plain.export_bytes / 1e6,
            # ru_maxrss is in KiB on Linux
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        out.update(raw_seconds={"setup_s": setup_s,
                                **{ph: plain.seconds(ph, raw=True) for ph in plain.times}})
        runs = [plain]
    before = calibration_slice()
    failures, highs_s = independent_checks(jobs, plain)
    highs_s *= 2.0 * CAL_REF_S / (before + calibration_slice())   # reference seconds, like path_s
    attempted, failed, correct, messages = account(jobs, runs, failures)
    out.update(rounds=plain.rounds, passes=plain.passes,
               breakpoints_per_round=plain.breakpoints,
               phase_seconds={ph: [sum(t) for t in plain.times[ph]] for ph in plain.times},
               calibration_s=plain.calibration,
               highs_s=highs_s, messages=messages, correct=correct,
               attempted=attempted, failed=failed, metrics=metrics)
    return out


def report(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']}: {res['paths_per_round']} paths "
          f"per round, {res['rounds']} path rounds, {res['passes']} certify/export passes, "
          f"{res['breakpoints_per_round']} breakpoints per round, "
          f"BLAS threads {res['blas_threads']}")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name in res.get("absent", []):
        print(f"  {name:32s} {'absent':>14s}")
    print(f"  paths attempted {res['attempted']}, failed {res['failed']}")
    print(f"  reference: HiGHS, one LP solve per instance at the target delta: "
          f"{res['highs_s']:.4g} s")
    for line in res["messages"]:
        print("  " + line)


def result_line(res: dict) -> str:
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- modes ------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines or not lines[-1].startswith("{"):
            print(f"workload {name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] and not merged["failed"] else 1


def run_quick(seed: int) -> int:
    """Every check at tiny sizes: all workloads untraced and traced twice,
    the work counters compared between the two traced runs, a traced run
    with one layer function missing, and the negative control."""
    outcomes = []

    def record(ok: bool, what: str) -> None:
        outcomes.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)

    for name in WORKLOADS:
        res = run_workload(name, seed, 0.0, trace=False, quick=True)
        report(res)
        record(res["correct"] and res["failed"] == 0,
               f"{name}: every path reaches the target and passes every check")
        first = run_workload(name, seed, 0.0, trace=True, quick=True)
        second = run_workload(name, seed, 0.0, trace=True, quick=True)
        record(not first["absent"] and first["work_counters"] == second["work_counters"],
               f"{name}: every layer metric present, work counters repeat exactly "
               f"{first['work_counters']}")

    missing = [(mod, attr + "_missing" if span == "dual_update.multipliers" else attr, span)
               for mod, attr, span in tracing.TARGETS]
    res = run_workload("gauss-deep", seed, 0.0, trace=True, quick=True, targets=missing)
    record(res["correct"] and sorted(res["absent"]) ==
           ["dual_update.multiplier_calls", "dual_update.multipliers_s"],
           f"traced run with a missing layer function finishes; absent: {res['absent']}")

    res = run_workload("gauss-deep", seed, 0.0, trace=False, quick=True, corrupt=True)
    flagged = [m for m in res["messages"] if "not in Sign" in m or "duality gap" in m]
    record(res["failed"] >= 1 and not res["correct"] and bool(flagged),
           f"negative control: corrupted certificate reported as a failed path "
           f"({res['failed']} failed; {flagged[0] if flagged else 'not flagged'})")
    return 0 if all(outcomes) else 1


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, every check, a few seconds")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt one dual certificate; the run must report a failed path")
    args = p.parse_args(argv)
    if args.quick:
        return run_quick(args.seed)
    if args.workload == "all":
        return run_all(args)
    tag = f"{args.workload}-seed{args.seed}"
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       corrupt=args.negative_control,
                       trace_file=OUT_DIR / f"trace-{tag}.json" if args.trace else None)
    report(res)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    print(result_line(res))
    return 0 if res["correct"] else 1
