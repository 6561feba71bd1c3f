"""Layered sweep benchmark for refine-es.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; refine_es is imported from its
src/. The workload's plan is generated from --seed (see bench_workloads.py)
and run with `refine-es run` in a fresh sweep process, whole sweeps back to
back until --seconds have passed (at least one). Every cell is checked
against reference.json (or, for seeds it does not hold, against the
invariants). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced sweep.
The exit code is 0 only if every cell passed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import bench_check
import bench_trace
from bench_workloads import WORKLOADS, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "bench_child.py")

SETUP_REPS = 5
REPORT_REPS = 8
DEADLINE_S = 170.0  # the whole run, set-up and checks included

# (name, unit, better) of every end-to-end metric, in report order.
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("cell_s_p50", "s", "lower"),
    ("report_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("results_bytes", "bytes", "lower"),
    ("pass_frac", "ratio", "higher"),
]


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: Deadline) -> float:
    """Run a fresh interpreter to completion; return its wall seconds. The
    child gets its own process group so that a timeout also ends any pool
    workers it started."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline.left(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv)}")
    except BaseException:  # interrupted or terminated: leave no process behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}\n{out}{err}")
    return elapsed


def run_sweep(plan: dict, plan_path: str, sweep_dir: str, workers: int,
              trace: bool, reference: dict, deadline: Deadline) -> dict:
    """One sweep in a fresh process, with its outputs checked."""
    out_dir = os.path.join(sweep_dir, "out")
    result_path = os.path.join(sweep_dir, "result.json")
    run_child([CHILD, "sweep", "--plan", plan_path, "--out", out_dir,
               "--workers", str(workers), "--trace", str(int(trace)),
               "--result", result_path], deadline)
    with open(result_path) as fh:
        res = json.load(fh)
    res["results_bytes"] = du(out_dir)
    res["out_dir"] = out_dir
    try:
        cells, problems = bench_check.read_cells(out_dir, plan)
    except (OSError, KeyError, ValueError) as exc:
        cells, problems = [], [f"all cells: outputs unreadable ({exc!r})"]
    problems += bench_check.reference_problems(cells, fingerprint(plan),
                                               reference)
    if res["exit_code"] != 0 and not problems:
        problems.append(f"all cells: refine-es run exited {res['exit_code']}")
    res["cells"], res["problems"] = cells, problems
    res["attempted"] = len(plan["methods"]) * len(plan["seeds"])
    res["failed"] = (res["attempted"] if cells == [] and problems
                     else bench_check.failed_cells(problems))
    return res


def du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "refine_es", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def cross_check(sweeps: list[dict]) -> None:
    """Later sweeps of the same plan must reproduce the first one's cells."""
    first = {(c["method"], c["seed"]): c for c in sweeps[0]["cells"]}
    for sw in sweeps[1:]:
        bad = [f"{c['method']} seed {c['seed']}: differs from the first sweep"
               for c in sw["cells"]
               if first.get((c["method"], c["seed"]), c) != c]
        sw["problems"] += bad
        sw["failed"] = max(sw["failed"], bench_check.failed_cells(sw["problems"]))


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(sweeps: list[dict], setup_s: list[float],
               report_s: list[float]) -> dict:
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    return {
        "setup_s": median(setup_s),
        "wall_s": median(s["wall_s"] for s in sweeps),
        "steps_per_s": median(sum(c["steps_consumed"] for c in s["cells"])
                              / s["wall_s"] for s in sweeps),
        "cell_s_p50": median(t for s in sweeps for t in s["cell_s"]),
        "report_s": median(report_s),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sweeps),
        "results_bytes": median(s["results_bytes"] for s in sweeps),
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced: dict, traced: list[dict], workers: int) -> dict:
    per_sweep = [bench_trace.layer_metrics(
        s["stats"], s["wall_s"], workers,
        sum(c["steps_consumed"] for c in s["cells"]),
        s["wall_s"] - untraced["wall_s"]) for s in traced]
    return {name: median(m[name] for m in per_sweep)
            for name, _u, _b in bench_trace.LAYER_METRICS}


def span_table(stats: dict) -> str:
    rows = [f"  {'span':36s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}"]
    for name, (calls, total, self_s, _items) in sorted(stats.items()):
        rows.append(f"  {name:36s} {calls:9d} {total:9.3f} {self_s:9.3f}")
    return "\n".join(rows)


def measure(args, rundir: str) -> tuple[dict, dict]:
    deadline = Deadline(DEADLINE_S)
    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    workers = workload.workers()
    plan_path = os.path.join(rundir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    reference = bench_check.load_reference()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{plan['task']} {plan['methods']} seeds {plan['seeds']}, "
          f"workers {workers}")

    def setup():
        return run_child([CHILD, "setup", "--plan", plan_path], deadline)

    def report():
        return run_child(["-m", "refine_es.cli", "report", "--dir",
                          sweeps[0]["out_dir"]], deadline)

    # One unmeasured import first, so .pyc files exist as they do for users.
    # The machine's speed drifts over tens of seconds, so the set-up samples
    # are split between the start and the end of the run.
    setup()
    setup_s = [] if args.trace else [setup() for _ in range(SETUP_REPS // 2)]

    sweeps, traced = [], []
    if args.trace:
        sweeps.append(run_sweep(plan, plan_path, os.path.join(rundir, "u0"),
                                workers, False, reference, deadline))
    start = time.perf_counter()
    for n in range(1, 1000):
        sw = run_sweep(plan, plan_path, os.path.join(rundir, f"s{n}"),
                       workers, bool(args.trace), reference, deadline)
        sweeps.append(sw)
        if args.trace:
            traced.append(sw)
        spent = time.perf_counter() - start
        # stop after --seconds, or before the next sweep could overrun
        if spent >= args.seconds or deadline.left() < 2 * spent / n + 25:
            break
    cross_check(sweeps)

    report_s = []
    if not args.trace:
        for _ in range(REPORT_REPS):
            report_s.append(report())
            if len(setup_s) < SETUP_REPS:
                setup_s.append(setup())

    if args.trace:
        metrics = per_layer(sweeps[0], traced, workers)
        units = {n: u for n, u, _ in bench_trace.LAYER_METRICS}
    else:
        metrics = end_to_end(sweeps, setup_s, report_s)
        units = {n: u for n, u, _ in E2E_METRICS}

    digests = sorted({bench_check.digest(s["cells"]) for s in sweeps})
    refs = sum(bench_check.cell_key(fingerprint(plan), c["method"], c["seed"])
               in reference for c in sweeps[0]["cells"])
    problems = [p for s in sweeps for p in s["problems"]]
    env = sweeps[0]["environment"]
    env["src_refine_es_lines"] = src_lines()
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "plan": plan, "environment": env,
        "samples": {"setup": len(setup_s), "sweeps": len(sweeps),
                    "cells": sum(len(s["cell_s"]) for s in sweeps),
                    "report": len(report_s)},
        "setup_s": setup_s, "report_s": report_s,
        "sweeps": [{k: s[k] for k in ("wall_s", "cell_s", "peak_rss_mb",
                                      "results_bytes", "cells", "problems")}
                   for s in sweeps],
        "digests": digests, "problems": problems,
        "spans": [s["spans"] for s in traced],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"outputs digest: {' '.join(digests)} ({refs} of "
          f"{len(sweeps[0]['cells'])} cells checked bit-exact against the "
          f"reference, the rest against the invariants)")
    print(f"samples: {json.dumps(detail['samples'])}")
    for p in problems:
        print(f"FAILED {p}")
    for s in traced:
        print("traced sweep spans:\n" + span_table(s["stats"]))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:16.6f} {units[name]}")
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    summary = {"correct": failed == 0 and len(digests) == 1,
               "attempted": attempted, "failed": failed,
               "metrics": detail["metrics"]}
    return summary, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "refine_es", "pipeline.py")):
        print(f"error: no refine_es sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        summary, detail = measure(args, rundir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    with open(os.path.join(RUNS, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
