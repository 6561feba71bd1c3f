"""Command-line front end.

    refine-es run    --plan plan.json --out results/ [--workers N] [--force]
    refine-es report --dir results/ [--baseline METHOD]
    refine-es resume --dir results/ [--workers N]

`run` refuses to reuse a populated output directory without --force.
`resume` re-runs the sweep in the same directory: completed cells are
detected by their record.json and skipped, interrupted cells continue from
their last checkpoint. REFINE_ES_SEED (comma-separated ints) overrides the
plan's seed list, for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import stats, svgplot
from .checkpoint import load_json, save_json_atomic
from .errors import PlanError
from .pipeline import ExperimentPlan, plan_from_dict, success_matrices, sweep

SEED_ENV_VAR = "REFINE_ES_SEED"


def _load_plan(path: str) -> ExperimentPlan:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan file {path} is not valid JSON: {exc.msg} "
                        f"(line {exc.lineno}, column {exc.colno})") from exc
    seeds_override = os.environ.get(SEED_ENV_VAR)
    if seeds_override:
        try:
            raw["seeds"] = [int(s) for s in seeds_override.split(",")]
        except ValueError:
            raise PlanError(f"{SEED_ENV_VAR} must be comma-separated "
                            f"integers, not {seeds_override!r}") from None
    return plan_from_dict(raw)


def _finish_sweep(plan, out_dir, workers) -> int:
    records, payload = sweep(plan, out_dir, workers=workers)
    if payload["report"]:
        print(stats.render_report(payload["report"]))
    failures = payload["failures"]
    if failures:
        print(f"\n{len(failures)} cell(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f['method']} seed {f['seed']}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    plan = _load_plan(args.plan)
    out_dir = args.out
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.force:
        print(f"error: output directory {out_dir!r} is not empty "
              f"(use --force to reuse it)", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    save_json_atomic(os.path.join(out_dir, "plan.json"), plan.to_dict())
    return _finish_sweep(plan, out_dir, args.workers)


def cmd_resume(args) -> int:
    plan_path = os.path.join(args.dir, "plan.json")
    if not os.path.exists(plan_path):
        print(f"error: {args.dir!r} has no plan.json to resume from",
              file=sys.stderr)
        return 2
    plan = plan_from_dict(load_json(plan_path))
    return _finish_sweep(plan, args.dir, args.workers)


def _collect_records(results_dir: str) -> list[dict]:
    records = []
    runs = os.path.join(results_dir, "runs")
    if not os.path.isdir(runs):
        return records
    for task in sorted(os.listdir(runs)):
        for method in sorted(os.listdir(os.path.join(runs, task))):
            for seed in os.listdir(os.path.join(runs, task, method)):
                path = os.path.join(runs, task, method, seed, "record.json")
                if os.path.exists(path):
                    records.append(load_json(path))
    # integer seed order, as in `sweep` (directory names sort "10" before "2")
    return sorted(records, key=lambda r: (r["task"], r["method"], r["seed"]))


def cmd_report(args) -> int:
    records = [r for r in _collect_records(args.dir) if not r.get("failed")]
    if not records:
        print("no runs found", file=sys.stderr)
        return 1
    plan_path = os.path.join(args.dir, "plan.json")
    expected = None
    if os.path.exists(plan_path):
        plan = load_json(plan_path)
        expected = {(plan["task"], m, s) for m in plan["methods"]
                    for s in plan["seeds"]}
    matrices = success_matrices(records)
    if args.baseline is not None and args.baseline not in matrices:
        print(f"error: baseline {args.baseline!r} is not a method of these "
              f"results {sorted(matrices)}", file=sys.stderr)
        return 2
    report = stats.aggregate_report(matrices, baseline=args.baseline)
    print(stats.render_report(report))
    print("\nsteps consumed per method (min, max over seeds; budget):")
    for method in sorted(matrices):
        steps = [r["steps_consumed"] for r in records if r["method"] == method]
        budget = max(r["budget"] for r in records if r["method"] == method)
        print(f"  {method:<24} {min(steps):>9} {max(steps):>9} {budget:>9}")
    if expected is not None:
        missing = sorted(expected - {(r["task"], r["method"], r["seed"])
                                     for r in records})
        if missing:
            print(f"\nmissing cells ({len(missing)}):")
            for t, m, s in missing:
                print(f"  {t} {m} seed {s}")

    # performance profiles + per-generation diagnostics
    thresholds = np.linspace(0.0, 1.0, 101)
    profile_series = {}
    for method, per_task in sorted(matrices.items()):
        scores = np.concatenate([list(v.values()) for v in per_task.values()])
        profile_series[method] = (thresholds,
                                  stats.performance_profile(scores, thresholds))
    svgplot.write_line_svg(os.path.join(args.dir, "performance_profile.svg"),
                           profile_series, title="Performance profiles",
                           xlabel="success-rate threshold",
                           ylabel="fraction of runs above")
    _diagnostic_plots(args.dir, records)
    return 0


def _diagnostic_plots(results_dir: str, records: list[dict]) -> None:
    for name, key in (("sigma_schedule", "sigma_es"), ("g_norm", "g_norm"),
                      ("return_curves", "center_return")):
        series = {}
        for r in records:
            if r.get("es_records"):
                gens = [g["generation"] for g in r["es_records"]]
                vals = [g[key] for g in r["es_records"]]
                series[f"{r['method']}/s{r['seed']}"] = (gens, vals)
        if series:
            svgplot.write_line_svg(os.path.join(results_dir, f"{name}.svg"),
                                   series, title=name, xlabel="generation",
                                   ylabel=key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-es",
        description="Two-stage PPO -> bounded-support ES policy refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep from a plan file")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--force", action="store_true",
                       help="reuse a non-empty output directory")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("report", help="render tables and plots from results")
    p_rep.add_argument("--dir", required=True)
    p_rep.add_argument("--baseline", default=None)
    p_rep.set_defaults(fn=cmd_report)

    p_res = sub.add_parser("resume", help="continue an interrupted sweep")
    p_res.add_argument("--dir", required=True)
    p_res.add_argument("--workers", type=int, default=1)
    p_res.set_defaults(fn=cmd_resume)

    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be >= 1, not {args.workers}")
    try:
        return args.fn(args)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; checkpoints are on disk, resume with "
              "`refine-es resume`", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
