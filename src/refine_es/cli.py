"""Command-line front end.

    refine-es run    --plan plan.json --out results/ [--workers N] [--force]
    refine-es report --dir results/ [--baseline METHOD]
    refine-es resume --dir results/ [--workers N]

All three read a plan file only through `plan.load_plan`, so a plan file
that cannot be read or fails validation stops each of them with exit status
2 and an error naming the file. The sweep writes its plan to
<out>/plan.json. `run` refuses an --out that cannot be made a directory,
a populated output directory without --force, and even with --force one
whose plan.json differs from the new plan in a key other than `methods`
and `seeds`. `resume` re-runs the sweep of
<dir>/plan.json in the same directory: completed cells are detected by their
record.json and skipped, interrupted cells continue from their last
checkpoint. `report` reads the record.json of exactly the cells of
<dir>/plan.json, one per (method, seed), and prints and plots what
`pipeline.summarize` makes of them, as `sweep` does for report.json; a
record.json that does not read as its cell's record stops it with exit
status 1 and an error naming the file. The plan file is a sweep's only input.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import stats, svgplot
# the CLI writes no file itself (`sweep` writes plan.json), but the
# benchmark's tracer wraps cli.save_json_atomic, so the name stays here
from .checkpoint import save_json_atomic  # noqa: F401
from .errors import CheckpointError, PlanError
from .pipeline import cell_dir, load_record, summarize, sweep
from .plan import load_plan


def _finish_sweep(plan, out_dir, workers) -> int:
    payload = sweep(plan, out_dir, workers=workers)
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
    plan = load_plan(args.plan)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file, or a path through one
        print(f"error: --out {out_dir!r}: {exc.strerror}", file=sys.stderr)
        return 2
    if os.listdir(out_dir):
        if not args.force:
            print(f"error: output directory {out_dir!r} is not empty "
                  f"(use --force to reuse it)", file=sys.stderr)
            return 2
        _refuse_another_plan(os.path.join(out_dir, "plan.json"), plan)
    return _finish_sweep(plan, out_dir, args.workers)


def _refuse_another_plan(path: str, plan) -> None:
    """Raise a PlanError if the plan at `path` differs from `plan` in a key
    other than methods and seeds: a finished cell is not run again, so its
    record would be that other plan's."""
    if not os.path.exists(path):
        return
    old, new = load_plan(path).to_dict(), plan.to_dict()
    for key in new:
        if key not in ("methods", "seeds") and old[key] != new[key]:
            raise PlanError(
                f"{path}: plan key {key!r} is {old[key]!r} there and "
                f"{new[key]!r} in the new plan; --force reuses a directory "
                f"only for a plan that differs in methods or seeds alone")


def cmd_resume(args) -> int:
    plan = load_plan(os.path.join(args.dir, "plan.json"))
    return _finish_sweep(plan, args.dir, args.workers)


def cmd_report(args) -> int:
    plan_path = os.path.join(args.dir, "plan.json")
    if not os.path.exists(plan_path):
        print("no runs found", file=sys.stderr)
        return 1
    plan = load_plan(plan_path)
    cells = [(method, seed) for method in sorted(plan.methods)
             for seed in sorted(plan.seeds)]
    paths = {cell: os.path.join(cell_dir(args.dir, plan.task, *cell),
                                "record.json") for cell in cells}
    payload = summarize(plan, [load_record(p, plan, *cell)
                               for cell, p in paths.items()
                               if os.path.exists(p)], args.baseline)
    report = payload["report"]
    if not report:
        print("no runs found", file=sys.stderr)
        return 1
    if args.baseline is not None and args.baseline not in report["methods"]:
        print(f"error: baseline {args.baseline!r} is not a method of these "
              f"results {sorted(report['methods'])}", file=sys.stderr)
        return 2
    print(stats.render_report(report))
    records = [r for r in payload["records"] if not r["failed"]]
    print("\nsteps consumed per method (min, max over seeds; budget):")
    for method in sorted(report["methods"]):
        steps = [r["steps_consumed"] for r in records if r["method"] == method]
        budget = max(r["budget"] for r in records if r["method"] == method)
        print(f"  {method:<24} {min(steps):>9} {max(steps):>9} {budget:>9}")
    done = {(r["method"], r["seed"]) for r in records}
    missing = [cell for cell in cells if cell not in done]
    if missing:
        print(f"\nmissing cells ({len(missing)}):")
        for method, seed in missing:
            print(f"  {plan.task} {method} seed {seed}")

    # performance profiles + per-generation diagnostics
    thresholds = np.linspace(0.0, 1.0, 101)
    profile_series = {method: (thresholds, stats.performance_profile(
        [r["final_success_rate"] for r in records if r["method"] == method],
        thresholds)) for method in sorted(report["methods"])}
    svgplot.write_line_svg(os.path.join(args.dir, "performance_profile.svg"),
                           profile_series, title="Performance profiles",
                           xlabel="success-rate threshold",
                           ylabel="fraction of runs above")
    _diagnostic_plots(args.dir, records)
    return 0


def _diagnostic_plots(results_dir: str, records: list[dict]) -> None:
    """One plot per ES diagnostic, a series per cell with ES records; a plot
    without a series is deleted, so that no cell of another plan stays."""
    for name, key in (("sigma_schedule", "sigma_es"), ("g_norm", "g_norm"),
                      ("return_curves", "center_return")):
        path = os.path.join(results_dir, f"{name}.svg")
        series = {f"{r['method']}/s{r['seed']}": (
            [g["generation"] for g in r["es_records"]],
            [g[key] for g in r["es_records"]]) for r in records
            if r["es_records"]}
        if series:
            svgplot.write_line_svg(path, series, title=name,
                                   xlabel="generation", ylabel=key)
        elif os.path.exists(path):
            os.remove(path)


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
    except (PlanError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PlanError) else 1  # 1: a bad record.json
    except KeyboardInterrupt:
        print("interrupted; checkpoints are on disk, resume with "
              "`refine-es resume`", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
