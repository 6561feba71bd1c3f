"""Span recorder that times refine_es layers from outside the package.

Functions are imported by name across refine_es modules, so a wrapper must
replace the attribute in every namespace that calls it (``engine.rollout``,
``ppo.mlp_forward``, ...). Each wrapped call is a span with a name, a parent
(the innermost open span), a start and an end. Per span name the recorder
keeps the call count, total seconds, self seconds (duration minus the time
covered by child spans) and an optional item count (env steps, bytes). Spans
of the coarse layers are also kept in a list; hot layers (one call per env
step) are only aggregated, so tracing stays cheap enough to run a full sweep.

Pool workers (fork start method) inherit the wrappers. Each worker starts a
fresh recording when it begins a cell and writes it to ``dump_dir`` when the
cell ends; ``merge_dumps`` adds those files to the main process's recording.
"""

from __future__ import annotations

import glob
import json
import os
import time

CELL = "pipeline.run_method"
SWEEP = "pipeline.sweep"
TDES = "engine.tdes_run"


class Recorder:
    def __init__(self, dump_dir: str | None = None):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._dumps = 0
        self.stack: list[list] = []  # open spans: [name, child_seconds]
        self.clear()

    def clear(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, items]
        self.spans: list[tuple] = []  # (name, parent, start, end)

    def begin_cell(self) -> None:
        if os.getpid() != self.pid:  # first cell in a freshly forked worker
            self.pid = os.getpid()
            self.stack.clear()  # every wrapper holds this same list
            self.clear()

    def end_cell(self) -> None:
        if self.dump_dir is None or self.stack:
            return  # a cell run in the main process stays in memory
        path = os.path.join(self.dump_dir, f"{self.pid}-{self._dumps}.json")
        self._dumps += 1
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)
        self.clear()

    def merge_dumps(self) -> None:
        if self.dump_dir is None:
            return
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "*.json"))):
            with open(path) as fh:
                dump = json.load(fh)
            for name, (calls, total, self_s, items) in dump["stats"].items():
                st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                st[0] += calls
                st[1] += total
                st[2] += self_s
                st[3] += items
            self.spans.extend(tuple(s) for s in dump["spans"])

    def wrap(self, fn, name, hot=False, items=None, cell=False):
        """Return a function that records each call of `fn` as a span.
        `name` is a string or a callable mapping the parent span's name to
        this span's name; `items(args, result)` counts work units."""
        stack = self.stack
        namer = name if callable(name) else (lambda _parent: name)
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if cell:
                self.begin_cell()
            parent = stack[-1][0] if stack else None
            span = namer(parent)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = self.stats.get(span)
                if st is None:
                    st = self.stats[span] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if not hot:
                    self.spans.append((span, parent, t0, t1))
            if items is not None:
                st[3] += items(args, result)
            if cell:
                self.end_cell()
            return result

        return wrapper


def _eval_name(parent):
    return "engine.center_eval" if parent == TDES else "engine.final_eval"


def _rollout_name(parent):
    return "engine.candidate_rollouts" if parent == TDES else "policy.rollout"


def _rollout_steps(_args, traj):
    return traj.length


def _bytes_written(args, _result):
    return os.path.getsize(args[0])


def targets(trace: bool) -> list[tuple]:
    """(owner, attribute, span name, options) for every wrapped function.
    Untraced runs wrap only the sweep and its cells, for wall and cell time."""
    from refine_es import (cli, engine, envs, noise, pipeline,
                           policy, ppo, rng, stats, svgplot)
    out = [(cli, "sweep", SWEEP, {}),
           (pipeline, "run_method", CELL, {"cell": True})]
    if not trace:
        return out
    hot = {"hot": True}
    save = {"items": _bytes_written}
    out += [
        (engine, "tdes_run", TDES, {}),
        (engine, "evaluate_center", _eval_name, {}),
        (engine, "rollout", _rollout_name,
         {"hot": True, "items": _rollout_steps}),
        (engine, "make_batch", "noise.make_batch", {}),
        (engine, "centered_ranks", "estimator.centered_ranks", {}),
        (engine, "tdes_gradient", "estimator.tdes_gradient", {}),
        (policy, "mlp_forward", "policy.mlp_forward", hot),
        (ppo, "mlp_forward", "policy.mlp_forward", hot),
        (envs.ToyEnv, "step", "envs.step", hot),
        (ppo, "collect_rollouts", "ppo.collect_rollouts", {}),
        (ppo, "ppo_update", "ppo.ppo_update", {}),
        (ppo, "loss_and_grads", "ppo.loss_and_grads", hot),
        (pipeline, "save_json_atomic", "checkpoint.save_json_atomic", save),
        (cli, "save_json_atomic", "checkpoint.save_json_atomic", save),
        (rng, "make_stream", "rng.make_stream", hot),
        (engine, "make_stream", "rng.make_stream", hot),
        (ppo, "make_stream", "rng.make_stream", hot),
        (noise, "make_stream", "rng.make_stream", hot),
        (stats, "aggregate_report", "stats.aggregate_report", {}),
        (svgplot, "write_line_svg", "svgplot.write_line_svg", {}),
    ]
    return out


def install(recorder: Recorder, trace: bool) -> list[tuple]:
    """Replace each target with a recording wrapper. Returns what `remove`
    needs to put the originals back."""
    installed = []
    for owner, attr, name, opts in targets(trace):
        original = owner.__dict__[attr]
        setattr(owner, attr, recorder.wrap(original, name, **opts))
        installed.append((owner, attr, original))
    return installed


def remove(installed: list[tuple]) -> None:
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("policy.mlp_forward.calls", "count", "lower"),
    ("policy.mlp_forward.us_per_call", "us", "lower"),
    ("policy.rollout.us_per_step", "us", "lower"),
    ("envs.step.calls", "count", "lower"),
    ("envs.step.us_per_call", "us", "lower"),
    ("envs.step.budget_frac", "ratio", "higher"),
    ("engine.candidate_rollouts.s", "s", "lower"),
    ("engine.candidate_rollouts.self_s", "s", "lower"),
    ("engine.candidate_rollouts.episodes", "count", "lower"),
    ("engine.tdes_run.s", "s", "lower"),
    ("engine.tdes_run.self_s", "s", "lower"),
    ("engine.center_eval.s", "s", "lower"),
    ("engine.final_eval.s", "s", "lower"),
    ("noise.make_batch.s", "s", "lower"),
    ("estimator.centered_ranks.s", "s", "lower"),
    ("estimator.tdes_gradient.s", "s", "lower"),
    ("rng.make_stream.calls", "count", "lower"),
    ("ppo.collect_rollouts.s", "s", "lower"),
    ("ppo.collect_rollouts.self_s", "s", "lower"),
    ("ppo.collect_rollouts.calls", "count", "lower"),
    ("ppo.ppo_update.s", "s", "lower"),
    ("ppo.ppo_update.self_s", "s", "lower"),
    ("ppo.ppo_update.calls", "count", "lower"),
    ("ppo.loss_and_grads.calls", "count", "lower"),
    ("ppo.loss_and_grads.us_per_call", "us", "lower"),
    ("checkpoint.save_json_atomic.calls", "count", "lower"),
    ("checkpoint.save_json_atomic.s", "s", "lower"),
    ("checkpoint.save_json_atomic.bytes_written", "bytes", "lower"),
    ("pipeline.run_method.s", "s", "lower"),
    ("pipeline.run_method.self_s", "s", "lower"),
    ("pipeline.sweep.busy_frac", "ratio", "higher"),
    ("stats.aggregate_report.s", "s", "lower"),
    ("svgplot.write_line_svg.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(stats: dict, wall_s: float, workers: int,
                  budget_steps: int, overhead_s: float) -> dict:
    """Per-layer values of one traced sweep (plus its report) from the
    merged span statistics."""
    def get(name, field):
        calls, total, self_s, items = stats.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "s": total, "self_s": self_s,
                "items": items}[field]

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "s") / calls if calls else 0.0

    rollouts = ("engine.candidate_rollouts", "policy.rollout")
    rollout_steps = sum(get(n, "items") for n in rollouts)
    rollout_s = sum(get(n, "s") for n in rollouts)
    env_steps = get("envs.step", "calls")
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        layer, field = name.rsplit(".", 1)
        if field == "us_per_call":
            out[name] = per_call_us(layer)
        elif field in ("calls", "s", "self_s"):
            out[name] = get(layer, field)
        elif field == "episodes":
            out[name] = get(layer, "calls")
        elif field == "bytes_written":
            out[name] = get(layer, "items")
    out["policy.rollout.us_per_step"] = (
        1e6 * rollout_s / rollout_steps if rollout_steps else 0.0)
    out["envs.step.budget_frac"] = (
        budget_steps / env_steps if env_steps else 0.0)
    out["pipeline.sweep.busy_frac"] = get(CELL, "s") / (workers * wall_s)
    out["trace.overhead_s"] = overhead_s
    return out
