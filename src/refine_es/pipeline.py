"""Two-stage scheduler and sweep runner.

A plan fixes one task, a list of methods, a shared interaction budget, a
PPO/ES split, and a seed list. Every method in a plan gets exactly the same
step budget; two-stage methods spend split*budget on the PPO anchor and hand
the remainder to the ES stage, whose generation count is derived from the
remaining steps (2m rollouts of `horizon` steps per generation) with a hard
step cap as a guard.

Stage-1 streams depend only on (seed, ppo config), never on the method, so
within one seed every two-stage method refines the identical anchor.

Results layout: <out>/runs/<task>/<method>/<seed>/{checkpoints/, log.csv,
record.json}. Cells checkpoint after every PPO update / ES generation and
resume bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import engine, ppo, stats
from .checkpoint import FORMAT_VERSION, load_json, save_json_atomic
from .envs import make_env
from .errors import ContractError, PlanError
from .policy import MlpArchitecture
from .rng import TAG_FINAL_EVAL, stream_seed

METHODS = ("ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es")

_ES_PLAN_KEYS = {"sigma_es", "alpha", "m", "lambda_sigma", "sigma_min",
                 "action_std", "episodes_per_candidate", "standardize_noise",
                 "center_eval_episodes"}
_PPO_PLAN_KEYS = {"learning_rate", "episodes_per_update", "epochs",
                  "minibatch_size", "value_coef", "entropy_coef",
                  "init_log_std", "hidden_dims", "optimizer", "gamma",
                  "gae_lambda", "clip_epsilon"}
_PLAN_KEYS = {"task", "methods", "total_step_budget", "split", "seeds",
              "eval_episodes", "es", "ppo", "handoff_success_threshold",
              "handoff_window"}

# desk-scale defaults, calibrated on the toy suite (see tests/plans)
_ES_DEFAULTS = {"sigma_es": 0.01, "alpha": 0.001, "m": 8, "lambda_sigma": 0.99,
                "sigma_min": 1e-3, "action_std": 0.01}


@dataclass(frozen=True)
class ExperimentPlan:
    task: str
    methods: tuple[str, ...]
    total_step_budget: int
    split: float = 0.67
    seeds: tuple[int, ...] = tuple(range(9))
    eval_episodes: int = 50
    es: dict = field(default_factory=dict)
    ppo: dict = field(default_factory=dict)
    handoff_success_threshold: float | None = None
    handoff_window: int = 5

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not (0 < self.split <= 1):
            raise PlanError("split must be in (0, 1]")
        if self.total_step_budget < 1:
            raise PlanError("total_step_budget must be >= 1")
        if self.eval_episodes < 1:
            raise PlanError("eval_episodes must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise PlanError(f"unknown method {m!r} (known: {list(METHODS)})")
        if not self.methods or not self.seeds:
            raise PlanError("methods and seeds must be non-empty")
        duplicates = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if duplicates:
            raise PlanError(f"duplicate seeds: {duplicates}")
        if self.handoff_window < 1:
            raise PlanError("handoff_window must be >= 1")

    def to_dict(self) -> dict:
        return {
            "task": self.task, "methods": list(self.methods),
            "total_step_budget": self.total_step_budget, "split": self.split,
            "seeds": list(self.seeds), "eval_episodes": self.eval_episodes,
            "es": dict(self.es), "ppo": dict(self.ppo),
            "handoff_success_threshold": self.handoff_success_threshold,
            "handoff_window": self.handoff_window,
        }


def plan_from_dict(raw: dict) -> ExperimentPlan:
    """Validate a plan document; unknown keys are rejected by name."""
    if not isinstance(raw, dict):
        raise PlanError("plan must be a JSON object")
    for key in raw:
        if key not in _PLAN_KEYS:
            raise PlanError(f"unknown plan key: {key!r}")
    for section, allowed in (("es", _ES_PLAN_KEYS), ("ppo", _PPO_PLAN_KEYS)):
        for key in raw.get(section, {}):
            if key not in allowed:
                raise PlanError(f"unknown plan key: {section}.{key!r}")
    for required in ("task", "methods", "total_step_budget"):
        if required not in raw:
            raise PlanError(f"missing plan key: {required!r}")
    try:
        env = make_env(raw["task"])  # validates the task id
    except ContractError as exc:
        raise PlanError(str(exc)) from exc
    plan = ExperimentPlan(**raw)
    # build each stage's config once, so that a bad value fails at load time
    try:
        _ppo_config(plan, 0, plan.total_step_budget, env)
    except (ContractError, TypeError) as exc:
        raise PlanError(f"invalid plan section 'ppo': {exc}") from exc
    try:
        engine.EsConfig(generations=0, **{**_ES_DEFAULTS, **plan.es})
    except (ContractError, TypeError) as exc:
        raise PlanError(f"invalid plan section 'es': {exc}") from exc
    return plan


@dataclass
class RunRecord:
    task: str
    method: str
    seed: int
    final_success_rate: float
    final_mean_return: float
    steps_consumed: int
    budget: int
    ppo_steps: int
    es_steps: int
    anchor_sha256: str
    ppo_curve: list
    es_records: list
    failed: bool = False
    failure: str | None = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(**d)


def _params_sha256(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def _ppo_config(plan: ExperimentPlan, seed: int, budget: int, env) -> ppo.PpoConfig:
    kwargs = {"gamma": env.gamma, "optimizer": "adam", "learning_rate": 3e-3}
    kwargs.update(plan.ppo)
    if "hidden_dims" in kwargs:
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    return ppo.PpoConfig(total_steps=budget, seed=seed, **kwargs)


def _es_config(plan: ExperimentPlan, seed: int, method: str, remaining: int,
               env) -> engine.EsConfig:
    kwargs = dict(_ES_DEFAULTS)
    kwargs.update(plan.es)
    per_gen = 2 * kwargs["m"] * kwargs.get("episodes_per_candidate", 1) * env.horizon
    generations = max(remaining // per_gen, 0)
    distribution = "triangular" if method == "ppo_then_tdes" else "gaussian"
    return engine.EsConfig(generations=generations, step_cap=remaining,
                           distribution=distribution, seed=seed, **kwargs)


def cell_dir(out_dir: str, task: str, method: str, seed: int) -> str:
    return os.path.join(out_dir, "runs", task, method, str(seed))


def _write_log_csv(path: str, es_records: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# refine-es generation log, format 1\n")
        writer = csv.writer(fh)
        writer.writerow(["generation", "g_norm", "mean_return", "best_return",
                         "sigma_es", "center_return", "steps_used"])
        for r in es_records:
            writer.writerow([r["generation"], r["g_norm"], r["mean_return"],
                             r["best_return"], r["sigma_es"],
                             r["center_return"], r["steps_used"]])


def run_method(plan: ExperimentPlan, method: str, seed: int,
               out_dir: str) -> RunRecord:
    """Execute (or resume) one sweep cell and write its artifacts."""
    cdir = cell_dir(out_dir, plan.task, method, seed)
    ckpt_dir = os.path.join(cdir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    record_path = os.path.join(cdir, "record.json")
    if os.path.exists(record_path):
        return RunRecord.from_dict(load_json(record_path))
    ckpt_path = os.path.join(ckpt_dir, "checkpoint.json")
    state = load_json(ckpt_path) if os.path.exists(ckpt_path) else None

    env_factory = lambda: make_env(plan.task)
    env = env_factory()
    budget = plan.total_step_budget
    two_stage = method != "ppo_only"
    ppo_budget = int(round(plan.split * budget)) if two_stage else budget
    ppo_cfg = _ppo_config(plan, seed, ppo_budget, env)

    def ppo_ckpt(update, ac, optimizer, steps, curve):
        save_json_atomic(ckpt_path, {
            "format_version": FORMAT_VERSION, "stage": "ppo",
            "update_index": update, "actor_critic": ac.to_dict(),
            "optimizer": optimizer.to_dict(), "steps_used": steps,
            "curve": curve, "config": ppo_cfg.to_dict(), "master_seed": seed})

    stop_condition = None
    if plan.handoff_success_threshold is not None:
        def stop_condition(curve):
            w = plan.handoff_window
            if len(curve) < w:
                return False
            recent = [c["success_rate"] for c in curve[-w:]]
            return float(np.mean(recent)) >= plan.handoff_success_threshold

    if state is not None and state["stage"] == "ppo":
        anchor_res = _train_anchor_resumable(
            env_factory, ppo_cfg, ppo_ckpt, stop_condition,
            start_update=state["update_index"] + 1,
            initial=ppo.ActorCritic.from_dict(state["actor_critic"]),
            initial_steps=state["steps_used"], curve=state["curve"],
            optimizer_state=state["optimizer"])
    elif state is not None and state["stage"] == "es":
        anchor_res = None  # PPO stage already complete; state carries what we need
    else:
        anchor_res = _train_anchor_resumable(env_factory, ppo_cfg, ppo_ckpt,
                                             stop_condition)

    if anchor_res is not None:
        ac = anchor_res.actor_critic
        ppo_steps = anchor_res.steps_used
        ppo_curve = anchor_res.curve
        anchor_params = ac.actor_params
        arch = ac.actor_arch
        anchor_hash = _params_sha256(anchor_params)
    else:
        arch = MlpArchitecture.from_dict(state["architecture"])
        anchor_params = np.array(state["anchor_params"], dtype=float)
        ppo_steps = state["ppo_steps"]
        ppo_curve = state["ppo_curve"]
        anchor_hash = state["anchor_sha256"]

    final_params = anchor_params
    es_records: list[dict] = []
    es_steps = 0
    if two_stage:
        remaining = budget - ppo_steps
        es_cfg = _es_config(plan, seed, method, remaining, env)

        def es_ckpt(gen, theta, steps, records):
            save_json_atomic(ckpt_path, {
                "format_version": FORMAT_VERSION, "stage": "es",
                "generation_index": gen, "params": theta.tolist(),
                "steps_used": steps,
                "records": [r.to_dict() for r in records],
                "config": es_cfg.to_dict(), "master_seed": seed,
                "architecture": arch.to_dict(),
                "anchor_params": anchor_params.tolist(),
                "anchor_sha256": anchor_hash,
                "ppo_steps": ppo_steps, "ppo_curve": ppo_curve})

        if state is not None and state["stage"] == "es":
            result = engine.tdes_run(
                np.array(state["params"], dtype=float), arch, env_factory,
                es_cfg, start_generation=state["generation_index"] + 1,
                initial_steps=state["steps_used"],
                records=[engine.GenerationRecord.from_dict(r)
                         for r in state["records"]],
                checkpoint_cb=es_ckpt)
        else:
            es_ckpt(-1, anchor_params, 0, [])
            result = engine.tdes_run(anchor_params, arch, env_factory, es_cfg,
                                     checkpoint_cb=es_ckpt)
        final_params = result.params
        es_records = [r.to_dict() for r in result.records]
        es_steps = result.steps_used

    mean_ret, success = engine.evaluate_center(
        final_params, arch, env_factory, plan.eval_episodes,
        stream_seed(seed, TAG_FINAL_EVAL))
    record = RunRecord(
        task=plan.task, method=method, seed=seed,
        final_success_rate=success, final_mean_return=mean_ret,
        steps_consumed=ppo_steps + es_steps, budget=budget,
        ppo_steps=ppo_steps, es_steps=es_steps, anchor_sha256=anchor_hash,
        ppo_curve=ppo_curve, es_records=es_records)
    save_json_atomic(os.path.join(ckpt_dir, "final.json"), {
        "format_version": FORMAT_VERSION, "stage": "final",
        "architecture": arch.to_dict(), "params": final_params.tolist(),
        "master_seed": seed})
    _write_log_csv(os.path.join(cdir, "log.csv"), es_records)
    save_json_atomic(record_path, record.to_dict())
    return record


def _train_anchor_resumable(env_factory, config, checkpoint_cb, stop_condition,
                            **kwargs):
    if stop_condition is None:
        return ppo.train_anchor(env_factory, config, checkpoint_cb=checkpoint_cb,
                                **kwargs)

    # wrap the callback to raise a private signal once the handoff rule fires
    class _Handoff(Exception):
        pass

    captured = {}

    def cb(update, ac, optimizer, steps, curve):
        checkpoint_cb(update, ac, optimizer, steps, curve)
        if stop_condition(curve):
            captured.update(ac=ac.copy(), steps=steps, curve=list(curve))
            raise _Handoff()

    try:
        return ppo.train_anchor(env_factory, config, checkpoint_cb=cb, **kwargs)
    except _Handoff:
        return ppo.AnchorResult(captured["ac"], captured["curve"],
                                captured["steps"])


def _run_cell(args):
    plan_dict, method, seed, out_dir = args
    plan = ExperimentPlan(**plan_dict)
    try:
        return run_method(plan, method, seed, out_dir).to_dict()
    except KeyboardInterrupt:
        raise
    except Exception:
        return RunRecord(
            task=plan.task, method=method, seed=seed, final_success_rate=0.0,
            final_mean_return=0.0, steps_consumed=0, budget=plan.total_step_budget,
            ppo_steps=0, es_steps=0, anchor_sha256="", ppo_curve=[],
            es_records=[], failed=True, failure=traceback.format_exc()).to_dict()


def sweep(plan: ExperimentPlan, out_dir: str, workers: int = 1):
    """Run all (method, seed) cells; one cell's failure never aborts the rest.
    Returns (records, report_dict). Results merge deterministically by
    (method, seed) regardless of scheduling."""
    cells = [(plan.to_dict(), method, seed, out_dir)
             for method in plan.methods for seed in plan.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_cell, cells))
    else:
        raw = [_run_cell(c) for c in cells]
    records = sorted((RunRecord.from_dict(r) for r in raw),
                     key=lambda r: (r.method, r.seed))

    matrices = {}
    for method in plan.methods:
        ok = [r for r in records if r.method == method and not r.failed]
        if ok:
            matrices[method] = {plan.task: [r.final_success_rate for r in ok]}
    report = stats.aggregate_report(matrices) if matrices else {}
    failures = [{"method": r.method, "seed": r.seed, "failure": r.failure}
                for r in records if r.failed]
    payload = {
        "plan": plan.to_dict(),
        "report": report,
        "failures": failures,
        "records": [r.to_dict() for r in records],
    }
    save_json_atomic(os.path.join(out_dir, "report.json"), payload)
    return records, payload
