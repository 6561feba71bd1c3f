"""Two-stage scheduler and sweep runner.

A plan fixes one task, a list of methods, a shared interaction budget, a
PPO/ES split, and a seed list. Every method in a plan gets exactly the same
step budget; two-stage methods spend split*budget on the PPO anchor and hand
the remainder to the ES stage, whose generation count is derived from the
remaining steps (2m rollouts of `horizon` steps per generation) with a hard
step cap as a guard.

Stage-1 streams depend only on (seed, update, ...), never on the method or
the budget, so within one seed every PPO run is a prefix of the ppo_only run
and passes through the fork, the update where the two-stage methods stop PPO
(the last one that fits split*budget, or the handoff rule). ppo_only ignores
the handoff rule and spends its whole budget on PPO. The sweep therefore
trains PPO once per seed: the pool runs seeds, and a seed runs its cells in
plan order. A cell makes one PPO run and, if two-stage, one ES run. The fork
is an event of the PPO run: when an update ends the two-stage run
(`_at_fork`), the cell first writes into each sibling with neither a
checkpoint nor a record the checkpoint that the sibling's own run would
write there, then its own. Siblings resume from those; a run resumed past
the fork plants nothing, and if the first cell fails before the fork, the
next one trains PPO itself. Every sweep checks the equal-budget premise: a
cell that overspends, or leaves more than one unit of its last stage (PPO
update or ES generation) unspent, fails.

Results layout: <out>/runs/<task>/<method>/<seed>/{checkpoints/, log.csv,
record.json}. Cells checkpoint after every PPO update / ES generation into
one atomic `checkpoints/checkpoint.npz` (see checkpoint.py) and resume
bit-exactly from it, the PPO->ES handoff included. On resume the checkpoint
must match the cell: format version, stage, master seed, the handoff rule,
and the PPO and ES configs recomputed from the plan; any mismatch is refused with a
`CheckpointError` naming the file and the field. A finished cell keeps its
results (`checkpoints/final.json`, log.csv, record.json), not its resume
state: once record.json is durable, the checkpoint is deleted. A cell that
raises keeps it, so `resume` continues the cell.

A pool worker runs numpy's OpenBLAS on cpus // workers threads (at least
one), so that the workers do not contend for the CPUs; the serial path keeps
OpenBLAS's own count.
"""

from __future__ import annotations

import csv
import hashlib
import os
import traceback
from dataclasses import dataclass, field, fields as dataclass_fields, replace

import numpy as np

from . import engine, ppo, stats
from .checkpoint import (FORMAT_VERSION, load_checkpoint, load_json,
                         save_checkpoint, save_json_atomic)
from .envs import make_env
from .errors import CheckpointError, ContractError, PlanError
from .policy import MlpArchitecture
from .rng import TAG_FINAL_EVAL, stream_seed

METHODS = ("ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es")
CHECKPOINT_NAME = "checkpoint.npz"
_FINAL_FORMAT_VERSION = 1  # layout of final.json, which is still JSON

_ES_PLAN_KEYS = {"sigma_es", "alpha", "m", "lambda_sigma", "sigma_min",
                 "action_std", "episodes_per_candidate", "standardize_noise",
                 "center_eval_episodes"}
_PPO_PLAN_KEYS = {"learning_rate", "episodes_per_update", "epochs",
                  "minibatch_size", "value_coef", "entropy_coef",
                  "init_log_std", "hidden_dims", "optimizer", "gamma",
                  "gae_lambda", "clip_epsilon"}

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
        object.__setattr__(self, "seeds", tuple(self.seeds))
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
        for s in self.seeds:  # streams fold seeds to 64 bits (rng.py)
            if not 0 <= s < 1 << 64:
                raise PlanError(f"seed {s} is outside [0, 2**64)")
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


_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "float | None": (int, float, type(None)), "dict": dict}


def _fits(value, annotation: str) -> bool:
    """Whether a plan value fits the annotation of its field. A bool is no
    number, and a tuple field takes a list."""
    if annotation.startswith("tuple["):  # "tuple[int, ...]"
        return isinstance(value, (list, tuple)) and all(
            _fits(v, annotation[6:-6]) for v in value)
    return isinstance(value, _KINDS[annotation]) and \
        isinstance(value, bool) == (annotation == "bool")


def _check_keys(values: dict, cls, allowed=None, prefix: str = "") -> None:
    """Reject, by name, a key that is not `allowed` (default: every field of
    the dataclass `cls`) or whose value does not fit the type of its field."""
    types = {f.name: f.type for f in dataclass_fields(cls)}
    for key, value in values.items():
        if key not in (allowed or types):
            raise PlanError(f"unknown plan key: {prefix}{key!r}")
        if not _fits(value, types[key]):
            raise PlanError(f"plan key '{prefix}{key}' must be of type "
                            f"{types[key]}, not {value!r}")


def plan_from_dict(raw: dict) -> ExperimentPlan:
    """Validate a plan document; unknown keys and values of the wrong type
    are rejected by name."""
    if not isinstance(raw, dict):
        raise PlanError("plan must be a JSON object")
    _check_keys(raw, ExperimentPlan)
    _check_keys(raw.get("es", {}), engine.EsConfig, _ES_PLAN_KEYS, "es.")
    _check_keys(raw.get("ppo", {}), ppo.PpoConfig, _PPO_PLAN_KEYS, "ppo.")
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
    except ContractError as exc:
        raise PlanError(f"invalid plan section 'ppo': {exc}") from exc
    try:
        engine.EsConfig(generations=0, **{**_ES_DEFAULTS, **plan.es})
    except ContractError as exc:
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


def _params_sha256(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def _ppo_config(plan: ExperimentPlan, seed: int, budget: int, env) -> ppo.PpoConfig:
    kwargs = {"gamma": env.gamma, "optimizer": "adam", "learning_rate": 3e-3}
    kwargs.update(plan.ppo)
    if "hidden_dims" in kwargs:
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    return ppo.PpoConfig(total_steps=budget, seed=seed, **kwargs)


def _ppo_stage(plan: ExperimentPlan, seed: int, env, two_stage: bool):
    """(config, checked fields) of a cell's PPO stage. A two-stage cell stops
    PPO at the fork: after the last update that fits split * budget, or
    earlier where the plan's handoff rule fires. ppo_only trains to the full
    budget and ignores the rule, so its recorded rule has no threshold. The
    fields are what a checkpoint of the cell stores, and a resume checks,
    besides its state."""
    budget = plan.total_step_budget
    if two_stage:
        budget = int(round(plan.split * budget))
    config = _ppo_config(plan, seed, budget, env)
    threshold = plan.handoff_success_threshold if two_stage else None
    return config, {"ppo_config": config.to_dict(),
                    "handoff": {"success_threshold": threshold,
                                "window": plan.handoff_window},
                    "master_seed": seed}


def _stop_condition(handoff: dict):
    """The handoff rule as a `ppo.train_anchor` stop condition, or None."""
    if handoff["success_threshold"] is None:
        return None

    def stop(curve):
        w = handoff["window"]
        if len(curve) < w:
            return False
        recent = [c["success_rate"] for c in curve[-w:]]
        return float(np.mean(recent)) >= handoff["success_threshold"]
    return stop


def _at_fork(curve: list, fork_cfg: ppo.PpoConfig, stop, horizon: int) -> bool:
    """Whether the two-stage PPO run, a prefix of every PPO run of the seed,
    ends exactly after `curve`: the loop condition of `ppo.train_anchor`
    stops it there, and at no shorter prefix."""
    update_cost = fork_cfg.episodes_per_update * horizon

    def ends(k):
        steps = curve[k - 1]["steps_used"] if k else 0
        return steps + update_cost > fork_cfg.total_steps or \
            (stop is not None and stop(curve[:k]))
    return ends(len(curve)) and not any(map(ends, range(len(curve))))


def _es_config(plan: ExperimentPlan, seed: int, method: str, remaining: int,
               env) -> engine.EsConfig:
    kwargs = dict(_ES_DEFAULTS)
    kwargs.update(plan.es)
    distribution = "triangular" if method == "ppo_then_tdes" else "gaussian"
    config = engine.EsConfig(generations=0, step_cap=remaining,
                             distribution=distribution, seed=seed, **kwargs)
    generations = max(remaining // config.generation_steps(env.horizon), 0)
    return replace(config, generations=generations)


def _ppo_payload(update, ac, optimizer, steps, curve, fields: dict) -> dict:
    return {"stage": "ppo", "update_index": update,
            "actor_critic": ac.to_dict(), "optimizer": optimizer.to_dict(),
            "steps_used": steps, "curve": curve, **fields}


def _es_start(plan: ExperimentPlan, seed: int, method: str, env, arch,
              params, ppo_steps, ppo_curve) -> dict:
    """The generation -1 checkpoint of a two-stage cell whose PPO stage
    ended with actor `params`: its ES stage before the first generation,
    with the PPO stage it refines."""
    es_cfg = _es_config(plan, seed, method, plan.total_step_budget - ppo_steps,
                        env)
    return {"stage": "es", "generation_index": -1, "params": params,
            "steps_used": 0, "records": [], "es_config": es_cfg.to_dict(),
            **_ppo_stage(plan, seed, env, True)[1],
            "architecture": arch.to_dict(), "anchor_params": params,
            "anchor_sha256": _params_sha256(params), "ppo_steps": ppo_steps,
            "ppo_curve": ppo_curve}


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


def _check_fields(path: str, name: str, stored: dict, expected: dict) -> None:
    for key in sorted(set(stored) | set(expected)):
        if stored.get(key) != expected.get(key):
            raise CheckpointError(
                f"{path}: field '{name}.{key}' is {stored.get(key)!r} but the "
                f"plan gives {expected.get(key)!r}; refusing to resume a "
                f"different configuration")


def _load_state(path: str, fields: dict) -> dict:
    """The checkpoint at `path`, after the checks that need no ES config."""
    state = load_checkpoint(path)
    if state.get("stage") not in ("ppo", "es"):
        raise CheckpointError(f"{path}: field 'stage' is "
                              f"{state.get('stage')!r}, expected 'ppo' or 'es'")
    if state.get("master_seed") != fields["master_seed"]:
        raise CheckpointError(f"{path}: field 'master_seed' is "
                              f"{state.get('master_seed')!r}, this cell is "
                              f"seed {fields['master_seed']}")
    _check_fields(path, "ppo_config", state["ppo_config"], fields["ppo_config"])
    _check_fields(path, "handoff", state["handoff"], fields["handoff"])
    if state["stage"] == "es" and \
            _params_sha256(state["anchor_params"]) != state["anchor_sha256"]:
        raise CheckpointError(f"{path}: field 'anchor_params' does not hash "
                              f"to the stored 'anchor_sha256'")
    return state


def _fork(plan: ExperimentPlan, method: str, seed: int, out_dir: str, env,
          update, ac, optimizer, steps, curve) -> None:
    """Start the other cells of this seed from the PPO state at the fork,
    after update `update`. Each sibling with neither a checkpoint nor a
    record gets the checkpoint that its own run writes at this point: a
    two-stage method its generation -1 ES checkpoint, ppo_only its PPO
    checkpoint of this update. The sibling then resumes from it like from
    any checkpoint."""
    for sibling in plan.methods:
        cdir = cell_dir(out_dir, plan.task, sibling, seed)
        path = os.path.join(cdir, "checkpoints", CHECKPOINT_NAME)
        if sibling == method or os.path.exists(path) or \
                os.path.exists(os.path.join(cdir, "record.json")):
            continue
        if sibling == "ppo_only":
            payload = _ppo_payload(update, ac, optimizer, steps, curve,
                                   _ppo_stage(plan, seed, env, False)[1])
        else:
            payload = _es_start(plan, seed, sibling, env, ac.actor_arch,
                                ac.actor_params, steps, curve)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_checkpoint(path, payload)


def _drop_resume_state(cdir: str) -> None:
    """Delete the checkpoint and any stale `.tmp` of a cell whose record.json
    exists: nothing reads them once the record is there. The cell directory
    is fsynced first, so that a crash never leaves the cell with neither a
    durable record nor a checkpoint."""
    path = os.path.join(cdir, "checkpoints", CHECKPOINT_NAME)
    stale = [p for p in (path, path + ".tmp") if os.path.exists(p)]
    if stale:
        fd = os.open(cdir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        for p in stale:
            os.unlink(p)


def run_method(plan: ExperimentPlan, method: str, seed: int,
               out_dir: str) -> RunRecord:
    """Execute (or resume) one sweep cell and write its artifacts: one PPO
    run, then, for a two-stage method, one ES run. If the PPO run reaches
    the fork, it starts this seed's other cells there (`_fork`)."""
    cdir = cell_dir(out_dir, plan.task, method, seed)
    ckpt_dir = os.path.join(cdir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    record_path = os.path.join(cdir, "record.json")
    if os.path.exists(record_path):
        _drop_resume_state(cdir)  # left by a crash or an older version
        return RunRecord(**load_json(record_path))
    legacy = os.path.join(ckpt_dir, "checkpoint.json")
    if os.path.exists(legacy):
        raise CheckpointError(
            f"{legacy}: field 'format_version' is 1 (a JSON checkpoint); this "
            f"version resumes only format_version {FORMAT_VERSION} "
            f"({CHECKPOINT_NAME})")

    env_factory = lambda: make_env(plan.task)
    env = env_factory()
    budget = plan.total_step_budget
    two_stage = method != "ppo_only"
    ppo_cfg, fields = _ppo_stage(plan, seed, env, two_stage)
    fork_cfg, fork_fields = _ppo_stage(plan, seed, env, True)
    fork_stop = _stop_condition(fork_fields["handoff"])
    ckpt_path = os.path.join(ckpt_dir, CHECKPOINT_NAME)
    state = (_load_state(ckpt_path, fields)
             if os.path.exists(ckpt_path) else {})

    def ppo_ckpt(*args):  # (update, ac, optimizer, steps, curve)
        # plant the siblings before this cell's own checkpoint: a run
        # resumed past the fork never reaches it again
        if _at_fork(args[-1], fork_cfg, fork_stop, env.horizon):
            _fork(plan, method, seed, out_dir, env, *args)
        save_checkpoint(ckpt_path, _ppo_payload(*args, fields))

    if state.get("stage") == "es":
        # the PPO stage is complete; the checkpoint carries the anchor
        arch = MlpArchitecture.from_dict(state["architecture"])
        anchor_params = state["anchor_params"]
        ppo_steps = state["ppo_steps"]
        ppo_curve = state["ppo_curve"]
    else:
        resume = {} if not state else {
            "start_update": state["update_index"] + 1,
            "initial": ppo.ActorCritic.from_dict(state["actor_critic"]),
            "initial_steps": state["steps_used"], "curve": state["curve"],
            "optimizer_state": state["optimizer"]}
        res = ppo.train_anchor(env_factory, ppo_cfg, checkpoint_cb=ppo_ckpt,
                               stop_condition=_stop_condition(fields["handoff"]),
                               **resume)
        arch = res.actor_critic.actor_arch
        anchor_params = res.actor_critic.actor_params
        ppo_steps = res.steps_used
        ppo_curve = res.curve

    final_params = anchor_params
    es_records: list[dict] = []
    es_steps = 0
    if two_stage:
        if state.get("stage") != "es":
            state = _es_start(plan, seed, method, env, arch, anchor_params,
                              ppo_steps, ppo_curve)
            save_checkpoint(ckpt_path, state)
        es_cfg = _es_config(plan, seed, method, budget - ppo_steps, env)
        _check_fields(ckpt_path, "es_config", state["es_config"],
                      es_cfg.to_dict())

        def es_ckpt(gen, theta, steps, records):
            save_checkpoint(ckpt_path, {
                **state, "generation_index": gen, "params": theta,
                "steps_used": steps, "records": [r.to_dict() for r in records]})

        result = engine.tdes_run(
            state["params"], arch, env_factory, es_cfg,
            start_generation=state["generation_index"] + 1,
            initial_steps=state["steps_used"],
            records=[engine.GenerationRecord(**r) for r in state["records"]],
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
        ppo_steps=ppo_steps, es_steps=es_steps,
        anchor_sha256=_params_sha256(anchor_params),
        ppo_curve=ppo_curve, es_records=es_records)
    save_json_atomic(os.path.join(ckpt_dir, "final.json"), {
        "format_version": _FINAL_FORMAT_VERSION, "stage": "final",
        "architecture": arch.to_dict(), "params": final_params.tolist(),
        "master_seed": seed})
    _write_log_csv(os.path.join(cdir, "log.csv"), es_records)
    save_json_atomic(record_path, record.to_dict())
    _drop_resume_state(cdir)
    return record


def _budget_shortfall(plan: ExperimentPlan, record: RunRecord) -> str | None:
    """How `record` breaks the equal-budget premise, or None. A cell may
    not overspend the budget, and may leave at most one unit of its last
    stage unspent: a PPO update for ppo_only, an ES generation otherwise."""
    unspent = record.budget - record.steps_consumed
    where = (f"{record.method} seed {record.seed} consumed "
             f"{record.steps_consumed} of {record.budget} steps")
    if unspent < 0:
        return f"{where}: {-unspent} over budget"
    env = make_env(plan.task)
    if record.method == "ppo_only":
        unit = _ppo_config(plan, record.seed, record.budget,
                           env).episodes_per_update * env.horizon
        name = "PPO update"
    else:
        unit = _es_config(plan, record.seed, record.method, 0,
                          env).generation_steps(env.horizon)
        name = "ES generation"
    if unspent > unit:
        return (f"{where}: {unspent} unspent, more than one {name} "
                f"({unit} steps)")
    return None


def _run_cell(plan: ExperimentPlan, method: str, seed: int,
              out_dir: str) -> dict:
    """One cell's record; a cell that raises or breaks the equal-budget
    premise gives a failed record, so it never aborts the rest."""
    try:
        record = run_method(plan, method, seed, out_dir)
        shortfall = _budget_shortfall(plan, record)
        if shortfall is not None:
            # on disk too, so that `report` and `resume` see the failure
            record.failed, record.failure = True, shortfall
            save_json_atomic(os.path.join(cell_dir(
                out_dir, plan.task, method, seed), "record.json"),
                record.to_dict())
        return record.to_dict()
    except KeyboardInterrupt:
        raise
    except Exception:
        return RunRecord(
            task=plan.task, method=method, seed=seed, final_success_rate=0.0,
            final_mean_return=0.0, steps_consumed=0, budget=plan.total_step_budget,
            ppo_steps=0, es_steps=0, anchor_sha256="", ppo_curve=[],
            es_records=[], failed=True, failure=traceback.format_exc()).to_dict()


def _run_seed(args) -> list[dict]:
    """The cells of one seed in plan order: the first whose PPO run reaches
    the fork starts the others from there."""
    plan_dict, seed, out_dir = args
    plan = ExperimentPlan(**plan_dict)
    return [_run_cell(plan, method, seed, out_dir) for method in plan.methods]


def _set_blas_threads(count: int) -> None:
    """Pool initializer: run numpy's OpenBLAS on `count` threads. OpenBLAS
    starts one thread per CPU in every process, so the workers of a pool
    would otherwise contend for the CPUs. Does nothing for another BLAS."""
    import ctypes  # only pool workers need it

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath
    # looking a symbol up in numpy's extension also searches the BLAS it
    # links: numpy.libs/libscipy_openblas* in a wheel, libopenblas otherwise
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        if hasattr(lib, name):
            set_threads = getattr(lib, name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(count)
            return


def success_matrices(records: list[dict]) -> dict:
    """method -> {task -> {seed: final success rate}} over the records that
    did not fail: the input of `stats.aggregate_report`."""
    matrices: dict = {}
    for r in records:
        if not r.get("failed"):
            matrices.setdefault(r["method"], {}).setdefault(
                r["task"], {})[r["seed"]] = r["final_success_rate"]
    return matrices


def sweep(plan: ExperimentPlan, out_dir: str, workers: int = 1):
    """Run all (method, seed) cells, one task per seed; one cell's failure
    never aborts the rest. Returns (records, report_dict). Results merge
    deterministically by (method, seed) regardless of scheduling."""
    tasks = [(plan.to_dict(), seed, out_dir) for seed in plan.seeds]
    if workers > 1:
        # imported here, as it costs every other process about 25 ms
        from concurrent.futures import ProcessPoolExecutor
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_set_blas_threads,
                                 initargs=(max(1, cpus // workers),)) as pool:
            raw = [r for cells in pool.map(_run_seed, tasks) for r in cells]
    else:
        raw = [r for task in tasks for r in _run_seed(task)]
    records = sorted((RunRecord(**r) for r in raw),
                     key=lambda r: (r.method, r.seed))
    rows = [r.to_dict() for r in records]
    matrices = success_matrices(rows)
    payload = {
        "plan": plan.to_dict(),
        "report": stats.aggregate_report(matrices) if matrices else {},
        "failures": [{"method": r.method, "seed": r.seed, "failure": r.failure}
                     for r in records if r.failed],
        "records": rows,
    }
    save_json_atomic(os.path.join(out_dir, "report.json"), payload)
    return records, payload
