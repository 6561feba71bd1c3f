"""Two-stage scheduler and sweep runner.

The plan (plan.py) fixes the cells, one per (method, seed), and their equal
step budget. Each cell is worked out once, as a `_Cell`: its paths, its one
env (every PPO update, ES generation and evaluation of the cell runs on it),
its PPO config and stop rule, the fields its checkpoints store, the ES
config for a remaining budget, and the fork test.

Stage-1 streams depend only on (seed, update, ...), never on the method or
the budget, so within one seed every PPO run is a prefix of the ppo_only run
and passes through the fork, the update where the two-stage methods stop PPO
(the last one that fits split*budget, or the handoff rule). ppo_only ignores
the handoff rule and spends its whole budget on PPO. The sweep therefore
trains PPO once per seed: the pool runs seeds, and a seed runs its cells in
plan order. A cell makes one PPO run and, if two-stage, one ES run. The fork
is an event of the PPO run: when an update ends the two-stage run
(`_Cell.at_fork`), the cell first writes into each sibling with neither a
checkpoint nor a record the PPO checkpoint that the sibling's own run writes
after that update (its config, its handoff rule, Adam moments included),
then its own. A sibling resumes from it, and its PPO run stops at once.
A run resumed past the fork plants nothing, and if the first cell fails
before the fork, the next one trains PPO itself. Every sweep checks the
equal-budget premise: a cell that overspends, or leaves more than one unit
of its last stage (PPO update or ES generation) unspent, fails.

Results layout: a sweep writes <out>/plan.json before its first cell and
<out>/report.json after its last, and each cell writes
<out>/runs/<task>/<method>/<seed>/{checkpoints/, log.csv, record.json}.
Cells checkpoint after every PPO update / ES generation into one atomic
`checkpoints/checkpoint.npz` (see checkpoint.py) and resume bit-exactly
from it, the PPO->ES handoff included. A fresh ES stage starts from its
state before the first generation, built in memory; a cut before its first
generation resumes from the last PPO checkpoint. The ES checkpoint of
generation -1 that older versions wrote there, and planted at the fork,
resumes like any other. On resume the checkpoint must match the cell:
format version, stage, master seed, the handoff rule, and the PPO and ES
configs recomputed from the plan; any mismatch is refused with a
`CheckpointError` naming the file and the field.
A finished cell keeps its results (`checkpoints/final.json`, log.csv,
record.json), not its resume state: once record.json is durable, the
checkpoint is deleted. A cell that raises keeps it, so `resume` continues
the cell.

A sweep runs numpy's OpenBLAS on one thread, in its own process and in
every pool worker, so that no BLAS thread spins waiting for a CPU that a
cell wants; the caller's thread count is restored when the sweep returns.
"""

from __future__ import annotations

import csv
import hashlib
import os
import traceback
from dataclasses import dataclass

import numpy as np

from . import engine, ppo, stats
from .checkpoint import (FORMAT_VERSION, load_checkpoint, load_json,
                         save_checkpoint, save_json_atomic)
from .envs import make_env
from .errors import CheckpointError
# plan_from_dict is imported for the benchmark, which loads it from here
from .plan import ExperimentPlan, es_config, plan_from_dict, ppo_config
from .policy import MlpArchitecture
from .rng import TAG_FINAL_EVAL, stream_seed

CHECKPOINT_NAME = "checkpoint.npz"
_FINAL_FORMAT_VERSION = 1  # layout of final.json, which is still JSON


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


def cell_dir(out_dir: str, task: str, method: str, seed: int) -> str:
    return os.path.join(out_dir, "runs", task, method, str(seed))


def _stop_condition(threshold: float | None, window: int):
    """The handoff rule as a `ppo.train_anchor` stop condition, or None."""
    if threshold is None:
        return None

    def stop(curve):
        if len(curve) < window:
            return False
        recent = [c["success_rate"] for c in curve[-window:]]
        return float(np.mean(recent)) >= threshold
    return stop


class _Cell:
    """One (method, seed) cell of a plan, worked out once: its paths, its
    env, its PPO config, the fields that its checkpoints store and a resume
    checks besides the state, and its stop rule. A two-stage cell stops PPO
    at the fork: after the last update that fits split * budget, or earlier
    where the plan's handoff rule fires. ppo_only trains to the full budget
    and ignores the rule, so its recorded rule has no threshold."""

    def __init__(self, plan: ExperimentPlan, method: str, seed: int,
                 out_dir: str):
        self.plan, self.method, self.seed = plan, method, seed
        self.out_dir = out_dir
        self.dir = cell_dir(out_dir, plan.task, method, seed)
        self.checkpoint = os.path.join(self.dir, "checkpoints",
                                       CHECKPOINT_NAME)
        self.record = os.path.join(self.dir, "record.json")
        self.env = make_env(plan.task)
        self.two_stage = method != "ppo_only"
        self.fork_stop = _stop_condition(plan.handoff_success_threshold,
                                         plan.handoff_window)
        self.stop = self.fork_stop if self.two_stage else None
        self.ppo_config = ppo_config(plan, self.env, method, seed)
        threshold = plan.handoff_success_threshold if self.two_stage else None
        self.fields = {"ppo_config": self.ppo_config.to_dict(),
                       "handoff": {"success_threshold": threshold,
                                   "window": plan.handoff_window},
                       "master_seed": seed}

    def es_config(self, remaining: int) -> engine.EsConfig:
        """The ES stage's config for `remaining` steps (`plan.es_config`)."""
        return es_config(self.plan, self.env, self.method, self.seed,
                         remaining)

    def at_fork(self, curve: list) -> bool:
        """Whether the two-stage PPO run, a prefix of every PPO run of the
        seed, ends exactly after `curve`: the loop condition of
        `ppo.train_anchor` stops it there, and at no shorter prefix."""
        update_cost = self.ppo_config.episodes_per_update * self.env.horizon

        def ends(k):
            steps = curve[k - 1]["steps_used"] if k else 0
            return steps + update_cost > self.plan.fork_steps or \
                (self.fork_stop is not None and self.fork_stop(curve[:k]))
        return ends(len(curve)) and not any(map(ends, range(len(curve))))

    def ppo_payload(self, update, ac, optimizer, steps, curve) -> dict:
        """The checkpoint of this cell's PPO run after update `update`."""
        return {"stage": "ppo", "update_index": update,
                "actor_critic": ac.to_dict(), "optimizer": optimizer.to_dict(),
                "steps_used": steps, "curve": curve, **self.fields}

    def after_ppo(self, ac, steps: int, curve: list) -> dict:
        """The state of this cell once its PPO run ended with `ac`: the ES
        stage before its first generation (a two-stage cell's ES config
        included), with the PPO stage it refines. Older versions saved it
        as an ES checkpoint of generation -1, which resumes like any other."""
        params = ac.actor_params
        es = {"es_config": self.es_config(
            self.plan.total_step_budget - steps).to_dict()} \
            if self.two_stage else {}
        return {"stage": "es", "generation_index": -1, "params": params,
                "steps_used": 0, "records": [], **es, **self.fields,
                "architecture": ac.actor_arch.to_dict(),
                "anchor_params": params, "anchor_sha256": _params_sha256(params),
                "ppo_steps": steps, "ppo_curve": curve}


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


def _fork(cell: _Cell, *args) -> None:
    """Start the other cells of this seed from the PPO state at the fork,
    after update `args[0]` (args as `_Cell.ppo_payload` takes them). Each
    sibling with neither a checkpoint nor a record gets the PPO checkpoint
    that its own run writes at this update, and resumes from it like from
    any checkpoint."""
    for method in cell.plan.methods:
        sibling = _Cell(cell.plan, method, cell.seed, cell.out_dir)
        if method == cell.method or os.path.exists(sibling.checkpoint) or \
                os.path.exists(sibling.record):
            continue
        os.makedirs(os.path.dirname(sibling.checkpoint), exist_ok=True)
        save_checkpoint(sibling.checkpoint, sibling.ppo_payload(*args))


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
    cell = _Cell(plan, method, seed, out_dir)
    ckpt_dir = os.path.dirname(cell.checkpoint)
    os.makedirs(ckpt_dir, exist_ok=True)
    if os.path.exists(cell.record):
        _drop_resume_state(cell.dir)  # left by a crash or an older version
        return RunRecord(**load_json(cell.record))
    legacy = os.path.join(ckpt_dir, "checkpoint.json")
    if os.path.exists(legacy):
        raise CheckpointError(
            f"{legacy}: field 'format_version' is 1 (a JSON checkpoint); this "
            f"version resumes only format_version {FORMAT_VERSION} "
            f"({CHECKPOINT_NAME})")

    state = (_load_state(cell.checkpoint, cell.fields)
             if os.path.exists(cell.checkpoint) else {})
    if state.get("stage") != "es":
        def ppo_ckpt(*args):  # (update, ac, optimizer, steps, curve)
            # plant the siblings before this cell's own checkpoint: a run
            # resumed past the fork never reaches it again
            if cell.at_fork(args[-1]):
                _fork(cell, *args)
            save_checkpoint(cell.checkpoint, cell.ppo_payload(*args))

        resume = {} if not state else {
            "start_update": state["update_index"] + 1,
            "initial": ppo.ActorCritic.from_dict(state["actor_critic"]),
            "initial_steps": state["steps_used"], "curve": state["curve"],
            "optimizer_state": state["optimizer"]}
        res = ppo.train_anchor(cell.env, cell.ppo_config,
                               checkpoint_cb=ppo_ckpt,
                               stop_condition=cell.stop, **resume)
        state = cell.after_ppo(res.actor_critic, res.steps_used, res.curve)

    arch = MlpArchitecture.from_dict(state["architecture"])
    final_params = state["anchor_params"]
    es_records: list[dict] = []
    es_steps = 0
    if cell.two_stage:
        es_cfg = cell.es_config(plan.total_step_budget - state["ppo_steps"])
        _check_fields(cell.checkpoint, "es_config", state["es_config"],
                      es_cfg.to_dict())

        def es_ckpt(gen, theta, steps, records):
            save_checkpoint(cell.checkpoint, {
                **state, "generation_index": gen, "params": theta,
                "steps_used": steps, "records": [r.to_dict() for r in records]})

        result = engine.tdes_run(
            state["params"], arch, cell.env, es_cfg,
            start_generation=state["generation_index"] + 1,
            initial_steps=state["steps_used"],
            records=[engine.GenerationRecord(**r) for r in state["records"]],
            checkpoint_cb=es_ckpt)
        final_params = result.params
        es_records = [r.to_dict() for r in result.records]
        es_steps = result.steps_used

    mean_ret, success = engine.evaluate_center(
        final_params, arch, cell.env, plan.eval_episodes,
        stream_seed(seed, TAG_FINAL_EVAL))
    record = RunRecord(
        task=plan.task, method=method, seed=seed,
        final_success_rate=success, final_mean_return=mean_ret,
        steps_consumed=state["ppo_steps"] + es_steps,
        budget=plan.total_step_budget, ppo_steps=state["ppo_steps"],
        es_steps=es_steps, anchor_sha256=state["anchor_sha256"],
        ppo_curve=state["ppo_curve"], es_records=es_records)
    save_json_atomic(os.path.join(ckpt_dir, "final.json"), {
        "format_version": _FINAL_FORMAT_VERSION, "stage": "final",
        "architecture": arch.to_dict(), "params": final_params.tolist(),
        "master_seed": seed})
    _write_log_csv(os.path.join(cell.dir, "log.csv"), es_records)
    save_json_atomic(cell.record, record.to_dict())
    _drop_resume_state(cell.dir)
    return record


def _budget_shortfall(cell: _Cell, record: RunRecord) -> str | None:
    """How `record` breaks the equal-budget premise, or None. A cell may
    not overspend the budget, and may leave at most one unit of its last
    stage unspent: a PPO update for ppo_only, an ES generation otherwise."""
    unspent = record.budget - record.steps_consumed
    where = (f"{record.method} seed {record.seed} consumed "
             f"{record.steps_consumed} of {record.budget} steps")
    if unspent < 0:
        return f"{where}: {-unspent} over budget"
    if cell.two_stage:
        unit = cell.es_config(0).generation_steps(cell.env.horizon)
        name = "ES generation"
    else:
        unit = cell.ppo_config.episodes_per_update * cell.env.horizon
        name = "PPO update"
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
        cell = _Cell(plan, method, seed, out_dir)
        shortfall = _budget_shortfall(cell, record)
        if shortfall is not None:
            # on disk too, so that `report` and `resume` see the failure
            record.failed, record.failure = True, shortfall
            save_json_atomic(cell.record, record.to_dict())
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
    plan, seed, out_dir = args
    return [_run_cell(plan, method, seed, out_dir) for method in plan.methods]


def _set_blas_threads(count: int) -> int | None:
    """Run numpy's OpenBLAS on `count` threads; returns the count it had.
    Does nothing, and returns None, for another BLAS."""
    import ctypes  # kept off the import path of the CLI

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath
    # looking a symbol up in numpy's extension also searches the BLAS it
    # links: numpy.libs/libscipy_openblas* in a wheel, libopenblas otherwise
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            get_threads = getattr(lib, name.format("get"))
            set_threads = getattr(lib, name.format("set"))
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            previous = get_threads()
            set_threads(count)
            return previous
    return None


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
    deterministically by (method, seed) regardless of scheduling. The plan
    goes to <out_dir>/plan.json first, so every results directory holds
    the plan of its cells."""
    os.makedirs(out_dir, exist_ok=True)
    save_json_atomic(os.path.join(out_dir, "plan.json"), plan.to_dict())
    tasks = [(plan, seed, out_dir) for seed in plan.seeds]
    previous = _set_blas_threads(1)
    try:
        if workers > 1:
            # imported here, as it costs every other process about 25 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_set_blas_threads,
                                     initargs=(1,)) as pool:
                raw = [r for cells in pool.map(_run_seed, tasks)
                       for r in cells]
        else:
            raw = [r for task in tasks for r in _run_seed(task)]
    finally:
        if previous is not None:
            _set_blas_threads(previous)
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
