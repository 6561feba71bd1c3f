"""Two-stage scheduler and sweep runner.

The plan (plan.py) fixes the cells, one per (method, seed), and their equal
step budget. Each cell is worked out once, as a `_Cell`: its paths, its one
env (every PPO update, ES generation and evaluation of the cell runs on it),
its PPO config, the fields its checkpoints store, the ES config for a
remaining budget, and the fork test.

Stage-1 streams depend only on (seed, update, ...), never on the method or
the budget, so within one seed every PPO run is a prefix of the ppo_only run
and passes through the fork, the update where the two-stage methods stop PPO
(the last one that fits split*budget). ppo_only spends its whole budget on
PPO. The sweep therefore trains PPO once per seed: the pool runs groups of
seeds, and a seed runs its cells in plan order. A group's first cells first
train their PPO runs together, in lockstep (`_train_first_cells`,
`ppo.train_anchors`), each writing the checkpoints that its cell writes;
each cell then resumes from its own as `run_method` resumes any cell. A cell
makes one PPO run and, if two-stage, one ES run. The fork is an event of
the PPO run: when an update ends the two-stage run (`_Cell.at_fork`), the
cell first writes into each sibling with neither a checkpoint nor a record
the PPO checkpoint that the sibling's own run writes after that update (its
config, Adam moments included), then its own. A sibling resumes from it,
and its PPO run stops at once.
A run resumed past the fork plants nothing, and if the first cell fails
before the fork, the next one trains PPO itself. Every cell checks the
equal-budget premise: one that overspends, or leaves more than one unit of
its last stage (PPO update or ES generation) unspent, fails, and writes its
record already marked failed.

Results layout: a sweep writes <out>/plan.json before its first cell and
<out>/report.json after its last, and each cell writes
<out>/runs/<task>/<method>/<seed>/{checkpoints/, log.csv, record.json}.
report.json is what `summarize` makes of the cells' records, the dicts
that record.json holds (`_record`); `refine-es report` builds it the same
way from the files, each the record of its own cell (`load_record`).
Cells checkpoint after every PPO update / ES generation into one atomic
`checkpoints/checkpoint.npz` (see checkpoint.py) and resume bit-exactly
from it, the PPO->ES handoff included. A checkpoint is the state that the
stage hands out (`ppo.train_anchor`, `engine.tdes_run`) plus the cell's
fields, and the stage resumes from it as loaded; an ES checkpoint also
holds the PPO stage that it refines (`_Cell.after_ppo`). An ES generation
is checkpointed once its center evaluation has run, in the next
generation's batch, the last generation's in the final evaluation's (see
engine.py); a cut in between resumes from the generation before and redoes
one. A two-stage cell's final evaluation is run by `engine.tdes_run`,
ppo_only's by `engine.evaluate_center`. A fresh ES stage starts from its
state before the first generation, built in memory; a cut before its first
generation resumes from the last PPO checkpoint (older versions wrote one
of generation -1 there, see `_Cell.after_ppo`). On resume the checkpoint
must match the cell: format version, stage, master seed, the PPO and ES
configs recomputed from the plan and the actor's architecture, and have
the fields, kinds, dtypes and shapes of the state that the cell builds
fresh (`_check`), as a record those of the blank one and the plan's
budget (`_budget_shortfall` too, unless it is marked failed); a mismatch
fails its own cell only, with a `CheckpointError` naming the file and the
field. The early-handoff rule of older versions is retired: a checkpoint
that stored it without a threshold (the rule off) resumes, any other fails
its cell. Which format versions can be read is checkpoint.py's to know; a
JSON checkpoint (format 1) is refused here, so that its cell does not
silently restart.
A finished cell keeps its results (`checkpoints/final.json`, log.csv,
record.json), each written once, atomically and durable before record.json,
not its resume state: once record.json is durable, the checkpoint is
deleted. A cell that raises keeps it, so `resume` continues the cell.
A stage returns its last state, so `run_method` carries one state from PPO
through ES into the cell's results.

A sweep runs numpy's OpenBLAS on one thread, in its own process and in
every pool worker, so that no BLAS thread spins waiting for a CPU that a
cell wants; the caller's thread count is restored when the sweep returns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import traceback

import numpy as np

from . import engine, ppo, stats
from .checkpoint import (load_checkpoint, load_json, save_checkpoint,
                         save_json_atomic, save_text_atomic)
from .envs import make_env
from .errors import CheckpointError, RolloutError
# plan_from_dict is imported for the benchmark, which loads it from here
from .plan import ExperimentPlan, es_config, plan_from_dict, ppo_config
from .policy import MlpArchitecture, param_count
from .rng import TAG_FINAL_EVAL, stream_seed

CHECKPOINT_NAME = "checkpoint.npz"
_FINAL_FORMAT_VERSION = 1  # layout of final.json, which is still JSON


def _params_sha256(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def cell_dir(out_dir: str, task: str, method: str, seed: int) -> str:
    return os.path.join(out_dir, "runs", task, method, str(seed))


class _Cell:
    """One (method, seed) cell of a plan, worked out once: its paths, its
    env, its PPO config, and the fields that its checkpoints store and a
    resume checks besides the state. A two-stage cell stops PPO at the
    fork, after the last update that fits split * budget (its PPO config's
    `total_steps`); ppo_only trains to the full budget."""

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
        self.ppo_config = ppo_config(plan, method, seed)
        self.archs = ppo.architectures(self.env.observation_dim,
                                       self.env.action_dim, self.ppo_config)
        self.fields = {"ppo_config": self.ppo_config.to_dict(),
                       "master_seed": seed}

    def es_config(self, remaining: int) -> engine.EsConfig:
        """The ES stage's config for `remaining` steps (`plan.es_config`)."""
        return es_config(self.plan, self.env, self.method, self.seed,
                         remaining)

    def at_fork(self, curve: list) -> bool:
        """Whether the two-stage PPO run, a prefix of every PPO run of the
        seed, ends exactly after `curve`, a non-empty curve of this seed:
        its last update fits `plan.fork_steps` and one more would not, so
        the step bound of `ppo.train_anchor` stops the run there. Steps
        only grow along a curve, so one curve at most is at the fork, and
        none if update 0 does not fit."""
        update_cost = self.ppo_config.episodes_per_update * self.env.horizon
        fork = self.plan.fork_steps
        return fork - update_cost < curve[-1]["steps_used"] <= fork

    def save_ppo(self, ppo_state: dict) -> None:
        """The PPO run's checkpoint callback: save `ppo_state`, what
        `ppo.train_anchor` hands out, with this cell's fields. At the fork
        it plants the siblings first (`_fork`): a run resumed past the fork
        never reaches it again."""
        if self.at_fork(ppo_state["curve"]):
            _fork(self, ppo_state)
        save_checkpoint(self.checkpoint, self.ppo_checkpoint(ppo_state))

    def ppo_checkpoint(self, ppo_state: dict) -> dict:
        """The PPO checkpoint of this cell that holds `ppo_state`."""
        return {"stage": "ppo", **ppo_state, **self.fields}

    def after_ppo(self, ppo_state: dict) -> dict:
        """The state of this cell once its PPO run ended in `ppo_state`, what
        `ppo.train_anchor` returns: the ES stage before its first generation
        (a two-stage cell's ES config included), from the actor's part of
        the PPO vector, with the PPO stage it refines. Older versions saved
        it as an ES checkpoint of generation -1, which resumes like any
        other."""
        ac = ppo.ActorCritic(*self.archs, ppo_state["params"])
        params, steps = ac.actor_params, ppo_state["steps_used"]
        es = {"es_config": self.es_config(
            self.plan.total_step_budget - steps).to_dict()} \
            if self.two_stage else {}
        return {"stage": "es", "generation_index": -1, "params": params,
                "steps_used": 0, "records": [], **es, **self.fields,
                "architecture": ac.actor_arch.to_dict(),
                "anchor_params": params, "anchor_sha256": _params_sha256(params),
                "ppo_steps": steps, "ppo_curve": ppo_state["curve"]}


def _log_csv(es_records: list[dict]) -> str:
    """The text of a cell's log.csv."""
    fh = io.StringIO(newline="")
    fh.write("# refine-es generation log, format 1\n")
    writer = csv.writer(fh)
    writer.writerow(["generation", "g_norm", "mean_return", "best_return",
                     "sigma_es", "center_return", "steps_used"])
    for r in es_records:
        writer.writerow([r["generation"], r["g_norm"], r["mean_return"],
                         r["best_return"], r["sigma_es"],
                         r["center_return"], r["steps_used"]])
    return fh.getvalue()


def _check_fields(path: str, state: dict, name: str, expected: dict) -> None:
    stored = state.get(name)
    if type(stored) is not dict:
        raise CheckpointError(f"{path}: field '{name}' is " + (
            f"{stored!r}, not an object" if name in state else "missing"))
    for key in sorted(set(stored) | set(expected)):
        if stored.get(key) != expected.get(key):
            raise CheckpointError(
                f"{path}: field '{name}.{key}' is {stored.get(key)!r} but the "
                f"plan gives {expected.get(key)!r}; refusing to resume a "
                f"different configuration")


# the PPO curves and ES records that the stages write, by field (`_check`)
_ENTRIES = {"curve": [{"update": 0, "mean_return": 0.0, "success_rate": 0.0,
                       "steps_used": 0, "policy_loss": 0.0, "value_loss": 0.0,
                       "entropy": 0.0}],
            "records": [{"generation": 0, "center_return": 0.0,
                         "mean_return": 0.0, "best_return": 0.0,
                         "sigma_es": 0.0, "g_norm": 0.0, "steps_used": 0,
                         "wall_time": 0.0}]}
_ENTRIES.update(ppo_curve=_ENTRIES["curve"], es_records=_ENTRIES["records"])
_ARRAY = "an array of shape {0.shape} and dtype {0.dtype}".format


def _check(path: str, value, blank, where: str = "") -> None:
    """Refuse `value`, read from `path`, naming the file and `where` in it,
    unless it has the kind of `blank`: a dict's keys, each value in turn (a
    list named in `_ENTRIES` by its entries), each entry like a list's first
    (none if it has none), an array's shape and dtype, for a float a finite
    int or float, for None a string or None, else the type."""
    if isinstance(blank, np.ndarray):
        kind = _ARRAY(blank)
        fits = isinstance(value, np.ndarray) and _ARRAY(value) == kind
    elif isinstance(blank, float):
        kind, fits = "a finite number", type(value) in (int, float) and \
            abs(value) < float("inf")
    else:
        kind = {type(None): "a string or null", dict: "an object",
                list: "a list" if blank else "an empty list", bool: "a bool",
                int: "an int", str: "a string"}[type(blank)]
        fits = (type(value) is type(blank) or blank is None and type(value)
                is str) and (blank != [] or not value)
    if not fits:
        shown = _ARRAY(value) if isinstance(value, np.ndarray) else repr(value)
        raise CheckpointError(f"{path}: {where or 'the file'} is {shown}, "
                              f"not {kind}")
    if type(value) is dict:  # the declared keys first, in their order
        for key in {**blank, **value}:
            name = f"{where}: '{key}'" if where else f"field '{key}'"
            if key not in blank or key not in value:
                raise CheckpointError(f"{path}: {name} is " + (
                    "missing" if key in blank else "unknown"))
            _check(path, value[key], _ENTRIES.get(key, blank[key]), name)
    elif type(value) is list:
        for i, entry in enumerate(value):
            _check(path, entry, blank[0], f"{where} entry {i}")


def _load_state(cell: _Cell) -> dict | None:
    """The checkpoint of `cell`, or None, after the checks that need no ES
    config: not a JSON one, the cell's stage, seed, PPO config and, for an
    ES one, actor architecture, and the kind (`_check`) of the state that
    the cell builds fresh. The `handoff` field of an older version is
    dropped if its rule was off, and refused otherwise: that rule is
    retired."""
    legacy = os.path.join(os.path.dirname(cell.checkpoint), "checkpoint.json")
    if os.path.exists(legacy):
        raise CheckpointError(
            f"{legacy}: field 'format_version' is 1 (a JSON checkpoint); this "
            f"version resumes only {CHECKPOINT_NAME}")
    if not os.path.exists(cell.checkpoint):
        return None
    path, state = cell.checkpoint, load_checkpoint(cell.checkpoint)
    if state.get("stage") not in ("ppo", "es"):
        raise CheckpointError(f"{path}: field 'stage' is "
                              f"{state.get('stage')!r}, expected 'ppo' or 'es'")
    if state.get("master_seed") != cell.seed:
        raise CheckpointError(f"{path}: field 'master_seed' is "
                              f"{state.get('master_seed')!r}, this cell is "
                              f"seed {cell.seed}")
    handoff = state.pop("handoff", None)
    if handoff is not None and not (
            type(handoff) is dict and handoff.get("success_threshold", 0)
            is None and sorted(handoff) == ["success_threshold", "window"]):
        raise CheckpointError(f"{path}: field 'handoff' is {handoff!r}, but "
                              f"the handoff rule is retired: only a rule "
                              f"without a threshold resumes")
    # the configs first, so that another optimizer is named as a mismatch
    _check_fields(path, state, "ppo_config", cell.fields["ppo_config"])
    if state["stage"] == "es":
        _check_fields(path, state, "architecture", cell.archs[0].to_dict())
    # what the PPO stage hands out with no update left to make, its vectors
    # zeros so that no stream is drawn; format_version is checkpoint.py's
    zeros = np.zeros(cell.env.action_dim + sum(map(param_count, cell.archs)))
    fresh = ppo.train_anchor(cell.env, cell.ppo_config, {
        "update_index": -1, "params": zeros, "adam_m": zeros, "adam_v": zeros,
        "adam_t": 0, "steps_used": cell.ppo_config.total_steps, "curve": []})
    _check(path, {k: v for k, v in state.items() if k != "format_version"},
           cell.ppo_checkpoint(fresh) if state["stage"] == "ppo" else
           cell.after_ppo(fresh))
    if state["stage"] == "es" and \
            _params_sha256(state["anchor_params"]) != state["anchor_sha256"]:
        raise CheckpointError(f"{path}: field 'anchor_params' does not hash "
                              f"to the stored 'anchor_sha256'")
    return state


def _fork(cell: _Cell, ppo_state: dict) -> None:
    """Start the other cells of this seed from `ppo_state`, the state that
    `ppo.train_anchor` hands out at the fork. Each sibling with neither a
    checkpoint nor a record gets the PPO checkpoint that its own run writes
    at this update, and resumes from it like from any checkpoint."""
    for sibling in (_Cell(cell.plan, method, cell.seed, cell.out_dir)
                    for method in cell.plan.methods if method != cell.method):
        if os.path.exists(sibling.checkpoint) or os.path.exists(sibling.record):
            continue
        os.makedirs(os.path.dirname(sibling.checkpoint), exist_ok=True)
        save_checkpoint(sibling.checkpoint, sibling.ppo_checkpoint(ppo_state))


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


def _record(plan: ExperimentPlan, method: str, seed: int, **values) -> dict:
    """A cell's record, the dict that record.json holds, with its keys in
    that order: `values` over the record of a cell that spent nothing."""
    return {"task": plan.task, "method": method, "seed": seed,
            "final_success_rate": 0.0, "final_mean_return": 0.0,
            "steps_consumed": 0, "budget": plan.total_step_budget,
            "ppo_steps": 0, "es_steps": 0, "anchor_sha256": "",
            "ppo_curve": [], "es_records": [], "failed": False,
            "failure": None, **values}


def load_record(path: str, plan: ExperimentPlan, method: str,
                seed: int) -> dict:
    """The record of the cell (`plan`'s task, `method`, `seed`) at `path`,
    or a `CheckpointError` naming the file and the field if it holds no
    such record: it must be of the kind of the blank record (`_record`),
    its PPO curve and ES records of the kind that the stages write
    (`_ENTRIES`), both as `_check` checks them, hold the plan's budget,
    keep the equal-budget premise (`_budget_shortfall`) unless it is
    marked failed, and be that cell's."""
    expected = _record(plan, method, seed)
    try:
        record = load_json(path)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CheckpointError(f"{path}: unreadable record ({exc})") from exc
    _check(path, record, expected)
    if record["budget"] != plan.total_step_budget:
        raise CheckpointError(f"{path}: field 'budget' is {record['budget']} "
                              f"but the plan gives {plan.total_step_budget}")
    shortfall = _budget_shortfall(_Cell(plan, method, seed, ""), record)
    if shortfall is not None and not record["failed"]:
        raise CheckpointError(f"{path}: {shortfall}, and the record is not "
                              f"marked failed")
    cell = "{task} {method} seed {seed}".format
    if any(record[k] != expected[k] for k in ("task", "method", "seed")):
        raise CheckpointError(f"{path}: a record of {cell(**record)}, not "
                              f"of this cell ({cell(**expected)})")
    return record


def _budget_shortfall(cell: _Cell, record: dict) -> str | None:
    """How `record` breaks the equal-budget premise, or None. A cell may
    not overspend the budget, and may leave at most one unit of its last
    stage unspent: a PPO update for ppo_only, an ES generation otherwise."""
    unspent = record["budget"] - record["steps_consumed"]
    where = (f"{record['method']} seed {record['seed']} consumed "
             f"{record['steps_consumed']} of {record['budget']} steps")
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


def run_method(plan: ExperimentPlan, method: str, seed: int,
               out_dir: str) -> dict:
    """Execute (or resume) one sweep cell, write its artifacts and return
    its record: one PPO run, then, for a two-stage method, one ES run,
    whose state merges into the cell's state (`_Cell.after_ppo`); the
    artifacts come from that one state. If the PPO run reaches the fork, it
    starts this seed's other cells there (`_fork`). A stored record is
    returned as `load_record` reads it, and only then is the cell's
    checkpoint dropped."""
    cell = _Cell(plan, method, seed, out_dir)
    ckpt_dir = os.path.dirname(cell.checkpoint)
    os.makedirs(ckpt_dir, exist_ok=True)
    if os.path.exists(cell.record):
        record = load_record(cell.record, plan, method, seed)
        _drop_resume_state(cell.dir)  # left by a crash or an older version
        return record

    state = _load_state(cell)
    if state is None or state["stage"] == "ppo":
        state = cell.after_ppo(ppo.train_anchor(
            cell.env, cell.ppo_config, state, checkpoint_cb=cell.save_ppo))

    arch = MlpArchitecture.from_dict(state["architecture"])
    final_eval = (plan.eval_episodes, stream_seed(seed, TAG_FINAL_EVAL))
    if cell.two_stage:
        es_cfg = cell.es_config(plan.total_step_budget - state["ppo_steps"])
        _check_fields(cell.checkpoint, state, "es_config", es_cfg.to_dict())
        es_state, (mean_ret, success) = engine.tdes_run(
            state["params"], arch, cell.env, es_cfg, final_eval=final_eval,
            records=state["records"], checkpoint_cb=lambda es:
            save_checkpoint(cell.checkpoint, {**state, **es}))
        state = {**state, **es_state}
    else:
        mean_ret, success = engine.evaluate_center(state["params"], arch,
                                                   cell.env, *final_eval)
    record = _record(plan, method, seed, final_success_rate=success,
                     final_mean_return=mean_ret,
                     steps_consumed=state["ppo_steps"] + state["steps_used"],
                     ppo_steps=state["ppo_steps"],
                     es_steps=state["steps_used"],
                     anchor_sha256=state["anchor_sha256"],
                     ppo_curve=state["ppo_curve"], es_records=state["records"])
    shortfall = _budget_shortfall(cell, record)
    if shortfall is not None:  # on disk too, for `report` and `resume`
        record["failed"], record["failure"] = True, shortfall
    save_json_atomic(os.path.join(ckpt_dir, "final.json"), {
        "format_version": _FINAL_FORMAT_VERSION, "stage": "final",
        "architecture": arch.to_dict(), "params": state["params"].tolist(),
        "master_seed": seed})
    save_text_atomic(os.path.join(cell.dir, "log.csv"),
                     _log_csv(state["records"]))
    save_json_atomic(cell.record, record)
    _drop_resume_state(cell.dir)
    return record


def _run_cell(plan: ExperimentPlan, method: str, seed: int,
              out_dir: str) -> dict:
    """One cell's record; an Exception (no KeyboardInterrupt) in the cell
    gives a failed record, with the same keys, so it never aborts the rest."""
    try:
        return run_method(plan, method, seed, out_dir)
    except Exception:
        return _record(plan, method, seed, failed=True,
                       failure=traceback.format_exc())


def _train_first_cells(plan: ExperimentPlan, seeds, out_dir: str) -> None:
    """Train the PPO runs of the first cells of `seeds` in lockstep
    (`ppo.train_anchors`), each from its cell's checkpoint and with its
    cell's callback, so that every checkpoint file equals the one its cell
    writes alone. A cell with a record, an ES checkpoint or a
    checkpoint that `_load_state` refuses stays out."""
    runs = []
    for seed in seeds:
        cell = _Cell(plan, plan.methods[0], seed, out_dir)
        if os.path.exists(cell.record):
            continue
        try:
            state = _load_state(cell)
        except CheckpointError:
            continue
        if state is None or state["stage"] == "ppo":
            os.makedirs(os.path.dirname(cell.checkpoint), exist_ok=True)
            runs.append((cell.ppo_config, state, cell.save_ppo))
    ppo.train_anchors(make_env(plan.task), runs)


def _run_group(args) -> list[dict]:
    """The cells of a group of seeds: their first cells' PPO runs in
    lockstep, then each seed's cells in plan order; the first whose PPO run
    reaches the fork starts the others from there."""
    plan, seeds, out_dir = args
    try:
        _train_first_cells(plan, seeds, out_dir)
    except (RolloutError, OSError, MemoryError):
        # a non-finite value, a checkpoint write or a group's larger memory:
        # each cell resumes from its own last checkpoint, so such a failure
        # recurs in its own cell only, with its own message; any other
        # exception is a defect and propagates
        pass
    return [_run_cell(plan, method, seed, out_dir)
            for seed in seeds for method in plan.methods]


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


def sweep(plan: ExperimentPlan, out_dir: str, workers: int = 1) -> dict:
    """Run all (method, seed) cells, one task per group of seeds: the seeds
    split into min(workers, seeds) contiguous groups whose sizes differ by
    at most one, so each worker runs one group (`_run_group`). One cell's
    failure never aborts the rest. Returns `summarize`'s payload, which
    goes to <out_dir>/report.json, so the results do not depend on
    scheduling. The plan goes to <out_dir>/plan.json first, so every
    results directory holds the plan of its cells."""
    os.makedirs(out_dir, exist_ok=True)
    save_json_atomic(os.path.join(out_dir, "plan.json"), plan.to_dict())
    n = len(plan.seeds)
    workers = min(workers, n)  # a pool forks every worker at once
    bounds = [-(-i * n // workers) for i in range(workers + 1)]
    tasks = [(plan, plan.seeds[a:b], out_dir)
             for a, b in zip(bounds, bounds[1:])]
    previous = _set_blas_threads(1)
    try:
        if workers > 1:
            # imported here, as it costs every other process about 25 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_set_blas_threads,
                                     initargs=(1,)) as pool:
                cells = [r for rs in pool.map(_run_group, tasks) for r in rs]
        else:
            cells = [r for task in tasks for r in _run_group(task)]
    finally:
        if previous is not None:
            _set_blas_threads(previous)
    payload = summarize(plan, cells)
    save_json_atomic(os.path.join(out_dir, "report.json"), payload)
    return payload


def summarize(plan: ExperimentPlan, records: list[dict],
              baseline: str | None = None) -> dict:
    """The payload of report.json for a plan's cell records: the plan, the
    aggregate (`stats.aggregate_report` against `baseline`) over the records
    that did not fail, or {} if none did, the failures, and the records in
    (method, seed) order."""
    records = sorted(records, key=lambda r: (r["method"], r["seed"]))
    matrices: dict = {}
    for r in records:
        if not r["failed"]:
            matrices.setdefault(r["method"], {}).setdefault(
                r["task"], {})[r["seed"]] = r["final_success_rate"]
    return {
        "plan": plan.to_dict(),
        "report": (stats.aggregate_report(matrices, baseline=baseline)
                   if matrices else {}),
        "failures": [{"method": r["method"], "seed": r["seed"], "failure":
                      r["failure"]} for r in records if r["failed"]],
        "records": records,
    }
