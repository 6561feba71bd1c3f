import csv
import hashlib
import json
import math
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interrupts import interrupt_after_generation

from refine_es.checkpoint import (load_checkpoint, load_json,
                                 save_checkpoint, save_json_atomic)
from refine_es.cli import main
from refine_es import pipeline as pipeline_module
from refine_es.envs import env_ids
from refine_es.errors import CheckpointError, PlanError
from refine_es.pipeline import cell_dir, run_method, sweep
from refine_es.plan import ExperimentPlan, plan_from_dict


def tiny_plan(**kw):
    base = dict(task="point-reach",
                methods=["ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"],
                total_step_budget=1000, split=0.5, seeds=[0, 1],
                eval_episodes=3, es={"m": 2, "sigma_es": 0.05, "alpha": 0.01},
                ppo={"episodes_per_update": 2, "hidden_dims": [8]})
    base.update(kw)
    return plan_from_dict(base)


def test_plan_rejects_unknown_keys_by_name():
    with pytest.raises(PlanError, match="'budget'"):
        plan_from_dict({"task": "point-reach", "methods": ["ppo_only"],
                        "total_step_budget": 10, "budget": 10})
    with pytest.raises(PlanError, match="es.'sigma'"):
        plan_from_dict({"task": "point-reach", "methods": ["ppo_only"],
                        "total_step_budget": 10, "es": {"sigma": 0.1}})
    # a section takes no config field that a cell sets; the discount is the
    # task's, and Adam's betas and eps are constants
    for section, names in (
            ("es", ("generations", "seed", "distribution")),
            ("ppo", ("total_steps", "seed", "gamma", "adam_beta1",
                     "adam_beta2", "adam_eps"))):
        for name in names:
            with pytest.raises(PlanError, match=re.escape(
                    f"unknown plan key: {section}.'{name}'")):
                tiny_plan(**{section: {name: 1}})


def test_plan_rejects_missing_and_invalid():
    with pytest.raises(PlanError, match="missing plan key"):
        plan_from_dict({"task": "point-reach", "methods": ["ppo_only"]})
    with pytest.raises(PlanError, match="split"):
        tiny_plan(split=0.0)
    with pytest.raises(PlanError, match="unknown method"):
        tiny_plan(methods=["sac"])
    with pytest.raises(PlanError):
        tiny_plan(task="walker")
    with pytest.raises(PlanError, match="plan must be a JSON object"):
        plan_from_dict([1, 2])
    with pytest.raises(PlanError, match=r"duplicate seeds: \[0\]"):
        tiny_plan(seeds=[0, 1, 0])
    with pytest.raises(PlanError, match=re.escape(
            "duplicate methods: ['ppo_only', 'ppo_then_tdes']")):
        tiny_plan(methods=["ppo_then_tdes", "ppo_only", "ppo_then_tdes",
                           "ppo_only"])
    with pytest.raises(PlanError, match="'es'.*m must be >= 1"):
        tiny_plan(es={"m": 0})
    with pytest.raises(PlanError, match="'ppo'.*learning_rate"):
        tiny_plan(ppo={"learning_rate": -1.0})
    with pytest.raises(PlanError, match="'ppo'.*learning_rate"):
        tiny_plan(ppo={"learning_rate": 0.0})
    with pytest.raises(PlanError, match="'es'.*center_eval_episodes"):
        tiny_plan(es={"center_eval_episodes": 0})
    with pytest.raises(PlanError, match="'ppo'.*minibatch_size"):
        tiny_plan(ppo={"minibatch_size": 0})
    with pytest.raises(PlanError, match="'ppo'.*episodes_per_update"):
        tiny_plan(ppo={"episodes_per_update": 0})
    with pytest.raises(PlanError, match="'ppo'.*hidden_dims"):
        tiny_plan(ppo={"hidden_dims": [0]})
    with pytest.raises(PlanError, match="'ppo'.*epochs"):
        tiny_plan(ppo={"epochs": 0})


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64) + 5])
def test_plan_rejects_seeds_outside_64_bits(seed):
    # streams fold the master seed to 64 bits, so -1 and 2**64 - 1 would run
    # the same cells as two seeds
    with pytest.raises(PlanError, match=re.escape(f"seed {seed} ")):
        tiny_plan(seeds=[0, seed])
    with pytest.raises(PlanError, match=re.escape(f"seed {seed} ")):
        ExperimentPlan(task="point-reach", methods=("ppo_only",),
                       total_step_budget=10, seeds=(seed,))


def test_plan_accepts_seeds_at_the_64_bit_ends():
    assert tiny_plan(seeds=[0, 2 ** 64 - 1]).seeds == (0, 2 ** 64 - 1)


_FLOAT_KEYS = ("split", "es.sigma_es", "es.alpha", "es.lambda_sigma",
               "es.sigma_min", "es.action_std", "ppo.learning_rate",
               "ppo.value_coef", "ppo.entropy_coef", "ppo.init_log_std",
               "ppo.gae_lambda", "ppo.clip_epsilon")


@pytest.mark.parametrize("key, value", [
    ("total_step_budget", "1000"),
    ("total_step_budget", 1000.5),
    ("total_step_budget", True),
    ("eval_episodes", 2.5),
    ("seeds", [0.7]),
    ("seeds", [False]),
    ("split", "0.5"),
    ("es.m", 2.5),
    ("es.alpha", "0.01"),
    ("es.standardize_noise", 1),
    ("ppo.episodes_per_update", 2.5),
    # a list value gets its id by hand, so that the ids stay put when an
    # entry before it goes
    pytest.param("ppo.hidden_dims", [8.0], id="ppo.hidden_dims-value13"),
    ("ppo.optimizer", 1),
    pytest.param("es", [["m", 2]], id="es-value15"),
    ("methods", "ppo_only"),
    pytest.param("task", ["point-reach"], id="task-value17"),
] + [
    # JSON's 1e999 parses to inf, and json.load takes NaN and Infinity
    (key, value) for key in _FLOAT_KEYS
    for value in (math.inf, -math.inf, math.nan)
] + [pytest.param("es.sigma_es", 10 ** 400, id="es.sigma_es-10**400")])
def test_plan_rejects_mistyped_value_by_name(key, value):
    raw = tiny_plan().to_dict()
    section, _, name = key.rpartition(".")
    (raw[section] if section else raw)[name] = value
    with pytest.raises(PlanError, match=re.escape(f"plan key '{key}' must be")):
        plan_from_dict(raw)


def test_plan_roundtrip():
    plan = tiny_plan()
    assert plan_from_dict(plan.to_dict()) == plan


def test_run_method_artifacts_and_reload(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0])
    out = str(tmp_path)
    rec = run_method(plan, "ppo_then_tdes", 0, out)
    cdir = cell_dir(out, "point-reach", "ppo_then_tdes", 0)
    assert os.path.exists(os.path.join(cdir, "record.json"))
    assert os.path.exists(os.path.join(cdir, "log.csv"))
    assert os.path.exists(os.path.join(cdir, "checkpoints", "final.json"))
    assert rec["steps_consumed"] <= plan.total_step_budget
    assert rec["ppo_steps"] + rec["es_steps"] == rec["steps_consumed"]
    assert rec["es_steps"] > 0 and rec["ppo_steps"] > 0
    # a second call must short-circuit on record.json with identical content
    again = run_method(plan, "ppo_then_tdes", 0, out)
    assert again == rec


def test_log_csv_format(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0])
    out = str(tmp_path)
    run_method(plan, "ppo_then_tdes", 0, out)
    path = os.path.join(cell_dir(out, "point-reach", "ppo_then_tdes", 0),
                        "log.csv")
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("#")
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "g_norm", "mean_return", "best_return",
                       "sigma_es", "center_return", "steps_used"]
    assert len(rows) > 1


def test_split_one_degenerates_to_ppo_plus_no_es(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0], split=1.0)
    rec = run_method(plan, "ppo_then_tdes", 0, str(tmp_path))
    # PPO consumes every fundable update; the leftover cannot fund one ES
    # generation (2 * m * horizon = 400 > 1000 - 800)
    assert rec["es_steps"] == 0
    assert rec["es_records"] == []


def test_anchor_shared_across_two_stage_methods(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes", "ppo_then_gaussian_es"])
    records = sweep(plan, str(tmp_path))["records"]
    by_key = {(r["method"], r["seed"]): r for r in records}
    for seed in plan.seeds:
        a = by_key[("ppo_then_tdes", seed)]
        b = by_key[("ppo_then_gaussian_es", seed)]
        assert a["anchor_sha256"] == b["anchor_sha256"]
        assert a["anchor_sha256"] != ""
    # different seeds produce different anchors
    assert by_key[("ppo_then_tdes", 0)]["anchor_sha256"] != \
        by_key[("ppo_then_tdes", 1)]["anchor_sha256"]


def test_sweep_full_matrix_and_report(tmp_path):
    plan = tiny_plan()
    out = str(tmp_path)
    payload = sweep(plan, out)
    records = payload["records"]
    assert len(records) == 3 * 2
    assert [r["failed"] for r in records] == [False] * 6
    assert sorted({r["method"] for r in records}) == sorted(plan.methods)
    report = payload["report"]
    assert set(report["methods"]) == set(plan.methods)
    assert report["baseline"] == "ppo_only"
    on_disk = load_json(os.path.join(out, "report.json"))
    assert on_disk["plan"] == plan.to_dict()
    assert on_disk["failures"] == []


def test_sweep_isolates_cell_failure(tmp_path, monkeypatch):
    plan = tiny_plan(methods=["ppo_only"], seeds=[0, 1])

    import refine_es.pipeline as pipeline

    original = pipeline.run_method

    def boom(plan_, method, seed, out_dir):
        if seed == 1:
            raise RuntimeError("synthetic cell failure")
        return original(plan_, method, seed, out_dir)

    monkeypatch.setattr(pipeline, "run_method", boom)
    payload = sweep(plan, str(tmp_path))
    records = payload["records"]
    assert [r["failed"] for r in records] == [False, True]
    assert "synthetic cell failure" in records[1]["failure"]
    assert payload["failures"][0]["seed"] == 1
    # the surviving cell still contributes to the report
    assert payload["report"]["methods"]["ppo_only"]


def test_ppo_only_uses_full_budget_for_ppo(tmp_path):
    plan = tiny_plan(methods=["ppo_only"], seeds=[0])
    rec = run_method(plan, "ppo_only", 0, str(tmp_path))
    assert rec["es_steps"] == 0
    # 5 updates of 200 steps fit in 1000
    assert rec["ppo_steps"] == 1000


def test_budget_never_exceeded(tmp_path):
    plan = tiny_plan()
    records = sweep(plan, str(tmp_path))["records"]
    for r in records:
        assert r["steps_consumed"] <= r["budget"]


def test_resume_after_interrupt_bitwise(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))

    with interrupt_after_generation(0), pytest.raises(KeyboardInterrupt):
        run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))

    assert resumed["anchor_sha256"] == clean["anchor_sha256"]
    assert resumed["final_success_rate"] == clean["final_success_rate"]
    assert resumed["steps_consumed"] == clean["steps_consumed"]
    fa = load_json(os.path.join(cell_dir(str(tmp_path / "clean"),
                                         "point-reach", "ppo_then_tdes", 0),
                                "checkpoints", "final.json"))
    fb = load_json(os.path.join(cell_dir(str(tmp_path / "cut"),
                                         "point-reach", "ppo_then_tdes", 0),
                                "checkpoints", "final.json"))
    assert fa["params"] == fb["params"]


def _final_params(out, method="ppo_then_tdes", seed=0):
    return load_json(os.path.join(cell_dir(out, "point-reach", method, seed),
                                  "checkpoints", "final.json"))["params"]


def test_resume_across_handoff_bitwise(tmp_path, monkeypatch):
    # interrupt after the last PPO checkpoint, before the first ES one
    import refine_es.pipeline as pipeline

    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0])
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))

    original = pipeline._Cell.es_config
    calls = []

    def interrupt_once(cell, remaining):
        calls.append(remaining)
        if len(calls) == 1:
            raise KeyboardInterrupt("injected interrupt at the handoff")
        return original(cell, remaining)

    monkeypatch.setattr(pipeline._Cell, "es_config", interrupt_once)
    with pytest.raises(KeyboardInterrupt):
        run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    state = load_checkpoint(_checkpoint_path(str(tmp_path / "cut")))
    # 2 updates of 200 steps fit the fork at 500
    assert (state["stage"], state["update_index"]) == ("ppo", 1)
    updates = _count_ppo_updates(monkeypatch)
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    assert updates == []  # the PPO run stops at once where it was cut

    assert clean["ppo_steps"] == resumed["ppo_steps"] == 400
    assert resumed["anchor_sha256"] == clean["anchor_sha256"]
    assert resumed["ppo_curve"] == clean["ppo_curve"]
    assert _final_params(str(tmp_path / "cut")) == \
        _final_params(str(tmp_path / "clean"))


def _checkpoint_path(out, method="ppo_then_tdes", seed=0):
    return os.path.join(cell_dir(out, "point-reach", method, seed),
                        "checkpoints", "checkpoint.npz")


def _es_records(rec):
    return [r | {"wall_time": 0} for r in rec["es_records"]]


def _interrupt_ppo_update(monkeypatch, n):
    """Raise KeyboardInterrupt from the n-th ppo.ppo_update call, the n-th
    update of a group of runs in lockstep."""
    import refine_es.ppo as ppo

    original = ppo.ppo_update
    calls = []

    def update(*args):
        calls.append(1)
        if len(calls) == n:
            raise KeyboardInterrupt(f"injected interrupt in update {n}")
        return original(*args)

    monkeypatch.setattr(ppo, "ppo_update", update)


def _cut_in_es(plan, out):
    with interrupt_after_generation(0), pytest.raises(KeyboardInterrupt):
        run_method(plan, "ppo_then_tdes", 0, out)


def test_resume_mid_ppo_with_adam_bitwise(tmp_path, monkeypatch):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400,
                     ppo={"episodes_per_update": 2, "hidden_dims": [8],
                          "optimizer": "adam"})
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    assert len(clean["ppo_curve"]) == 3

    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 2)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))

    assert resumed["anchor_sha256"] == clean["anchor_sha256"]
    assert resumed["ppo_curve"] == clean["ppo_curve"]
    assert _es_records(resumed) == _es_records(clean)
    assert _final_params(str(tmp_path / "cut")) == \
        _final_params(str(tmp_path / "clean"))


def test_checkpoints_hold_format_3_members(tmp_path, monkeypatch):
    # a checkpoint is the flat state that its stage hands out: each vector is
    # one float64 member under its own key, and the rest is in meta; format 4
    # keeps format 3's members
    plan = tiny_plan(methods=["ppo_only"], seeds=[0], total_step_budget=800,
                     ppo={"episodes_per_update": 2, "hidden_dims": [8],
                          "optimizer": "adam"})
    clean = run_method(plan, "ppo_only", 0, str(tmp_path / "clean"))
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 3)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, str(tmp_path / "cut"))

    members = _members(_checkpoint_path(str(tmp_path / "cut"), "ppo_only"))
    meta = json.loads(members["meta"][2])
    assert sorted(members) == ["adam_m", "adam_v", "meta", "params"]
    assert meta["format_version"] == 4 and meta["update_index"] == 1
    assert meta["adam_t"] == 32  # 2 updates x 4 epochs x 4 minibatches
    assert {members[k][:2] for k in ("params", "adam_m", "adam_v")} == \
        {("<f8", members["params"][1])}

    resumed = run_method(plan, "ppo_only", 0, str(tmp_path / "cut"))
    assert resumed["anchor_sha256"] == clean["anchor_sha256"]
    assert resumed["ppo_curve"] == clean["ppo_curve"]
    assert _final_params(str(tmp_path / "cut"), "ppo_only") == \
        _final_params(str(tmp_path / "clean"), "ppo_only")

    es_plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                        total_step_budget=1400)
    _cut_in_es(es_plan, str(tmp_path / "es"))
    members = _members(_checkpoint_path(str(tmp_path / "es")))
    assert sorted(members) == ["anchor_params", "meta", "params"]
    assert json.loads(members["meta"][2])["format_version"] == 4


def test_resume_ignores_stale_tmp(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    cut = str(tmp_path / "cut")
    _cut_in_es(plan, cut)
    # a kill during a write leaves a partial temp file behind
    with open(_checkpoint_path(cut) + ".tmp", "wb") as fh:
        fh.write(b"PK\x03\x04 truncated")
    run_method(plan, "ppo_then_tdes", 0, cut)
    assert _final_params(cut) == _final_params(str(tmp_path / "clean"))


def _blas_threads():
    """The thread count of numpy's OpenBLAS, or None for another BLAS."""
    import ctypes

    core = getattr(np, "_core", None) or np.core  # numpy 2 or numpy 1
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            get_threads = getattr(lib, name)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return get_threads()
    return None


_RUN_GROUP = pipeline_module._run_group


def _run_group_noting_blas_threads(args):
    """`pipeline._run_group`, which first writes the BLAS thread count of
    the process it runs in to <out>/blas-<seed>, for each seed of the
    group."""
    _plan, seeds, out_dir = args
    for seed in seeds:
        with open(os.path.join(out_dir, f"blas-{seed}"), "w") as fh:
            fh.write(str(_blas_threads()))
    return _RUN_GROUP(args)


def test_pool_workers_share_the_cpus_among_blas_threads(tmp_path,
                                                        monkeypatch):
    # one BLAS thread per worker, whatever the CPU count: a thread that
    # spins waiting for a CPU only slows the cells down
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    monkeypatch.setattr(pipeline_module, "_run_group",
                        _run_group_noting_blas_threads)
    payload = sweep(tiny_plan(methods=["ppo_only"]), str(tmp_path),
                    workers=2)
    assert payload["failures"] == []
    assert [(tmp_path / f"blas-{s}").read_text() for s in (0, 1)] == ["1"] * 2
    assert _blas_threads() == before  # the sweep process keeps its own


def test_serial_sweep_runs_blas_on_one_thread_then_restores_it(tmp_path,
                                                               monkeypatch):
    if _blas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    monkeypatch.setattr(pipeline_module, "_run_group",
                        _run_group_noting_blas_threads)
    # a count other than 1, so that the restore shows
    original = pipeline_module._set_blas_threads(2)
    try:
        payload = sweep(tiny_plan(methods=["ppo_only"]), str(tmp_path))
        after = _blas_threads()
    finally:
        pipeline_module._set_blas_threads(original)
    assert payload["failures"] == []
    assert [(tmp_path / f"blas-{s}").read_text() for s in (0, 1)] == ["1"] * 2
    assert after == 2


@pytest.mark.parametrize("seeds, workers, pools", [
    ([0, 1], 8, [2]), ([0, 1, 2], 2, [2]), ([0], 4, [])])
def test_sweep_starts_no_more_workers_than_seeds(tmp_path, monkeypatch, seeds,
                                                 workers, pools):
    # a process pool forks all its workers up front, so a plan of fewer
    # seeds than workers gets one worker per seed, and one seed runs serially
    import concurrent.futures

    made = []

    class InProcessPool:
        """Notes its max_workers and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    payload = sweep(tiny_plan(methods=["ppo_only"], seeds=seeds),
                    str(tmp_path), workers=workers)
    records = payload["records"]
    assert payload["failures"] == []
    assert [r["seed"] for r in records] == seeds
    assert made == pools


def _resume_state(out):
    """Every checkpoint and stale temp file left under `out`/runs."""
    return sorted(os.path.relpath(os.path.join(d, f), out)
                  for d, _, files in os.walk(os.path.join(out, "runs"))
                  for f in files if f == "checkpoint.npz" or f.endswith(".tmp"))


@pytest.mark.parametrize("workers", [1, 2])
def test_finished_cells_keep_no_resume_state(tmp_path, workers):
    out = str(tmp_path)
    payload = sweep(tiny_plan(), out, workers=workers)
    records = payload["records"]
    assert payload["failures"] == [] and len(records) == 6
    assert _resume_state(out) == []
    for r in records:
        cdir = cell_dir(out, "point-reach", r["method"], r["seed"])
        assert sorted(os.listdir(cdir)) == ["checkpoints", "log.csv",
                                            "record.json"]
        assert os.listdir(os.path.join(cdir, "checkpoints")) == ["final.json"]


def test_cell_cut_mid_es_keeps_checkpoint_until_done(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    cut = str(tmp_path / "cut")
    _cut_in_es(plan, cut)
    assert load_checkpoint(_checkpoint_path(cut))["generation_index"] == 0
    resumed = run_method(plan, "ppo_then_tdes", 0, cut)
    assert _cell_bits(cut, resumed) == \
        _cell_bits(str(tmp_path / "clean"), clean)
    assert _resume_state(cut) == []


def test_cell_that_raises_keeps_its_checkpoint(tmp_path, monkeypatch):
    import refine_es.engine as engine

    plan = tiny_plan(methods=["ppo_only"], seeds=[0])
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    out = str(tmp_path / "out")

    def evaluate_center(*args):  # ppo_only's final evaluation
        raise RuntimeError("synthetic failure in the final evaluation")

    with monkeypatch.context() as m:
        m.setattr(engine, "evaluate_center", evaluate_center)
        records = sweep(plan, out)["records"]
    assert records[0]["failed"]
    cdir = cell_dir(out, "point-reach", "ppo_only", 0)
    assert not os.path.exists(os.path.join(cdir, "record.json"))
    assert load_checkpoint(_checkpoint_path(out, "ppo_only"))[
        "update_index"] == 4
    updates = _count_ppo_updates(monkeypatch)
    resumed = sweep(plan, out)["records"]
    assert updates == []
    assert _sweep_bits(out, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)
    assert _resume_state(out) == []


def test_resume_removes_resume_state_of_finished_cells(tmp_path):
    # an older version kept the last checkpoint of a finished cell, and a
    # crash between the record and the unlink keeps it too; the stale bytes
    # would fail to load, so resume must delete them without reading them
    out = str(tmp_path)
    plan = tiny_plan()
    records = sweep(plan, out)["records"]
    save_json_atomic(os.path.join(out, "plan.json"), plan.to_dict())
    kept = {}
    for r in records:
        cdir = cell_dir(out, "point-reach", r["method"], r["seed"])
        for name in ("checkpoint.npz", "checkpoint.npz.tmp"):
            with open(os.path.join(cdir, "checkpoints", name), "wb") as fh:
                fh.write(b"PK\x03\x04 stale")
        for name in ("record.json", "log.csv",
                     os.path.join("checkpoints", "final.json")):
            with open(os.path.join(cdir, name), "rb") as fh:
                kept[(r["method"], r["seed"], name)] = fh.read()
    assert len(_resume_state(out)) == 12

    assert main(["resume", "--dir", out]) == 0
    assert _resume_state(out) == []
    for (method, seed, name), data in kept.items():
        with open(os.path.join(cell_dir(out, "point-reach", method, seed),
                               name), "rb") as fh:
            assert fh.read() == data


@pytest.mark.parametrize("field, value, message", [
    ("format_version", 1, "field 'format_version' is 1"),
    ("format_version", 2, "field 'format_version' is 2"),
    ("format_version", 3, "field 'format_version' is 3"),
    ("stage", "eval", "field 'stage' is 'eval'"),
    ("master_seed", 7, "field 'master_seed' is 7, this cell is seed 0"),
    ("anchor_sha256", "0" * 64, "field 'anchor_params' does not hash"),
])
def test_resume_refuses_mismatched_checkpoint(tmp_path, monkeypatch, field,
                                              value, message):
    import refine_es.checkpoint as checkpoint

    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    out = str(tmp_path)
    _cut_in_es(plan, out)
    path = _checkpoint_path(out)
    state = checkpoint.load_checkpoint(path)
    if field == "format_version":
        monkeypatch.setattr(checkpoint, "FORMAT_VERSION", value)
    else:
        state[field] = value
    checkpoint.save_checkpoint(path, state)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        run_method(plan, "ppo_then_tdes", 0, out)


def test_resume_names_a_missing_checkpoint_field(tmp_path):
    path = _checkpoint_path(str(tmp_path))
    os.makedirs(os.path.dirname(path))
    save_checkpoint(path, {"stage": "ppo", "master_seed": 0})
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: field 'ppo_config' is "
                                       f"missing")):
        run_method(tiny_plan(methods=["ppo_then_tdes"], seeds=[0]),
                   "ppo_then_tdes", 0, str(tmp_path))


@pytest.mark.parametrize("meta, message", [
    ({"ppo_config": [1], "format_version": 4},
     "field 'ppo_config' is [1], not an object"),
    ({"format_version": 2}, "field 'format_version' is 2"),
], ids=["config-not-an-object", "format-2"])
def test_resume_fails_only_the_cell_of_a_bad_checkpoint(tmp_path, meta,
                                                        message):
    # the group phase reads the checkpoint first; it must leave the cell to
    # fail by itself, naming the file, while the sweep's other cells finish
    plan = tiny_plan(methods=["ppo_only", "ppo_then_tdes"])
    out = str(tmp_path)
    save_json_atomic(os.path.join(out, "plan.json"), plan.to_dict())
    path = _checkpoint_path(out, "ppo_only")
    os.makedirs(os.path.dirname(path))
    text = json.dumps({"stage": "ppo", "master_seed": 0, **meta}).encode()
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(text, dtype=np.uint8))
    assert main(["resume", "--dir", out]) == 1
    payload = load_json(os.path.join(out, "report.json"))
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [("ppo_only", 0)]
    assert f"CheckpointError: {path}: {message}" in \
        payload["failures"][0]["failure"]
    assert sorted((r["method"], r["seed"]) for r in payload["records"]
                  if not r["failed"]) == \
        [("ppo_only", 1), ("ppo_then_tdes", 0), ("ppo_then_tdes", 1)]


@pytest.fixture(scope="module")
def cut_sweeps(tmp_path_factory):
    """A 2-method x 2-seed sweep (`ppo_only` first, Adam) run uncut and cut
    twice: after its 5th checkpoint write, when `ppo_only` seed 0, a first
    cell of the group phase, holds the PPO checkpoint of update 1, and after
    its 13th, when `ppo_then_tdes` seed 0 holds the ES checkpoint of
    generation 0 and seed 1 has its cells still to run. Returns the plan,
    the uncut sweep's cell bits and the cut directories by stage."""
    plan = tiny_plan(methods=["ppo_only", "ppo_then_tdes"])
    root = tmp_path_factory.mktemp("cut_sweeps")
    clean = str(root / "clean")
    bits = _sweep_bits(clean, sweep(plan, clean)["records"])
    cuts = {}
    for stage, k in (("ppo", 5), ("es", 13)):
        cuts[stage] = str(root / stage)
        with pytest.MonkeyPatch.context() as m:
            _cut_after_write(m, k)
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, cuts[stage])
    return plan, bits, cuts


# the cell whose checkpoint is spoiled, by stage
_SPOILED = {"ppo": ("ppo_only", 0), "es": ("ppo_then_tdes", 0)}
# a field of a checkpoint replaced, by the stage of the checkpoint: the
# value from the stored one, and what the refusal says of it, formatted
# with the stored value's length n (of the field, or from "field" on)
BAD_FIELDS = {
    "params-as-text": ("ppo", "params", lambda v: "x", "is 'x', not an array "
                       "of shape ({n},) and dtype float64"),
    "params-one-short": ("ppo", "params", lambda v: v[:-1], "is an array of "
                         "shape ({m},) and dtype float64, not an array of "
                         "shape ({n},) and dtype float64"),
    "params-2-d": ("ppo", "params", lambda v: v[None], "is an array of shape "
                   "(1, {n}) and dtype float64, not an array of shape ({n},) "
                   "and dtype float64"),
    # params stored as int64 used to resume after a silent conversion; a
    # checkpoint keeps the dtype that the cell writes, so it is refused
    "params-as-int64": ("ppo", "params", lambda v: v.astype(np.int64),
                        "is an array of shape ({n},) and dtype int64, not an "
                        "array of shape ({n},) and dtype float64"),
    "adam_m-one-short": ("ppo", "adam_m", lambda v: v[:-1], "is an array of "
                         "shape ({m},) and dtype float64, not an array of "
                         "shape ({n},) and dtype float64"),
    "update_index-as-text": ("ppo", "update_index", lambda v: "1",
                             "is '1', not an int"),
    "update_index-as-float": ("ppo", "update_index", lambda v: 1.5,
                              "is 1.5, not an int"),
    "adam_t-as-text": ("ppo", "adam_t", lambda v: "3", "is '3', not an int"),
    "adam_t-as-bool": ("ppo", "adam_t", lambda v: True,
                       "is True, not an int"),
    "steps_used-as-text": ("ppo", "steps_used", lambda v: "x",
                           "is 'x', not an int"),
    "curve-as-text": ("ppo", "curve", lambda v: "x", "is 'x', not a list"),
    "curve-of-ints": ("ppo", "curve", lambda v: [1, 2],
                      "entry 0 is 1, not an object"),
    "curve-update-as-float": ("ppo", "curve", lambda v: [v[0], {
        **v[1], "update": 2.5}], "entry 1: 'update' is 2.5, not an int"),
    "curve-entry-short": ("ppo", "curve", lambda v: [v[0], {
        k: x for k, x in v[1].items() if k != "entropy"}],
        "entry 1: 'entropy' is missing"),
    "records-as-text": ("es", "records", lambda v: "x", "is 'x', not a list"),
    "records-of-ints": ("es", "records", lambda v: [1],
                        "entry 0 is 1, not an object"),
    "record-return-nan": ("es", "records", lambda v: [
        {**v[0], "mean_return": math.nan}],
        "entry 0: 'mean_return' is nan, not a finite number"),
    "ppo_steps-as-text": ("es", "ppo_steps", lambda v: "x",
                          "is 'x', not an int"),
    "architecture-as-list": ("es", "architecture", lambda v: [1],
                             "is [1], not an object"),
    # another actor than the cell's used to fail in `engine.tdes_run`,
    # naming neither the file nor the field
    "architecture-not-the-cells": ("es", "architecture", lambda v: {
        **v, "hidden_dims": [9]}, "field 'architecture.hidden_dims' is [9] "
        "but the plan gives [8]; refusing to resume a different "
        "configuration"),
    "es-params-one-short": ("es", "params", lambda v: v[:-1], "is an array "
                            "of shape ({m},) and dtype float64, not an array "
                            "of shape ({n},) and dtype float64"),
    "ppo_curve-as-text": ("es", "ppo_curve", lambda v: "x",
                          "is 'x', not a list"),
    "anchor_sha256-as-int": ("es", "anchor_sha256", lambda v: 0,
                             "is 0, not a string"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_a_bad_checkpoint_field_fails_only_its_own_cell(tmp_path, cut_sweeps,
                                                        case):
    # a PPO checkpoint of a first cell is read by the group phase, which
    # must leave that cell to fail by itself; a value of the wrong kind
    # must not resume, nor reach a record that `report` would refuse
    plan, bits, cuts = cut_sweeps
    stage, field, spoil, message = BAD_FIELDS[case]
    out = str(tmp_path / "out")
    shutil.copytree(cuts[stage], out)
    path = _checkpoint_path(out, *_SPOILED[stage])
    state = load_checkpoint(path)
    assert state["stage"] == stage
    n = len(state[field]) if isinstance(state[field], np.ndarray) else 0
    save_checkpoint(path, {**state, field: spoil(state[field])})
    assert main(["resume", "--dir", out]) == 1
    payload = load_json(os.path.join(out, "report.json"))
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [_SPOILED[stage]]
    if not message.startswith("field "):
        message = f"field '{field}' {message}"
    assert f"CheckpointError: {path}: {message.format(n=n, m=n - 1)}\n" in \
        payload["failures"][0]["failure"]
    finished = {(r["method"], r["seed"]): r for r in payload["records"]
                if not r["failed"]}
    assert _sweep_bits(out, finished.values()) == \
        {cell: b for cell, b in bits.items() if cell != _SPOILED[stage]}


def _another_kind(value):
    """Values of another kind than `value`, a checkpoint field: a string, a
    float, a bool, a list or a dict, and for an array one of another shape
    or dtype."""
    kinds = {str: st.text(max_size=4), float: st.floats(), bool: st.booleans(),
             list: st.lists(st.integers(), max_size=2),
             dict: st.dictionaries(st.text(max_size=2), st.integers(),
                                   max_size=2)}
    drawn = [s for kind, s in kinds.items() if type(value) is not kind]
    if isinstance(value, np.ndarray):
        drawn.append(st.sampled_from([
            value[:-1], value[None], np.concatenate([value, value]),
            value.astype(np.int64), value.astype(np.float32)]))
    return st.one_of(drawn)


@pytest.fixture(scope="module")
def spoilable(cut_sweeps, tmp_path_factory):
    """A copy of `cut_sweeps`' cut directories, by stage, to spoil."""
    root = tmp_path_factory.mktemp("spoilable")
    return {stage: shutil.copytree(cut, str(root / stage))
            for stage, cut in cut_sweeps[2].items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_state_names_a_field_of_another_kind(cut_sweeps, spoilable,
                                                  data):
    plan, _, cuts = cut_sweeps
    stage = data.draw(st.sampled_from(["ppo", "es"]))
    state = load_checkpoint(_checkpoint_path(cuts[stage], *_SPOILED[stage]))
    field = data.draw(st.sampled_from(sorted(set(state) - {"format_version"})))
    value = data.draw(_another_kind(state[field]))
    path = _checkpoint_path(spoilable[stage], *_SPOILED[stage])
    save_checkpoint(path, {**state, field: value})
    cell = pipeline_module._Cell(plan, *_SPOILED[stage], spoilable[stage])
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: field '{field}' ")):
        pipeline_module._load_state(cell)


@pytest.mark.parametrize("stage", ["ppo", "es"])
def test_resume_names_each_field_dropped_from_a_checkpoint(
        tmp_path, monkeypatch, stage):
    # save_checkpoint writes format_version itself, and an ES resume reads
    # neither its generation index nor its steps: its records give both
    import refine_es.checkpoint as checkpoint

    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    out = str(tmp_path)
    if stage == "es":
        _cut_in_es(plan, out)
    else:
        with monkeypatch.context() as m:
            _interrupt_ppo_update(m, 2)
            with pytest.raises(KeyboardInterrupt):
                run_method(plan, "ppo_then_tdes", 0, out)
    path = _checkpoint_path(out)
    state = checkpoint.load_checkpoint(path)
    assert state["stage"] == stage
    unread = {"format_version", "generation_index"} | \
        ({"steps_used"} if stage == "es" else set())
    for key in sorted(set(state) - unread):
        checkpoint.save_checkpoint(
            path, {k: v for k, v in state.items() if k != key})
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: field '{key}' ")):
            run_method(plan, "ppo_then_tdes", 0, out)


def test_resume_refuses_changed_ppo_config(tmp_path, monkeypatch):
    ppo_cfg = {"episodes_per_update": 2, "hidden_dims": [8]}
    plan = tiny_plan(methods=["ppo_only"], seeds=[0], ppo=ppo_cfg)
    out = str(tmp_path)
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 2)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, out)
    changed = tiny_plan(methods=["ppo_only"], seeds=[0],
                        ppo={**ppo_cfg, "learning_rate": 0.01})
    with pytest.raises(CheckpointError,
                       match=r"checkpoint\.npz: field 'ppo_config\."
                             r"learning_rate' is 0\.003 but the plan gives "
                             r"0\.01"):
        run_method(changed, "ppo_only", 0, out)


def test_resume_refuses_changed_es_config(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    out = str(tmp_path)
    _cut_in_es(plan, out)
    changed = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                        total_step_budget=1400,
                        es={"m": 2, "sigma_es": 0.05, "alpha": 0.02})
    with pytest.raises(CheckpointError,
                       match=r"checkpoint\.npz: field 'es_config\.alpha' is "
                             r"0\.01 but the plan gives 0\.02"):
        run_method(changed, "ppo_then_tdes", 0, out)


def test_a_stray_json_checkpoint_is_not_read(tmp_path):
    # versions before format 3 wrote checkpoints/checkpoint.json; this one
    # reads only checkpoint.npz, so its cell starts over, to the same bits
    plan = tiny_plan(methods=["ppo_only"], seeds=[0])
    clean, out = str(tmp_path / "clean"), str(tmp_path / "stray")
    sweep(plan, clean)
    stray = os.path.join(cell_dir(out, "point-reach", "ppo_only", 0),
                         "checkpoints", "checkpoint.json")
    os.makedirs(os.path.dirname(stray))
    with open(stray, "w") as fh:
        json.dump({"format_version": 1, "stage": "ppo"}, fh)
    assert sweep(plan, out)["failures"] == []
    tree = _tree(out)
    assert tree.pop(os.path.relpath(stray, out)) == {"format_version": 1,
                                                     "stage": "ppo"}
    assert tree == _tree(clean)


def test_ppo_only_refuses_checkpoint_with_handoff_rule(tmp_path, monkeypatch):
    # older versions stored the early-handoff rule, which is retired; this
    # version reads no checkpoint that holds it, the rule off included
    import refine_es.checkpoint as checkpoint

    plan = tiny_plan(methods=["ppo_only"], seeds=[0, 1])
    out = str(tmp_path)
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 2)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, out)
    path = _checkpoint_path(out, "ppo_only")
    state = checkpoint.load_checkpoint(path)
    assert "handoff" not in state
    unknown = re.escape(f"{path}: field 'handoff' is unknown")
    for handoff in ({"success_threshold": None, "window": 5},
                    {"success_threshold": 0.0, "window": 1}, [None, 5], None):
        checkpoint.save_checkpoint(path, {**state, "handoff": handoff})
        with pytest.raises(CheckpointError, match=unknown):
            run_method(plan, "ppo_only", 0, out)
    # in a sweep it fails its own cell only
    payload = sweep(plan, out)
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [("ppo_only", 0)]
    assert re.search(unknown, payload["failures"][0]["failure"])
    assert not payload["records"][1]["failed"]


@pytest.mark.parametrize("method, delta, message", [
    ("ppo_only", -400, "ppo_only seed 1 consumed 600 of 1000 steps: 400 "
                       "unspent, more than one PPO update (200 steps)"),
    ("ppo_then_tdes", -400, "ppo_then_tdes seed 1 consumed 400 of 1000 "
                            "steps: 600 unspent, more than one ES generation "
                            "(400 steps)"),
    ("ppo_only", 200, "ppo_only seed 1 consumed 1200 of 1000 steps: 200 "
                      "over budget"),
])
def test_sweep_fails_cell_with_unequal_budget(tmp_path, monkeypatch, capsys,
                                              method, delta, message):
    import refine_es.pipeline as pipeline

    # the skew applies as the cell checks its record, before it is written
    original, save = pipeline._budget_shortfall, pipeline.save_json_atomic
    writes = []

    def skewed(cell, record):
        if (record["method"], record["seed"]) == (method, 1):
            record["steps_consumed"] += delta
        return original(cell, record)

    def noting(path, payload):
        writes.append(path)
        save(path, payload)

    monkeypatch.setattr(pipeline, "_budget_shortfall", skewed)
    monkeypatch.setattr(pipeline, "save_json_atomic", noting)
    out = str(tmp_path)
    payload = sweep(tiny_plan(), out)
    records = payload["records"]
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [(method, 1)]
    assert payload["failures"][0]["failure"] == message
    assert sum(r["failed"] for r in records) == 1
    record = os.path.join(cell_dir(out, "point-reach", method, 1),
                          "record.json")
    assert writes.count(record) == 1  # written once, already marked failed

    # the failed record is on disk: report leaves the cell out, and a
    # resume fails it again with the same message
    monkeypatch.undo()
    stored = load_json(record)
    assert (stored["failed"], stored["failure"]) == (True, message)
    save_json_atomic(os.path.join(out, "plan.json"), tiny_plan().to_dict())
    assert main(["report", "--dir", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("missing cells (1):")
    assert lines[start + 1] == f"  point-reach {method} seed 1"
    again = sweep(tiny_plan(), out)
    assert again["failures"] == payload["failures"]


def _cell_bits(out, rec):
    """Everything a cell computes, apart from wall times."""
    params = _final_params(out, rec["method"], rec["seed"])
    return {
        "final_sha256": hashlib.sha256(
            np.asarray(params, dtype="<f8").tobytes()).hexdigest(),
        "anchor_sha256": rec["anchor_sha256"], "ppo_curve": rec["ppo_curve"],
        "es_records": _es_records(rec), "final": (rec["final_success_rate"],
                                                  rec["final_mean_return"]),
        "steps": (rec["steps_consumed"], rec["ppo_steps"], rec["es_steps"]),
        "failed": rec["failed"],
    }


def _sweep_bits(out, records):
    return {(r["method"], r["seed"]): _cell_bits(out, r) for r in records}


def _cut_after_write(monkeypatch, k):
    """Patch `pipeline.save_checkpoint` to raise KeyboardInterrupt right
    after its k-th write (never for k = 0); returns the paths written."""
    import refine_es.pipeline as pipeline

    original = pipeline.save_checkpoint
    written = []

    def save_checkpoint(path, payload):
        original(path, payload)
        written.append(path)
        if len(written) == k:
            raise KeyboardInterrupt(f"injected interrupt after write {k}")

    monkeypatch.setattr(pipeline, "save_checkpoint", save_checkpoint)
    return written


def _sweep_files(out, payload):
    """Each cell's `_cell_bits`, final.json and log.csv bytes, and
    report.json, all apart from wall times."""
    cells = {}
    for r in payload["records"]:
        cdir = cell_dir(out, "point-reach", r["method"], r["seed"])
        files = []
        for name in (os.path.join("checkpoints", "final.json"), "log.csv"):
            with open(os.path.join(cdir, name), "rb") as fh:
                files.append(fh.read())
        cells[(r["method"], r["seed"])] = (_cell_bits(out, r), *files)
    report = load_json(os.path.join(out, "report.json"))
    for r in report["records"]:
        r["es_records"] = _es_records(r)
    return cells, report


@pytest.mark.parametrize("first, split, count", [
    ("ppo_only", 0.5, 18), ("ppo_then_tdes", 0.5, 18), ("ppo_only", 0.2, 22)],
    ids=["ppo_only", "ppo_then_tdes", "handoff"])
def test_resume_after_a_cut_after_each_checkpoint_write(tmp_path, monkeypatch,
                                                        first, split, count):
    # two seeds, so that the group phase runs them in lockstep; a two-stage
    # method first plants ppo_only's checkpoint at the fork, and split 0.2
    # moves the fork (the PPO->ES handoff) to the first update
    plan = tiny_plan(methods=[first] + [m for m in tiny_plan().methods
                                        if m != first], split=split)
    clean = str(tmp_path / "clean")
    with monkeypatch.context() as m:
        writes = _cut_after_write(m, 0)
        expected = _sweep_files(clean, sweep(plan, clean))
    assert len(writes) == count
    for k in range(1, len(writes) + 1):
        out = str(tmp_path / f"cut-{k}")
        with monkeypatch.context() as m:
            written = _cut_after_write(m, k)
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, out)
        where = f"cut after write {k}, of {written[-1]}"
        assert written[-1] == writes[k - 1].replace(clean, out), where
        payload = sweep(plan, out)
        assert _sweep_files(out, payload) == expected, where
        assert _resume_state(out) == [], where
        # what `refine-es report` reads back is what the sweep wrote
        for r in payload["records"]:
            path = os.path.join(cell_dir(out, "point-reach", r["method"],
                                         r["seed"]), "record.json")
            assert pipeline_module.load_record(path, plan, r["method"],
                                               r["seed"]) == r, where


def _log_writes(monkeypatch, log, cut=None):
    """Patch `pipeline.save_checkpoint` to append "<stage> <path>" to the
    file `log` after each write, and to raise KeyboardInterrupt right after
    the write that `cut` = (path, n) names, the n-th to that path. Forked
    pool workers each hold their own copy of the patch, so the writes are
    counted in the file; one process writes every checkpoint of a seed, so
    the n-th write to a path is the same write in any schedule."""
    import refine_es.pipeline as pipeline

    original = pipeline.save_checkpoint

    def save_checkpoint(path, payload):
        original(path, payload)
        with open(log, "a") as fh:
            fh.write(f"{payload['stage']} {path}\n")
        if cut is not None and path == cut[0] and \
                len(_writes(log, path)) == cut[1]:
            raise KeyboardInterrupt(f"injected interrupt after write "
                                    f"{cut[1]} to {path}")

    monkeypatch.setattr(pipeline, "save_checkpoint", save_checkpoint)


def _writes(log, path=None):
    """The (stage, path) of each write that `_log_writes` logged in `log`,
    or of those to `path` only."""
    with open(log) as fh:
        writes = [tuple(line.split(" ", 1)) for line in fh.read().splitlines()]
    return [w for w in writes if path in (None, w[1])]


def test_resume_after_a_cut_after_chosen_checkpoint_writes_in_two_workers(
        tmp_path, monkeypatch):
    # ROADMAP item 4 under `--workers 2`, each seed in its own pool worker:
    # a cut after the first write, after the fork's first planted
    # checkpoint, and after the first and the last ES checkpoint of the
    # serial sweep, and the sweep resumed with 2 workers leaves the serial
    # uncut sweep's files
    plan = tiny_plan(methods=["ppo_then_tdes", "ppo_only",
                              "ppo_then_gaussian_es"])
    clean = str(tmp_path / "clean")
    with monkeypatch.context() as m:
        _log_writes(m, clean + ".log")
        expected = _sweep_files(clean, sweep(plan, clean))
    writes = _writes(clean + ".log")
    es = [i for i, (stage, _) in enumerate(writes) if stage == "es"]
    planted = next(i for i, (_, path) in enumerate(writes)
                   if path == _checkpoint_path(clean, "ppo_only", 0))
    assert writes[planted + 1] == ("ppo", _checkpoint_path(  # the fork
        clean, "ppo_then_gaussian_es", 0))
    for i in (0, planted, es[0], es[-1]):
        stage, path = writes[i]
        n = [p for _, p in writes[:i + 1]].count(path)
        out = str(tmp_path / f"cut-{i + 1}")
        path = path.replace(clean, out)
        where = f"cut after write {n} to {path}"
        with monkeypatch.context() as m:
            _log_writes(m, out + ".log", (path, n))
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, out, workers=2)
        assert _writes(out + ".log", path)[n - 1:] == [(stage, path)], where
        payload = sweep(plan, out, workers=2)
        assert _sweep_files(out, payload) == expected, where
        assert _resume_state(out) == [], where


def _cut_after_event(monkeypatch, k):
    """Patch the durable events of a sweep besides its checkpoint writes,
    each result file written (`save_text_atomic`, which `save_json_atomic`
    calls) and each file deleted (in `_drop_resume_state`), to raise
    KeyboardInterrupt right after the k-th of them (never for k = 0);
    returns the paths of the events."""
    import refine_es.checkpoint as checkpoint

    write, unlink = checkpoint.save_text_atomic, os.unlink
    events = []

    def then_cut(done, path, *args):
        done(path, *args)
        events.append(path)
        if len(events) == k:
            raise KeyboardInterrupt(f"injected interrupt after event {k}")

    for module in (checkpoint, pipeline_module):
        monkeypatch.setattr(module, "save_text_atomic",
                            lambda *args: then_cut(write, *args))
    monkeypatch.setattr(os, "unlink", lambda path: then_cut(unlink, path))
    return events


def _no_wall_time(value):
    if isinstance(value, dict):
        return {k: _no_wall_time(v) for k, v in value.items()
                if k != "wall_time"}
    return [_no_wall_time(v) for v in value] \
        if isinstance(value, list) else value


def _tree(out):
    """Every file under `out` by its path relative to `out`: a JSON file's
    value without its wall times, any other file's bytes."""
    files = {}
    for d, _, names in os.walk(out):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                data = fh.read()
            files[os.path.relpath(path, out)] = _no_wall_time(
                json.loads(data)) if name.endswith(".json") else data
    return files


def test_resume_after_a_cut_after_each_result_write_and_deletion(
        tmp_path, monkeypatch):
    # ROADMAP item 4: a cut right after any durable event of a sweep, and
    # the resumed sweep leaves the uncut sweep's files
    plan = tiny_plan(methods=["ppo_only", "ppo_then_tdes"])
    clean = str(tmp_path / "clean")
    with monkeypatch.context() as m:
        events = _cut_after_event(m, 0)
        sweep(plan, clean)
    expected = _tree(clean)
    # plan.json; per cell final.json, log.csv, record.json and the
    # checkpoint's deletion; report.json
    assert len(events) == 1 + 4 * 4 + 1
    for k in range(1, len(events) + 1):
        out = str(tmp_path / f"cut-{k}")
        with monkeypatch.context() as m:
            done = _cut_after_event(m, k)
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, out)
        where = f"cut after event {k}, of {done[-1]}"
        assert done[-1] == events[k - 1].replace(clean, out), where
        sweep(plan, out)
        assert _tree(out) == expected, where


def _cut_before_event(monkeypatch, k):
    """Patch `os.replace` and `os.unlink` to raise KeyboardInterrupt right
    before the k-th durable event of a sweep (never for k = 0): the rename
    of a `.tmp` that is written and fsynced, a checkpoint's or a result
    file's, or a deletion in `_drop_resume_state`. Returns each event as
    (kind, path), the path being the file renamed to or deleted."""
    replace, unlink = os.replace, os.unlink
    events = []

    def cut_before(kind, path):
        events.append((kind, path))
        if len(events) == k:
            raise KeyboardInterrupt(f"injected interrupt before {kind} {k}")

    def cut_replace(src, dst):
        if src.endswith(".tmp"):
            cut_before("rename", dst)
        replace(src, dst)

    def cut_unlink(path):
        cut_before("deletion", path)
        unlink(path)

    monkeypatch.setattr(os, "replace", cut_replace)
    monkeypatch.setattr(os, "unlink", cut_unlink)
    return events


def test_resume_after_a_cut_before_each_checkpoint_rename(tmp_path,
                                                          monkeypatch):
    # ROADMAP item 4: a cut before a checkpoint or a result file is durable
    # leaves the one before it and a stale `.tmp`, and a cut before a
    # deletion leaves the file; the resumed sweep leaves the uncut sweep's
    # files and no `.tmp`
    plan = tiny_plan()
    clean = str(tmp_path / "clean")
    with monkeypatch.context() as m:
        events = _cut_before_event(m, 0)
        sweep(plan, clean)
    expected = _tree(clean)
    names = [os.path.basename(path) for _, path in events]
    # 18 checkpoints; plan.json; per cell final.json, log.csv, record.json
    # and the checkpoint's deletion; report.json
    assert (len(events), names.count("checkpoint.npz")) == (18 + 1 + 6 * 4 + 1,
                                                            18 + 6)
    for k in range(1, len(events) + 1):
        out = str(tmp_path / f"cut-{k}")
        with monkeypatch.context() as m:
            done = _cut_before_event(m, k)
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, out)
        kind, path = done[-1]
        where = f"cut before {kind} {k}, of {path}"
        assert done[-1] == (events[k - 1][0],
                            events[k - 1][1].replace(clean, out)), where
        assert os.path.exists(path + ".tmp" if kind == "rename" else path), \
            where
        sweep(plan, out)
        tree = _tree(out)
        assert [p for p in tree if p.endswith(".tmp")] == [], where
        assert tree == expected, where


def test_an_old_results_directory_reports_once_its_plan_drops_the_keys(
        tmp_path, capsys):
    # an older version's plan.json holds the retired early-handoff keys,
    # with the rule off; this version reads no such plan, and its records
    # never held the keys, so deleting them from plan.json is all it takes
    plan = tiny_plan()
    clean, out = str(tmp_path / "clean"), str(tmp_path / "old")
    sweep(plan, clean)
    sweep(plan, out)
    save_json_atomic(os.path.join(out, "plan.json"), {
        **plan.to_dict(), "handoff_success_threshold": None,
        "handoff_window": 5})
    new_plan = str(tmp_path / "plan.json")
    save_json_atomic(new_plan, plan.to_dict())
    capsys.readouterr()
    for command in (["report", "--dir", out], ["resume", "--dir", out],
                    ["run", "--plan", new_plan, "--out", out, "--force"]):
        assert main(command) == 2, command
        assert "unknown plan key: 'handoff_success_threshold'" in \
            capsys.readouterr().err, command
    save_json_atomic(os.path.join(out, "plan.json"), plan.to_dict())
    reports = []
    for results in (out, clean):
        assert main(["report", "--dir", results]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def _note_ppo_updates(monkeypatch):
    """Patch `ppo.ppo_update` to note the seeds of each call, one tuple per
    update of a group of runs in lockstep."""
    import refine_es.ppo as ppo

    original = ppo.ppo_update
    calls = []

    def update(ac, rows, config, adam, keys):
        calls.append(tuple(seed for seed, _ in keys))
        return original(ac, rows, config, adam, keys)

    monkeypatch.setattr(ppo, "ppo_update", update)
    return calls


def _count_ppo_updates(monkeypatch):
    """Patch `ppo.ppo_update` to note the seed of each run's update, one
    per run of a group update."""
    import refine_es.ppo as ppo

    original = ppo.ppo_update
    seeds = []

    def update(ac, rows, config, adam, keys):
        seeds.extend(seed for seed, _ in keys)
        return original(ac, rows, config, adam, keys)

    monkeypatch.setattr(ppo, "ppo_update", update)
    return seeds


_ADAM = {"episodes_per_update": 2, "hidden_dims": [8], "optimizer": "adam"}


def _alone_bits(plan, tmp_path):
    """`_sweep_bits` of every cell of `plan` run alone, by `run_method`
    under a plan of its own method."""
    bits = {}
    for method in plan.methods:
        own = plan_from_dict({**plan.to_dict(), "methods": [method]})
        for seed in plan.seeds:
            out = str(tmp_path / f"alone-{method}-{seed}")
            bits[(method, seed)] = _cell_bits(
                out, run_method(own, method, seed, out))
    return bits


@pytest.mark.parametrize("methods", [
    ["ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"],
    ["ppo_then_tdes", "ppo_only", "ppo_then_gaussian_es"],
    ["ppo_then_tdes", "ppo_then_gaussian_es", "ppo_only"],
], ids=["ppo_only_first", "ppo_only_middle", "ppo_only_last"])
def test_sweep_trains_ppo_once_per_seed(tmp_path, monkeypatch, methods):
    # unless ppo_only runs first, a two-stage cell plants ppo_only's PPO
    # checkpoint at the fork, Adam moments included
    plan = tiny_plan(methods=methods, ppo=_ADAM)
    alone = _alone_bits(plan, tmp_path)
    updates = _count_ppo_updates(monkeypatch)
    records = sweep(plan, str(tmp_path / "sweep"))["records"]
    ppo_only = {r["seed"]: len(r["ppo_curve"]) for r in records
                if r["method"] == "ppo_only"}
    assert ppo_only == {0: 5, 1: 5}
    assert {s: updates.count(s) for s in plan.seeds} == ppo_only
    assert _sweep_bits(str(tmp_path / "sweep"), records) == alone


def _nan_in_episode(monkeypatch, seed, update):
    """Patch point-reach to give a NaN reward at step 3 to the first
    episode that seed `seed`'s PPO collects in update `update`, in whatever
    batch it runs."""
    from refine_es.envs import PointReach
    from refine_es.rng import TAG_PPO_ENV, make_stream

    bad = int(make_stream(seed, TAG_PPO_ENV, update, 0).integers(1 << 62))
    reset, reward = PointReach.reset, PointReach._reward

    def noting_reset(self, seeds):
        self.bad_rows = np.array([int(s) == bad for s in seeds])
        return reset(self, seeds)

    def nan_reward(self):
        rewards, distance = reward(self)
        if self._step_count == 3:
            rewards[self.bad_rows] = np.nan
        return rewards, distance

    monkeypatch.setattr(PointReach, "reset", noting_reset)
    monkeypatch.setattr(PointReach, "_reward", nan_reward)


def test_group_failure_stays_in_the_seed_that_hit_it(tmp_path, monkeypatch):
    # seed 1's update 2 hits a NaN: the group phase stops, each first cell
    # resumes from its own checkpoint, and only seed 1's fails, as alone
    plan = tiny_plan()
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    _nan_in_episode(monkeypatch, 1, 2)
    alone = pipeline_module._run_cell(plan, "ppo_only", 1,
                                      str(tmp_path / "alone"))
    assert "RolloutError: update 2, episode 0: non-finite reward or state " \
        "at step 3" in alone["failure"]
    calls = _note_ppo_updates(monkeypatch)
    out = str(tmp_path / "out")
    payload = sweep(plan, out)
    assert calls == [(0, 1)] * 2 + [(0,)] * 3
    assert payload["failures"] == [
        {"method": "ppo_only", "seed": 1, "failure": alone["failure"]}]
    ok = [r for r in payload["records"] if not r["failed"]]
    assert _sweep_bits(out, ok) == {
        k: v for k, v in _sweep_bits(str(tmp_path / "clean"), clean).items()
        if k != ("ppo_only", 1)}


def test_group_phase_lets_a_defect_propagate(tmp_path, monkeypatch):
    # only failures that a cell meets again alone are left to the cells; a
    # defect of the group phase must not turn every cell into a solo run
    import refine_es.ppo as ppo

    original = ppo.train_anchors

    def planted(env, runs):
        if len(runs) > 1:
            raise IndexError("planted")
        return original(env, runs)

    monkeypatch.setattr(ppo, "train_anchors", planted)
    with pytest.raises(IndexError, match="planted"):
        sweep(tiny_plan(seeds=[0, 1]), str(tmp_path))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_group_cut_at_any_update_resumes_bitwise(tmp_path, monkeypatch, k):
    # the k-th group update is update k - 1 of both seeds, and the fork is
    # after update 1: a cut before it, in it, past it, and in the last
    plan = tiny_plan(ppo=_ADAM)
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    cut = str(tmp_path / "cut")
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, k)
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, cut)
    for seed in plan.seeds:
        path = _checkpoint_path(cut, "ppo_only", seed)
        assert (load_checkpoint(path)["update_index"]
                if os.path.exists(path) else -1) == k - 2
    calls = _note_ppo_updates(monkeypatch)
    resumed = sweep(plan, cut)["records"]
    assert calls == [(0, 1)] * (6 - k)
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_group_of_a_resumed_and_a_fresh_seed(tmp_path, monkeypatch):
    # seed 0's first cell was cut in update 2 and seed 1 is fresh: one
    # group holds runs at different updates and Adam step counts
    plan = tiny_plan(ppo=_ADAM)
    alone = _alone_bits(plan, tmp_path)
    out = str(tmp_path / "out")
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 3)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, out)
    assert load_checkpoint(_checkpoint_path(out, "ppo_only"))[
        "update_index"] == 1
    calls = _note_ppo_updates(monkeypatch)
    records = sweep(plan, out)["records"]
    assert calls == [(0, 1)] * 3 + [(1,)] * 2
    assert _sweep_bits(out, records) == alone


def test_group_of_seeds_that_stop_at_different_updates(tmp_path,
                                                       monkeypatch):
    # ROADMAP item 4: a cut between the two runs' callbacks of one group
    # update, the k-th checkpoint write, stops seed 0 after `update` and
    # seed 1 one update earlier, before the fork (after update 1) and past
    # it; the resumed group holds them one update apart, and seed 0 leaves
    # it first
    plan = tiny_plan(ppo=_ADAM)
    alone = _alone_bits(plan, tmp_path)
    for k, update in ((1, 0), (9, 2)):
        out = str(tmp_path / f"cut-{k}")
        with monkeypatch.context() as m:
            written = _cut_after_write(m, k)
            with pytest.raises(KeyboardInterrupt):
                sweep(plan, out)
        assert written[-1] == _checkpoint_path(out, "ppo_only", 0)
        for seed, at in zip(plan.seeds, (update, update - 1)):
            path = _checkpoint_path(out, "ppo_only", seed)
            assert (load_checkpoint(path)["update_index"]
                    if os.path.exists(path) else -1) == at
        with monkeypatch.context() as m:
            calls = _note_ppo_updates(m)
            records = sweep(plan, out)["records"]
        assert calls == [(0, 1)] * (4 - update) + [(1,)]
        assert _sweep_bits(out, records) == alone


def test_resume_after_cut_past_fork_bitwise(tmp_path, monkeypatch):
    # the fork is after update 1; cut ppo_only at update 3
    plan = tiny_plan(seeds=[0])
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    cut = str(tmp_path / "cut")
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 4)
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, cut)
    for method in ("ppo_then_tdes", "ppo_then_gaussian_es"):
        state = load_checkpoint(_checkpoint_path(cut, method))
        assert (state["stage"], state["update_index"]) == ("ppo", 1)
    assert load_checkpoint(_checkpoint_path(cut, "ppo_only"))[
        "update_index"] == 2
    updates = _count_ppo_updates(monkeypatch)
    resumed = sweep(plan, cut)["records"]
    assert updates == [0, 0]  # updates 3 and 4 of ppo_only
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_resume_after_cut_mid_es_past_fork_bitwise(tmp_path, monkeypatch):
    plan = tiny_plan(seeds=[0], total_step_budget=1400)
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    cut = str(tmp_path / "cut")
    with interrupt_after_generation(0), pytest.raises(KeyboardInterrupt):
        sweep(plan, cut)
    assert os.path.exists(os.path.join(
        cell_dir(cut, "point-reach", "ppo_only", 0), "record.json"))
    state = load_checkpoint(_checkpoint_path(cut, "ppo_then_tdes"))
    assert state["generation_index"] == 0
    updates = _count_ppo_updates(monkeypatch)
    resumed = sweep(plan, cut)["records"]
    assert updates == []
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_fork_leaves_started_sibling_alone(tmp_path, monkeypatch):
    import refine_es.engine as engine

    plan = tiny_plan(seeds=[0], total_step_budget=3000)
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    out = str(tmp_path / "out")
    with interrupt_after_generation(2), pytest.raises(KeyboardInterrupt):
        run_method(tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                             total_step_budget=3000), "ppo_then_tdes", 0, out)
    path = _checkpoint_path(out, "ppo_then_tdes")
    with open(path, "rb") as fh:
        before = fh.read()

    run_method(plan, "ppo_only", 0, out)
    with open(path, "rb") as fh:
        assert fh.read() == before
    state = load_checkpoint(_checkpoint_path(out, "ppo_then_gaussian_es"))
    assert (state["stage"], state["update_index"]) == ("ppo", 6)

    original = engine.tdes_run
    starts = {}

    def tdes_run(anchor, arch, env, config, **kw):
        # a run resumes after its last record, and the records start at 0
        starts[config.distribution] = len(kw["records"])
        return original(anchor, arch, env, config, **kw)

    monkeypatch.setattr(engine, "tdes_run", tdes_run)
    records = sweep(plan, out)["records"]
    assert starts == {"triangular": 3, "gaussian": 0}
    assert _sweep_bits(out, records) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_first_cell_failure_after_fork_spares_siblings(tmp_path,
                                                       monkeypatch):
    import refine_es.engine as engine

    plan = tiny_plan(seeds=[0])
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    original = engine.evaluate_center
    calls = []

    def evaluate_center(*args):
        calls.append(1)
        if len(calls) == 1:  # ppo_only's final evaluation
            raise RuntimeError("synthetic failure after the fork")
        return original(*args)

    monkeypatch.setattr(engine, "evaluate_center", evaluate_center)
    updates = _count_ppo_updates(monkeypatch)
    out = str(tmp_path / "out")
    payload = sweep(plan, out)
    records = payload["records"]
    assert len(updates) == 5
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [("ppo_only", 0)]
    assert "synthetic failure after the fork" in \
        payload["failures"][0]["failure"]
    ok = [r for r in records if not r["failed"]]
    assert _sweep_bits(out, ok) == {
        k: v for k, v in _sweep_bits(str(tmp_path / "clean"), clean).items()
        if k[0] != "ppo_only"}


def test_ppo_only_past_fork_plants_nothing(tmp_path, monkeypatch):
    # an older version ran every ppo_only cell first, so an interrupted
    # sweep can hold a ppo_only checkpoint beyond the fork and nothing in
    # its siblings; those must train their own PPO, not start from it
    plan = tiny_plan(seeds=[0])
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    out = str(tmp_path / "out")
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 4)
        with pytest.raises(KeyboardInterrupt):
            run_method(tiny_plan(methods=["ppo_only"], seeds=[0]),
                       "ppo_only", 0, out)
    updates = _count_ppo_updates(monkeypatch)
    run_method(plan, "ppo_only", 0, out)
    assert len(updates) == 2
    assert not os.path.exists(_checkpoint_path(out, "ppo_then_tdes"))
    records = sweep(plan, out)["records"]
    assert len(updates) == 4  # ppo_then_tdes trained its own anchor
    assert _sweep_bits(out, records) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_cut_while_planting_plants_again_on_resume(tmp_path, monkeypatch):
    # the fork plants the siblings before the cell's own checkpoint of that
    # update, so a cut between the two leaves the cell before the fork
    import refine_es.pipeline as pipeline

    plan = tiny_plan(seeds=[0])
    clean = sweep(plan, str(tmp_path / "clean"))["records"]
    cut = str(tmp_path / "cut")
    gaussian = _checkpoint_path(cut, "ppo_then_gaussian_es")
    original = pipeline.save_checkpoint

    def save_checkpoint(path, payload):
        if path == gaussian:
            raise KeyboardInterrupt("injected interrupt while planting")
        original(path, payload)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "save_checkpoint", save_checkpoint)
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, cut)
    assert load_checkpoint(_checkpoint_path(cut, "ppo_only"))[
        "update_index"] == 0
    updates = _count_ppo_updates(monkeypatch)
    resumed = sweep(plan, cut)["records"]
    assert len(updates) == 4  # ppo_only's updates 1 to 4, none of a sibling
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def _members(path):
    """Each member of a checkpoint archive as (dtype, shape, bytes)."""
    with np.load(path) as npz:
        return {name: (npz[name].dtype.str, npz[name].shape,
                       npz[name].tobytes()) for name in npz.files}


def _snapshot_checkpoints(monkeypatch):
    """Patch `pipeline.save_checkpoint` to keep the members of every file
    it writes: a list of (path, members)."""
    import refine_es.pipeline as pipeline

    original = pipeline.save_checkpoint
    written = []

    def save_checkpoint(path, payload):
        original(path, payload)
        written.append((path, _members(path)))

    monkeypatch.setattr(pipeline, "save_checkpoint", save_checkpoint)
    return written


@pytest.mark.parametrize("planter", ["ppo_only", "ppo_then_tdes"])
def test_planted_checkpoint_is_the_siblings_own(tmp_path, monkeypatch,
                                                planter):
    # every sibling gets, member by member, the PPO checkpoint that its own
    # run writes at the fork update (update 1), Adam moments included
    adam = {"episodes_per_update": 2, "hidden_dims": [8], "optimizer": "adam"}
    plan = tiny_plan(seeds=[0], ppo=adam)
    planted = str(tmp_path / "planted")
    with monkeypatch.context() as m:
        written = _snapshot_checkpoints(m)
        run_method(plan, planter, 0, planted)
    siblings = [s for s in plan.methods if s != planter]
    # each sibling is planted once
    assert sorted(p for p, _ in written
                  if p != _checkpoint_path(planted, planter)) == \
        sorted(_checkpoint_path(planted, s) for s in siblings)
    for sibling in siblings:
        own = str(tmp_path / sibling)
        with monkeypatch.context() as m:
            written = _snapshot_checkpoints(m)
            run_method(plan, sibling, 0, own)
        at_fork = [members for path, members in written
                   if path == _checkpoint_path(own, sibling)][1]
        meta = json.loads(at_fork["meta"][2])
        assert (meta["stage"], meta["update_index"]) == ("ppo", 1)
        # 2 updates x 4 epochs x 4 minibatches
        assert meta["adam_t"] == 32
        assert _members(_checkpoint_path(planted, sibling)) == at_fork


def test_parent_generation_minus_one_checkpoint_resumes_bitwise(
        tmp_path, monkeypatch):
    # before a fresh ES stage started in memory, every two-stage cell saved
    # its ES stage before the first generation, and the fork planted it
    import refine_es.checkpoint as checkpoint
    import refine_es.pipeline as pipeline
    from refine_es.policy import MlpArchitecture, param_count

    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    cut = str(tmp_path / "cut")

    def interrupt(cell, remaining):
        raise KeyboardInterrupt("injected interrupt after PPO")

    with monkeypatch.context() as m:
        m.setattr(pipeline._Cell, "es_config", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_then_tdes", 0, cut)
    path = _checkpoint_path(cut)
    ppo_state = checkpoint.load_checkpoint(path)
    arch = MlpArchitecture(4, (8,), 2)
    params = ppo_state["params"][:param_count(arch)]
    # written by hand, as this version stores that ES stage
    checkpoint.save_checkpoint(path, {
        "stage": "es", "generation_index": -1, "params": params,
        "steps_used": 0, "records": [],
        "es_config": {"sigma_es": 0.05, "alpha": 0.01, "m": 2,
                      "generations": 2, "lambda_sigma": 0.99,
                      "sigma_min": 1e-3, "distribution": "triangular",
                      "action_std": 0.01, "seed": 0,
                      "episodes_per_candidate": 1,
                      "standardize_noise": False, "center_eval_episodes": 1},
        "ppo_config": ppo_state["ppo_config"],
        "master_seed": 0,
        "architecture": arch.to_dict(), "anchor_params": params,
        "anchor_sha256": hashlib.sha256(params.astype("<f8").tobytes())
        .hexdigest(), "ppo_steps": 600, "ppo_curve": ppo_state["curve"]})
    updates = _count_ppo_updates(monkeypatch)
    resumed = run_method(plan, "ppo_then_tdes", 0, cut)
    assert updates == []
    assert _cell_bits(cut, resumed) == \
        _cell_bits(str(tmp_path / "clean"), clean)


def test_at_fork_asks_every_prefix():
    import refine_es.pipeline as pipeline

    curve = [{"update": i, "steps_used": 200 * (i + 1)} for i in range(5)]
    # the fork is the two-stage run's, whichever cell asks: 2 updates of
    # 200 steps fit 500, so only the 2-update curve is at the fork
    for method in tiny_plan().methods:
        cell = pipeline._Cell(tiny_plan(), method, 0, "")
        assert [cell.at_fork(curve[:k]) for k in range(1, 6)] == \
            [False, True, False, False, False]
        # a fork below one update (100 of 200 steps): the two-stage run
        # makes no update, and no curve is at the fork
        cell = pipeline._Cell(tiny_plan(split=0.1), method, 0, "")
        assert not any(cell.at_fork(curve[:k]) for k in range(1, 6))


def test_final_evaluation_equals_standalone_run(tmp_path):
    import refine_es.engine as engine
    from refine_es.envs import make_env
    from refine_es.policy import MlpArchitecture
    from refine_es.rng import TAG_FINAL_EVAL, stream_seed

    plan = tiny_plan(seeds=[0], total_step_budget=1400)
    out = str(tmp_path)
    records = sweep(plan, out)["records"]
    for rec in records:
        final = load_json(os.path.join(
            cell_dir(out, "point-reach", rec["method"], 0), "checkpoints",
            "final.json"))
        assert engine.evaluate_center(
            np.array(final["params"]),
            MlpArchitecture(**final["architecture"]),
            make_env("point-reach"), plan.eval_episodes,
            stream_seed(0, TAG_FINAL_EVAL)) == \
            (rec["final_mean_return"], rec["final_success_rate"])


@pytest.mark.parametrize("generation", [0, 1, 2])
def test_resume_after_cut_after_each_generation_bitwise(tmp_path,
                                                        generation):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=2200)
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    assert len(clean["es_records"]) == 3
    cut = str(tmp_path / "cut")
    with interrupt_after_generation(generation), \
            pytest.raises(KeyboardInterrupt):
        run_method(plan, "ppo_then_tdes", 0, cut)
    state = load_checkpoint(_checkpoint_path(cut))
    assert state["generation_index"] == generation
    assert [r["generation"] for r in state["records"]] == \
        list(range(generation + 1))
    resumed = run_method(plan, "ppo_then_tdes", 0, cut)
    assert _cell_bits(cut, resumed) == \
        _cell_bits(str(tmp_path / "clean"), clean)
    assert _resume_state(cut) == []


def test_format_3_mid_es_checkpoint_fails_only_its_cell(tmp_path):
    # tests/golden/mid_es_checkpoint.npz is a format 3 checkpoint of the
    # ppo_then_tdes cell of seed 0 of a 2200-step plan, cut after
    # generation 1 of 3 (its history is under `_mid_ppo_plan`). Its
    # center returns were measured after each generation's update, and
    # format 4 measures them before it, so the file must not resume: it
    # fails its own cell, naming the file, and the sweep's other cells
    # finish. Deleted, it lets the cell restart, to a fresh run's bits
    import shutil

    plan = tiny_plan(seeds=[0, 1], total_step_budget=2200)
    out = str(tmp_path / "golden")
    path = _checkpoint_path(out)
    os.makedirs(os.path.dirname(path))
    shutil.copy(os.path.join(os.path.dirname(__file__), "golden",
                             "mid_es_checkpoint.npz"), path)
    payload = sweep(plan, out)
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [("ppo_then_tdes", 0)]
    assert (f"CheckpointError: {path}: field 'format_version' is 3, this "
            f"version reads only 4; delete it to restart the cell") in \
        payload["failures"][0]["failure"]
    assert sum(not r["failed"] for r in payload["records"]) == 5
    assert os.path.exists(path)

    os.unlink(path)
    resumed = sweep(plan, out)
    assert resumed["failures"] == []
    clean = str(tmp_path / "clean")
    assert _sweep_files(out, resumed) == _sweep_files(clean,
                                                      sweep(plan, clean))


# tests/golden/mid_ppo_checkpoint.npz is a checkpoint of this plan's cell,
# cut in update 2, the last of 3, so the one of update 1. It was first
# written, in format 2, in a checkout of the version before format 3 with
#
#   PYTHONPATH=src python3 -c '
#   import refine_es.ppo as ppo
#   from refine_es.pipeline import run_method
#   from refine_es.plan import plan_from_dict
#   plan = plan_from_dict({
#       "task": "point-reach", "methods": ["ppo_then_tdes"],
#       "total_step_budget": 1400, "split": 0.5, "seeds": [0],
#       "eval_episodes": 3, "es": {"m": 2, "sigma_es": 0.05, "alpha": 0.01},
#       "ppo": {"episodes_per_update": 2, "hidden_dims": [8],
#               "optimizer": "adam"}})
#   update = ppo.ppo_update
#   def cut(ac, buffer, config, optimizer, u):
#       if u == 2:
#           raise KeyboardInterrupt
#       return update(ac, buffer, config, optimizer, u)
#   ppo.ppo_update = cut
#   try:
#       run_method(plan, "ppo_then_tdes", 0, "out")
#   except KeyboardInterrupt:
#       pass'
#
# and copied from out/runs/point-reach/ppo_then_tdes/0/checkpoints/. Both
# goldens were then converted to format 3, in a checkout of ea51a02 (the
# last version that read format 2), with
#
#   PYTHONPATH=src python3 -c '
#   from refine_es.checkpoint import load_checkpoint, save_checkpoint
#   from refine_es.pipeline import _from_format_2
#   for name in ("mid_ppo", "mid_es"):
#       path = f"tests/golden/{name}_checkpoint.npz"
#       state = _from_format_2(load_checkpoint(path))
#       state.pop("format_version")
#       save_checkpoint(path, state)'
#
# Both still held the early-handoff rule, off, as field `handoff`, which
# this version refuses, and lost it once, with
#
#   PYTHONPATH=src python3 -c '
#   from refine_es.checkpoint import load_checkpoint, save_checkpoint
#   for name in ("mid_ppo", "mid_es"):
#       path = f"tests/golden/{name}_checkpoint.npz"
#       state = load_checkpoint(path)
#       state.pop("handoff")
#       state.pop("format_version")
#       save_checkpoint(path, state)'
#
# Format 4 measures an ES record's center return at the start of its
# generation, so the mid-ES golden stays in format 3, as a file that must be
# refused. A PPO checkpoint holds no ES record, and the mid-PPO golden was
# moved to format 4, in a checkout of 0319c30 (the last version that read
# format 3), with
#
#   PYTHONPATH=src python3 -c '
#   import refine_es.checkpoint as checkpoint
#   path = "tests/golden/mid_ppo_checkpoint.npz"
#   state = checkpoint.load_checkpoint(path)
#   state.pop("format_version")
#   checkpoint.FORMAT_VERSION = 4
#   checkpoint.save_checkpoint(path, state)'
def _mid_ppo_plan():
    return tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400,
                     ppo={"episodes_per_update": 2, "hidden_dims": [8],
                          "optimizer": "adam"})


def _golden_mid_ppo(out):
    """Put the golden checkpoint in place as the checkpoint of
    `_mid_ppo_plan`'s cell under `out`; returns its path."""
    import shutil

    path = _checkpoint_path(out)
    os.makedirs(os.path.dirname(path))
    shutil.copy(os.path.join(os.path.dirname(__file__), "golden",
                             "mid_ppo_checkpoint.npz"), path)
    return path


def _final_json(out):
    with open(os.path.join(cell_dir(out, "point-reach", "ppo_then_tdes", 0),
                           "checkpoints", "final.json"), "rb") as fh:
        return fh.read()


def test_mid_ppo_checkpoint_resumes_bitwise(tmp_path):
    plan = _mid_ppo_plan()
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))
    golden = str(tmp_path / "golden")
    state = load_checkpoint(_golden_mid_ppo(golden))
    assert (state["format_version"], state["stage"],
            state["update_index"]) == (4, "ppo", 1)
    resumed = run_method(plan, "ppo_then_tdes", 0, golden)
    assert _cell_bits(golden, resumed) == \
        _cell_bits(str(tmp_path / "clean"), clean)
    assert _final_json(golden) == _final_json(str(tmp_path / "clean"))
    assert _resume_state(golden) == []


def test_golden_and_fresh_checkpoints_of_one_update_resume_alike(
        tmp_path, monkeypatch):
    plan = _mid_ppo_plan()
    golden = str(tmp_path / "golden")
    cut = str(tmp_path / "cut")
    _golden_mid_ppo(golden)
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 3)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_then_tdes", 0, cut)
    # the converted golden's state is a fresh cut's, bit for bit
    old, new = (pipeline_module._load_state(
        pipeline_module._Cell(plan, "ppo_then_tdes", 0, out))
        for out in (golden, cut))
    assert old["format_version"] == new["format_version"] == 4
    assert sorted(old) == sorted(new)
    for key in ("params", "adam_m", "adam_v"):
        assert old.pop(key).tobytes() == new.pop(key).tobytes()
    assert old == new
    records = [run_method(plan, "ppo_then_tdes", 0, out)
               for out in (golden, cut)]
    assert _cell_bits(golden, records[0]) == _cell_bits(cut, records[1])
    assert _final_json(golden) == _final_json(cut)


def test_log_csv_is_durable_before_record_json(tmp_path, monkeypatch):
    # record.json marks a cell finished and resume never rewrites its files,
    # so log.csv must be fsynced and in place before record.json is renamed
    events = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino,
                       os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    out = str(tmp_path)
    run_method(tiny_plan(methods=["ppo_then_tdes"], seeds=[0]),
               "ppo_then_tdes", 0, out)
    renamed = [e[2] for e in events if e[0] == "replace"]
    assert renamed.index("log.csv") < renamed.index("record.json")
    i = next(i for i, e in enumerate(events)
             if e[0] == "replace" and e[2] == "log.csv")
    assert events[i - 1] == ("fsync", events[i][1])
    with open(os.path.join(cell_dir(out, "point-reach", "ppo_then_tdes", 0),
                           "log.csv"), newline="") as fh:
        assert fh.readline() == "# refine-es generation log, format 1\n"
        assert fh.readline() == ("generation,g_norm,mean_return,best_return,"
                                 "sigma_es,center_return,steps_used\r\n")


def test_unreadable_checkpoint_fails_its_cell_naming_the_file(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0])
    out = str(tmp_path)
    path = _checkpoint_path(out)
    os.makedirs(os.path.dirname(path))
    open(path, "wb").close()
    payload = sweep(plan, out)
    records = payload["records"]
    assert records[0]["failed"]
    assert f"CheckpointError: {path}: unreadable checkpoint" in \
        payload["failures"][0]["failure"]


def test_sweep_runs_one_loop_per_update_generation_and_cell(tmp_path,
                                                            monkeypatch):
    # every rollout loop steps the env `horizon` times; a seed runs its PPO
    # updates once, each ES stage one loop per generation, and every cell
    # its final evaluation alone, as one `evaluate_center` call. A change
    # that brings back a standalone center evaluation loop fails here
    import refine_es.engine as engine
    from refine_es.envs import ToyEnv

    steps, evaluations, cells = [], [], []
    step, evaluate = ToyEnv.step, engine.evaluate_center
    run = pipeline_module.run_method

    def counted_step(self, actions):
        steps.append(1)
        return step(self, actions)

    def counted_evaluate(*args):
        evaluations.append(cells[-1])
        return evaluate(*args)

    def noted_run(plan, method, seed, out_dir):
        cells.append(method)
        return run(plan, method, seed, out_dir)

    monkeypatch.setattr(ToyEnv, "step", counted_step)
    monkeypatch.setattr(engine, "evaluate_center", counted_evaluate)
    monkeypatch.setattr(pipeline_module, "run_method", noted_run)
    payload = sweep(tiny_plan(seeds=[0], total_step_budget=1400),
                    str(tmp_path))
    records = payload["records"]
    assert payload["failures"] == []
    assert evaluations == ["ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"]
    by_method = {r["method"]: r for r in records}
    loops = len(by_method["ppo_only"]["ppo_curve"]) + 1 + sum(
        len(by_method[m]["es_records"]) + 1
        for m in ("ppo_then_tdes", "ppo_then_gaussian_es"))
    assert len(steps) == 100 * loops == 100 * (7 + 1 + 3 + 3)


def test_stream_ledger_of_a_sweep(tmp_path, monkeypatch):
    # every stream_seed key that a serial sweep of all three methods draws,
    # with the cell that drew it
    from refine_es import engine, rng
    from refine_es.rng import (TAG_ACTION, TAG_CENTER_EVAL, TAG_ENV,
                               TAG_FINAL_EVAL, TAG_NOISE)

    draws = []  # (method, plan seed, key, 64-bit seed)
    cell = []
    stream_seed = rng.stream_seed

    def ledger(*key):
        value = stream_seed(*key)
        # a draw of the group phase, outside every cell, is the PPO run of
        # the first cell of the seed that its key carries
        owner = cell[-1] if cell else (plan.methods[0], key[0])
        draws.append((*owner, key, value, not cell))
        return value

    for module in (rng, engine, pipeline_module):
        monkeypatch.setattr(module, "stream_seed", ledger)
    run = pipeline_module.run_method

    def attributed_run(plan, method, seed, out_dir):
        cell.append((method, seed))
        try:
            return run(plan, method, seed, out_dir)
        finally:
            cell.pop()

    monkeypatch.setattr(pipeline_module, "run_method", attributed_run)
    es = {"m": 2, "sigma_es": 0.05, "alpha": 0.01,
          "episodes_per_candidate": 2, "center_eval_episodes": 2}
    plan = tiny_plan(total_step_budget=3000, es=es)
    payload = sweep(plan, str(tmp_path))
    records = payload["records"]
    assert payload["failures"] == []

    assert {seed for _, seed, _, _, grouped in draws if grouped} == \
        set(plan.seeds)
    seeds, cells = {}, {}
    for method, seed, key, value, _ in draws:
        assert seeds.setdefault(key, value) == value
        cells.setdefault(key, []).append((method, seed))
    assert len(set(seeds.values())) == len(seeds), "two keys share a seed"
    for key, drawn in cells.items():
        assert len({seed for _, seed in drawn}) == 1, key
        assert len(set(drawn)) == len(drawn), f"{drawn} drew {key} twice"

    # a key drawn by two cells is shared by design: the ES and center
    # evaluation streams by the two ES methods of a seed, the final
    # evaluation episodes by every cell of a seed
    center = {seeds[k] for k in seeds if k[1:2] == (TAG_CENTER_EVAL,)}
    final = {seeds[k] for k in seeds if k[1:] == (TAG_FINAL_EVAL,)}
    es_methods = {"ppo_then_tdes", "ppo_then_gaussian_es"}
    shared = {"es": 0, "final": 0}
    for key, drawn in cells.items():
        if len(drawn) == 1:
            continue
        methods = {method for method, _ in drawn}
        if key[0] in plan.seeds and key[1] in (TAG_NOISE, TAG_ENV, TAG_ACTION,
                                               TAG_CENTER_EVAL) \
                or key[0] in center:
            assert methods == es_methods, key
            shared["es"] += 1
        else:
            assert key[1:] == (TAG_FINAL_EVAL,) or key[0] in final, key
            assert methods == set(plan.methods), key
            shared["final"] += 1
    # per seed: each generation's m noise vectors, m x 2 env seeds and
    # action noises, center-evaluation seed and 2 center episodes; the
    # final-evaluation seed and its 3 episodes
    generations = [len(r["es_records"]) for r in records
                   if r["method"] == "ppo_then_tdes"]
    assert generations == [2, 2]
    assert shared == {"es": 2 * 2 * (2 + 2 * 2 * 2 + 1 + 2),
                      "final": 2 * (1 + 3)}


@st.composite
def _valid_plans(draw):
    """A plan document over every task, budgets from one step to about
    3000, any split in (0, 1], tiny ES and PPO sections, 1-2 seeds and any
    non-empty subset of the methods."""
    methods = draw(st.lists(st.sampled_from(
        ["ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"]),
        min_size=1, max_size=3, unique=True))
    split = draw(st.floats(0.0, 1.0, exclude_min=True, allow_nan=False))
    return {
        "task": draw(st.sampled_from(env_ids())),
        "methods": methods,
        "total_step_budget": draw(st.integers(1, 3000)),
        "split": split,
        "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2,
                               unique=True)),
        "eval_episodes": draw(st.integers(1, 2)),
        "es": {"m": draw(st.integers(1, 3)), "sigma_es": 0.05,
               "alpha": 0.01},
        "ppo": {"episodes_per_update": draw(st.integers(1, 3)),
                "minibatch_size": draw(st.integers(1, 3)), "epochs": 1,
                "hidden_dims": [2]},
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(raw=_valid_plans())
def test_a_valid_plan_sweeps_without_a_failed_cell(raw):
    # each drawn plan either fails at load with a PlanError, or sweeps with
    # no failed cell, every record spending its budget as the equal-budget
    # premise allows; one PPO epoch keeps the examples cheap

    try:
        plan = plan_from_dict(raw)
    except PlanError:
        return
    with tempfile.TemporaryDirectory() as out:
        payload = sweep(plan, out)
    assert payload["failures"] == []
    for record in payload["records"]:
        assert record["ppo_steps"] + record["es_steps"] == \
            record["steps_consumed"]
        cell = pipeline_module._Cell(plan, record["method"], record["seed"],
                                     "")
        assert pipeline_module._budget_shortfall(cell, record) is None
