import csv
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from interrupts import interrupt_after_generation

from refine_es.checkpoint import load_checkpoint, load_json, save_json_atomic
from refine_es.cli import main
from refine_es import pipeline as pipeline_module
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
    # a section takes no config field that a cell sets, nor Adam's betas
    # and eps
    for section, names in (
            ("es", ("generations", "step_cap", "seed", "distribution")),
            ("ppo", ("total_steps", "seed", "adam_beta1", "adam_beta2",
                     "adam_eps"))):
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
    with pytest.raises(PlanError, match="handoff_window"):
        tiny_plan(handoff_window=0)
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


_FLOAT_KEYS = ("split", "handoff_success_threshold", "es.sigma_es",
               "es.alpha", "es.lambda_sigma", "es.sigma_min", "es.action_std",
               "ppo.learning_rate", "ppo.value_coef", "ppo.entropy_coef",
               "ppo.init_log_std", "ppo.gamma", "ppo.gae_lambda",
               "ppo.clip_epsilon")


@pytest.mark.parametrize("key, value", [
    ("total_step_budget", "1000"),
    ("total_step_budget", 1000.5),
    ("total_step_budget", True),
    ("eval_episodes", 2.5),
    ("seeds", [0.7]),
    ("seeds", [False]),
    ("split", "0.5"),
    ("handoff_window", 1.0),
    ("handoff_success_threshold", "high"),
    ("es.m", 2.5),
    ("es.alpha", "0.01"),
    ("es.standardize_noise", 1),
    ("ppo.episodes_per_update", 2.5),
    ("ppo.hidden_dims", [8.0]),
    ("ppo.optimizer", 1),
    ("es", [["m", 2]]),
    ("methods", "ppo_only"),
    ("task", ["point-reach"]),
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
    assert rec.steps_consumed <= plan.total_step_budget
    assert rec.ppo_steps + rec.es_steps == rec.steps_consumed
    assert rec.es_steps > 0 and rec.ppo_steps > 0
    # a second call must short-circuit on record.json with identical content
    again = run_method(plan, "ppo_then_tdes", 0, out)
    assert again.to_dict() == rec.to_dict()


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
    assert rec.es_steps == 0
    assert rec.es_records == []


def test_anchor_shared_across_two_stage_methods(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes", "ppo_then_gaussian_es"])
    records, _ = sweep(plan, str(tmp_path))
    by_key = {(r.method, r.seed): r for r in records}
    for seed in plan.seeds:
        a = by_key[("ppo_then_tdes", seed)]
        b = by_key[("ppo_then_gaussian_es", seed)]
        assert a.anchor_sha256 == b.anchor_sha256
        assert a.anchor_sha256 != ""
    # different seeds produce different anchors
    assert by_key[("ppo_then_tdes", 0)].anchor_sha256 != \
        by_key[("ppo_then_tdes", 1)].anchor_sha256


def test_sweep_full_matrix_and_report(tmp_path):
    plan = tiny_plan()
    out = str(tmp_path)
    records, payload = sweep(plan, out)
    assert len(records) == 3 * 2
    assert [r.failed for r in records] == [False] * 6
    assert sorted({r.method for r in records}) == sorted(plan.methods)
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
    records, payload = sweep(plan, str(tmp_path))
    assert [r.failed for r in records] == [False, True]
    assert "synthetic cell failure" in records[1].failure
    assert payload["failures"][0]["seed"] == 1
    # the surviving cell still contributes to the report
    assert payload["report"]["methods"]["ppo_only"]


def test_ppo_only_uses_full_budget_for_ppo(tmp_path):
    plan = tiny_plan(methods=["ppo_only"], seeds=[0])
    rec = run_method(plan, "ppo_only", 0, str(tmp_path))
    assert rec.es_steps == 0
    # 5 updates of 200 steps fit in 1000
    assert rec.ppo_steps == 1000


def test_budget_never_exceeded(tmp_path):
    plan = tiny_plan()
    records, _ = sweep(plan, str(tmp_path))
    for r in records:
        assert r.steps_consumed <= r.budget


def test_resume_after_interrupt_bitwise(tmp_path):
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400)
    clean = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "clean"))

    with interrupt_after_generation(0), pytest.raises(KeyboardInterrupt):
        run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))

    assert resumed.anchor_sha256 == clean.anchor_sha256
    assert resumed.final_success_rate == clean.final_success_rate
    assert resumed.steps_consumed == clean.steps_consumed
    fa = load_json(os.path.join(cell_dir(str(tmp_path / "clean"),
                                         "point-reach", "ppo_then_tdes", 0),
                                "checkpoints", "final.json"))
    fb = load_json(os.path.join(cell_dir(str(tmp_path / "cut"),
                                         "point-reach", "ppo_then_tdes", 0),
                                "checkpoints", "final.json"))
    assert fa["params"] == fb["params"]


def test_handoff_heuristic_stops_ppo_early(tmp_path):
    # threshold 0 with a window of 1 fires after the first update
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     handoff_success_threshold=0.0, handoff_window=1)
    rec = run_method(plan, "ppo_then_tdes", 0, str(tmp_path))
    assert rec.ppo_steps == 200  # exactly one update before handing off
    assert rec.es_steps > 0


def _final_params(out, method="ppo_then_tdes", seed=0):
    return load_json(os.path.join(cell_dir(out, "point-reach", method, seed),
                                  "checkpoints", "final.json"))["params"]


def test_resume_across_handoff_bitwise(tmp_path, monkeypatch):
    # interrupt after the handoff PPO checkpoint, before the first ES one
    import refine_es.pipeline as pipeline

    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     handoff_success_threshold=0.0, handoff_window=1)
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
    assert (state["stage"], state["update_index"]) == ("ppo", 0)
    updates = _count_ppo_updates(monkeypatch)
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    assert updates == []  # the PPO run stops at once where it was cut

    assert clean.ppo_steps == resumed.ppo_steps == 200
    assert resumed.anchor_sha256 == clean.anchor_sha256
    assert resumed.ppo_curve == clean.ppo_curve
    assert _final_params(str(tmp_path / "cut")) == \
        _final_params(str(tmp_path / "clean"))


def _checkpoint_path(out, method="ppo_then_tdes", seed=0):
    return os.path.join(cell_dir(out, "point-reach", method, seed),
                        "checkpoints", "checkpoint.npz")


def _es_records(rec):
    return [r | {"wall_time": 0} for r in rec.es_records]


def _interrupt_ppo_update(monkeypatch, n):
    """Raise KeyboardInterrupt from the n-th ppo.ppo_update call."""
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
    assert len(clean.ppo_curve) == 3

    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 2)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))
    resumed = run_method(plan, "ppo_then_tdes", 0, str(tmp_path / "cut"))

    assert resumed.anchor_sha256 == clean.anchor_sha256
    assert resumed.ppo_curve == clean.ppo_curve
    assert _es_records(resumed) == _es_records(clean)
    assert _final_params(str(tmp_path / "cut")) == \
        _final_params(str(tmp_path / "clean"))


def test_ppo_checkpoint_keeps_format_2_members(tmp_path, monkeypatch):
    # the member set of format 2, so checkpoints written before the
    # actor-critic became one vector still resume, and vice versa
    plan = tiny_plan(methods=["ppo_only"], seeds=[0], total_step_budget=800,
                     ppo={"episodes_per_update": 2, "hidden_dims": [8],
                          "optimizer": "adam"})
    clean = run_method(plan, "ppo_only", 0, str(tmp_path / "clean"))
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 3)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, str(tmp_path / "cut"))

    parts = ("actor_params", "log_std", "critic_params")
    with np.load(_checkpoint_path(str(tmp_path / "cut"), "ppo_only")) as npz:
        members = {name: npz[name] for name in npz.files}
    meta = json.loads(members["meta"].tobytes())
    assert sorted(members) == sorted(
        ["meta"] + [f"actor_critic.{p}" for p in parts]
        + [f"optimizer.states.{i}.{k}" for i in range(3) for k in "mv"])
    assert meta["format_version"] == 2 and meta["update_index"] == 1
    assert [s["t"] for s in meta["optimizer"]["states"]] == [32, 32, 32]
    for i, p in enumerate(parts):
        assert members[f"actor_critic.{p}"].dtype == np.float64
        for k in "mv":
            assert members[f"optimizer.states.{i}.{k}"].shape == \
                members[f"actor_critic.{p}"].shape

    resumed = run_method(plan, "ppo_only", 0, str(tmp_path / "cut"))
    assert resumed.anchor_sha256 == clean.anchor_sha256
    assert resumed.ppo_curve == clean.ppo_curve
    assert _final_params(str(tmp_path / "cut"), "ppo_only") == \
        _final_params(str(tmp_path / "clean"), "ppo_only")


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


_RUN_SEED = pipeline_module._run_seed


def _run_seed_noting_blas_threads(args):
    """`pipeline._run_seed`, which first writes the BLAS thread count of
    the process it runs in to <out>/blas-<seed>."""
    _plan, seed, out_dir = args
    with open(os.path.join(out_dir, f"blas-{seed}"), "w") as fh:
        fh.write(str(_blas_threads()))
    return _RUN_SEED(args)


def test_pool_workers_share_the_cpus_among_blas_threads(tmp_path,
                                                        monkeypatch):
    # one BLAS thread per worker, whatever the CPU count: a thread that
    # spins waiting for a CPU only slows the cells down
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    monkeypatch.setattr(pipeline_module, "_run_seed",
                        _run_seed_noting_blas_threads)
    _, payload = sweep(tiny_plan(methods=["ppo_only"]), str(tmp_path),
                       workers=2)
    assert payload["failures"] == []
    assert [(tmp_path / f"blas-{s}").read_text() for s in (0, 1)] == ["1"] * 2
    assert _blas_threads() == before  # the sweep process keeps its own


def test_serial_sweep_runs_blas_on_one_thread_then_restores_it(tmp_path,
                                                               monkeypatch):
    if _blas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    monkeypatch.setattr(pipeline_module, "_run_seed",
                        _run_seed_noting_blas_threads)
    # a count other than 1, so that the restore shows
    original = pipeline_module._set_blas_threads(2)
    try:
        _, payload = sweep(tiny_plan(methods=["ppo_only"]), str(tmp_path))
        after = _blas_threads()
    finally:
        pipeline_module._set_blas_threads(original)
    assert payload["failures"] == []
    assert [(tmp_path / f"blas-{s}").read_text() for s in (0, 1)] == ["1"] * 2
    assert after == 2


def _resume_state(out):
    """Every checkpoint and stale temp file left under `out`/runs."""
    return sorted(os.path.relpath(os.path.join(d, f), out)
                  for d, _, files in os.walk(os.path.join(out, "runs"))
                  for f in files if f == "checkpoint.npz" or f.endswith(".tmp"))


@pytest.mark.parametrize("workers", [1, 2])
def test_finished_cells_keep_no_resume_state(tmp_path, workers):
    out = str(tmp_path)
    records, payload = sweep(tiny_plan(), out, workers=workers)
    assert payload["failures"] == [] and len(records) == 6
    assert _resume_state(out) == []
    for r in records:
        cdir = cell_dir(out, "point-reach", r.method, r.seed)
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
    clean, _ = sweep(plan, str(tmp_path / "clean"))
    out = str(tmp_path / "out")

    def evaluate_center(*args):  # ppo_only's final evaluation
        raise RuntimeError("synthetic failure in the final evaluation")

    with monkeypatch.context() as m:
        m.setattr(engine, "evaluate_center", evaluate_center)
        records, _ = sweep(plan, out)
    assert records[0].failed
    cdir = cell_dir(out, "point-reach", "ppo_only", 0)
    assert not os.path.exists(os.path.join(cdir, "record.json"))
    assert load_checkpoint(_checkpoint_path(out, "ppo_only"))[
        "update_index"] == 4
    updates = _count_ppo_updates(monkeypatch)
    resumed, _ = sweep(plan, out)
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
    records, _ = sweep(plan, out)
    save_json_atomic(os.path.join(out, "plan.json"), plan.to_dict())
    kept = {}
    for r in records:
        cdir = cell_dir(out, "point-reach", r.method, r.seed)
        for name in ("checkpoint.npz", "checkpoint.npz.tmp"):
            with open(os.path.join(cdir, "checkpoints", name), "wb") as fh:
                fh.write(b"PK\x03\x04 stale")
        for name in ("record.json", "log.csv",
                     os.path.join("checkpoints", "final.json")):
            with open(os.path.join(cdir, name), "rb") as fh:
                kept[(r.method, r.seed, name)] = fh.read()
    assert len(_resume_state(out)) == 12

    assert main(["resume", "--dir", out]) == 0
    assert _resume_state(out) == []
    for (method, seed, name), data in kept.items():
        with open(os.path.join(cell_dir(out, "point-reach", method, seed),
                               name), "rb") as fh:
            assert fh.read() == data


@pytest.mark.parametrize("field, value, message", [
    ("format_version", 1, "field 'format_version' is 1"),
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


def test_resume_refuses_json_checkpoint(tmp_path):
    plan = tiny_plan(methods=["ppo_only"], seeds=[0])
    legacy = os.path.join(cell_dir(str(tmp_path), "point-reach", "ppo_only", 0),
                          "checkpoints", "checkpoint.json")
    os.makedirs(os.path.dirname(legacy))
    with open(legacy, "w") as fh:
        json.dump({"format_version": 1, "stage": "ppo"}, fh)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{legacy}: field 'format_version' "
                                       f"is 1")):
        run_method(plan, "ppo_only", 0, str(tmp_path))


def test_resume_refuses_changed_handoff_rule(tmp_path):
    # the handoff rule sets where PPO stopped, so a changed rule is refused
    plan = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                     total_step_budget=1400, handoff_success_threshold=0.0,
                     handoff_window=1)
    out = str(tmp_path)
    _cut_in_es(plan, out)
    changed = tiny_plan(methods=["ppo_then_tdes"], seeds=[0],
                        total_step_budget=1400)
    with pytest.raises(CheckpointError,
                       match=r"checkpoint\.npz: field 'handoff\."
                             r"success_threshold' is 0\.0 but the plan gives "
                             r"None"):
        run_method(changed, "ppo_then_tdes", 0, out)


def _handoff_plan(**kw):
    # the handoff rule fires after PPO's first update
    return tiny_plan(total_step_budget=4000, handoff_success_threshold=0.0,
                     handoff_window=1, **kw)


def test_ppo_only_ignores_handoff_rule(tmp_path):
    plan = _handoff_plan(methods=["ppo_only"], seeds=[0])
    rec = run_method(plan, "ppo_only", 0, str(tmp_path))
    assert rec.ppo_steps == rec.steps_consumed == 4000
    assert len(rec.ppo_curve) == 20


def test_ppo_only_refuses_checkpoint_with_handoff_rule(tmp_path, monkeypatch):
    # before ppo_only ignored the handoff rule, its checkpoints recorded the
    # plan's rule; resuming one would mix two different runs
    import refine_es.checkpoint as checkpoint

    plan = _handoff_plan(methods=["ppo_only"], seeds=[0])
    out = str(tmp_path)
    with monkeypatch.context() as m:
        _interrupt_ppo_update(m, 2)
        with pytest.raises(KeyboardInterrupt):
            run_method(plan, "ppo_only", 0, out)
    path = _checkpoint_path(out, "ppo_only")
    state = checkpoint.load_checkpoint(path)
    assert state["handoff"] == {"success_threshold": None, "window": 1}
    state["handoff"] = {"success_threshold": 0.0, "window": 1}
    checkpoint.save_checkpoint(path, state)
    with pytest.raises(CheckpointError,
                       match=r"checkpoint\.npz: field 'handoff\."
                             r"success_threshold' is 0\.0 but the plan gives "
                             r"None"):
        run_method(plan, "ppo_only", 0, out)


def test_handoff_sweep_keeps_equal_budgets(tmp_path):
    records, payload = sweep(_handoff_plan(seeds=[0]), str(tmp_path))
    assert payload["failures"] == []
    steps = {r.method: (r.ppo_steps, r.es_steps) for r in records}
    assert steps == {"ppo_only": (4000, 0), "ppo_then_tdes": (200, 3600),
                     "ppo_then_gaussian_es": (200, 3600)}


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

    original = pipeline.run_method

    def skewed(plan_, method_, seed, out_dir):
        rec = original(plan_, method_, seed, out_dir)
        if (method_, seed) == (method, 1):
            rec.steps_consumed += delta
        return rec

    monkeypatch.setattr(pipeline, "run_method", skewed)
    out = str(tmp_path)
    records, payload = sweep(tiny_plan(), out)
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [(method, 1)]
    assert payload["failures"][0]["failure"] == message
    assert sum(r.failed for r in records) == 1

    # the failed record is on disk: report leaves the cell out, and a
    # resume fails it again with the same message
    monkeypatch.undo()
    stored = load_json(os.path.join(cell_dir(out, "point-reach", method, 1),
                                    "record.json"))
    assert (stored["failed"], stored["failure"]) == (True, message)
    save_json_atomic(os.path.join(out, "plan.json"), tiny_plan().to_dict())
    assert main(["report", "--dir", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("missing cells (1):")
    assert lines[start + 1] == f"  point-reach {method} seed 1"
    _, again = sweep(tiny_plan(), out)
    assert again["failures"] == payload["failures"]


def _cell_bits(out, rec):
    """Everything a cell computes, apart from wall times."""
    params = _final_params(out, rec.method, rec.seed)
    return {
        "final_sha256": hashlib.sha256(
            np.asarray(params, dtype="<f8").tobytes()).hexdigest(),
        "anchor_sha256": rec.anchor_sha256, "ppo_curve": rec.ppo_curve,
        "es_records": _es_records(rec), "final": (rec.final_success_rate,
                                                  rec.final_mean_return),
        "steps": (rec.steps_consumed, rec.ppo_steps, rec.es_steps),
        "failed": rec.failed,
    }


def _sweep_bits(out, records):
    return {(r.method, r.seed): _cell_bits(out, r) for r in records}


def _count_ppo_updates(monkeypatch):
    import refine_es.ppo as ppo

    original = ppo.ppo_update
    seeds = []

    def update(ac, buffer, config, optimizer, update_index):
        seeds.append(config.seed)
        return original(ac, buffer, config, optimizer, update_index)

    monkeypatch.setattr(ppo, "ppo_update", update)
    return seeds


@pytest.mark.parametrize("methods", [
    ["ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"],
    ["ppo_then_tdes", "ppo_only", "ppo_then_gaussian_es"],
    ["ppo_then_tdes", "ppo_then_gaussian_es", "ppo_only"],
], ids=["ppo_only_first", "ppo_only_middle", "ppo_only_last"])
def test_sweep_trains_ppo_once_per_seed(tmp_path, monkeypatch, methods):
    # unless ppo_only runs first, a two-stage cell plants ppo_only's PPO
    # checkpoint at the fork, Adam moments included
    adam = {"episodes_per_update": 2, "hidden_dims": [8], "optimizer": "adam"}
    plan = tiny_plan(methods=methods, ppo=adam)
    alone = {}
    for method in plan.methods:
        for seed in plan.seeds:
            out = str(tmp_path / f"{method}-{seed}")
            rec = run_method(tiny_plan(methods=[method], ppo=adam), method,
                             seed, out)
            alone[(method, seed)] = _cell_bits(out, rec)

    updates = _count_ppo_updates(monkeypatch)
    records, _ = sweep(plan, str(tmp_path / "sweep"))
    ppo_only = {r.seed: len(r.ppo_curve) for r in records
                if r.method == "ppo_only"}
    assert ppo_only == {0: 5, 1: 5}
    assert {s: updates.count(s) for s in plan.seeds} == ppo_only
    assert _sweep_bits(str(tmp_path / "sweep"), records) == alone


def test_resume_after_cut_past_fork_bitwise(tmp_path, monkeypatch):
    # the fork is after update 1; cut ppo_only at update 3
    plan = tiny_plan(seeds=[0])
    clean, _ = sweep(plan, str(tmp_path / "clean"))
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
    resumed, _ = sweep(plan, cut)
    assert updates == [0, 0]  # updates 3 and 4 of ppo_only
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_resume_after_cut_mid_es_past_fork_bitwise(tmp_path, monkeypatch):
    plan = tiny_plan(seeds=[0], total_step_budget=1400)
    clean, _ = sweep(plan, str(tmp_path / "clean"))
    cut = str(tmp_path / "cut")
    with interrupt_after_generation(0), pytest.raises(KeyboardInterrupt):
        sweep(plan, cut)
    assert os.path.exists(os.path.join(
        cell_dir(cut, "point-reach", "ppo_only", 0), "record.json"))
    state = load_checkpoint(_checkpoint_path(cut, "ppo_then_tdes"))
    assert state["generation_index"] == 0
    updates = _count_ppo_updates(monkeypatch)
    resumed, _ = sweep(plan, cut)
    assert updates == []
    assert _sweep_bits(cut, resumed) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_fork_leaves_started_sibling_alone(tmp_path, monkeypatch):
    import refine_es.engine as engine

    plan = tiny_plan(seeds=[0], total_step_budget=3000)
    clean, _ = sweep(plan, str(tmp_path / "clean"))
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
        starts[config.distribution] = kw.get("start_generation")
        return original(anchor, arch, env, config, **kw)

    monkeypatch.setattr(engine, "tdes_run", tdes_run)
    records, _ = sweep(plan, out)
    assert starts == {"triangular": 3, "gaussian": 0}
    assert _sweep_bits(out, records) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_first_cell_failure_after_fork_spares_siblings(tmp_path,
                                                       monkeypatch):
    import refine_es.engine as engine

    plan = tiny_plan(seeds=[0])
    clean, _ = sweep(plan, str(tmp_path / "clean"))
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
    records, payload = sweep(plan, out)
    assert len(updates) == 5
    assert [(f["method"], f["seed"]) for f in payload["failures"]] == \
        [("ppo_only", 0)]
    assert "synthetic failure after the fork" in \
        payload["failures"][0]["failure"]
    ok = [r for r in records if not r.failed]
    assert _sweep_bits(out, ok) == {
        k: v for k, v in _sweep_bits(str(tmp_path / "clean"), clean).items()
        if k[0] != "ppo_only"}


def test_ppo_only_past_fork_plants_nothing(tmp_path, monkeypatch):
    # an older version ran every ppo_only cell first, so an interrupted
    # sweep can hold a ppo_only checkpoint beyond the fork and nothing in
    # its siblings; those must train their own PPO, not start from it
    plan = tiny_plan(seeds=[0])
    clean, _ = sweep(plan, str(tmp_path / "clean"))
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
    records, _ = sweep(plan, out)
    assert len(updates) == 4  # ppo_then_tdes trained its own anchor
    assert _sweep_bits(out, records) == \
        _sweep_bits(str(tmp_path / "clean"), clean)


def test_cut_while_planting_plants_again_on_resume(tmp_path, monkeypatch):
    # the fork plants the siblings before the cell's own checkpoint of that
    # update, so a cut between the two leaves the cell before the fork
    import refine_es.pipeline as pipeline

    plan = tiny_plan(seeds=[0])
    clean, _ = sweep(plan, str(tmp_path / "clean"))
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
    resumed, _ = sweep(plan, cut)
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
        assert meta["optimizer"]["states"][0]["t"] == 32
        assert _members(_checkpoint_path(planted, sibling)) == at_fork


def test_parent_generation_minus_one_checkpoint_resumes_bitwise(
        tmp_path, monkeypatch):
    # before a fresh ES stage started in memory, every two-stage cell saved
    # its ES stage before the first generation, and the fork planted it
    import refine_es.checkpoint as checkpoint
    import refine_es.pipeline as pipeline

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
    params = ppo_state["actor_critic"]["actor_params"]
    checkpoint.save_checkpoint(path, {
        "stage": "es", "generation_index": -1, "params": params,
        "steps_used": 0, "records": [],
        "es_config": {"sigma_es": 0.05, "alpha": 0.01, "m": 2,
                      "generations": 2, "lambda_sigma": 0.99,
                      "sigma_min": 1e-3, "distribution": "triangular",
                      "action_std": 0.01, "seed": 0,
                      "episodes_per_candidate": 1, "step_cap": 800,
                      "standardize_noise": False, "center_eval_episodes": 1},
        "ppo_config": ppo_state["ppo_config"],
        "handoff": ppo_state["handoff"], "master_seed": 0,
        "architecture": ppo_state["actor_critic"]["actor_arch"],
        "anchor_params": params,
        "anchor_sha256": hashlib.sha256(params.astype("<f8").tobytes())
        .hexdigest(), "ppo_steps": 600, "ppo_curve": ppo_state["curve"]})
    updates = _count_ppo_updates(monkeypatch)
    resumed = run_method(plan, "ppo_then_tdes", 0, cut)
    assert updates == []
    assert _cell_bits(cut, resumed) == \
        _cell_bits(str(tmp_path / "clean"), clean)


def test_at_fork_asks_every_prefix():
    import refine_es.pipeline as pipeline

    plan = tiny_plan(handoff_success_threshold=0.5, handoff_window=1)
    # the fork is the two-stage run's, whichever cell asks
    for method in plan.methods:
        cell = pipeline._Cell(plan, method, 0, "")
        # the rule fires after update 0 and no longer holds after update 1
        curve = [{"success_rate": s, "steps_used": 200 * (i + 1)}
                 for i, s in enumerate([1.0, 0.0])]
        assert cell.at_fork(curve[:1])
        # the step bound stops the run after update 1, but it ended before
        assert not cell.at_fork(curve)
        # without the rule the fork is the step bound: 2 updates fit 500
        # steps
        cell = pipeline._Cell(tiny_plan(), method, 0, "")
        assert not cell.at_fork(curve[:1])
        assert cell.at_fork(curve)
        assert not cell.at_fork(curve + [{"success_rate": 0.0,
                                          "steps_used": 600}])
