import json
import os

import pytest
from interrupts import interrupt_after_generation

from refine_es import pipeline
from refine_es.cli import main
from refine_es.stats import aggregate_report, render_report

TINY_PLAN = {
    "task": "point-reach",
    "methods": ["ppo_only", "ppo_then_tdes"],
    "total_step_budget": 1000,
    "split": 0.5,
    "seeds": [0],
    "eval_episodes": 2,
    "es": {"m": 2, "sigma_es": 0.05, "alpha": 0.01},
    "ppo": {"episodes_per_update": 2, "hidden_dims": [8]},
}


def write_plan(tmp_path, payload=TINY_PLAN, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_malformed_json_exit_2_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "task": "point-reach",\n  oops\n}')
    code = main(["run", "--plan", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid JSON" in err and "line 3" in err


@pytest.mark.parametrize("key, value", [("total_step_budget", "1000"),
                                        ("total_step_budget", 1000.5),
                                        ("seeds", [0.7])])
def test_mistyped_plan_value_exit_2_at_load(tmp_path, capsys, key, value):
    out = str(tmp_path / "out")
    code = main(["run", "--plan", write_plan(tmp_path, dict(TINY_PLAN,
                                                            **{key: value})),
                 "--out", out])
    assert code == 2
    assert f"plan key '{key}' must be" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("section, key, text", [
    ("es", "sigma_es", "1e999"), ("ppo", "learning_rate", "1e999"),
    ("es", "alpha", "NaN"), ("ppo", "init_log_std", "-Infinity")])
def test_non_finite_plan_number_exit_2_at_load(tmp_path, capsys, section,
                                               key, text):
    # strict JSON parses 1e999 to inf, and json.load takes NaN and Infinity
    plan = dict(TINY_PLAN, **{section: dict(TINY_PLAN[section], **{key: 0})})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan).replace(f'"{key}": 0', f'"{key}": {text}'))
    out = str(tmp_path / "out")
    code = main(["run", "--plan", str(path), "--out", out])
    assert code == 2
    assert f"plan key '{section}.{key}' must be" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_plan_with_handoff_keys_exit_2_at_load(tmp_path, capsys):
    # the early-handoff rule is retired, and no plan that holds its keys
    # reads, the rule off (a null threshold) included
    for keys, named in (({"handoff_success_threshold": None,
                          "handoff_window": 5}, "handoff_success_threshold"),
                        ({"handoff_success_threshold": 0.5,
                          "handoff_window": 1}, "handoff_success_threshold"),
                        ({"handoff_window": 5}, "handoff_window")):
        out = str(tmp_path / "out")
        code = main(["run", "--plan", write_plan(tmp_path, dict(
            TINY_PLAN, **keys)), "--out", out])
        assert code == 2
        assert f"unknown plan key: '{named}'" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_unknown_plan_key_named(tmp_path, capsys):
    plan = dict(TINY_PLAN, typo_key=1)
    code = main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "typo_key" in err


def test_unknown_task_exit_2(tmp_path, capsys):
    plan = dict(TINY_PLAN, task="humanoid")
    code = main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "humanoid" in err


def test_run_report_resume_smoke(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--plan", write_plan(tmp_path), "--out", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "IQM" in stdout and "ppo_then_tdes" in stdout
    assert os.path.exists(os.path.join(out, "plan.json"))
    assert os.path.exists(os.path.join(out, "report.json"))

    # rerunning into the populated directory requires --force
    code = main(["run", "--plan", write_plan(tmp_path), "--out", out])
    assert code == 2
    assert "--force" in capsys.readouterr().err
    code = main(["run", "--plan", write_plan(tmp_path), "--out", out,
                 "--force"])
    capsys.readouterr()
    assert code == 0

    # report renders tables and writes the plots
    code = main(["report", "--dir", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "P(Improvement" in stdout
    assert os.path.exists(os.path.join(out, "performance_profile.svg"))
    assert os.path.exists(os.path.join(out, "sigma_schedule.svg"))

    # resume over a complete sweep is a fast no-op with the same report
    code = main(["resume", "--dir", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "IQM" in stdout


def test_report_missing_cells_listed(tmp_path, capsys):
    out = str(tmp_path / "out")
    plan_one_seed = dict(TINY_PLAN, methods=["ppo_only"])
    assert main(["run", "--plan", write_plan(tmp_path, plan_one_seed),
                 "--out", out]) == 0
    capsys.readouterr()
    # widen the plan on disk so the report sees an incomplete matrix
    with open(os.path.join(out, "plan.json")) as fh:
        plan = json.load(fh)
    plan["seeds"] = [0, 1]
    with open(os.path.join(out, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    code = main(["report", "--dir", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "missing cells (1)" in stdout
    assert "ppo_only seed 1" in stdout


def test_report_empty_dir_exit_1(tmp_path, capsys):
    code = main(["report", "--dir", str(tmp_path)])
    assert code == 1
    assert "no runs found" in capsys.readouterr().err


def test_resume_without_plan_exit_2(tmp_path, capsys):
    code = main(["resume", "--dir", str(tmp_path)])
    assert code == 2
    assert "plan.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "resume"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_rejected_at_parsing(tmp_path, capsys, command,
                                               workers):
    out = str(tmp_path / "out")
    args = (["run", "--plan", write_plan(tmp_path), "--out", out]
            if command == "run" else ["resume", "--dir", out])
    with pytest.raises(SystemExit) as exc:
        main(args + ["--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_report_unknown_baseline_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--plan", write_plan(tmp_path), "--out", out]) == 0
    capsys.readouterr()
    code = main(["report", "--dir", out, "--baseline", "ppo_onyl"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ppo_onyl" in captured.err
    assert "['ppo_only', 'ppo_then_tdes']" in captured.err
    assert "P(Improvement" not in captured.out
    assert main(["report", "--dir", out, "--baseline", "ppo_then_tdes"]) == 0
    assert "P(Improvement vs ppo_then_tdes)" in capsys.readouterr().out


def test_interrupt_exit_130_then_resume(tmp_path, capsys):
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, methods=["ppo_then_tdes"])
    with interrupt_after_generation(0):
        code = main(["run", "--plan", write_plan(tmp_path, plan),
                     "--out", out])
    err = capsys.readouterr().err
    assert code == 130
    assert "resume" in err
    code = main(["resume", "--dir", out])
    capsys.readouterr()
    assert code == 0
    assert os.path.exists(os.path.join(
        out, "runs", "point-reach", "ppo_then_tdes", "0", "record.json"))


def test_report_after_interrupted_sweep(tmp_path, capsys):
    # an interrupted sweep writes no report.json; report reads the finished
    # cells' record.json files and names the cell that is missing
    out = str(tmp_path / "out")
    with interrupt_after_generation(0):
        code = main(["run", "--plan", write_plan(tmp_path), "--out", out])
    capsys.readouterr()
    assert code == 130
    assert not os.path.exists(os.path.join(out, "report.json"))
    code = main(["report", "--dir", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "ppo_only" in stdout
    assert "missing cells (1)" in stdout
    assert "ppo_then_tdes seed 0" in stdout


def test_report_matches_report_json_for_eleven_seeds(tmp_path, capsys):
    # seed directories list "10" before "2"; `report` must resample the seed
    # columns in the integer order that `sweep` used for report.json
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, seeds=list(range(11)), eval_episodes=10)
    assert main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as fh:
        swept = json.load(fh)["report"]
    assert main(["report", "--dir", out]) == 0
    assert render_report(swept) in capsys.readouterr().out


def test_report_with_one_missing_record(tmp_path, capsys):
    # method and baseline finished different seeds: the paired CI uses the
    # seeds both have instead of failing on mismatched shapes
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, seeds=[0, 1])
    assert main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", out]) == 0
    capsys.readouterr()
    os.remove(os.path.join(out, "runs", "point-reach", "ppo_then_tdes", "1",
                           "record.json"))
    assert main(["report", "--dir", out]) == 0
    stdout = capsys.readouterr().out
    assert "P(Improvement" in stdout
    assert "missing cells (1)" in stdout
    assert "ppo_then_tdes seed 1" in stdout


def test_report_prints_steps_consumed_per_method(tmp_path, capsys):
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, seeds=[0, 1])
    assert main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", "--dir", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(
        "steps consumed per method (min, max over seeds; budget):")
    # ppo_only: 5 updates of 200 steps; ppo_then_tdes: 2 updates, then one
    # ES generation of 400 steps
    assert [line.split() for line in lines[start + 1:start + 3]] == [
        ["ppo_only", "1000", "1000", "1000"],
        ["ppo_then_tdes", "800", "800", "1000"]]


def test_report_lists_missing_seeds_in_integer_order(tmp_path, capsys):
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, methods=["ppo_only"], seeds=[1, 2, 10])
    assert main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", out]) == 0
    for seed in ("2", "10"):
        os.remove(os.path.join(out, "runs", "point-reach", "ppo_only", seed,
                               "record.json"))
    capsys.readouterr()
    assert main(["report", "--dir", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("missing cells (2):")
    assert lines[start + 1:start + 3] == ["  point-reach ppo_only seed 2",
                                          "  point-reach ppo_only seed 10"]


def test_non_object_plan_exit_2(tmp_path, capsys):
    path = write_plan(tmp_path, [1, 2])
    out = str(tmp_path / "out")
    code = main(["run", "--plan", path, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert path in err and "plan must be a JSON object" in err
    assert not os.path.exists(out)


def test_run_missing_plan_file_exit_2(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    out = str(tmp_path / "out")
    code = main(["run", "--plan", path, "--out", out])
    assert code == 2
    assert path in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "through_file"])
def test_run_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, below):
    # --out naming an existing file, or a path through one, stops `run`
    # before it writes anything
    plan = write_plan(tmp_path)
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory")
    out = str(occupied / below) if below else str(occupied)
    code = main(["run", "--plan", plan, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --out {out!r}: " + (
        "Not a directory\n" if below else "File exists\n")
    assert sorted(os.listdir(tmp_path)) == ["occupied", "plan.json"]
    assert occupied.read_text() == "not a directory"


def test_resume_truncated_plan_exit_2(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(TINY_PLAN)[:40])
    code = main(["resume", "--dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "not valid JSON" in err


@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps(TINY_PLAN)[:40], "not valid JSON", id="truncated"),
    pytest.param('{"task": "point-reach"}', "missing plan key: 'methods'",
                 id="no-methods")])
def test_report_broken_plan_exit_2(tmp_path, capsys, text, message):
    out = str(tmp_path / "out")
    assert main(["run", "--plan", write_plan(tmp_path), "--out", out]) == 0
    capsys.readouterr()
    path = os.path.join(out, "plan.json")
    with open(path, "w") as fh:
        fh.write(text)
    code = main(["report", "--dir", out])
    err = capsys.readouterr().err
    assert code == 2
    assert path in err and message in err


def test_report_without_plan_finds_no_runs(tmp_path, capsys):
    # report reads the plan's cells; without a plan there are none
    out = str(tmp_path / "out")
    assert main(["run", "--plan", write_plan(tmp_path), "--out", out]) == 0
    capsys.readouterr()
    os.remove(os.path.join(out, "plan.json"))
    assert main(["report", "--dir", out]) == 1
    assert "no runs found" in capsys.readouterr().err


def test_report_reads_exactly_the_plans_cells(tmp_path, capsys):
    # a forced rerun with other methods and seeds leaves the old cells on
    # disk; report pools the new plan's cells only, as report.json does
    out = str(tmp_path / "out")
    assert main(["run", "--plan", write_plan(tmp_path, dict(TINY_PLAN,
                                                            seeds=[0, 1])),
                 "--out", out]) == 0
    plan = dict(TINY_PLAN, methods=["ppo_only"], seeds=[2])
    assert main(["run", "--plan", write_plan(tmp_path, plan), "--out", out,
                 "--force"]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as fh:
        swept = json.load(fh)
    assert [(r["method"], r["seed"]) for r in swept["records"]] == \
        [("ppo_only", 2)]
    assert main(["report", "--dir", out]) == 0
    stdout = capsys.readouterr().out
    assert render_report(swept["report"]) in stdout
    assert "ppo_then_tdes" not in stdout and "missing cells" not in stdout


@pytest.mark.parametrize("key, value", [("total_step_budget", 2000),
                                        ("task", "arm-reach")])
def test_force_refuses_a_directory_of_another_plan(tmp_path, capsys, key,
                                                   value):
    # the cells on disk belong to the old plan, and a finished cell is not
    # run again: reusing them under another budget or task would report
    # results that the new plan never produced
    out = str(tmp_path / "out")
    plan = dict(TINY_PLAN, methods=["ppo_only"])
    assert main(["run", "--plan", write_plan(tmp_path, plan),
                 "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as fh:
        before = fh.read()
    code = main(["run", "--plan", write_plan(tmp_path, dict(plan,
                                                            **{key: value})),
                 "--out", out, "--force"])
    err = capsys.readouterr().err
    assert code == 2
    assert os.path.join(out, "plan.json") in err and f"'{key}'" in err
    with open(os.path.join(out, "plan.json")) as fh:
        assert json.load(fh)[key] == plan[key]
    with open(os.path.join(out, "report.json")) as fh:
        assert fh.read() == before
    assert main(["report", "--dir", out]) == 0
    assert render_report(json.loads(before)["report"]) in \
        capsys.readouterr().out


def _fail_cell(monkeypatch, method, seed):
    """Make cell (method, seed) of every sweep raise, as a crash would."""
    original = pipeline.run_method

    def run_method(plan_, method_, seed_, out_dir):
        if (method_, seed_) == (method, seed):
            raise RuntimeError("synthetic cell failure")
        return original(plan_, method_, seed_, out_dir)
    monkeypatch.setattr(pipeline, "run_method", run_method)


def test_report_of_a_sweep_with_a_failed_cell_equals_report_json(
        tmp_path, monkeypatch, capsys):
    # `report` and report.json aggregate the same records, the failed cell
    # left out, and --baseline aggregates those records against it
    out = str(tmp_path / "out")
    _fail_cell(monkeypatch, "ppo_only", 1)
    assert main(["run", "--plan", write_plan(tmp_path, dict(TINY_PLAN,
                                                            seeds=[0, 1, 2])),
                 "--out", out]) == 1
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as fh:
        swept = json.load(fh)
    assert [(f["method"], f["seed"]) for f in swept["failures"]] == \
        [("ppo_only", 1)]
    assert main(["report", "--dir", out]) == 0
    stdout = capsys.readouterr().out
    assert render_report(swept["report"]) in stdout
    assert "missing cells (1):\n  point-reach ppo_only seed 1\n" in stdout

    matrices = {}
    for r in swept["records"]:
        if not r["failed"]:
            matrices.setdefault(r["method"], {}).setdefault(
                r["task"], {})[r["seed"]] = r["final_success_rate"]
    assert main(["report", "--dir", out, "--baseline", "ppo_then_tdes"]) == 0
    assert render_report(aggregate_report(
        matrices, baseline="ppo_then_tdes")) in capsys.readouterr().out


def test_report_removes_plots_of_cells_not_in_its_plan(tmp_path, capsys):
    # the ES diagnostics of an earlier plan in the same directory must not
    # outlive a report of a plan without ES cells
    out = str(tmp_path / "out")
    plots = [os.path.join(out, f"{name}.svg")
             for name in ("sigma_schedule", "g_norm", "return_curves")]
    assert main(["run", "--plan", write_plan(tmp_path), "--out", out]) == 0
    assert main(["report", "--dir", out]) == 0
    assert all(map(os.path.exists, plots))
    plan = dict(TINY_PLAN, methods=["ppo_only"])
    assert main(["run", "--plan", write_plan(tmp_path, plan), "--out", out,
                 "--force"]) == 0
    assert main(["report", "--dir", out]) == 0
    capsys.readouterr()
    assert not any(map(os.path.exists, plots))
    assert os.path.exists(os.path.join(out, "performance_profile.svg"))


# a record.json that does not read as a record, with what the error says
BAD_RECORDS = {
    "truncated": (lambda text: text[:text.index('"method"') + 4],
                  "unreadable record (Unterminated string"),
    "non_object": (lambda text: "[1, 2]",
                   "the file is [1, 2], not an object"),
    "extra_key": (lambda text: json.dumps({**json.loads(text), "note": 1}),
                  "field 'note' is unknown"),
    "missing_key": (lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "failure"}),
        "field 'failure' is missing"),
    "number_as_string": (lambda text: json.dumps(
        {**json.loads(text), "final_success_rate": "high"}),
        "field 'final_success_rate' is 'high', not a finite number"),
    "count_as_float": (lambda text: json.dumps(
        {**json.loads(text), "steps_consumed": 1600.5}),
        "field 'steps_consumed' is 1600.5, not an int"),
    "seed_as_float": (lambda text: json.dumps(
        {**json.loads(text), "seed": 0.0}),
        "field 'seed' is 0.0, not an int"),
    "flag_as_string": (lambda text: json.dumps(
        {**json.loads(text), "failed": "no"}),
        "field 'failed' is 'no', not a bool"),
    "nan_number": (lambda text: json.dumps(
        {**json.loads(text), "final_success_rate": float("nan")}),
        "field 'final_success_rate' is nan, not a finite number"),
    "inf_in_curve": (lambda text: json.dumps({**json.loads(text), "ppo_curve": [
        {**json.loads(text)["ppo_curve"][0], "mean_return": -float("inf")}]}),
        "field 'ppo_curve' entry 0: 'mean_return' is -inf, not a finite "
        "number"),
    "es_record_not_an_object": (lambda text: json.dumps(
        {**json.loads(text), "es_records": [1, 2]}),
        "field 'es_records' entry 0 is 1, not an object"),
    "curve_count_as_string": (lambda text: json.dumps({
        **json.loads(text), "ppo_curve": json.loads(text)["ppo_curve"][:1] + [
            {**json.loads(text)["ppo_curve"][1], "update": "x"}]}),
        "field 'ppo_curve' entry 1: 'update' is 'x', not an int"),
    # a record must fit its plan's budget, and one that breaks the
    # equal-budget premise must be marked failed
    "budget_not_the_plans": (lambda text: json.dumps(
        {**json.loads(text), "budget": 999, "steps_consumed": 5}),
        "field 'budget' is 999 but the plan gives 1000"),
    "overspent_not_failed": (lambda text: json.dumps(
        {**json.loads(text), "steps_consumed": 1200}),
        "ppo_only seed 0 consumed 1200 of 1000 steps: 200 over budget, and "
        "the record is not marked failed"),
    "wrong_seed": (lambda text: json.dumps({**json.loads(text), "seed": 7}),
                   "a record of point-reach ppo_only seed 7, not of this "
                   "cell (point-reach ppo_"),
    # another cell's record is refused as such, before the budget checks
    # judge it by this cell's step unit: 300 steps unspent are more than
    # one PPO update, but less than one ES generation
    "other_method": (lambda text: json.dumps(
        {**json.loads(text), "method": "ppo_then_gaussian_es",
         "steps_consumed": 700}),
        "a record of point-reach ppo_then_gaussian_es seed 0, not of this "
        "cell (point-reach ppo_"),
}


def _cell(out, method):
    return os.path.join(out, "runs", "point-reach", method, "0")


@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_report_refuses_a_bad_record_naming_the_file(tmp_path, capsys,
                                                     kind):
    out = str(tmp_path / "out")
    assert main(["run", "--plan", write_plan(tmp_path), "--out", out]) == 0
    capsys.readouterr()
    path = os.path.join(_cell(out, "ppo_only"), "record.json")
    spoil, message = BAD_RECORDS[kind]
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(spoil(text))
    assert main(["report", "--dir", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {message}")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_resume_keeps_the_checkpoint_beside_a_bad_record(tmp_path, capsys,
                                                         kind):
    # the cell fails naming the file, and its checkpoint stays, so that
    # the cell resumes once the file is removed
    out = str(tmp_path / "out")
    with interrupt_after_generation(0):
        assert main(["run", "--plan", write_plan(tmp_path),
                     "--out", out]) == 130
    checkpoint = os.path.join(_cell(out, "ppo_then_tdes"), "checkpoints",
                              "checkpoint.npz")
    with open(checkpoint, "rb") as fh:
        before = fh.read()
    path = os.path.join(_cell(out, "ppo_then_tdes"), "record.json")
    spoil, message = BAD_RECORDS[kind]
    # ppo_only's record, relabelled as this cell's, so that every check
    # after the cell's identity is reached
    with open(os.path.join(_cell(out, "ppo_only"), "record.json")) as fh:
        text = json.dumps({**json.load(fh), "method": "ppo_then_tdes"})
    message = message.replace("ppo_only", "ppo_then_tdes")
    with open(path, "w") as fh:
        fh.write(spoil(text))
    assert main(["resume", "--dir", out]) == 1
    with open(os.path.join(out, "report.json")) as fh:
        failures = json.load(fh)["failures"]
    assert [(f["method"], f["seed"]) for f in failures] == \
        [("ppo_then_tdes", 0)]
    assert f"CheckpointError: {path}: {message}" in failures[0]["failure"]
    with open(checkpoint, "rb") as fh:
        assert fh.read() == before
    os.remove(path)
    capsys.readouterr()
    assert main(["resume", "--dir", out]) == 0
