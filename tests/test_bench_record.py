"""scripts/bench_record.py against a fake checkout whose perfbench prints
fixed numbers."""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

FAKE_RUN = '''
import argparse, json, os
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--trace", type=int)
args = parser.parse_args()
os.makedirs(".perfbench_runs", exist_ok=True)
tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
with open(os.path.join(".perfbench_runs", f"result-{tag}.json"), "w") as fh:
    json.dump({"digests": [f"{args.workload}-{args.seed}"],
               "environment": {"seed": args.seed}}, fh)
print("workload line")
wall = {"a": 1.0, "b": 10.0}[args.workload] * args.seed
print(json.dumps({"correct": args.seed != 13, "attempted": 2, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                              "pass_frac": {"value": 1.0, "unit": "ratio"}}}))
'''

BENCHMARK = {
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"},
                   {"name": "pass_frac", "unit": "ratio", "better": "higher"}],
}


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "bench_record", _SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("bench_pairs", "count_lines"):
        sys.modules.pop(name, None)


@pytest.fixture
def checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "src" / "refine_es").mkdir(parents=True)
    (root / "src" / "refine_es" / "m.py").write_text(
        '"""Doc."""\n\nx = 1\n')
    return root


def test_record_of_a_fake_checkout(bench_record, checkout, tmp_path,
                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_record, "SEEDS", [1, 2, 3, 4])
    assert bench_record.main([str(checkout), "--pr", "7",
                              "--commit", "abc"]) == 0
    result = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (result["pr"], result["commit"]) == (7, "abc")
    assert result["seeds"] == [1, 2, 3, 4]
    assert result["environment"] == {"seed": 1}
    assert result["src_lines"] == {"modules": {"m.py": {"lines": 3,
                                                        "code": 1}},
                                   "total": {"lines": 3, "code": 1}}
    assert sorted(result["workloads"]) == ["a", "b"]
    b = result["workloads"]["b"]
    # 10, 20, 30, 40 s: quartiles interpolated as numpy does
    assert b["metrics"]["wall_s"] == {"unit": "s", "better": "lower",
                                      "median": 25.0, "q1": 17.5, "q3": 32.5}
    assert b["metrics"]["pass_frac"]["median"] == 1.0
    assert [(r["seed"], r["correct"], r["digests"]) for r in b["runs"]] == \
        [(s, True, [f"b-{s}"]) for s in (1, 2, 3, 4)]


def test_a_run_that_is_not_correct_fails_the_record(bench_record, checkout,
                                                    tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_record, "SEEDS", [13])
    assert bench_record.main([str(checkout), "--pr", "8",
                              "--commit", "abc"]) == 1
    runs = json.loads((tmp_path / "BENCH_8.json").read_text())[
        "workloads"]["a"]["runs"]
    assert [(r["seed"], r["correct"]) for r in runs] == [(13, False)]
