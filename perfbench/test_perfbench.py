"""Self-tests of the benchmark (fast; no sweep is run).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re

import bench_check
import bench_trace
import run
from bench_workloads import WORKLOADS, fingerprint

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_same_seed_gives_same_plan():
    for w in WORKLOADS.values():
        assert json.dumps(w.plan(3)) == json.dumps(w.plan(3))
        assert not set(w.plan(3)["seeds"]) & set(w.plan(4)["seeds"])
        assert fingerprint(w.plan(3)) == fingerprint(w.plan(4))


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = [n for n, _u, _b in run.E2E_METRICS]
    layer = [n for n, _u, _b in bench_trace.LAYER_METRICS]
    for name in e2e + layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench_trace.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_flipped_hash_counts_as_failed():
    cells = [{"method": "ppo_only", "seed": s, "params_sha256": f"{s:064x}",
              "anchor_sha256": "ab" * 32, "final_success_rate": 0.5,
              "steps_consumed": 100} for s in range(3)]
    reference = {bench_check.cell_key("fp", c["method"], c["seed"]):
                 {f: c[f] for f in bench_check.FIELDS} for c in cells}
    assert bench_check.reference_problems(cells, "fp", reference) == []
    flipped = "f" + cells[1]["params_sha256"][1:]
    cells[1] = dict(cells[1], params_sha256=flipped)
    problems = bench_check.reference_problems(cells, "fp", reference)
    assert bench_check.failed_cells(problems) == 1
    assert bench_check.reference_problems(cells, "other", reference) == []


def test_install_then_remove_restores_originals():
    targets = bench_trace.targets(trace=True)
    before = [owner.__dict__[attr] for owner, attr, _n, _o in targets]
    installed = bench_trace.install(bench_trace.Recorder(), trace=True)
    assert all(owner.__dict__[attr] is not fn for (owner, attr, _n, _o), fn
               in zip(targets, before))
    bench_trace.remove(installed)
    assert all(owner.__dict__[attr] is fn for (owner, attr, _n, _o), fn
               in zip(targets, before))


def test_self_time_excludes_child_spans():
    rec = bench_trace.Recorder()
    inner = rec.wrap(lambda: sum(range(20000)), "inner", hot=True)
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    calls, total, self_s, _ = rec.stats["outer"]
    assert calls == 1 and rec.stats["inner"][0] == 3
    assert abs(self_s - (total - rec.stats["inner"][1])) < 1e-12
    assert [s[:2] for s in rec.spans] == [("outer", None)]
