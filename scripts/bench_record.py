"""Record one checkout's benchmark numbers as BENCH_<pr>.json.

    python3 scripts/bench_record.py CHECKOUT --pr 21 --commit fe9063d

writes BENCH_21.json in the current directory. For each workload of
CHECKOUT's BENCHMARK.json, and each of the fixed `SEEDS`, it runs
`python3 perfbench/run.py --workload W --seed S --trace 0` in CHECKOUT once
(`bench_pairs.run_once`). The file it writes holds, per workload, each
end-to-end metric's median and quartiles over the seeds and every run's
`correct` flag and output digests; the line counts of CHECKOUT's
src/refine_es (`count_lines.py`); the environment record of the first run;
and the commit, as given. CHECKOUT may be a `git archive` extraction of an
older commit, so that one session records several commits under the same
machine drift. A BENCH file shows a trend, not a gain: a gain is claimed
with `bench_pairs.py`. Exit status 1 if a run was not correct. Standard
library only; the checkout gains only perfbench's own `.perfbench_runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench_pairs
import count_lines

# the same seeds in every BENCH file, so that the files compare along the trend
SEEDS = [1, 2, 3, 4, 5]


def run_detail(checkout: str, workload: str, seed: int) -> dict:
    """The detail file that the last perfbench run of (workload, seed,
    untraced) left in `checkout`."""
    path = os.path.join(checkout, ".perfbench_runs",
                        f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)


def record(checkout: str, pr: int, commit: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    lines = count_lines.package_counts(
        os.path.join(checkout, "src", "refine_es"))
    out = {"pr": pr, "commit": commit,
           "command": "python3 perfbench/run.py --workload W --seed S "
                      "--trace 0",
           "seeds": SEEDS, "environment": None,
           "src_lines": {"modules": {name: {"lines": n, "code": c}
                                     for name, (n, c) in lines.items()},
                         "total": {"lines": sum(n for n, _ in lines.values()),
                                   "code": sum(c for _, c in lines.values())}},
           "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in SEEDS:
            summary = bench_pairs.run_once(checkout, workload, seed)
            detail = run_detail(checkout, workload, seed)
            if out["environment"] is None:
                out["environment"] = detail["environment"]
            runs.append({"seed": seed, "correct": summary["correct"],
                         "digests": detail["digests"],
                         "metrics": {name: m["value"] for name, m in
                                     summary["metrics"].items()}})
            print(f"{workload} seed {seed}: correct {summary['correct']}",
                  flush=True)
        metrics = {}
        for m in benchmark["end_to_end"]:
            q1, median, q3 = bench_pairs.quartiles(
                [r["metrics"][m["name"]] for r in runs])
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "median": median, "q1": q1, "q3": q3}
        out["workloads"][workload] = {"metrics": metrics, "runs": runs}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--commit", required=True)
    args = parser.parse_args(argv)
    result = record(args.checkout, args.pr, args.commit)
    with open(f"BENCH_{args.pr}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["correct"] for w in result["workloads"].values()
                    for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
