"""Record the reference outputs that run.py checks every cell against.

    python3 perfbench/make_reference.py --seeds 0 9

For every workload and every benchmark seed in the inclusive range, runs the
workload's plan serially (one worker) and stores each cell's final-params
SHA-256, anchor SHA-256, final success rate and steps consumed in
reference.json, keyed by (plan fingerprint, method, seed). Existing entries
for other keys are kept. Regenerate only at a commit whose outputs are meant
to change; a speed-up must reproduce the stored values bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bench_check
from bench_workloads import WORKLOADS, fingerprint
from run import RUNS, Deadline, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 0),
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    reference = bench_check.load_reference()
    rundir = os.path.join(RUNS, f"reference-{os.getpid()}")
    os.makedirs(rundir)
    try:
        for workload in WORKLOADS.values():
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                plan = workload.plan(seed)
                plan_path = os.path.join(rundir, "plan.json")
                with open(plan_path, "w") as fh:
                    json.dump(plan, fh)
                sweep_dir = os.path.join(rundir, f"{workload.name}-{seed}")
                res = run_sweep(plan, plan_path, sweep_dir, 1, False, {},
                                Deadline(600.0))
                if res["problems"]:
                    print("\n".join(res["problems"]), file=sys.stderr)
                    return 1
                for cell in res["cells"]:
                    key = bench_check.cell_key(fingerprint(plan),
                                               cell["method"], cell["seed"])
                    reference[key] = {f: cell[f] for f in bench_check.FIELDS}
                print(f"{workload.name} seed {seed}: "
                      f"{bench_check.digest(res['cells'])}")
                shutil.rmtree(sweep_dir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    with open(bench_check.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
