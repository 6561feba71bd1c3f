"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload reach-sweep-2w --seed 7 --pairs 10 --claim cell_s_p50

Pair k runs `python3 perfbench/run.py --workload W --seed S --trace 0`
once in each checkout, at the benchmark's own run length, the parent first
in odd pairs and the change first in even ones, so that a drift of the
machine's speed favours neither side. For every end-to-end metric of the
parent's BENCHMARK.json it prints each side's median and quartiles, the
pairs the change won (ties count for neither) and the no-regression
verdict against the metric's `bound`, a fraction of the parent's median:

- `past bound`: the change's median is worse than the parent's by more
  than the bound;
- otherwise `unresolved`: the parent's quartile spread, divided by its
  median, is wider than the bound, so a regression of the bound's size
  would not show; unless every change run beats every parent run;
- otherwise `within bound`.

With --claim it also prints whether a gain in that metric may be claimed:
the change won at least nine tenths of the pairs, and its median beats the
parent's by more than the distance between the parent's quartiles. Each
run's summary line goes to --log, one JSON object a line. Standard library
only; the checkouts are not modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly
    between the sorted values (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def claim_holds(parent: list[float], change: list[float],
                better: str) -> tuple[bool, str]:
    """Whether a gain may be claimed, and why: at least 9 of 10 pairs won,
    and a median gap, in the better direction, larger than the parent's
    quartile spread."""
    won, pairs = wins(parent, change, better), len(parent)
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = (p_med - c_med) if better == "lower" else (c_med - p_med)
    spread = p3 - p1
    enough_wins = pairs > 0 and 10 * won >= 9 * pairs
    holds = enough_wins and gap > spread
    return holds, (f"won {won} of {pairs} pairs (need {-(-9 * pairs // 10)}); "
                   f"median gap {gap:.6g} vs parent quartile spread "
                   f"{spread:.6g}")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The no-regression verdict of the module docstring: 'past bound',
    'unresolved' or 'within bound'."""
    sign = 1 if better == "lower" else -1
    p1, p_med, p3 = quartiles(parent)
    worse = sign * (statistics.median(change) - p_med)
    if worse > bound * abs(p_med):
        return "past bound"
    every_run_better = max(sign * c for c in change) < \
        min(sign * p for p in parent)
    if p3 - p1 > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    return "within bound"


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """The summary line of one untraced perfbench run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}"
                           f" without a summary:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end_metrics(checkout: str) -> list[dict]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="end-to-end metric to test a gain on")
    parser.add_argument("--log", help="append each run's summary here")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics(args.parent)
    names = [m["name"] for m in metrics]
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim must be one of {names}")

    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            summary = run_once(getattr(args, side), args.workload, args.seed)
            runs[side].append(summary)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"pair": k, "side": side,
                                         **summary}) + "\n")
            print(f"pair {k} {side}: correct {summary['correct']}",
                  flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; "
          f"median [q1 - q3]")
    for m in metrics:
        parent = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
        change = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"  {m['name']:14s} parent {pm:.6g} [{p1:.6g} - {p3:.6g}]  "
              f"change {cm:.6g} [{c1:.6g} - {c3:.6g}]  "
              f"change won {wins(parent, change, m['better'])} "
              f"({m['better']} is better): "
              f"{verdict(parent, change, m['better'], m['bound'])}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"every run correct: {correct}")
    if args.claim is not None:
        better = next(m["better"] for m in metrics if m["name"] == args.claim)
        holds, why = claim_holds(
            [r["metrics"][args.claim]["value"] for r in runs["parent"]],
            [r["metrics"][args.claim]["value"] for r in runs["change"]],
            better)
        print(f"claim {args.claim}: {'holds' if holds else 'not met'} "
              f"({why})")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
