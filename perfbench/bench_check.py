"""Output check: every cell of a sweep against the committed reference.

A cell's outputs are the SHA-256 of its final parameters (float64, little
endian, as `final.json` stores them), its anchor hash, its final success rate
and its steps consumed. A cell whose (plan fingerprint, method, seed) is in
`reference.json` must match it exactly. Every cell must also satisfy the
invariants: no failed record, ppo_steps + es_steps == steps_consumed <=
budget, and finite values.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
FIELDS = ("params_sha256", "anchor_sha256", "final_success_rate",
          "steps_consumed")


def params_sha256(params: list) -> str:
    return hashlib.sha256(struct.pack(f"<{len(params)}d", *params)).hexdigest()


def cell_key(fingerprint: str, method: str, seed: int) -> str:
    return f"{fingerprint}/{method}/{seed}"


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_cells(out_dir: str, plan: dict) -> tuple[list[dict], list[str]]:
    """The outputs of every cell the plan asks for, and the problems found
    in reading them (missing or failed cells, broken invariants)."""
    problems = []
    with open(os.path.join(out_dir, "report.json")) as fh:
        records = {(r["method"], r["seed"]): r for r in json.load(fh)["records"]}
    cells = []
    for method in plan["methods"]:
        for seed in plan["seeds"]:
            rec = records.get((method, seed))
            where = f"{method} seed {seed}"
            if rec is None or rec["failed"]:
                problems.append(f"{where}: missing or failed record")
                continue
            final = os.path.join(out_dir, "runs", rec["task"], method,
                                 str(seed), "checkpoints", "final.json")
            with open(final) as fh:
                params = json.load(fh)["params"]
            cell = {"method": method, "seed": seed,
                    "params_sha256": params_sha256(params),
                    "anchor_sha256": rec["anchor_sha256"],
                    "final_success_rate": rec["final_success_rate"],
                    "steps_consumed": rec["steps_consumed"]}
            cells.append(cell)
            problems += [f"{where}: {p}" for p in _invariant_problems(rec, params)]
    return cells, problems


def _invariant_problems(rec: dict, params: list) -> list[str]:
    out = []
    if rec["ppo_steps"] + rec["es_steps"] != rec["steps_consumed"]:
        out.append("ppo_steps + es_steps != steps_consumed")
    if rec["steps_consumed"] > rec["budget"]:
        out.append("steps_consumed exceeds the budget")
    values = [rec["final_success_rate"], rec["final_mean_return"], *params]
    if not all(math.isfinite(v) for v in values):
        out.append("non-finite success rate, return or parameter")
    return out


def reference_problems(cells: list[dict], fingerprint: str,
                       reference: dict) -> list[str]:
    """Mismatches against the reference; cells it does not hold pass."""
    out = []
    for cell in cells:
        ref = reference.get(cell_key(fingerprint, cell["method"], cell["seed"]))
        if ref is None:
            continue
        for field in FIELDS:
            if cell[field] != ref[field]:
                out.append(f"{cell['method']} seed {cell['seed']}: {field} "
                           f"{cell[field]!r} != reference {ref[field]!r}")
    return out


def failed_cells(problems: list[str]) -> int:
    """Number of distinct cells named by a list of problems."""
    return len({p.split(":", 1)[0] for p in problems})


def digest(cells: list[dict]) -> str:
    """One hash over every cell's outputs, to compare two commits."""
    rows = sorted((c["method"], c["seed"], *(c[f] for f in FIELDS))
                  for c in cells)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
