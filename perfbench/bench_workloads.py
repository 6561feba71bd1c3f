"""Benchmark workloads: each one is a sweep plan generated from a seed.

The plan is the program's only input. The benchmark's ``--seed n`` sets the
plan's seed list to ``[k*n, ..., k*n + k - 1]`` for a workload of ``k``
seeds, so the same seed always gives the same plan and different seeds give
disjoint cells. Every workload is a closed loop: one sweep at a time, one
sweep process, and at most ``workers`` pool processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# The frozen acceptance plan (tests/plans/acceptance_peg.json) without its
# method and seed lists; copied so that the workload cannot drift with tests.
_PEG_BASE = {
    "task": "peg-insert-1d",
    "total_step_budget": 64000,
    "split": 0.5,
    "eval_episodes": 50,
    "es": {"sigma_es": 0.01, "alpha": 0.001, "m": 8},
    "ppo": {"optimizer": "adam", "learning_rate": 0.003,
            "episodes_per_update": 8, "epochs": 4, "minibatch_size": 128},
}

_REACH_BASE = {
    "task": "point-reach",
    "total_step_budget": 24000,
    "split": 0.5,
}


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict
    methods: tuple[str, ...]
    seeds_per_run: int
    parallel: bool  # True: workers = nproc, else serial

    def workers(self) -> int:
        return nproc() if self.parallel else 1

    def plan(self, seed: int) -> dict:
        if seed < 0:
            raise ValueError("--seed must be >= 0")
        k = self.seeds_per_run
        plan = json.loads(json.dumps(self.base))
        plan["methods"] = list(self.methods)
        plan["seeds"] = list(range(k * seed, k * seed + k))
        return plan


def fingerprint(plan: dict) -> str:
    """Identifies the cell-level settings of a plan: everything a cell's
    outputs depend on except its method and seed."""
    core = {k: v for k, v in plan.items() if k not in ("methods", "seeds")}
    blob = json.dumps(core, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


WORKLOADS = {w.name: w for w in (
    Workload("peg-tdes",
             "paper's method on its precision task; ES candidate rollouts "
             "do much of the work",
             _PEG_BASE, ("ppo_then_tdes",), 3, False),
    Workload("peg-ppo",
             "same plan with ppo_only: the ES layers do no work, PPO and "
             "checkpoint JSON dominate",
             _PEG_BASE, ("ppo_only",), 3, False),
    Workload("reach-sweep-2w",
             "other env shape, all three methods, cells in a process pool "
             "of nproc workers",
             _REACH_BASE,
             ("ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es"), 2, True),
)}
