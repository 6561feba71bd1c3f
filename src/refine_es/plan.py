"""Experiment plan: its schema, its validation, the stage configs it gives a
cell, and its one reader.

A plan fixes one task, a list of methods, a shared interaction budget, a
PPO/ES split, and a seed list; each (method, seed) is one cell. Every method
gets exactly the same step budget: a two-stage method spends split * budget
on the PPO anchor and hands the remainder to the ES stage, which runs as
many generations (2m rollouts of `horizon` steps each) as the remaining
steps fund.

The `es` and `ppo` sections take the fields of `engine.EsConfig` and
`ppo.PpoConfig`, except those that a cell sets (step counts, seed, noise
distribution). Unknown keys and values of the wrong type are rejected by
name, and each stage config is built once at load, so that a bad value fails
there with a `PlanError`, not later in every cell.
`load_plan` is how `run`, `resume` and `report` read a plan file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from . import engine, ppo
from .envs import make_env
from .errors import ContractError, PlanError

METHODS = ("ppo_only", "ppo_then_tdes", "ppo_then_gaussian_es")

# desk-scale values of the ES fields without a default, calibrated on the
# toy suite (see tests/plans)
_ES_DEFAULTS = {"sigma_es": 0.01, "alpha": 0.001, "m": 8}


@dataclass(frozen=True)
class ExperimentPlan:
    task: str
    methods: tuple[str, ...]
    total_step_budget: int
    split: float = 0.67
    seeds: tuple[int, ...] = tuple(range(9))
    eval_episodes: int = 50
    es: dict = field(default_factory=dict)
    ppo: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not (0 < self.split <= 1):
            raise PlanError("split must be in (0, 1]")
        if self.total_step_budget < 1:
            raise PlanError("total_step_budget must be >= 1")
        if self.eval_episodes < 1:
            raise PlanError("eval_episodes must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise PlanError(f"unknown method {m!r} (known: {list(METHODS)})")
        if not self.methods or not self.seeds:
            raise PlanError("methods and seeds must be non-empty")
        for s in self.seeds:  # streams fold seeds to 64 bits (rng.py)
            if not 0 <= s < 1 << 64:
                raise PlanError(f"seed {s} is outside [0, 2**64)")
        for name in ("methods", "seeds"):
            values = getattr(self, name)
            duplicates = sorted({v for v in values if values.count(v) > 1})
            if duplicates:
                raise PlanError(f"duplicate {name}: {duplicates}")

    @property
    def fork_steps(self) -> int:
        """The PPO steps of a two-stage cell: split * budget, rounded."""
        return int(round(self.split * self.total_step_budget))

    def to_dict(self) -> dict:
        """The plan document, keys in field order."""
        return {**self.__dict__, "methods": list(self.methods),
                "seeds": list(self.seeds), "es": dict(self.es),
                "ppo": dict(self.ppo)}


def ppo_config(plan: ExperimentPlan, method: str, seed: int) -> ppo.PpoConfig:
    """The PPO config of cell (method, seed): a two-stage cell trains up to
    `plan.fork_steps`, ppo_only to the budget. The discount is the task's
    (`env.gamma`)."""
    kwargs = {"optimizer": "adam", **plan.ppo}
    if "hidden_dims" in kwargs:
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    return ppo.PpoConfig(
        total_steps=(plan.total_step_budget if method == "ppo_only"
                     else plan.fork_steps), seed=seed, **kwargs)


def es_config(plan: ExperimentPlan, env, method: str, seed: int,
              remaining: int) -> engine.EsConfig:
    """The ES config of two-stage cell (method, seed) on `env` for
    `remaining` steps: as many generations as fit."""
    config = engine.EsConfig(
        generations=0, seed=seed,
        distribution=("triangular" if method == "ppo_then_tdes"
                      else "gaussian"), **{**_ES_DEFAULTS, **plan.es})
    return replace(config, generations=max(
        remaining // config.generation_steps(env.horizon), 0))


_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "dict": dict}


def _fits(value, annotation: str) -> bool:
    """Whether a plan value fits the annotation of its field. A bool is no
    number, a float field takes only finite numbers, and a tuple field takes
    a list."""
    if annotation.startswith("tuple["):  # "tuple[int, ...]"
        return isinstance(value, (list, tuple)) and all(
            _fits(v, annotation[6:-6]) for v in value)
    if not isinstance(value, _KINDS[annotation]) or \
            isinstance(value, bool) != (annotation == "bool"):
        return False
    if annotation != "float":
        return True
    try:
        return math.isfinite(value)  # JSON's 1e999 parses to inf
    except OverflowError:  # an int beyond the float range
        return False


def _check_keys(values: dict, cls, prefix: str = "", exclude=()) -> None:
    """Reject, by name, a key that is no field of the dataclass `cls` or is
    one of `exclude`, or whose value does not fit the type of its field."""
    types = {f.name: f.type for f in fields(cls) if f.name not in exclude}
    for key, value in values.items():
        if key not in types:
            raise PlanError(f"unknown plan key: {prefix}{key!r}")
        if not _fits(value, types[key]):
            kind = types[key].replace("float", "finite float")
            raise PlanError(f"plan key '{prefix}{key}' must be of type "
                            f"{kind}, not {value!r}")


def plan_from_dict(raw: dict) -> ExperimentPlan:
    """Validate a plan document; unknown keys and values of the wrong type
    are rejected by name."""
    if not isinstance(raw, dict):
        raise PlanError("plan must be a JSON object")
    # the early-handoff rule is retired; an older plan.json holds its keys,
    # read as before while the rule was off
    if raw.get("handoff_success_threshold") is not None:
        raise PlanError("plan key 'handoff_success_threshold' is "
                        f"{raw['handoff_success_threshold']!r}, but the "
                        "handoff rule is retired: it may only be null")
    raw = {k: v for k, v in raw.items()
           if k not in ("handoff_success_threshold", "handoff_window")}
    _check_keys(raw, ExperimentPlan)
    # a section takes its config's fields but those that a cell sets
    _check_keys(raw.get("es", {}), engine.EsConfig, "es.", (
        "generations", "seed", "distribution"))
    _check_keys(raw.get("ppo", {}), ppo.PpoConfig, "ppo.", (
        "total_steps", "seed"))
    for required in ("task", "methods", "total_step_budget"):
        if required not in raw:
            raise PlanError(f"missing plan key: {required!r}")
    try:
        env = make_env(raw["task"])  # validates the task id
    except ContractError as exc:
        raise PlanError(str(exc)) from exc
    plan = ExperimentPlan(**raw)
    try:
        ppo_config(plan, "ppo_then_tdes", 0)
    except ContractError as exc:
        raise PlanError(f"invalid plan section 'ppo': {exc}") from exc
    try:
        es_config(plan, env, "ppo_then_tdes", 0, 0)
    except ContractError as exc:
        raise PlanError(f"invalid plan section 'es': {exc}") from exc
    return plan


def load_plan(path: str) -> ExperimentPlan:
    """The plan in the JSON file at `path`. Any failure, from an unreadable
    file to an invalid value, is a `PlanError` that names the file."""
    try:
        with open(path) as fh:
            return plan_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:  # its text names line and column
        raise PlanError(f"plan file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise PlanError(f"plan file {path} cannot be read: {exc}") from exc
    except PlanError as exc:
        raise PlanError(f"plan file {path}: {exc}") from exc
