"""The ES refinement loop: sample a perturbation batch, evaluate the 2m
antithetic candidates in one lockstep batch, form centered ranks, take the
finite-difference step, decay sigma_es toward its floor.

Everything random is drawn from counter-based streams keyed on
(config.seed, purpose, generation, pair, episode), so a run is a pure
function of (anchor, config) and can resume bit-exactly from any completed
generation. Antithetic pairs share their env-seed and action-noise streams
(common random numbers), so a zero perturbation yields a zero pair
difference identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, RolloutError
from .estimator import ReturnTable, centered_ranks, tdes_gradient
from .noise import NoiseDistribution, antithetic_candidates, make_batch
from .policy import MlpArchitecture, action_noise, param_count, rollout
from .rng import (TAG_ACTION, TAG_CENTER_EVAL, TAG_ENV, TAG_EVAL, make_stream,
                  stream_seed)

@dataclass(frozen=True)
class EsConfig:
    sigma_es: float
    alpha: float
    m: int
    generations: int
    lambda_sigma: float = 0.99
    sigma_min: float = 1e-3
    distribution: str = "triangular"
    action_std: float = 0.01
    seed: int = 0
    episodes_per_candidate: int = 1
    step_cap: int | None = None
    standardize_noise: bool = False
    center_eval_episodes: int = 1

    def __post_init__(self):
        if self.sigma_es <= 0 or self.alpha <= 0:
            raise ContractError("sigma_es and alpha must be > 0")
        if self.m < 1 or self.generations < 0:
            raise ContractError("m must be >= 1 and generations >= 0")
        if not (0 < self.lambda_sigma <= 1):
            raise ContractError("lambda_sigma must be in (0, 1]")
        if self.sigma_min < 0 or self.sigma_min > self.sigma_es:
            raise ContractError("need 0 <= sigma_min <= sigma_es")
        if self.action_std < 0:
            raise ContractError("action_std must be >= 0")
        if self.episodes_per_candidate < 1:
            raise ContractError("episodes_per_candidate must be >= 1")
        if self.center_eval_episodes < 1:
            raise ContractError("center_eval_episodes must be >= 1")

    def generation_steps(self, horizon: int) -> int:
        """Env steps of one generation: 2m candidates, each run for
        episodes_per_candidate full-horizon episodes."""
        return 2 * self.m * self.episodes_per_candidate * horizon

    def noise_distribution(self) -> NoiseDistribution:
        return NoiseDistribution(self.distribution, self.standardize_noise)

    def to_dict(self) -> dict:
        return {
            "sigma_es": self.sigma_es, "alpha": self.alpha, "m": self.m,
            "generations": self.generations, "lambda_sigma": self.lambda_sigma,
            "sigma_min": self.sigma_min, "distribution": self.distribution,
            "action_std": self.action_std, "seed": self.seed,
            "episodes_per_candidate": self.episodes_per_candidate,
            "step_cap": self.step_cap,
            "standardize_noise": self.standardize_noise,
            "center_eval_episodes": self.center_eval_episodes,
        }


@dataclass
class GenerationRecord:
    generation: int
    center_return: float
    mean_return: float
    best_return: float
    sigma_es: float
    g_norm: float
    steps_used: int
    wall_time: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class EsRunResult:
    params: np.ndarray
    records: list[GenerationRecord] = field(default_factory=list)
    steps_used: int = 0


def sigma_at(config: EsConfig, generation: int) -> float:
    """Closed-form schedule: max(sigma_es * lambda^t, sigma_min). Computed
    from the generation index (not carried state) so resume is exact."""
    return max(config.sigma_es * config.lambda_sigma ** generation, config.sigma_min)


def _candidate_returns(plus, minus, arch, env, config, gen):
    """(j_plus, j_minus, env steps) of one generation. All 2m x
    episodes_per_candidate episodes run as one lockstep batch; the env seed
    and action noise of each (pair, episode) are drawn once and shared by
    the + and - candidates (common random numbers)."""
    m, n_ep = config.m, config.episodes_per_candidate
    keys = [(i, e) for i in range(m) for e in range(n_ep)]
    seeds = [make_stream(config.seed, TAG_ENV, gen, i, e).integers(1 << 62)
             for i, e in keys]
    noise = None
    if config.action_std > 0:
        noise = action_noise(
            [make_stream(config.seed, TAG_ACTION, gen, i, e) for i, e in keys],
            env.horizon, env.action_dim, config.action_std)
        noise = np.concatenate([noise, noise])
    params = np.repeat(np.concatenate([plus, minus]), n_ep, axis=0)
    try:
        batch = rollout(params, arch, env, seeds + seeds, noise)
    except RolloutError as exc:
        pair, e = divmod(exc.row % (m * n_ep), n_ep)
        raise RolloutError(
            f"generation {gen}, pair {pair}, episode {e}: {exc}") from exc
    returns = batch.returns.reshape(2, m, n_ep)
    total = np.zeros((2, m))
    for e in range(n_ep):  # sum in episode order, as a per-episode loop would
        total += returns[:, :, e]
    j_plus, j_minus = total / n_ep
    return j_plus, j_minus, batch.length


def evaluate_center(params: np.ndarray, arch: MlpArchitecture, env_factory,
                    episodes: int, master_seed: int):
    """Deterministic-action evaluation over independently seeded episodes,
    run as one lockstep batch. Returns (mean_return, success_rate)."""
    if episodes < 1:
        raise ContractError("episodes must be >= 1")
    seeds = [make_stream(master_seed, TAG_EVAL, e).integers(1 << 62)
             for e in range(episodes)]
    batch = rollout(params, arch, env_factory(), seeds)
    return float(np.mean(batch.returns)), int(batch.success.sum()) / episodes


def tdes_run(anchor: np.ndarray, arch: MlpArchitecture, env_factory,
             config: EsConfig, start_generation: int = 0,
             initial_steps: int = 0, records: list | None = None,
             checkpoint_cb=None) -> EsRunResult:
    """Run the generation loop from `start_generation` to completion.

    checkpoint_cb(generation_index_completed, params, steps_used, records)
    is invoked after every generation's update.
    """
    if anchor.shape != (param_count(arch),):
        raise ContractError("anchor does not match the architecture")

    theta = np.array(anchor, dtype=float, copy=True)
    records = list(records) if records else []
    steps_used = initial_steps
    dist = config.noise_distribution()
    env = env_factory()
    d = theta.shape[0]

    for t in range(start_generation, config.generations):
        gen_cost = config.generation_steps(env.horizon)
        if config.step_cap is not None and steps_used + gen_cost > config.step_cap:
            break
        t0 = time.perf_counter()
        sigma = sigma_at(config, t)
        batch = make_batch(dist, sigma, config.m, d, t, config.seed)
        plus, minus = antithetic_candidates(theta, batch)
        j_plus, j_minus, steps = _candidate_returns(plus, minus, arch, env,
                                                    config, t)
        steps_used += steps
        ranks = centered_ranks(ReturnTable(j_plus, j_minus))
        grad = tdes_gradient(batch, ranks)
        theta = theta + config.alpha * grad.g

        # logging-only center evaluation; not counted against the budget
        center_ret, _ = evaluate_center(
            theta, arch, env_factory, config.center_eval_episodes,
            stream_seed(config.seed, TAG_CENTER_EVAL, t))
        all_returns = np.concatenate([j_plus, j_minus])
        records.append(GenerationRecord(
            generation=t, center_return=center_ret,
            mean_return=float(all_returns.mean()),
            best_return=float(all_returns.max()),
            sigma_es=sigma, g_norm=grad.diagnostics["g_norm"],
            steps_used=steps_used, wall_time=time.perf_counter() - t0))
        if checkpoint_cb is not None:
            checkpoint_cb(t, theta, steps_used, records)

    return EsRunResult(theta, records, steps_used)

