"""The ES refinement loop over estimator.py's functions: draw the (m, d) base
noise, evaluate the 2m antithetic candidates in one lockstep batch, form
centered ranks, take the finite-difference step, decay sigma_es.

Most of a rollout step's cost is fixed (one row costs about half of what
17 rows do), so no evaluation runs as a batch of its own. The logging-only
center evaluation of generation t rides, as noiseless rows, in the candidate
batch of generation t + 1, whose candidates perturb the same parameters;
that of the last generation rides in the batch of the final evaluation,
which `tdes_run` runs too. An ES stage of G generations runs G + 1 batches.
A generation is complete, and its state handed to the checkpoint
callback, once its center return is known.

Everything random is drawn from counter-based streams keyed on
(config.seed, purpose, generation, pair, episode), so a run is a pure
function of (anchor, config) and can resume bit-exactly from the state of
any completed generation: its parameters and its records. Antithetic pairs
share their env-seed and action-noise streams (common random numbers), so
a zero perturbation yields a zero pair difference identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RolloutError
# fd_gradient goes by tdes_gradient here, the name the benchmark's tracer times
from .estimator import (antithetic_candidates, centered_ranks,
                        fd_gradient as tdes_gradient, make_batch)
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
        if self.distribution not in ("triangular", "gaussian"):
            raise ContractError(f"unknown noise kind {self.distribution!r}")

    def generation_steps(self, horizon: int) -> int:
        """Env steps of one generation: 2m candidates, each run for
        episodes_per_candidate full-horizon episodes."""
        return 2 * self.m * self.episodes_per_candidate * horizon

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def sigma_at(config: EsConfig, generation: int) -> float:
    """Closed-form schedule: max(sigma_es * lambda^t, sigma_min). Computed
    from the generation index (not carried state) so resume is exact."""
    return max(config.sigma_es * config.lambda_sigma ** generation, config.sigma_min)


def _lockstep_batch(theta, arch, env, evaluations, candidates=None):
    """One lockstep batch: the 2m x episodes_per_candidate candidate
    episodes of `candidates` = (config, gen, plus, minus), if given, then
    the noiseless episodes of each evaluation (name, episodes, master_seed)
    of `theta`. Returns the (2, m) mean candidate returns, (2, 0) without
    candidates, and (mean_return, success_rate) per evaluation. The + and -
    candidates of a (pair, episode) share its env seed and action noise
    (common random numbers); evaluation rows get zero noise, which leaves
    every state as a noiseless run leaves it."""
    seeds, labels, noise, params = [], [], None, theta  # a label per row
    m, n_ep = 0, 1  # no candidate rows
    if candidates is not None:
        config, gen, plus, minus = candidates
        m, n_ep = config.m, config.episodes_per_candidate
        keys = [(i, e) for i in range(m) for e in range(n_ep)]
        seeds = [make_stream(config.seed, TAG_ENV, gen, i, e).integers(1 << 62)
                 for i, e in keys] * 2
        labels = [f"generation {gen}, pair {i}, episode {e}"
                  for i, e in keys] * 2
        if config.action_std > 0:
            noise = action_noise(
                [make_stream(config.seed, TAG_ACTION, gen, i, e)
                 for i, e in keys],
                env.horizon, env.action_dim, config.action_std)
    n_cand = len(seeds)
    for name, episodes, master_seed in evaluations:
        seeds += [make_stream(master_seed, TAG_EVAL, e).integers(1 << 62)
                  for e in range(episodes)]
        labels += [f"{name}, episode {e}" for e in range(episodes)]
    if n_cand:
        n_eval = len(seeds) - n_cand
        params = np.repeat(np.concatenate([plus, minus, theta[None]]),
                           [n_ep] * 2 * m + [n_eval], axis=0)
        if noise is not None:
            noise = np.concatenate([noise, noise, np.zeros(
                (n_eval, env.horizon, env.action_dim))])
    try:
        batch = rollout(params, arch, env, seeds, noise)
    except RolloutError as exc:
        raise RolloutError(f"{labels[exc.row]}: {exc}") from exc
    results, start = [], n_cand
    for _name, episodes, _seed in evaluations:
        rows = slice(start, start + episodes)
        results.append((float(np.mean(batch.returns[rows])),
                        int(batch.success[rows].sum()) / episodes))
        start += episodes
    returns = batch.returns[:n_cand].reshape(2, m, n_ep)
    total = np.zeros((2, m))
    for e in range(n_ep):  # sum in episode order, as a per-episode loop would
        total += returns[:, :, e]
    return total / n_ep, results


def evaluate_center(params: np.ndarray, arch: MlpArchitecture, env,
                    episodes: int, master_seed: int):
    """Deterministic-action evaluation over independently seeded episodes,
    run as one lockstep batch. Returns (mean_return, success_rate). Its
    one use in a sweep is ppo_only's final evaluation, so a non-finite
    value is reported as that of the final evaluation, as in tdes_run."""
    if episodes < 1:
        raise ContractError("episodes must be >= 1")
    return _lockstep_batch(params, arch, env,
                           [("final evaluation", episodes, master_seed)])[1][0]


def tdes_run(anchor: np.ndarray, arch: MlpArchitecture, env,
             config: EsConfig, *, final_eval: tuple[int, int],
             records=(), checkpoint_cb=None
             ) -> tuple[dict, tuple[float, float]]:
    """Run the generation loop from `anchor` to completion, then the final
    evaluation `final_eval` = (episodes, master_seed) of the final
    parameters, seeded as `evaluate_center` seeds it.

    Each generation runs one lockstep batch, whose rows past the candidates
    are the center evaluation of the generation before; the last one's runs
    in the final evaluation's batch. Evaluation rows never count toward the
    steps used. A generation's record (generation, center_return,
    mean_return, best_return, sigma_es, g_norm, steps_used, wall_time: the
    seconds from the start of the generation to its update) is appended
    once its center return is known, after the next batch, and then
    `checkpoint_cb(state)` gets the run's state, what a checkpoint stores:
    {"generation_index", "params", "steps_used", "records"}. It is the dict
    that holds the run, live: its values and its records change with the
    next generation, so copy what must outlast the call. A run resumes
    bit-exactly from such a state's params as `anchor` and its records; the
    first generation and the steps used follow from the last record.

    Returns (state, (mean_return, success_rate)): the state that the
    callback got last, and the final evaluation. A run with no generation
    to make returns its start state: the last record's generation and steps
    used (-1 and 0 without records), a copy of `anchor` and of `records`.
    """
    if anchor.shape != (param_count(arch),):
        raise ContractError("anchor does not match the architecture")
    if final_eval[0] < 1:
        raise ContractError("episodes must be >= 1")

    records = list(records)
    last = records[-1] if records else {"generation": -1, "steps_used": 0}
    state = {"generation_index": last["generation"],
             "params": np.array(anchor, dtype=float, copy=True),
             "steps_used": last["steps_used"], "records": records}
    gen_cost = config.generation_steps(env.horizon)
    pending = None  # the last generation's record, without its center return

    def center_eval():
        return [] if pending is None else [
            (f"generation {pending['generation']} center evaluation",
             config.center_eval_episodes, stream_seed(
                 config.seed, TAG_CENTER_EVAL, pending["generation"]))]

    def close(results):  # the state is still what pending's update gave
        if pending is not None:
            pending["center_return"] = results[0][0]
            records.append(pending)
            if checkpoint_cb is not None:
                checkpoint_cb(state)

    for t in range(last["generation"] + 1, config.generations):
        t0 = time.perf_counter()
        theta, sigma = state["params"], sigma_at(config, t)
        eps = make_batch(config.distribution, config.standardize_noise,
                         config.m, theta.shape[0], t, config.seed)
        plus, minus = antithetic_candidates(theta, eps, sigma)
        (j_plus, j_minus), centers = _lockstep_batch(
            theta, arch, env, center_eval(), (config, t, plus, minus))
        close(centers)
        g = tdes_gradient(eps, *centered_ranks(j_plus, j_minus), sigma)
        state.update(generation_index=t, params=theta + config.alpha * g,
                     steps_used=state["steps_used"] + gen_cost)
        all_returns = np.concatenate([j_plus, j_minus])
        pending = {"generation": t, "center_return": None,
                   "mean_return": float(all_returns.mean()),
                   "best_return": float(all_returns.max()),
                   "sigma_es": sigma, "g_norm": float(np.linalg.norm(g)),
                   "steps_used": state["steps_used"],
                   "wall_time": time.perf_counter() - t0}

    _, results = _lockstep_batch(state["params"], arch, env, center_eval() + [
        ("final evaluation", *final_eval)])
    close(results)
    return state, results[-1]
