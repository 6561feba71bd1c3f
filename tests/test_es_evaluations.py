"""The ES stage's center evaluations run as rows of lockstep batches that
run anyway: generation t's center evaluation rides, as noiseless rows of the
parameters theta_t that its candidates perturb, in generation t's own
candidate batch. Each must equal the standalone `evaluate_center` run of
theta_t, bit for bit; the final evaluation is such a run."""

from dataclasses import replace

import numpy as np
import pytest

from refine_es import engine
from refine_es.engine import EsConfig, evaluate_center, tdes_run
from refine_es.envs import make_env
from refine_es.errors import RolloutError
from refine_es.policy import MlpArchitecture, init_params, param_count, rollout
from refine_es.rng import (TAG_CENTER_EVAL, TAG_EVAL, TAG_FINAL_EVAL,
                          make_stream, stream_seed)
from test_engine import TargetEnv

ENV_IDS = ("arm-reach", "peg-insert-1d", "point-reach")
FINAL_EPISODES = 4


def _setup(env_id):
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (8,), env.action_dim)
    return env, arch, init_params(arch, make_stream(11, 0))


def _run(env, arch, anchor, config):
    """tdes_run, plus the parameters each checkpoint callback received."""
    thetas = []
    res = tdes_run(anchor, arch, env, config,
                   checkpoint_cb=lambda state: thetas.append(
                       state["params"].copy()),
                   final_eval=(FINAL_EPISODES, 77))
    return res, thetas


@pytest.mark.parametrize("episodes_per_candidate", [1, 2])
@pytest.mark.parametrize("center_eval_episodes", [1, 3])
@pytest.mark.parametrize("action_std", [0.0, 0.05])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_evaluations_equal_standalone_runs(env_id, action_std,
                                           center_eval_episodes,
                                           episodes_per_candidate):
    env, arch, anchor = _setup(env_id)
    config = EsConfig(sigma_es=0.05, alpha=0.01, m=2, generations=3, seed=3,
                      action_std=action_std,
                      center_eval_episodes=center_eval_episodes,
                      episodes_per_candidate=episodes_per_candidate)
    (res, final), thetas = _run(env, arch, anchor, config)
    assert len(thetas) == len(res["records"]) == 3
    # theta_0 is the anchor, theta_t the params handed to checkpoint t - 1
    centers = [anchor] + thetas[:-1]
    for t, (theta, record) in enumerate(zip(centers, res["records"])):
        ret, _ = evaluate_center(theta, arch, env, center_eval_episodes,
                                 stream_seed(config.seed, TAG_CENTER_EVAL, t))
        assert record["center_return"] == ret
    assert np.array_equal(thetas[-1], res["params"])
    assert final == evaluate_center(res["params"], arch, env, FINAL_EPISODES,
                                    77)


@pytest.mark.parametrize("policy", ["init", "zero"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_noiseless_row_in_noisy_batch_equals_its_own_run(env_id, policy):
    env, arch, theta = _setup(env_id)
    if policy == "zero":
        theta = np.zeros(param_count(arch))
    others = init_params(arch, make_stream(12, 0))[None] + \
        0.1 * make_stream(13, 0).standard_normal((3, param_count(arch)))
    params = np.concatenate([others, theta[None]])
    seeds = [101, 102, 103, 104]
    noise = 0.3 * make_stream(14, 0).standard_normal(
        (4, env.horizon, env.action_dim))
    noise[3] = 0.0
    batch = rollout(params, arch, env, seeds, noise)
    alone = rollout(theta, arch, env, seeds[3:])
    assert batch.rewards[3].tobytes() == alone.rewards[0].tobytes()
    assert batch.final_obs[3].tobytes() == alone.final_obs[0].tobytes()
    assert batch.returns[3].tobytes() == alone.returns[0].tobytes()
    assert batch.success[3] == alone.success[0]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_negative_zero_action_steps_like_positive_zero(env_id):
    # a zero noise row acts with mean + 0.0, which differs from the mean
    # only where the mean is -0.0. Both clip and integrate into the same
    # state, because no state is -0.0: states start at +0.0 or are drawn
    a, b = make_env(env_id), make_env(env_id)
    seeds = list(range(200, 216))
    obs_a, obs_b = a.reset(seeds), b.reset(seeds)
    assert not np.signbit(obs_a[obs_a == 0]).any()
    rng = make_stream(15, 0)
    for _ in range(a.horizon):
        actions = rng.uniform(-1.5, 1.5, (len(seeds), a.action_dim))
        actions[rng.random(actions.shape) < 0.5] = -0.0
        obs_a, r_a, s_a = a.step(actions)
        obs_b, r_b, s_b = b.step(actions + 0.0)
        assert obs_a.tobytes() == obs_b.tobytes()
        assert r_a.tobytes() == r_b.tobytes()
        assert np.array_equal(s_a, s_b)


class PoisonEnv:
    """One-step env whose reward is NaN in the episode of env seed `bad`."""

    observation_dim = action_dim = horizon = 1
    gamma = 1.0

    def __init__(self, bad):
        self.bad = bad

    def reset(self, seeds):
        self._bad = np.array([s == self.bad for s in seeds])
        return np.ones((len(seeds), 1))

    def step(self, actions):
        r = np.where(self._bad, np.nan, -actions[:, 0] ** 2)
        return np.ones_like(actions), r, np.zeros(len(r), dtype=bool)


def _eval_seed(master_seed, episode):
    return make_stream(master_seed, TAG_EVAL, episode).integers(1 << 62)


TINY = MlpArchitecture(1, (), 1)


def _tiny_config(**kw):
    base = dict(sigma_es=0.1, alpha=0.02, m=2, generations=3, seed=5,
                action_std=0.05, center_eval_episodes=3)
    base.update(kw)
    return EsConfig(**base)


@pytest.mark.parametrize("generation", [0, 1, 2])
def test_nan_in_center_row_names_its_evaluation(generation):
    # each generation evaluates its center in its own candidate batch, the
    # last one too
    env = PoisonEnv(_eval_seed(stream_seed(5, TAG_CENTER_EVAL, generation), 2))
    with pytest.raises(RolloutError) as info:
        tdes_run(np.zeros(2), TINY, env, _tiny_config(),
                 final_eval=(3, 77))
    message = str(info.value)
    assert message.startswith(
        f"generation {generation} center evaluation, episode 2: ")
    assert "pair" not in message


def test_nan_in_final_row_names_the_final_evaluation():
    env = PoisonEnv(_eval_seed(stream_seed(5, TAG_FINAL_EVAL), 1))
    with pytest.raises(RolloutError) as info:
        tdes_run(np.zeros(2), TINY, env, _tiny_config(),
                 final_eval=(3, stream_seed(5, TAG_FINAL_EVAL)))
    assert str(info.value).startswith("final evaluation, episode 1: ")
    assert "pair" not in str(info.value)
    # ppo_only's final evaluation is a standalone evaluate_center run; the
    # same fault reads the same
    with pytest.raises(RolloutError) as info:
        evaluate_center(np.zeros(2), TINY, env, 3,
                        stream_seed(5, TAG_FINAL_EVAL))
    assert str(info.value).startswith("final evaluation, episode 1: ")


def _count_rollouts(monkeypatch, log):
    original = engine.rollout

    def counted(params, arch, env, seeds, *args):
        log.append(("rollout", len(seeds)))
        return original(params, arch, env, seeds, *args)

    monkeypatch.setattr(engine, "rollout", counted)


@pytest.mark.parametrize("start,batches", [(0, [7, 7, 7, 7, 7, 6]),
                                           (3, [7, 7, 6]), (5, [6])])
def test_run_makes_one_rollout_per_generation_and_one_more(monkeypatch,
                                                           start, batches):
    # 2m = 4 candidate rows and the 3 center rows of the same generation,
    # then its checkpoint; the last batch holds only the 6 rows of the final
    # evaluation. A change that brings back a standalone loop fails here
    config = _tiny_config(generations=5)
    head, _ = tdes_run(np.zeros(2), TINY, TargetEnv(), replace(
        config, generations=start), final_eval=(6, 77))
    log = []
    _count_rollouts(monkeypatch, log)
    tdes_run(head["params"], TINY, TargetEnv(), config,
             records=head["records"],
             final_eval=(6, 77), checkpoint_cb=lambda state: log.append(
                 ("checkpoint", state["generation_index"])))
    assert len(batches) == config.generations - start + 1
    expected = []
    for k, rows in enumerate(batches):
        expected.append(("rollout", rows))
        if start + k < config.generations:  # generation start + k's batch
            expected.append(("checkpoint", start + k))
    assert log == expected


def test_last_generation_evaluates_its_center_in_its_own_batch(monkeypatch):
    log = []
    _count_rollouts(monkeypatch, log)
    res, _ = tdes_run(np.zeros(2), TINY, TargetEnv(),
                      _tiny_config(generations=2), final_eval=(4, 77))
    assert [r["generation"] for r in res["records"]] == [0, 1]
    assert res["steps_used"] == 8
    assert log == [("rollout", 4 + 3), ("rollout", 4 + 3), ("rollout", 4)]
