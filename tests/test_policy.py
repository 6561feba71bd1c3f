import json
import os

import numpy as np
import pytest

from refine_es.envs import env_ids, make_env
from refine_es.errors import ContractError, RolloutError
from refine_es.policy import (MlpArchitecture, action_noise, discounted_return,
                              init_params, mlp_forward, param_count, rollout)
from refine_es.rng import make_stream

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class ConstantRewardEnv:
    """Batch-shaped env that emits the same observation and reward on every
    step of every row."""

    def __init__(self, horizon, gamma=1.0, state=(0.0,), reward=1.0,
                 action_dim=1):
        self.horizon = horizon
        self.action_dim = action_dim
        self.gamma = gamma
        self.state = np.asarray(state, dtype=float)
        self.observation_dim = self.state.shape[0]
        self.reward = reward

    def reset(self, seeds):
        self._n = len(seeds)
        return np.tile(self.state, (self._n, 1))

    def step(self, actions):
        return (np.tile(self.state, (self._n, 1)), np.full(self._n, self.reward),
                np.zeros(self._n, dtype=bool))


class BadEnv(ConstantRewardEnv):
    def __init__(self, horizon):
        super().__init__(horizon, reward=np.nan)


def engine_forward(params, arch, state):
    """Action mean the engine computes for one state (B = 1, one step)."""
    env = ConstantRewardEnv(1, state=state, action_dim=arch.output_dim)
    return rollout(params, arch, env, [0], record=True).actions[0, 0]


def test_param_count_examples():
    assert param_count(MlpArchitecture(2, (4,), 1)) == 17
    assert param_count(MlpArchitecture(3, (), 3)) == 12
    # independent oracle: per-layer summation by hand
    dims = [36, 64, 64, 8]
    expected = sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))
    assert expected == 7048
    assert param_count(MlpArchitecture(36, (64, 64), 8)) == expected


def test_arch_validation():
    with pytest.raises(ContractError):
        MlpArchitecture(0, (4,), 1)
    with pytest.raises(ContractError):
        MlpArchitecture(2, (4,), 1, activation="relu")


def test_forward_zero_params():
    arch = MlpArchitecture(3, (5,), 2)
    out = engine_forward(np.zeros(param_count(arch)), arch, [1.0, -2.0, 3.0])
    assert np.array_equal(out, np.zeros(2))


def test_forward_identity_single_linear_layer():
    arch = MlpArchitecture(1, (), 1)
    params = np.array([1.0, 0.0])  # unit weight, zero bias
    assert engine_forward(params, arch, [0.5])[0] == 0.5


def test_forward_golden():
    with open(os.path.join(GOLDEN, "forward_golden.json")) as fh:
        g = json.load(fh)
    arch = MlpArchitecture(g["dims"][0], tuple(g["dims"][1:-1]), g["dims"][-1])
    out = engine_forward(np.array(g["params"]), arch, g["state"])
    assert np.allclose(out, g["expected"], rtol=0, atol=1e-10)


def test_forward_dimension_mismatch():
    arch = MlpArchitecture(3, (5,), 2)
    env = ConstantRewardEnv(1, state=np.zeros(4), action_dim=2)
    with pytest.raises(ContractError):
        rollout(np.zeros(param_count(arch)), arch, env, [0])
    env = ConstantRewardEnv(1, state=np.zeros(3), action_dim=2)
    with pytest.raises(ContractError):
        rollout(np.zeros(3), arch, env, [0])


def test_forward_linear_in_last_layer():
    arch = MlpArchitecture(3, (4,), 2)
    rng = make_stream(1, 0)
    params = init_params(arch, rng)
    state = rng.standard_normal(3)
    doubled = params.copy()
    # final layer: last (4+1)*2 entries (weights then bias)
    doubled[-10:] *= 2.0
    assert np.allclose(engine_forward(doubled, arch, state),
                       2.0 * engine_forward(params, arch, state))


def test_sample_action_deterministic_mode():
    # without noise the engine acts with the policy mean, equal bit for bit
    # to a single-state forward of each visited state
    env = make_env("point-reach")
    arch = MlpArchitecture(4, (8,), 2)
    params = init_params(arch, make_stream(0, 1))
    batch = rollout(params, arch, env, [3], record=True)
    means = np.array([mlp_forward(params, arch, s[None])[0][0]
                      for s in batch.states[0]])
    assert np.array_equal(batch.actions[0], means)


def test_sample_action_tail_bound():
    arch = MlpArchitecture(1, (), 1)
    params = np.array([0.3, 0.2])
    env = ConstantRewardEnv(50, state=[1.0])
    noise = action_noise([make_stream(0, 2)], 50, 1, 0.01)
    actions = rollout(params, arch, env, [0], noise, record=True).actions
    assert np.all(np.abs(actions - 0.5) < 5 * 0.01)


def test_sample_action_empirical_std():
    draws = action_noise([make_stream(0, 3)], 100_000, 1, 0.01)
    assert abs(draws.std() - 0.01) < 0.02 * 0.01


def test_discounted_return_examples():
    assert discounted_return([1.0] * 5, 1.0) == 5.0
    assert discounted_return([1.0, 1.0, 1.0], 0.5) == 1.75


def test_discounting_matches_horner():
    rng = make_stream(0, 4)
    rewards = rng.standard_normal(50)
    gamma = 0.97
    horner = 0.0
    for r in rewards[::-1]:
        horner = r + gamma * horner
    assert discounted_return(rewards, gamma) == pytest.approx(horner, abs=1e-12)


def test_rollout_constant_reward():
    arch = MlpArchitecture(1, (), 1)
    params = np.zeros(2)
    batch = rollout(params, arch, ConstantRewardEnv(5), [0])
    assert batch.returns[0] == 5.0
    assert batch.length == 5
    batch = rollout(params, arch, ConstantRewardEnv(3, gamma=0.5), [0])
    assert batch.returns[0] == 1.75


def test_rollout_golden_point_reach_zero_policy():
    with open(os.path.join(GOLDEN, "rollout_golden.json")) as fh:
        g = json.load(fh)
    env = make_env(g["env"])
    assert (env.gamma, env.horizon) == (g["gamma"], g["horizon"])
    obs = env.reset([g["env_seed"]])
    assert np.allclose(obs[0], g["initial_observation"], atol=0)
    arch = MlpArchitecture(4, (), 2)
    batch = rollout(np.zeros(param_count(arch)), arch, env, [g["env_seed"]])
    assert batch.returns[0] == pytest.approx(g["expected_return"], abs=1e-9)


def test_rollout_determinism_bitwise():
    env_seed, arch = 11, MlpArchitecture(4, (8,), 2)
    params = init_params(arch, make_stream(3, 0))
    batches = []
    for _ in range(2):
        env = make_env("point-reach")
        noise = action_noise([make_stream(9, 1)], env.horizon, 2, 0.01)
        batches.append(rollout(params, arch, env, [env_seed], noise,
                               record=True))
    a, b = batches
    assert a.returns[0] == b.returns[0]
    assert np.array_equal(a.actions, b.actions)


def test_rollout_aborts_on_nonfinite():
    arch = MlpArchitecture(1, (), 1)
    with pytest.raises(RolloutError, match="step 0") as info:
        rollout(np.zeros(2), arch, BadEnv(5), [0, 1])
    assert info.value.row == 0


@pytest.mark.parametrize("env_id", env_ids())
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("action_std", [0.0, 0.05])
def test_batch_rows_match_single_episode(env_id, per_row, action_std):
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (16, 16), env.action_dim)
    n = 5
    seeds = list(range(100, 100 + n))
    rng = make_stream(8, 0)
    base = init_params(arch, rng)
    params = base + 0.1 * rng.standard_normal((n, base.shape[0])) if per_row else base
    noise = None
    if action_std > 0:
        noise = action_noise([make_stream(8, 1, i) for i in range(n)],
                             env.horizon, env.action_dim, action_std)
    batch = rollout(params, arch, env, seeds, noise, record=True)
    assert batch.length == n * env.horizon
    for i in range(n):
        one = rollout(params[i] if per_row else params, arch, make_env(env_id),
                      seeds[i:i + 1], None if noise is None else noise[i:i + 1],
                      record=True)
        assert one.returns[0] == batch.returns[i]
        assert one.success[0] == batch.success[i]
        for field in ("rewards", "final_obs", "states", "actions"):
            assert np.array_equal(getattr(one, field)[0],
                                  getattr(batch, field)[i]), field
