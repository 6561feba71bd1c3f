import numpy as np
import pytest
from experts import expert_action

from refine_es.envs import ArmReach, env_ids, make_env
from refine_es.errors import ContractError

ALL_IDS = ("arm-reach", "peg-insert-1d", "point-reach")

# |r_t| never exceeds these for clipped actions
REWARD_BOUNDS = {
    # |pos| <= 0.5 + H*dt, |goal| <= 0.5
    "point-reach": np.sqrt(2.0) * (1.0 + 100 * 0.05),
    # end effector and goal both inside the radius-1 disc
    "arm-reach": 2.0,
    # |depth| <= H*dt = 4, target <= 1.2
    "peg-insert-1d": (4.0 + 1.2) * 3.0,
}


def run_expert(env, seeds):
    """Expert episodes, one per seed, in one batch: success (B,) and
    rewards (horizon, B)."""
    obs = env.reset(seeds)
    success = np.zeros(len(seeds), dtype=bool)
    rewards = []
    for _ in range(env.horizon):
        obs, r, s = env.step(expert_action(env, obs))
        rewards.append(r)
        success |= s
    return success, np.array(rewards)


def test_registry():
    assert env_ids() == sorted(ALL_IDS)
    with pytest.raises(ContractError):
        make_env("cartpole")


def test_reset_goldens_seed_zero():
    golden = {
        "point-reach": [0.0, 0.0, 0.1369616873214543, -0.2302132862361297],
        "arm-reach": [0.08217701239287256, -0.13812797174167782,
                      0.5849209312826729, -0.7941416588832835],
        "peg-insert-1d": [0.0, 1.0547846749285816],
    }
    for eid, expected in golden.items():
        assert np.array_equal(make_env(eid).reset([0]), [expected])
        # a row of a batch is the same episode as that seed alone
        assert np.array_equal(make_env(eid).reset([5, 0, 7])[1], expected)


def test_reset_determinism_bitwise():
    for eid in ALL_IDS:
        a = make_env(eid).reset([123])
        b = make_env(eid).reset([123])
        assert np.array_equal(a, b)
        c = make_env(eid).reset([124])
        assert not np.array_equal(a, c)


def test_step_determinism_bitwise():
    for eid in ALL_IDS:
        traces = []
        for _ in range(2):
            env = make_env(eid)
            env.reset([5])
            rng = np.random.Generator(np.random.PCG64(9))
            trace = []
            for _ in range(env.horizon):
                obs, r, _ = env.step(rng.uniform(-1, 1, (1, env.action_dim)))
                trace.append((obs.copy(), r))
            traces.append(trace)
        for (oa, ra), (ob, rb) in zip(*traces):
            assert np.array_equal(oa, ob) and np.array_equal(ra, rb)


def test_episode_length_exact_and_step_after_done():
    for eid in ALL_IDS:
        env = make_env(eid)
        env.reset([1, 2])
        for _ in range(env.horizon):
            env.step(np.zeros((2, env.action_dim)))
        with pytest.raises(ContractError, match="episode already finished"):
            env.step(np.zeros((2, env.action_dim)))


def clip_step(env, actions):
    """ToyEnv.step with np.clip, as a bit-level oracle for its clip."""
    env.state = env.state + env.dt * np.clip(
        np.asarray(actions, dtype=float), -1.0, 1.0)
    reward, distance = env._reward()
    env._step_count += 1
    env._success |= distance < env.tolerance
    return env._observe(), reward, env._success.copy()


@pytest.mark.parametrize("eid", ALL_IDS)
def test_step_clips_special_actions_like_np_clip(eid):
    special = np.array([np.nan, np.inf, -np.inf, 1.5, -1.5, -0.0, 0.0, 0.3])
    env, oracle = make_env(eid), make_env(eid)
    seeds = list(range(len(special)))
    assert env.reset(seeds).tobytes() == oracle.reset(seeds).tobytes()
    with np.errstate(invalid="ignore"):
        for t in range(4):  # NaN and inf rows stay non-finite from here on
            actions = np.stack([np.roll(special, t + j)
                                for j in range(env.action_dim)], axis=1)
            obs, reward, success = env.step(actions)
            ref_obs, ref_reward, ref_success = clip_step(oracle, actions)
            assert obs.tobytes() == ref_obs.tobytes()
            assert reward.tobytes() == ref_reward.tobytes()
            assert success.tobytes() == ref_success.tobytes()


def test_action_shape_contract():
    env = make_env("point-reach")
    env.reset([0, 1])
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((3, 2))):
        with pytest.raises(ContractError):
            env.step(bad)


def test_reward_bounds_random_actions():
    for eid in ALL_IDS:
        env = make_env(eid)
        rng = np.random.Generator(np.random.PCG64(3))
        env.reset(range(5))
        for _ in range(env.horizon):
            # out-of-range actions are clipped, so the bound still holds
            _, r, _ = env.step(rng.uniform(-3, 3, (5, env.action_dim)))
            assert np.all(np.abs(r) <= REWARD_BOUNDS[eid])


@pytest.mark.parametrize("eid", ALL_IDS)
def test_expert_solves_at_least_95_of_100_seeds(eid):
    wins = run_expert(make_env(eid), range(100))[0].sum()
    assert wins >= 95


def test_success_latches():
    # drive to the goal with the expert, then drive away: success stays True
    env = make_env("point-reach")
    obs = env.reset([2])
    steps = 0
    success = [False]
    while not success[0] and steps < env.horizon:
        obs, _, success = env.step(expert_action(env, obs))
        steps += 1
    assert success[0]
    for _ in range(env.horizon - steps):
        obs, _, success = env.step(np.array([[1.0, 1.0]]))
        assert success[0]
    assert np.linalg.norm(obs[0, :2] - obs[0, 2:]) >= env.tolerance


def test_arm_zero_action_fixed_point():
    env = make_env("arm-reach")
    obs0 = env.reset([4])
    obs, _, _ = env.step(np.zeros((1, 2)))
    assert np.array_equal(obs, obs0)


def test_arm_fk_matches_hand_computation():
    env = ArmReach()
    # straight arm along x: q = (0, 0) -> (l1 + l2, 0)
    # right angle at the elbow: q = (0, pi/2) -> (l1, l2)
    q = np.array([[0.0, 0.0], [0.0, np.pi / 2]])
    assert np.allclose(env._fk(q), [[1.0, 0.0], [0.5, 0.5]], atol=1e-15)


def test_arm_goals_are_reachable():
    env = make_env("arm-reach")
    env.reset(range(50))
    r = np.linalg.norm(env.goal, axis=1)
    assert np.all(r <= sum(env.link) + 1e-12)
    assert np.all(r >= abs(env.link[0] - env.link[1]) - 1e-12)


def test_peg_overshoot_penalized():
    env = make_env("peg-insert-1d")
    env.reset([0, 0])
    env.state = env.goal + np.array([[-0.1], [0.1]])
    r_under, r_over = env._reward()[0]
    assert r_under == pytest.approx(-0.1)
    assert r_over == pytest.approx(-0.1 - env.overshoot_penalty * 0.1)


def test_peg_target_range():
    env = make_env("peg-insert-1d")
    env.reset(range(50))
    assert env.goal.shape == (50, 1)
    assert np.all((0.8 <= env.goal) & (env.goal <= 1.2))


def test_expert_reward_improves_over_zero_policy():
    for eid in ALL_IDS:
        env = make_env(eid)
        _, expert_rewards = run_expert(env, [0])
        env.reset([0])
        zero_rewards = [env.step(np.zeros((1, env.action_dim)))[1]
                        for _ in range(env.horizon)]
        assert expert_rewards.sum() > np.sum(zero_rewards)
