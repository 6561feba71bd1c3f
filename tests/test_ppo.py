import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from refine_es.checkpoint import load_checkpoint, save_checkpoint
from refine_es.envs import PointReach, env_ids, make_env
from refine_es.errors import ContractError, RolloutError
from refine_es.policy import param_count
from refine_es.ppo import (ActorCritic, PpoConfig, architectures,
                           collect_rollouts, gae_advantages, gaussian_log_prob,
                           init_actor_critic, loss_and_grads,
                           normalize_advantages, optimizer_step,
                           policy_entropy, ppo_update, train_anchor,
                           train_anchors)
from refine_es.rng import make_stream


def _copy(ac):
    return ActorCritic(ac.actor_arch, ac.critic_arch, ac.params)


def _stack(*acs):
    """The stack of runs that the lockstep functions take, one row per
    actor-critic."""
    return ActorCritic(acs[0].actor_arch, acs[0].critic_arch,
                       [ac.params for ac in acs])


def _fresh_adam(params):
    """The stacked Adam state of fresh runs, one row per row of `params`."""
    return {"adam_m": np.zeros_like(params), "adam_v": np.zeros_like(params),
            "adam_t": np.zeros(len(params), dtype=object)}


def tiny_config(**kw):
    base = dict(total_steps=1000, hidden_dims=(4,), seed=0)
    base.update(kw)
    return PpoConfig(**base)


def test_config_validation():
    with pytest.raises(ContractError):
        tiny_config(clip_epsilon=0.0)
    with pytest.raises(ContractError):
        tiny_config(gae_lambda=1.5)
    with pytest.raises(ContractError):
        tiny_config(optimizer="rmsprop")
    with pytest.raises(ContractError):
        tiny_config(learning_rate=0.0)
    with pytest.raises(ContractError, match="minibatch_size"):
        tiny_config(minibatch_size=0)
    with pytest.raises(ContractError, match="episodes_per_update"):
        tiny_config(episodes_per_update=0)
    with pytest.raises(ContractError, match="hidden_dims"):
        tiny_config(hidden_dims=(0,))
    with pytest.raises(ContractError, match="epochs"):
        tiny_config(epochs=0)


def test_config_roundtrip():
    c = tiny_config(optimizer="adam")
    d = c.to_dict()
    assert set(d) == {f.name for f in fields(PpoConfig)}
    assert PpoConfig(**{**d, "hidden_dims": tuple(d["hidden_dims"])}) == c


def test_gae_lambda_zero_is_one_step_td():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 1.5, 2.5])
    adv = gae_advantages(rewards, values, gamma=0.9, lam=0.0,
                         bootstrap_value=4.0)
    deltas = [1.0 + 0.9 * 1.5 - 0.5, 2.0 + 0.9 * 2.5 - 1.5,
              3.0 + 0.9 * 4.0 - 2.5]
    assert np.allclose(adv, deltas, atol=1e-14)


def test_gae_lambda_one_is_discounted_return_minus_value():
    rng = make_stream(1, 0)
    rewards = rng.standard_normal(6)
    values = rng.standard_normal(6)
    boot = 0.7
    gamma = 0.95
    adv = gae_advantages(rewards, values, gamma, lam=1.0, bootstrap_value=boot)
    n = len(rewards)
    for t in range(n):
        ret = sum(gamma ** (k - t) * rewards[k] for k in range(t, n))
        ret += gamma ** (n - t) * boot
        assert adv[t] == pytest.approx(ret - values[t], abs=1e-10)


def test_gae_matches_brute_force_double_loop():
    rng = make_stream(2, 0)
    rewards = rng.standard_normal(8)
    values = rng.standard_normal(8)
    gamma, lam, boot = 0.93, 0.8, -0.4
    adv = gae_advantages(rewards, values, gamma, lam, boot)
    vs = np.append(values, boot)
    deltas = rewards + gamma * vs[1:] - vs[:-1]
    n = len(rewards)
    oracle = [sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, n))
              for t in range(n)]
    assert np.allclose(adv, oracle, atol=1e-10)


def scalar_gae(rewards, values, gamma, lam, bootstrap_value):
    """The recursion one Python float at a time, as a bit-level oracle."""
    adv = np.empty(len(rewards))
    next_adv, next_value = 0.0, bootstrap_value
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        next_adv = delta + gamma * lam * next_adv
        adv[t] = next_adv
        next_value = values[t]
    return adv


@pytest.mark.parametrize("lam", [0.0, 0.95, 1.0])
def test_gae_over_episode_axis_matches_rows_bitwise(lam):
    rng = make_stream(3, int(lam * 100))
    rewards = rng.standard_normal((5, 40)) * 10.0
    values = rng.standard_normal((5, 40))
    boot = rng.standard_normal(5)
    rewards[1, 7], values[2, 0] = -0.0, -0.0
    adv = gae_advantages(rewards, values, 0.99, lam, boot)
    assert adv.shape == (5, 40)
    for e in range(5):
        row = gae_advantages(rewards[e], values[e], 0.99, lam, float(boot[e]))
        oracle = scalar_gae(rewards[e], values[e], 0.99, lam, float(boot[e]))
        assert adv[e].tobytes() == row.tobytes() == oracle.tobytes()


def test_gae_alignment_contract():
    with pytest.raises(ContractError):
        gae_advantages(np.zeros(3), np.zeros(4), 0.9, 0.9, 0.0)


def test_gaussian_log_prob_matches_scipy():
    rng = make_stream(3, 0)
    actions = rng.standard_normal((5, 2))
    means = rng.standard_normal((5, 2))
    log_std = np.array([-0.3, 0.2])
    ours = gaussian_log_prob(actions, means, log_std)
    oracle = norm.logpdf(actions, means, np.exp(log_std)).sum(axis=1)
    assert np.allclose(ours, oracle, atol=1e-12)


def test_policy_entropy_formula():
    log_std = np.array([-0.5, 0.1, 0.3])
    expected = float(np.sum(log_std + 0.5 * np.log(2 * np.pi * np.e)))
    assert policy_entropy(log_std) == pytest.approx(expected, abs=1e-12)


def test_normalize_advantages_exact():
    adv = np.array([1.0, 2.0, 3.0, 10.0])
    z = normalize_advantages(adv)
    assert z.mean() == pytest.approx(0.0, abs=1e-15)
    assert z.std() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(normalize_advantages(np.full(5, 3.0)), np.zeros(5))


def _random_instance(seed, n=6, obs_dim=3, act_dim=2):
    """A small clipped-surrogate instance kept away from the clip boundary
    and the surr1 == surr2 tie, where the loss is differentiable."""
    config = PpoConfig(total_steps=0, hidden_dims=(4,), clip_epsilon=0.2,
                       value_coef=0.5, entropy_coef=0.01, seed=seed)
    ac = init_actor_critic(obs_dim, act_dim, config)
    rng = make_stream(seed, 0xFD)
    ac.log_std[:] = rng.uniform(-1.0, 0.0, act_dim)
    states = rng.standard_normal((n, obs_dim))
    mu, _ = __import__("refine_es.policy", fromlist=["mlp_forward"]).mlp_forward(
        ac.actor_params, ac.actor_arch, states)
    actions = mu + np.exp(ac.log_std) * rng.standard_normal((n, act_dim))
    logp = gaussian_log_prob(actions, mu, ac.log_std)
    # offsets chosen so each ratio sits strictly inside or strictly outside
    # the clip interval, never on its edge and never at ratio == 1
    log_probs_old = logp + rng.uniform(0.02, 0.12, n) * rng.choice([-1.0, 1.0], n)
    advantages = rng.standard_normal(n) + 0.1
    returns = rng.standard_normal(n)
    return ac, states, actions, log_probs_old, advantages, returns, config


def _fd_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def _check_instance(seed):
    ac, states, actions, lp_old, adv, ret, config = _random_instance(seed)
    _, _, grad = loss_and_grads(ac, states, actions, lp_old, adv, ret, config)
    g_actor, g_log_std, g_critic = ac.split(grad)

    def loss_with(actor=None, log_std=None, critic=None):
        trial = _copy(ac)
        if actor is not None:
            trial.actor_params[:] = actor
        if log_std is not None:
            trial.log_std[:] = log_std
        if critic is not None:
            trial.critic_params[:] = critic
        return loss_and_grads(trial, states, actions, lp_old, adv, ret,
                              config)[0]

    for analytic, fd in (
            (g_actor, _fd_grad(lambda p: loss_with(actor=p), ac.actor_params)),
            (g_log_std, _fd_grad(lambda p: loss_with(log_std=p), ac.log_std)),
            (g_critic, _fd_grad(lambda p: loss_with(critic=p), ac.critic_params))):
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(analytic - fd)) / scale < 1e-5


def test_gradients_match_finite_differences():
    for seed in range(5):
        _check_instance(seed)


def test_clip_engagement_zeroes_policy_gradient():
    # ratio far above 1 + eps with positive advantage: the clipped branch is
    # strictly selected, so the policy gradient vanishes
    config = PpoConfig(total_steps=0, hidden_dims=(4,), value_coef=0.0,
                       entropy_coef=0.0, seed=0)
    ac = init_actor_critic(2, 1, config)
    states = make_stream(0, 0xC1).standard_normal((3, 2))
    mu, _ = __import__("refine_es.policy", fromlist=["mlp_forward"]).mlp_forward(
        ac.actor_params, ac.actor_arch, states)
    actions = mu  # logp is maximal at the mean
    logp = gaussian_log_prob(actions, mu, ac.log_std)
    log_probs_old = logp - 1.0  # ratio = e > 1.2
    advantages = np.ones(3)
    _, _, grad = loss_and_grads(
        ac, states, actions, log_probs_old, advantages, np.zeros(3), config)
    g_actor, g_log_std, _ = ac.split(grad)
    assert np.array_equal(g_actor, np.zeros_like(g_actor))
    assert np.array_equal(g_log_std, np.zeros_like(g_log_std))


def test_sgd_step_exact():
    config = tiny_config()
    ac = _stack(init_actor_critic(2, 1, config))
    before = ac.actor_params.copy()
    g = np.zeros_like(ac.params)
    ac.split(g)[0][:] = 1.0
    optimizer_step(ac.params, g, {}, config.learning_rate)
    assert np.allclose(ac.actor_params, before - config.learning_rate, atol=0)


def test_adam_state_roundtrip():
    # a stack of two runs whose step counts differ: each row steps bit for
    # bit as a one-run step from a copy of that row's state
    config = tiny_config(optimizer="adam")
    lr = config.learning_rate
    params = _stack(init_actor_critic(2, 1, config), init_actor_critic(
        2, 1, replace(config, seed=1))).params
    adam = _fresh_adam(params)
    g = make_stream(5, 0).standard_normal(params.shape)
    optimizer_step(params, g, adam, lr)
    # run 0 steps once more alone, through views of its row
    optimizer_step(params[:1], g[:1], {k: v[:1] for k, v in adam.items()}, lr)
    assert list(adam["adam_t"]) == [2, 1]
    alone = [(params[i:i + 1].copy(),
              {k: v[i:i + 1].copy() for k, v in adam.items()})
             for i in range(2)]
    before = params.copy()
    g = make_stream(5, 1).standard_normal(params.shape)
    optimizer_step(params, g, adam, lr)
    assert list(adam["adam_t"]) == [3, 2]
    assert all(type(t) is int for t in adam["adam_t"])
    for i, (row, state) in enumerate(alone):
        optimizer_step(row, g[i:i + 1], state, lr)
        assert row.tobytes() == params[i].tobytes()
        for k in ("adam_m", "adam_v"):
            assert state[k].tobytes() == adam[k][i].tobytes()
        assert state["adam_t"][0] == adam["adam_t"][i]
    assert np.all(params != before)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_apply_updates_all_three_views(optimizer):
    config = tiny_config(optimizer=optimizer)
    ac = _stack(init_actor_critic(2, 1, config))
    views = (ac.actor_params, ac.log_std, ac.critic_params)
    before = [v.copy() for v in views]
    grad = make_stream(6, 0).standard_normal(ac.params.shape)
    adam = _fresh_adam(ac.params) if optimizer == "adam" else {}
    optimizer_step(ac.params, grad, adam, config.learning_rate)
    for view, old, now in zip(views, before, ac.split(ac.params)):
        assert np.array_equal(view, now)
        assert np.all(view != old)
    if optimizer == "sgd":
        assert np.array_equal(
            np.concatenate(views, axis=-1),
            np.concatenate(before, axis=-1) - config.learning_rate * grad)


def test_actor_critic_views_alias_params_only():
    ac = init_actor_critic(3, 2, tiny_config())
    twin = _copy(ac)
    for name in ("params", "actor_params", "log_std", "critic_params"):
        assert not np.shares_memory(getattr(ac, name), getattr(twin, name))
    for name in ("actor_params", "log_std", "critic_params"):
        assert np.shares_memory(getattr(ac, name), ac.params)
        with pytest.raises(AttributeError):
            setattr(ac, name, np.zeros_like(getattr(ac, name)))
    ac.log_std[:] = 0.25
    assert np.array_equal(ac.split(ac.params)[1], [0.25, 0.25])
    assert not np.array_equal(twin.log_std, ac.log_std)


def test_actor_critic_roundtrip():
    ac = init_actor_critic(3, 2, tiny_config())
    twin = ActorCritic(*architectures(3, 2, tiny_config()), ac.params)
    assert np.array_equal(ac.actor_params, twin.actor_params)
    assert np.array_equal(ac.log_std, twin.log_std)
    assert ac.actor_arch == twin.actor_arch
    assert param_count(twin.critic_arch) == twin.critic_params.shape[0]
    with pytest.raises(ContractError, match="params do not match"):
        ActorCritic(ac.actor_arch, ac.critic_arch, ac.params[:-1])


def test_collect_rollouts_shapes_and_budget():
    config = tiny_config(episodes_per_update=2)
    ac = _stack(init_actor_critic(4, 2, config))
    (states, actions, log_probs, adv, returns), mean_return, success_rate = \
        collect_rollouts(ac, make_env("point-reach"), config, [(0, 0)])
    n = 2 * 100
    assert config.update_steps(100) == n
    assert states.shape == (1, n, 4)
    assert actions.shape == (1, n, 2)
    assert log_probs.shape == adv.shape == returns.shape == (1, n)
    assert len(mean_return) == len(success_rate) == 1


@pytest.mark.parametrize("env_id", env_ids())
def test_collection_forwards_equal_per_episode_calls_bitwise(env_id,
                                                            monkeypatch):
    # collect_rollouts runs each network once on the stacked (episodes,
    # horizon, obs) states, the critic's with the final obs appended, and
    # relies on numpy computing that as one product per episode: the
    # per-episode call's bits. A numpy that runs a stacked matmul as one
    # product over every row can change them, and fails here
    import refine_es.ppo as ppo_module

    # The minibatch step's forwards stack the runs of a lockstep group,
    # (runs, rows, obs) under one vector per run, and are checked per run
    # the same way
    forward, calls = ppo_module.mlp_forward, []

    def checked_forward(params, arch, x):
        out, acts = forward(params, arch, x)
        if x.ndim == 3:
            for ep in range(x.shape[0]):
                alone = params if params.ndim == 1 else params[ep]
                assert forward(alone, arch, x[ep])[0].tobytes() == \
                    out[ep].tobytes(), (
                        f"numpy's stacked matmul changed the bits of episode "
                        f"{ep}: collect_rollouts needs a forward per episode")
            if params.ndim == 1:
                calls.append((arch.output_dim, x.shape))
        return out, acts

    monkeypatch.setattr(ppo_module, "mlp_forward", checked_forward)
    env = make_env(env_id)
    cfg = PpoConfig(total_steps=3 * 8 * env.horizon, episodes_per_update=8,
                    epochs=1, minibatch_size=128, hidden_dims=(64, 64),
                    optimizer="adam", seed=3)
    assert len(train_anchor(env, cfg)["curve"]) == 3
    obs = env.observation_dim
    assert calls == [(env.action_dim, (8, env.horizon, obs)),
                     (1, (8, env.horizon + 1, obs))] * 3


def test_curve_mean_return_is_the_rollouts_episode_return(monkeypatch):
    # one definition of an episode's return: the discounted return that
    # policy.rollout accumulates, which ES and every evaluation use too
    import refine_es.ppo as ppo_module

    original, batches = ppo_module.rollout, []

    def noting_rollout(*args, **kw):
        batches.append(original(*args, **kw))
        return batches[-1]

    monkeypatch.setattr(ppo_module, "rollout", noting_rollout)
    env = make_env("peg-insert-1d")
    cfg = PpoConfig(total_steps=8 * env.horizon, episodes_per_update=8,
                    hidden_dims=(64, 64), optimizer="adam", seed=0)
    _, mean_return, _ = collect_rollouts(_stack(init_actor_critic(
        env.observation_dim, env.action_dim, cfg)), env, cfg, [(0, 0)])
    assert len(batches) == 1
    assert mean_return == [float(np.mean(batches[0].returns))]


def test_budget_below_one_update_is_noop():
    # the run returns its fresh state, with the keys that it would hand out
    for optimizer, adam in (("sgd", []), ("adam", ["adam_m", "adam_v",
                                                   "adam_t"])):
        config = tiny_config(total_steps=100, episodes_per_update=8,
                             optimizer=optimizer)
        res = train_anchor(make_env("point-reach"), config)
        assert list(res) == ["update_index", "params", *adam, "steps_used",
                             "curve"]
        fresh = init_actor_critic(4, 2, config)
        assert res["params"].tobytes() == fresh.params.tobytes()
        assert (res["update_index"], res["steps_used"], res["curve"]) == \
            (-1, 0, [])
        if adam:
            assert not res["adam_m"].any() and not res["adam_v"].any()
            assert res["adam_t"] == 0


def test_train_anchor_bitwise_deterministic():
    config = tiny_config(total_steps=1700, episodes_per_update=2)
    runs = [train_anchor(make_env("point-reach"), config)
            for _ in range(2)]
    a, b = runs
    assert np.array_equal(a["params"], b["params"])
    assert a["curve"] == b["curve"]
    # 2 episodes x 100 steps per update; 8 updates fit in 1700
    assert a["steps_used"] == 1600


def _bits(state):
    """All that a resumed run must reproduce: parameters, steps, curve, and
    Adam's m, v and t."""
    return (state["params"].tobytes(), state["steps_used"], state["curve"],
            state["adam_m"].tobytes(), state["adam_v"].tobytes(),
            state["adam_t"])


def test_train_anchor_resume_bitwise():
    # resume from every update's state
    config = tiny_config(total_steps=1000, episodes_per_update=2,
                         optimizer="adam")
    env = make_env("point-reach")
    states = []
    full = train_anchor(env, config, checkpoint_cb=lambda s: states.append(
        copy.deepcopy(s)))
    assert [s["update_index"] for s in states] == list(range(5))
    assert list(states[0]) == ["update_index", "params", "adam_m", "adam_v",
                               "adam_t", "steps_used", "curve"]
    expected = _bits(full)
    for state in states:
        assert _bits(train_anchor(env, config, state)) == expected


def test_train_anchor_resumes_from_a_loaded_checkpoint(tmp_path):
    # a cell's checkpoint is the handed-out state plus keys the run ignores
    config = tiny_config(total_steps=1000, episodes_per_update=2,
                         optimizer="adam")
    env = make_env("point-reach")
    states = []
    full = train_anchor(env, config, checkpoint_cb=lambda s: states.append(
        copy.deepcopy(s)))
    path = str(tmp_path / "checkpoint.npz")
    save_checkpoint(path, {"stage": "ppo", **states[1],
                           "ppo_config": config.to_dict(),
                           "master_seed": 0})
    loaded = load_checkpoint(path)
    assert loaded["update_index"] == 1 and loaded["format_version"] == 3
    handed = []
    res = train_anchor(env, config, loaded, checkpoint_cb=lambda s:
                       handed.append(copy.deepcopy(s)))
    assert _bits(res) == _bits(full)
    # each state handed out holds the run's keys only, in a fresh run's order
    assert len(handed) == 3
    assert all(list(s) == list(states[0]) for s in handed)


def _same_states(a, b):
    """Whether two lists of handed-out states are equal, arrays bit for bit
    and every other value of the same type."""
    return len(a) == len(b) and all(
        list(x) == list(y) and all(
            x[k].tobytes() == y[k].tobytes() if isinstance(x[k], np.ndarray)
            else (type(x[k]), x[k]) == (type(y[k]), y[k]) for k in x)
        for x, y in zip(a, b))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lockstep_runs_equal_their_solo_runs(data):
    # each run of a group, fresh or resumed from any update of its solo
    # run, so that runs leave the group at different iterations, hands out
    # and returns the same bits as that run alone, whatever the others do
    env = make_env(data.draw(st.sampled_from(env_ids()), label="env"))
    n_ep = data.draw(st.integers(1, 2), label="episodes")
    rows = n_ep * env.horizon
    config = PpoConfig(
        total_steps=3 * rows, episodes_per_update=n_ep,
        epochs=data.draw(st.integers(1, 2), label="epochs"),
        minibatch_size=data.draw(st.integers(rows // 6, rows - 1).filter(
            lambda m: rows % m), label="minibatch"),
        hidden_dims=tuple(data.draw(st.lists(st.integers(1, 4), min_size=1,
                                             max_size=2), label="hidden")),
        optimizer=data.draw(st.sampled_from(["sgd", "adam"]), label="opt"))
    runs, alone = [], []
    for _ in range(data.draw(st.integers(1, 4), label="runs")):
        cfg = replace(config, seed=data.draw(st.integers(0, 2 ** 64 - 1),
                                             label="seed"))
        states = [None]
        train_anchor(env, cfg, checkpoint_cb=lambda s: states.append(
            copy.deepcopy(s)))
        start = data.draw(st.sampled_from(states), label="start")
        handed = []
        res = train_anchor(env, cfg, copy.deepcopy(start), lambda s, h=handed:
                           h.append(copy.deepcopy(s)))
        alone.append((res, handed))
        runs.append((cfg, copy.deepcopy(start)))

    handed, live = [[] for _ in runs], [[] for _ in runs]
    results = train_anchors(env, [
        (cfg, start, lambda s, h=h, g=g: (h.append(copy.deepcopy(s)),
                                          g.append(s)))
        for (cfg, start), h, g in zip(runs, handed, live)])
    for res, got, given, (_, start), (solo, solo_handed) in zip(
            results, handed, live, runs, alone):
        assert _same_states(got, solo_handed)
        assert _same_states([res], [solo])
        # a run returns the dict that it handed out last, or its start state
        if given:
            assert res is given[-1]
        elif start is not None:
            assert _same_states([res], [start])


def test_lockstep_runs_share_one_config_but_the_seed():
    env = make_env("point-reach")
    with pytest.raises(ContractError, match="differ in their seed only"):
        train_anchors(env, [(tiny_config(), None, None),
                            (tiny_config(learning_rate=0.01), None, None)])


def test_ppo_update_rejects_nonfinite():
    config = tiny_config(episodes_per_update=1, minibatch_size=8)
    ac = _stack(init_actor_critic(4, 2, config))
    rows = collect_rollouts(ac, make_env("point-reach"), config, [(0, 0)])[0]
    rows[4][:] = np.nan  # the returns
    with pytest.raises(RolloutError, match="non-finite PPO loss at update 3"):
        ppo_update(ac, rows, config, {}, [(0, 3)])


def test_collect_rollouts_rejects_nonfinite():
    class NanRewardEnv(PointReach):
        """Episode 1 of a batch gets a NaN reward at step 4."""

        def _reward(self):
            r, distance = super()._reward()
            if self._step_count == 4:
                r[1] = np.nan
            return r, distance

    config = tiny_config(episodes_per_update=3)
    ac = _stack(init_actor_critic(4, 2, config))
    with pytest.raises(RolloutError,
                       match="update 5, episode 1: non-finite .* step 4"):
        collect_rollouts(ac, NanRewardEnv(), config, [(0, 5)])


def test_training_improves_return():
    config = tiny_config(total_steps=8000, episodes_per_update=4,
                         optimizer="adam", seed=1)
    res = train_anchor(make_env("point-reach"), config)
    curve = res["curve"]
    assert curve[-1]["mean_return"] > curve[0]["mean_return"]
