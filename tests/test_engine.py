import os
from dataclasses import fields, replace

import numpy as np
import pytest

from refine_es.engine import (EsConfig, GenerationRecord, evaluate_center,
                              sigma_at, tdes_run)
from refine_es.errors import ContractError, RolloutError
from refine_es.policy import MlpArchitecture, param_count


class TargetEnv:
    """Batch-shaped one-step env: reward = -(a - 0.5)^2, so the episodic
    return is a deterministic quadratic in the policy parameters."""

    observation_dim = 1
    action_dim = 1
    horizon = 1
    gamma = 1.0

    def __init__(self, success=False):
        self._success = success

    def reset(self, seeds):
        self._n = len(seeds)
        return np.ones((self._n, 1))

    def step(self, actions):
        r = -(actions[:, 0] - 0.5) ** 2
        return np.ones((self._n, 1)), r, True, np.full(self._n, self._success)


class SeedEnv(TargetEnv):
    """Its reward depends only on the episode's env seed."""

    def reset(self, seeds):
        self._r = np.array([s % 1000 for s in seeds]) / 1000.0
        return super().reset(seeds)

    def step(self, actions):
        obs, _, terminated, success = super().step(actions)
        return obs, self._r.copy(), terminated, success


class NanEnv(TargetEnv):
    """Emits a NaN reward in row 3 of a batch."""

    def step(self, actions):
        obs, r, terminated, success = super().step(actions)
        r[3] = np.nan
        return obs, r, terminated, success


ARCH = MlpArchitecture(1, (), 1)  # params (w, b); action = w + b


def small_config(**kw):
    base = dict(sigma_es=0.1, alpha=0.02, m=4, generations=20, seed=0,
                action_std=0.0, sigma_min=1e-3)
    base.update(kw)
    return EsConfig(**base)


def test_config_validation():
    with pytest.raises(ContractError):
        small_config(sigma_es=0.0)
    with pytest.raises(ContractError):
        small_config(lambda_sigma=0.0)
    with pytest.raises(ContractError):
        small_config(sigma_min=0.5)  # above sigma_es
    with pytest.raises(ContractError):
        small_config(m=0)
    with pytest.raises(ContractError, match="center_eval_episodes"):
        small_config(center_eval_episodes=0)


def test_config_roundtrip():
    c = small_config(step_cap=100)
    d = c.to_dict()
    assert set(d) == {f.name for f in fields(EsConfig)}
    assert EsConfig(**d) == c


def test_sigma_schedule_closed_form():
    c = EsConfig(sigma_es=0.03, alpha=0.01, m=2, generations=1,
                 lambda_sigma=0.99, sigma_min=1e-3)
    assert sigma_at(c, 0) == 0.03
    assert sigma_at(c, 50) == pytest.approx(0.03 * 0.99 ** 50, abs=0)
    assert sigma_at(c, 50) == pytest.approx(0.018150182, abs=1e-6)
    assert sigma_at(c, 10_000) == 1e-3  # floor


def test_zero_generations_is_noop():
    anchor = np.array([0.3, -0.2])
    res = tdes_run(anchor, ARCH, TargetEnv(), small_config(generations=0))
    assert np.array_equal(res.params, anchor)
    assert res.steps_used == 0
    assert res.records == []


def test_anchor_shape_contract():
    with pytest.raises(ContractError):
        tdes_run(np.zeros(3), ARCH, TargetEnv(), small_config())


def test_step_accounting_exact():
    c = small_config(generations=7)
    res = tdes_run(np.zeros(2), ARCH, TargetEnv(), c)
    assert res.steps_used == 7 * 2 * c.m * TargetEnv.horizon
    assert [r.generation for r in res.records] == list(range(7))
    assert res.records[-1].steps_used == res.steps_used


def test_step_cap_blocks_partial_generation():
    c = small_config(generations=10, step_cap=3 * 2 * 4 * 1 + 1)
    res = tdes_run(np.zeros(2), ARCH, TargetEnv(), c)
    assert len(res.records) == 3  # a fourth generation would exceed the cap
    assert res.steps_used <= c.step_cap


def test_quadratic_convergence_ten_fold():
    # J(theta) = -((w + b) - 0.5)^2; starting value -0.25
    c = small_config(generations=200, alpha=0.005, lambda_sigma=1.0)
    res = tdes_run(np.zeros(2), ARCH, TargetEnv(), c)
    final_j = -((res.params.sum() - 0.5) ** 2)
    assert abs(final_j) < 0.25 / 10
    # the center-return log should reflect the improvement
    assert res.records[-1].center_return > res.records[0].center_return


def test_update_locality_matches_g_norm():
    thetas = []
    tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config(generations=5),
             checkpoint_cb=lambda t, th, s, r: thetas.append(th.copy()))
    res = tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config(generations=5))
    prev = np.zeros(2)
    for theta, rec in zip(thetas, res.records):
        assert np.linalg.norm(theta - prev) == pytest.approx(
            small_config().alpha * rec.g_norm, abs=1e-12)
        prev = theta


def test_run_bitwise_reproducible():
    a = tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config())
    b = tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config())
    assert np.array_equal(a.params, b.params)
    assert [r.to_dict() | {"wall_time": 0} for r in a.records] == \
           [r.to_dict() | {"wall_time": 0} for r in b.records]


def test_resume_bitwise_equal_to_uninterrupted():
    c = small_config(generations=12)
    full = tdes_run(np.zeros(2), ARCH, TargetEnv(), c)
    head = tdes_run(np.zeros(2), ARCH, TargetEnv(),
                    small_config(generations=5))
    tail = tdes_run(head.params, ARCH, TargetEnv(), c, start_generation=5,
                    initial_steps=head.steps_used, records=head.records)
    assert np.array_equal(tail.params, full.params)
    assert tail.steps_used == full.steps_used
    assert [r.generation for r in tail.records] == \
           [r.generation for r in full.records]
    assert all(a.center_return == b.center_return
               for a, b in zip(tail.records, full.records))


def test_gaussian_twin_differs_from_triangular():
    cfg = small_config(generations=3)
    tri = tdes_run(np.zeros(2), ARCH, TargetEnv(), cfg)
    gau = tdes_run(np.zeros(2), ARCH, TargetEnv(),
                   replace(cfg, distribution="gaussian"))
    assert not np.array_equal(tri.params, gau.params)
    assert gau.steps_used == tri.steps_used


def test_evaluate_center_success_rates():
    params = np.zeros(2)
    ret, sr = evaluate_center(params, ARCH, TargetEnv(success=True),
                              episodes=10, master_seed=0)
    assert sr == 1.0
    assert ret == pytest.approx(-0.25)
    _, sr = evaluate_center(params, ARCH, TargetEnv(success=False),
                            episodes=10, master_seed=0)
    assert sr == 0.0
    with pytest.raises(ContractError):
        evaluate_center(params, ARCH, TargetEnv(), episodes=0, master_seed=0)


def test_center_eval_streams_disjoint_across_seeds():
    # (seed 0, generation 0) and (seed 3, generation 1) once shared one
    # center-eval stream, because both keyed it on seed ^ (generation + 1)
    def center_return(seed, generation):
        c = small_config(generations=2, seed=seed, center_eval_episodes=4)
        res = tdes_run(np.zeros(2), ARCH, SeedEnv(), c)
        return res.records[generation].center_return

    assert center_return(0, 0) != center_return(3, 1)


def test_candidate_rollout_failure_names_pair_and_episode():
    # row 3 of the batch is pair 1, episode 1 of the + candidates
    c = small_config(episodes_per_candidate=2)
    with pytest.raises(RolloutError,
                       match="generation 0, pair 1, episode 1: .*step 0"):
        tdes_run(np.zeros(2), ARCH, NanEnv(), c)


def test_generation_record_roundtrip():
    r = GenerationRecord(3, 0.1, 0.2, 0.3, 0.05, 1.5, 640, 0.01)
    assert GenerationRecord(**r.to_dict()) == r
