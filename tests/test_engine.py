import copy
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from refine_es.engine import EsConfig, evaluate_center, sigma_at, tdes_run
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
    """Emits a NaN reward in row `row` of a batch."""

    def __init__(self, row=3):
        super().__init__()
        self.row = row

    def step(self, actions):
        obs, r, terminated, success = super().step(actions)
        r[self.row] = np.nan
        return obs, r, terminated, success


ARCH = MlpArchitecture(1, (), 1)  # params (w, b); action = w + b

# the final evaluation every run ends with: (episodes, master seed)
FINAL = (2, 99)


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
    c = small_config()
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
    res, final = tdes_run(anchor, ARCH, TargetEnv(),
                          small_config(generations=0), final_eval=FINAL)
    # the run returns its start state, with the keys that it would hand out
    assert list(res) == ["generation_index", "params", "steps_used", "records"]
    assert np.array_equal(res["params"], anchor) and res["params"] is not anchor
    assert (res["generation_index"], res["steps_used"], res["records"]) == \
        (-1, 0, [])
    assert final == evaluate_center(anchor, ARCH, TargetEnv(), *FINAL)


def test_anchor_shape_contract():
    with pytest.raises(ContractError):
        tdes_run(np.zeros(3), ARCH, TargetEnv(), small_config(),
                 final_eval=FINAL)


def test_step_accounting_exact():
    c = small_config(generations=7)
    res, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), c, final_eval=FINAL)
    assert res["steps_used"] == 7 * 2 * c.m * TargetEnv.horizon
    assert [r["generation"] for r in res["records"]] == list(range(7))
    assert res["records"][-1]["steps_used"] == res["steps_used"]


def test_quadratic_convergence_ten_fold():
    # J(theta) = -((w + b) - 0.5)^2; starting value -0.25
    c = small_config(generations=200, alpha=0.005, lambda_sigma=1.0)
    res, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), c, final_eval=FINAL)
    final_j = -((res["params"].sum() - 0.5) ** 2)
    assert abs(final_j) < 0.25 / 10
    # the center-return log should reflect the improvement
    records = res["records"]
    assert records[-1]["center_return"] > records[0]["center_return"]


def test_update_locality_matches_g_norm():
    thetas = []
    tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config(generations=5),
             checkpoint_cb=lambda state: thetas.append(state["params"].copy()),
             final_eval=FINAL)
    res, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(),
                      small_config(generations=5), final_eval=FINAL)
    prev = np.zeros(2)
    for theta, rec in zip(thetas, res["records"]):
        assert np.linalg.norm(theta - prev) == pytest.approx(
            small_config().alpha * rec["g_norm"], abs=1e-12)
        prev = theta


def test_run_bitwise_reproducible():
    a, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config(),
                    final_eval=FINAL)
    b, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), small_config(),
                    final_eval=FINAL)
    assert np.array_equal(a["params"], b["params"])
    assert _without_wall_time(a["records"]) == \
        _without_wall_time(b["records"])


def _without_wall_time(records):
    return [r | {"wall_time": 0} for r in records]


def test_resume_bitwise_equal_to_uninterrupted():
    # resume from every generation's state: a deep copy of what the
    # callback hands out, which is live
    c = small_config(generations=12)
    full, final = tdes_run(np.zeros(2), ARCH, TargetEnv(), c,
                           final_eval=FINAL)
    states, live = [], []
    res, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), c, final_eval=FINAL,
                      checkpoint_cb=lambda state: (
                          states.append(copy.deepcopy(state)),
                          live.append(state)))
    # the run returns the dict that it handed out last
    assert res is live[-1]
    assert [s["generation_index"] for s in states] == list(range(12))
    for state in states:
        assert state["steps_used"] == state["records"][-1]["steps_used"]
        tail, tail_final = tdes_run(state["params"], ARCH, TargetEnv(), c,
                                    records=state["records"], final_eval=FINAL)
        assert np.array_equal(tail["params"], full["params"])
        assert tail["steps_used"] == full["steps_used"]
        assert tail_final == final
        assert _without_wall_time(tail["records"]) == \
            _without_wall_time(full["records"])


def test_gaussian_twin_differs_from_triangular():
    cfg = small_config(generations=3)
    tri, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(), cfg, final_eval=FINAL)
    gau, _ = tdes_run(np.zeros(2), ARCH, TargetEnv(),
                      replace(cfg, distribution="gaussian"), final_eval=FINAL)
    assert not np.array_equal(tri["params"], gau["params"])
    assert gau["steps_used"] == tri["steps_used"]


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
        res, _ = tdes_run(np.zeros(2), ARCH, SeedEnv(), c, final_eval=FINAL)
        return res["records"][generation]["center_return"]

    assert center_return(0, 0) != center_return(3, 1)


def test_candidate_rollout_failure_names_pair_and_episode():
    # m = 4 pairs of 2 episodes: rows 0-7 are the + candidates and rows
    # 8-15 the - candidates, pair-major in both halves; row 3 is pair 1,
    # episode 1 of the + candidates, row 12 pair 2, episode 0 of the -
    c = small_config(episodes_per_candidate=2)
    for row, pair, episode in ((3, 1, 1), (12, 2, 0)):
        with pytest.raises(RolloutError, match=f"generation 0, pair {pair}, "
                                               f"episode {episode}: .*step 0"):
            tdes_run(np.zeros(2), ARCH, NanEnv(row), c, final_eval=FINAL)

