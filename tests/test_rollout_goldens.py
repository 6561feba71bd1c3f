"""SHA-256 goldens for the rollout layer on every env.

The digests were recorded with the per-episode rollout loops that preceded the
lockstep batched engine; the engine must reproduce them bit for bit. Center
returns are left out of the ES digest because the center-eval streams were
re-keyed (see test_center_eval_streams_disjoint_across_seeds in
test_engine.py); everything the update consumes is included.
"""

import hashlib

import numpy as np
import pytest

from refine_es.engine import EsConfig, evaluate_center, tdes_run
from refine_es.envs import make_env
from refine_es.policy import MlpArchitecture, init_params
from refine_es.ppo import PpoConfig, collect_rollouts, init_actor_critic
from refine_es.rng import make_stream

ENV_IDS = ("arm-reach", "peg-insert-1d", "point-reach")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def collect_digest(env_id: str) -> str:
    env = make_env(env_id)
    config = PpoConfig(total_steps=0, episodes_per_update=3, seed=7,
                       init_log_std=float(np.log(0.3)))
    ac = init_actor_critic(env.observation_dim, env.action_dim, config)
    buf = collect_rollouts(ac, lambda: make_env(env_id), config, 2)
    return digest(buf.states, buf.actions, buf.log_probs, buf.advantages,
                  buf.returns, [buf.mean_return, buf.success_rate, buf.steps])


def es_digest(env_id: str, action_std: float) -> str:
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (16, 16), env.action_dim)
    anchor = init_params(arch, make_stream(5, 0))
    config = EsConfig(sigma_es=0.05, alpha=0.01, m=3, generations=3, seed=4,
                      action_std=action_std, episodes_per_candidate=2)
    res = tdes_run(anchor, arch, lambda: make_env(env_id), config)
    rows = [[r.generation, r.mean_return, r.best_return, r.sigma_es,
             r.g_norm, r.steps_used] for r in res.records]
    return digest(res.params, rows, [res.steps_used])


def eval_digest(env_id: str) -> str:
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (16, 16), env.action_dim)
    params = init_params(arch, make_stream(6, 0))
    return digest(evaluate_center(params, arch, lambda: make_env(env_id),
                                  7, 12345))


GOLDEN_COLLECT = {
    "arm-reach":
        "fb7cb68ac57f643b0578673e3e5f0e1af5fec2cc7bf402406882039e6bae5dde",
    "peg-insert-1d":
        "788a3a2b1ed9ee9ec7fe241647d0e0faec75bed5720c399aad8e3241f67999e2",
    "point-reach":
        "488aba4f3c72a19447140b33b2b56167d0096f074f179928accaf411431a9ca0",
}
GOLDEN_ES = {
    ("arm-reach", 0.0):
        "e1013cb9e6f6bf89d7d32e2d2c94b1817fde5b8f8426ffe9430adddd3d148931",
    ("arm-reach", 0.05):
        "cff26cf165b73c7cca470a5b7fec133ed7701422d59dd0826c9b41e1a0ee2242",
    ("peg-insert-1d", 0.0):
        "c76cace1205f3d7a6aa8f28e4d5b5373f40c1a2be96b34d66af99915a3cd5006",
    ("peg-insert-1d", 0.05):
        "08b3cf3da530cfb768ff03366e4bc59c84e00bed3eadf91c9eb5c958fdeaa818",
    ("point-reach", 0.0):
        "dfae7c4af91f7b73d487d76b26e339a6c67d294d19ec3ac18ad4e803b53e5511",
    ("point-reach", 0.05):
        "e1ad0f6f261a07711c2e637d2350a7e767abc02d86e9a9661da2cad8f520ad9f",
}
GOLDEN_EVAL = {
    "arm-reach":
        "6847743a02eb438462be32405b99a9d1aeaa08f184b2925caeb645ed1935a7a3",
    "peg-insert-1d":
        "ddf7e4b3b43253768cfd975c6cbc3d631b730eba8193a2a62cf29ffcbc7ad160",
    "point-reach":
        "1bd2d516e68e1ce2c7dc4292dd82312836d97449907ff0fd01619365b1b80795",
}


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_collect_rollouts_golden(env_id):
    assert collect_digest(env_id) == GOLDEN_COLLECT[env_id]


@pytest.mark.parametrize("env_id,action_std", sorted(GOLDEN_ES))
def test_tdes_run_golden(env_id, action_std):
    assert es_digest(env_id, action_std) == GOLDEN_ES[(env_id, action_std)]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_evaluate_center_golden(env_id):
    assert eval_digest(env_id) == GOLDEN_EVAL[env_id]
