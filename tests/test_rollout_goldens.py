"""SHA-256 goldens for the rollout layer on every env.

The digests were recorded with the per-episode rollout loops that preceded the
lockstep batched engine; the engine must reproduce them bit for bit. Center
returns are left out of the ES digest because the center-eval streams were
re-keyed (see test_center_eval_streams_disjoint_across_seeds in
test_engine.py); everything the update consumes is included. The mean
episode return of a PPO batch has its own digests, re-recorded when it became
the mean of the rollout's discounted returns; the buffer digests stayed
equal.
"""

import hashlib

import numpy as np
import pytest

from refine_es.engine import EsConfig, evaluate_center, tdes_run
from refine_es.envs import make_env
from refine_es.policy import MlpArchitecture, init_params
from refine_es.ppo import (ActorCritic, PpoConfig, collect_rollouts,
                           init_actor_critic)
from refine_es.rng import make_stream

ENV_IDS = ("arm-reach", "peg-insert-1d", "point-reach")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def collect_digests(env_id: str) -> tuple[str, str]:
    """(buffer, mean return): what the update consumes, and the curve's
    mean episode return, which feeds no decision, digested apart."""
    env = make_env(env_id)
    config = PpoConfig(total_steps=0, episodes_per_update=3, seed=7,
                       init_log_std=float(np.log(0.3)))
    ac = init_actor_critic(env.observation_dim, env.action_dim, config)
    # collection takes a stack of runs, here of one
    rows, mean_return, success_rate = collect_rollouts(
        ActorCritic(ac.actor_arch, ac.critic_arch, [ac.params]), env, config,
        [(config.seed, 2)])
    return (digest(*rows, [success_rate[0],
                           config.update_steps(env.horizon)]),
            digest(mean_return))


def es_digest(env_id: str, action_std: float) -> str:
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (16, 16), env.action_dim)
    anchor = init_params(arch, make_stream(5, 0))
    config = EsConfig(sigma_es=0.05, alpha=0.01, m=3, generations=3, seed=4,
                      action_std=action_std, episodes_per_candidate=2)
    res, _ = tdes_run(anchor, arch, env, config, final_eval=(1, 0))
    rows = [[r[k] for k in ("generation", "mean_return", "best_return",
                            "sigma_es", "g_norm", "steps_used")]
            for r in res["records"]]
    return digest(res["params"], rows, [res["steps_used"]])


def eval_digest(env_id: str) -> str:
    env = make_env(env_id)
    arch = MlpArchitecture(env.observation_dim, (16, 16), env.action_dim)
    params = init_params(arch, make_stream(6, 0))
    return digest(evaluate_center(params, arch, env, 7, 12345))


GOLDEN_COLLECT = {
    "arm-reach":
        "7b3f25d4a1652320eb5f4849d8c53062f41894382b3f2871c9fd41c59681f2aa",
    "peg-insert-1d":
        "649daa56024a607d6a2f83286f64ed40ba04f531d111e01f8fd6682c7b667d6b",
    "point-reach":
        "7a890d4b31dbe016e0d789d72756d94d1a05d798ed81037c0b1bd5333b4b92d9",
}
GOLDEN_COLLECT_MEAN_RETURN = {
    "arm-reach":
        "99b1c0832709cb446d72e61739a8949f66266ee09d242d6fd131a7df270b76c4",
    "peg-insert-1d":
        "26118b92e9331f74e66d9ecf55e26d8fb92bd107ea769a83fb90eda3955fea35",
    "point-reach":
        "70d90cfb08455336e6b34051d9a214c3267a3dc63b970123a43efbef7c1c93ed",
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
    assert collect_digests(env_id)[0] == GOLDEN_COLLECT[env_id]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_collect_rollouts_mean_return_golden(env_id):
    assert collect_digests(env_id)[1] == GOLDEN_COLLECT_MEAN_RETURN[env_id]


@pytest.mark.parametrize("env_id,action_std", sorted(GOLDEN_ES))
def test_tdes_run_golden(env_id, action_std):
    assert es_digest(env_id, action_std) == GOLDEN_ES[(env_id, action_std)]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_evaluate_center_golden(env_id):
    assert eval_digest(env_id) == GOLDEN_EVAL[env_id]
