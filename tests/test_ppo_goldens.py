"""SHA-256 goldens for the PPO update on every env.

`test_rollout_goldens.py` pins what collection hands to the update; these pin
what the update makes of it: the trained parameters, the Adam moments and the
curve after three collect/update cycles, and the loss, parts and gradient of
one minibatch step. The digests were recorded before the minibatch step, the
optimizer and the MLP passes were rewritten to make fewer numpy calls, which
must leave every bit unchanged. The curve has its own digests: they were
re-recorded when its `mean_return` became the mean of the rollout's
discounted returns, the definition of an episode's return that ES and every
evaluation use; the parameter digests stayed equal. The shapes are the
acceptance plan's ((64, 64) hidden layers, 128-row minibatches) with a short
last minibatch.
"""

import hashlib

import numpy as np
import pytest

from refine_es.envs import make_env
from refine_es.ppo import (ActorCritic, PpoConfig, collect_rollouts,
                           init_actor_critic, loss_and_grads,
                           normalize_advantages, train_anchor)

ENV_IDS = ("arm-reach", "peg-insert-1d", "point-reach")
CURVE_KEYS = ("update", "mean_return", "success_rate", "steps_used",
              "policy_loss", "value_loss", "entropy")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def config(env_id: str, optimizer: str) -> PpoConfig:
    # 3 episodes give 300 or 600 rows: 128-row minibatches leave 44 or 88.
    # The SGD run also carries an entropy bonus, so its gradient term counts.
    horizon = make_env(env_id).horizon
    return PpoConfig(total_steps=3 * 3 * horizon, episodes_per_update=3,
                     epochs=2, minibatch_size=128, hidden_dims=(64, 64),
                     optimizer=optimizer, seed=11,
                     entropy_coef=0.01 if optimizer == "sgd" else 0.0)


def train_digests(env_id: str, optimizer: str) -> tuple[str, str]:
    """(params, curve): the trained parameters with the steps used, and the
    curve, digested apart, so that a change to the curve alone shows as
    one."""
    res = train_anchor(make_env(env_id), config(env_id, optimizer))
    assert len(res["curve"]) == 3
    curve = [[row[k] for k in CURVE_KEYS] for row in res["curve"]]
    return digest(res["params"], [res["steps_used"]]), digest(curve)


def adam_state_digest(env_id: str) -> str:
    states = []
    res = train_anchor(make_env(env_id), config(env_id, "adam"),
                       checkpoint_cb=lambda state: states.append(
                           (state["adam_m"].copy(), state["adam_v"].copy(),
                            state["adam_t"])))
    m, v, t = states[-1]
    return digest(m, v, [t], res["params"])


def loss_digest(env_id: str) -> str:
    env = make_env(env_id)
    cfg = config(env_id, "sgd")
    ac = init_actor_critic(env.observation_dim, env.action_dim, cfg)
    # collection takes a stack of runs, here of one
    rows = collect_rollouts(ActorCritic(ac.actor_arch, ac.critic_arch,
                                        [ac.params]), env, cfg,
                            [(cfg.seed, 1)])[0]
    states, actions, log_probs, advantages, returns = (a[0] for a in rows)
    adv = normalize_advantages(advantages)
    idx = np.arange(states.shape[0])[::-1][:128]
    loss, parts, grad = loss_and_grads(
        ac, states[idx], actions[idx], log_probs[idx], adv[idx], returns[idx],
        cfg)
    return digest([loss, parts["policy_loss"], parts["value_loss"],
                   parts["entropy"]], grad)


GOLDEN_TRAIN = {
    ("arm-reach", "adam"):
        "7b73e9efb7fee7c23f6e54fc2d305b858735998b292468214a0defe8e1da55da",
    ("arm-reach", "sgd"):
        "4203d68755334b84bd5317443e19ac2aea2af0b9490a2340c981b389871ce2c0",
    ("peg-insert-1d", "adam"):
        "b8cf6e76e1ec0cd0bf9f425d554ec8ac3a85325b5f1ba203b2b44f6661e01739",
    ("peg-insert-1d", "sgd"):
        "fc24cb1e49a72ade946c0b8a5c9bba0c31cac0e42e5067ae63bbfe00e3901346",
    ("point-reach", "adam"):
        "a1e8cfe2d73f1ec9617f15d047f6eb889ac7725327b8ff753474878135c33d1d",
    ("point-reach", "sgd"):
        "1f75aa108a9dc237b4cbbd51a53ece44030d2e0e8d098d0876d0617398a92778",
}
GOLDEN_CURVE = {
    ("arm-reach", "adam"):
        "33374262b3f23767be80bb80f0391c49141cbaa3a9c7acb5cc393ed62b6560bb",
    ("arm-reach", "sgd"):
        "a5ca868516372acaa664049954b6f9d756bfdb1de1657c124815d2abbf275430",
    ("peg-insert-1d", "adam"):
        "f4f27acc19cfe44b0487e4198135d30be95149e2a72f8997c3b3e2f6df2ef985",
    ("peg-insert-1d", "sgd"):
        "dbdaeb3176c5a7c44c7e3cf175282dd5bb9a672783b54bfb37fac4bb5d52a1cd",
    ("point-reach", "adam"):
        "e88f98c96915f818b5147418c8424183ec9cc140e89c070a852f687ea943eac7",
    ("point-reach", "sgd"):
        "8b4344af73864ad2e247e2f28f30ce4f734052a83bf15b4563e4e498bc696d01",
}
GOLDEN_ADAM_STATE = {
    "arm-reach":
        "b52dbc51a29d0d0e1b4569c622c914ca8acde6115a96db8f7593a8a949ec8e9e",
    "peg-insert-1d":
        "227296156446927eda57c3e4ed93d08f50d7432cf06495cb105ab313681592c2",
    "point-reach":
        "aa439a188602449e2d48c1b0b54aa2debb305e70372230e7780fa5820bfbbd94",
}
GOLDEN_LOSS = {
    "arm-reach":
        "5daf0e5c6f9b5f7e739dbf174060248aa462ceb92e1fafb557206defa89d8c6d",
    "peg-insert-1d":
        "0745203b959fa5620e65ab5ec1f76909a40de1787188290a3f90a9657153db1f",
    "point-reach":
        "f2cdc5c1e4c1d0dbf8839d4eaff9fac1cb8074de6aa87adc784ab3d99bd8a88a",
}


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("optimizer", ("adam", "sgd"))
def test_train_anchor_golden(env_id, optimizer):
    assert train_digests(env_id, optimizer)[0] == \
        GOLDEN_TRAIN[(env_id, optimizer)]


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("optimizer", ("adam", "sgd"))
def test_train_anchor_curve_golden(env_id, optimizer):
    assert train_digests(env_id, optimizer)[1] == \
        GOLDEN_CURVE[(env_id, optimizer)]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_adam_state_golden(env_id):
    assert adam_state_digest(env_id) == GOLDEN_ADAM_STATE[env_id]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_loss_and_grads_golden(env_id):
    assert loss_digest(env_id) == GOLDEN_LOSS[env_id]
