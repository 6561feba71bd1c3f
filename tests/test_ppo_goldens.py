"""SHA-256 goldens for the PPO update on every env.

`test_rollout_goldens.py` pins what collection hands to the update; these pin
what the update makes of it: the trained parameters, the Adam moments and the
curve after three collect/update cycles, and the loss, parts and gradient of
one minibatch step. The digests were recorded before the minibatch step, the
optimizer and the MLP passes were rewritten to make fewer numpy calls, which
must leave every bit unchanged. The shapes are the acceptance plan's
((64, 64) hidden layers, 128-row minibatches) with a short last minibatch.
"""

import hashlib

import numpy as np
import pytest

from refine_es.envs import make_env
from refine_es.ppo import (PpoConfig, collect_rollouts, init_actor_critic,
                           loss_and_grads, normalize_advantages, train_anchor)

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


def train_digest(env_id: str, optimizer: str) -> str:
    res = train_anchor(lambda: make_env(env_id), config(env_id, optimizer))
    assert len(res.curve) == 3
    curve = [[row[k] for k in CURVE_KEYS] for row in res.curve]
    return digest(res.actor_critic.params, curve, [res.steps_used])


def adam_state_digest(env_id: str) -> str:
    states = []
    res = train_anchor(lambda: make_env(env_id), config(env_id, "adam"),
                       checkpoint_cb=lambda u, ac, opt, steps, curve:
                       states.append((opt.m.copy(), opt.v.copy(), opt.t)))
    m, v, t = states[-1]
    return digest(m, v, [t], res.actor_critic.params)


def loss_digest(env_id: str) -> str:
    env = make_env(env_id)
    cfg = config(env_id, "sgd")
    ac = init_actor_critic(env.observation_dim, env.action_dim, cfg)
    buf = collect_rollouts(ac, lambda: make_env(env_id), cfg, 1)
    adv = normalize_advantages(buf.advantages)
    idx = np.arange(buf.states.shape[0])[::-1][:128]
    loss, parts, grad = loss_and_grads(
        ac, buf.states[idx], buf.actions[idx], buf.log_probs[idx], adv[idx],
        buf.returns[idx], cfg)
    return digest([loss, parts["policy_loss"], parts["value_loss"],
                   parts["entropy"]], grad)


GOLDEN_TRAIN = {
    ("arm-reach", "adam"):
        "af1eff8e6262324dd7bdb8329bf2ef54fd93b87224e5f4817a6f19fa4790160f",
    ("arm-reach", "sgd"):
        "34106e21f23c36811e3a27daa608e380b5456b0ca93e2915b420d1faced05035",
    ("peg-insert-1d", "adam"):
        "cc51468affbdd91bc5947a2d8392959b449842f564725004bb0ad346a34aef2c",
    ("peg-insert-1d", "sgd"):
        "c149cc921a6e866cb82d64dcfa6b9ebd9ddd18bc4ba9648a9e64bc57f7422aec",
    ("point-reach", "adam"):
        "b407aae6512d9138425cb1ba408457ebdff48a61cdd0c464faf411b99060a713",
    ("point-reach", "sgd"):
        "c1eacdeefa6b1288c12b560580127cb4fbc18a0307a00d48292f30121bfb7fc8",
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
    assert train_digest(env_id, optimizer) == GOLDEN_TRAIN[(env_id, optimizer)]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_adam_state_golden(env_id):
    assert adam_state_digest(env_id) == GOLDEN_ADAM_STATE[env_id]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_loss_and_grads_golden(env_id):
    assert loss_digest(env_id) == GOLDEN_LOSS[env_id]
