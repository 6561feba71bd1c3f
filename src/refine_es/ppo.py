"""Compact PPO trainer for the Stage-1 anchor policy.

Actor and critic are small tanh MLPs over flat parameter vectors (same layout
as the ES stage, so the trained actor hands off directly). The policy is
diagonal Gaussian with a state-independent learnable log-std vector. All
trainable parameters live in one float64 vector laid out actor | log_std |
critic, and a checkpoint stores that vector. The gradient of the clipped
surrogate + value loss + entropy bonus is derived by hand in reverse mode
(tests check it against finite differences) and written into one vector of
that layout; the optimizer takes one SGD step, or updates one Adam state in
place, over it. Collection makes one forward per network, one product per
episode; GAE runs over all episodes at once.

All randomness (env seeds, action noise, minibatch shuffles) comes from
counter-based streams keyed on (seed, purpose, update_index, ...), so
`train_anchor` resumes bit-exactly from the state that it hands out after
every update, which is what a per-update checkpoint stores.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, RolloutError
from .policy import (MlpArchitecture, action_noise, init_params, mlp_backward,
                     mlp_forward, param_count, rollout)
from .rng import TAG_INIT, TAG_PPO_ACTION, TAG_PPO_ENV, TAG_PPO_SHUFFLE, make_stream

_LOG_2PI = np.log(2.0 * np.pi)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class PpoConfig:
    total_steps: int
    learning_rate: float = 3e-3
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    episodes_per_update: int = 8
    epochs: int = 4
    minibatch_size: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    init_log_std: float = float(np.log(0.5))
    hidden_dims: tuple[int, ...] = (64, 64)
    optimizer: str = "sgd"  # or "adam", which every plan cell defaults to
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be > 0")
        if not (0 < self.clip_epsilon < 1):
            raise ContractError("clip_epsilon must be in (0, 1)")
        if not (0 <= self.gae_lambda <= 1):
            raise ContractError("gae_lambda must be in [0, 1]")
        if self.optimizer not in ("sgd", "adam"):
            raise ContractError("optimizer must be 'sgd' or 'adam'")
        if self.episodes_per_update < 1 or self.minibatch_size < 1:
            raise ContractError(
                "episodes_per_update and minibatch_size must be >= 1")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ContractError("hidden_dims must all be >= 1")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["hidden_dims"] = list(self.hidden_dims)
        return d


class ActorCritic:
    """Actor, log-std and critic parameters in one float64 vector `params`,
    laid out actor | log_std | critic, a copy of the `params` it is built
    from, and the two architectures that read it (`architectures`).
    `actor_params`, `log_std` and `critic_params` are views into it, with no
    setter: write into them in place (`ac.log_std[:] = x`); rebinding one
    raises AttributeError."""

    def __init__(self, actor_arch: MlpArchitecture,
                 critic_arch: MlpArchitecture, params):
        self.actor_arch, self.critic_arch = actor_arch, critic_arch
        self.params = np.array(params, dtype=float)
        a, k = param_count(actor_arch), actor_arch.output_dim
        if self.params.shape != (a + k + param_count(critic_arch),):
            raise ContractError("params do not match the architectures")
        self._slices = (slice(0, a), slice(a, a + k), slice(a + k, None))

    actor_params = property(lambda self: self.params[self._slices[0]])
    log_std = property(lambda self: self.params[self._slices[1]])
    critic_params = property(lambda self: self.params[self._slices[2]])

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (actor, log_std, critic) into a vector laid out like
        `params`."""
        return tuple(vec[s] for s in self._slices)


def architectures(obs_dim: int, act_dim: int, config: PpoConfig):
    """The (actor, critic) architectures of an actor-critic under `config`."""
    return (MlpArchitecture(obs_dim, config.hidden_dims, act_dim),
            MlpArchitecture(obs_dim, config.hidden_dims, 1))


def init_actor_critic(obs_dim: int, act_dim: int, config: PpoConfig) -> ActorCritic:
    actor_arch, critic_arch = architectures(obs_dim, act_dim, config)
    actor = init_params(actor_arch, make_stream(config.seed, TAG_INIT, 0),
                        final_scale=0.1)
    critic = init_params(critic_arch, make_stream(config.seed, TAG_INIT, 1))
    return ActorCritic(actor_arch, critic_arch, np.concatenate(
        [actor, np.full(act_dim, config.init_log_std), critic]))


def gae_advantages(rewards: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float, bootstrap_value) -> np.ndarray:
    """Backward GAE recursion A_t = delta_t + gamma*lam*A_{t+1} with
    delta_t = r_t + gamma*V(s_{t+1}) - V(s_t) over the last axis; a row of
    a (E, T) input is bit-identical to its own 1-D call. values has one entry
    per step; bootstrap_value (a scalar or one per row) stands in for V(s_T)."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ContractError("rewards and values are not aligned")
    adv = np.empty(rewards.shape)
    next_adv = np.zeros(rewards.shape[:-1])
    next_value = bootstrap_value
    for t in range(rewards.shape[-1] - 1, -1, -1):
        delta = rewards[..., t] + gamma * next_value - values[..., t]
        next_adv = delta + gamma * lam * next_adv
        adv[..., t] = next_adv
        next_value = values[..., t]
    return adv


def _log_prob(z2, log_std):  # z2 = (a - mu)**2 / sigma**2
    return -0.5 * z2.sum(axis=-1) - log_std.sum() - 0.5 * z2.shape[-1] * _LOG_2PI


def gaussian_log_prob(actions, means, log_std):
    return _log_prob((actions - means) ** 2 / np.exp(2.0 * log_std), log_std)


def policy_entropy(log_std: np.ndarray) -> float:
    return float(log_std.sum() + 0.5 * log_std.shape[0] * (1.0 + _LOG_2PI))


@dataclass
class RolloutBuffer:
    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    mean_return: float = 0.0
    success_rate: float = 0.0
    steps: int = 0


def loss_and_grads(ac: ActorCritic, states, actions, log_probs_old, advantages,
                   returns, config: PpoConfig):
    """Loss = -mean(min(rho*A, clip(rho)*A)) + c_v*mean((V-R)^2) - c_e*H(pi),
    with exact reverse-mode gradients w.r.t. (actor, log_std, critic).

    Returns (loss, parts, grad), grad laid out like `ac.params`.
    """
    n = states.shape[0]
    lo, hi = 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon
    mu, actor_acts = mlp_forward(ac.actor_params, ac.actor_arch, states)
    sigma2 = np.exp(2.0 * ac.log_std)
    diff = actions - mu
    z2 = diff ** 2 / sigma2
    ratio = np.exp(_log_prob(z2, ac.log_std) - log_probs_old)
    surr1 = ratio * advantages
    surr2 = np.minimum(np.maximum(ratio, lo), hi) * advantages
    policy_loss = -(np.add.reduce(np.minimum(surr1, surr2)) / n)

    v, critic_acts = mlp_forward(ac.critic_params, ac.critic_arch, states)
    dv = v[:, 0] - returns
    value_loss = float(np.add.reduce(np.square(dv)) / n)
    entropy = policy_entropy(ac.log_std)
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy

    grad = np.empty_like(ac.params)
    g_actor, g_log_std, g_critic = ac.split(grad)
    # d loss / d logp: the clipped branch has zero derivative whenever it is
    # strictly selected (the clip is then active).
    d_logp = -(advantages * ratio * (surr1 <= surr2)) / n

    mlp_backward(ac.actor_params, ac.actor_arch, actor_acts,
                 d_logp[:, None] * diff / sigma2, g_actor)
    # d logp / d log_std_k = ((a-mu)^2/sigma^2 - 1)_k ; entropy adds 1 per coord
    np.add.reduce(d_logp[:, None] * (z2 - 1.0), axis=0, out=g_log_std)
    g_log_std -= config.entropy_coef

    d_v = (config.value_coef * 2.0 * dv / n)[:, None]
    mlp_backward(ac.critic_params, ac.critic_arch, critic_acts, d_v, g_critic)

    parts = {"policy_loss": float(policy_loss), "value_loss": value_loss,
             "entropy": entropy}
    return float(loss), parts, grad


class PpoOptimizer:
    """SGD by default; optional Adam, with the constants `ADAM_BETA1`,
    `ADAM_BETA2` and `ADAM_EPS`. A step updates the whole vector `ac.params`
    at once. `state` is Adam's one state over it, as a checkpoint stores it:
    `adam_m` and `adam_v`, which a step updates in place, and `adam_t`; it
    is empty for SGD."""

    def __init__(self, ac: ActorCritic, config: PpoConfig):
        self.config = config
        self.state = {"adam_m": np.zeros_like(ac.params),
                      "adam_v": np.zeros_like(ac.params),
                      "adam_t": 0} if config.optimizer == "adam" else {}

    def apply(self, ac: ActorCritic, grad: np.ndarray):
        c, s = self.config, self.state
        if not s:
            ac.params -= c.learning_rate * grad
            return
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        s["adam_t"] += 1
        m, v, t = s["adam_m"], s["adam_v"], s["adam_t"]
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * np.square(grad)
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ac.params -= c.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = adv.std()
    if std < 1e-12:
        return np.zeros_like(adv)
    return (adv - adv.mean()) / std


def collect_rollouts(ac: ActorCritic, env, config: PpoConfig,
                     update_index: int) -> RolloutBuffer:
    """Run episodes_per_update full-horizon episodes as one lockstep batch
    and assemble the buffer. GAE bootstraps with V(final obs) since the envs
    terminate on time limit."""
    horizon, gamma = env.horizon, env.gamma
    n_ep = config.episodes_per_update
    seeds = [make_stream(config.seed, TAG_PPO_ENV, update_index,
                         ep).integers(1 << 62) for ep in range(n_ep)]
    noise = action_noise(
        [make_stream(config.seed, TAG_PPO_ACTION, update_index, ep)
         for ep in range(n_ep)],
        horizon, env.action_dim, np.exp(ac.log_std))
    try:
        batch = rollout(ac.actor_params, ac.actor_arch, env, seeds, noise,
                        record=True)
    except RolloutError as exc:
        raise RolloutError(
            f"update {update_index}, episode {exc.row}: {exc}") from exc
    # one product per episode; the critic's states end with the final obs
    mus = mlp_forward(ac.actor_params, ac.actor_arch, batch.states)[0]
    values = mlp_forward(ac.critic_params, ac.critic_arch, np.concatenate(
        [batch.states, batch.final_obs[:, None]], axis=1))[0][..., 0]
    adv = gae_advantages(batch.rewards, values[:, :-1], gamma,
                         config.gae_lambda, values[:, -1])
    return RolloutBuffer(
        batch.states.reshape(n_ep * horizon, -1),
        batch.actions.reshape(n_ep * horizon, -1),
        gaussian_log_prob(batch.actions, mus, ac.log_std).ravel(),
        adv.ravel(), (adv + values[:, :-1]).ravel(),
        mean_return=float(np.mean(batch.returns)),
        success_rate=int(batch.success.sum()) / n_ep,
        steps=batch.length)


def ppo_update(ac: ActorCritic, buffer: RolloutBuffer, config: PpoConfig,
               optimizer: PpoOptimizer, update_index: int) -> dict:
    """Minibatch epochs of clipped-surrogate steps; mutates ac in place."""
    adv = normalize_advantages(buffer.advantages)
    n = buffer.states.shape[0]
    last_parts = {}
    for epoch in range(config.epochs):
        perm = make_stream(config.seed, TAG_PPO_SHUFFLE, update_index,
                           epoch).permutation(n)
        # shuffled once per epoch; each minibatch is a contiguous row slice
        shuffled = [a[perm] for a in (buffer.states, buffer.actions,
                                      buffer.log_probs, adv, buffer.returns)]
        for start in range(0, n, config.minibatch_size):
            stop = start + config.minibatch_size
            loss, parts, grad = loss_and_grads(
                ac, *(a[start:stop] for a in shuffled), config)
            if not np.isfinite(loss):
                raise RolloutError(
                    f"non-finite PPO loss at update {update_index}: {parts}")
            optimizer.apply(ac, grad)
            last_parts = parts
    return last_parts


@dataclass
class AnchorResult:
    actor_critic: ActorCritic
    curve: list[dict] = field(default_factory=list)
    steps_used: int = 0


def train_anchor(env, config: PpoConfig, state: dict | None = None,
                 checkpoint_cb=None, stop_condition=None) -> AnchorResult:
    """Collect/update cycles until the step budget cannot fund another
    update, or until `stop_condition(curve)` holds. The stop rule is asked
    before each collection, so a run resumed from any update's checkpoint
    stops exactly where the uninterrupted run stopped.

    After each update, `checkpoint_cb(state)` gets the run's state, what a
    checkpoint stores: `update_index`, `params` (the actor-critic's vector),
    for Adam `adam_m`, `adam_v` and `adam_t` (`PpoOptimizer.state`),
    `steps_used` and `curve`. It is live: its arrays and its curve change
    with the next update, so copy what must outlast the call. Given such a
    state (other keys are ignored), the run continues after its update
    bit-exactly; the actor-critic's architectures follow from `config`, and
    no initial parameters are drawn."""
    dims = (env.observation_dim, env.action_dim)
    ac = init_actor_critic(*dims, config) if state is None else \
        ActorCritic(*architectures(*dims, config), state["params"])
    optimizer = PpoOptimizer(ac, config)
    u, steps_used, curve = 0, 0, []
    if state is not None:
        optimizer.state = {k: copy.copy(state[k]) for k in optimizer.state}
        u, steps_used = state["update_index"] + 1, state["steps_used"]
        curve = list(state["curve"])
    update_cost = config.episodes_per_update * env.horizon
    while steps_used + update_cost <= config.total_steps:
        if stop_condition is not None and stop_condition(curve):
            break
        buffer = collect_rollouts(ac, env, config, u)
        parts = ppo_update(ac, buffer, config, optimizer, u)
        steps_used += buffer.steps
        curve.append({"update": u, "mean_return": buffer.mean_return,
                      "success_rate": buffer.success_rate,
                      "steps_used": steps_used, **parts})
        if checkpoint_cb is not None:
            checkpoint_cb({"update_index": u, "params": ac.params,
                           **optimizer.state, "steps_used": steps_used,
                           "curve": curve})
        u += 1
    return AnchorResult(ac, curve, steps_used)
