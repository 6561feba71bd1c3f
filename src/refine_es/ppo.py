"""Compact PPO trainer for the Stage-1 anchor policy.

Actor and critic are small tanh MLPs over flat parameter vectors (same layout
as the ES stage, so the trained actor hands off directly). The policy is
diagonal Gaussian with a state-independent learnable log-std vector. All
trainable parameters live in one float64 vector laid out actor | log_std |
critic. The gradient of the clipped surrogate + value loss + entropy bonus is
derived by hand in reverse mode (tests check it against finite differences)
and written into one vector of that layout; the optimizer takes one SGD step,
or updates one Adam state in place, over it. GAE runs over all episodes at
once, but each episode keeps its own forward: one batched matmul changes bits.

All randomness (env seeds, action noise, minibatch shuffles) comes from
counter-based streams keyed on (seed, purpose, update_index, ...), so
training is resumable bit-exactly from a per-update checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, RolloutError
from .policy import (MlpArchitecture, action_noise, init_params, mlp_backward,
                     mlp_forward, rollout)
from .rng import TAG_INIT, TAG_PPO_ACTION, TAG_PPO_ENV, TAG_PPO_SHUFFLE, make_stream

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class PpoConfig:
    total_steps: int
    learning_rate: float = 3e-3
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    episodes_per_update: int = 8
    epochs: int = 4
    minibatch_size: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    init_log_std: float = float(np.log(0.5))
    hidden_dims: tuple[int, ...] = (64, 64)
    optimizer: str = "sgd"  # "adam" is an opt-in extension
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be > 0")
        if not (0 < self.clip_epsilon < 1):
            raise ContractError("clip_epsilon must be in (0, 1)")
        if not (0 <= self.gae_lambda <= 1):
            raise ContractError("gae_lambda must be in [0, 1]")
        if not (0 < self.gamma <= 1):
            raise ContractError("gamma must be in (0, 1]")
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
    laid out actor | log_std | critic. `actor_params`, `log_std` and
    `critic_params` are views into it, with no setter: write into them in
    place (`ac.log_std[:] = x`); rebinding one raises AttributeError."""

    def __init__(self, actor_arch: MlpArchitecture, actor_params, log_std,
                 critic_arch: MlpArchitecture, critic_params):
        self.actor_arch, self.critic_arch = actor_arch, critic_arch
        self.params = np.concatenate([actor_params, log_std, critic_params],
                                     dtype=float)
        a, k = len(actor_params), len(log_std)
        self._slices = (slice(0, a), slice(a, a + k), slice(a + k, None))

    actor_params = property(lambda self: self.params[self._slices[0]])
    log_std = property(lambda self: self.params[self._slices[1]])
    critic_params = property(lambda self: self.params[self._slices[2]])

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (actor, log_std, critic) into a vector laid out like
        `params`."""
        return tuple(vec[s] for s in self._slices)

    def copy(self) -> "ActorCritic":
        return ActorCritic(self.actor_arch, self.actor_params, self.log_std,
                           self.critic_arch, self.critic_params)

    def to_dict(self) -> dict:
        """Checkpoint payload; the arrays are the live views, not copies."""
        return {
            "actor_arch": self.actor_arch.to_dict(),
            "actor_params": self.actor_params,
            "log_std": self.log_std,
            "critic_arch": self.critic_arch.to_dict(),
            "critic_params": self.critic_params,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActorCritic":
        return cls(MlpArchitecture.from_dict(d["actor_arch"]),
                   d["actor_params"], d["log_std"],
                   MlpArchitecture.from_dict(d["critic_arch"]),
                   d["critic_params"])


def init_actor_critic(obs_dim: int, act_dim: int, config: PpoConfig) -> ActorCritic:
    actor_arch = MlpArchitecture(obs_dim, config.hidden_dims, act_dim)
    critic_arch = MlpArchitecture(obs_dim, config.hidden_dims, 1)
    actor = init_params(actor_arch, make_stream(config.seed, TAG_INIT, 0),
                        final_scale=0.1)
    critic = init_params(critic_arch, make_stream(config.seed, TAG_INIT, 1))
    return ActorCritic(actor_arch, actor, np.full(act_dim, config.init_log_std),
                       critic_arch, critic)


def gae_advantages(rewards: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float, bootstrap_value=0.0) -> np.ndarray:
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
    """SGD by default; optional Adam. A step updates the whole vector
    `ac.params` at once, and Adam keeps one state (m, v, t) for it. Every
    Adam operation is elementwise with shared scalars, so this is
    bit-identical to one Adam per part. A step updates m and v in place.
    `to_dict` hands the moments over per part (actor, log_std, critic), as
    checkpoint format 2 stores them; the arrays are live views, not copies."""

    def __init__(self, ac: ActorCritic, config: PpoConfig):
        self.config = config
        self._split = ac.split
        adam = config.optimizer == "adam"
        self.m = np.zeros_like(ac.params) if adam else None
        self.v = np.zeros_like(ac.params) if adam else None
        self.t = 0

    def apply(self, ac: ActorCritic, grad: np.ndarray):
        c = self.config
        if self.m is None:
            ac.params -= c.learning_rate * grad
            return
        b1, b2 = c.adam_beta1, c.adam_beta2
        self.t += 1
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * np.square(grad)
        mhat = self.m / (1 - b1 ** self.t)
        vhat = self.v / (1 - b2 ** self.t)
        ac.params -= c.learning_rate * mhat / (np.sqrt(vhat) + c.adam_eps)

    def to_dict(self):
        if self.m is None:
            return {}
        return {"states": [{"m": m, "v": v, "t": self.t} for m, v in
                           zip(self._split(self.m), self._split(self.v))]}

    def load_dict(self, d):
        if self.m is not None and d.get("states"):
            self.m = np.concatenate([s["m"] for s in d["states"]], dtype=float)
            self.v = np.concatenate([s["v"] for s in d["states"]], dtype=float)
            self.t = d["states"][0]["t"]


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
    # per episode: an actor forward, a critic forward with the final obs
    mus = np.empty_like(batch.actions)
    values = np.empty((n_ep, horizon + 1))
    states_ext = np.concatenate([batch.states, batch.final_obs[:, None]], axis=1)
    for ep in range(n_ep):
        mus[ep] = mlp_forward(ac.actor_params, ac.actor_arch, batch.states[ep])[0]
        values[ep] = mlp_forward(ac.critic_params, ac.critic_arch,
                                 states_ext[ep])[0][:, 0]
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


def train_anchor(env, config: PpoConfig, start_update: int = 0,
                 initial: ActorCritic | None = None, initial_steps: int = 0,
                 curve: list | None = None, optimizer_state: dict | None = None,
                 checkpoint_cb=None, stop_condition=None) -> AnchorResult:
    """Collect/update cycles until the step budget cannot fund another
    update, or until `stop_condition(curve)` holds. The stop rule is asked
    before each collection, so a run resumed from any update's checkpoint
    stops exactly where the uninterrupted run stopped. Resumable from
    (start_update, initial, ...) bit-exactly."""
    if initial is None:
        ac = init_actor_critic(env.observation_dim, env.action_dim, config)
    else:
        ac = initial.copy()
    optimizer = PpoOptimizer(ac, config)
    if optimizer_state:
        optimizer.load_dict(optimizer_state)
    curve = list(curve) if curve else []
    steps_used = initial_steps
    update_cost = config.episodes_per_update * env.horizon
    u = start_update
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
            checkpoint_cb(u, ac, optimizer, steps_used, curve)
        u += 1
    return AnchorResult(ac, curve, steps_used)
