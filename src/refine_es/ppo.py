"""Compact PPO trainer for the Stage-1 anchor policy.

Actor and critic are small tanh MLPs over flat parameter vectors (same layout
as the ES stage, so the trained actor hands off directly). The policy is
diagonal Gaussian with a state-independent learnable log-std vector. All
trainable parameters live in one float64 vector laid out actor | log_std |
critic, and a checkpoint stores that vector. The gradient of the clipped
surrogate + value loss + entropy bonus is derived by hand in reverse mode
(tests check it against finite differences) and written into one vector of
that layout; `optimizer_step` takes one SGD step, or one Adam step that
updates its state in place, over it.

`train_anchors` trains several independent runs of one config (their seeds
may differ) in lockstep. It holds each run as the state that the run hands
out; before each update the runs still updating are stacked from their
states on a leading axis, and each numpy call of collection, the minibatch
step and the optimizer step serves all of them. Each stacked product
repeats the shape that a run alone computes, so numpy computes it as one
product per run, and each run's bits equal its solo run's. After the shared
rollout, collection makes one forward per network and run, one product per
episode; GAE runs over a run's episodes at once. `train_anchor` is the
one-run case. Both return each run's last state, the one it handed out
last.

All randomness (env seeds, action noise, minibatch shuffles) comes from
counter-based streams keyed on (seed, purpose, update_index, ...), so
`train_anchor` resumes bit-exactly from the state that it hands out after
every update, which is what a per-update checkpoint stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    laid out actor | log_std | critic, or in a stack of such vectors (runs,
    D), one per lockstep run; a copy of the `params` it is built from, and
    the two architectures that read it (`architectures`). `actor_params`,
    `log_std` and `critic_params` are views into it, with no setter: write
    into them in place (`ac.log_std[:] = x`); rebinding one raises
    AttributeError."""

    def __init__(self, actor_arch: MlpArchitecture,
                 critic_arch: MlpArchitecture, params):
        self.actor_arch, self.critic_arch = actor_arch, critic_arch
        self.params = np.array(params, dtype=float)
        a, k = param_count(actor_arch), actor_arch.output_dim
        if self.params.ndim > 2 or \
                self.params.shape[-1:] != (a + k + param_count(critic_arch),):
            raise ContractError("params do not match the architectures")
        self._slices = (slice(0, a), slice(a, a + k), slice(a + k, None))

    actor_params = property(lambda self: self.params[..., self._slices[0]])
    log_std = property(lambda self: self.params[..., self._slices[1]])
    critic_params = property(lambda self: self.params[..., self._slices[2]])

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (actor, log_std, critic) into a vector, or a stack of
        them, laid out like `params`."""
        return tuple(vec[..., s] for s in self._slices)


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
    return -0.5 * z2.sum(axis=-1) - log_std.sum(axis=-1)[..., None] - \
        0.5 * z2.shape[-1] * _LOG_2PI


def gaussian_log_prob(actions, means, log_std):
    return _log_prob((actions - means) ** 2 / np.exp(2.0 * log_std), log_std)


def policy_entropy(log_std: np.ndarray):
    """The entropy of the policy with `log_std` (..., k), per run."""
    return log_std.sum(axis=-1) + 0.5 * log_std.shape[-1] * (1.0 + _LOG_2PI)


@dataclass
class RolloutBuffer:
    """One update's collection for a stack of runs: states (runs, n,
    obs_dim) and actions (runs, n, k), with n = episodes x horizon,
    log-probs, advantages and returns (runs, n), each run's mean episode
    return and success rate, and the env steps of one run."""
    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    mean_return: list[float]
    success_rate: list[float]
    steps: int


def loss_and_grads(ac: ActorCritic, states, actions, log_probs_old, advantages,
                   returns, config: PpoConfig):
    """Loss = -mean(min(rho*A, clip(rho)*A)) + c_v*mean((V-R)^2) - c_e*H(pi),
    with exact reverse-mode gradients w.r.t. (actor, log_std, critic); for
    a stack `ac` of runs, each run's over its rows (runs, n, ...).

    Returns (loss, parts, grad): loss and the parts' values per run, grad
    laid out like `ac.params`.
    """
    n = states.shape[-2]
    lo, hi = 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon
    mu, actor_acts = mlp_forward(ac.actor_params, ac.actor_arch, states)
    sigma2 = np.exp(2.0 * ac.log_std)[..., None, :]
    diff = actions - mu
    z2 = diff ** 2 / sigma2
    ratio = np.exp(_log_prob(z2, ac.log_std) - log_probs_old)
    surr1 = ratio * advantages
    surr2 = np.minimum(np.maximum(ratio, lo), hi) * advantages
    policy_loss = -(np.add.reduce(np.minimum(surr1, surr2), axis=-1) / n)

    v, critic_acts = mlp_forward(ac.critic_params, ac.critic_arch, states)
    dv = v[..., 0] - returns
    value_loss = np.add.reduce(np.square(dv), axis=-1) / n
    entropy = policy_entropy(ac.log_std)
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy

    grad = np.empty_like(ac.params)
    g_actor, g_log_std, g_critic = ac.split(grad)
    # d loss / d logp: the clipped branch has zero derivative whenever it is
    # strictly selected (the clip is then active).
    d_logp = -(advantages * ratio * (surr1 <= surr2)) / n

    mlp_backward(ac.actor_params, ac.actor_arch, actor_acts,
                 d_logp[..., None] * diff / sigma2, g_actor)
    # d logp / d log_std_k = ((a-mu)^2/sigma^2 - 1)_k ; entropy adds 1 per coord
    np.add.reduce(d_logp[..., None] * (z2 - 1.0), axis=-2, out=g_log_std)
    g_log_std -= config.entropy_coef

    d_v = (config.value_coef * 2.0 * dv / n)[..., None]
    mlp_backward(ac.critic_params, ac.critic_arch, critic_acts, d_v, g_critic)

    parts = {"policy_loss": policy_loss, "value_loss": value_loss,
             "entropy": entropy}
    return loss, parts, grad


def optimizer_step(params: np.ndarray, grad: np.ndarray, adam: dict,
                   learning_rate: float) -> None:
    """One step over the stack `params`, one vector per run, in place: SGD
    if `adam` is empty, else Adam with the constants `ADAM_BETA1`,
    `ADAM_BETA2` and `ADAM_EPS`. `adam` is Adam's state over the stack,
    row i run i's as a checkpoint stores it: `adam_m` and `adam_v`, which
    the step updates in place, and `adam_t`, each run's step count. Runs
    resumed at different updates hold different counts. The counts are
    Python ints (an object array), and each run's bias corrections are the
    Python floats `1 - beta ** t` of a run alone: numpy's power may round
    them differently."""
    if not adam:
        params -= learning_rate * grad
        return
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    adam["adam_t"] += 1
    m, v = adam["adam_m"], adam["adam_v"]
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * np.square(grad)
    bias = np.array([[1 - b1 ** t, 1 - b2 ** t] for t in adam["adam_t"]])
    mhat = m / bias[:, :1]
    vhat = v / bias[:, 1:]
    params -= learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Advantages standardized over the last axis, each run's on their own;
    a run whose standard deviation is below 1e-12 gets zeros."""
    std = adv.std(axis=-1, keepdims=True)
    return np.divide(adv - adv.mean(axis=-1, keepdims=True), std,
                     out=np.zeros_like(adv), where=~(std < 1e-12))


def _run_targets(ac: ActorCritic, i: int, batch, rows: slice, gamma: float,
                 lam: float):
    """Log-probs, advantages and returns (episodes, horizon) of run i of
    the stack `ac`, whose episodes are the `rows` of `batch`: one actor and
    one critic forward, one product per episode; the critic's states end
    with the final obs. Run by run, collection holds one run's activations
    at a time."""
    actor, log_std, critic = ac.split(ac.params[i])
    states = batch.states[rows]
    mus = mlp_forward(actor, ac.actor_arch, states)[0]
    values = mlp_forward(critic, ac.critic_arch, np.concatenate(
        [states, batch.final_obs[rows, None]], axis=1))[0][..., 0]
    adv = gae_advantages(batch.rewards[rows], values[:, :-1], gamma, lam,
                         values[:, -1])
    return (gaussian_log_prob(batch.actions[rows], mus, log_std), adv,
            adv + values[:, :-1])


def collect_rollouts(ac: ActorCritic, env, configs: list[PpoConfig],
                     updates: list[int]) -> RolloutBuffer:
    """Run episodes_per_update full-horizon episodes of each run of the
    stack `ac`, run i's under its own weights and streams (configs[i].seed,
    updates[i]), all as one lockstep batch, and assemble the buffer. GAE
    bootstraps with V(final obs) since the envs terminate on time limit."""
    runs, horizon = len(configs), env.horizon
    n_ep = configs[0].episodes_per_update
    seeds = [make_stream(c.seed, TAG_PPO_ENV, u, ep).integers(1 << 62)
             for c, u in zip(configs, updates) for ep in range(n_ep)]
    noise = np.concatenate([action_noise(
        [make_stream(c.seed, TAG_PPO_ACTION, u, ep) for ep in range(n_ep)],
        horizon, env.action_dim, np.exp(log_std))
        for c, u, log_std in zip(configs, updates, ac.log_std)])
    try:
        batch = rollout(ac.actor_params, ac.actor_arch, env, seeds, noise,
                        record=True)
    except RolloutError as exc:
        run, ep = divmod(exc.row, n_ep)
        raise RolloutError(
            f"update {updates[run]}, episode {ep}: {exc}") from exc
    targets = [_run_targets(ac, i, batch, slice(i * n_ep, (i + 1) * n_ep),
                            env.gamma, configs[0].gae_lambda)
               for i in range(runs)]
    log_probs, adv, returns = (np.stack(a).reshape(runs, -1)
                               for a in zip(*targets))
    return RolloutBuffer(
        batch.states.reshape(runs, n_ep * horizon, -1),
        batch.actions.reshape(runs, n_ep * horizon, -1),
        log_probs, adv, returns,
        mean_return=[float(np.mean(r))
                     for r in batch.returns.reshape(runs, n_ep)],
        success_rate=[int(s.sum()) / n_ep
                      for s in batch.success.reshape(runs, n_ep)],
        steps=n_ep * horizon)


def _run_parts(parts: dict, i: int) -> dict:
    return {k: float(v[i]) for k, v in parts.items()}


def ppo_update(ac: ActorCritic, buffer: RolloutBuffer,
               configs: list[PpoConfig], adam: dict,
               updates: list[int]) -> list[dict]:
    """Minibatch epochs of clipped-surrogate steps for the stack `ac`, run i
    on its own rows of `buffer`, its advantages normalized on their own and
    its minibatches shuffled by its own streams (configs[i].seed,
    updates[i]); each step is an `optimizer_step` with the stacked Adam
    state `adam` (empty for SGD). Mutates ac and adam in place. Returns
    each run's loss parts of its last minibatch."""
    config = configs[0]
    adv = normalize_advantages(buffer.advantages)
    n = buffer.states.shape[1]
    runs = np.arange(len(configs))[:, None]
    for epoch in range(config.epochs):
        perm = np.array([make_stream(c.seed, TAG_PPO_SHUFFLE, u,
                                     epoch).permutation(n)
                         for c, u in zip(configs, updates)])
        # shuffled once per epoch; each minibatch is a contiguous slice of
        # every run's rows
        shuffled = [a[runs, perm] for a in (buffer.states, buffer.actions,
                                            buffer.log_probs, adv,
                                            buffer.returns)]
        for start in range(0, n, config.minibatch_size):
            stop = start + config.minibatch_size
            loss, parts, grad = loss_and_grads(
                ac, *(a[:, start:stop] for a in shuffled), config)
            if not np.isfinite(loss).all():
                i = int(np.flatnonzero(~np.isfinite(loss))[0])
                raise RolloutError(f"non-finite PPO loss at update "
                                   f"{updates[i]}: {_run_parts(parts, i)}")
            optimizer_step(ac.params, grad, adam, config.learning_rate)
    return [_run_parts(parts, i) for i in range(len(configs))]


def train_anchors(env, runs: list[tuple]) -> list[dict]:
    """`train_anchor` for several runs in lockstep on one env. `runs` holds
    each run's arguments (config, state, checkpoint_cb), and the configs
    may differ in their seed only. Each run starts from its own state,
    hands its own callback its states and returns its last state, all bit
    for bit as it would alone; runs may start at different updates, and
    the ones further on leave the group sooner. Each run is held as the
    state that it hands out. Before each collection the params and Adam
    state of the runs still updating are stacked, make one update together,
    and each run's state gets its row back. A callback that raises stops
    every run after its last handed-out update."""
    if not runs:
        return []
    config = runs[0][0]
    if any(replace(c, seed=config.seed) != config for c, *_ in runs):
        raise ContractError("runs in lockstep may differ in their seed only")
    dims = (env.observation_dim, env.action_dim)
    archs = architectures(*dims, config)
    adam_keys = ("adam_m", "adam_v", "adam_t") \
        if config.optimizer == "adam" else ()

    def start(c, state):
        if state is None:
            params = init_actor_critic(*dims, c).params
            state = {"update_index": -1, "params": params,
                     "adam_m": np.zeros_like(params),
                     "adam_v": np.zeros_like(params), "adam_t": 0,
                     "steps_used": 0, "curve": []}
        return {**{k: state[k] for k in ("update_index", "params", *adam_keys,
                                         "steps_used")},
                "curve": list(state["curve"])}
    states = [start(c, state) for c, state, _ in runs]
    update_cost = config.episodes_per_update * env.horizon

    running = range(len(runs))
    while running := [i for i in running if states[i]["steps_used"]
                      + update_cost <= config.total_steps]:
        group = [states[i] for i in running]
        configs = [runs[i][0] for i in running]
        updates = [s["update_index"] + 1 for s in group]
        ac = ActorCritic(*archs, [s["params"] for s in group])
        adam = {k: np.array([s[k] for s in group],
                            dtype=object if k == "adam_t" else float)
                for k in adam_keys}
        buffer = collect_rollouts(ac, env, configs, updates)
        parts = ppo_update(ac, buffer, configs, adam, updates)
        for j, (i, s) in enumerate(zip(running, group)):
            s.update(update_index=updates[j], params=ac.params[j],
                     **{k: v[j] for k, v in adam.items()},
                     steps_used=s["steps_used"] + buffer.steps)
            s["curve"].append({"update": updates[j],
                               "mean_return": buffer.mean_return[j],
                               "success_rate": buffer.success_rate[j],
                               "steps_used": s["steps_used"], **parts[j]})
            if runs[i][2] is not None:
                runs[i][2](s)
    return states


def train_anchor(env, config: PpoConfig, state: dict | None = None,
                 checkpoint_cb=None) -> dict:
    """Collect/update cycles until the step budget cannot fund another
    update: `train_anchors` with one run. The budget is asked before each
    collection, so a run resumed from any update's checkpoint stops exactly
    where the uninterrupted run stopped.

    After each update, `checkpoint_cb(state)` gets the run's state, what a
    checkpoint stores, in this key order: `update_index`, `params` (the
    actor-critic's vector), for Adam `adam_m`, `adam_v` and `adam_t` (its
    step count, a Python int), `steps_used` and `curve`. It is the dict
    that holds the run, live: its values and its curve change with the
    next update, so copy what must outlast the call. Given such a state
    (other keys are ignored), the run continues after its update
    bit-exactly; the actor-critic's architectures follow from `config`, and
    no initial parameters are drawn. Returns the run's state after its last
    update, the dict that the callback got last; a run with no update to
    make returns its start state, with only these keys."""
    return train_anchors(env, [(config, state, checkpoint_cb)])[0]
