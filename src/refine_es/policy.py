"""Flat-parameter MLP policy and the lockstep rollout engine.

Parameters live in a single flat float64 vector so the ES stage can perturb
them directly. Layout is layer-major: for each layer, the weight matrix
(shape (fan_out, fan_in), C order) followed by the bias (fan_out,). A stack
of vectors (B, d) gives each row of a batch its own weights.

`rollout` is the one per-step loop of the package. It runs B full-horizon
episodes together over a leading batch axis, in groups of rows that share
weights: ES candidates (per-row weights), PPO collection (one group per
lockstep run) and evaluation (one group). Actions are the policy mean plus
optional pre-drawn Gaussian noise (B, horizon, k). The MLP passes take a
stack of vectors (S, d) against inputs (S, n, ...), one run's weights per
stack item. The passes save numpy calls by working in place, but keep each
matmul's operands, shape and order: one product over more rows changes
bits, while a stacked product of the reference shape is one product per
stack item, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, RolloutError


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ContractError("all layer dims must be >= 1")
        if self.activation != "tanh":
            raise ContractError(f"unsupported activation: {self.activation}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer, input to output; computed once per
        architecture."""
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return tuple(zip(dims[:-1], dims[1:]))

    @cached_property
    def layer_offsets(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """(start, bias start, end, fan_in, fan_out) per layer, cached."""
        out, off = [], 0
        for fi, fo in self.layer_shapes:
            out.append((off, off + fi * fo, off + (fi + 1) * fo, fi, fo))
            off += (fi + 1) * fo
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "output_dim": self.output_dim,
            "activation": self.activation,
        }


def param_count(arch: MlpArchitecture) -> int:
    """Total flat parameter count: sum of (fan_in + 1) * fan_out over layers."""
    return arch.layer_offsets[-1][2]


def init_params(arch: MlpArchitecture, rng: np.random.Generator,
                final_scale: float = 1.0) -> np.ndarray:
    """Xavier-uniform init; the last layer is additionally scaled by final_scale."""
    chunks = []
    shapes = arch.layer_shapes
    for li, (fi, fo) in enumerate(shapes):
        limit = np.sqrt(6.0 / (fi + fo))
        if li == len(shapes) - 1:
            limit *= final_scale
        w = rng.uniform(-limit, limit, size=(fo, fi))
        b = np.zeros(fo)
        chunks.append(w.ravel())
        chunks.append(b)
    return np.concatenate(chunks)


def unpack_params(params: np.ndarray, arch: MlpArchitecture) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat vector. A (B, d) stack of
    vectors gives per-row views W (B, fan_out, fan_in) and b (B, fan_out)."""
    if params.shape[-1:] != (param_count(arch),):
        raise ContractError(
            f"parameter vector has length {params.shape}, architecture needs {param_count(arch)}")
    lead = params.shape[:-1]
    return [(params[..., s:sb].reshape(*lead, fo, fi), params[..., sb:e])
            for s, sb, e, fi, fo in arch.layer_offsets]


def mlp_forward(params: np.ndarray, arch: MlpArchitecture, x: np.ndarray):
    """Forward pass of x (..., n, input_dim), one product per stack item:
    params (d,) for every item, or a stack (S, d) against x (S, n,
    input_dim), item i under params[i]. Returns (out, cache), cache the
    post-activation values per layer."""
    layers = unpack_params(params, arch)
    acts = [x]
    for w, b in layers:
        h = acts[-1] @ w.swapaxes(-1, -2)  # .T would reverse a stack's axes
        h += b[..., None, :]
        if len(acts) < len(layers):
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(params: np.ndarray, arch: MlpArchitecture,
                 acts: list[np.ndarray], dout: np.ndarray,
                 grad: np.ndarray) -> np.ndarray:
    """Gradient of sum(out * dout) w.r.t. the flat parameters, into grad,
    per stack item as `mlp_forward` pairs them."""
    layers = unpack_params(params, arch)
    grads = unpack_params(grad, arch)  # views to write each layer into
    d = dout
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(d.swapaxes(-1, -2), acts[li], out=gw)
        np.add.reduce(d, axis=-2, out=gb)
        if li > 0:  # tanh' = 1 - a**2
            slope = np.square(acts[li])
            d = d @ layers[li][0]
            d *= np.subtract(1.0, slope, out=slope)
    return grad


@dataclass
class RolloutBatch:
    """B episodes run in lockstep. rewards (B, horizon); final_obs
    (B, obs_dim); states (B, horizon, obs_dim) and actions (B, horizon, k)
    only when recorded. length counts the env steps of the whole batch."""
    returns: np.ndarray
    success: np.ndarray
    rewards: np.ndarray
    final_obs: np.ndarray
    length: int
    states: np.ndarray | None = None
    actions: np.ndarray | None = None


def discounted_return(rewards, gamma: float):
    """Sum of gamma^t * r_t over the last axis, accumulated in forward time
    order, float64."""
    rewards = np.asarray(rewards, dtype=float)
    total = np.zeros(rewards.shape[:-1])
    scale = 1.0
    for t in range(rewards.shape[-1]):
        total += scale * rewards[..., t]
        scale *= gamma
    return total


def action_noise(streams, horizon: int, action_dim: int, scale) -> np.ndarray:
    """Gaussian action noise (B, horizon, action_dim), row i drawn from
    streams[i] in time order and multiplied by scale (a scalar or one
    value per action coordinate)."""
    return scale * np.stack([rng.standard_normal((horizon, action_dim))
                             for rng in streams])


def rollout(params: np.ndarray, arch: MlpArchitecture, env, seeds,
            noise: np.ndarray | None = None, record: bool = False) -> RolloutBatch:
    """Run one episode per env seed, all B of them in lockstep.

    params is (G, d): the rows fall into G consecutive groups of B / G,
    each under its own weights. (d,) is one group, and per-row weights are
    G = B. The action at step t is the policy mean plus noise[:, t]; with
    noise None the policy acts deterministically. Each row is bit-identical
    to the same episode run with B = 1. An episode's success is the env's
    flag after its last step, which the env latches (envs.py).

    Raises RolloutError, naming the step and carrying the failing row in
    its `row`, if the env emits a non-finite reward or observation.
    """
    if (arch.input_dim, arch.output_dim) != (env.observation_dim, env.action_dim):
        raise ContractError(
            f"architecture maps {arch.input_dim} -> {arch.output_dim}, env needs "
            f"{env.observation_dim} -> {env.action_dim}")
    n, horizon = len(seeds), env.horizon
    params = params.reshape(-1, params.shape[-1])
    g = params.shape[0]
    if n % g:
        raise ContractError(f"{g} weight groups for {n} episodes")
    if noise is not None and noise.shape != (n, horizon, env.action_dim):
        raise ContractError(f"noise has shape {noise.shape}, batch needs "
                            f"{(n, horizon, env.action_dim)}")
    # (G, B/G, 1, fan_in) @ (G, 1, fan_in, fan_out): one (1, fan_in)
    # product per row, bit-identical to B = 1
    layers = [(w.swapaxes(-1, -2)[:, None], b[:, None, None, :],
               np.empty((g, n // g, 1, w.shape[-2])))
              for w, b in unpack_params(params, arch)]
    obs = env.reset(seeds)
    rewards = np.empty((n, horizon))
    if record:
        states = np.empty((n, horizon, env.observation_dim))
        actions = np.empty((n, horizon, env.action_dim))
    for t in range(horizon):
        h = obs.reshape(g, n // g, 1, -1)
        for wt, b, z in layers:
            np.matmul(h, wt, out=z)
            z += b
            if z is not layers[-1][2]:
                np.tanh(z, out=z)
            h = z
        mean = h.reshape(n, -1)
        action = mean if noise is None else mean + noise[:, t]
        if record:
            states[:, t] = obs
            actions[:, t] = action
        obs, rewards[:, t], success = env.step(action)
        if not (np.isfinite(rewards[:, t]).all() and np.isfinite(obs).all()):
            bad = ~(np.isfinite(rewards[:, t]) & np.isfinite(obs).all(axis=1))
            raise RolloutError(f"non-finite reward or state at step {t}",
                               row=int(np.flatnonzero(bad)[0]))
    batch = RolloutBatch(discounted_return(rewards, env.gamma), success,
                         rewards, obs, n * horizon)
    if record:
        batch.states, batch.actions = states, actions
    return batch
