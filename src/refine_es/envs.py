"""Toy continuous-control tasks: three goal-conditioned episodic MDPs graded
by success tolerance (loose / medium / tight), each deterministic given
(seed, action sequence). The tests solve each with a scripted
proportional-controller expert (tests/experts.py).

Every env is batch-native: `reset(seeds)` starts B episodes, one per seed,
and `step` advances all of them together, taking actions (B, action_dim)
and returning observations (B, obs_dim), rewards (B,) and success flags (B,).
Row i of a batch is bit-identical to the same episode run alone (B = 1).

The tasks share one skeleton, `ToyEnv`, and give only their draw and their
reward. Success latches: once the tolerance is met it stays true for the
episode. Every episode runs to the horizon, so it consumes exactly
`horizon` env steps and a batch steps in lockstep; a step past the horizon
raises.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


class ToyEnv:
    """Base episodic env over a batch of B episodes that step in lockstep.
    It integrates (state += dt * clipped action), observes (state, goal)
    and latches success (distance < tolerance); a task gives its draw and
    its reward. Subclasses set the class attributes and implement, over the
    leading batch axis: _reset(rngs), one episode per generator, which
    returns (state (B, action_dim), goal (B, goal_dim)); _reward(), the
    rewards (B,) of the current state and its distances to the goal (B,)."""

    env_id = "base"
    observation_dim = 0
    action_dim = 0
    horizon = 0
    gamma = 0.99

    def __init__(self):
        self._step_count = 0
        self._success = np.zeros(0, dtype=bool)

    def reset(self, seeds) -> np.ndarray:
        """Start one episode per seed; returns observations (B, obs_dim).
        Row i is drawn from its own PCG64(seeds[i]) stream."""
        rngs = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
        self._step_count = 0
        self._success = np.zeros(len(rngs), dtype=bool)
        self.state, self.goal = self._reset(rngs)
        return self._observe()

    def step(self, actions):
        """Advance every episode by one step. actions: (B, action_dim).
        Returns (obs (B, obs_dim), reward (B,), success (B,))."""
        if self._step_count >= self.horizon:
            raise ContractError("episode already finished")
        actions = np.asarray(actions, dtype=float)
        expected = (self._success.shape[0], self.action_dim)
        if actions.shape != expected:
            raise ContractError(
                f"actions have shape {actions.shape}, env expects {expected}")
        clipped = np.minimum(np.maximum(actions, -1.0), 1.0)
        self.state = self.state + self.dt * clipped
        reward, distance = self._reward()
        self._step_count += 1
        self._success |= distance < self.tolerance
        return self._observe(), reward, self._success.copy()

    def _observe(self):
        return np.concatenate([self.state, self.goal], axis=1)


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (B, n). Bit-identical to
    np.linalg.norm of each row, which norm(axis=1) and hypot are not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


class PointReach(ToyEnv):
    """Planar point mass with velocity control. Loose tolerance (4cm-scale).
    Its state is the position."""

    env_id = "point-reach"
    observation_dim = 4  # (pos, goal)
    action_dim = 2
    horizon = 100
    gamma = 0.99
    dt = 0.05
    tolerance = 0.04

    def _reset(self, rngs):
        return (np.zeros((len(rngs), 2)),
                np.array([rng.uniform(-0.5, 0.5, size=2) for rng in rngs]))

    def _reward(self):
        distance = _norm(self.state - self.goal)
        return -distance, distance


class ArmReach(ToyEnv):
    """Two-link planar arm with joint-velocity control. Medium tolerance.
    Its state is the joint angles."""

    env_id = "arm-reach"
    observation_dim = 4  # (q1, q2, goal_x, goal_y)
    action_dim = 2
    horizon = 100
    gamma = 0.99
    dt = 0.05
    link = (0.5, 0.5)
    tolerance = 0.04

    def _reset(self, rngs):
        q, gq = [], []
        for rng in rngs:
            q.append(rng.uniform(-0.3, 0.3, size=2))
            # goal drawn as a reachable end-effector pose
            gq.append(rng.uniform(np.array([-1.2, 0.3]), np.array([1.2, 2.2])))
        return np.array(q), self._fk(np.array(gq))

    def _fk(self, q):
        """End-effector positions (B, 2) of joint angles q (B, 2)."""
        l1, l2 = self.link
        x = l1 * np.cos(q[:, 0]) + l2 * np.cos(q[:, 0] + q[:, 1])
        y = l1 * np.sin(q[:, 0]) + l2 * np.sin(q[:, 0] + q[:, 1])
        return np.stack([x, y], axis=1)

    def _reward(self):
        distance = _norm(self._fk(self.state) - self.goal)
        return -distance, distance


class PegInsert1d(ToyEnv):
    """Scalar insertion depth with a tight (2.5mm-scale) success band and an
    overshoot penalty. The precision task of the suite. Its state is the
    depth and its goal the target, both (B, 1)."""

    env_id = "peg-insert-1d"
    observation_dim = 2  # (depth, target)
    action_dim = 1
    horizon = 200
    gamma = 0.99
    dt = 0.02
    tolerance = 0.0025
    overshoot_penalty = 2.0

    def _reset(self, rngs):
        return (np.zeros((len(rngs), 1)),
                np.array([[rng.uniform(0.8, 1.2)] for rng in rngs]))

    def _reward(self):
        err = (self.state - self.goal)[:, 0]
        gap = np.abs(err)
        return -gap - self.overshoot_penalty * np.maximum(0.0, err), gap


_REGISTRY = {cls.env_id: cls for cls in (PointReach, ArmReach, PegInsert1d)}


def env_ids() -> list[str]:
    return sorted(_REGISTRY)


def make_env(env_id: str) -> ToyEnv:
    if env_id not in _REGISTRY:
        raise ContractError(f"unknown env id: {env_id!r} (known: {env_ids()})")
    return _REGISTRY[env_id]()

