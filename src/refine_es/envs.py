"""Toy continuous-control tasks: three goal-conditioned episodic MDPs graded
by success tolerance (loose / medium / tight), each deterministic given
(seed, action sequence). The tests solve each with a scripted
proportional-controller expert (tests/experts.py).

Every env is batch-native: `reset(seeds)` starts B episodes, one per seed,
and `step` advances all of them together, taking actions (B, action_dim)
and returning observations (B, obs_dim), rewards (B,) and success flags (B,).
Row i of a batch is bit-identical to the same episode run alone (B = 1).

Success latches: once the tolerance is met it stays true for the episode.
Episodes run to the horizon; `terminated` only signals the time limit, so
every episode consumes exactly `horizon` env steps and a batch steps in
lockstep.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


class ToyEnv:
    """Base episodic env over a batch of B episodes that step in lockstep.
    Subclasses set the class attributes and implement _reset/_observe/_step/
    _check_success, each over the leading batch axis."""

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
        self._reset(rngs)
        return self._observe()

    def step(self, actions):
        """Advance every episode by one step. actions: (B, action_dim).
        Returns (obs (B, obs_dim), reward (B,), terminated, success (B,))."""
        if self._step_count >= self.horizon:
            raise ContractError("episode already finished")
        actions = np.asarray(actions, dtype=float)
        expected = (self._success.shape[0], self.action_dim)
        if actions.shape != expected:
            raise ContractError(
                f"actions have shape {actions.shape}, env expects {expected}")
        reward = self._step(np.minimum(np.maximum(actions, -1.0), 1.0))
        self._step_count += 1
        self._success |= self._check_success()
        terminated = self._step_count >= self.horizon
        return self._observe(), reward, terminated, self._success.copy()

    # subclass API
    def _reset(self, rngs):
        raise NotImplementedError

    def _observe(self):
        raise NotImplementedError

    def _step(self, actions) -> np.ndarray:
        raise NotImplementedError

    def _check_success(self) -> np.ndarray:
        raise NotImplementedError


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (B, n). Bit-identical to
    np.linalg.norm of each row, which norm(axis=1) and hypot are not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


class PointReach(ToyEnv):
    """Planar point mass with velocity control. Loose tolerance (4cm-scale)."""

    env_id = "point-reach"
    observation_dim = 4  # (pos, goal)
    action_dim = 2
    horizon = 100
    gamma = 0.99
    dt = 0.05
    tolerance = 0.04

    def _reset(self, rngs):
        self.pos = np.zeros((len(rngs), 2))
        self.goal = np.array([rng.uniform(-0.5, 0.5, size=2) for rng in rngs])

    def _observe(self):
        return np.concatenate([self.pos, self.goal], axis=1)

    def _step(self, actions):
        self.pos = self.pos + self.dt * actions
        self._dist = _norm(self.pos - self.goal)
        return -self._dist

    def _check_success(self):
        return self._dist < self.tolerance


class ArmReach(ToyEnv):
    """Two-link planar arm with joint-velocity control. Medium tolerance."""

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
        self.q = np.array(q)
        self.goal = self._fk(np.array(gq))

    def _fk(self, q):
        """End-effector positions (B, 2) of joint angles q (B, 2)."""
        l1, l2 = self.link
        x = l1 * np.cos(q[:, 0]) + l2 * np.cos(q[:, 0] + q[:, 1])
        y = l1 * np.sin(q[:, 0]) + l2 * np.sin(q[:, 0] + q[:, 1])
        return np.stack([x, y], axis=1)

    def _observe(self):
        return np.concatenate([self.q, self.goal], axis=1)

    def _step(self, actions):
        self.q = self.q + self.dt * actions
        self._dist = _norm(self._fk(self.q) - self.goal)
        return -self._dist

    def _check_success(self):
        return self._dist < self.tolerance


class PegInsert1d(ToyEnv):
    """Scalar insertion depth with a tight (2.5mm-scale) success band and an
    overshoot penalty. The precision task of the suite."""

    env_id = "peg-insert-1d"
    observation_dim = 2  # (depth, target)
    action_dim = 1
    horizon = 200
    gamma = 0.99
    dt = 0.02
    tolerance = 0.0025
    overshoot_penalty = 2.0

    def _reset(self, rngs):
        self.depth = np.zeros(len(rngs))
        self.target = np.array([rng.uniform(0.8, 1.2) for rng in rngs])

    def _observe(self):
        obs = np.empty((self.depth.shape[0], 2))
        obs[:, 0], obs[:, 1] = self.depth, self.target
        return obs

    def _step(self, actions):
        self.depth = self.depth + self.dt * actions[:, 0]
        err = self.depth - self.target
        self._gap = np.abs(err)
        return -self._gap - self.overshoot_penalty * np.maximum(0.0, err)

    def _check_success(self):
        return self._gap < self.tolerance


_REGISTRY = {cls.env_id: cls for cls in (PointReach, ArmReach, PegInsert1d)}


def env_ids() -> list[str]:
    return sorted(_REGISTRY)


def make_env(env_id: str) -> ToyEnv:
    if env_id not in _REGISTRY:
        raise ContractError(f"unknown env id: {env_id!r} (known: {env_ids()})")
    return _REGISTRY[env_id]()

