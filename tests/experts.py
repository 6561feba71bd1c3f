"""Scripted proportional-controller experts of the toy tasks, used by the
tests as solvability oracles: `expert_action(env, obs)` maps observations
(B, obs_dim) of `env` to clipped actions (B, action_dim)."""

import numpy as np


def _point_reach(env, obs):
    pos, goal = obs[:, :2], obs[:, 2:]
    return np.clip(8.0 * (goal - pos), -1.0, 1.0)


def _arm_reach(env, obs):
    q, goal = obs[:, :2], obs[:, 2:]
    # analytic IK for the elbow-up solution, then joint-space P control
    l1, l2 = env.link
    r2 = (goal ** 2).sum(axis=1)
    c2 = np.clip((r2 - l1 ** 2 - l2 ** 2) / (2 * l1 * l2), -1.0, 1.0)
    q2 = np.arccos(c2)
    q1 = np.arctan2(goal[:, 1], goal[:, 0]) - np.arctan2(
        l2 * np.sin(q2), l1 + l2 * np.cos(q2))
    err = np.stack([q1, q2], axis=1) - q
    err = (err + np.pi) % (2 * np.pi) - np.pi
    return np.clip(8.0 * err, -1.0, 1.0)


def _peg_insert(env, obs):
    depth, target = obs[:, 0], obs[:, 1]
    return np.clip(6.0 * (target - depth), -1.0, 1.0)[:, None]


_EXPERTS = {"point-reach": _point_reach, "arm-reach": _arm_reach,
            "peg-insert-1d": _peg_insert}


def expert_action(env, obs: np.ndarray) -> np.ndarray:
    return _EXPERTS[env.env_id](env, obs)
