"""Fitness shaping and gradient proxies for the ES stage.

centered_ranks turns the 2m episodic returns of a generation into zero-mean,
unit-variance rank scores (average-rank ties, population 1/n variance), which
makes the update invariant to any strictly increasing reward transform.
tdes_gradient forms the antithetic finite-difference direction

    g = (1 / (m * sigma_es)) * sum_i (score_plus_i - score_minus_i) * eps_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .noise import PerturbationBatch

_TIE_EPS = 1e-12


@dataclass
class ReturnTable:
    """Episodic returns of the 2m candidates, aligned with the batch."""
    j_plus: np.ndarray   # (m,)
    j_minus: np.ndarray  # (m,)

    def __post_init__(self):
        self.j_plus = np.asarray(self.j_plus, dtype=float)
        self.j_minus = np.asarray(self.j_minus, dtype=float)
        if self.j_plus.shape != self.j_minus.shape or self.j_plus.ndim != 1:
            raise ContractError("j_plus and j_minus must be aligned 1-D vectors")
        if not (np.all(np.isfinite(self.j_plus)) and np.all(np.isfinite(self.j_minus))):
            raise ContractError("returns must be finite")


def centered_rank_scores(values) -> np.ndarray:
    """Rank n values ascending (ties get their average rank), map 0-based
    rank k to k/(n-1) - 1/2, then center and divide by the population (1/n)
    standard deviation. All-equal values yield all-zero scores."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ContractError("need at least 2 values to rank")
    # 0-based average ranks: a run of equal values at sorted positions
    # start..end-1 shares the rank (start + end - 1) / 2, which is exact
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1), ends - starts)
    scores = ranks / (n - 1) - 0.5
    scores = scores - scores.mean()
    std = np.sqrt(np.mean(scores ** 2))
    if std < _TIE_EPS:
        return np.zeros(n)
    return scores / std


def centered_ranks(returns: ReturnTable) -> tuple[np.ndarray, np.ndarray]:
    """Centered-rank scores over the 2m returns of one generation, split
    back into (r_plus, r_minus)."""
    m = returns.j_plus.shape[0]
    scores = centered_rank_scores(
        np.concatenate([returns.j_plus, returns.j_minus]))
    return scores[:m], scores[m:]


@dataclass
class GradientEstimate:
    g: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def fd_gradient(epsilons: np.ndarray, s_plus: np.ndarray, s_minus: np.ndarray,
                sigma_es: float) -> np.ndarray:
    """Antithetic finite-difference direction from per-pair scores
    (rank scores or raw returns)."""
    if sigma_es <= 0:
        raise ContractError("sigma_es must be > 0")
    m = epsilons.shape[0]
    diff = np.asarray(s_plus, dtype=float) - np.asarray(s_minus, dtype=float)
    if diff.shape != (m,):
        raise ContractError("scores are not aligned with the batch")
    return (diff @ epsilons) / (m * sigma_es)


def tdes_gradient(batch: PerturbationBatch,
                  ranks: tuple[np.ndarray, np.ndarray]) -> GradientEstimate:
    """Antithetic step from the (r_plus, r_minus) pair of centered_ranks."""
    r_plus, r_minus = ranks
    g = fd_gradient(batch.epsilons, r_plus, r_minus, batch.sigma_es)
    if not np.all(np.isfinite(g)):
        raise ContractError("gradient estimate is not finite")
    return GradientEstimate(g, {"g_norm": float(np.linalg.norm(g))})
