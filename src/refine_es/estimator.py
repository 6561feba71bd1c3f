"""The TD-ES estimator: perturbation sampling, fitness shaping and the
antithetic finite-difference step, as plain functions over arrays.

Base noise is drawn at unit scale — triangular on [-1, 1] (half-width 1,
per-coordinate variance 1/6) or standard normal — and the single scale
factor sigma_es is applied when candidates are formed, so triangular
candidates satisfy the hard per-coordinate radius |theta± - theta|_inf
<= sigma_es exactly.

Batches are regenerated, never stored: candidate i of generation g draws
from the counter-based stream (master_seed, TAG_NOISE, g, i), so any worker
can rebuild any batch bit-exactly.

centered_ranks turns the 2m episodic returns of a generation into zero-mean,
unit-variance rank scores (average-rank ties, population 1/n variance), which
makes the update invariant to any strictly increasing reward transform.
fd_gradient forms the antithetic finite-difference direction

    g = (1 / (m * sigma_es)) * sum_i (score_plus_i - score_minus_i) * eps_i.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .rng import TAG_NOISE, make_stream

SQRT6 = np.sqrt(6.0)

_TIE_EPS = 1e-12


def sample_noise(kind: str, dim: int, rng: np.random.Generator,
                 standardize: bool) -> np.ndarray:
    """One base-noise vector of `kind`, which `EsConfig` checks: triangular
    on [-1, 1], mode 0, drawn per coordinate as U - V with independent
    U, V ~ Uniform(0, 1), and times sqrt(6) if `standardize`, for a variance
    of 1; otherwise standard normal, which `standardize` leaves as it is."""
    if kind == "triangular":
        eps = rng.random(dim) - rng.random(dim)  # U first, then V
        return eps * SQRT6 if standardize else eps
    return rng.standard_normal(dim)


def make_batch(kind: str, standardize: bool, m: int, dim: int,
               generation_index: int, master_seed: int) -> np.ndarray:
    """The (m, dim) base noise of one generation; row i is drawn from the
    stream (master_seed, TAG_NOISE, generation_index, i)."""
    return np.stack([sample_noise(kind, dim, make_stream(
        master_seed, TAG_NOISE, generation_index, i), standardize)
        for i in range(m)])


def antithetic_candidates(center: np.ndarray, eps: np.ndarray,
                          sigma_es: float):
    """The 2m candidates theta±_i = center ± sigma_es * eps_i.

    Returns (plus, minus), each (m, d); plus[i] and minus[i] are exact
    reflections about the center."""
    if center.shape != eps.shape[1:]:
        raise ContractError(f"center {center.shape} does not fit {eps.shape}")
    offset = sigma_es * eps
    return center + offset, center - offset


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


def centered_ranks(j_plus, j_minus) -> tuple[np.ndarray, np.ndarray]:
    """Centered-rank scores over the 2m returns of one generation, given as
    two aligned, finite 1-D vectors, split back into (r_plus, r_minus)."""
    j_plus = np.asarray(j_plus, dtype=float)
    j_minus = np.asarray(j_minus, dtype=float)
    if j_plus.shape != j_minus.shape or j_plus.ndim != 1:
        raise ContractError("j_plus and j_minus must be aligned 1-D vectors")
    if not (np.all(np.isfinite(j_plus)) and np.all(np.isfinite(j_minus))):
        raise ContractError("returns must be finite")
    m = j_plus.shape[0]
    scores = centered_rank_scores(np.concatenate([j_plus, j_minus]))
    return scores[:m], scores[m:]


def fd_gradient(eps: np.ndarray, s_plus: np.ndarray, s_minus: np.ndarray,
                sigma_es: float) -> np.ndarray:
    """Antithetic finite-difference direction from the (m, d) base noise
    and per-pair scores (rank scores or raw returns); it must be finite."""
    if sigma_es <= 0:
        raise ContractError("sigma_es must be > 0")
    m = eps.shape[0]
    diff = np.asarray(s_plus, dtype=float) - np.asarray(s_minus, dtype=float)
    if diff.shape != (m,):
        raise ContractError("scores are not aligned with the batch")
    g = (diff @ eps) / (m * sigma_es)
    if not np.all(np.isfinite(g)):
        raise ContractError("gradient estimate is not finite")
    return g
