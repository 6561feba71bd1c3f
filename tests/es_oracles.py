"""Test oracles for the paper's variance claim.

classic_es_gradient is the score-function baseline

    g = (1 / (n * sigma_es)) * sum_i J(theta_i) * delta_i,

and estimator_variance measures the trace of the antithetic estimator's
covariance for triangular and Gaussian noise at equal sigma_es. Nothing in
the package calls either; they live here, next to the tests that use them.
"""

import numpy as np

from refine_es.errors import ContractError
from refine_es.estimator import centered_ranks, fd_gradient
from refine_es.noise import NoiseDistribution, antithetic_candidates, make_batch


def classic_es_gradient(deltas: np.ndarray, returns: np.ndarray,
                        sigma_es: float) -> np.ndarray:
    """Score-function estimator over n Gaussian perturbations and their raw
    returns."""
    if sigma_es <= 0:
        raise ContractError("sigma_es must be > 0")
    returns = np.asarray(returns, dtype=float)
    n = deltas.shape[0]
    if returns.shape != (n,):
        raise ContractError("returns are not aligned with the perturbations")
    return (returns @ deltas) / (n * sigma_es)


def estimator_variance(objective, center: np.ndarray, sigma_es: float, m: int,
                       trials: int, master_seed: int = 0,
                       use_ranks: bool = False) -> dict:
    """Trace of the empirical covariance of the antithetic estimator over
    independent batches, for each noise kind at equal sigma_es.

    objective: deterministic callable theta -> float.
    """
    if trials < 2:
        raise ContractError("trials must be >= 2")
    center = np.asarray(center, dtype=float)
    out = {}
    for kind in ("triangular", "gaussian"):
        dist = NoiseDistribution(kind)
        grads = np.empty((trials, center.shape[0]))
        for t in range(trials):
            batch = make_batch(dist, sigma_es, m, center.shape[0], t, master_seed)
            plus, minus = antithetic_candidates(center, batch)
            j_plus = np.array([objective(p) for p in plus])
            j_minus = np.array([objective(p) for p in minus])
            if use_ranks:
                r_plus, r_minus = centered_ranks(j_plus, j_minus)
                grads[t] = fd_gradient(batch.epsilons, r_plus, r_minus, sigma_es)
            else:
                grads[t] = fd_gradient(batch.epsilons, j_plus, j_minus, sigma_es)
        out[kind] = float(np.sum(np.var(grads, axis=0)))
    return out
