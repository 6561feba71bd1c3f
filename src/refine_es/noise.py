"""Perturbation sampling for the ES stage.

Base noise is drawn at unit scale — triangular on [-1, 1] (half-width 1,
per-coordinate variance 1/6) or standard normal — and the single scale
factor sigma_es is applied when candidates are formed, so triangular
candidates satisfy the hard per-coordinate radius |theta± - theta|_inf
<= sigma_es exactly.

Batches are regenerated, never stored: candidate i of generation g draws
from the counter-based stream (master_seed, TAG_NOISE, g, i), so any worker
can rebuild any batch bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import TAG_NOISE, make_stream

SQRT6 = np.sqrt(6.0)

KINDS = ("triangular", "gaussian")


@dataclass(frozen=True)
class NoiseDistribution:
    kind: str
    standardize: bool = False   # triangular only: multiply by sqrt(6) so var = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown noise kind {self.kind!r}")

    def sample(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "triangular":
            eps = sample_triangular(dim, rng)
            return eps * SQRT6 if self.standardize else eps
        return rng.standard_normal(dim)


def sample_triangular(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric triangular noise on [-1, 1], mode 0, sampled per
    coordinate as U - V with independent U, V ~ Uniform(0, 1)."""
    u = rng.random(dim)
    v = rng.random(dim)
    return u - v


@dataclass
class PerturbationBatch:
    """The m base-noise vectors of one generation and their scale."""
    epsilons: np.ndarray        # (m, d)
    sigma_es: float

    @property
    def dim(self) -> int:
        return self.epsilons.shape[1]


def make_batch(distribution: NoiseDistribution, sigma_es: float, m: int, dim: int,
               generation_index: int, master_seed: int) -> PerturbationBatch:
    """Generate the m base-noise vectors of one generation; row i is drawn
    from the stream (master_seed, TAG_NOISE, generation_index, i)."""
    if m < 1:
        raise ContractError("m must be >= 1")
    if sigma_es <= 0:
        raise ContractError("sigma_es must be > 0")
    eps = np.empty((m, dim))
    for i in range(m):
        eps[i] = distribution.sample(
            dim, make_stream(master_seed, TAG_NOISE, generation_index, i))
    return PerturbationBatch(eps, float(sigma_es))


def antithetic_candidates(center: np.ndarray, batch: PerturbationBatch):
    """The 2m candidates theta±_i = center ± sigma_es * eps_i.

    Returns (plus, minus), each (m, d); plus[i] and minus[i] are exact
    reflections about the center."""
    if center.shape != (batch.dim,):
        raise ContractError(
            f"center has shape {center.shape}, batch dimension is {batch.dim}")
    offset = batch.sigma_es * batch.epsilons
    return center + offset, center - offset

