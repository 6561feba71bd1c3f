"""Counter-based random streams.

Every stream used anywhere in a run is a pure function of the master seed and
a short tuple of integer indices (purpose tag, generation, candidate, ...).
Workers can therefore regenerate any stream without communication, and a run
can be resumed bit-exactly from a checkpoint that records only counters.

Mixing function: splitmix64, applied to the master seed and then folded over
each index via XOR-then-mix. The resulting 64-bit value seeds numpy's PCG64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose tags keep streams for different roles disjoint even when the
# remaining indices collide.
TAG_NOISE = 0x01        # ES perturbation batches
TAG_ENV = 0x02          # ES rollout env seeds
TAG_ACTION = 0x03       # ES rollout action noise
TAG_EVAL = 0x04         # deterministic-eval env seeds
TAG_PPO_ENV = 0x05      # PPO collection env seeds
TAG_PPO_ACTION = 0x06   # PPO collection action noise
TAG_PPO_SHUFFLE = 0x07  # PPO minibatch permutations
TAG_INIT = 0x08         # network initialization
TAG_CENTER_EVAL = 0x09  # per-generation ES center-eval master seeds
TAG_FINAL_EVAL = 0xEA   # per-cell final-eval master seeds


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, *indices: int) -> int:
    """64-bit seed for the stream identified by (master_seed, *indices)."""
    s = splitmix64(master_seed & _MASK64)
    for ix in indices:
        s = splitmix64(s ^ (int(ix) & _MASK64))
    return s


def make_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Fresh numpy Generator for the stream identified by the indices."""
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, *indices)))
