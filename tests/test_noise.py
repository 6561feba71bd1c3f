import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refine_es.errors import ContractError
from refine_es.noise import (SQRT6, NoiseDistribution, antithetic_candidates,
                             make_batch, sample_triangular)
from refine_es.rng import TAG_NOISE, make_stream


def test_triangular_zero_when_u_equals_v():
    class EqualUV:
        def __init__(self):
            self._vals = [np.full(3, 0.25), np.full(3, 0.25)]

        def random(self, dim):
            return self._vals.pop(0)

    assert np.array_equal(sample_triangular(3, EqualUV()), np.zeros(3))


def test_triangular_supremum():
    class Extremes:
        def __init__(self):
            self._vals = [np.ones(1), np.zeros(1)]

        def random(self, dim):
            return self._vals.pop(0)

    assert sample_triangular(1, Extremes())[0] == 1.0


def test_triangular_moments_and_support():
    x = sample_triangular(1_000_000, make_stream(1, 0))
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 1 / 6) < 0.02 * (1 / 6)
    assert np.all(np.abs(x) <= 1.0)


def test_triangular_density_shape():
    # histogram matches 1 - |x| within binomial 3 sigma per bin
    n = 1_000_000
    x = sample_triangular(n, make_stream(2, 0))
    bins = np.linspace(-1, 1, 41)
    counts, _ = np.histogram(x, bins)
    centers = (bins[:-1] + bins[1:]) / 2
    width = bins[1] - bins[0]
    p = (1.0 - np.abs(centers)) * width
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3.5 * sigma)


def test_gaussian_moments():
    x = NoiseDistribution("gaussian").sample(1_000_000, make_stream(3, 0))
    assert abs(x.var() - 1.0) < 0.02
    assert abs(x.mean()) < 3 / np.sqrt(1_000_000)


def test_gaussian_stream_reproducible():
    a = NoiseDistribution("gaussian").sample(16, make_stream(4, 0))
    b = NoiseDistribution("gaussian").sample(16, make_stream(4, 0))
    assert np.array_equal(a, b)


def test_distribution_validation():
    with pytest.raises(ContractError):
        NoiseDistribution("uniform")


def test_standardize_gives_unit_variance():
    dist = NoiseDistribution("triangular", standardize=True)
    x = dist.sample(500_000, make_stream(5, 0))
    assert abs(x.var() - 1.0) < 0.02
    assert np.all(np.abs(x) <= SQRT6)


def test_make_batch_regenerable():
    dist = NoiseDistribution("triangular")
    a = make_batch(dist, 0.1, 4, 32, generation_index=7, master_seed=99)
    b = make_batch(dist, 0.1, 4, 32, generation_index=7, master_seed=99)
    assert np.array_equal(a.epsilons, b.epsilons)
    c = make_batch(dist, 0.1, 4, 32, generation_index=8, master_seed=99)
    assert not np.array_equal(a.epsilons, c.epsilons)


def test_batch_seed_table_matches_streams():
    batch = make_batch(NoiseDistribution("triangular"), 0.1, 3, 8, 2, 123)
    for i in range(3):
        assert np.array_equal(
            batch.epsilons[i],
            NoiseDistribution("triangular").sample(
                8, make_stream(123, TAG_NOISE, 2, i)))


def test_batch_single_scalar_in_bounds():
    batch = make_batch(NoiseDistribution("triangular"), 1.0, 1, 1, 0, 0)
    assert -1.0 <= batch.epsilons[0, 0] <= 1.0


def test_hard_radius_exhaustive():
    batch = make_batch(NoiseDistribution("triangular"), 0.05, 64, 10_000, 0, 5)
    center = np.zeros(10_000)
    plus, minus = antithetic_candidates(center, batch)
    assert np.max(np.abs(plus)) <= 0.05
    assert np.max(np.abs(minus)) <= 0.05


def test_gaussian_exceeds_radius():
    batch = make_batch(NoiseDistribution("gaussian"), 0.05, 10, 100_000, 0, 5)
    plus, _ = antithetic_candidates(np.zeros(100_000), batch)
    assert np.max(np.abs(plus)) > 0.05


def test_antithetic_reflection_exact():
    rng = make_stream(6, 0)
    center = rng.standard_normal(64)
    batch = make_batch(NoiseDistribution("triangular"), 0.1, 8, 64, 3, 17)
    plus, minus = antithetic_candidates(center, batch)
    # both members apply the exact same offset, with exact negation
    offset = batch.sigma_es * batch.epsilons
    assert np.array_equal(plus, center + offset)
    assert np.array_equal(minus, center - offset)
    # the midpoint property holds to rounding error
    assert np.allclose(plus + minus, 2.0 * center, rtol=1e-15, atol=1e-15)


def test_antithetic_zero_noise():
    batch = make_batch(NoiseDistribution("triangular"), 0.1, 1, 4, 0, 0)
    batch.epsilons[:] = 0.0
    center = np.array([1.0, -2.0, 3.0, 4.0])
    plus, minus = antithetic_candidates(center, batch)
    assert np.array_equal(plus[0], center)
    assert np.array_equal(minus[0], center)


def test_antithetic_arithmetic_example():
    batch = make_batch(NoiseDistribution("triangular"), 0.1, 1, 2, 0, 0)
    batch.epsilons[0] = [1.0, -1.0]
    plus, minus = antithetic_candidates(np.zeros(2), batch)
    assert np.array_equal(plus[0], [0.1, -0.1])
    assert np.array_equal(minus[0], [-0.1, 0.1])


def test_antithetic_dimension_mismatch():
    batch = make_batch(NoiseDistribution("triangular"), 0.1, 1, 4, 0, 0)
    with pytest.raises(ContractError):
        antithetic_candidates(np.zeros(5), batch)


@given(st.integers(0, 2**32), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_batch_pure_function_of_counters(master_seed, generation):
    dist = NoiseDistribution("triangular")
    a = make_batch(dist, 0.2, 2, 6, generation, master_seed)
    b = make_batch(dist, 0.2, 2, 6, generation, master_seed)
    assert np.array_equal(a.epsilons, b.epsilons)
    assert np.all(np.abs(a.epsilons) <= 1.0)
