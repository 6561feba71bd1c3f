import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refine_es.engine import EsConfig
from refine_es.errors import ContractError
from refine_es.estimator import (SQRT6, antithetic_candidates, make_batch,
                                 sample_noise)
from refine_es.rng import TAG_NOISE, make_stream


def test_triangular_zero_when_u_equals_v():
    class EqualUV:
        def __init__(self):
            self._vals = [np.full(3, 0.25), np.full(3, 0.25)]

        def random(self, dim):
            return self._vals.pop(0)

    assert np.array_equal(sample_noise("triangular", 3, EqualUV(), False),
                          np.zeros(3))


def test_triangular_supremum():
    class Extremes:
        def __init__(self):
            self._vals = [np.ones(1), np.zeros(1)]

        def random(self, dim):
            return self._vals.pop(0)

    assert sample_noise("triangular", 1, Extremes(), False)[0] == 1.0


def test_triangular_moments_and_support():
    x = sample_noise("triangular", 1_000_000, make_stream(1, 0), False)
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 1 / 6) < 0.02 * (1 / 6)
    assert np.all(np.abs(x) <= 1.0)


def test_triangular_density_shape():
    # histogram matches 1 - |x| within binomial 3 sigma per bin
    n = 1_000_000
    x = sample_noise("triangular", n, make_stream(2, 0), False)
    bins = np.linspace(-1, 1, 41)
    counts, _ = np.histogram(x, bins)
    centers = (bins[:-1] + bins[1:]) / 2
    width = bins[1] - bins[0]
    p = (1.0 - np.abs(centers)) * width
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3.5 * sigma)


def test_gaussian_moments():
    x = sample_noise("gaussian", 1_000_000, make_stream(3, 0), False)
    assert abs(x.var() - 1.0) < 0.02
    assert abs(x.mean()) < 3 / np.sqrt(1_000_000)


def test_gaussian_stream_reproducible():
    a = sample_noise("gaussian", 16, make_stream(4, 0), False)
    b = sample_noise("gaussian", 16, make_stream(4, 0), False)
    assert np.array_equal(a, b)


def test_distribution_validation():
    with pytest.raises(ContractError):
        EsConfig(sigma_es=0.1, alpha=0.1, m=1, generations=1,
                 distribution="uniform")


def test_standardize_gives_unit_variance():
    x = sample_noise("triangular", 500_000, make_stream(5, 0), True)
    assert abs(x.var() - 1.0) < 0.02
    assert np.all(np.abs(x) <= SQRT6)


def test_make_batch_regenerable():
    a = make_batch("triangular", False, 4, 32, generation_index=7,
                   master_seed=99)
    b = make_batch("triangular", False, 4, 32, generation_index=7,
                   master_seed=99)
    assert np.array_equal(a, b)
    c = make_batch("triangular", False, 4, 32, generation_index=8,
                   master_seed=99)
    assert not np.array_equal(a, c)


def test_batch_seed_table_matches_streams():
    eps = make_batch("triangular", False, 3, 8, 2, 123)
    for i in range(3):
        assert np.array_equal(
            eps[i],
            sample_noise("triangular", 8, make_stream(123, TAG_NOISE, 2, i),
                         False))


def test_batch_single_scalar_in_bounds():
    eps = make_batch("triangular", False, 1, 1, 0, 0)
    assert -1.0 <= eps[0, 0] <= 1.0


def test_hard_radius_exhaustive():
    eps = make_batch("triangular", False, 64, 10_000, 0, 5)
    center = np.zeros(10_000)
    plus, minus = antithetic_candidates(center, eps, 0.05)
    assert np.max(np.abs(plus)) <= 0.05
    assert np.max(np.abs(minus)) <= 0.05


def test_gaussian_exceeds_radius():
    eps = make_batch("gaussian", False, 10, 100_000, 0, 5)
    plus, _ = antithetic_candidates(np.zeros(100_000), eps, 0.05)
    assert np.max(np.abs(plus)) > 0.05


def test_antithetic_reflection_exact():
    rng = make_stream(6, 0)
    center = rng.standard_normal(64)
    eps = make_batch("triangular", False, 8, 64, 3, 17)
    plus, minus = antithetic_candidates(center, eps, 0.1)
    # both members apply the exact same offset, with exact negation
    offset = 0.1 * eps
    assert np.array_equal(plus, center + offset)
    assert np.array_equal(minus, center - offset)
    # the midpoint property holds to rounding error
    assert np.allclose(plus + minus, 2.0 * center, rtol=1e-15, atol=1e-15)


def test_antithetic_zero_noise():
    eps = make_batch("triangular", False, 1, 4, 0, 0)
    eps[:] = 0.0
    center = np.array([1.0, -2.0, 3.0, 4.0])
    plus, minus = antithetic_candidates(center, eps, 0.1)
    assert np.array_equal(plus[0], center)
    assert np.array_equal(minus[0], center)


def test_antithetic_arithmetic_example():
    eps = make_batch("triangular", False, 1, 2, 0, 0)
    eps[0] = [1.0, -1.0]
    plus, minus = antithetic_candidates(np.zeros(2), eps, 0.1)
    assert np.array_equal(plus[0], [0.1, -0.1])
    assert np.array_equal(minus[0], [-0.1, 0.1])


def test_antithetic_dimension_mismatch():
    eps = make_batch("triangular", False, 1, 4, 0, 0)
    with pytest.raises(ContractError):
        antithetic_candidates(np.zeros(5), eps, 0.1)


@given(st.integers(0, 2**32), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_batch_pure_function_of_counters(master_seed, generation):
    a = make_batch("triangular", False, 2, 6, generation, master_seed)
    b = make_batch("triangular", False, 2, 6, generation, master_seed)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)
