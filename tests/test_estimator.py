import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from es_oracles import classic_es_gradient, estimator_variance
from refine_es.errors import ContractError
from refine_es.estimator import (antithetic_candidates, centered_rank_scores,
                                 centered_ranks, fd_gradient, make_batch,
                                 sample_noise)
from refine_es.rng import make_stream


def test_ranks_four_values():
    scores = centered_rank_scores([1.0, 2.0, 3.0, 4.0])
    base = np.array([-0.5, -1 / 6, 1 / 6, 0.5])
    # standardized version of the rank map, same direction
    expected = base / np.sqrt(np.mean(base ** 2))
    assert np.allclose(scores, expected, atol=1e-12)
    assert abs(scores.mean()) < 1e-12
    assert abs(np.mean(scores ** 2) - 1.0) < 1e-12


def test_ranks_monotone_invariance_exact():
    assert np.array_equal(centered_rank_scores([1.0, 2.0, 3.0, 4.0]),
                          centered_rank_scores([10.0, 20.0, 30.0, 40.0]))


def test_ranks_ties_golden():
    # hand-computed with the average-rank convention
    scores = centered_rank_scores([5.0, 5.0, 7.0])
    expected = [-0.7071067811865476, -0.7071067811865476, 1.4142135623730951]
    assert np.allclose(scores, expected, atol=1e-12)


def test_ranks_all_equal_returns_zero():
    assert np.array_equal(centered_rank_scores([3.0, 3.0, 3.0, 3.0]),
                          np.zeros(4))


def test_ranks_table_split():
    r_plus, r_minus = centered_ranks([1.0, 4.0], [2.0, 3.0])
    scores = centered_rank_scores([1.0, 4.0, 2.0, 3.0])
    assert np.array_equal(r_plus, scores[:2])
    assert np.array_equal(r_minus, scores[2:])


def test_centered_ranks_contract():
    with pytest.raises(ContractError, match="aligned"):
        centered_ranks([1.0, 2.0], [3.0])
    with pytest.raises(ContractError, match="aligned"):
        centered_ranks([[1.0], [2.0]], [[3.0], [4.0]])
    with pytest.raises(ContractError, match="finite"):
        centered_ranks([1.0, np.nan], [3.0, 4.0])
    with pytest.raises(ContractError, match="finite"):
        centered_ranks([1.0, 2.0], [np.inf, 4.0])


def rank_scores_oracle(values) -> np.ndarray:
    """The documented score formula on brute-force average ranks:
    rank_i = #(x < x_i) + (#(x == x_i) - 1) / 2."""
    x = [float(v) for v in values]
    n = len(x)
    ranks = np.array([sum(v < xi for v in x) + (sum(v == xi for v in x) - 1) / 2
                      for xi in x])
    scores = ranks / (n - 1) - 0.5
    scores = scores - scores.mean()
    std = np.sqrt(np.mean(scores ** 2))
    if std < 1e-12:
        return np.zeros(n)
    return scores / std


# a few distinct values (plus both signed zeros) drawn repeatedly, so that
# most vectors hold ties
_TIED_VECTORS = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [0.0, -0.0]),
                              min_size=2, max_size=40))


@given(_TIED_VECTORS)
@example([0.0, -0.0])
@example([-0.0, 0.0, 0.0, 1.0])
@example([2.0, 1.0])
@settings(max_examples=300, deadline=None)
def test_ranks_match_brute_force_oracle_bytewise(values):
    assert centered_rank_scores(values).tobytes() == \
        rank_scores_oracle(values).tobytes()


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40,
                unique=True),
       st.floats(0.01, 100.0), st.floats(-1e3, 1e3))
@settings(max_examples=60, deadline=None)
def test_ranks_affine_invariance_property(values, a, b):
    # integer-valued inputs: spacing >= a*1 > ulp(a*x+b), so the affine map
    # cannot merge or reorder values in floating point
    x = np.array(values, dtype=float)
    assert np.array_equal(centered_rank_scores(x),
                          centered_rank_scores(a * x + b))
    scores = centered_rank_scores(x)
    assert abs(scores.mean()) < 1e-12
    assert abs(np.mean(scores ** 2) - 1.0) < 1e-12


def test_fd_gradient_zero_diffs():
    eps = make_batch("triangular", False, 4, 6, 0, 0)
    assert np.array_equal(fd_gradient(eps, np.zeros(4), np.zeros(4), 0.1),
                          np.zeros(6))


def test_fd_gradient_single_term():
    eps = make_batch("triangular", False, 1, 2, 0, 0)
    eps[0] = [1.0, 0.0]
    s = 0.7
    assert np.allclose(fd_gradient(eps, np.array([s]), np.array([0.0]), 0.1),
                       [10 * s, 0.0])


def test_fd_gradient_contract():
    with pytest.raises(ContractError):
        fd_gradient(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ContractError):
        fd_gradient(np.zeros((2, 3)), np.zeros(3), np.zeros(3), 0.1)
    with pytest.raises(ContractError, match="not finite"):
        fd_gradient(np.full((2, 3), np.inf), np.ones(2), np.zeros(2), 0.1)


def test_even_objective_cancels_exactly():
    # even objective about the center: candidates are exactly +/-offset, so
    # J(plus_i) == J(minus_i) bitwise, every pair ties, and g is exactly zero
    center = np.zeros(20)
    for gen in range(5):
        eps = make_batch("triangular", False, 8, 20, gen, 3)
        plus, minus = antithetic_candidates(center, eps, 0.05)
        j_plus = np.array([np.sum(p ** 2) for p in plus])
        j_minus = np.array([np.sum(p ** 2) for p in minus])
        g = fd_gradient(eps, *centered_ranks(j_plus, j_minus), 0.05)
        assert np.array_equal(g, np.zeros(20))


def test_c_equals_2_on_linear_objective():
    # raw returns + standardized noise: E[g] = 2b
    b = np.array([1.0, -2.0, 0.5])
    sigma, m, batches = 0.1, 8, 2000
    acc = np.zeros(3)
    for t in range(batches):
        eps = make_batch("triangular", True, m, 3, t, 7)
        plus, minus = antithetic_candidates(np.zeros(3), eps, sigma)
        acc += fd_gradient(eps, plus @ b, minus @ b, sigma)
    mean_g = acc / batches
    assert np.all(np.abs(mean_g - 2 * b) < 0.10 * np.abs(2 * b))


def test_classic_es_constant_objective_mean_shrinks():
    rng = make_stream(2, 0)
    sigma = 0.1
    means = []
    for n in (100, 10_000):
        deltas = rng.standard_normal((n, 4))
        g = classic_es_gradient(deltas, np.full(n, 5.0), sigma)
        means.append(np.linalg.norm(g))
    assert means[1] < means[0]
    assert means[1] < 5.0 / sigma * 3 / np.sqrt(10_000)


def test_classic_es_quadratic_bowl_alignment():
    theta = np.array([1.0, 0.0])
    sigma = 0.05
    rng = make_stream(3, 0)
    total = np.zeros(2)
    n_total = 10_000
    deltas = rng.standard_normal((n_total, 2))
    cands = theta + sigma * deltas
    returns = -np.sum(cands ** 2, axis=1)
    g = classic_es_gradient(deltas, returns, sigma)
    grad = np.array([-2.0, 0.0])
    cos = g @ grad / (np.linalg.norm(g) * np.linalg.norm(grad))
    assert cos > 0.9


def test_classic_es_matches_smoothed_gradient_quadrature():
    # 1-D cubic; oracle: Gauss-Hermite quadrature of E[J'(theta + sigma*delta)]
    def j(x):
        return 2.0 + 3.0 * x - x ** 2 + 0.5 * x ** 3

    def jprime(x):
        return 3.0 - 2.0 * x + 1.5 * x ** 2

    theta, sigma = 0.4, 0.1
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    oracle = float(weights @ jprime(theta + sigma * nodes) / np.sqrt(2 * np.pi))

    n = 4_000_000
    deltas = make_stream(4, 0).standard_normal((n, 1))
    returns = j(theta + sigma * deltas[:, 0])
    g = classic_es_gradient(deltas, returns, sigma)[0]
    assert abs(g - oracle) < 0.02 * abs(oracle)


def test_truncation_order_cubic():
    # bias of the raw-return antithetic estimator is O(sigma^2):
    # halving sigma cuts it ~4x (common random numbers tighten the ratio)
    def j(x):
        return x + x ** 3

    theta = 0.3
    exact = 2 * (1 + 3 * theta ** 2)
    n = 1_000_000
    eps = sample_noise("triangular", n, make_stream(5, 0), True)
    biases = []
    for sigma in (0.2, 0.1):
        g = (j(theta + sigma * eps) - j(theta - sigma * eps)) * eps / sigma
        biases.append(abs(g.mean() - exact))
    ratio = biases[0] / biases[1]
    assert 3.0 < ratio < 5.0


def test_fd_basis_vector_oracle():
    # test-only injection: eps_i = sqrt(d/2) * e_i with m = d makes the
    # estimator the central-difference gradient exactly
    def j(x):
        return np.sin(x[0]) + x[1] ** 2 - 0.3 * x[0] * x[2]

    d, sigma = 3, 1e-4
    center = np.array([0.3, -0.7, 1.1])
    scale = np.sqrt(d / 2.0)
    eps = scale * np.eye(d)
    j_plus = np.array([j(center + sigma * eps[i]) for i in range(d)])
    j_minus = np.array([j(center - sigma * eps[i]) for i in range(d)])
    g = fd_gradient(eps, j_plus, j_minus, sigma)
    h = sigma * scale
    central = np.array([
        (j(center + h * np.eye(d)[i]) - j(center - h * np.eye(d)[i])) / (2 * h)
        for i in range(d)])
    assert np.allclose(g, central, atol=1e-8)


def test_estimator_variance_shrinks_with_m():
    b = np.array([1.0, -1.0, 2.0, 0.5])

    def obj(theta):
        return float(b @ theta)

    v_small = estimator_variance(obj, np.zeros(4), 0.05, m=8, trials=200)
    v_large = estimator_variance(obj, np.zeros(4), 0.05, m=32, trials=200)
    assert v_large["triangular"] < v_small["triangular"] / 2


def test_estimator_variance_triangular_below_gaussian():
    target = np.array([0.2, -0.1, 0.4, 0.0, 0.3])

    def obj(theta):
        return -float(np.sum((theta - target) ** 2))

    v = estimator_variance(obj, np.zeros(5), 0.05, m=8, trials=300,
                           master_seed=11)
    assert v["triangular"] < v["gaussian"]


def test_estimator_variance_reproducible():
    def obj(theta):
        return -float(theta @ theta)

    a = estimator_variance(obj, np.ones(3), 0.05, m=4, trials=50, master_seed=2)
    b = estimator_variance(obj, np.ones(3), 0.05, m=4, trials=50, master_seed=2)
    assert a == b
