import numpy as np
import pytest

from refine_es.errors import ContractError
from refine_es.stats import (_resample_indices, aggregate_report, iqm,
                             performance_profile, pooled_iqm, pooled_mean,
                             prob_improvement, render_report,
                             stratified_bootstrap_ci)
from refine_es.rng import make_stream


def iqm_oracle(samples):
    """Independent brute-force: sort, drop floor(n/4) per side, plain mean."""
    x = sorted(float(v) for v in samples)
    k = len(x) // 4
    kept = x[k:len(x) - k]
    return sum(kept) / len(kept)


def poi_oracle(a, b):
    wins = 0.0
    for x in a:
        for y in b:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    return wins / (len(a) * len(b))


def test_iqm_examples():
    assert iqm(range(1, 9)) == 4.5  # drops 1, 2 and 7, 8
    assert iqm([0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ContractError):
        iqm([])


def test_iqm_small_n_equals_mean():
    for vals in ([3.0], [1.0, 2.0], [5.0, 1.0, 3.0], [4.0, 2.0, 8.0, 6.0]):
        assert iqm(vals) == pytest.approx(np.mean(vals), abs=1e-15)


def test_iqm_matches_oracle_100_instances():
    # integer-valued samples keep both summation orders exact, so the
    # comparison against the brute-force oracle can demand bitwise equality
    rng = make_stream(10, 0)
    for i in range(100):
        n = int(rng.integers(1, 40))
        x = rng.integers(-1000, 1000, n).astype(float)
        assert iqm(x) == iqm_oracle(x)


def test_prob_improvement_examples():
    assert prob_improvement([1.0, 2.0], [0.0, 3.0]) == 0.5
    assert prob_improvement([1.0], [1.0]) == 0.5  # pure tie
    assert prob_improvement([2.0], [1.0]) == 1.0
    with pytest.raises(ContractError):
        prob_improvement([], [1.0])


def test_prob_improvement_complementarity():
    rng = make_stream(11, 0)
    for _ in range(20):
        a = rng.integers(0, 5, 7).astype(float)  # integer values force ties
        b = rng.integers(0, 5, 9).astype(float)
        assert prob_improvement(a, b) + prob_improvement(b, a) == \
            pytest.approx(1.0, abs=1e-12)


def test_prob_improvement_matches_oracle_100_instances():
    rng = make_stream(12, 0)
    for _ in range(100):
        a = rng.integers(0, 10, int(rng.integers(1, 12))).astype(float)
        b = rng.integers(0, 10, int(rng.integers(1, 12))).astype(float)
        assert prob_improvement(a, b) == poi_oracle(a, b)


def test_performance_profile_properties():
    scores = np.array([0.1, 0.4, 0.4, 0.9])
    taus = np.linspace(0, 1, 11)
    prof = performance_profile(scores, taus)
    assert np.all(np.diff(prof) <= 0)  # non-increasing in tau
    assert prof[0] == 1.0  # every score beats tau = 0
    assert prof[-1] == 0.0  # nothing beats tau = 1
    assert performance_profile(scores, [0.3])[0] == 0.75


def test_performance_profile_dominance():
    taus = np.linspace(0, 1, 21)
    better = performance_profile([0.8, 0.9, 1.0], taus)
    worse = performance_profile([0.1, 0.2, 0.3], taus)
    assert np.all(better >= worse)


def test_bootstrap_constant_data_zero_width():
    matrix = {"a": [0.5] * 9, "b": [0.5] * 9}
    lo, hi = stratified_bootstrap_ci(matrix, pooled_iqm, resamples=200)
    assert lo == hi == 0.5


def test_bootstrap_reproducible_and_contains_point():
    rng = make_stream(13, 0)
    matrix = {"a": rng.uniform(0, 1, 9), "b": rng.uniform(0, 1, 9)}
    ci1 = stratified_bootstrap_ci(matrix, pooled_iqm, resamples=500, seed=4)
    ci2 = stratified_bootstrap_ci(matrix, pooled_iqm, resamples=500, seed=4)
    assert ci1 == ci2
    lo, hi = ci1
    assert lo <= pooled_iqm(matrix) <= hi


def test_bootstrap_rejects_unbatched_statistic():
    # a statistic that collapses the resample axis would give a zero-width CI
    with pytest.raises(ContractError, match="one value per resample"):
        stratified_bootstrap_ci({"t": [0.1, 0.5, 0.9]},
                                lambda m: float(np.mean(m["t"])), 100)


def test_bootstrap_matches_second_implementation():
    # independent percentile-bootstrap of the plain mean on one stratum
    rng = make_stream(14, 0)
    data = rng.uniform(0, 1, 30)
    matrix = {"t": data}

    def mean_stat(m):
        return np.mean(m["t"], axis=-1)  # one mean per resample row

    lo, hi = stratified_bootstrap_ci(matrix, mean_stat, resamples=4000, seed=1)
    oracle_rng = np.random.Generator(np.random.PCG64(99))
    stats = np.array([
        data[oracle_rng.integers(0, 30, 30)].mean() for _ in range(4000)])
    olo, ohi = np.quantile(stats, [0.025, 0.975])
    assert abs(lo - olo) < 0.01 and abs(hi - ohi) < 0.01


def bootstrap_loop_reference(matrix, statistic, resamples, seed):
    """The per-resample loop: one index draw per resample and task (sorted
    task order), one scalar statistic call per resample."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tasks = sorted(matrix)
    stats = np.empty(resamples)
    for b in range(resamples):
        resampled = {}
        for t in tasks:
            a = np.asarray(matrix[t], dtype=float)
            n = a.shape[-1]
            resampled[t] = a[..., rng.integers(0, n, n)]
        stats[b] = statistic(resampled)
    tail = (1.0 - 0.95) / 2.0  # the helper's tail, not the literal 0.025
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return float(lo), float(hi)


def test_resample_indices_match_one_call_per_resample_and_task():
    # the oracle is the loop that one broadcast call replaced
    for counts in ((3,), (5, 9), (2, 7, 4), (9, 9, 9), (1, 3)):
        for seed in (0, 7):
            rng = np.random.Generator(np.random.PCG64(seed))
            loop = [np.empty((2000, n), dtype=np.int64) for n in counts]
            for b in range(2000):
                for rows, n in zip(loop, counts):
                    rows[b] = rng.integers(0, n, n)
            draws = _resample_indices(list(counts), 2000, seed)
            assert len(draws) == len(counts)
            for rows, got in zip(loop, draws):
                assert got.dtype == rows.dtype and np.array_equal(got, rows)


def paired_poi(res):
    return prob_improvement(*np.concatenate(list(res.values()), axis=-1))


def paired_poi_batched(res):
    return prob_improvement(*np.concatenate(list(res.values()),
                                            axis=-1).swapaxes(0, 1))


def test_bootstrap_batched_matches_per_resample_loop():
    # the batched statistics must reproduce the loop bit for bit, including
    # pooled sums long enough (>= 8 kept values) for pairwise summation
    rng = make_stream(16, 0)
    for case in range(40):
        n_tasks = int(rng.integers(1, 4))
        matrix, paired = {}, {}
        for t in range(n_tasks):
            n = int(rng.integers(1, 31))
            scores = (rng.integers(0, 21, (2, n)) / 20.0 if case % 2
                      else rng.uniform(0, 1, (2, n)))
            matrix[f"t{t}"] = scores[0]
            paired[f"t{t}"] = scores
        seed = int(rng.integers(0, 1000))
        for stat in (pooled_iqm, pooled_mean):
            assert stratified_bootstrap_ci(matrix, stat, 300, seed=seed) == \
                bootstrap_loop_reference(matrix, stat, 300, seed)
        assert stratified_bootstrap_ci(paired, paired_poi_batched, 300,
                                       seed=seed) == \
            bootstrap_loop_reference(paired, paired_poi, 300, seed)


def test_aggregate_report_structure():
    rng = make_stream(15, 0)
    matrices = {
        "ppo_only": {"t1": rng.uniform(0, 0.5, 9), "t2": rng.uniform(0, 0.5, 9)},
        "ppo_then_tdes": {"t1": rng.uniform(0.5, 1, 9),
                          "t2": rng.uniform(0.5, 1, 9)},
    }
    report = aggregate_report(matrices, resamples=200)
    assert report["baseline"] == "ppo_only"
    tdes = report["methods"]["ppo_then_tdes"]
    assert tdes["iqm"] > report["methods"]["ppo_only"]["iqm"]
    assert tdes["p_improvement"] == 1.0  # disjoint supports
    assert "p_improvement" not in report["methods"]["ppo_only"]
    lo, hi = tdes["iqm_ci"]
    assert lo <= tdes["iqm"] <= hi
    assert set(report["per_task"]) == {"t1", "t2"}


# fixed 2-task x 9-seed success rates for the paired-bootstrap tests
PAIRED_MATRICES = {
    "ppo_only": {
        "arm-reach": [0.42, 0.5, 0.38, 0.6, 0.44, 0.52, 0.3, 0.48, 0.56],
        "peg-insert-1d": [0.1, 0.22, 0.08, 0.16, 0.3, 0.12, 0.2, 0.04, 0.18],
    },
    "ppo_then_tdes": {
        "arm-reach": [0.46, 0.58, 0.36, 0.66, 0.5, 0.52, 0.4, 0.54, 0.62],
        "peg-insert-1d": [0.24, 0.3, 0.1, 0.28, 0.36, 0.2, 0.26, 0.06, 0.34],
    },
}


def test_paired_bootstrap_identical_methods_gives_half():
    # every resample draws the same seed columns for method and baseline,
    # so each resampled P(improvement) is exactly 1/2
    base = PAIRED_MATRICES["ppo_only"]
    matrices = {"a": base, "b": {t: list(v) for t, v in base.items()}}
    report = aggregate_report(matrices, baseline="a", resamples=200)
    assert report["methods"]["b"]["p_improvement_ci"] == (0.5, 0.5)


def test_paired_bootstrap_golden():
    # recorded with the earlier inline paired-bootstrap loop
    report = aggregate_report(PAIRED_MATRICES, resamples=200)
    base, tdes = (report["methods"][m] for m in ("ppo_only", "ppo_then_tdes"))
    assert base["iqm_ci"] == (0.2678, 0.34815)
    assert base["mean_ci"] == (0.27549999999999997, 0.34450000000000003)
    assert tdes["iqm_ci"] == (0.3439, 0.41425000000000006)
    assert tdes["mean_ci"] == (0.34108333333333335, 0.4178055555555556)
    assert tdes["p_improvement"] == 0.6049382716049383
    assert tdes["p_improvement_ci"] == (0.5693672839506173, 0.6697530864197531)


def test_aggregate_report_pairs_seeds_by_id():
    base = dict(enumerate(PAIRED_MATRICES["ppo_only"]["arm-reach"]))
    tdes = dict(enumerate(PAIRED_MATRICES["ppo_then_tdes"]["arm-reach"]))
    del base[3], tdes[7]
    # the insertion order of the seed ids must not matter
    shuffled = dict(reversed(list(tdes.items())))
    report = aggregate_report({"ppo_only": {"t": base},
                               "ppo_then_tdes": {"t": shuffled}},
                              resamples=200)
    got = report["methods"]["ppo_then_tdes"]
    common = [s for s in range(9) if s not in (3, 7)]
    paired_only = aggregate_report(
        {"ppo_only": {"t": [base[s] for s in common]},
         "ppo_then_tdes": {"t": [tdes[s] for s in common]}}, resamples=200)
    for key in ("p_improvement", "p_improvement_ci"):
        assert got[key] == paired_only["methods"]["ppo_then_tdes"][key]
    # the unpaired statistics keep every seed the method has
    alone = aggregate_report({"ppo_then_tdes": {"t": [tdes[s] for s in
                                                      sorted(tdes)]}},
                             resamples=200)["methods"]["ppo_then_tdes"]
    for key in ("iqm", "iqm_ci", "mean", "mean_ci"):
        assert got[key] == alone[key]
    assert got["p_improvement"] == prob_improvement(
        [tdes[s] for s in common], [base[s] for s in common])
    # no seed in common: neither the estimate nor its paired CI
    disjoint = aggregate_report({"ppo_only": {"t": {0: 0.1, 1: 0.2}},
                                 "ppo_then_tdes": {"t": {2: 0.3, 3: 0.4}}},
                                resamples=50)["methods"]["ppo_then_tdes"]
    assert "p_improvement" not in disjoint
    assert "p_improvement_ci" not in disjoint


def test_render_report_text():
    matrices = {"ppo_only": {"t": [0.2, 0.4, 0.3]},
                "ppo_then_tdes": {"t": [0.8, 0.9, 0.7]}}
    text = render_report(aggregate_report(matrices, resamples=100))
    assert "ppo_then_tdes" in text
    assert "IQM" in text and "P(Improvement" in text
    assert "stratified percentile bootstrap" in text


def test_prob_improvement_and_its_ci_use_the_same_seeds():
    # the baseline lacks seed 2: the estimate, like its paired CI, compares
    # seeds 0 and 1 only (over all seeds it read 1/3, below its CI)
    report = aggregate_report({"ppo_only": {"t": {0: .2, 1: .2}},
                               "tdes": {"t": {0: .2, 1: .2, 2: 0.0}}},
                              resamples=200)
    tdes = report["methods"]["tdes"]
    assert tdes["p_improvement"] == 0.5
    assert tdes["p_improvement_ci"] == (0.5, 0.5)
    # a task that only the method has adds nothing to the comparison
    two_tasks = aggregate_report({"ppo_only": {"t": {0: .2, 1: .2}},
                                  "tdes": {"t": {0: .2, 1: .2},
                                           "u": {0: 1.0}}},
                                 resamples=200)["methods"]["tdes"]
    assert two_tasks["p_improvement"] == 0.5
    # no seed in common: neither the estimate nor its CI
    disjoint = aggregate_report({"ppo_only": {"t": {0: 0.1, 1: 0.2}},
                                 "tdes": {"t": {2: 0.3, 3: 0.4}}},
                                resamples=50)
    assert "p_improvement" not in disjoint["methods"]["tdes"]
    assert "p_improvement_ci" not in disjoint["methods"]["tdes"]
    row = [line for line in render_report(disjoint).splitlines()
           if line.startswith("tdes ")]
    assert row[0].split()[-1] == "--"
