"""The verdict of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_interpolate_like_numpy():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_claim_holds_with_nine_wins_and_a_wide_gap():
    change = [0.80] * 9 + [1.10]  # loses the last pair
    holds, why = bench_pairs.claim_holds(PARENT, change, "lower")
    assert holds
    assert why.startswith("won 9 of 10 pairs (need 9)")


def test_claim_fails_with_eight_wins():
    change = [0.80] * 8 + [1.10, 1.10]
    assert not bench_pairs.claim_holds(PARENT, change, "lower")[0]


def test_ties_count_for_neither_side():
    change = [0.80] * 9 + [PARENT[-1]]
    assert bench_pairs.wins(PARENT, change, "lower") == 9
    change = [0.80] * 8 + PARENT[-2:]
    assert not bench_pairs.claim_holds(PARENT, change, "lower")[0]


def test_claim_fails_when_the_gap_is_inside_the_parent_spread():
    # every pair won, by less than the distance between the quartiles
    change = [p - 0.01 for p in PARENT]
    q1, _, q3 = bench_pairs.quartiles(PARENT)
    assert q3 - q1 > 0.01
    holds, _ = bench_pairs.claim_holds(PARENT, change, "lower")
    assert bench_pairs.wins(PARENT, change, "lower") == 10 and not holds


@pytest.mark.parametrize("better,change,expected", [
    ("higher", [1.5] * 10, True),
    ("higher", [0.5] * 10, False),
    ("lower", [1.5] * 10, False),
])
def test_direction_follows_the_metric(better, change, expected):
    assert bench_pairs.claim_holds(PARENT, change, better)[0] is expected


# a parent whose quartile spread is 15 % of its median: wider than a 10 %
# bound, narrower than a 25 % one
NOISY = [0.8, 0.8, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.2, 1.2]


@pytest.mark.parametrize("better,sign", [("lower", 1), ("higher", -1)])
def test_verdict_past_bound(better, sign):
    # the median 30 % worse, past a 25 % bound, even with a spread that
    # would leave a smaller move unresolved
    change = [1.0 + sign * 0.3] * 10
    assert bench_pairs.verdict(NOISY, change, better, 0.25) == "past bound"
    assert bench_pairs.verdict(NOISY, change, better, 0.1) == "past bound"


@pytest.mark.parametrize("better,sign", [("lower", 1), ("higher", -1)])
def test_verdict_unresolved_when_the_parent_spread_is_wider(better, sign):
    # 5 % worse, inside the 10 % bound, but the parent's spread is 15 %
    change = [1.0 + sign * 0.05] * 10
    assert bench_pairs.verdict(NOISY, change, better, 0.1) == "unresolved"
    assert bench_pairs.verdict(NOISY, change, better, 0.25) == \
        "within bound"


@pytest.mark.parametrize("better,sign", [("lower", 1), ("higher", -1)])
def test_verdict_within_bound_when_every_change_run_is_better(better, sign):
    # the parent's spread is wider than the bound, but no parent run comes
    # near any change run
    change = [1.0 - sign * 0.5] * 10
    assert bench_pairs.verdict(NOISY, change, better, 0.1) == "within bound"
    # one change run that ties the parent's best leaves it unresolved
    best = min(NOISY) if better == "lower" else max(NOISY)
    assert bench_pairs.verdict(NOISY, change[:-1] + [best], better, 0.1) == \
        "unresolved"


@pytest.mark.parametrize("better,sign", [("lower", 1), ("higher", -1)])
def test_verdict_within_bound(better, sign):
    change = [p + sign * 0.01 for p in PARENT]  # 1 % worse, quiet parent
    assert bench_pairs.verdict(PARENT, change, better, 0.1) == "within bound"
