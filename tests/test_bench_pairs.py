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
