import math
from itertools import islice
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lclab import arith
from lclab.concavity import sibuya_strict_check
from lclab.stirling import delta, stirling_first, stirling_row
from lclab.triangles import harmonic_column_identity
from lclab.triangles import iter_columns


def test_small_rows():
    assert stirling_row(0) == [1]
    assert stirling_row(4) == [0, 6, 11, 6, 1]
    assert stirling_first(4, 2) == 11
    assert stirling_first(6, 3) == 225
    assert stirling_first(6, 2) == 274
    assert stirling_first(5, 2) == 50


def test_rows_are_copies_of_the_cache():
    row = stirling_row(5)
    row[2] += 1
    assert stirling_first(5, 2) == 50
    assert stirling_row(5) == [0, 24, 50, 35, 10, 1]


def test_outside_support():
    assert stirling_first(5, 7) == 0
    assert stirling_first(5, 0) == 0
    assert stirling_first(0, 0) == 1
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError, match="row index must be >= 0"):
        stirling_row(-1)


def test_diagonal_and_first_column():
    for n in range(1, 20):
        assert stirling_first(n, n) == 1
        assert stirling_first(n, 1) == math.factorial(n - 1)


def test_row_sums_are_factorials():
    # sum over m of S(n, m) counts all permutations
    for n in range(1, 15):
        assert sum(stirling_row(n)) == math.factorial(n)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_recurrence(n, m):
    if m > n:
        assert stirling_first(n, m) == 0
    else:
        assert stirling_first(n, m) == (n - 1) * stirling_first(n - 1, m) + stirling_first(
            n - 1, m - 1
        )


def test_one_id_columns_are_stirling_numbers():
    # the (one, id) triangle stores S(n, m) = n! A(n, m)
    for m, col in enumerate(islice(iter_columns(arith.one(), "id", 30), 4), 1):
        assert col == [stirling_first(n, m) for n in range(31)]


def test_sibuya_strict_inequality():
    # m S(n,m)^2 > (m+1) S(n,m+1) S(n,m-1) strictly, all interior m
    assert all(sibuya_strict_check(n) for n in range(3, 120))


@pytest.mark.parametrize("row, verdict", [
    ([0, 5, 6, 6], False),  # 6^2 > 5 * 6, but the tilt fails: 2 * 6^2 < 3 * 5 * 6
    ([0, 2, 3, 3], False),  # the tilted sides are equal: 2 * 3^2 = 3 * 2 * 3
    ([0, 2, 3, 1], True),  # 2 * 3^2 > 3 * 2 * 1
])
def test_sibuya_check_is_strict_and_tilted(monkeypatch, row, verdict):
    monkeypatch.setattr("lclab.concavity.stirling_row", lambda n: row)
    assert sibuya_strict_check(3) is verdict


def test_harmonic_column_identities():
    assert all(harmonic_column_identity(n) for n in range(2, 30))


def test_delta_values_and_signs():
    assert delta(2) == 3
    assert delta(3) == Fraction(3, 2)
    assert delta(5) == Fraction(-35, 72)
    assert all(delta(n) > 0 for n in range(2, 5))
    assert all(delta(n) < 0 for n in range(5, 80))
    with pytest.raises(ValueError):
        delta(1)
    with pytest.raises(ValueError, match="identities need n >= 2"):
        harmonic_column_identity(1)


def test_delta_crossing_matches_harmonic_threshold():
    # delta changes sign where H(n-1) passes 2
    assert arith.harmonic(3) < 2 < arith.harmonic(5)
    assert delta(4) > 0 > delta(5)
