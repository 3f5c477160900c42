import functools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lclab import arith, partitions
from lclab.partitions import (
    check_no_identity,
    conjugate,
    count_partitions,
    hook_lengths,
    iter_partitions,
    nekrasov_okounkov_poly,
    taylor_shift,
)
from lclab.series import euler_product
from lclab.triangles import Poly, build_triangle


@st.composite
def partition_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


def test_stream_order_for_five():
    assert list(iter_partitions(5)) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_stream_edge_cases():
    assert list(iter_partitions(0)) == [()]
    assert list(iter_partitions(1)) == [(1,)]
    with pytest.raises(ValueError):
        list(iter_partitions(-1))
    with pytest.raises(ValueError, match="partitions are defined for n >= 0"):
        count_partitions(-1)
    with pytest.raises(ValueError, match="weight must be >= 0"):
        nekrasov_okounkov_poly(-1)


@functools.lru_cache(maxsize=None)
def _partitions_by_recursion(n: int, largest: int) -> tuple:
    """The partitions of n into parts <= largest in descending-lex order:
    first part from the largest down, each followed by the partitions of
    the rest into parts no larger."""
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions_by_recursion(n - first, first)
    )


def test_stream_matches_recursive_reference():
    for n in range(31):
        stream = list(iter_partitions(n))
        assert stream == list(_partitions_by_recursion(n, n))
        assert len(set(stream)) == len(stream)


def test_stream_count_matches_table_counter():
    for n in range(26):
        assert sum(1 for _ in iter_partitions(n)) == count_partitions(n)


def test_counter_matches_euler_product():
    order = 40
    gen = euler_product([-1] * (order + 1), order)
    for n in range(order + 1):
        assert count_partitions(n) == gen.coefficient(n)


def test_parts_always_descending_and_sum():
    for n in range(1, 16):
        for parts in iter_partitions(n):
            assert sum(parts) == n
            assert all(a >= b for a, b in zip(parts, parts[1:]))


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


@given(partition_strategy())
def test_conjugate_is_an_involution(parts):
    assert conjugate(conjugate(parts)) == parts


def test_hook_lengths_examples():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert sorted(hook_lengths((3, 2))) == [1, 1, 2, 3, 4]
    assert hook_lengths(()) == []
    # a single row has hooks n, n-1, ..., 1
    assert hook_lengths((6,)) == [6, 5, 4, 3, 2, 1]


@given(partition_strategy())
def test_hooks_invariant_under_conjugation(parts):
    assert Counter(hook_lengths(parts)) == Counter(hook_lengths(conjugate(parts)))


def test_hook_length_formula_sums_to_factorial():
    # sum over partitions of (n! / prod hooks)^2 = n!
    for n in range(1, 9):
        total = 0
        fac = math.factorial(n)
        for parts in iter_partitions(n):
            prod = math.prod(hook_lengths(parts))
            assert fac % prod == 0
            total += (fac // prod) ** 2
        assert total == fac


def test_hook_polynomials_small():
    assert nekrasov_okounkov_poly(0) == Poly([1])
    assert nekrasov_okounkov_poly(1) == Poly([1, 1])
    assert nekrasov_okounkov_poly(2) == Poly([2, Fraction(5, 2), Fraction(1, 2)])


def test_hook_polynomial_at_zero_counts_partitions():
    for n in range(13):
        assert nekrasov_okounkov_poly(n)(0) == count_partitions(n)


def hook_sum_reference(n):
    """Q_n summed in Fractions, one term per partition and power of x."""
    coeffs = [Fraction(0)] * (n + 1)
    for parts in iter_partitions(n):
        hooks = [h * h for h in hook_lengths(parts)]
        # prod (x + h^2) / h^2 = prod (1 + x / h^2), expanded term by term
        term = [Fraction(1)]
        for h2 in hooks:
            shifted = [Fraction(0)] + [c / h2 for c in term]
            term = [a + b for a, b in zip(term + [Fraction(0)], shifted)]
        for i, c in enumerate(term):
            coeffs[i] += c
    return Poly(coeffs)


@pytest.mark.parametrize("n", range(18))
def test_hook_polynomial_matches_fraction_sum(n):
    assert nekrasov_okounkov_poly(n) == hook_sum_reference(n)


def test_hook_polynomial_forms_hooks_once_per_conjugate_pair(monkeypatch):
    # (p(n) + sc(n)) / 2 shapes: a pair of conjugate shapes shares one hook
    # product, and a self-conjugate shape is a pair of its own
    calls = []
    hooks = partitions._hooks

    def counted(parts, conj):
        calls.append(parts)
        return hooks(parts, conj)

    monkeypatch.setattr(partitions, "_hooks", counted)
    for n in range(15):
        shapes = list(_partitions_by_recursion(n, n))
        self_conjugate = sum(  # column j of a shape holds its parts above j
            parts == tuple(sum(p > j for p in parts) for j in range(max(parts, default=0)))
            for parts in shapes
        )
        calls.clear()
        nekrasov_okounkov_poly(n)
        assert len(calls) == len(set(calls)) == (len(shapes) + self_conjugate) // 2, n


def test_hook_polynomial_leading_coefficient():
    for n in range(1, 11):
        assert nekrasov_okounkov_poly(n).coefficient(n) == Fraction(
            1, math.factorial(n)
        )


def test_taylor_shift_examples():
    sq = Poly([0, 0, 1])
    assert taylor_shift(sq, 1) == Poly([1, 2, 1])
    assert taylor_shift(sq, 0) == sq
    assert taylor_shift(Poly([3]), 7) == Poly([3])
    assert taylor_shift(sq, Fraction(1, 2)) == Poly([Fraction(1, 4), 1, 1])


def test_taylor_shift_rejects_a_float_shift():
    with pytest.raises(ValueError, match=r"shift 0\.1 is a float"):
        taylor_shift(Poly([0, 0, 1]), 0.1)


@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=1, max_size=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_taylor_shift_round_trip(coeffs, a):
    p = Poly(coeffs)
    assert taylor_shift(taylor_shift(p, a), -a) == p


def binomial_shift(coeffs, a):
    """p(x + a) = sum over k of c_k sum over j of C(k, j) a^(k-j) x^j, in
    Fraction arithmetic."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * a ** (k - j)
    return Poly(out)


# shifts with denominators > 1 and of both signs, plus integers
shifts = st.one_of(
    st.builds(
        lambda sign, p, q: Fraction(sign * p, q),
        st.sampled_from([-1, 1]), st.integers(min_value=1, max_value=12), st.integers(2, 9),
    ),
    st.integers(min_value=-4, max_value=4).map(Fraction),
)


@given(
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12), min_size=1, max_size=9),
    shifts,
)
@example([Fraction(1, 3), 0, Fraction(-5, 2), 1], Fraction(-2, 3))
@example([0, 0, 0, Fraction(7, 4)], Fraction(5, 6))
def test_taylor_shift_matches_binomial_expansion(coeffs, a):
    assert taylor_shift(Poly(coeffs), a) == binomial_shift(coeffs, a)


def test_shift_identity_at_weight_two():
    row = build_triangle(arith.sigma(), "id", 2).row_poly(2)
    assert taylor_shift(row, 1) == nekrasov_okounkov_poly(2)


def test_check_no_identity_passes():
    res = check_no_identity(12)
    assert res.passed
