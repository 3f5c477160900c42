import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lclab import arith


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_builtin_values():
    s = arith.sigma()
    assert [s(n) for n in range(1, 11)] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    assert arith.square()(12) == 144
    assert arith.identity()(7) == 7
    assert arith.one()(1_000_000) == 1  # window grows on demand


def test_sigma_k_values():
    s2 = arith.sigma_k(2)
    assert s2(4) == 1 + 4 + 16
    assert s2(6) == 1 + 4 + 9 + 36
    s0 = arith.sigma_k(0)
    assert s0(12) == 6  # number of divisors
    with pytest.raises(ValueError):
        arith.sigma_k(-1)


def test_normalization_rejected():
    with pytest.raises(ValueError):
        arith.from_table([2, 3, 4])
    with pytest.raises(ValueError):
        arith.ArithFn("bad", lambda L: [0] + [7] * L)


def test_custom_table_window_edge():
    f = arith.from_table([1, Fraction(1, 2), 5])
    assert f(2) == Fraction(1, 2)
    assert f(3) == 5
    with pytest.raises(ValueError):
        f(4)
    with pytest.raises(ValueError):
        arith.from_table([])


def test_custom_table_rejects_floats():
    with pytest.raises(ValueError, match=r"table value 0\.5 is a float"):
        arith.from_table([1, 0.5, 2])
    with pytest.raises(ValueError, match=r"table value 1\.0 is a float"):
        arith.from_table([1.0, 2])
    assert arith.from_table([1, "1/2", Fraction(2, 3)]).values(3) == [0, 1, Fraction(1, 2), Fraction(2, 3)]


def test_domain_validation():
    s = arith.sigma()
    with pytest.raises(ValueError):
        s(0)
    with pytest.raises(ValueError):
        s(-3)
    for sieve in (arith.divisor_sigma_sieve, arith.moebius_sieve):
        with pytest.raises(ValueError, match="sieve limit must be >= 0"):
            sieve(-1)


def test_tilde_values():
    t = arith.tilde(arith.sigma())
    assert t(1) == 1
    assert t(2) == Fraction(3, 2)
    assert t(6) == 2  # 12/6 collapses to an int
    assert isinstance(t(6), int)
    assert arith.tilde(arith.identity())(9) == 1  # id(n)/n is the constant 1


def test_harmonic_values():
    assert arith.harmonic(0) == 0
    assert arith.harmonic(1) == 1
    assert arith.harmonic(4) == Fraction(25, 12)
    assert arith.harmonic(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        arith.harmonic(-1)


def test_moebius_sieve_values():
    mu = arith.moebius_sieve(20)
    assert mu[1:13] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert mu[0] == 0


def _moebius_by_trial_division(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def test_moebius_sieve_matches_trial_division():
    assert arith.moebius_sieve(0) == [0]
    assert arith.moebius_sieve(1) == [0, 1]
    expected = [0] + [_moebius_by_trial_division(n) for n in range(1, 3001)]
    assert arith.moebius_sieve(3000) == expected


def test_divisor_sieve_against_bruteforce():
    s = arith.divisor_sigma_sieve(60)
    for n in range(1, 61):
        assert s[n] == sum(divisors(n))
    s3 = arith.divisor_sigma_sieve(20, power=3)
    for n in range(1, 21):
        assert s3[n] == sum(d**3 for d in divisors(n))


def test_moebius_convolve_known_transforms():
    # mu * 1 is the indicator of n = 1
    f = arith.moebius_convolve(arith.one(), 20)
    assert f(1) == 1
    assert all(f(n) == 0 for n in range(2, 21))
    # mu * id is Euler's phi
    phi = arith.moebius_convolve(arith.identity(), 20)
    assert [phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    # sigma = 1 * id, so mu * sigma is the identity again
    back = arith.moebius_convolve(arith.sigma(), 30)
    assert all(back(n) == n for n in range(1, 31))


@given(st.integers(min_value=1, max_value=120))
def test_moebius_roundtrip(n):
    # summing f = mu * g over divisors recovers g, for every built-in g
    for make in (arith.one, arith.identity, arith.square, arith.sigma):
        g = make()
        f = arith.moebius_convolve(g, n)
        assert sum(f(d) for d in divisors(n)) == g(n)


def test_harmonic_sequence_is_logconcave_smallscale():
    hs = [arith.harmonic(n) for n in range(1, 301)]
    for i in range(1, len(hs) - 1):
        assert hs[i] * hs[i] >= hs[i - 1] * hs[i + 1]


mixed_values = st.lists(
    st.one_of(
        st.integers(min_value=-(10**30), max_value=10**30),
        st.fractions(min_value=-50, max_value=50, max_denominator=60),
    ),
    max_size=12,
)


@given(mixed_values)
def test_integers_puts_values_over_their_lcm_denominator(values):
    ints, d = arith._integers(values)
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
    assert ints == [v * d for v in values]
    assert all(type(c) is int for c in ints)


@given(st.lists(st.one_of(
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-(2**200), max_value=2**200).map(Fraction),
), max_size=12))
def test_integers_with_denominator_one_keeps_the_int_objects(values):
    # nothing is multiplied: the ints are the values' own numerators
    ints, d = arith._integers(values)
    assert d == 1 and len(ints) == len(values)
    assert all(c is v.numerator for c, v in zip(ints, values))


@given(
    st.one_of(
        st.integers(min_value=-(10**20), max_value=10**20),
        st.fractions(min_value=-100, max_value=100, max_denominator=40),
    ),
    st.integers(min_value=-60, max_value=60).filter(bool),
)
def test_ratio_is_exact_and_an_int_exactly_when_integral(num, den):
    exact = Fraction(num, den)
    r = arith._ratio(num, den)
    assert r == exact
    assert type(r) is (int if exact.denominator == 1 else Fraction)


def test_ratio_defaults_to_denominator_one():
    assert type(arith._ratio(Fraction(6, 3))) is int and arith._ratio(Fraction(6, 3)) == 2
    assert arith._ratio(Fraction(-3, 4)) == Fraction(-3, 4)
    assert type(arith._ratio(7)) is int
