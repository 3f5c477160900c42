from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lclab import arith
from lclab.partitions import count_partitions
from lclab.series import Series, eichler_integral, euler_product

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# mixed denominators up to 60, with zeros drawn often enough to give runs
sparse_fractions = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=60)
)


@st.composite
def series_strategy(draw, zero_constant=False, nonzero_constant=False):
    order = draw(st.integers(min_value=2, max_value=6))
    coeffs = [draw(small_fractions) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    if nonzero_constant:
        c0 = draw(small_fractions.filter(lambda f: f != 0))
        coeffs[0] = c0
    return Series(coeffs)


def test_mul_small_cauchy():
    a = Series([1, 1, 0])  # 1 + T
    b = Series([1, -1, 0])  # 1 - T
    assert (a * b).coeffs == [1, 0, -1]
    assert (2 * a).coeffs == [2, 2, 0]
    assert (a * Fraction(1, 2)).coeffs == [Fraction(1, 2), Fraction(1, 2), 0]


def mul_reference(a: Series, b: Series) -> Series:
    """a * b by the Fraction convolution, truncated at a's order."""
    prod = [Fraction(0)] * (a.order + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs[: a.order + 1 - i]):
            prod[i + j] += ai * bj
    return Series(prod)


@given(st.data(), st.integers(min_value=0, max_value=15))
def test_mul_matches_fraction_convolution(data, order):
    # mixed denominators up to 60; sparse_fractions draws runs of zeros
    a, b = (
        Series(data.draw(st.lists(sparse_fractions, min_size=order + 1, max_size=order + 1)))
        for _ in range(2)
    )
    assert a * b == mul_reference(a, b)
    assert a * a == mul_reference(a, a)
    zero = Series.zero(order)
    assert a * zero == zero * a == zero


def test_mul_with_zero_runs_and_coprime_denominators():
    a = Series([0, 0, Fraction(7, 59), 0, 0, 0, Fraction(-11, 60), 0])
    b = Series([Fraction(5, 49), 0, 0, Fraction(1, 58), 0, 0, 0, Fraction(13, 57)])
    assert a * b == mul_reference(a, b)
    assert (a * b).coefficient(5) == Fraction(7, 59 * 58)


def test_float_coefficients_and_exponents_are_rejected():
    # a float would become the binary fraction it stores (0.1 is
    # 3602879701896397/36028797018963968)
    with pytest.raises(ValueError, match=r"coefficient 0\.1 is a float"):
        Series([1, 0.1])
    with pytest.raises(ValueError, match=r"exponent e_1 0\.5 is a float"):
        euler_product([0, 0.5, 0], 2)
    assert Series([1, "1/10"]).coeffs == [1, Fraction(1, 10)]


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        Series([1, 2]) * Series([1, 2, 3])
    with pytest.raises(ValueError):
        Series([1, 2]) + Series([1])


def test_exp_of_log_geometric():
    # exp(sum T^n / n) = 1 / (1 - T), so every coefficient is 1
    e = eichler_integral(arith.one(), 10).exp()
    assert e.coeffs == [1] * 11


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        Series([1, 1]).exp()


def test_exp_known_value():
    # T^2 coefficient of exp(3 E) with E the divisor-sum weight series
    s = (3 * eichler_integral(arith.sigma(), 5)).exp()
    assert s.coefficient(2) == 9
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 3


def test_inverse_geometric():
    inv = Series([1, -1] + [0] * 9).inverse()
    assert inv.coeffs == [1] * 11
    with pytest.raises(ValueError):
        Series([0, 1]).inverse()


def test_pow_int_binomial():
    p = Series([1, 1, 0, 0, 0, 0]).pow_int(5)
    assert p.coeffs == [1, 5, 10, 10, 5, 1]
    assert Series([1, 7]).pow_int(0) == Series.one(1)
    with pytest.raises(ValueError):
        Series([1, 1]).pow_int(-2)


def test_derivative():
    s = Series([5, 1, 3, 2])
    assert s.derivative().coeffs == [1, 6, 6]


def test_eichler_integral_values():
    e = eichler_integral(arith.sigma(), 5)
    assert e.coeffs == [0, 1, Fraction(3, 2), Fraction(4, 3), Fraction(7, 4), Fraction(6, 5)]


def test_series_of_a_function_reject_negative_order():
    # order -1 is an error, not an order-0 series
    for make in (eichler_integral, Series.from_arith):
        with pytest.raises(ValueError, match="limit >= 0, got -1"):
            make(arith.sigma(), -1)
    with pytest.raises(ValueError, match="limit >= 0, got -3"):
        arith.one().values(-3)


def test_euler_product_partition_numbers():
    # all exponents -1 gives the partition generating series
    order = 40
    s = euler_product([-1] * (order + 1), order)
    for n in range(order + 1):
        assert s.coefficient(n) == count_partitions(n)


def test_euler_product_single_factor():
    # (1 - T)^(-3) has coefficients C(n+2, 2)
    exps = [Fraction(0)] * 9
    exps[1] = Fraction(-3)
    s = euler_product(exps, 8)
    assert [s.coefficient(n) for n in range(9)] == [
        (n + 2) * (n + 1) // 2 for n in range(9)
    ]


def test_euler_product_needs_enough_exponents():
    with pytest.raises(ValueError):
        euler_product([0, -1], 5)


def test_truncate():
    s = Series([1, 2, 3, 4])
    assert s.truncate(2).coeffs == [1, 2, 3]
    with pytest.raises(ValueError):
        s.truncate(9)
    with pytest.raises(IndexError, match="coefficient 4 outside truncation order 3"):
        s.coefficient(4)
    with pytest.raises(ValueError, match="a series needs at least the constant coefficient"):
        Series([])
    assert Series([5]).derivative() == Series([0])  # order 0 stays order 0


@given(series_strategy(zero_constant=True), series_strategy(zero_constant=True))
def test_exp_is_a_homomorphism(a, b):
    if a.order != b.order:
        order = min(a.order, b.order)
        a, b = a.truncate(order), b.truncate(order)
    assert (a + b).exp() == a.exp() * b.exp()


@given(series_strategy(zero_constant=True))
def test_exp_inverse_pair(a):
    assert a.exp() * (-a).exp() == Series.one(a.order)


@given(series_strategy(nonzero_constant=True))
def test_inverse_is_an_inverse(a):
    assert a * a.inverse() == Series.one(a.order)


@given(series_strategy(nonzero_constant=True), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_mul(a, k):
    plain = Series.one(a.order)
    for _ in range(k):
        plain = plain * a
    assert a.pow_int(k) == plain


@given(series_strategy(zero_constant=True))
def test_exp_solves_its_ode(a):
    # (exp a)' = a' exp(a), compared up to the order the derivative keeps
    e = a.exp()
    lhs = e.derivative()
    rhs = (a.derivative() * e.truncate(e.order - 1))
    assert lhs == rhs


def exp_reference(a: Series) -> Series:
    """exp by the Fraction recurrence n e_n = sum of k a_k e_(n-k)."""
    c = a.coeffs
    e = [Fraction(1)] + [Fraction(0)] * a.order
    for n in range(1, a.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if c[k]:
                acc += k * c[k] * e[n - k]
        e[n] = acc / n
    return Series(e)


def inverse_reference(a: Series) -> Series:
    """1 / a by the Fraction recurrence b_n = -(sum of a_k b_(n-k)) / a_0."""
    c = a.coeffs
    inv0 = Fraction(1) / c[0]
    b = [inv0] + [Fraction(0)] * a.order
    for n in range(1, a.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if c[k]:
                acc += c[k] * b[n - k]
        b[n] = -inv0 * acc
    return Series(b)


@given(st.lists(sparse_fractions, min_size=1, max_size=16), st.integers(-3, 3))
def test_exp_matches_fraction_recurrence(tail, scale):
    a = Series([0] + tail)
    assert a.exp() == exp_reference(a)
    # x E(T) with integer or zero x, the genfun route's shape
    b = Series([0] + [scale * c for c in tail])
    assert b.exp() == exp_reference(b)


@given(
    st.lists(sparse_fractions, min_size=0, max_size=15),
    st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
)
def test_inverse_matches_fraction_recurrence(tail, c0):
    a = Series([c0] + tail)
    assert a.inverse() == inverse_reference(a)


def test_exp_and_inverse_edge_cases():
    assert Series([0]).exp() == Series.one(0)
    assert Series.zero(9).exp() == Series.one(9)
    for c0 in (1, -1, Fraction(-2, 3), Fraction(5, 4)):
        assert Series([c0]).inverse() == Series([1 / Fraction(c0)])
    # zero coefficients between nonzero ones, and x = 0 on the genfun shape
    gaps = Series([0, 0, 0, Fraction(2, 9), 0, 0, Fraction(-7, 4), 0, 0, 0])
    assert gaps.exp() == exp_reference(gaps)
    assert (0 * gaps).exp() == Series.one(9)
    lead = Series([Fraction(-3, 5), 0, 0, Fraction(1, 6), 0, 0, 0, Fraction(-4, 15)])
    assert lead.inverse() == inverse_reference(lead)
    assert (Series.one(8) - 0 * Series.from_arith(arith.sigma(), 8)).inverse() == Series.one(8)


def test_exp_and_inverse_on_the_genfun_routes():
    # the shapes genfun and euler feed in: x E(T), 1 - x G(T) and the
    # Euler-product log, at an order where the Fraction recurrences are slow.
    # For g(k) = 1/k the lcm d grows with the order, the case where a fixed
    # scale n! d^n would outgrow the coefficients.
    order = 60
    recip = arith.from_table([Fraction(1, k) for k in range(1, order + 1)], "recip")
    for g_exp, g_geo in ((arith.sigma(), arith.square()), (recip, recip)):
        for x in (Fraction(7, 3), Fraction(-5, 12), 4):
            s = x * eichler_integral(g_exp, order)
            assert s.exp() == exp_reference(s)
            t = Series.one(order) - x * Series.from_arith(g_geo, order)
            assert t.inverse() == inverse_reference(t)
