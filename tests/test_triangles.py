import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from lclab import arith, triangles
from row_identities import row_identity_mismatches
from lclab.series import Series, eichler_integral
from lclab.triangles import (
    Poly,
    build_triangle,
    check_conversion,
    closed_form_oracle,
    closed_forms_check,
    convert,
    euler_product_crosscheck,
    genfun_crosscheck,
    iter_columns,
)


def test_poly_basics():
    p = Poly([0, 1, 2])
    assert p.degree == 2
    assert p(3) == 3 + 18
    assert p.coefficient(5) == 0
    with pytest.raises(IndexError, match="negative power"):
        p.coefficient(-1)
    assert Poly([1, 0, 0]) == Poly([1])
    assert Poly([]).coeffs == [0]


def test_seed_row():
    tri = build_triangle(arith.sigma(), "id", 0)
    assert tri.n_max == 0
    assert tri.scaled(0, 0) == 1
    assert tri.row_poly(0) == Poly([1])


def test_divisor_sum_family_small_rows():
    tri = build_triangle(arith.sigma(), "id", 4)
    assert tri.row_scaled(2) == [3, 1]
    assert tri.row_scaled(3) == [8, 9, 1]
    assert tri.row_scaled(4) == [42, 59, 18, 1]
    assert tri.row_values(2) == [Fraction(3, 2), Fraction(1, 2)]
    assert tri.row_values(4) == [
        Fraction(7, 4),
        Fraction(59, 24),
        Fraction(3, 4),
        Fraction(1, 24),
    ]
    # at x = 1 these rows sum to partition numbers
    assert tri.row_poly(3)(1) == 3
    assert tri.row_poly(4)(1) == 5


def test_one_id_integer_scaled_rows():
    tri = build_triangle(arith.one(), "id", 6)
    assert tri.row_scaled(5) == [24, 50, 35, 10, 1]
    assert tri.row_scaled(6) == [120, 274, 225, 85, 15, 1]


def test_boundary_entries():
    g = arith.sigma()
    tri = build_triangle(g, "id", 15)
    for n in range(1, 16):
        assert tri.value(n, 1) == Fraction(g(n), n)
        assert tri.scaled(n, n) == 1  # A(n, n) = 1/n! under the n! scale
    geo = build_triangle(g, "one", 12)
    for n in range(1, 13):
        assert geo.value(n, 1) == g(n)
        assert geo.value(n, n) == 1


def test_entries_integral_and_positive():
    for make, h in ((arith.one, "id"), (arith.identity, "id"), (arith.sigma, "id"),
                    (arith.identity, "one")):
        tri = build_triangle(make(), h, 12)
        for n in range(1, 13):
            for b in tri.row_scaled(n):
                assert isinstance(b, int)
                assert b > 0


def test_geometric_one_family_rows():
    # P_n(x) = x (x+1)^(n-1) for g = 1, h = 1
    tri = build_triangle(arith.one(), "one", 8)
    for n in range(1, 9):
        for x in (1, 2, Fraction(-1, 2)):
            assert tri.row_poly(n)(x) == x * (x + 1) ** (n - 1)


# all-ones tables take the Stirling/Pascal start; 0/1 tables must not
g_tables = st.one_of(
    st.integers(min_value=0, max_value=13).map(lambda k: [1] * (k + 1)),
    *(
        st.lists(st.integers(min_value=0, max_value=top), max_size=13).map(lambda rest: [1] + rest)
        for top in (1, 9)
    ),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=9
    ).map(lambda rest: [1] + rest),
)


@given(g_tables, st.sampled_from(["one", "id"]), st.sampled_from([None, 1, 2, 5]))
def test_build_matches_series_power_oracle(values, h, k):
    # A(n, m) = [T^n] G^m when h = one and [T^n] E^m / m! when h = id,
    # with G and E the series of g(n) and g(n)/n; k limits the check to the
    # first k columns of iter_columns
    g = arith.from_table(values)
    n_max = len(values)
    tri = build_triangle(g, h, n_max)
    cols = list(islice(iter_columns(g, h, n_max), k))
    assert len(cols) == (n_max if k is None else min(k, n_max))
    base = Series.from_arith(g, n_max) if h == "one" else eichler_integral(g, n_max)
    for m, col in enumerate(cols, 1):
        power = base.pow_int(m)
        norm = 1 if h == "one" else math.factorial(m)
        assert col == tri.column(m)
        for n in range(n_max + 1):
            assert Fraction(col[n]) / tri.scale(n) == power.coefficient(n) / norm, (n, m)
    if all(isinstance(v, int) for v in values):
        assert all(isinstance(b, int) for n in range(n_max + 1) for b in tri.row_scaled(n))


def fraction_columns(values, h, n_max):
    """The columns m = 1..n_max of (g, h) by the Horner recursion run in
    Fraction arithmetic throughout, B(n, m) over n = 0..n_max."""
    g = [Fraction(0)] + [Fraction(v) for v in values]
    prev = [Fraction(1)] + [Fraction(0)] * n_max
    cols = []
    for m in range(1, n_max + 1):
        col = [Fraction(0)] * (n_max + 1)
        for n in range(m, n_max + 1):
            acc = Fraction(0)
            for j in range(m - 1, n):
                acc = acc * (j if h == "id" else 1) + g[n - j] * prev[j]
            col[n] = acc
        cols.append(col)
        prev = col
    return cols


# g(1) = Fraction(1) sends every table down the rational path; integral
# Fractions alone give D = 1, and zeros occur in all three
fraction_tables = st.one_of(
    st.lists(st.integers(min_value=-6, max_value=6).map(Fraction), max_size=10),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=10),
    st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=9),
            st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]),
        ),
        max_size=10,
    ),
).map(lambda rest: [Fraction(1)] + rest)


@given(fraction_tables, st.sampled_from(["one", "id"]))
@example([Fraction(1), 0, Fraction(0), Fraction(3, 2)], "id")
@example([Fraction(1), Fraction(4), Fraction(-2)], "one")
def test_rational_g_columns_match_fraction_horner(values, h):
    g = arith.from_table(values)
    n_max = len(values)
    expected = fraction_columns(values, h, n_max)
    cols = list(iter_columns(g, h, n_max))
    tri = build_triangle(g, h, n_max)
    assert cols == expected
    assert [tri.column(m) for m in range(1, n_max + 1)] == expected
    for col in cols:  # integral entries come out as int, the rest as Fraction
        kinds = [int if Fraction(b).denominator == 1 else Fraction for b in col]
        assert [type(b) for b in col] == kinds


@pytest.mark.parametrize("h", ["one", "id"])
def test_rational_columns_start_with_int_zeros(h):
    # 1/k has D > 1, so every column takes the rational path; the rows below
    # m are yielded as the int 0 and row m, A(m, m) = 1 / h(1)...h(m), is not 0
    n_max = 40
    g = arith.from_table([Fraction(1, k) for k in range(1, n_max + 1)])
    for m, col in enumerate(iter_columns(g, h, n_max), 1):
        assert [(type(b), b) for b in col[:m]] == [(int, 0)] * m
        assert col[m] != 0


def horner_columns(values, h, n_max):
    """The columns m = 1..n_max of (g, h) by the plain Horner loop over rows
    j = m-1..n-1, one step per row and no block or all-ones shortcut, run on
    the integer table D g; column m is divided by D^m at the end."""
    d = math.lcm(*(Fraction(v).denominator for v in values))
    g = [0] + [int(Fraction(v) * d) for v in values]
    prev = [1] + [0] * n_max
    cols = []
    for m in range(1, n_max + 1):
        col = [0] * (n_max + 1)
        for n in range(m, n_max + 1):
            acc = 0
            for j in range(m - 1, n):
                acc = acc * (j if h == "id" else 1) + g[n - j] * prev[j]
            col[n] = acc
        cols.append([Fraction(b, d**m) for b in col])
        prev = col
    return cols


K = triangles._BLOCK


def kernel_table(n_max):
    """Tables for n_max rows: integers with zeros and negative values, the
    same with a few Fractions (the content path), and all ones."""
    ints = st.integers(min_value=-3, max_value=7)
    fracs = st.one_of(ints, st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]))
    size = dict(min_size=n_max - 1, max_size=n_max - 1)
    return st.one_of(
        st.lists(ints, **size).map(lambda rest: [1] + rest),
        st.lists(fracs, **size).map(lambda rest: [Fraction(1)] + rest),
        st.just([1] * n_max),
    )


# n_max at and around the block edges, so that the column starts m-1 fall
# on, before and after an edge
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([K - 1, K, K + 1, 2 * K + 1, 3 * K + 2]).flatmap(
    lambda n: st.tuples(st.just(n), kernel_table(n))), st.sampled_from(["one", "id"]))
@example((3 * K + 2, [1] + [(-1) ** k * (k % 5) for k in range(2, 3 * K + 3)]), "id")
@example((2 * K + 1, [1] + [k % 4 - 1 for k in range(2, 2 * K + 2)]), "one")
@example((K + 1, [Fraction(1)] + [Fraction(k % 3, 2) for k in range(2, K + 2)]), "id")
def test_block_kernel_matches_plain_horner(case, h):
    n_max, values = case
    assert list(iter_columns(arith.from_table(values), h, n_max)) == horner_columns(values, h, n_max)


L = triangles._LANES


def width_edge_table(n_max, k, p, sign):
    """g(1) = 1, g(p) = sign (2^k - 2) and zeros elsewhere, for n_max rows.
    Then G = 2^k - 1, and for h = one column 1 packs the seed column, so
    K = k + 1 and its lane sums are the g(n+t): g(p) comes within 2 of
    -2^(K-1) or of 2^(K-1), in whichever lane holds row p, which is each
    lane for some p in 2..5."""
    return [1] + [sign * (2**k - 2) if j == p else 0 for j in range(2, n_max + 1)]


def lane_table(n_max):
    """Tables for n_max rows with values up to 10^12 in size and of both
    signs, so that lane sums are large and reach both signs; the same as
    Fractions (the content path); and width-edge tables, whose lane sums
    come within 2 of the bound the lane width is chosen for."""
    big = st.one_of(
        st.integers(min_value=-10**12, max_value=10**12),
        st.sampled_from([10**12, -10**12, 0, -1]),
    )
    size = dict(min_size=n_max - 1, max_size=n_max - 1)
    return st.one_of(
        st.lists(big, **size).map(lambda rest: [1] + rest),
        st.lists(st.one_of(big, st.just(Fraction(-10**12, 7))), **size).map(
            lambda rest: [Fraction(1)] + rest
        ),
        st.builds(
            width_edge_table, st.just(n_max), st.integers(2, 80), st.integers(2, 5),
            st.sampled_from([1, -1]),
        ),
    )


# n_max at every residue mod _LANES, below one lane group and past two
# block edges; every triangle ends in columns shorter than a lane group
@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 2 * L - 1), st.integers(2 * K - 1, 2 * K + L - 2)).flatmap(
    lambda n: st.tuples(st.just(n), lane_table(n))), st.sampled_from(["one", "id"]))
@example((2 * K + 2, [1] + [(-1) ** k * 10**12 + k for k in range(2, 2 * K + 3)]), "id")
@example((2 * K + 1, [1] + [(-1) ** k * 10**12 + k for k in range(2, 2 * K + 2)]), "one")
@example((3, [1, -10**12, 10**12]), "one")
@example((2 * L - 1, width_edge_table(2 * L - 1, 80, 5, -1)), "one")
@example((2 * L - 2, width_edge_table(2 * L - 2, 3, 4, -1)), "id")
@example((2 * K, width_edge_table(2 * K, 61, 2, 1)), "id")
@example((2 * K + 1, width_edge_table(2 * K + 1, 2, 3, 1)), "one")
def test_lane_kernel_matches_plain_horner(case, h):
    n_max, values = case
    assert list(iter_columns(arith.from_table(values), h, n_max)) == horner_columns(values, h, n_max)


# the h = id kernel that divides each block's common factor out, chained
# over every column whatever the rule in _columns picks; sizes at and
# around block edges, up to four blocks
FACTORED_SIZES = [K - 1, K, K + 1, 2 * K, 2 * K + 1, 4 * K + 1]
FACTORED_TABLES = {
    "sigma": lambda n: arith.sigma().values(n)[1:],
    # nonzero at 1 and 5 only: blocks of column m-1 past row 5(m-1) are all zero
    "sparse": lambda n: [1, 0, 0, 0, 2] + [0] * (n - 5),
    # nonzero at 1, 50, 100: at n_max = 129 column 1's block from row 33
    # starts and ends on zeros, and the one from row 65 is all zero
    "sparse blocks": lambda n: [1] + [2 * (k % 50 == 0) for k in range(2, n + 1)],
}


def kernel_chain(ints, n_max, factored):
    """Yield the columns m = 1..n_max of (g, id) for the integer table ints,
    each from the last by _next_column on the factored or the unfactored
    path; the block kernel even when every value is 1."""
    gvals, col = [0] + ints, [1] + [0] * n_max
    for m in range(1, n_max + 1):
        col = triangles._next_column(col, gvals, True, False, m, factored)
        yield col


def assert_factored_kernel_matches(values, n_max):
    ints = arith._integers(values)[0]  # the table the kernel runs on
    factored, plain = (list(kernel_chain(ints, n_max, f)) for f in (True, False))
    assert factored == plain == horner_columns(ints, "id", n_max)
    assert list(iter_columns(arith.from_table(values), "id", n_max)) == horner_columns(
        values, "id", n_max
    )


@pytest.mark.parametrize("n_max", FACTORED_SIZES)
@pytest.mark.parametrize("table", list(FACTORED_TABLES))
def test_factored_kernel_matches_unbounded_stream_and_plain_horner(table, n_max):
    assert_factored_kernel_matches(FACTORED_TABLES[table](n_max), n_max)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FACTORED_SIZES).flatmap(lambda n: st.tuples(st.just(n), kernel_table(n))))
@example((K + 1, [1] + [(-1) ** k * (k % 5) for k in range(2, K + 2)]))
@example((2 * K + 1, [Fraction(1)] + [Fraction(k % 3, 2) for k in range(2, 2 * K + 2)]))
@example((2 * K, [1] * (2 * K)))
def test_factored_kernel_on_signed_fraction_and_all_ones_tables(case):
    n_max, values = case
    assert_factored_kernel_matches(values, n_max)


def test_early_columns_take_the_factored_kernel(monkeypatch):
    # the equality tests above pass on either path, so this pins the rule:
    # at n = 200 columns 1..6 have m _BLOCK <= 200, and the row scale the
    # factor divides out leaves far narrower lanes; column 7 packs as before
    pack, widths = triangles._pack, []

    def recording(run, gsum):
        packed, width = pack(run, gsum)
        widths.append(width)
        return packed, width

    def lane_bits(columns):  # the summed lane widths of columns 1..7
        sums = []
        with monkeypatch.context() as patch:
            patch.setattr(triangles, "_pack", recording)
            for _ in range(7):
                widths.clear()
                next(columns)
                sums.append(sum(widths))
        return sums

    ruled = lane_bits(iter_columns(arith.sigma(), "id", 200))
    plain = lane_bits(kernel_chain(arith.sigma().values(200)[1:], 200, False))
    assert sum(ruled[:6]) < sum(plain[:6]) / 2
    assert ruled[6] == plain[6]


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=40), st.integers(1, 10**6))
def test_pack_forms_each_lane_sum_of_its_definition(run, gsum):
    # a wrong packing can send the kernel's entries growing without bound,
    # so the packed list is pinned to its definition on its own
    packed, width = triangles._pack(run, gsum)
    assert width == (gsum * max(map(abs, run))).bit_length() + 1

    def x(j):  # zero outside the run
        return run[j] if 0 <= j < len(run) else 0

    assert packed == [sum(x(i + t) << t * width for t in range(L)) for i in range(1 - L, len(run))]


def test_rational_g_columns_of_normalized_divisor_sum():
    g = arith.tilde(arith.sigma())
    cols = list(iter_columns(g, "one", 40))
    assert cols == fraction_columns(g.values(40)[1:], "one", 40)
    assert cols[1][4] == Fraction(59, 12) and cols[3][4] == 1 and type(cols[3][4]) is int


def test_integral_fraction_table_takes_the_integer_route(monkeypatch):
    # D = 1: no content reduction and no per-cell ratio, so ints come out
    from lclab import triangles

    def no_ratio(*args):
        raise AssertionError("a D = 1 table went through the rational route")

    monkeypatch.setattr(triangles, "_ratio", no_ratio)
    fracs, ints = arith.from_table([Fraction(1), Fraction(2), 3]), arith.from_table([1, 2, 3])
    for h in ("one", "id"):
        cols = list(iter_columns(fracs, h, 3))
        assert cols == list(iter_columns(ints, h, 3))
        assert all(type(b) is int for col in cols for b in col)


def test_row_at_with_a_large_row_denominator():
    g = arith.from_table([Fraction(1, k) for k in range(1, 41)])
    for h in ("one", "id"):
        tri = build_triangle(g, h, 40)
        row = tri.row_scaled(40)
        assert math.lcm(*(Fraction(b).denominator for b in row)).bit_length() > 60
        for x in (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 5), Fraction(11, 2)):
            assert tri.row_at(40, x) == tri.row_poly(40)(x), (h, x)


row_tables = st.one_of(
    st.lists(st.integers(min_value=-4, max_value=9), max_size=9),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), max_size=9),
).map(lambda rest: [1] + rest)
eval_points = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@given(row_tables, st.sampled_from(["one", "id"]), eval_points)
@example([1, 2, 3], "id", Fraction(-5, 3))
def test_row_at_matches_row_poly(values, h, x):
    tri = build_triangle(arith.from_table(values), h, len(values))
    for n in range(tri.n_max + 1):
        assert tri.row_at(n, x) == tri.row_poly(n)(x), n


@pytest.mark.parametrize("x", [0, 1, -3, Fraction(-1, 2), Fraction(-7, 4), Fraction(5, 3)])
def test_row_at_on_built_families(x):
    for g, h in ((arith.sigma(), "id"), (arith.one(), "one"), (arith.tilde(arith.sigma()), "one")):
        tri = build_triangle(g, h, 25)
        assert [tri.row_at(n, x) for n in range(26)] == [tri.row_poly(n)(x) for n in range(26)]


def test_outside_and_errors():
    tri = build_triangle(arith.sigma(), "id", 6)
    assert tri.scaled(4, 0) == 0
    assert tri.scaled(4, 5) == 0
    assert tri.value(3, 7) == 0
    with pytest.raises(IndexError):
        tri.scaled(7, 1)
    with pytest.raises(IndexError, match=r"row 7 outside triangle \(n_max = 6\)"):
        tri.row_scaled(7)
    with pytest.raises(ValueError):
        build_triangle(arith.sigma(), "diag", 5)


def test_iter_columns_checks_arguments_on_call():
    for g, h, n_max in ((arith.sigma(), "diag", 5), (arith.sigma(), "id", -1),
                        (arith.from_table([1, 2]), "id", 5)):
        with pytest.raises(ValueError):
            iter_columns(g, h, n_max)  # no next(): the call itself raises
    assert list(iter_columns(arith.sigma(), "id", 0)) == []


def test_columns_of_a_triangle():
    tri = build_triangle(arith.sigma(), "id", 4)
    assert tri.column(0) == [1, 0, 0, 0, 0]
    assert tri.column(2) == [0, 0, 1, 9, 59]
    assert tri.column(5) == [0] * 5
    assert list(iter_columns(arith.sigma(), "id", 4)) == [tri.column(m) for m in range(1, 5)]


@pytest.mark.parametrize("h", ["one", "id"])
@pytest.mark.parametrize("values", [
    [1, 3, 4, 7, 6, 12, 8, 15, 13, 18],  # sigma: the packed lanes
    [1] * 10,  # the all-ones rule
    [1, Fraction(1, 2), 3, Fraction(-2, 3), 5, 1, 7, Fraction(5, 4), 9, 2],  # the content path
])
def test_yielded_columns_belong_to_the_caller(values, h):
    # a caller's edit of a column must not reach the columns after it
    clean = list(iter_columns(arith.from_table(values), h, 10))
    for m, col in enumerate(iter_columns(arith.from_table(values), h, 10), 1):
        assert col == clean[m - 1]
        col[m] += 1


_STREAM_PEAK = """
import sys, tracemalloc
from lclab import arith
from lclab.triangles import iter_columns

g = arith.sigma()
g.values(300)  # the sieve stays out of the peak
tracemalloc.start()
largest = 0
for col in iter_columns(g, "id", 300):
    largest = max(largest, sys.getsizeof(col) + sum(map(sys.getsizeof, col)))
print(tracemalloc.get_traced_memory()[1], largest)
"""


def test_column_stream_holds_a_few_columns():
    # the stream holds column m-1, one block's packed sums, the column it
    # builds and the copy it hands out; the packed sums of every block at
    # once would take the peak past 6 times the largest column.  It is
    # measured in a fresh interpreter, so the reading does not depend on
    # earlier tests.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(triangles.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _STREAM_PEAK], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak, largest = map(int, proc.stdout.split())
    assert peak < 5 * largest


@pytest.mark.parametrize(
    "make, h", [(arith.sigma, "id"), (arith.one, "id"), (arith.one, "one"), (arith.identity, "one")]
)
def test_rows_match_closed_form_row_sums(make, h):
    # the (sigma, id) family is checked at n = 500 by acceptance criterion 7
    assert row_identity_mismatches(build_triangle(make(), h, 60)) == []


def test_convert_small():
    tri = build_triangle(arith.sigma(), "id", 4)
    geo = convert(tri)
    assert geo.h == "one"
    assert geo.g.label == "tilde(sigma)"
    assert geo.row_scaled(2) == [Fraction(3, 2), 1]
    # m! A(n, m): row 4 of the scaled values over 4! times 1!, 2!, 3!, 4!
    assert geo.row_values(4) == [
        Fraction(7, 4),
        Fraction(59, 12),
        Fraction(9, 2),
        Fraction(1),
    ]
    with pytest.raises(ValueError):
        convert(geo)


def test_convert_id_family_gives_binomials():
    # g(n) = n normalizes to the constant 1, so the converted triangle
    # must be the plain binomial triangle
    mapped = convert(build_triangle(arith.identity(), "id", 10))
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert mapped.value(n, m) == math.comb(n - 1, m - 1)


def test_check_conversion_families():
    # the last two have Fraction values: their rows have denominators d > 1
    inverses = lambda: arith.from_table([Fraction(1, k) for k in range(1, 19)])
    tilde_sigma = lambda: arith.tilde(arith.sigma())
    for make in (arith.one, arith.identity, arith.square, arith.sigma, inverses, tilde_sigma):
        res = check_conversion(make(), 18)
        assert res.passed, res


def test_genfun_crosscheck_both_weights():
    assert genfun_crosscheck(arith.sigma(), "id", 12).passed
    assert genfun_crosscheck(arith.one(), "one", 12).passed
    assert genfun_crosscheck(arith.square(), "id", 10, xs=(Fraction(2, 3),)).passed


def test_euler_product_crosscheck_values():
    assert euler_product_crosscheck(arith.sigma(), 12, 1).passed
    assert euler_product_crosscheck(arith.one(), 12, Fraction(1, 2)).passed
    assert euler_product_crosscheck(arith.square(), 10, -2).passed


def test_float_points_are_rejected():
    # a float would become the binary fraction it stores (0.1 is
    # 3602879701896397/36028797018963968) and give a verdict on that
    tri = build_triangle(arith.sigma(), "id", 4)
    for n in (0, 2):
        with pytest.raises(ValueError, match=r"x 0\.5 is a float"):
            tri.row_at(n, 0.5)
    with pytest.raises(ValueError, match=r"evaluation point 0\.1 is a float"):
        genfun_crosscheck(arith.sigma(), "id", 4, xs=(1, 0.1))
    with pytest.raises(ValueError, match=r"x 0\.5 is a float"):
        euler_product_crosscheck(arith.sigma(), 4, 0.5)
    # exact spellings of the same points still work
    assert tri.row_at(2, "1/2") == tri.row_at(2, Fraction(1, 2)) == Fraction(7, 8)
    assert genfun_crosscheck(arith.sigma(), "id", 4, xs=("1/10",)).passed


def test_poly_rejects_float_coefficients_and_points():
    with pytest.raises(ValueError, match=r"coefficient 0\.5 is a float"):
        Poly([1, 0.5])
    row = build_triangle(arith.sigma(), "id", 3).row_poly(2)
    with pytest.raises(ValueError, match=r"x 0\.5 is a float"):
        row(0.5)
    assert row("1/2") == row(Fraction(1, 2)) == Fraction(7, 8)


def test_closed_form_oracle_values():
    assert closed_form_oracle("one", "one", 6, 3) == 10
    assert closed_form_oracle("square", "id", 3, 2) == 2
    assert closed_form_oracle("one", "id", 6, 2) == Fraction(274, 720)
    assert closed_form_oracle("id", "one", 4, 2) == 10
    assert closed_form_oracle("tilde(one)", "one", 6, 2) == Fraction(137, 180)
    assert closed_form_oracle("id", "id", 5, 3) == Fraction(6, 6)


def _stirling_rows(n_max):
    """Unsigned Stirling numbers of the first kind, rows 0..n_max, by
    expanding the rising factorial x (x + 1) ... (x + n - 1)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(n - 1) * prev[m] + (prev[m - 1] if m else 0) for m in range(n + 1)])
    return rows


def test_closed_form_oracle_matches_fraction_expressions():
    n_max = 40
    s = _stirling_rows(n_max)
    expressions = {
        ("one", "one"): lambda n, m: Fraction(math.comb(n - 1, m - 1)),
        ("id", "id"): lambda n, m: Fraction(math.comb(n - 1, m - 1)) / math.factorial(m),
        ("square", "id"): lambda n, m: Fraction(math.comb(n + m - 1, 2 * m - 1)) / math.factorial(m),
        ("id", "one"): lambda n, m: Fraction(math.comb(n + m - 1, 2 * m - 1)),
        ("one", "id"): lambda n, m: Fraction(s[n][m]) / math.factorial(n),
        ("tilde(one)", "one"): lambda n, m: Fraction(math.factorial(m) * s[n][m]) / math.factorial(n),
    }
    assert tuple(expressions) == tuple(triangles._CLOSED_FORMS)
    for (g_label, h), expr in expressions.items():
        for n in range(1, n_max + 1):
            for m in range(1, n + 1):
                oracle = closed_form_oracle(g_label, h, n, m)
                assert type(oracle) is Fraction
                assert oracle == expr(n, m), (g_label, h, n, m)


def test_closed_form_table_rows_build_their_family():
    # one table drives the oracle and the check, in this order
    assert tuple(triangles._CLOSED_FORMS) == (
        ("one", "one"), ("id", "id"), ("square", "id"),
        ("id", "one"), ("one", "id"), ("tilde(one)", "one"),
    )
    for (g_label, _), (make_g, _) in triangles._CLOSED_FORMS.items():
        assert make_g().label == g_label


def test_closed_form_oracle_errors():
    with pytest.raises(ValueError):
        closed_form_oracle("one", "one", 3, 0)
    with pytest.raises(ValueError):
        closed_form_oracle("one", "one", 3, 4)
    with pytest.raises(ValueError):
        closed_form_oracle("sigma", "id", 3, 1)


def test_closed_forms_check_passes():
    res = closed_forms_check(15)
    assert res.passed
    assert res.checked == 6 * 15 * 16 // 2
