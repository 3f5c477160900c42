import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lclab import arith
from lclab.concavity import (
    MAX_WINDOW,
    ConcavityReport,
    _ColumnStream,
    c_vertical_check,
    first_failure_table,
    first_vertical_failure,
    hong_zhang_coefficients,
    hong_zhang_scan,
    horizontal_check,
    hz_equivalence_check,
    is_logconcave,
    stirling_column_failures,
    stirling_column_first_failure,
    vertical_check,
    window_scan,
    window_top,
)
from lclab.series import eichler_integral
from lclab.stirling import delta
from lclab.triangles import build_triangle


def test_is_logconcave_basics():
    assert is_logconcave([1, 3, 3, 1]) is None
    assert is_logconcave([1, 1, 2]) == 1
    assert is_logconcave([]) is None
    assert is_logconcave([5]) is None
    assert is_logconcave([1, 0, 1]) == 1  # an interior zero between positives fails
    assert is_logconcave([0, 0, 3, 5, 3, 0]) is None  # leading zeros are safe
    with pytest.raises(ValueError):
        is_logconcave([1, -2, 1])
    # in binary floats 0.3^2 < 0.1 * 0.9; the exact values are equal, so no verdict is a float's
    with pytest.raises(ValueError, match=r"^entry 0 0\.1 is a float"):
        is_logconcave([0.1, 0.3, 0.9])
    assert is_logconcave([Fraction(1, 10), Fraction(3, 10), Fraction(9, 10)]) is None


def test_is_logconcave_takes_fractions():
    assert is_logconcave([arith.harmonic(n) for n in range(1, 101)]) is None
    assert is_logconcave([Fraction(1, 2), Fraction(1, 2), Fraction(2)]) == 1


def test_horizontal_binomials_pass():
    report = horizontal_check(build_triangle(arith.one(), "one", 20))
    assert report.passed
    assert report.mode == "horizontal"


def test_horizontal_stirling_rows_pass():
    report = horizontal_check(build_triangle(arith.one(), "id", 40))
    assert report.passed


def test_vertical_first_column_of_stirling_family_fails_everywhere():
    tri = build_triangle(arith.one(), "id", 10)
    report = vertical_check(tri, 1, 1)
    assert not report.passed
    assert report.failures == [(n, 1) for n in range(2, 10)]


def test_vertical_second_column_first_failure():
    tri = build_triangle(arith.one(), "id", 20)
    assert first_vertical_failure(tri, 1) == 2
    assert first_vertical_failure(tri, 2) == 5
    assert first_vertical_failure(tri, 3) == 17
    assert first_vertical_failure(tri, 3, n_limit=10) is None


def test_vertical_binomials_pass():
    tri = build_triangle(arith.one(), "one", 40)
    report = vertical_check(tri, 2, 8)
    assert report.passed
    # column m = 1 is constant, so it passes with equality annotations
    flat = vertical_check(tri, 1, 1)
    assert flat.passed
    assert flat.equalities


def test_vertical_clipping_flag():
    tri = build_triangle(arith.sigma(), "id", 10)
    assert vertical_check(tri, 1, 2, n_to=9).clipped is False
    assert vertical_check(tri, 1, 2, n_to=50).clipped is True


def test_no_failures_below_column_index():
    # structural zeros at n < m never produce failures
    tri = build_triangle(arith.sigma(), "id", 30)
    report = vertical_check(tri)
    assert all(n >= m for n, m in report.failures)


def test_window_top_exact():
    assert window_top(Fraction(3, 2), 4) == 5  # floor(81/16)
    assert window_top(Fraction(2), 10) == 1024
    assert window_top(Fraction(1, 2), 3) == 0
    with pytest.raises(ValueError):
        window_top(Fraction(-1), 2)
    with pytest.raises(ValueError, match="exponent m must be >= 0"):
        window_top(Fraction(1, 2), -1)


@pytest.mark.parametrize("m", [2.5, 2.0, Fraction(5, 2), True, "3"])
def test_window_top_rejects_a_non_int_exponent(m):
    # a power with a float exponent would be the float floor((3/2)^2.5) = 2.0
    with pytest.raises(ValueError, match=rf"exponent m must be an int, got {re.escape(repr(m))}$"):
        window_top(Fraction(3, 2), m)


def test_window_top_needs_no_power_below_one():
    # 0 < C <= 1: the window is 1 at C = 1 or m = 0 and 0 otherwise, at any m
    big = 10**12
    assert window_top(Fraction(1), big) == 1
    assert window_top(Fraction(999, 1000), big) == 0
    assert window_top(Fraction(1, 2), 0) == window_top(Fraction(7, 9), 0) == 1
    assert [window_top(Fraction(4, 5), m) for m in range(4)] == [1, 0, 0, 0]


def test_window_base_rejects_floats():
    tri = build_triangle(arith.one(), "id", 8)
    with pytest.raises(ValueError, match=r"window base C 1\.5 is a float"):
        window_top(1.5, 2)
    with pytest.raises(ValueError, match=r"window base C 1\.5 is a float"):
        c_vertical_check(tri, 1.5, 3)
    with pytest.raises(ValueError, match=r"window base C 1\.5 is a float"):
        window_scan(arith.one(), "id", 1.5, 3)
    assert c_vertical_check(tri, "3/2", 3).passed


def test_oversize_window_is_named_at_its_first_column():
    # 3/2: floor(C^20) = 3325 fits, floor(C^21) = 4987 does not
    assert window_top(Fraction(3, 2), 20) <= MAX_WINDOW < window_top(Fraction(3, 2), 21)
    with pytest.raises(ValueError, match=r"^window floor\(C\^m_max\) = 4987 exceeds 4096;"):
        window_scan(arith.one(), "id", Fraction(3, 2), 21)
    for m_max in (22, 10**9):
        with pytest.raises(
            ValueError, match=rf"= 4987 exceeds 4096 from column 21 \(m_max = {m_max}\);"
        ):
            hong_zhang_scan(Fraction(3, 2), m_max)


def test_c_vertical_boundary_failure_visible():
    tri = build_triangle(arith.one(), "id", 129)
    report = c_vertical_check(tri, 2, 7, include_m1=True)
    assert report.failures == [(2, 1)]
    assert report.boundary == [(2, 1)]
    default = c_vertical_check(tri, 2, 7)
    assert default.passed


def test_c_vertical_clipping():
    tri = build_triangle(arith.one(), "id", 10)
    report = c_vertical_check(tri, 2, 5)
    assert report.clipped


def test_first_failure_table_small():
    assert first_failure_table(4, 60) == [2, 5, 17, 54]
    assert first_failure_table(2, 3) == [2, None]


def test_first_failure_table_past_column_seven():
    assert first_failure_table(8, 4000) == [2, 5, 17, 54, 162, 469, 1330, 3731]


def test_stirling_column_failure_scans():
    assert stirling_column_first_failure(1, 50) == 2
    assert stirling_column_first_failure(2, 50) == 5
    assert stirling_column_failures(1, 30) == list(range(2, 31))
    assert stirling_column_failures(2, 60) == list(range(5, 61))


def test_stirling_scans_reject_negative_n_limit():
    # n_limit = -1 is an error, not an empty range with no failure in it
    for scan in (stirling_column_first_failure, stirling_column_failures, first_failure_table):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            scan(2, -1)
    assert first_failure_table(2, 0) == [None, None]


def test_stirling_scan_matches_triangle_scan():
    tri = build_triangle(arith.one(), "id", 60)
    for m in (1, 2, 3):
        assert first_vertical_failure(tri, m) == stirling_column_first_failure(m, 59)
    # a fresh stream skips ahead to column 5 (Table 1: first failure at 162)
    assert stirling_column_first_failure(5, 200) == 162


def test_column_stream_reads_like_the_triangle():
    g = arith.sigma()
    tri = build_triangle(g, "id", 12)
    stream = _ColumnStream(g, "id", 12, 20)
    assert (stream.g, stream.h, stream.n_max) == (g, "id", 12)
    for m in (0, 2, 2, 5, 12, 13, 20):  # gaps, a repeat, past the last row
        assert stream.column(m) == tri.column(m)
    with pytest.raises(ValueError, match="already passed"):
        stream.column(11)
    with pytest.raises(ValueError, match="m_max must be >= 1 when given"):
        _ColumnStream(g, "id", 12, 0)


def test_stream_columns_belong_to_the_caller():
    tri = build_triangle(arith.sigma(), "id", 12)
    stream = _ColumnStream(arith.sigma(), "id", 12, 12)
    for m in range(1, 13):
        col = stream.column(m)
        assert col == tri.column(m)
        col[m] += 1  # must not reach column m + 1
        assert stream.column(m) == tri.column(m)  # nor the next read of column m


class _NoReadsPastTheTriangle:
    """A triangle's columns, recorded as read; reading past n_max raises."""

    def __init__(self, tri):
        self.g, self.h, self.n_max, self.tri, self.read = tri.g, tri.h, tri.n_max, tri, []

    def column(self, m):
        if m > self.n_max:
            raise AssertionError(f"column {m} read past n_max = {self.n_max}")
        self.read.append(m)
        return self.tri.column(m)


@pytest.mark.parametrize("h", ["one", "id"])
def test_column_scans_read_only_the_triangle(h):
    tri = build_triangle(arith.one(), h, 8)
    source = _NoReadsPastTheTriangle(tri)
    report, expected = vertical_check(source, 1, 10**9), vertical_check(tri)
    assert (report.failures, report.equalities) == (expected.failures, expected.equalities)
    assert source.read == list(range(1, 9))
    for C in (Fraction(1, 2), 1, Fraction(3, 2)):
        source.read = []
        report = c_vertical_check(source, C, 10**4, include_m1=True)
        assert report.failures == c_vertical_check(tri, C, 8, include_m1=True).failures
        assert report.clipped is (C > 1)
        assert source.read == list(range(1, 9))


def test_first_failure_table_reads_to_the_last_row_only(monkeypatch):
    read = []
    scan = first_vertical_failure

    def spy(stream, m, n_limit):
        read.append(m)
        return scan(stream, m, n_limit)

    monkeypatch.setattr("lclab.concavity.first_vertical_failure", spy)
    assert first_failure_table(10**6, 3) == [2] + [None] * (10**6 - 1)
    assert read == [1, 2, 3, 4]  # the stream holds rows 0..4


@pytest.mark.parametrize(
    "g, h, C, m_max, include_m1",
    [(arith.sigma, "id", Fraction(3, 2), 7, False), (arith.one, "id", 2, 6, True),
     (arith.square, "one", 2, 4, True), (arith.one, "one", Fraction(1, 2), 3, True)],
)
def test_window_scan_matches_built_triangle(g, h, C, m_max, include_m1):
    tri = build_triangle(g(), h, window_top(Fraction(C), m_max) + 1)
    expected = c_vertical_check(tri, C, m_max, include_m1=include_m1)
    assert window_scan(g(), h, C, m_max, include_m1=include_m1) == expected


def test_delta_sign_decides_second_column():
    table_failures = set(stirling_column_failures(2, 120))
    for n in range(2, 121):
        if delta(n) > 0:
            assert n not in table_failures
        elif delta(n) < 0:
            assert n in table_failures


def test_hong_zhang_coefficients_small():
    b1 = hong_zhang_coefficients(1, 6)
    assert b1[1:] == [Fraction(arith.sigma()(n), n) for n in range(1, 7)]
    b2 = hong_zhang_coefficients(2, 6)
    assert b2[2] == 1
    assert b2[4] == Fraction(59, 12)
    assert b2[0] == 0 and b2[1] == 0


def test_hz_zero_below_power():
    for m in range(2, 6):
        b = hong_zhang_coefficients(m, 12)
        assert all(b[n] == 0 for n in range(m))
        assert all(b[n] > 0 for n in range(m, 13))


def test_hong_zhang_coefficients_do_not_depend_on_call_order():
    f = {n: eichler_integral(arith.sigma(), n) for n in (20, 30)}
    for m, n_max in ((2, 20), (3, 30), (3, 20), (4, 20), (3, 30), (2, 20)):
        assert hong_zhang_coefficients(m, n_max) == f[n_max].pow_int(m).coeffs


def test_hz_equivalence():
    assert hz_equivalence_check(6, 16).passed


def test_hz_routes_reject_negative_sizes():
    # a negative size is an error, not a PASS with 0 comparisons or an empty series
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        hz_equivalence_check(-1, 10)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        hz_equivalence_check(3, -1)
    with pytest.raises(ValueError, match="limit >= 0, got -1"):
        hong_zhang_coefficients(2, -1)
    with pytest.raises(ValueError, match="power must be >= 0"):
        hong_zhang_coefficients(-1, 5)


def test_hong_zhang_scan_passes():
    report = hong_zhang_scan(2, 6)
    assert report.passed
    assert report.mode == "hong-zhang"
    assert not report.clipped
    with_first = hong_zhang_scan(2, 4, include_m1=True)
    assert with_first.passed


def test_hong_zhang_window_guard():
    assert window_top(Fraction(2), 13) > MAX_WINDOW
    with pytest.raises(ValueError):
        hong_zhang_scan(2, 13)


def test_scale_invariance_of_vertical_verdicts():
    # the geometric twin differs column-by-column by the constant m!,
    # so every verdict must agree
    for make in (arith.sigma, arith.square):
        exp_tri = build_triangle(make(), "id", 25)
        geo_tri = build_triangle(arith.tilde(make()), "one", 25)
        exp_report = vertical_check(exp_tri)
        geo_report = vertical_check(geo_tri)
        assert exp_report.failures == geo_report.failures


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=12))
def test_zero_extension_never_flags_edges(body):
    # explicit zero padding agrees with the implicit zero extension, so
    # padding can neither hide nor invent a failure
    base = is_logconcave(body)
    padded = is_logconcave([0, 0] + body + [0])
    if base is None:
        assert padded is None
    else:
        assert padded == base + 2


def _oracle_hits(tri, cells):
    """Failures and equalities over (center, left, right) cell triples,
    compared on the exact values tri.value(n, m), which are zero outside
    the triangle."""
    failures, equalities = [], []
    for cell, left_cell, right_cell in cells:
        center, left, right = tri.value(*cell), tri.value(*left_cell), tri.value(*right_cell)
        if center * center < left * right:
            failures.append(cell)
        elif center * center == left * right and left and right:
            equalities.append(cell)
    return failures, equalities


g_tables = st.lists(st.integers(min_value=0, max_value=30), max_size=11).map(
    lambda rest: [1] + rest
)


@given(g_tables, st.sampled_from(["one", "id"]))
def test_kernel_matches_value_oracle(values, h):
    tri = build_triangle(arith.from_table(values), h, len(values))
    n_max = tri.n_max

    row_cells = [
        ((n, m), (n, m - 1), (n, m + 1)) for n in range(1, n_max + 1) for m in range(1, n + 1)
    ]
    report = horizontal_check(tri)
    assert (report.failures, report.equalities) == _oracle_hits(tri, row_cells)

    col_cells = [
        ((n, m), (n - 1, m), (n + 1, m)) for m in range(1, n_max + 1) for n in range(1, n_max)
    ]
    report = vertical_check(tri)
    assert (report.failures, report.equalities) == _oracle_hits(tri, col_cells)


stream_tables = st.one_of(
    g_tables,
    st.lists(st.fractions(min_value=0, max_value=4, max_denominator=4), max_size=9).map(
        lambda rest: [1] + rest
    ),
    st.lists(st.integers(0, 1), max_size=11).map(lambda rest: [1] + rest),
    st.integers(0, 11).map(lambda k: [1] * (k + 1)),
)


@given(stream_tables, st.sampled_from(["one", "id"]), st.integers(0, 4), st.integers(0, 12))
@example([1, 0, 5, 0, 0, 1, 0, 9], "id", 1, 8)  # failures in many rows and columns
@example([1, 1, 0, 2, 0, 0, 0, 2], "id", 2, 8)  # equalities out of column order
def test_streamed_horizontal_matches_row_major_oracle(values, h, n_from, n_to):
    # row by row, in row order, on the exact values of the built triangle
    g = arith.from_table(values)
    tri = build_triangle(g, h, len(values))
    n_to = min(n_to, tri.n_max)
    row_cells = [
        ((n, m), (n, m - 1), (n, m + 1))
        for n in range(max(n_from, 1), n_to + 1) for m in range(1, n + 1)
    ]
    expected = _oracle_hits(tri, row_cells)
    for source in (tri, _ColumnStream(g, h, tri.n_max, tri.n_max + 1)):
        report = horizontal_check(source, n_from, n_to)
        assert (report.failures, report.equalities) == expected
        assert (report.n_range, report.m_range) == ((n_from, n_to), (1, n_to))


@given(
    g_tables,
    st.sampled_from(["one", "id"]),
    st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=3),
    st.booleans(),
)
def test_windowed_kernel_matches_value_oracle(values, h, C, include_m1):
    tri = build_triangle(arith.from_table(values), h, len(values))
    m_to = min(tri.n_max, 4)
    report = c_vertical_check(tri, C, m_to, include_m1=include_m1)
    cells = [
        ((n, m), (n - 1, m), (n + 1, m))
        for m in range(1 if include_m1 else 2, m_to + 1)
        for n in range(1, min(window_top(C, m), tri.n_max - 1) + 1)
    ]
    assert (report.failures, report.equalities) == _oracle_hits(tri, cells)
    assert report.boundary == [(n, m) for n, m in report.failures if n == window_top(C, m)]


def _walk(tri, m, top):
    """Failures and equalities of column m at centers 1..top on the exact
    values; top must be at most tri.n_max - 1."""
    return _oracle_hits(tri, [((n, m), (n - 1, m), (n + 1, m)) for n in range(1, top + 1)])


def _vertical_reference(tri, m_from, m_to, n_to):
    """vertical_check as a walk over every requested column, zero ones too."""
    requested = tri.n_max - 1 if n_to is None else n_to
    top = min(requested, tri.n_max - 1)
    report = ConcavityReport(
        "vertical", tri.g.label, tri.h, (1, top), (m_from, m_to),
        clipped=requested > tri.n_max - 1,
    )
    for m in range(m_from, m_to + 1):
        failures, equalities = _walk(tri, m, top)
        report.failures += failures
        report.equalities += equalities
    return report


def _windowed_reference(tri, C, m_to, include_m1):
    """c_vertical_check as a walk over every requested column, each clipped
    on its own."""
    m_from = 1 if include_m1 else 2
    report = ConcavityReport(
        "c-vertical", tri.g.label, tri.h, (1, window_top(C, m_to)), (m_from, m_to),
        params={"C": Fraction(C), "include_m1": include_m1},
    )
    for m in range(m_from, m_to + 1):
        top = window_top(C, m)
        reach = min(top, tri.n_max - 1)
        report.clipped |= reach < top
        failures, equalities = _walk(tri, m, reach)
        report.failures += failures
        report.equalities += equalities
        report.boundary += [(n, k) for n, k in failures if n == top]
    return report


@given(
    g_tables,
    st.sampled_from(["one", "id"]),
    st.integers(0, 12),
    st.integers(0, 32),
    st.integers(1, 3),
    st.integers(-1, 15),
    st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2]),
    st.booleans(),
)
@example([1], "id", 1, 4, 1, 1, 1, False)  # no column scanned, and all are clipped
@example([1, 1, 1, 1], "one", 4, 2, 1, 4, 2, False)  # n_to and the last window are n_max
@example([1], "id", 0, 1, 1, 0, Fraction(1, 2), False)  # no column requested: not clipped
def test_column_scans_match_a_walk_over_every_requested_column(
    values, h, n_max, m_to, m_from, n_to, C, include_m1
):
    # columns past n_max are all zero: reading them or not gives one report
    n_max = min(n_max, len(values))
    m_to, n_to = min(m_to, n_max + 20), min(n_to, n_max + 3)
    g = arith.from_table(values)
    tri = build_triangle(g, h, n_max)

    def sources():
        return tri, _ColumnStream(g, h, n_max, max(m_to, 1))

    for n_top in (None, n_to):
        expected = _vertical_reference(tri, m_from, m_to, n_top)
        assert [vertical_check(s, m_from, m_to, n_top) for s in sources()] == [expected] * 2
    expected = _windowed_reference(tri, C, m_to, include_m1)
    assert [c_vertical_check(s, C, m_to, include_m1=include_m1) for s in sources()] == [expected] * 2


@given(st.integers(0, 12), st.data())
def test_first_failure_table_matches_a_walk_over_every_column(n_limit, data):
    m_max = data.draw(st.integers(1, n_limit + 21))
    tri = build_triangle(arith.one(), "id", n_limit + 1)
    expected = [
        next((n for n, _ in _walk(tri, m, n_limit)[0]), None) for m in range(1, m_max + 1)
    ]
    assert first_failure_table(m_max, n_limit) == expected


def test_stirling_failures_match_triangle_scan():
    tri = build_triangle(arith.one(), "id", 61)
    for m in range(1, 6):
        assert vertical_check(tri, m, m).failures == [
            (n, m) for n in stirling_column_failures(m, 60)
        ]


def test_scans_reject_negative_entries():
    # row 2 of (g, id) holds g(2) (n-1)!/(n-2)! = -5 at m = 1
    for values in ([1, -5, 2, 3, 1], [1, Fraction(-5, 3), 2]):
        tri = build_triangle(arith.from_table(values), "id", len(values))
        scans = (horizontal_check, vertical_check, lambda t: c_vertical_check(t, 2, 2, include_m1=True))
        for scan in scans:
            with pytest.raises(ValueError, match=r"entry \(2, 1\) is negative"):
                scan(tri)
    with pytest.raises(ValueError, match="entry 1 is negative"):
        is_logconcave([1, -2, 1])

