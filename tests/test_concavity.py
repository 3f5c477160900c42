import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lclab import arith, concavity
from lclab.concavity import (
    MAX_WINDOW,
    ConcavityReport,
    _ColumnStream,
    _window_rows,
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
from lclab.triangles import Triangle, build_triangle


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


def test_column_scans_start_at_the_diagonal(monkeypatch):
    # the rows above m - 1 hold zeros that can neither fail nor tie
    firsts, gate = {}, concavity._exact_entries

    def spy(line, at):
        firsts.setdefault(at(0)[1], []).append(at(0))
        return gate(line, at)

    monkeypatch.setattr(concavity, "_exact_entries", spy)
    vertical_check(build_triangle(arith.one(), "id", 12))
    assert sorted(firsts) == list(range(1, 13))
    assert all(labels == [(m - 1, m)] for m, labels in firsts.items())


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
        with pytest.raises(ValueError, match="n_limit must be >= 0"):
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
    for stream in (_ColumnStream(g, "id", 12, 20), _ColumnStream(g, "id", 12)):
        assert (stream.g, stream.h, stream.n_max) == (g, "id", 12)
        for m in (0, 2, 2, 5, 12, 13, 20):  # gaps, a repeat, past the last row
            assert stream.column(m) == tri.column(m)
        with pytest.raises(ValueError, match="already passed"):
            stream.column(11)
    with pytest.raises(ValueError, match="m_max must be >= 1 when given"):
        _ColumnStream(g, "id", 12, 0)


def test_scans_with_a_last_column_reject_m_max_0():
    # the streams of window_scan (hong_zhang_scan's too) and the Stirling
    # scans carry their last column
    for scan in (
        lambda: window_scan(arith.one(), "id", 2, 0),
        lambda: hong_zhang_scan(2, 0),
        lambda: first_failure_table(0),
        lambda: stirling_column_first_failure(0, 5),
        lambda: stirling_column_failures(0, 5),
    ):
        with pytest.raises(ValueError, match="m_max must be >= 1 when given"):
            scan()


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


def test_stirling_column_first_failure_scans_its_column_only(monkeypatch):
    read = []
    scan = first_vertical_failure

    def spy(stream, m, n_limit):
        read.append(m)
        return scan(stream, m, n_limit)

    monkeypatch.setattr(concavity, "first_vertical_failure", spy)
    assert stirling_column_first_failure(7, 1500) == 1330  # Table 1, column 7
    assert read == [7]


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


def _window_rows_reference(C, m_max):
    """_window_rows walked one column at a time with window_top."""
    for k in range(1, m_max + 1):
        top = window_top(C, k)
        if top > MAX_WINDOW:
            at, tail = ("m_max", "") if k == m_max else (k, f" from column {k} (m_max = {m_max})")
            raise ValueError(
                f"window floor(C^{at}) = {top} exceeds {MAX_WINDOW}{tail}; "
                "scan fewer columns or a smaller C"
            )
    return window_top(C, m_max) + 1


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# windows that land exactly on MAX_WINDOW at a probe column (8^4, 64^2, 2^12), then
# an oversize column far below m_max, C = 1, and a negative m_max
@example(Fraction(8), 4)
@example(Fraction(8), 5)
@example(Fraction(8), 6)
@example(Fraction(64), 2)
@example(Fraction(64), 3)
@example(Fraction(2), 12)
@example(Fraction(2), 13)
@example(Fraction(3, 2), 21)
@example(Fraction(3, 2), 400)
@example(Fraction(1), 400)
@example(Fraction(2), -1)
@given(
    st.integers(1, 40).flatmap(lambda q: st.builds(Fraction, st.integers(1, 3 * q), st.just(q))),
    st.integers(-1, 400),
)
def test_window_rows_matches_a_column_by_column_walk(C, m_max):
    assert _outcome(_window_rows, C, m_max) == _outcome(_window_rows_reference, C, m_max)


@pytest.mark.parametrize("C, m_max, oversize", [
    (Fraction(1000001, 1000000), 50000, False), (Fraction(3, 2), 10**9, True),
])
def test_window_rows_asks_for_logarithmically_many_windows(C, m_max, oversize, monkeypatch):
    calls = []

    def counted(C, m):
        calls.append(m)
        return window_top(C, m)

    monkeypatch.setattr(concavity, "window_top", counted)
    _outcome(_window_rows, C, m_max)
    assert len(calls) <= 2 * math.ceil(math.log2(m_max)) + 3
    assert (m_max in calls) != oversize  # no C^m_max once an earlier window is oversize


def test_window_scan_forms_the_last_window_twice(monkeypatch):
    # once in the guard, whose probe at m_max sizes the stream, and once for
    # the report's range in c_vertical_check
    calls = []

    def counted(C, m):
        calls.append(m)
        return window_top(C, m)

    monkeypatch.setattr(concavity, "window_top", counted)
    assert window_scan(arith.one(), "id", Fraction(1000001, 1000000), 50000).passed
    assert calls.count(50000) <= 2


# first failing centers n_1..n_8 of the (sigma, id) columns (D'Arcais)
SIGMA_ID_FIRST_FAILURES = [3, 6, 21, 39, 73, 135, 251, 475]


def test_sigma_id_column_first_failures():
    stream = _ColumnStream(arith.sigma(), "id", 481, 8)
    firsts = [first_vertical_failure(stream, m, 480) for m in range(1, 9)]
    assert firsts == SIGMA_ID_FIRST_FAILURES


@pytest.mark.parametrize("C, firsts, edges", [
    (Fraction(5, 2), {2: 6, 4: 39, 5: 73}, [(6, 2), (39, 4)]),
    (Fraction(3), dict(enumerate(SIGMA_ID_FIRST_FAILURES[:5], 1)), [(3, 1)]),
])
def test_sigma_id_window_scan_against_first_failures(C, firsts, edges):
    # column m fails in its window exactly when n_m <= floor(C^m), and first at n_m
    report = window_scan(arith.sigma(), "id", C, 5, include_m1=True)
    found = {}
    for n, m in report.failures:
        found[m] = min(n, found.get(m, n))
    expected = {m: n for m, n in enumerate(SIGMA_ID_FIRST_FAILURES[:5], 1) if n <= window_top(C, m)}
    assert found == expected == firsts
    on_edge = [(n, m) for m, n in expected.items() if n == window_top(C, m)]
    assert on_edge == edges and set(edges) <= set(report.boundary)


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
    for source in (tri, _ColumnStream(g, h, tri.n_max)):
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
        return tri, _ColumnStream(g, h, n_max)

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


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5")], ids=["float", "Decimal"])
def test_scans_reject_inexact_entries(bad):
    # _scan is exact only on ints and Fractions, so every scan refuses the rest
    tri = Triangle(arith.one(), "one", [[1], [1], [2, 1], [3, bad, 1]])
    scans = (
        horizontal_check,
        vertical_check,
        lambda t: c_vertical_check(t, 2, 3, include_m1=True),
        lambda t: first_vertical_failure(t, 2),
    )
    kind = type(bad).__name__
    for scan in scans:
        with pytest.raises(ValueError, match=rf"^entry \(3, 2\) .* is a {kind}; give an int"):
            scan(tri)
    with pytest.raises(ValueError, match=rf"^entry 1 .* is a {kind}; give an int"):
        is_logconcave([1, bad, 1])


def exact_scan(left, center, right, at, weights=None):
    """_scan without its head screen: every center is compared on the exact
    products.  The reference the screened kernel is held to."""
    for i, (a, c, b) in enumerate(zip(left, center, right), 1):
        lhs = c * c
        rhs = a * b
        if weights:
            wl, wr = weights(i)
            lhs *= wl
            rhs *= wr
        if lhs < rhs:
            yield at(i), True
        elif lhs == rhs and a and b:
            yield at(i), False


def screened_and_exact(scan, *args):
    """scan(*args) as it runs, then again with exact_scan as the kernel."""
    screened = scan(*args)
    kept, concavity._scan = concavity._scan, exact_scan
    try:
        return screened, scan(*args)
    finally:
        concavity._scan = kept


def _sized(bits):
    """Nonnegative ints of the drawn bit lengths, 0 for length 0."""
    return bits.flatmap(lambda n: st.integers(2**n >> 1, 2**n - 1))


# lengths around the 64-bit head and to about 10^3 bits, zero included
wide = _sized(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128, 1000]), st.integers(0, 1100)))


# weights from 1 up to Newton-sized products (m-1)(n-m) of about 10^6
weight = st.one_of(st.integers(1, 3), st.integers(1, 10**6))


@st.composite
def screen_triples(draw):
    """(a, c, b, i, w): independent entries; c = isqrt(wr a b / wl) + d;
    or an exact equality wl c^2 = wr a b, moved by d.  Small d gives the
    near-equal centers, where only the exact comparison can decide.  w is
    None, the plain comparison, or the positive weights (wl, wr)."""
    i = draw(st.one_of(st.integers(1, 3), st.integers(1, 1000)))
    w = draw(st.one_of(st.none(), st.tuples(weight, weight)))
    wl, wr = w or (1, 1)
    kind = draw(st.sampled_from(["free", "isqrt", "equal"]))
    d = draw(st.integers(-3, 3))
    if kind == "free":
        a, c, b = draw(wide), draw(wide), draw(wide)
    elif kind == "isqrt":
        a, b = draw(wide), draw(wide)
        c = max(math.isqrt(wr * a * b // wl) + d, 0)
    else:
        x, y, z = (draw(_sized(st.integers(0, 400))) for _ in range(3))
        a, b, c = x * wl * y * y, x * wr * z * z, max(x * wr * y * z + d, 0)
    return a, c, b, i, w


def _hits_at(kernel, a, c, b, i, w):
    """kernel's hits with the triple at position i, weighed by w there; the
    zeros before it give none, under any weights."""
    pad = [0] * (i - 1)
    weights = w and (lambda n: w if n == i else (n, 3 * n))
    return list(kernel(pad + [a], pad + [c], pad + [b], lambda n: n, weights))


_HEAD = 2**64


@settings(max_examples=400)
@given(screen_triples(), st.sampled_from(["int", "fraction", "mixed"]))
# equal and one below equal, past 64 bits: a screen that passes ties, or
# drops a +1, decides them
@example((_HEAD**3, _HEAD**3, _HEAD**3, 1, None), "int")
@example((_HEAD**3 + 1, _HEAD**3, _HEAD**3 + 1, 1, None), "int")
@example((_HEAD**3 + 1, _HEAD**3, _HEAD**3, 1, None), "int")
@example((_HEAD**3, _HEAD**3, _HEAD**3 + 1, 1, None), "int")
@example((3, 2**600, 2**1200 // 3 + 1, 1, None), "int")  # a' = 0: only b'+1 bounds b
@example((2**1200 // 3 + 1, 2**600, 3, 1, None), "int")  # b' = 0: only a'+1 bounds a
# the tie 2 c^2 = a b under the column weights (2, 1) at i = 1: the
# screen's weights, swapped, call it a failure
@example((2 * _HEAD**3, _HEAD**3, _HEAD**3, 1, (2, 1)), "int")
# a Newton tie at n = 10, m = 4: 3*6 c^2 = 4*7 a b
@example((9 * _HEAD**3, 14 * _HEAD**3, 14 * _HEAD**3, 3, (18, 28)), "int")
@example((0, _HEAD**3, _HEAD**3, 5, (6, 5)), "int")  # a zero neighbor: a pass, not a tie
@example((_HEAD**3, _HEAD**3, _HEAD**3, 1, None), "fraction")
@example((_HEAD**3, _HEAD**3, _HEAD**3, 1, None), "mixed")
def test_screened_kernel_matches_the_exact_comparison(triple, entries):
    a, c, b, i, w = triple
    if entries == "fraction":  # one denominator: the verdict is the integers'
        a, c, b = (Fraction(x, 3) for x in (a, c, b))
    elif entries == "mixed":  # an int center, a Fraction neighbor
        a = Fraction(a)
    screened = _hits_at(concavity._scan, a, c, b, i, w)
    assert screened == _hits_at(exact_scan, a, c, b, i, w)


def test_fraction_and_mixed_lines_are_compared_exactly():
    # a geometric line over 7, numerators of about 200 bits: every center
    # is an equality; raising the last entry by 1/7 fails the center before it
    p, q = 3**70 + 2, 5**41 + 6
    fracs = [Fraction(p**k * q ** (4 - k), 7) for k in range(5)]
    raised = fracs[:4] + [fracs[4] + Fraction(1, 7)]
    ints = [p**k * q ** (4 - k) for k in range(5)]
    mixed = [ints[0], Fraction(ints[1]), ints[2], Fraction(ints[3]), ints[4] + 1]
    for line in (fracs, raised, mixed):
        vals = [0, *line, 0]
        for weights in (None, lambda i: (i + 1, i)):
            hits = list(concavity._scan(vals, vals[1:], vals[2:], lambda i: i - 1, weights))
            assert hits == list(exact_scan(vals, vals[1:], vals[2:], lambda i: i - 1, weights))
    assert is_logconcave(fracs) is None
    assert is_logconcave(raised) == 3
    assert is_logconcave(mixed) == 3


@pytest.mark.parametrize("h", ["id", "one"])
def test_triangle_scans_match_the_unscreened_kernel(h):
    tri = build_triangle(arith.sigma(), h, 150)  # entries to 906 bits (id), 228 (one)
    for scan in (horizontal_check, vertical_check):
        screened, exact = screened_and_exact(scan, tri)
        assert screened == exact


@pytest.mark.parametrize("scan, args", [(first_failure_table, (7,)), (hong_zhang_scan, (2, 9))])
def test_streamed_scans_match_the_unscreened_kernel(scan, args):
    screened, exact = screened_and_exact(scan, *args)
    assert screened == exact


def newton_hits(tri):
    """Newton's inequalities on the rows of tri, through _scan: row n is
    P_n(x)/x, of degree n-1, so (m-1)(n-m) A(n, m)^2 >= m(n-m+1) A(n, m-1)
    A(n, m+1) at centers m = 2..n-1 holds when P_n is real-rooted.  Returns
    the failing centers and the equal ones, as (n, m)."""
    failures, equalities = [], []
    for n in range(3, tri.n_max + 1):
        row = tri.row_scaled(n)  # m = 1..n; one scale within a row
        hits = concavity._scan(
            row, row[1:], row[2:], lambda i: (n, i + 1),
            lambda i: (i * (n - i - 1), (i + 1) * (n - i)),  # center m = i + 1
        )
        for cell, failed in hits:
            (failures if failed else equalities).append(cell)
    return failures, equalities


def test_newton_inequalities_on_real_rooted_and_darcais_rows():
    # Pochhammer x(x+1)...(x+n-1), x(1+x)^(n-1) and Laguerre rows are
    # real-rooted, so Newton's inequalities hold; binomial rows meet each
    # one with equality.  The D'Arcais rows P_120 and P_180 fail at m = 2,
    # which shows they have non-real roots.
    for g, h in ((arith.one(), "id"), (arith.one(), "one"), (arith.identity(), "id")):
        screened, exact = screened_and_exact(newton_hits, build_triangle(g, h, 100))
        assert screened == exact
        # equal sides need all roots of P_n(x)/x equal: (1+x)^(n-1), 4,851 centers
        binomial = [(n, m) for n in range(3, 101) for m in range(2, n)] if h == "one" else []
        assert screened == ([], binomial)
    screened, exact = screened_and_exact(newton_hits, build_triangle(arith.sigma(), "id", 200))
    assert screened == exact
    assert screened[0] == [(120, 2), (180, 2)]
