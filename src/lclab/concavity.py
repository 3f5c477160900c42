"""Log-concavity scans over rows and columns of coefficient triangles.

A nonnegative sequence a is log-concave when a_i^2 >= a_(i-1) a_(i+1) for
every interior i, with the sequence extended by zeros on both sides.
Horizontal checks apply this to triangle rows, vertical checks to columns
at fixed m, and windowed vertical checks restrict the centers to
1 <= n <= floor(C^m) while still comparing against the true neighbors
(the window bounds which centers are tested, it does not zero out the
column past its edge).

Every scan runs through one kernel, _scan, over three aligned lines:
shifted views of one column or of one sequence, or columns m-1,
m and m+1 for rows.  Columns come from a Triangle or, for scans given a
family, from triangles.iter_columns, read without building the triangle.
Comparisons never leave the stored entries.  With row scale L_n the
column inequality A(n, m)^2 >= A(n-1, m) A(n+1, m) is equivalent to

    L_(n-1) L_(n+1) B_n^2 >= L_n^2 B_(n-1) B_(n+1),

so an h = id column, whose entry n carries the scale n!, passes _scan
the weights (n+1, n): it compares (n+1) B_n^2 against n B_(n-1) B_(n+1).
Rows, and h = one columns, share one scale and pass no weights, so the
plain squares are compared.  Each entry a scan reads is checked once: one
that is negative, or not an int or a Fraction (the types _scan compares
exactly), raises a ValueError naming its (n, m).

The kernel screens before it multiplies.  When the center and both
neighbors are ints and the center has more than 64 bits, all three are
cut at the same bit, which leaves the center a 64-bit head; each entry
then lies between its head and its head plus one, times the same power
of two, so the heads bound both sides of the comparison.  The screen
passes a center only when the bounds make the inequality strict, and
fails it only when they make the reverse strict, so every equality, and
every center too close to call, reaches the exact products unchanged.
Nearly every center of a large triangle is settled there, on products of
about 128 bits when the neighbors are about as long as the center.
Fractions, and triples mixing ints and Fractions, are always compared
exactly.

The Stirling column scans behind Table 1 are column scans of the (one, id)
triangle, whose stored column m is S(n, m) = n! A(n, m); iter_columns
fills it by the Stirling rule, so it needs no table of its own.  Sibuya's
strict row inequality is the Stirling row under its tilt, the weights
(m, m+1), so sibuya_strict_check runs through _scan too.

The conjecture-style scan over the divisor-sum coefficients b_(m, n) of
f(q)^m, with f the weight-normalized divisor-sum series, runs on the
(sigma, id) triangle via the m! column bridge; hz_equivalence_check pins
that bridge against the series route first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .arith import ArithFn, _fraction, _ratio, one, sigma, tilde
from .series import eichler_integral
from .stirling import stirling_row
from .triangles import CheckResult, Triangle, _crosscheck, iter_columns


@dataclass
class ConcavityReport:
    """Outcome of one scan.  failures lists (n, m) centers; equalities
    lists centers that hold with exact equality (still passes); boundary
    lists failures sitting exactly on a window edge."""

    mode: str
    g: str
    h: str
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    failures: list[tuple[int, int]] = field(default_factory=list)
    equalities: list[tuple[int, int]] = field(default_factory=list)
    boundary: list[tuple[int, int]] = field(default_factory=list)
    clipped: bool = False
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check": self.mode,
            "g": self.g,
            "h": self.h,
            "passed": self.passed,
            "n_range": list(self.n_range),
            "m_range": list(self.m_range),
            "failures": [list(t) for t in self.failures],
            "equalities": [list(t) for t in self.equalities],
            "boundary": [list(t) for t in self.boundary],
            "clipped": self.clipped,
            "params": {k: str(v) for k, v in self.params.items()},
        }


def _exact_entries(line: list, at) -> list:
    """line, once every entry is a nonnegative int or Fraction; at(i) names entry i in errors."""
    for i, v in enumerate(line):
        if type(v) is not int and not isinstance(v, (int, Fraction)):
            raise ValueError(f"entry {at(i)} {v!r} is a {type(v).__name__}; give an int or a Fraction")
        if v < 0:
            raise ValueError(
                f"log-concavity check needs nonnegative entries, but entry {at(i)} is negative"
            )
    return line


def _scan(left, center, right, at, weights=None):
    """The one log-concavity comparison behind every scan: over three aligned
    lines of nonnegative ints and Fractions, yields (at(i), failed) at each
    position i = 1, 2, ... where wl center^2 < wr left * right (failed) or
    the two sides are equal between nonzero neighbors (not failed).  weights(i)
    gives the ints (wl, wr) at position i, both positive: the scan that
    owns the inequality states it there.  Without weights wl = wr = 1.

    An all-int triple whose center has more than 64 bits is first screened
    on heads: with k = bits(c) - 64 and x' = x >> k, x' 2^k <= x <
    (x'+1) 2^k for each entry, so wl c'^2 >= wr (a'+1)(b'+1) makes
    wl c^2 > wr a b, a strict pass, and wl (c'+1)^2 <= wr a' b' makes
    wl c^2 < wr a b, a failure; that bound is strict only for wl >= 1,
    which is why the weights must be positive.  Neither decides an
    equality, so only the centers between the two bounds pay for the
    exact products.  Fractions, and mixed triples, are compared exactly."""
    for i, (a, c, b) in enumerate(zip(left, center, right), 1):
        wl, wr = weights(i) if weights else (1, 1)
        if type(c) is int and (k := c.bit_length() - 64) > 0 and type(a) is type(b) is int:
            hc, ha, hb = c >> k, a >> k, b >> k
            if wl * hc * hc >= wr * (ha + 1) * (hb + 1):
                continue
            if wl * (hc + 1) ** 2 <= wr * ha * hb:
                yield at(i), True
                continue
        lhs, rhs = wl * c * c, wr * a * b
        if lhs < rhs:
            yield at(i), True
        elif lhs == rhs and a and b:
            yield at(i), False


class _ColumnStream:
    """Columns of (g, h) to row n_max, read in increasing m without building
    the triangle: g, h, n_max, scale(n) and column(m), a new list, as on a
    Triangle, but holding only the latest.  Only window_scan and the Stirling
    scans pass m_last, their last column; it must be >= 1 (m_max = 0 fails)."""

    scale = Triangle.scale

    def __init__(self, g: ArithFn, h: str, n_max: int, m_last: int = 1):
        if m_last < 1:
            raise ValueError("m_max must be >= 1 when given")
        self.g, self.h, self.n_max = g, h, n_max
        self._columns = enumerate(iter_columns(g, h, n_max), 1)
        self._m, self._col = 0, [1] + [0] * n_max

    def column(self, m: int) -> list:
        if m < self._m:
            raise ValueError(f"column {m} was already passed (at column {self._m})")
        while self._m < m:  # past n_max the columns are zero
            self._m, self._col = next(self._columns, (m, [0] * (self.n_max + 1)))
        return self._col[:]


def _column(tri, m: int, top: int):
    """_scan over column m of tri (a Triangle or a _ColumnStream) at centers
    1..top, or to n_max - 1 where the column ends; if h = id, row n has the
    scale n!, whose ratio weighs center n by (n+1, n)."""
    col = _exact_entries(tri.column(m)[: max(top + 2, 0)], lambda n: (n, m))
    weights = (lambda n: (n + 1, n)) if tri.h == "id" else None
    return _scan(col, col[1:], col[2:], lambda n: (n, m), weights)


def _collect(report: ConcavityReport, hits, edge: int | None = None) -> None:
    """File _scan's hits into report; failures at row `edge` also go to
    the boundary list."""
    for cell, failed in hits:
        if not failed:
            report.equalities.append(cell)
            continue
        report.failures.append(cell)
        if cell[0] == edge:
            report.boundary.append(cell)


def is_logconcave(seq) -> int | None:
    """First index where a_i^2 < a_(i-1) a_(i+1), or None if log-concave.

    The sequence is zero-extended on both sides.  Entries must be
    nonnegative ints or Fractions: a float or Decimal would give a rounded
    verdict, and a negative entry makes the notion meaningless, so both raise.
    """
    vals = _exact_entries([0, *seq, 0], lambda i: i - 1)
    hits = _scan(vals, vals[1:], vals[2:], lambda i: i - 1)
    return next((i for i, failed in hits if failed), None)


def horizontal_check(tri: Triangle, n_from: int = 1, n_to: int | None = None) -> ConcavityReport:
    """Scan rows n_from..n_to for log-concavity in m.

    tri is a Triangle or a _ColumnStream.  Column m's centers are compared
    across columns m-1, m and m+1 at the rows n >= m, so the hits come
    column by column; they are sorted into row order at the end.
    """
    n_to = tri.n_max if n_to is None else min(n_to, tri.n_max)
    report = ConcavityReport(
        "horizontal", tri.g.label, tri.h, (n_from, n_to), (1, n_to)
    )
    lo = max(n_from, 1)

    def column(c):
        return _exact_entries(tri.column(c)[lo : n_to + 1], lambda i: (lo + i, c))

    # Each column is checked for negatives before the next is read.  For a
    # triangle the recursion builds, that finds the row-major-first negative
    # entry: if k is the first index with g(k) < 0, rows below k use only
    # g(1..k-1) and in row k only column 1 carries g(k), so it is (k, 1).
    # A hand-made Triangle, or n_from > 1, can name another negative entry.
    left, center = column(0), column(1)
    for m in range(1, n_to + 1):
        right, top = column(m + 1), max(lo, m) - lo
        hits = _scan(left[top:], center[top:], right[top:], lambda i: (lo + top + i - 1, m))
        _collect(report, hits)
        left, center = center, right
    report.failures.sort()
    report.equalities.sort()
    return report


def vertical_check(
    tri: Triangle,
    m_from: int = 1,
    m_to: int | None = None,
    n_to: int | None = None,
) -> ConcavityReport:
    """Scan columns m_from..m_to at centers n <= n_to.

    Centers are capped at tri.n_max - 1 (the right neighbor must exist);
    the report notes when that cap clipped the request.  Columns past
    tri.n_max are zero and pass unread.
    """
    m_to = tri.n_max if m_to is None else m_to
    n_to = tri.n_max - 1 if n_to is None else n_to
    report = ConcavityReport(
        "vertical", tri.g.label, tri.h, (1, min(n_to, tri.n_max - 1)), (m_from, m_to),
        clipped=n_to >= tri.n_max,
    )
    for m in range(m_from, min(m_to, tri.n_max) + 1):
        _collect(report, _column(tri, m, n_to))
    return report


def first_vertical_failure(tri: Triangle, m: int, n_limit: int | None = None) -> int | None:
    """Smallest failing center of column m, or None within the range."""
    top = tri.n_max if n_limit is None else n_limit
    return next((n for (n, _), failed in _column(tri, m, top) if failed), None)


def window_top(C: Fraction, m: int) -> int:
    """floor(C^m), computed exactly from the reduced fraction.  For C <= 1
    no power is needed: the window is 1 when C = 1 or m = 0, else 0."""
    C = _fraction(C, "the window base C")
    if C <= 0:
        raise ValueError("the window base C must be positive")
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"the window exponent m must be an int, got {m!r}")
    if m < 0:
        raise ValueError(f"the window exponent m must be >= 0, got {m}")
    if C <= 1:
        return int(C == 1 or m == 0)
    return C.numerator**m // C.denominator**m


def c_vertical_check(
    tri: Triangle,
    C,
    m_to: int,
    *,
    include_m1: bool = False,
) -> ConcavityReport:
    """Windowed vertical scan: column m is tested at centers 1..floor(C^m).

    Neighbors come from the full column, so a failure at the window edge
    is visible and lands in the boundary list.  m starts at 2 unless
    include_m1 is set.  A window past the built triangle is scanned to its
    end and flags the report clipped; the last window, the widest, decides.
    That window, floor(C^m_to), is an exact power: a far m_to costs it even
    on a small triangle (the streamed scans are bounded by their guard).
    """
    C = _fraction(C, "the window base C")
    m_from = 1 if include_m1 else 2
    last = window_top(C, m_to)
    report = ConcavityReport(
        "c-vertical", tri.g.label, tri.h, (1, last), (m_from, m_to),
        clipped=m_from <= m_to and last >= tri.n_max,
        params={"C": C, "include_m1": include_m1},
    )
    for m in range(m_from, min(m_to, tri.n_max) + 1):  # later columns are zero: no hits
        top = window_top(C, m)
        _collect(report, _column(tri, m, top), edge=top)
    return report


MAX_WINDOW = 4096


def _window_rows(C, m_max: int) -> int:
    """floor(C^m_max) + 1, the rows a windowed scan to column m_max reads;
    past MAX_WINDOW the quadratic build cost would run away.  For C > 1 the
    windows never shrink as m grows: window_top is probed at 1, 2, 4, ...
    below m_max, then once at m_max, whose window is the answer if it fits;
    else the first oversize column is bisected from the last fitting probe.
    O(log m_max) exact powers, none past the first oversize probe."""
    C = _fraction(C, "the window base C")
    lo, hi = 0, min(1, m_max)  # the window at lo, top, fits; hi is the next probe
    while C > 1 and lo < m_max:
        if (top := window_top(C, hi)) > MAX_WINDOW:
            k = bisect_right(range(hi), MAX_WINDOW, lo + 1, key=lambda j: window_top(C, j))
            at, tail = ("m_max", "") if k == m_max else (k, f" from column {k} (m_max = {m_max})")
            raise ValueError(
                f"window floor(C^{at}) = {window_top(C, k)} exceeds {MAX_WINDOW}{tail}; "
                "scan fewer columns or a smaller C"
            )
        lo, hi = hi, min(2 * hi, m_max)
    return (top if lo else window_top(C, m_max)) + 1  # a probe ran: lo = m_max


def window_scan(g: ArithFn, h: str, C, m_max: int, *, include_m1: bool = False) -> ConcavityReport:
    """c_vertical_check on the columns of (g, h), streamed just far enough."""
    stream = _ColumnStream(g, h, _window_rows(C, m_max), m_max)
    return c_vertical_check(stream, C, m_max, include_m1=include_m1)


def _stirling_stream(n_limit: int, m_last: int) -> _ColumnStream:
    """The (one, id) columns to row n_limit + 1, for scans to center n_limit."""
    if n_limit < 0:
        raise ValueError("n_limit must be >= 0")
    return _ColumnStream(one(), "id", n_limit + 1, m_last)


def stirling_column_first_failure(m: int, n_limit: int) -> int | None:
    """First center where the (one, id) column m fails, via Stirling numbers.

    The column entry is S(n, m)/n!, so failure at center n is exactly
    (n+1) S(n, m)^2 < n S(n-1, m) S(n+1, m).  Returns None when the whole
    range 1..n_limit passes.
    """
    return first_vertical_failure(_stirling_stream(n_limit, m), m, n_limit)


def first_failure_table(m_max: int, n_limit: int = 1500) -> list[int | None]:
    """First failing center of the (one, id) columns m = 1..m_max.

    One column stream feeds all the scans, so the cost is one Stirling-rule
    fill plus the comparisons, to column n_limit + 1: later ones are zero.
    """
    stream = _stirling_stream(n_limit, m_max)
    reach = min(m_max, stream.n_max)
    firsts = [first_vertical_failure(stream, m, n_limit) for m in range(1, reach + 1)]
    return firsts + [None] * (m_max - reach)


def stirling_column_failures(m: int, n_to: int) -> list[int]:
    """All failing centers n <= n_to of the (one, id) column m."""
    hits = _column(_stirling_stream(n_to, m), m, n_to)
    return [n for (n, _), failed in hits if failed]


def sibuya_strict_check(n: int) -> bool:
    """Strict row log-concavity of the Stirling numbers with the tilt m/(m+1).

    Checks m S(n, m)^2 > (m+1) S(n, m+1) S(n, m-1) for 2 <= m <= n-1, the
    row scanned under the weights (m, m+1): any _scan hit there, a failure
    or an equality, makes it false.  Vacuously true below n = 3.
    """
    row = _exact_entries(stirling_row(n), lambda m: (n, m))
    hits = _scan(row[1:], row[2:], row[3:], lambda i: (n, i + 1), lambda i: (i + 1, i + 2))
    return next(hits, None) is None


def hong_zhang_coefficients(m: int, n_max: int) -> list[Fraction]:
    """b_(m, n) = [q^n] f(q)^m for the weight-normalized divisor-sum series
    f(q) = sum sigma(n)/n q^n, for n = 0..n_max.  f^m is computed afresh
    on every call, by pow_int on integer products; nothing is carried from
    one call to the next."""
    if m < 0:
        raise ValueError("power must be >= 0")
    return list(eichler_integral(sigma(), n_max).pow_int(m).coeffs)


def hz_equivalence_check(m_max: int, n_max: int) -> CheckResult:
    """Tie the three routes to b_(m, n) together.

    Series powers, the geometric triangle of the normalized divisor sum,
    and m! times the exponential divisor-sum triangle must agree entry by
    entry, and b_(m, n) must vanish for 0 < n < m.  The triangle routes
    are the first m_max columns of two column streams, zero past n_max;
    the series route recomputes f^m for each column m through
    hong_zhang_coefficients, with no power carried between columns.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    geo = _ColumnStream(tilde(sigma()), "one", n_max)
    exp = _ColumnStream(sigma(), "id", n_max)

    def cells():
        for m in range(1, m_max + 1):
            b, geo_col, exp_col = hong_zhang_coefficients(m, n_max), geo.column(m), exp.column(m)
            for n in range(1, n_max + 1):
                exp_val = _ratio(factorial(m) * exp_col[n], exp.scale(n))
                # the series value against both triangle routes at once
                yield (n, m), (b[n], b[n]), (geo_col[n], exp_val)

    return _crosscheck(
        "hz-equivalence", cells(),
        lambda b, routes: f"series {b[0]}, geometric {routes[0]}, m!*exponential {routes[1]}",
        f"m <= {m_max}, n <= {n_max}",
    )


def hong_zhang_scan(C, m_max: int, *, include_m1: bool = False) -> ConcavityReport:
    """Windowed vertical scan of the divisor-sum coefficients b_(m, n).

    Column m is tested at centers n <= floor(C^m).  b_(m, n) is m! times
    the (sigma, id) triangle column, and the m! cancels from both sides of
    each comparison, so this is window_scan on (sigma, id), relabelled.
    """
    report = window_scan(sigma(), "id", C, m_max, include_m1=include_m1)
    report.mode = "hong-zhang"
    report.params["coefficients"] = "divisor-sum series powers"
    return report
