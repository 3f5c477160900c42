"""Unsigned Stirling numbers of the first kind and their column laws.

S(n, m) counts permutations of n elements with m cycles and obeys
S(n, m) = (n-1) S(n-1, m) + S(n-1, m-1) with S(0, 0) = 1.  The first two
columns have closed forms in factorials and harmonic numbers:
S(n, 1) = (n-1)! and S(n, 2) = (n-1)! H(n-1).

These are the independent closed-form oracle for the (one, id) triangle,
whose stored entries are S(n, m) = n! A(n, m); column scans to large n
run on that triangle (concavity.first_failure_table), not on a table kept
here.  delta(n) is the harmonic expression whose sign decides whether the
normalized m = 2 column is log-concave at center n; it is computed by two
independent formulas that are checked against each other on every call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import harmonic, one

_ROWS: list[list[int]] = [[1]]


def stirling_row(n: int) -> list[int]:
    """Return the full row [S(n, 0), ..., S(n, n)], cached across calls."""
    if n < 0:
        raise ValueError("row index must be >= 0")
    while len(_ROWS) <= n:
        k = len(_ROWS)
        prev = _ROWS[-1]
        row = [0] * (k + 1)
        for m in range(1, k + 1):
            above = prev[m] if m < k else 0
            row[m] = (k - 1) * above + prev[m - 1]
        _ROWS.append(row)
    return _ROWS[n]


def stirling_first(n: int, m: int) -> int:
    """S(n, m), zero outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0 or m > n:
        return 0
    return stirling_row(n)[m]


def sibuya_strict_check(n: int) -> bool:
    """Strict row log-concavity with the tilt m/(m+1).

    Checks m S(n, m)^2 > (m+1) S(n, m+1) S(n, m-1) for 2 <= m <= n-1.
    Vacuously true below n = 3.
    """
    row = stirling_row(n)
    for m in range(2, n):
        if m * row[m] * row[m] <= (m + 1) * row[m + 1] * row[m - 1]:
            return False
    return True


def harmonic_column_identity(n: int) -> bool:
    """Check the factorial and harmonic closed forms of columns 1 and 2.

    S(n, 1) = (n-1)!, S(n, 2) = (n-1)! H(n-1), and in the normalized
    geometric family the m = 2 entry is 2 H(n-1) / n.  The last form is
    checked against an independently built triangle, not against S.
    """
    if n < 2:
        raise ValueError("identities need n >= 2")
    from .triangles import build_triangle, convert  # here: triangles imports this module

    fac = math.factorial(n - 1)
    if stirling_first(n, 1) != fac:
        return False
    if stirling_first(n, 2) != fac * harmonic(n - 1):
        return False
    converted = convert(build_triangle(one(), "id", n))
    return converted.value(n, 2) == Fraction(2, n) * harmonic(n - 1)


def delta(n: int) -> Fraction:
    """The harmonic discriminant controlling the m = 2 column at center n.

    delta(n) > 0 exactly when the normalized column is log-concave there.
    Two algebraically equal forms are evaluated and compared; a mismatch
    would mean a broken harmonic-number cache, so it raises.
    """
    if n < 2:
        raise ValueError("delta is defined for n >= 2")
    h0, h1, h2 = harmonic(n - 2), harmonic(n - 1), harmonic(n)
    direct = (n * n - 1) * h1 * h1 - n * n * h2 * h0
    reduced = Fraction(n, n - 1) * (h1 + 1) - h1 * h1
    if direct != reduced:
        raise ArithmeticError(f"delta({n}): the two closed forms disagree")
    return direct
