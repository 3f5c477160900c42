"""Unsigned Stirling numbers of the first kind and the harmonic discriminant.

S(n, m) counts permutations of n elements with m cycles and obeys
S(n, m) = (n-1) S(n-1, m) + S(n-1, m-1) with S(0, 0) = 1.  They are the
independent closed-form oracle for the (one, id) triangle, whose stored
entries are S(n, m) = n! A(n, m).  This module imports only arith: the
checks on S live with their routes, the column scans and Sibuya's strict
row inequality in concavity (first_failure_table, sibuya_strict_check)
and the closed forms of columns 1 and 2 in triangles
(harmonic_column_identity).  delta(n) is the harmonic expression whose
sign decides whether the normalized m = 2 column is log-concave at
center n; it is computed by two independent formulas that are checked
against each other on every call.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import harmonic

_ROWS: list[list[int]] = [[1]]


def stirling_row(n: int) -> list[int]:
    """Return the full row [S(n, 0), ..., S(n, n)], a copy of a cached row."""
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
    return list(_ROWS[n])


def stirling_first(n: int, m: int) -> int:
    """S(n, m), zero outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0 or m > n:
        return 0
    if len(_ROWS) <= n:
        stirling_row(n)  # grows the cache; the cell is read in place, not copied
    return _ROWS[n][m]


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
