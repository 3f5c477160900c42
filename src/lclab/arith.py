"""Arithmetic functions normalized at 1, plus the sieves that feed them.

An arithmetic function here is any g: Z+ -> Q with g(1) = 1.  Values are
exact (ints or fractions.Fraction, never floats).  Built-ins cover the
families used throughout the package: the constant function, the identity,
squares, and divisor sums sigma_k.  Derived constructors give the
normalization g(n)/n and the Moebius transform mu * g.
"""

from __future__ import annotations

import math
from fractions import Fraction


def harmonic(n: int) -> Fraction:
    """Return the harmonic number H(n) = sum of 1/k for k <= n, H(0) = 0."""
    if n < 0:
        raise ValueError("harmonic number index must be >= 0")
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[n]


_HARMONIC = [Fraction(0)]


def divisor_sigma_sieve(limit: int, power: int = 1) -> list[int]:
    """Fill sigma_power(n) for all n <= limit in one pass.

    Returns a list s with s[0] = 0 and s[n] = sum of d**power over the
    divisors d of n.  Batch filling over the whole window avoids per-value
    factorization.
    """
    if limit < 0:
        raise ValueError("sieve limit must be >= 0")
    s = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d**power
        for multiple in range(d, limit + 1, d):
            s[multiple] += dk
    return s


def moebius_sieve(limit: int) -> list[int]:
    """Fill the Moebius function mu(n) for all n <= limit (mu[0] = 0).

    mu(1) = 1, and for n > 1 the sum of mu(d) over the divisors d of n is
    0.  So mu(d) is final once every smaller d is done, and is then
    subtracted from each proper multiple of d."""
    if limit < 0:
        raise ValueError("sieve limit must be >= 0")
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    for d in range(1, limit + 1):
        if mu[d]:
            for multiple in range(2 * d, limit + 1, d):
                mu[multiple] -= mu[d]
    return mu


class ArithFn:
    """An arithmetic function with memoized values over a growable window.

    Construction checks normalization: g(1) must equal 1.  Finite tables
    (see from_table) have a hard window edge and raise past it; sieved
    built-ins extend their window on demand.
    """

    def __init__(self, label, fill, *, key=None, limit=None):
        self.label = label
        self.key = key if key is not None else label
        self._fill = fill
        self._limit = limit
        self._vals = fill(min(limit, 8) if limit is not None else 8)
        if len(self._vals) < 2:
            raise ValueError(f"{label!r} has no values, not even g(1)")
        if self._vals[1] != 1:
            raise ValueError(f"{label!r} is not normalized: g(1) = {self._vals[1]}, expected 1")

    def _ensure(self, n: int) -> None:
        if n < len(self._vals):
            return
        if self._limit is not None and n > self._limit:
            raise ValueError(
                f"{self.label!r} is only defined for n <= {self._limit}, asked for {n}"
            )
        target = max(n, 2 * (len(self._vals) - 1))
        if self._limit is not None:
            target = min(target, self._limit)
        self._vals = self._fill(target)

    def __call__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"arithmetic functions take integer n >= 1, got {n!r}")
        self._ensure(n)
        return self._vals[n]

    def values(self, limit: int) -> list:
        """Return [0, g(1), ..., g(limit)]; index 0 is a placeholder zero."""
        if limit < 0:
            raise ValueError(f"values need a limit >= 0, got {limit}")
        self._ensure(limit)
        return self._vals[: limit + 1]

    def __repr__(self):
        return f"ArithFn({self.label})"


def one() -> ArithFn:
    """g(n) = 1."""
    return ArithFn("one", lambda L: [0] + [1] * L)


def identity() -> ArithFn:
    """g(n) = n."""
    return ArithFn("id", lambda L: list(range(L + 1)))


def square() -> ArithFn:
    """g(n) = n**2."""
    return ArithFn("square", lambda L: [n * n for n in range(L + 1)])


def sigma() -> ArithFn:
    """g(n) = sigma(n), the sum of divisors."""
    return ArithFn("sigma", divisor_sigma_sieve)


def sigma_k(power: int) -> ArithFn:
    """g(n) = sigma_power(n), the sum of divisor powers."""
    if power < 0:
        raise ValueError("sigma_k needs an integer power >= 0")
    label = f"sigma_k={power}"
    return ArithFn(label, lambda L: divisor_sigma_sieve(L, power))


def from_table(values, label: str = "custom", *, key: str | None = None) -> ArithFn:
    """Build a finite-table function from values [g(1), g(2), ...].

    The one place a table's values are checked and made exact: each is an
    int, a Fraction or a 'p/q' string (a float raises), stored as an int
    where it is integral and as a Fraction elsewhere.  The table is the
    whole domain: asking past the end raises, and an empty table raises
    naming its label.  g(1) must be 1, as ArithFn checks for every function.
    """
    vals = [0] + [_ratio(_fraction(v, "table value")) for v in values]
    return ArithFn(label, lambda L: vals[: L + 1], key=key, limit=len(vals) - 1)


def tilde(fn: ArithFn) -> ArithFn:
    """The normalization g(n)/n of fn, exact fractions."""

    def fill(limit):
        base = fn.values(limit)
        return [0] + [_ratio(base[n], n) for n in range(1, limit + 1)]

    return ArithFn(
        f"tilde({fn.label})", fill, key=f"tilde.{fn.key}", limit=fn._limit
    )


def moebius_convolve(fn: ArithFn, limit: int) -> ArithFn:
    """The Moebius transform f = mu * g of fn, tabulated for n <= limit.

    f(n) = sum over divisors d of n of mu(d) * g(n/d).  Inverts the
    divisor-sum transform: summing f over divisors gives back g.
    """
    mu = moebius_sieve(limit)
    g = fn.values(limit)
    f = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if mu[d] == 0:
            continue
        for n in range(d, limit + 1, d):
            f[n] += mu[d] * g[n // d]
    return from_table(f[1:], label=f"mu*{fn.label}", key=f"mu.{fn.key}")


def _fraction(v, what: str) -> Fraction:
    """v as a Fraction (v itself if it is one); a float raises instead of
    turning into the binary fraction it stores (0.1 would be
    3602879701896397/36028797018963968)."""
    if isinstance(v, float):
        raise ValueError(f"{what} {v!r} is a float; give an int, a Fraction or a 'p/q' string")
    return v if isinstance(v, Fraction) else Fraction(v)


def _integers(values) -> tuple[list[int], int]:
    """(ints, d) with values[k] = ints[k] / d, d the lcm of the denominators
    of the int and Fraction values.  For d = 1 nothing is multiplied: the
    ints are the values' own numerators (int.numerator is the int itself)."""
    d = math.lcm(*{v.denominator for v in values})
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _ratio(num, den=1):
    """num / den exactly, for int or Fraction num and nonzero int den: an
    int where the value is integral, a Fraction elsewhere."""
    v = Fraction(num, den)
    return v.numerator if v.denominator == 1 else v
