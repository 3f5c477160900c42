"""Truncated power series with exact rational coefficients.

A Series holds coefficients c[0..order] of sum c_n T^n modulo T^(order+1).
Binary operations require both operands to share the same truncation order;
mixing orders silently would hide precision bugs, so it raises instead.

Coefficients are Fractions, but the quadratic kernels run on ints, the
coefficients put over their lcm denominator by arith._integers.
Products convolve the two integer vectors of numerators over their lcm
denominators, with one Fraction per output coefficient.  exp and inverse,
the two kernels behind the generating-function routes, are both one
recurrence, _recurrence: the n-th coefficient is held as an integer over a
scale S_n, where S_(n-1) divides S_n, so the loop over earlier
coefficients is a Horner sum on ints and each coefficient costs one gcd
with a small number and one Fraction.  S_n is S_(n-1) times the part of
the step's denominator that the new numerator does not cancel, so it
stays close to the lcm of the true denominators whatever the inputs are:
a fixed scale such as n! d^n would grow by the bits of d at every step,
which for a g with large lcm d (g(k) = 1/k: d has about 290 bits at n =
200) makes the integers many times longer than the coefficients they
stand for.

The constructors from_arith and eichler_integral turn an arithmetic
function g into the two series that generate the polynomial families in
this package: G(T) = sum g(n) T^n and E(T) = sum g(n)/n T^n.  The Euler
product helper expands prod (1 - T^n)^e_n through exp and log.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import ArithFn, _fraction, _integers, tilde


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_fraction(c, "coefficient") for c in coeffs]
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @classmethod
    def from_arith(cls, fn: ArithFn, order: int) -> "Series":
        """G(T) = sum of g(n) T^n for n = 1..order."""
        vals = fn.values(order)
        return cls([0] + vals[1:])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{more}]; order={self.order})"

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            self._match(other)
            (a, da), (b, db) = _integers(self.coeffs), _integers(other.coeffs)
            prod = [0] * len(a)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b[: len(a) - i], i):
                        if bj:
                            prod[j] += ai * bj
            den = da * db
            return Series([Fraction(c, den) for c in prod])
        return Series([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def exp(self) -> "Series":
        """exp of a series with zero constant term, solved coefficient by
        coefficient from E' = a' E: n e_n = sum over k of k a_k e_(n-k).
        With P_k / d = k a_k over their lcm denominator d, that is
        _recurrence with p = P, divisors n d and scale 1."""
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        p, d = _integers([k * c for k, c in enumerate(a)])
        return Series(_recurrence(p, [n * d for n in range(len(p))], 1))

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = A / d over the lcm denominator d and c0 = A_0, the
        coefficients u_n of 1 / A(T) satisfy u_0 = 1 / c0 and
        c0 u_n = -sum over k of A_k u_(n-k): _recurrence with p = -A,
        divisors c0 and scale c0.  Then 1 / a = d u.
        """
        if self.coeffs[0] == 0:
            raise ValueError("inverse needs a nonzero constant term")
        A, d = _integers(self.coeffs)
        c0 = A[0]
        return Series([d * u for u in _recurrence([-c for c in A], [c0] * len(A), c0)])

    def pow_int(self, exponent: int) -> "Series":
        """Integer power by binary exponentiation (exponent >= 0)."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("pow_int takes an integer exponent >= 0")
        result = Series.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def derivative(self) -> "Series":
        """Formal derivative, truncation order drops by one."""
        if self.order == 0:
            return Series([0])
        return Series([n * c for n, c in enumerate(self.coeffs)][1:])


def _recurrence(p: list[int], divisors: list[int], scale: int) -> list[Fraction]:
    """x_0 = 1 / scale and x_n = (sum over k = 1..n of p_k x_(n-k)) /
    divisors[n] for n = 1..len(p) - 1, from integer p and nonzero integer
    divisors: the one quadratic loop behind Series.exp and Series.inverse.

    x_j is held as X_j / S_j for integers X_j, S_j with X_0 = 1, S_0 =
    scale, S_(j-1) | S_j and r_j = S_j / S_(j-1).  The Horner sum over
    j = 0..n-1,

        acc <- acc * r_j + p_(n-j) * X_j,

    gives x_n = acc / (divisors[n] S_(n-1)); with c = gcd(acc, divisors[n]),
    X_n = acc / c and r_n = divisors[n] / c.  So the loop runs on ints,
    each x_n costs one small gcd and one Fraction, and S_n grows only by
    the part of divisors[n] that the new numerator does not cancel.
    """
    big = [1] + [0] * (len(p) - 1)  # X_n
    ratio = [1] * len(p)  # r_n
    out = [Fraction(1, scale)]
    for n in range(1, len(p)):
        acc = 0
        for j in range(n):
            acc *= ratio[j]
            if p[n - j] and big[j]:
                acc += p[n - j] * big[j]
        c = math.gcd(acc, divisors[n])
        big[n], ratio[n] = acc // c, divisors[n] // c
        scale *= ratio[n]
        out.append(Fraction(big[n], scale))
    return out


def eichler_integral(fn: ArithFn, order: int) -> Series:
    """E(T) = sum of g(n)/n T^n for n = 1..order."""
    return Series.from_arith(tilde(fn), order)


def euler_product(exponents, order: int) -> Series:
    """Expand prod over n >= 1 of (1 - T^n)^e_n modulo T^(order+1).

    Args:
        exponents: sequence where exponents[n] is e_n for 1 <= n <= order
            (position 0 is ignored).  Entries may be ints or Fractions;
            a float raises.
        order: truncation order.

    Uses exp(sum e_n log(1 - T^n)) with the log expanded termwise, so the
    result is exact.
    """
    if len(exponents) < order + 1:
        raise ValueError(f"need exponents up to n = {order}")
    logsum = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        e_n = _fraction(exponents[n], f"exponent e_{n}")
        if not e_n:
            continue
        # log(1 - T^n) = -sum over m >= 1 of T^(n m) / m
        for m in range(1, order // n + 1):
            logsum[n * m] -= Fraction(e_n, m)
    return Series(logsum).exp()
