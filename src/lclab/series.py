"""Truncated power series with exact rational coefficients.

A Series holds coefficients c[0..order] of sum c_n T^n modulo T^(order+1).
Binary operations require both operands to share the same truncation order;
mixing orders silently would hide precision bugs, so it raises instead.

Coefficients are Fractions, but exp and inverse, the two kernels behind the
generating-function routes, run their O(order^2) recurrences on ints: the
n-th coefficient is held as an integer over a scale S_n, where S_(n-1)
divides S_n, so the loop over earlier coefficients is a Horner sum on ints
and each coefficient costs one gcd with a small number and one Fraction.
S_n is S_(n-1) times the part of the step's denominator that the new
numerator does not cancel, so it stays close to the lcm of the true
denominators whatever the inputs are: a fixed scale such as n! d^n would
grow by the bits of d at every step, which for a g with large lcm d (g(k)
= 1/k: d has about 290 bits at n = 200) makes the integers many times
longer than the coefficients they stand for.

The constructors from_arith and eichler_integral turn an arithmetic
function g into the two series that generate the polynomial families in
this package: G(T) = sum g(n) T^n and E(T) = sum g(n)/n T^n.  The Euler
product helper expands prod (1 - T^n)^e_n through exp and log.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import ArithFn


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
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
            order = self.order
            a, b = self.coeffs, other.coeffs
            prod = [Fraction(0)] * (order + 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j in range(order + 1 - i):
                    bj = b[j]
                    if bj:
                        prod[i + j] += ai * bj
            return Series(prod)
        return Series([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def exp(self) -> "Series":
        """exp of a series with zero constant term.

        Solved coefficient by coefficient from E' = a' E:
        n e_n = sum over k of k a_k e_(n-k).  With d the lcm of the
        denominators of the terms k a_k and P_k = d k a_k, e_j = E_j / S_j
        for integers E_j, S_j with S_(j-1) | S_j and r_j = S_j / S_(j-1).
        The Horner sum over j = 0..n-1,

            acc <- acc * r_j + P_(n-j) * E_j,

        gives e_n = acc / (n d S_(n-1)); with c = gcd(acc, n d), E_n =
        acc / c and r_n = n d / c.  So the loop runs on ints and each e_n
        costs one small gcd and one Fraction.
        """
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("exp needs constant term 0")
        order = self.order
        ka = [k * c for k, c in enumerate(a)]
        d = math.lcm(*(c.denominator for c in ka))
        p = [int(c * d) for c in ka]
        big = [1] + [0] * order  # E_n
        ratio = [1] * (order + 1)  # r_n
        e = [Fraction(1)]
        scale = 1  # S_n
        for n in range(1, order + 1):
            acc = 0
            for j in range(n):
                acc *= ratio[j]
                if p[n - j] and big[j]:
                    acc += p[n - j] * big[j]
            step = n * d
            c = math.gcd(acc, step)
            big[n], ratio[n] = acc // c, step // c
            scale *= ratio[n]
            e.append(Fraction(big[n], scale))
        return Series(e)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term.

        With a = A / d for integers A_k (d the lcm of the denominators) and
        c0 = A_0, b = d / A(T) and the coefficients of 1 / A(T) are V_n / S_n
        with V_0 = 1, S_0 = c0.  As in exp, S_(n-1) | S_n with r_n =
        S_n / S_(n-1); the Horner sum acc <- acc r_j + A_(n-j) V_j over
        j = 0..n-1 gives V_n / S_n = -acc / (c0 S_(n-1)), and with
        c = gcd(acc, c0), V_n = -acc / c and r_n = c0 / c.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("inverse needs a nonzero constant term")
        d = math.lcm(*(c.denominator for c in a))
        A = [int(c * d) for c in a]
        c0 = A[0]
        v = [1] + [0] * self.order  # V_n
        ratio = [1] * (self.order + 1)  # r_n
        scale = c0  # S_n
        b = [Fraction(d, c0)]
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(n):
                acc *= ratio[j]
                if A[n - j] and v[j]:
                    acc += A[n - j] * v[j]
            c = math.gcd(acc, c0)
            v[n], ratio[n] = -acc // c, c0 // c
            scale *= ratio[n]
            b.append(Fraction(d * v[n], scale))
        return Series(b)

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


def eichler_integral(fn: ArithFn, order: int) -> Series:
    """E(T) = sum of g(n)/n T^n for n = 1..order."""
    vals = fn.values(order)
    return Series([0] + [Fraction(vals[n], n) for n in range(1, order + 1)])


def euler_product(exponents, order: int) -> Series:
    """Expand prod over n >= 1 of (1 - T^n)^e_n modulo T^(order+1).

    Args:
        exponents: sequence where exponents[n] is e_n for 1 <= n <= order
            (position 0 is ignored).  Entries may be ints or Fractions.
        order: truncation order.

    Uses exp(sum e_n log(1 - T^n)) with the log expanded termwise, so the
    result is exact.
    """
    if len(exponents) < order + 1:
        raise ValueError(f"need exponents up to n = {order}")
    logsum = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        e_n = exponents[n]
        if not e_n:
            continue
        # log(1 - T^n) = -sum over m >= 1 of T^(n m) / m
        for m in range(1, order // n + 1):
            logsum[n * m] -= Fraction(e_n, m)
    return Series(logsum).exp()
