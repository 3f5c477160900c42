"""Integer partitions, hook lengths, and hook-length polynomials.

Partitions stream in descending lexicographic order as tuples of parts
(largest first), by the successor rule: the parts above 1 are a list and
the 1s a count, and each step lowers the last part above 1, k + 1, to k
and refills k + 1 plus the 1s with as many k as fit and then the
remainder.  Memory stays O(n) no matter how many partitions there are.
Hooks come from the conjugate shape: the cell (i, j) of the diagram has
hook length lambda_i + lambda'_j - i - j - 1 (zero-based i, j).  That
length is symmetric under swapping lambda with lambda' and i with j, so
cell (i, j) of lambda and cell (j, i) of lambda' have the same hook, and a
shape and its conjugate have the same hook multiset.

The hook-length polynomial of weight n,

    Q_n(x) = sum over partitions of n of prod over cells of (x + h^2) / h^2,

has Q_n(0) = p(n) and equals the weight-n row polynomial of the divisor-sum
family shifted by one.  check_no_identity verifies that shift identity with
both sides computed through completely different pipelines (hook products
versus the coefficient recursion).

By the hook length formula, n! / prod h counts the standard Young tableaux
of the shape, so prod h divides n! and prod h^2 divides (n!)^2.  Q_n is
therefore summed in integers over the one denominator (n!)^2, with one
division per coefficient at the end.  The integer sum has nonnegative
coefficients, each at most p(n) 2^n (n!)^2, so it is found by Kronecker
evaluation: summed once at x = 2^K with K-bit slots wide enough for that
bound, one integer product per conjugate pair of shapes, and the
coefficients read back from the slots.  Conjugate shapes have equal terms,
so each pair is summed once, at its lexicographically larger shape, and
doubled; a self-conjugate shape is its own pair and counts once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .arith import _fraction, _integers, sigma
from .triangles import CheckResult, Poly, _crosscheck, build_triangle


def iter_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n as descending tuples, descending-lex order.

    The first partition is (n,), the last is (1,) * n.  p(0) = 1: the empty
    tuple is yielded once for n = 0.
    """
    if n < 0:
        raise ValueError("partitions are defined for n >= 0")
    parts, ones = ([n], 0) if n > 1 else ([], n)  # the parts above 1, the count of 1s
    while True:
        yield tuple(parts) + (1,) * ones
        if not parts:
            return
        k = parts.pop() - 1
        if k == 1:
            ones += 2
            continue
        # k + 1 and the 1s refill as many k as fit, then the remainder
        q, r = divmod(ones + k + 1, k)
        parts += [k] * q
        if r > 1:
            parts.append(r)
            ones = 0
        else:
            ones = r


def count_partitions(n: int) -> int:
    """p(n) by the bounded-part table, independent of the stream above."""
    if n < 0:
        raise ValueError("partitions are defined for n >= 0")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram: column lengths of parts."""
    if not parts:
        return ()
    conj = [0] * parts[0]
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return tuple(conj)


def hook_lengths(parts: tuple[int, ...]) -> list[int]:
    """Hook lengths of all cells, row-major.  A multiset: order is not part
    of the contract, only the counts are."""
    return _hooks(parts, conjugate(parts))


def _hooks(parts: tuple[int, ...], conj: tuple[int, ...]) -> list[int]:
    """Hook lengths of the shape parts, row-major, given its conjugate conj."""
    return [p + conj[j] - i - j - 1 for i, p in enumerate(parts) for j in range(p)]


def nekrasov_okounkov_poly(n: int) -> Poly:
    """The hook-length polynomial Q_n, by Kronecker evaluation.

    (n!)^2 Q_n(X) = sum over partitions of ((n!)^2 / prod h^2) prod (X + h^2)
    has nonnegative integer coefficients, each at most its value S at
    X = 1.  A term at X = 1 is (n!)^2 prod (1 + 1/h^2) <= (n!)^2 2^n, so
    S <= p(n) 2^n (n!)^2 < 2^K for K the bit length of p(n) (n!)^2 plus
    n + 1.  The sum is evaluated at X = 2^K, one integer product per
    conjugate pair (doubled unless the shape is self-conjugate), and
    coefficient i is read back from bits iK .. iK+K-1; then each is divided
    by (n!)^2.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    common = math.factorial(n) ** 2  # a multiple of every prod h^2
    width = (count_partitions(n) * common).bit_length() + n + 1
    x = 1 << width
    packed = 0
    for parts in iter_partitions(n):
        conj = conjugate(parts)
        if conj > parts:  # the pair is summed at the other shape
            continue
        squares = [hk * hk for hk in _hooks(parts, conj)]
        term = common // math.prod(squares) * math.prod(x + h2 for h2 in squares)
        packed += term if conj == parts else 2 * term
    mask = (1 << width) - 1
    coeffs = []
    for _ in range(n + 1):
        coeffs.append(Fraction(packed & mask, common))
        packed >>= width
    return Poly(coeffs)


def taylor_shift(p: Poly, a) -> Poly:
    """p(x + a), exact, by repeated synthetic division on ints in O(deg^2).
    With a = r/s in lowest terms and p = sum of C_k x^k / d (arith._integers),
    the shift by r of sum of C_k s^(deg-k) z^k has coefficients e_k, and
    coefficient k of p(x + a) is e_k / (d s^(deg-k))."""
    a = _fraction(a, "shift")
    c, d = _integers(p.coeffs)
    deg, r, s = len(c) - 1, a.numerator, a.denominator
    spow = [s ** (deg - k) for k in range(deg + 1)]
    c = [ck * sk for ck, sk in zip(c, spow)]
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            c[j] += r * c[j + 1]
    return Poly([Fraction(e, d * sk) for e, sk in zip(c, spow)])


def check_no_identity(n_max: int) -> CheckResult:
    """Hook-length polynomials against shifted divisor-sum rows.

    Q_n(x) must equal P_n(x + 1) for the (sigma, id) family, for every
    n <= n_max.  The left side comes from partitions and hooks only, the
    right side from the coefficient recursion plus a Taylor shift.
    """
    tri = build_triangle(sigma(), "id", n_max)

    def cells():
        for n in range(n_max + 1):
            lhs = nekrasov_okounkov_poly(n)
            rhs = taylor_shift(tri.row_poly(n), 1)
            for m in range(max(lhs.degree, rhs.degree) + 1):
                yield (n, m), lhs.coefficient(m), rhs.coefficient(m)

    return _crosscheck(
        "no-identity", cells(), lambda a, b: f"hook side {a} vs shifted row {b}", f"n <= {n_max}"
    )
