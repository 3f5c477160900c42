"""Closed forms for whole rows of built triangles.

For a family (g, h) the stored row n evaluates to

    R_n(x) = sum over m of B(n, m) x^m = L_n P_n(x),

with L_n = n! when h = id and 1 when h = one.  For the families below
R_n(x) has a closed form at integer x, so every row of a full-size build
can be checked in O(n_max^2) small-operand steps.  Nothing here shares
code with the triangle recursion: the right-hand sides come from the
generating functions.

- (sigma, id), the D'Arcais polynomials: sum P_n(x) q^n = prod (1 - q^k)^(-x),
  so R_n(1) = n! p(n); R_n(-1) = n! times Euler's pentagonal coefficient,
  (-1)^k at n = k(3k -+ 1)/2 and 0 elsewhere; R_n(-3) = n! times Jacobi's
  coefficient, (-1)^k (2k+1) at n = k(k+1)/2 and 0 elsewhere
  (Andrews, The Theory of Partitions, ch. 1-2).
- (one, id): R_n(x) is the rising factorial x (x+1) ... (x+n-1).
- (one, one): P_n(x) = x (x+1)^(n-1), so R_n(1) = 2^(n-1).
- (id, one): R_n(1) = F(2n), a Fibonacci number.
"""

from __future__ import annotations

import math

from lclab.partitions import count_partitions


def row_sums(tri, x: int) -> list[int]:
    """R_n(x) for n = 0..tri.n_max, by Horner's rule on the stored row."""
    sums = [1]
    for n in range(1, tri.n_max + 1):
        acc = 0
        for b in reversed(tri.row_scaled(n)):
            acc = (acc + b) * x
        sums.append(acc)
    return sums


def _partition_numbers(n_max: int) -> list[int]:
    # one bounded-part table for every n at once; count_partitions runs the
    # same table once per n, which is cubic over all rows
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    assert ways[n_max] == count_partitions(n_max)
    return ways


def _pentagonal(n_max: int) -> list[int]:
    """Coefficients of prod (1 - q^k)."""
    coeffs = [1] + [0] * n_max
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        for n in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if n <= n_max:
                coeffs[n] = (-1) ** k
        k += 1
    return coeffs


def _jacobi(n_max: int) -> list[int]:
    """Coefficients of prod (1 - q^k)^3."""
    coeffs = [0] * (n_max + 1)
    k = 0
    while k * (k + 1) // 2 <= n_max:
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return coeffs


def _rising(x: int, n_max: int) -> list[int]:
    out = [1]
    for i in range(n_max):
        out.append(out[-1] * (x + i))
    return out


def expected_row_sums(g_label: str, h: str, n_max: int) -> dict[int, list[int]]:
    """{x: [R_n(x) for n = 0..n_max]} from the closed forms above."""
    if (g_label, h) == ("sigma", "id"):
        fac = [math.factorial(n) for n in range(n_max + 1)]
        coeffs = {1: _partition_numbers(n_max), -1: _pentagonal(n_max), -3: _jacobi(n_max)}
        return {x: [f * c for f, c in zip(fac, cs)] for x, cs in coeffs.items()}
    if (g_label, h) == ("one", "id"):
        return {x: _rising(x, n_max) for x in (1, 2, 5, -1, -4)}
    if (g_label, h) == ("one", "one"):
        return {1: [1] + [2 ** (n - 1) for n in range(1, n_max + 1)]}
    if (g_label, h) == ("id", "one"):
        fib = [0, 1]
        while len(fib) <= 2 * n_max:
            fib.append(fib[-1] + fib[-2])
        return {1: [1] + [fib[2 * n] for n in range(1, n_max + 1)]}
    raise ValueError(f"no row identity on record for ({g_label}, {h})")


def row_identity_mismatches(tri) -> list[tuple[int, int]]:
    """(x, n) for every row n of tri whose R_n(x) misses its closed form."""
    mismatches = []
    for x, want in expected_row_sums(tri.g.label, tri.h, tri.n_max).items():
        got = row_sums(tri, x)
        mismatches += [(x, n) for n, (a, b) in enumerate(zip(got, want)) if a != b]
    return mismatches
