"""Coefficient triangles of recursively defined polynomial families.

For an arithmetic function g (g(1) = 1) and a weight h that is either the
constant 1 or the identity, the family P_0 = 1,

    P_n(x) = (x / h(n)) * sum over k = 1..n of g(k) P_(n-k)(x),

has P_n(x) = sum over m = 1..n of A(n, m) x^m.  The triangle of the A(n, m)
is what everything else in this package consumes.

Rows are stored integer-scaled: the entry kept for (n, m) is
B(n, m) = L_n * A(n, m) with L_n = product of h(k) for k <= n (so n! when
h = id, 1 when h = one).  In the scaled form the recursion is Horner's
rule over the rows j = m-1 .. n-1 of column m-1,

    acc <- acc * h(j) + g(n-j) * B(j, m-1),    B(n, m) = final acc,

so every product has one small operand and the row scale is never
stored.  iter_columns, its one evaluation, runs it in blocks of _BLOCK
consecutive rows [s, e), s = m-1, m-1+_BLOCK, ..., the last cut at
e = n_max+1.  Once per column each block gets the weighted entries
qb(j) = B(j, m-1) h(j+1)...h(e-1), the block weight P = h(s)...h(e-1)
and, for each of its rows r, W(r) = h(r)...h(e-1).  The entry of row r
runs Horner over the blocks up to and including the one that holds r,

    acc <- acc * P + sum over j in [s, e), j < r, of g(r-j) qb(j),

and ends at B(r, m) W(r): each weight h(j+1)...h(r-1) of a row j < r has
picked up the factors h(r)...h(e-1).  So B(r, m) = acc / W(r), one exact
division per entry.  _next_column takes the blocks once, in order, and
adds each into the acc of every row from its own on, so a row is done
when its own block is.  h(0) weighs no entry and is taken as 1, so that
W(0) is not 0 at m = 1.  For h = one the weights are 1: there is one
block, from row m-1 to n_max, and no division.  Each term is one product
of a value of g with an entry, summed in C, and the weights grow an
operand by at most _BLOCK log2 n bits.

For m far below n most of each B(j, m-1) = j! A(j, m-1) is row scale that
a block's qb share.  So for h = id, if m _BLOCK <= n_max, each block takes
f = gcd(first qb, last qb, f' P), f' the last block's f (1 at first), cut
down to divide each qb, packs qb / f and steps acc <- acc R + (its sum
over qb / f), R = f' P / f an integer, so f acc is the acc above and
B(r, m) = f acc / W(r).  Per (sigma, id) column the time over f = 1 is
0.56 at m <= 8, 0.94 at m 25-32, 1 from m 57 (n = 1025); 0.82 at m <= 8,
1.09 at m 25-32 (n = 300); 1.03-1.08 at m 5-12 (n = 200).

Those sums run in lanes: one sum serves the _LANES rows n .. n+_LANES-1
of a lane group, n = m-1, m-1+_LANES, ...  A block's qb, x(j) for j in
[s, e) and zero outside, is packed at a lane width of K bits,

    X(i) = sum over lanes t < _LANES of x(i+t) 2^(tK),    i >= s-_LANES+1,

and then, putting j = i+t in lane t,

    sum over i < n of g(n-i) X(i) = sum over t of c(t) 2^(tK),
    c(t) = sum over j < n+t of g(n+t-j) x(j),

which is row n+t's sum over the block.  Since _LANES divides _BLOCK and
the groups start at m-1, no group straddles a block edge, so the rows of
a group share their blocks, and each lane runs its own Horner step
acc * P + c(t) and its own division by W.  _next_column picks K so that
every |c(t)| < 2^(K-1) and adds 2^(K-1) to every lane of the sum, so each
lane holds the digit c(t) + 2^(K-1) in [0, 2^K) and is read back on its
own: bits tK .. tK+K-1, less 2^(K-1).  Every product is still small-by-big,
a value of g times a packed entry, so the limb work is that of _LANES
separate sums, but the count of bigint operations, each of which
allocates an int, falls by a factor of _LANES.  When every value of g is
1, the steps before j = n-1 sum to B(n-1, m), so the entry is one step
from there: that is the Stirling rule B(n, m) = (n-1) B(n-1, m) +
B(n-1, m-1) for h = id and Pascal's rule for h = one.  build_triangle
collects the columns into rows, and exact rational values are recovered
on demand by dividing by L_n.

The loop runs on the integer table D g, with D the lcm of g's
denominators (arith._integers; an integer g is the case D = 1).  Every
entry of column m is a sum of products of exactly m values of g, so on
D g alone column m would be the true column times D^m.  For D > 1 the run
keeps each column as an integer vector times one rational factor
instead: after each column it divides the vector by its content (the gcd
of its entries) and moves that content into the factor, so the integers
stay the size of the true values.  Entries come out as int where integral
and as Fraction elsewhere.  row_at puts the row over one denominator the
same way: P_n(p/q) is one Horner pass on ints, then one division.

Two independent generating-function routes reproduce the same rows:
exp(x E(T)) when h = id and 1 / (1 - x G(T)) when h = one, with E and G the
series of g(n)/n and g(n).  A third route goes through the Euler product
prod (1 - T^n)^(-x f(n)/n) with f = mu * g.  The crosscheck functions here
compare those routes against the recursion and never share code with it.
Next to convert, harmonic_column_identity checks the closed forms of the
(one, id) columns 1 and 2 against stirling and the converted triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import (
    ArithFn, harmonic, identity, moebius_convolve, one, square, tilde,
    _fraction, _integers, _ratio,
)
from .series import Series, eichler_integral, euler_product
from .stirling import stirling_first

_H_KINDS = ("one", "id")
_BLOCK = 32  # rows per block of the h = id column kernel (measured: 64 is as fast, 16 slower)
_LANES = 4  # rows per packed sum of the column kernel; divides _BLOCK; _pack assumes 4


class Poly:
    """Dense polynomial with exact coefficients, ascending powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_fraction(c, "coefficient") for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs or [Fraction(0)]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, m: int) -> Fraction:
        if m < 0:
            raise IndexError("negative power")
        return self.coeffs[m] if m <= self.degree else Fraction(0)

    def __call__(self, x):
        """p(x) by Horner in Fractions: the oracle of Triangle.row_at (ints)."""
        x = _fraction(x, "x")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


@dataclass
class CheckResult:
    """Outcome of a dual-route comparison."""

    name: str
    passed: bool
    checked: int = 0
    first_mismatch: tuple | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "note": self.note,
        }


def _crosscheck(name: str, cells, describe, note: str) -> CheckResult:
    """The one verdict loop behind the dual-route crosschecks: cells yields
    (position, value, other), the two routes' values at each compared
    position in order.  The first position where they differ fails the
    check with the note describe(value, other); `note` describes a pass."""
    checked = 0
    for position, value, other in cells:
        checked += 1
        if value != other:
            return CheckResult(name, False, checked, position, describe(value, other))
    return CheckResult(name, True, checked, note=note)


class Triangle:
    """Integer-scaled coefficient triangle of one family (g, h).

    Row n holds the scaled entries for m = 1..n; row 0 is the single seed
    entry A(0, 0) = 1.  value()/row_values() give the exact coefficients,
    scaled()/row_scaled()/column() the raw stored entries.
    """

    m_max = None  # for the build hook of perfbench/layers.py only (ROADMAP item 8b)

    def __init__(self, g: ArithFn, h: str, rows: list[list]):
        _check_family(h, len(rows) - 1)
        self.g = g
        self.h = h
        self._rows = rows
        self.n_max = len(rows) - 1

    def scale(self, n: int) -> int:
        """L_n, the common denominator of row n."""
        return math.factorial(n) if self.h == "id" else 1

    def scaled(self, n: int, m: int):
        """L_n * A(n, m); zero outside the triangle."""
        if n < 0 or n > self.n_max:
            raise IndexError(f"row {n} outside triangle (n_max = {self.n_max})")
        if n == 0:
            return 1 if m == 0 else 0
        if m < 1 or m > n:
            return 0
        return self._rows[n][m - 1]

    def value(self, n: int, m: int) -> Fraction:
        """The exact coefficient A(n, m)."""
        return Fraction(self.scaled(n, m)) / self.scale(n)

    def row_scaled(self, n: int) -> list:
        if n < 0 or n > self.n_max:
            raise IndexError(f"row {n} outside triangle (n_max = {self.n_max})")
        return list(self._rows[n])

    def column(self, m: int) -> list:
        """Column m over n = 0..n_max, scaled; all zero past the triangle."""
        if m <= 0:
            return [int(m == 0)] + [0] * self.n_max
        head = [0] * min(m, self.n_max + 1)
        return head + [self._rows[n][m - 1] for n in range(m, self.n_max + 1)]

    def row_values(self, n: int) -> list[Fraction]:
        ln = self.scale(n)
        return [Fraction(b) / ln for b in self.row_scaled(n)]

    def row_at(self, n: int, x) -> Fraction:
        """P_n(x), equal to row_poly(n)(x).  With x = p/q in lowest terms and
        row n as integers C_m over one denominator d (arith._integers),
        P_n(x) = sum of C_m p^m q^(n-m) / (q^n L_n d): one Horner pass on
        ints and one division at the end."""
        row, d = _integers(self.row_scaled(n))
        return _at(row, self.scale(n) * d, n, _fraction(x, "x"))

    def row_poly(self, n: int) -> Poly:
        """P_n as a polynomial."""
        if n == 0:
            return Poly([1])
        return Poly([Fraction(0)] + self.row_values(n))

    def __repr__(self):
        return f"Triangle(g={self.g.label}, h={self.h}, n_max={self.n_max})"


def _at(row: list[int], den: int, n: int, x: Fraction) -> Fraction:
    """P_n(x) for row n of a triangle as integers over den: Triangle.row_at."""
    p, q = x.numerator, x.denominator
    acc, ppow = 0, p if n else 1  # row 0 holds the constant term only
    for c in row:  # acc <- acc q + C_m p^m, m ascending
        acc = acc * q + c * ppow
        ppow *= p
    return Fraction(acc, q**n * den)


def _check_family(h: str, n_max: int) -> None:
    if h not in _H_KINDS:
        raise ValueError(f"h must be one of {_H_KINDS}, got {h!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


def iter_columns(g: ArithFn, h: str, n_max: int):
    """Yield the stored columns m = 1..n_max of (g, h), each a new list of
    B(n, m) over n = 0..n_max: the one evaluation of the recursion, from the
    seed column [1, 0, ..., 0].  Arguments are checked, and g's values
    fetched, on the call, not on the first next()."""
    _check_family(h, n_max)
    dg, d = _integers(g.values(n_max))
    return _columns(dg, d, h == "id", n_max)


def _columns(dg: list, d: int, weighted: bool, n_max: int):
    """Columns of g = dg / d for an integer table dg: the kernel runs on dg,
    and column m is the integer vector col times a rational factor, 1 for
    d = 1.  For d > 1 each step divides the factor by d and moves the
    content of col into it (see the module docstring)."""
    ones = all(v == 1 for v in dg[1:])  # never when d > 1, as dg[1] = d
    col, factor = [1] + [0] * n_max, Fraction(1)
    for m in range(1, n_max + 1):
        col = _next_column(col, dg, weighted, ones, m, weighted and m * _BLOCK <= n_max)
        if d == 1:
            yield col[:]  # the next step reads col
            continue
        content = math.gcd(*col)
        if content > 1:
            col = [b // content for b in col]
        factor *= Fraction(content, d)
        fn, fd = factor.numerator, factor.denominator
        yield [0] * m + [_ratio(b * fn, fd) for b in col[m:]]  # B(n, m) = 0 for n < m


def _next_column(
    prev: list, gvals: list, weighted: bool, ones: bool, m: int, factored: bool
) -> list:
    """Column m from column m-1 (prev); ones says every value of g is 1.
    Otherwise it walks the blocks of the module docstring once, in order,
    and holds one block's packed sums at a time: each lane group at or
    after the block takes the block's sum in one Horner step per lane.
    The column starts at zeros.  Between blocks col[r] holds B(r, m) for
    the rows of the blocks done and row r's acc over those blocks for the
    later rows.  A row takes no term from a later block, so its acc is
    final once its own block is in, and for h = id it is divided by W(r)
    then.  The last group may run past n_max: its slice of col is then
    shorter than _LANES, zip drops the lanes of the rows past n_max, and
    the slice assignment puts back as many entries as it took out.

    The lane width is K = bits(G max |x|) + 1, with G the sum of |g(k)| over
    k = 1..n_max and x the packed run, one block's qb.  Lane t holds
    c(t) = sum of g(n+t-j) x(j), one term per j, so the k = n+t-j are
    distinct, and |c(t)| <= G max |x| < 2^(K-1); past n_max the table
    reads as zero, so lanes of rows past the last obey the same bound.  The
    group's sum starts at the bias, 2^(K-1) in every lane, so it is
    V = sum of (c(t) + 2^(K-1)) 2^(tK), and the bound puts every digit
    c(t) + 2^(K-1) in [0, 2^K): V is a plain base-2^K number, no lane
    carries into or borrows from the next, and c(t) is bits tK .. tK+K-1
    of V less 2^(K-1).  The bound holds for any sign of g and of the
    entries, so negative tables and the D g table of the content path need
    nothing more."""
    n_max = len(prev) - 1
    if ones:  # the steps j < n-1 add up to B(n-1, m)
        col = [0] * (n_max + 1)
        for n in range(m, n_max + 1):
            col[n] = col[n - 1] * (n - 1 if weighted else 1) + prev[n - 1]
        return col
    rg = [0] * _LANES + gvals[:0:-1]  # rg[_LANES + n_max - k] = g(k): 0 past n_max, none for k < 1
    gsum = sum(map(abs, gvals))
    col, step = [0] * (n_max + 1), _BLOCK if weighted else n_max + 1  # h = one: one block
    f = 1  # factored: the accs of the rows past the blocks done are in units of f
    for s in range(m - 1, n_max + 1, step):  # the blocks [s, e)
        e = min(s + step, n_max + 1)
        qb, ws, p = prev[s:e], [], 1
        if weighted:
            for j in range(e - 1, s - 1, -1):  # p = h(j+1)...h(e-1)
                qb[j - s] *= p
                p *= j or 1  # h(0) weighs no entry; 1 keeps W(0) nonzero at m = 1
                ws.append(p)
        if factored:  # f divides qb and f' p, f' the last block's f; p becomes R = f' p / f
            f = math.gcd(qb[0], qb[-1], fp := f * p)
            for i, x in enumerate(qb):
                q, rem = divmod(x, f)
                if rem:  # shrink f to divide x too, and rescale the quotients before x
                    c = math.gcd(f, x)
                    qb[:i], f, q = [y * (f // c) for y in qb[:i]], c, x // c
                qb[i] = q
            p = fp // f
        packed, width = _pack(qb, gsum)
        mask, half = (1 << width) - 1, 1 << (width - 1)
        shifts = range(0, _LANES * width, width)
        bias = sum(half << t for t in shifts)  # half in every lane
        for n in range(s, n_max + 1, _LANES):  # no group straddles a block edge
            lo = n_max - n + s + 1  # packed[i] is X(s-_LANES+1+i), so it takes rg[lo + i]
            v = sum(map(mul, rg[lo : lo + len(packed)], packed), bias)
            col[n : n + _LANES] = [
                acc * p + ((v >> t & mask) - half) for acc, t in zip(col[n : n + _LANES], shifts)
            ]
        if factored:  # B(r, m) = f acc / W(r), exactly
            col[s:e] = [f * acc // w for acc, w in zip(col[s:e], reversed(ws))]
        elif weighted:  # B(r, m) = acc / W(r), exactly
            col[s:e] = [acc // w for acc, w in zip(col[s:e], reversed(ws))]
    return col


def _pack(run: list, gsum: int) -> tuple[list, int]:
    """The lane-packed form of a run of entries x(s), x(s+1), ... of a
    column, in one pass over _LANES shifted views of it padded with zeros:
    the sums over lanes t of x(i+t) << t K for i = s-_LANES+1 .. s+len(run)-1,
    with the lane width K = bits(gsum * max |x|) + 1 (_next_column)."""
    width = (gsum * max(max(run), -min(run))).bit_length() + 1
    ext = [0] * (_LANES - 1) + run + [0] * (_LANES - 1)
    w2, w3 = 2 * width, 3 * width
    views = zip(ext, ext[1:], ext[2:], ext[3:])
    return [a + (b << width) + (c << w2) + (d << w3) for a, b, c, d in views], width


def build_triangle(g: ArithFn, h: str, n_max: int) -> Triangle:
    """The triangle of the family (g, h) up to row n_max: the columns of
    iter_columns, collected into rows.  g's values are fetched first, so a
    size past memory fails there, before n_max + 1 row lists are made."""
    columns = iter_columns(g, h, n_max)
    rows: list[list] = [[1]] + [[] for _ in range(n_max)]
    for m, col in enumerate(columns, 1):
        for n in range(m, n_max + 1):
            rows[n].append(col[n])
    return Triangle(g, h, rows)


def convert(tri: Triangle) -> Triangle:
    """Map an exponential-family triangle to its geometric twin.

    A(n, m) for (g, id) turns into m! A(n, m) for (g(n)/n, one).  The
    result is computed from the input rows, not rebuilt, so comparing it
    against an independently built triangle is a real consistency check.
    """
    if tri.h != "id":
        raise ValueError("conversion starts from an h = id family")
    new_rows: list[list] = [[1]]
    mfac = [1]
    for m in range(1, tri.n_max + 1):
        mfac.append(mfac[-1] * m)
    for n in range(1, tri.n_max + 1):
        row, d = _integers(tri._rows[n])
        den = tri.scale(n) * d
        new_rows.append([_ratio(mfac[m] * c, den) for m, c in enumerate(row, 1)])
    return Triangle(tilde(tri.g), "one", new_rows)


def harmonic_column_identity(n: int) -> bool:
    """Check the factorial and harmonic closed forms of columns 1 and 2.

    S(n, 1) = (n-1)!, S(n, 2) = (n-1)! H(n-1), and in the normalized
    geometric family the m = 2 entry is 2 H(n-1) / n.  The last form is
    checked against an independently built triangle, not against S.
    """
    if n < 2:
        raise ValueError("identities need n >= 2")
    fac = math.factorial(n - 1)
    if stirling_first(n, 1) != fac:
        return False
    if stirling_first(n, 2) != fac * harmonic(n - 1):
        return False
    converted = convert(build_triangle(one(), "id", n))
    return converted.value(n, 2) == Fraction(2, n) * harmonic(n - 1)


def check_conversion(g: ArithFn, n_max: int) -> CheckResult:
    """Compare convert(build(g, id)) against an independent build of
    (g(n)/n, one), entry by entry.  Both compared triangles have h = one,
    so their stored entries are the values themselves."""
    exp_tri = build_triangle(g, "id", n_max)
    geo_tri = build_triangle(tilde(g), "one", n_max)
    mapped = convert(exp_tri)
    cells = (
        ((n, m), mapped.scaled(n, m), geo_tri.scaled(n, m))
        for n in range(1, n_max + 1) for m in range(1, n + 1)
    )
    return _crosscheck(
        "conversion", cells, lambda a, b: f"g={g.label}: mapped {a} vs built {b}",
        f"g={g.label}, n <= {n_max}",
    )


DEFAULT_EVAL_POINTS = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))


def genfun_crosscheck(g: ArithFn, h: str, n_max: int, xs=DEFAULT_EVAL_POINTS) -> CheckResult:
    """Evaluate rows at each x and compare with the generating series.

    h = id uses exp(x E(T)); h = one uses 1 / (1 - x G(T)).  Both sides are
    computed independently of the triangle recursion.
    """
    xs = [_fraction(x, "evaluation point") for x in xs]
    if not xs:
        raise ValueError("genfun needs at least one evaluation point")
    tri = build_triangle(g, h, n_max)
    rows = [_integers(tri.row_scaled(n)) for n in range(n_max + 1)]  # once, for every x

    def cells():
        for x in xs:
            if h == "id":
                s = (x * eichler_integral(g, n_max)).exp()
            else:
                s = (Series.one(n_max) - x * Series.from_arith(g, n_max)).inverse()
            for n, (row, d) in enumerate(rows):
                yield (n, x), s.coefficient(n), _at(row, tri.scale(n) * d, n, x)

    return _crosscheck(
        "genfun", cells(), lambda a, b: f"g={g.label} h={h}: series {a} vs row {b}",
        f"g={g.label} h={h}, n <= {n_max}, {len(xs)} eval points",
    )


def euler_product_crosscheck(g: ArithFn, n_max: int, x) -> CheckResult:
    """Compare the h = id family against prod (1 - T^n)^(-x f(n)/n), f = mu * g."""
    x = _fraction(x, "x")
    tri = build_triangle(g, "id", n_max)
    f = moebius_convolve(g, n_max) if n_max >= 1 else None
    exps = [0] + [-x * f(n) / n for n in range(1, n_max + 1)]
    s = euler_product(exps, n_max)
    cells = (((n,), s.coefficient(n), tri.row_at(n, x)) for n in range(n_max + 1))
    return _crosscheck(
        "euler-product", cells, lambda a, b: f"g={g.label} x={x}: product {a} vs row {b}",
        f"g={g.label}, x={x}, n <= {n_max}",
    )


# (g label, h) -> (g constructor, closed form of A(n, m)), in check order.
# A form is an int pair (p, q), A(n, m) = p / q, not always in lowest terms:
# closed_forms_check cross-multiplies the pair, and closed_form_oracle
# alone makes it a Fraction.
_CLOSED_FORMS = {
    ("one", "one"): (one, lambda n, m: (math.comb(n - 1, m - 1), 1)),
    ("id", "id"): (identity, lambda n, m: (math.comb(n - 1, m - 1), math.factorial(m))),
    ("square", "id"): (
        square, lambda n, m: (math.comb(n + m - 1, 2 * m - 1), math.factorial(m))
    ),
    ("id", "one"): (identity, lambda n, m: (math.comb(n + m - 1, 2 * m - 1), 1)),
    ("one", "id"): (one, lambda n, m: (stirling_first(n, m), math.factorial(n))),
    ("tilde(one)", "one"): (
        lambda: tilde(one()),
        lambda n, m: (math.factorial(m) * stirling_first(n, m), math.factorial(n)),
    ),
}


def closed_form_oracle(g_label: str, h: str, n: int, m: int) -> Fraction:
    """Known closed form of A(n, m) for the six classic families.

    Keyed by (g label, h): one/one and id/one are binomial, id/id and
    square/id are binomial over m!, one/id is Stirling over n!, and
    tilde(one)/one is m! Stirling over n!.  Raises on out-of-range (n, m)
    or an unknown family.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n} m={m}")
    key = (g_label, h)
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed form on record for {key}")
    return Fraction(*_CLOSED_FORMS[key][1](n, m))


def closed_forms_check(n_max: int) -> CheckResult:
    """Build all six classic families and compare every entry with its
    closed form: B(n, m) = L_n p / q for the closed form's pair (p, q),
    checked as B(n, m) q = p L_n."""

    def cells():  # each value carries its family, which names a failure
        for (g_label, h), (make_g, form) in _CLOSED_FORMS.items():
            tri = build_triangle(make_g(), h, n_max)
            family = f"family ({g_label}, {h})"
            for n in range(1, n_max + 1):
                ln = tri.scale(n)
                for m, b in enumerate(tri.row_scaled(n), 1):
                    p, q = form(n, m)
                    yield (n, m), (family, b * q), (family, p * ln)

    return _crosscheck("closed-forms", cells(), lambda a, b: a[0], f"6 families, n <= {n_max}")
