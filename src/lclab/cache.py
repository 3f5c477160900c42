"""On-disk cache of built triangles.

One file per family (g, h), named by entry_name(g.key, h), holding the
last full build written, schema 4.  The file is lines of ASCII text:

    {"g": ..., "g_label": ..., "h": ..., "kind": "triangle", "n_max": N, "schema": 4}
    <row 0>
    ...
    <row N>
    sha256 <hex digest of every byte above this line>

The header is json.dumps with sorted keys, which escapes any newline in a
label, so it is always one line.  Row line n holds the stored entries
B(n, m), comma-separated, each factored by its gcd with the row scale L_n
(n! for h = id, 1 for h = one).  For B = P/Q in lowest terms (Q = 1 for
an int), d = gcd(P, L_n) and p = P/d, the cell is written in hex as "p",
"p*d", "p/Q" or "p*d/Q", with "*d" left out when d = 1 and "/Q" when
Q = 1; a zero is "0".  Then B = p d / Q, and A(n, m) = B / L_n is
p / (L_n Q / d) in lowest terms, as gcd(P, Q) = 1, so a hit prints the
exact values with one exact division per cell and no gcd.  For h = one,
d = 1 and each cell is B in hex, the schema-3 cell.  Hex converts in
linear time both ways and is not subject to CPython's limit on decimal
int/str conversion.

A save writes each line into a temp file and the digest as the row is
encoded, appends the trailer and renames the file into place atomically,
so a crash mid-write never leaves a half-file behind.

A load reads the file twice through one open file object, so an entry
replaced between the two passes cannot swap its bytes.  Pass 1
(_parse_entry) reads the header with a bounded readline, hashes every
row line, decodes only the rows it was asked for, and reads at most one
trailer's length plus one byte, so trailing bytes fail the check.  Row
lines are read in pieces of at most _CHUNK bytes, and their commas
counted as they come: row n has max(n, 1) cells, so a line with more
fails before it is held whole, and one with fewer fails at its end,
whatever the checksum says.  Each requested cell must decode, with
d >= 1, Q >= 1 and d dividing L_n Q, so that the render can neither fail
nor divide inexactly once it has begun.  Any other file raises CacheError
naming the first problem: not a schema-4 entry, another schema, another
family, a malformed line, a bad cofactor or a checksum mismatch.  Pass 2
(CachedRows.rows) seeks back to the start and decodes the requested rows
again, one at a time, for the render, so a hit holds one decoded row and
never the triangle.  No file is read whole, a damaged one included.

The trust model: the checksum guards the bytes, and pass 1 guards what
the render relies on.  That each cell is in lowest terms (gcd(p, L_n Q /
d) = 1) is the writer's invariant, which tests/test_cache.py pins, and is
not checked on a load.

Rows of the recursion do not depend on later rows, so the stored build
serves every request up to its size, truncated.  A larger request finds
no usable entry; the caller rebuilds and saves, which replaces the file,
as it does after a corrupt entry.  The last writer wins.  The name keeps
the ".json" suffix of the schema-1 and schema-2 layouts (one JSON object
each), so an entry an earlier version left under it, a schema-3 entry
too, is replaced in place by the first rebuild.  Files named
"triangle-<g>-<h>-n<N>.json", written by earlier versions with one file
per size, are never read and can be deleted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import tempfile
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterator

from .arith import ArithFn
from .triangles import Triangle

SCHEMA_VERSION = 4
ENV_VAR = "LCLAB_CACHE"

_HEADER_CAP = 1 << 16  # bytes; a longer first line is not a header
_CHUNK = 1 << 15  # bytes of a row line read at a time


class CacheError(Exception):
    """A cache entry exists but cannot be trusted."""


def _safe(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]", "_", token)


def entry_name(g_key: str, h: str) -> str:
    return f"triangle-{_safe(g_key)}-{h}.json"


def factored(b, scale: int) -> tuple[int, int, int]:
    """(p, d, Q) of a stored entry b = P/Q (Q = 1 for an int) in a row of
    scale L: d = gcd(P, L) and p = P/d, so that b = p d / Q and b / L is
    p / (L Q / d) in lowest terms.  A zero is (0, 1, 1)."""
    num = b.numerator
    d = math.gcd(num, scale) if num else 1
    return (num, 1, b.denominator) if d == 1 else (num // d, d, b.denominator)


def factored_rows(tri: Triangle) -> Iterator[list[tuple[int, int, int]]]:
    """Each row of tri as its factored cells, one row at a time."""
    for n in range(tri.n_max + 1):
        scale = tri.scale(n)
        yield [factored(b, scale) for b in tri.row_scaled(n)]


def _encode(p: int, d: int, q: int) -> str:
    """The cell text of a factored entry."""
    text = f"{p:x}" if d == 1 else f"{p:x}*{d:x}"
    return text if q == 1 else f"{text}/{q:x}"


def _cells(line: bytes) -> list[tuple[int, int, int]]:
    """The factored cells (p, d, Q) of one row line, without its newline;
    ValueError when a field is not hex."""
    cells = []
    for cell in line.split(b","):
        value, slash, q = cell.partition(b"/")
        p, star, d = value.partition(b"*")
        cells.append((int(p, 16), int(d, 16) if star else 1, int(q, 16) if slash else 1))
    return cells


def save_triangle(directory, tri: Triangle) -> Path:
    """Write tri to the cache directory, atomically, one row at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / entry_name(tri.g.key, tri.h)
    head = {"g": tri.g.key, "g_label": tri.g.label, "h": tri.h, "kind": "triangle",
            "n_max": tri.n_max, "schema": SCHEMA_VERSION}
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            digest = hashlib.sha256()
            rows = (",".join([_encode(*cell) for cell in row]).encode() for row in factored_rows(tri))
            for line in chain([json.dumps(head, sort_keys=True).encode()], rows):
                for piece in (line, b"\n"):
                    digest.update(piece)
                    fh.write(piece)
            fh.write(b"sha256 %s\n" % digest.hexdigest().encode())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


class CachedRows:
    """Rows 0..n_max of a cache hit, verified by pass 1 and decoded again,
    one row at a time, by rows() (pass 2) from the same open file.  It
    has the g, h, n_max and scale(n) of a Triangle, but no stored rows.
    A context manager; leaving it closes the file."""

    scale = Triangle.scale  # L_n, the common denominator of row n

    def __init__(self, g: ArithFn, h: str, n_max: int, fh: BinaryIO):
        self.g = g
        self.h = h
        self.n_max = n_max
        self._fh = fh

    def rows(self) -> Iterator[list[tuple[int, int, int]]]:
        """Each requested row as its factored cells (p, d, Q), read and
        decoded as it is asked for; nothing is held past its row."""
        fh = self._fh
        fh.seek(0)
        fh.readline(_HEADER_CAP)
        for _ in range(self.n_max + 1):
            yield _cells(fh.readline()[:-1])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> CachedRows:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> CachedRows | None:
    """Pass 1 over the entry at path: the verified rows 0..n_max, or None
    when it holds a smaller build.  Every line goes through the digest,
    and only rows up to n_max are decoded, each cell with its cofactor
    checked.  Raises CacheError naming the first problem."""

    def unusable(problem: str) -> CacheError:
        return CacheError(f"{path.name}: {problem}")

    with contextlib.ExitStack() as opened:
        try:
            fh = opened.enter_context(open(path, "rb"))
            hit = _verify(fh, unusable, g, h, n_max)
        except OSError as exc:
            raise unusable(f"unreadable ({exc})") from exc
        if not hit:
            return None
        opened.pop_all()  # pass 2 reads on from the same open file
    return CachedRows(g, h, n_max, fh)


def _verify(fh: BinaryIO, unusable, g: ArithFn, h: str, n_max: int) -> bool:
    """Pass 1 of _parse_entry over the open file fh: whether the entry
    holds rows 0..n_max.  Raises unusable(problem) on the first problem."""
    line = fh.readline(_HEADER_CAP)
    digest = hashlib.sha256(line)
    try:  # an older entry is one line of JSON, too long or without a newline
        head = json.loads(line) if line.endswith(b"\n") else None
    except (ValueError, RecursionError):
        head = None
    if not isinstance(head, dict):
        raise unusable(f"not a schema-{SCHEMA_VERSION} cache entry")
    if head.get("schema") != SCHEMA_VERSION:
        raise unusable(f"schema {head.get('schema')!r}, expected {SCHEMA_VERSION}")
    stored = head.get("n_max")
    if head.get("kind") != "triangle" or type(stored) is not int:
        raise unusable("malformed entry")
    if (head.get("g"), head.get("h")) != (g.key, h):
        raise unusable(
            f"cached family ({head.get('g')!r}, {head.get('h')!r}), expected ({g.key!r}, {h!r})"
        )
    scale = 1  # L_n of row n, while n <= n_max
    for n in range(stored + 1):
        keep = stored >= n_max and n <= n_max
        commas, parts = max(n, 1) - 1, []  # row n has max(n, 1) cells
        while chunk := fh.readline(_CHUNK):
            digest.update(chunk)
            commas -= chunk.count(b",")
            if commas < 0:
                raise unusable("malformed entry")
            if keep:
                parts.append(chunk)
            if chunk.endswith(b"\n"):
                break
        if commas or not chunk.endswith(b"\n"):
            raise unusable("malformed entry")
        if keep:
            if h == "id" and n > 1:
                scale *= n
            try:
                cells = _cells(b"".join(parts)[:-1])
            except ValueError:
                raise unusable("malformed entry") from None
            for _, d, q in cells:  # each d >= 1 divides L_n Q, so the render divides exactly
                if q < 1:
                    raise unusable("malformed entry")
                if d < 1 or (scale if q == 1 else scale * q) % d:
                    raise unusable(f"bad cofactor in row {n}")
    trailer = b"sha256 %s\n" % digest.hexdigest().encode()
    if fh.read(len(trailer) + 1) != trailer:
        raise unusable("checksum mismatch")
    return stored >= n_max


def load_triangle(directory, g: ArithFn, h: str, n_max: int) -> CachedRows | None:
    """Rows 0..n_max of the cached (g, h) build, verified, for a render to
    read once (CachedRows), or None when there is no entry or it holds a
    smaller build.  Raises CacheError when the entry cannot be trusted."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    path = Path(directory) / entry_name(g.key, h)
    if not path.exists():
        return None
    return _parse_entry(path, g, h, n_max)
