"""On-disk cache of built triangles.

One file per family (g, h), named by entry_name(g.key, h), holding the
last full build written, schema 5.  The file is lines of ASCII text:

    {"g": ..., "g_label": ..., "h": ..., "kind": "triangle", "n_max": N, "schema": 5}
    <row 0>
    ...
    <row N>
    sha256 <hex digest of every byte above this line>

The header is json.dumps with sorted keys, which escapes any newline in a
label, so it is always one line.  Row line n holds the exact values
A(n, m) = B(n, m) / L_n (L_n = n! for h = id, 1 for h = one), comma-
separated, as the render prints them: decimal, in lowest terms, "0" for
a zero.  row_text is the one place a value's text is formed, for the
save and the cold render alike, so an unscaled hit copies each row line,
with "," swapped for the format's separator: no decode, division or
str().  The (sigma, id) entry at n = 300 is 22,974,117 bytes, against
9,858,009 for the factored hex cells of schema 4.

A save writes each line into a temp file and the digest as the row is
formed, appends the trailer and renames the file into place atomically,
so a crash mid-write never leaves a half-file behind.

A load reads the file twice through one open file object, so an entry
replaced between the two passes cannot swap its bytes.  Both passes read
a row line through one reader (_line), in pieces of at most _CHUNK
bytes.  Pass 1 (_parse_entry) reads the header with a bounded readline,
hashes every row line, checks only the rows it was asked for, and reads
at most one trailer's length plus one byte, so trailing bytes fail the
check.  It counts commas as they come: row n has max(n, 1) cells, so a
line with more fails before it is held whole, and one with fewer fails
at its end, whatever the checksum says.  Each requested row must match
the cell grammar 0|-?[1-9][0-9]*(/[1-9][0-9]*)? whole (_ROW), so that
once the render has begun it writes only digits, "-" and "/" inside a
cell, and a --scaled render parses every cell, with a denominator of at
least 1.  Any other file raises CacheError naming the first problem: not
a schema-5 entry, another schema, another family, a malformed line or a
checksum mismatch.  Pass 2 (CachedRows.rows) seeks back to the start and
reads the requested rows again for the render, cut exactly as pass 1
verified them, so a hit never holds the triangle.  No file is read
whole, a damaged one included.  The checksum guards the bytes, and pass
1 what the render relies on; lowest terms is the writer's invariant,
which tests/test_cache.py pins, and is not checked on a load.

Rows of the recursion do not depend on later rows, so the stored build
serves every request up to its size, truncated.  A larger request finds
no usable entry; the caller rebuilds and saves, which replaces the file,
as it does after a corrupt entry.  The last writer wins.  The name keeps
the ".json" suffix of the schema-1 and schema-2 layouts (one JSON object
each), so an entry an earlier version left under it, a schema-3 or
schema-4 entry too, is replaced in place by the first rebuild.  Files
named "triangle-<g>-<h>-n<N>.json", written by earlier versions with one
file per size, are never read and can be deleted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterator

from .arith import ArithFn
from .triangles import Triangle

SCHEMA_VERSION = 5
ENV_VAR = "LCLAB_CACHE"

_HEADER_CAP = 1 << 16  # bytes; a longer first line is not a header
_CHUNK = 1 << 15  # bytes of a row line read at a time
_CELL = rb"(?:0|-?[1-9][0-9]*(?:/[1-9][0-9]*)?)"
_ROW = re.compile(rb"%s(?:,%s)*" % (_CELL, _CELL))  # a row line, without its newline


class CacheError(Exception):
    """A cache entry exists but cannot be trusted."""


def _safe(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]", "_", token)


def entry_name(g_key: str, h: str) -> str:
    return f"triangle-{_safe(g_key)}-{h}.json"


@contextlib.contextmanager
def unlimited_digits():
    """Lift CPython's limit on decimal int/str conversion, restoring the
    caller's limit on leaving."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def row_text(tri: Triangle, n: int) -> list[str]:
    """The cells of row n as a render prints them: each A(n, m) = B / L_n,
    decimal, in lowest terms, "0" for a zero.  For B = P/Q (Q = 1 for an
    int), one gcd(P, L_n), one exact division and one str per cell."""
    scale = tri.scale(n)
    with unlimited_digits():
        if scale == 1:
            return [str(b) for b in tri.row_scaled(n)]
        cells = []
        for b in tri.row_scaled(n):
            num = b.numerator
            d = math.gcd(num, scale) if num else scale
            den = scale // d * b.denominator
            cells.append(str(num // d) if den == 1 else f"{num // d}/{den}")
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
            rows = (",".join(row_text(tri, n)).encode() for n in range(tri.n_max + 1))
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


def scaled_cells(line: str, scale: int) -> list[str]:
    """The stored entries B = A L_n of a verified row line of scale L_n, as
    a --scaled render prints them: one parse and one divmod per cell, and
    a gcd (in Fraction) only for a B that is not an integer."""
    cells = []
    with unlimited_digits():
        for cell in line.split(","):
            p, slash, den = cell.partition("/")
            p, den = int(p), int(den) if slash else 1
            q, r = divmod(scale, den)
            cells.append(str(Fraction(p * scale, den)) if r else str(p * q))
    return cells


def _line(fh: BinaryIO) -> Iterator[bytes]:
    """The line at fh's position in pieces of at most _CHUNK bytes, the
    last ending in the newline unless the file ends first."""
    while piece := fh.readline(_CHUNK):
        yield piece
        if piece.endswith(b"\n"):
            return


class CachedRows:
    """Rows 0..n_max of a cache hit, verified by pass 1 and read again by
    rows() (pass 2) from the same open file.  It has the g, h, n_max and
    scale(n) of a Triangle, but no stored rows.  A context manager;
    leaving it closes the file."""

    scale = Triangle.scale  # L_n, the common denominator of row n

    def __init__(self, g: ArithFn, h: str, n_max: int, fh: BinaryIO):
        self.g = g
        self.h = h
        self.n_max = n_max
        self._fh = fh

    def rows(self, scaled: bool = False, sep: str = ",") -> Iterator[list[str]]:
        """Each requested row as pieces of text that, written in turn, give
        its cells joined by sep: the values, or with scaled the stored
        entries (for h = one, the same).  Small pieces, not whole rows,
        keep a hit's temporaries small."""
        fh = self._fh
        fh.seek(0)
        fh.readline(_HEADER_CAP)
        for n in range(self.n_max + 1):
            pieces = [piece.decode("ascii") for piece in _line(fh)]
            pieces[-1] = pieces[-1][:-1]
            if scaled and self.h == "id":
                cells = scaled_cells("".join(pieces), self.scale(n))
                yield [piece for cell in cells for piece in (sep, cell)][1:]
            else:
                yield [piece.replace(",", sep) for piece in pieces]

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> CachedRows:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> CachedRows | None:
    """Pass 1 over the entry at path: the verified rows 0..n_max, or None
    when it holds a smaller build.  Every line goes through the digest,
    and only rows up to n_max are matched against the cell grammar.
    Raises CacheError naming the first problem."""

    def unusable(problem: str) -> CacheError:
        return CacheError(f"{path.name}: {problem}")

    with contextlib.ExitStack() as opened:
        try:
            fh = opened.enter_context(open(path, "rb"))
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
                raise unusable(f"cached family ({head.get('g')!r}, {head.get('h')!r}), "
                               f"expected ({g.key!r}, {h!r})")
            for n in range(stored + 1):
                keep = stored >= n_max and n <= n_max
                commas, parts, chunk = max(n, 1) - 1, [], b""  # row n has max(n, 1) cells
                for chunk in _line(fh):
                    digest.update(chunk)
                    commas -= chunk.count(b",")
                    if commas < 0:
                        raise unusable("malformed entry")
                    if keep:
                        parts.append(chunk)
                if commas or not chunk.endswith(b"\n"):
                    raise unusable("malformed entry")
                if keep and not _ROW.fullmatch(line := b"".join(parts), 0, len(line) - 1):
                    raise unusable("malformed entry")
            trailer = b"sha256 %s\n" % digest.hexdigest().encode()
            if fh.read(len(trailer) + 1) != trailer:
                raise unusable("checksum mismatch")
        except OSError as exc:
            raise unusable(f"unreadable ({exc})") from exc
        if stored < n_max:
            return None
        opened.pop_all()  # pass 2 reads on from the same open file
    return CachedRows(g, h, n_max, fh)


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


def reopen(path: Path, tri: Triangle) -> CachedRows | None:
    """The rows of tri from the entry save_triangle has just written at
    path, for a render to read back in place of forming each cell's text
    again; None when another writer has replaced the entry since."""
    try:
        return _parse_entry(path, tri.g, tri.h, tri.n_max)
    except CacheError:
        return None
