"""On-disk cache of built triangles.

One file per family (g, h), named by entry_name(g.key, h), holding the
last full build written, schema 3.  The file is lines of ASCII text:

    {"g": ..., "g_label": ..., "h": ..., "kind": "triangle", "n_max": N, "schema": 3}
    <row 0>
    ...
    <row N>
    sha256 <hex digest of every byte above this line>

The header is json.dumps with sorted keys, which escapes any newline in a
label, so it is always one line.  Row line n holds the stored entries
B(n, m), comma-separated, each a hex string: f"{v:x}" for an int, "p/q"
with p and q in hex for a non-integral Fraction.  Hex converts in linear
time both ways and is not subject to CPython's limit on decimal int/str
conversion.

Both directions stream one line at a time.  A save writes each line into
a temp file and the digest as the row is encoded, appends the trailer and
renames the file into place atomically, so a crash mid-write never leaves
a half-file behind.  A load reads the header with a bounded readline,
hashes every row line, decodes only the rows it was asked for, and reads
at most one trailer's length plus one byte, so trailing bytes fail the
check.  Row lines are read in pieces of at most _CHUNK bytes, and their
commas counted as they come: row n has max(n, 1) cells, so a line with
more fails before it is held whole, and one with fewer fails at its end,
whatever the checksum says.  Any other file raises CacheError naming the
first problem: not a schema-3 entry, another schema, another family, a
malformed line, or a checksum mismatch.  No file is read whole, a damaged
one included.

Rows of the recursion do not depend on later rows, so the stored build
serves every request up to its size, truncated.  A larger request finds
no usable entry; the caller rebuilds and saves, which replaces the file,
as it does after a corrupt entry.  The last writer wins.  The name keeps
the ".json" suffix of the schema-1 and schema-2 layouts (one JSON object
each), so an entry an earlier version left under it is replaced in place
by the first rebuild.  Files named "triangle-<g>-<h>-n<N>.json", written
by earlier versions with one file per size, are never read and can be
deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from itertools import chain
from pathlib import Path

from .arith import ArithFn, _ratio
from .triangles import Triangle

SCHEMA_VERSION = 3
ENV_VAR = "LCLAB_CACHE"

_HEADER_CAP = 1 << 16  # bytes; a longer first line is not a header
_CHUNK = 1 << 15  # bytes of a row line read at a time


class CacheError(Exception):
    """A cache entry exists but cannot be trusted."""


def _safe(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]", "_", token)


def entry_name(g_key: str, h: str) -> str:
    return f"triangle-{_safe(g_key)}-{h}.json"


def _encode(v) -> str:
    if isinstance(v, int):
        return f"{v:x}"
    return f"{v.numerator:x}/{v.denominator:x}"


def _decode(text: str):
    if "/" in text:
        p, q = text.split("/")
        return _ratio(int(p, 16), int(q, 16))
    return int(text, 16)


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
            rows = (",".join(map(_encode, tri.row_scaled(n))).encode() for n in range(tri.n_max + 1))
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


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> Triangle | None:
    """Rows 0..n_max of the entry at path, or None when it holds a smaller
    build.  One pass: every line goes through the digest, and only rows up
    to n_max are decoded.  Raises CacheError naming the first problem."""

    def unusable(problem: str) -> CacheError:
        return CacheError(f"{path.name}: {problem}")

    try:
        with open(path, "rb") as fh:
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
            rows = [] if stored >= n_max else None
            for n in range(stored + 1):
                keep = rows is not None and n <= n_max
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
                    parts[-1] = parts[-1][:-1]
                    try:
                        rows.append([_decode(v) for v in b"".join(parts).decode("ascii").split(",")])
                    except (ValueError, ZeroDivisionError):
                        raise unusable("malformed entry") from None
            trailer = b"sha256 %s\n" % digest.hexdigest().encode()
            if fh.read(len(trailer) + 1) != trailer:
                raise unusable("checksum mismatch")
    except OSError as exc:
        raise unusable(f"unreadable ({exc})") from exc
    return None if rows is None else Triangle(g, h, rows)


def load_triangle(directory, g: ArithFn, h: str, n_max: int) -> Triangle | None:
    """Rows 0..n_max of the cached (g, h) build, or None when there is no
    entry or it holds a smaller build.  Raises CacheError when the entry
    cannot be trusted."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    path = Path(directory) / entry_name(g.key, h)
    if not path.exists():
        return None
    return _parse_entry(path, g, h, n_max)
