"""On-disk cache of built triangles.

One JSON file per family (g, h), named by entry_name(g.key, h), holding
the last full build written, schema 2.  Each stored entry
B(n, m) is a hex string: f"{v:x}" for an int, "p/q" with p and q in hex
for a non-integral Fraction.  Hex converts in linear time both ways and is
not subject to CPython's limit on decimal int/str conversion.

The file is the payload as canonical JSON (sorted keys, compact
separators), and the checksum is the sha256 of exactly those bytes
without the leading "checksum" field, so a load checks what it read
without encoding anything again: any change to the stored bytes fails.
An entry that does not parse, is not a JSON object, has another schema
(schema-1 decimal entries included) or does not match its checksum
raises CacheError.  Writes go through a temp file in the same directory
followed by an atomic rename, so a crash mid-write never leaves a
half-file behind.

Rows of the recursion do not depend on later rows, so the stored build
serves every request up to its size, truncated.  A larger request finds
no usable entry; the caller rebuilds and saves, which replaces the file,
as it does after a corrupt entry.  The last writer wins.  Files named
"triangle-<g>-<h>-n<N>.json", written by earlier versions with one file
per size, are never read and can be deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from .arith import ArithFn, _exactify
from .triangles import Triangle

SCHEMA_VERSION = 2
ENV_VAR = "LCLAB_CACHE"

# every file starts with its checksum: "checksum" sorts before the other keys
_HEAD_RE = re.compile(rb'\{"checksum":"([0-9a-f]{64})",')


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
        return _exactify(Fraction(int(p, 16), int(q, 16)))
    return int(text, 16)


def _serialise(tri: Triangle) -> bytes:
    body = {
        "schema": SCHEMA_VERSION,
        "kind": "triangle",
        "g": tri.g.key,
        "g_label": tri.g.label,
        "h": tri.h,
        "n_max": tri.n_max,
        "rows": [[_encode(v) for v in tri.row_scaled(n)] for n in range(tri.n_max + 1)],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest().encode()
    return b'{"checksum":"' + digest + b'",' + blob[1:]


def _checksum_ok(data: bytes) -> bool:
    head = _HEAD_RE.match(data)
    if head is None:
        return False
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[head.end() :])
    return digest.hexdigest().encode() == head.group(1)


def save_triangle(directory, tri: Triangle) -> Path:
    """Write tri to the cache directory, atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / entry_name(tri.g.key, tri.h)
    data = _serialise(tri)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> Triangle | None:
    try:
        data = path.read_bytes()
        body = json.loads(data)
    except (OSError, ValueError) as exc:
        raise CacheError(f"{path.name}: unreadable ({exc})") from exc
    if not isinstance(body, dict):
        raise CacheError(f"{path.name}: not a JSON object")
    if body.get("schema") != SCHEMA_VERSION:
        raise CacheError(f"{path.name}: schema {body.get('schema')!r}, expected {SCHEMA_VERSION}")
    if not _checksum_ok(data):
        raise CacheError(f"{path.name}: checksum mismatch")
    if body.get("g") != g.key or body.get("h") != h:
        raise CacheError(
            f"{path.name}: cached family ({body.get('g')!r}, {body.get('h')!r}), "
            f"expected ({g.key!r}, {h!r})"
        )
    try:
        stored = body["n_max"]
        if len(body["rows"]) != stored + 1:
            raise CacheError(f"{path.name}: row count off")
        if stored < n_max:
            return None
        rows = [[_decode(v) for v in row] for row in body["rows"][: n_max + 1]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"{path.name}: malformed rows ({exc})") from exc
    return Triangle(g, h, rows)


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
