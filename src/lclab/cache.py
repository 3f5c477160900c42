"""On-disk cache of built triangles.

One JSON file per (g, h, n_max) full build, schema 2.  Each stored entry
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

A request for n_max = N is also satisfied by any cached build of the same
family with a larger N: rows of the recursion do not depend on later rows,
so truncation is exact.  Candidates are tried from the exact size upwards,
and a corrupt one is skipped for the next.  Column-limited builds are
never cached.
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


def entry_name(g_key: str, h: str, n_max: int) -> str:
    return f"triangle-{_safe(g_key)}-{h}-n{n_max}.json"


_NAME_RE = re.compile(r"^triangle-(?P<g>.+)-(?P<h>one|id)-n(?P<n>\d+)\.json$")


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
    """Write tri to the cache directory, atomically.  Full builds only."""
    if tri.m_max is not None:
        raise ValueError("column-limited builds are not cached")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / entry_name(tri.g.key, tri.h, tri.n_max)
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


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> Triangle:
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
        if stored < n_max or len(body["rows"]) != stored + 1:
            raise CacheError(f"{path.name}: too small or row count off")
        rows = [[_decode(v) for v in row] for row in body["rows"][: n_max + 1]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"{path.name}: malformed rows ({exc})") from exc
    return Triangle(g, h, rows)


def load_triangle(directory, g: ArithFn, h: str, n_max: int, on_skip=None) -> Triangle | None:
    """Return a cached triangle for (g, h, n_max), or None if absent.

    Tries the exact size first, then each larger cached build from the
    smallest up, truncated.  A corrupt candidate with another one after it
    is passed to on_skip(path, CacheError) (if given) and skipped; when the
    last candidate is corrupt too, its CacheError is raised.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = []
    for path in directory.glob(f"triangle-{_safe(g.key)}-{h}-n*.json"):
        match = _NAME_RE.match(path.name)
        if match and int(match.group("n")) >= n_max:
            candidates.append((int(match.group("n")), path))
    if not candidates:
        return None
    candidates.sort()
    for _, path in candidates[:-1]:
        try:
            return _parse_entry(path, g, h, n_max)
        except CacheError as exc:
            if on_skip is not None:
                on_skip(path, exc)
    return _parse_entry(candidates[-1][1], g, h, n_max)
