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
Both directions stream.  A save writes a placeholder checksum, then each
row's bytes to the file and the digest as the row is encoded, and fills
in the checksum before the rename; it never holds the payload whole.  A
load reads the file in blocks through the digest and decodes one row at
a time, so it holds neither the file's bytes nor every row's hex strings.
Only the exact layout a save writes loads.  Any other file raises
CacheError naming the first problem: it does not parse, is not a JSON
object, has another schema (schema-1 decimal entries included), does not
match its checksum, or is otherwise malformed.  Writes go through a temp
file in the same directory followed by an atomic rename, so a crash
mid-write never leaves a half-file behind.

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
from itertools import islice
from pathlib import Path
from typing import NoReturn

from .arith import ArithFn, _ratio
from .triangles import Triangle

SCHEMA_VERSION = 2
ENV_VAR = "LCLAB_CACHE"

# every file starts with its checksum: "checksum" sorts before the other keys
_CHECKSUM = b'{"checksum":"'
_HEAD_RE = re.compile(re.escape(_CHECKSUM) + rb'([0-9a-f]{64})",')
_ROWS = b'"rows":['
_TAIL = b',"schema":%d}' % SCHEMA_VERSION
_BLOCK = 1 << 13


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


def _payload(tri: Triangle):
    """The canonical entry without its checksum field and leading '{', in
    pieces: the header fields, one piece per row, the tail.  Joined, they
    are json.dumps(body, sort_keys=True, separators=(",", ":")) minus its
    first byte; the cells are hex digits, '-' and '/', which JSON does not
    escape."""
    head = {"g": tri.g.key, "g_label": tri.g.label, "h": tri.h, "kind": "triangle", "n_max": tri.n_max}
    yield json.dumps(head, sort_keys=True, separators=(",", ":"))[1:-1].encode() + b"," + _ROWS
    for n in range(tri.n_max + 1):
        cells = '","'.join(_encode(v) for v in tri.row_scaled(n))
        yield f'{"," if n else ""}["{cells}"]'.encode()
    yield b"]" + _TAIL


def save_triangle(directory, tri: Triangle) -> Path:
    """Write tri to the cache directory, atomically, one row at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / entry_name(tri.g.key, tri.h)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CHECKSUM + b"0" * 64 + b'",')
            digest = hashlib.sha256(b"{")
            for piece in _payload(tri):
                digest.update(piece)
                fh.write(piece)
            fh.seek(len(_CHECKSUM))
            fh.write(digest.hexdigest().encode())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _pieces(fh, buf: bytearray, digest):
    """The rest of fh after buf, which holds its start, split at each ']',
    then the text after the last one.  Every block read goes through the
    digest."""
    pos = seen = 0
    while True:
        end = buf.find(b"]", seen)
        if end >= 0:
            yield buf[pos:end]
            pos = seen = end + 1
            continue
        block = fh.read(_BLOCK)
        del buf[:pos]
        if not block:
            yield buf
            return
        digest.update(block)
        pos, seen = 0, len(buf)
        buf += block


def _read_canonical(fh, n_max: int):
    """(header fields, rows 0..n_max decoded) of an entry exactly as
    save_triangle writes it, or rows None when it holds a smaller build.
    None for any other file, one whose checksum fails included."""
    buf = bytearray(fh.read(_BLOCK))
    head = _HEAD_RE.match(buf)
    if head is None:
        return None
    checksum, body = head.group(1), head.end()  # before buf changes under head
    # the first ,"rows":[ ends the header: inside a JSON string a quote is escaped
    while (start := buf.find(b"," + _ROWS)) < 0:
        block = fh.read(_BLOCK)
        if not block:
            return None
        buf += block
    digest = hashlib.sha256(b"{")
    digest.update(buf[body:])
    try:
        fields = json.loads(b"{" + buf[body:start] + b"}")
    except ValueError:
        return None
    stored = fields.get("n_max")
    if not isinstance(stored, int):
        return None
    del buf[: start + 1 + len(_ROWS)]
    pieces = _pieces(fh, buf, digest)
    rows = [] if stored >= n_max else None
    for n in range(stored + 1):
        piece = next(pieces, b"")
        if not piece.startswith(b",[" if n else b"["):
            return None
        if rows is not None and n <= n_max:
            try:
                rows.append([_decode(v) for v in json.loads(piece[1 if n else 0 :] + b"]")])
            except (TypeError, ValueError, ZeroDivisionError):
                return None
    if list(islice(pieces, 3)) != [b"", _TAIL]:  # "]", the tail, the end
        return None
    if digest.hexdigest().encode() != checksum:
        return None
    return fields, rows


def _checksum_ok(data: bytes) -> bool:
    head = _HEAD_RE.match(data)
    if head is None:
        return False
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[head.end() :])
    return digest.hexdigest().encode() == head.group(1)


def _raise_unusable(path: Path) -> NoReturn:
    """Raise CacheError with the first problem of a file that is not an
    entry as save_triangle writes it."""
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
    raise CacheError(f"{path.name}: malformed entry")


def _parse_entry(path: Path, g: ArithFn, h: str, n_max: int) -> Triangle | None:
    try:
        with open(path, "rb") as fh:
            entry = _read_canonical(fh, n_max)
    except OSError as exc:
        raise CacheError(f"{path.name}: unreadable ({exc})") from exc
    if entry is None:
        _raise_unusable(path)
    fields, rows = entry
    if fields.get("g") != g.key or fields.get("h") != h:
        raise CacheError(
            f"{path.name}: cached family ({fields.get('g')!r}, {fields.get('h')!r}), "
            f"expected ({g.key!r}, {h!r})"
        )
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
