import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lclab import arith, cache
from lclab.cache import (
    CacheError,
    _decode,
    _encode,
    entry_name,
    load_triangle,
    save_triangle,
)
from lclab.triangles import build_triangle


def test_round_trip(tmp_path):
    tri = build_triangle(arith.sigma(), "id", 12)
    save_triangle(tmp_path, tri)
    back = load_triangle(tmp_path, arith.sigma(), "id", 12)
    assert back is not None
    for n in range(13):
        assert back.row_scaled(n) == tri.row_scaled(n)
    assert back.h == "id" and back.n_max == 12


def test_round_trip_fraction_entries(tmp_path):
    g = arith.tilde(arith.sigma())
    tri = build_triangle(g, "one", 8)
    save_triangle(tmp_path, tri)
    back = load_triangle(tmp_path, arith.tilde(arith.sigma()), "one", 8)
    assert back is not None
    for n in range(9):
        assert back.row_scaled(n) == tri.row_scaled(n)


def test_larger_build_serves_smaller_request(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 15))
    part = load_triangle(tmp_path, arith.sigma(), "id", 9)
    assert part is not None
    assert part.n_max == 9
    fresh = build_triangle(arith.sigma(), "id", 9)
    for n in range(10):
        assert part.row_scaled(n) == fresh.row_scaled(n)


def test_miss_returns_none(tmp_path):
    assert load_triangle(tmp_path, arith.sigma(), "id", 5) is None
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 5))
    # different h and different family are distinct entries
    assert load_triangle(tmp_path, arith.sigma(), "one", 5) is None
    assert load_triangle(tmp_path, arith.one(), "id", 5) is None
    # a smaller cached build cannot serve a bigger request
    assert load_triangle(tmp_path, arith.sigma(), "id", 9) is None


def test_checksum_detects_tampering(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 6))
    path = tmp_path / entry_name("sigma", "id")
    body = json.loads(path.read_text())
    body["rows"][3][0] = "999"
    path.write_text(json.dumps(body))
    with pytest.raises(CacheError):
        load_triangle(tmp_path, arith.sigma(), "id", 6)


def test_garbage_file_raises(tmp_path):
    path = tmp_path / entry_name("sigma", "id")
    path.write_text("not json at all")
    with pytest.raises(CacheError):
        load_triangle(tmp_path, arith.sigma(), "id", 4)


def test_schema_version_checked(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 4))
    path = tmp_path / entry_name("sigma", "id")
    body = json.loads(path.read_text())
    body["schema"] = 99
    path.write_text(json.dumps(body))
    with pytest.raises(CacheError):
        load_triangle(tmp_path, arith.sigma(), "id", 4)


def test_no_temp_litter(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.one(), "one", 6))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def _round_trips(v):
    back = _decode(_encode(v))
    assert back == v
    # integral values come back as int, the rest as Fraction
    assert type(back) is (int if Fraction(v).denominator == 1 else Fraction)


@example(0)
@example(-7)
@example(Fraction(6, 1))
@given(st.one_of(st.integers(), st.fractions()))
def test_entry_codec_round_trips(v):
    _round_trips(v)


def test_entry_codec_past_str_limit():
    big = 10**5000 + 12345  # past CPython's 4300-digit int/str limit
    for v in (big, -big, Fraction(-big, 3), Fraction(7, big)):
        _round_trips(v)


def test_one_entry_per_family(tmp_path):
    g = arith.sigma()
    save_triangle(tmp_path, build_triangle(g, "id", 6))
    save_triangle(tmp_path, build_triangle(g, "id", 10))
    save_triangle(tmp_path, build_triangle(g, "one", 4))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [entry_name("sigma", "id"), entry_name("sigma", "one")]
    )
    # the later save replaced the earlier one
    assert load_triangle(tmp_path, g, "id", 10).n_max == 10
    # and the last writer wins, even with a smaller build
    save_triangle(tmp_path, build_triangle(g, "id", 3))
    assert load_triangle(tmp_path, g, "id", 3).n_max == 3
    assert load_triangle(tmp_path, g, "id", 4) is None


@pytest.mark.parametrize("garbage", ["{not json", "[1, 2]"])
@pytest.mark.parametrize("n", [3, 6, 9])
def test_corrupt_entry_raises_for_any_request(garbage, n, tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 6))
    path = tmp_path / entry_name("sigma", "id")
    path.write_text(garbage)
    with pytest.raises(CacheError) as info:
        load_triangle(tmp_path, arith.sigma(), "id", n)
    assert str(info.value).startswith(path.name + ":")


# a label and a key needing JSON escapes: a quote, a backslash, a non-ASCII letter
ODD = 'custom:q"b\\ü.txt'

# name -> (g, h, n_max): both h, n = 0, Fraction-valued g, an escaped label,
# and a file of several read blocks
WRITE_CASES = {
    "sigma-id": (arith.sigma, "id", 12),
    "sigma-id-n0": (arith.sigma, "id", 0),
    "square-one": (arith.square, "one", 9),
    "tilde_sigma-one": (lambda: arith.tilde(arith.sigma()), "one", 8),
    "odd-id": (lambda: arith.from_table([1, Fraction(3, 2), -2, 5], ODD, key=ODD), "id", 4),
    "sigma-id-blocks": (arith.sigma, "id", 70),
}


def _whole_entry(tri) -> bytes:
    """The reference for the streamed save: the payload dumped whole,
    hashed, and its checksum spliced in at the head."""
    body = {
        "schema": 2, "kind": "triangle", "g": tri.g.key, "g_label": tri.g.label,
        "h": tri.h, "n_max": tri.n_max,
        "rows": [[_encode(v) for v in tri.row_scaled(n)] for n in range(tri.n_max + 1)],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return b'{"checksum":"' + hashlib.sha256(blob).hexdigest().encode() + b'",' + blob[1:]


@pytest.fixture
def row_reader_only(monkeypatch):
    """Fail any load that leaves the row-at-a-time reader."""

    def whole(path):
        raise AssertionError(f"{path.name} was parsed whole")

    monkeypatch.setattr(cache, "_raise_unusable", whole)


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_streamed_save_matches_whole_payload(case, tmp_path):
    g, h, n_max = WRITE_CASES[case]
    tri = build_triangle(g(), h, n_max)
    assert save_triangle(tmp_path, tri).read_bytes() == _whole_entry(tri)


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_entry_written_whole_loads_row_by_row(case, tmp_path, row_reader_only):
    g, h, n_max = WRITE_CASES[case]
    tri = build_triangle(g(), h, n_max)
    (tmp_path / entry_name(tri.g.key, h)).write_bytes(_whole_entry(tri))
    for n in sorted({0, n_max // 2, n_max}):
        back = load_triangle(tmp_path, g(), h, n)
        assert back.n_max == n
        assert [back.row_scaled(k) for k in range(n + 1)] == [tri.row_scaled(k) for k in range(n + 1)]
    assert load_triangle(tmp_path, g(), h, n_max + 1) is None


def test_row_reader_names_another_family(tmp_path, row_reader_only):
    path = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 5))
    path.rename(tmp_path / entry_name("square", "id"))
    with pytest.raises(CacheError, match=r"cached family \('sigma', 'id'\), expected \('square', 'id'\)"):
        load_triangle(tmp_path, arith.square(), "id", 5)


def _damaged(data: bytes):
    """(what, bytes) of damaged copies of an entry of several blocks."""
    rows = data.index(b'"rows":[')
    yield "empty", b""
    for cut in (40, rows + 3, len(data) // 2, len(data) - 12, len(data) - 1):
        yield f"cut at {cut}", data[:cut]
    yield "a trailing byte", data + b" "
    for start in (rows + 20, len(data) - 100):  # a digit in an early and in the last row
        at = next(i for i in range(start, len(data)) if data[i] in b"0123456789abcdef")
        digit = b"1" if data[at:at + 1] == b"0" else b"0"
        yield f"digit changed at {at}", data[:at] + digit + data[at + 1 :]
    yield "schema 3", data.replace(b'"schema":2}', b'"schema":3}')
    last = data.rindex(b",[")
    yield "last row dropped", data[:last] + data[data.index(b"]]", last) + 1 :]


@pytest.mark.parametrize("n", [3, 70, 71])
def test_damaged_entry_raises_for_any_request(n, tmp_path):
    # the checksum covers every byte, rows past the request included, so a
    # truncated hit and a smaller-build miss see the damage as well
    data = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 70)).read_bytes()
    path = tmp_path / entry_name("sigma", "id")
    missed = []
    for what, damaged in _damaged(data):
        path.write_bytes(damaged)
        try:
            load_triangle(tmp_path, arith.sigma(), "id", n)
        except CacheError:
            continue
        missed.append(what)
    assert missed == []
