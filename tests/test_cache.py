import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lclab import arith
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
