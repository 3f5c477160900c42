import hashlib
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lclab import arith, cache
from lclab.arith import _ratio
from lclab.cache import (
    CacheError,
    entry_name,
    load_triangle,
    row_text,
    save_triangle,
    scaled_cells,
    unlimited_digits,
)
from lclab.cli import main
from lclab.triangles import Triangle, build_triangle


def loaded(directory, g, h, n_max):
    """load_triangle's hit as a Triangle, its rows read through once and
    each value's text parsed by Fraction, or None on a miss."""
    hit = load_triangle(directory, g, h, n_max)
    if hit is None:
        return None
    with hit:
        rows = [[_ratio(Fraction(cell) * hit.scale(n)) for cell in "".join(pieces).split(",")]
                for n, pieces in enumerate(hit.rows())]
    return Triangle(hit.g, hit.h, rows)


def test_round_trip(tmp_path):
    tri = build_triangle(arith.sigma(), "id", 12)
    save_triangle(tmp_path, tri)
    back = loaded(tmp_path, arith.sigma(), "id", 12)
    assert back is not None
    for n in range(13):
        assert back.row_scaled(n) == tri.row_scaled(n)
    assert back.h == "id" and back.n_max == 12


def test_round_trip_fraction_entries(tmp_path):
    g = arith.tilde(arith.sigma())
    tri = build_triangle(g, "one", 8)
    save_triangle(tmp_path, tri)
    back = loaded(tmp_path, arith.tilde(arith.sigma()), "one", 8)
    assert back is not None
    for n in range(9):
        assert back.row_scaled(n) == tri.row_scaled(n)


def test_larger_build_serves_smaller_request(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 15))
    part = loaded(tmp_path, arith.sigma(), "id", 9)
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
    lines = path.read_bytes().split(b"\n")
    lines[1 + 3] = b"999" + lines[1 + 3][lines[1 + 3].index(b","):]  # row 3, first cell
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CacheError, match="checksum mismatch"):
        load_triangle(tmp_path, arith.sigma(), "id", 6)


def test_garbage_file_raises(tmp_path):
    path = tmp_path / entry_name("sigma", "id")
    path.write_text("not json at all")
    with pytest.raises(CacheError):
        load_triangle(tmp_path, arith.sigma(), "id", 4)


def test_schema_version_checked(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 4))
    path = tmp_path / entry_name("sigma", "id")
    header, rest = path.read_bytes().split(b"\n", 1)
    head = json.loads(header)
    head["schema"] = 99
    path.write_bytes(json.dumps(head, sort_keys=True).encode() + b"\n" + rest)
    with pytest.raises(CacheError, match="schema 99, expected 5"):
        load_triangle(tmp_path, arith.sigma(), "id", 4)


def test_no_temp_litter(tmp_path):
    save_triangle(tmp_path, build_triangle(arith.one(), "one", 6))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@example(0, 6, "id")
@example(-7, 1, "one")
@example(Fraction(6, 1), 2, "id")
@example(Fraction(-9, 4), 4, "id")
@given(st.one_of(st.integers(), st.fractions()), st.integers(0, 40), st.sampled_from(["one", "id"]))
def test_entry_codec_round_trips(v, n, h):
    # a stored entry B in row n: its cell is the text of B / L_n in the cell
    # grammar, and the scaled decode gives back the text of B
    tri = Triangle(arith.one(), h, [[1]] * n + [[v]])  # only row n is read
    scale = tri.scale(n)
    [text] = row_text(tri, n)
    assert cache._ROW.fullmatch(text.encode())
    assert Fraction(text) * scale == v
    assert scaled_cells(text, scale) == [str(v)]


def test_entry_codec_past_str_limit(tmp_path):
    # 10^4999 + 12345 has 5000 digits, past CPython's default 4300: the save
    # and the scaled decode of a hit lift the limit for their own work and
    # restore the caller's, outside the command line as well
    big = 10**4999 + 12345
    g = arith.from_table([1, big, Fraction(-big, 3)], key="big")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        for h in ("one", "id"):
            tri = build_triangle(g, h, 3)
            save_triangle(tmp_path, tri)
            assert sys.get_int_max_str_digits() == 4300
            with load_triangle(tmp_path, g, h, 3) as hit:
                lines = list(map("".join, hit.rows()))  # each pass reads the file on its own
                rows = list(zip(lines, map("".join, hit.rows(scaled=True))))
            assert sys.get_int_max_str_digits() == 4300
            with unlimited_digits():
                values = [b for n in range(4) for b in tri.row_scaled(n)]
                assert max(len(str(b)) for b in values) >= 5000
                assert any(isinstance(b, Fraction) for b in values)
                for n, (line, scaled) in enumerate(rows):
                    row = tri.row_scaled(n)
                    assert line.split(",") == [str(Fraction(b) / tri.scale(n)) for b in row]
                    assert scaled.split(",") == [str(b) for b in row]
    finally:
        sys.set_int_max_str_digits(before)


def test_one_entry_per_family(tmp_path):
    g = arith.sigma()
    save_triangle(tmp_path, build_triangle(g, "id", 6))
    save_triangle(tmp_path, build_triangle(g, "id", 10))
    save_triangle(tmp_path, build_triangle(g, "one", 4))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [entry_name("sigma", "id"), entry_name("sigma", "one")]
    )
    # the later save replaced the earlier one
    assert loaded(tmp_path, g, "id", 10).n_max == 10
    # and the last writer wins, even with a smaller build
    save_triangle(tmp_path, build_triangle(g, "id", 3))
    assert loaded(tmp_path, g, "id", 3).n_max == 3
    assert load_triangle(tmp_path, g, "id", 4) is None


@pytest.mark.parametrize("garbage", ["{not json", "[1, 2]", pytest.param("[" * 50000 + "\n", id="deep")])
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

# a table of ints with zeros and negative entries
ZEROS = [1, 0, -3, 0, 5, 0, -2, 7, 0, 4]

# name -> (g, h, n_max): both h, n = 0, Fraction-valued g, zero and
# negative entries, escaped labels (one with a newline, which the header
# must keep on one line), and an entry of many rows
WRITE_CASES = {
    "sigma-id": (arith.sigma, "id", 12),
    "sigma-id-n0": (arith.sigma, "id", 0),
    "square-one": (arith.square, "one", 9),
    "tilde_sigma-one": (lambda: arith.tilde(arith.sigma()), "one", 8),
    "odd-id": (lambda: arith.from_table([1, Fraction(3, 2), -2, 5], ODD, key=ODD), "id", 4),
    "newline-one": (
        lambda: arith.from_table([1, 2, Fraction(-1, 3)], "custom:a\nb.txt", key="a\nb"), "one", 3
    ),
    "sigma-id-blocks": (arith.sigma, "id", 70),
    "zeros-id": (lambda: arith.from_table(ZEROS), "id", 9),
    "zeros-one": (lambda: arith.from_table(ZEROS), "one", 9),
}


def _hex(v) -> str:
    """A stored entry as the cells of schemas 2 and 3 held it: hex, with a
    "/" between numerator and denominator of a non-integral Fraction."""
    return f"{v:x}" if isinstance(v, int) else f"{v.numerator:x}/{v.denominator:x}"


def _factored_hex(v, scale) -> str:
    """A stored entry B = P/Q as schema 4 held it: with d = gcd(P, scale)
    and p = P/d, "p", "p*d", "p/Q" or "p*d/Q" in hex."""
    num = v.numerator
    d = math.gcd(num, scale) if num else 1
    text = f"{num // d:x}" if d == 1 else f"{num // d:x}*{d:x}"
    return text if v.denominator == 1 else f"{text}/{v.denominator:x}"


def _line_entry(tri, schema=5) -> bytes:
    """The reference for the streamed save: the header and row lines joined
    whole, then the trailer with their digest.  Schema 3 held each stored
    entry whole in hex, schema 4 factored by its gcd with the row scale,
    and schema 5 holds the text of each value B / L_n as Fraction gives it."""
    head = {"schema": schema, "kind": "triangle", "g": tri.g.key, "g_label": tri.g.label,
            "h": tri.h, "n_max": tri.n_max}
    lines = [json.dumps(head, sort_keys=True)]
    for n in range(tri.n_max + 1):
        if schema == 3:
            cells = [_hex(v) for v in tri.row_scaled(n)]
        elif schema == 4:
            cells = [_factored_hex(v, tri.scale(n)) for v in tri.row_scaled(n)]
        else:
            cells = [str(Fraction(v) / tri.scale(n)) for v in tri.row_scaled(n)]
        lines.append(",".join(cells))
    blob = "".join(line + "\n" for line in lines).encode()
    return blob + b"sha256 " + hashlib.sha256(blob).hexdigest().encode() + b"\n"


def _whole_entry(tri) -> bytes:
    """An entry as schema 2 wrote it: one line of canonical JSON whose
    leading checksum is the sha256 of the rest."""
    body = {
        "schema": 2, "kind": "triangle", "g": tri.g.key, "g_label": tri.g.label,
        "h": tri.h, "n_max": tri.n_max,
        "rows": [[_hex(v) for v in tri.row_scaled(n)] for n in range(tri.n_max + 1)],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return b'{"checksum":"' + hashlib.sha256(blob).hexdigest().encode() + b'",' + blob[1:]


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_streamed_save_matches_whole_payload(case, tmp_path):
    g, h, n_max = WRITE_CASES[case]
    tri = build_triangle(g(), h, n_max)
    data = save_triangle(tmp_path, tri).read_bytes()
    assert data == _line_entry(tri)
    assert data.count(b"\n") == n_max + 3  # header, rows, trailer


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_saved_cells_are_factored_in_lowest_terms(case, tmp_path):
    # the writer's invariant, which a load trusts: each cell is A = B / L_n
    # with its gcd with L_n factored out, "p" or "p/q" in lowest terms with
    # q >= 1, in the cell grammar, so a hit prints it as it is; a zero is
    # written "0", and for h = one the cells are the stored entries
    g, h, n_max = WRITE_CASES[case]
    tri = build_triangle(g(), h, n_max)
    lines = save_triangle(tmp_path, tri).read_bytes().split(b"\n")[1:-2]
    zeros = 0
    for n, line in enumerate(lines):
        scale = tri.scale(n)
        assert cache._ROW.fullmatch(line)
        for b, cell in zip(tri.row_scaled(n), line.split(b","), strict=True):
            p, slash, q = cell.decode().partition("/")
            p, q = int(p), int(q) if slash else 1
            assert Fraction(p, q) * scale == b
            assert q > 1 or not slash
            assert math.gcd(p, q) == 1
            zeros += cell == b"0"
            if h == "one":
                assert cell.decode() == str(b)
    assert zeros or not case.startswith("zeros")


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_entry_written_whole_loads_row_by_row(case, tmp_path):
    # a saved entry serves the exact size, any truncation and n = 0, and
    # nothing larger
    g, h, n_max = WRITE_CASES[case]
    tri = build_triangle(g(), h, n_max)
    save_triangle(tmp_path, tri)
    for n in sorted({0, n_max // 2, n_max}):
        back = loaded(tmp_path, g(), h, n)
        assert (back.g.key, back.h, back.n_max) == (tri.g.key, h, n)
        assert [back.row_scaled(k) for k in range(n + 1)] == [tri.row_scaled(k) for k in range(n + 1)]
    assert load_triangle(tmp_path, g(), h, n_max + 1) is None


def test_row_reader_names_another_family(tmp_path):
    path = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 5))
    path.rename(tmp_path / entry_name("square", "id"))
    with pytest.raises(CacheError, match=r"cached family \('sigma', 'id'\), expected \('square', 'id'\)"):
        load_triangle(tmp_path, arith.square(), "id", 5)


def _damaged(data: bytes):
    """(what, bytes) of damaged copies of an entry of many rows."""
    rows = data.index(b"\n") + 1
    trailer = data.rindex(b"sha256 ")
    last = data.rindex(b"\n", 0, trailer - 1) + 1
    yield "empty", b""
    for cut in (40, rows + 3, len(data) // 2, len(data) - 12, len(data) - 1):
        yield f"cut at {cut}", data[:cut]
    yield "a trailing byte", data + b" "
    for start in (rows + 20, last + 20):  # a digit in an early and in the last row
        at = next(i for i in range(start, len(data)) if data[i] in b"0123456789")
        digit = b"1" if data[at:at + 1] == b"0" else b"0"
        yield f"digit changed at {at}", data[:at] + digit + data[at + 1 :]
    yield "schema 6", data.replace(b'"schema": 5}', b'"schema": 6}', 1)
    yield "last row dropped", data[:last] + data[trailer:]
    joint = data.index(b"\n", len(data) // 2)
    yield "two rows joined", data[:joint] + data[joint + 1 :]


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


def _flip_mid_digit(path):
    """Change one decimal digit near the middle of the file, in place."""
    with open(path, "r+b") as fh:
        fh.seek(path.stat().st_size // 2)
        at = fh.tell() + next(i for i, c in enumerate(fh.read(256)) if c in b"0123456789")
        fh.seek(at)
        digit = fh.read(1)
        fh.seek(at)
        fh.write(b"1" if digit == b"0" else b"0")


def _load_peak(directory, n):
    """(the CacheError that load_triangle raises, its tracemalloc peak)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CacheError) as info:
            load_triangle(directory, arith.sigma(), "id", n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return info.value, peak


def test_damaged_entry_is_rejected_in_bounded_memory(tmp_path):
    # the whole file goes through the digest, one line at a time: naming the
    # damage reads nothing whole, not even a file of over a megabyte
    path = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 150))
    size = path.stat().st_size
    assert size >= 1 << 20
    _flip_mid_digit(path)
    error, peak = _load_peak(tmp_path, 10)
    assert str(error) == f"{path.name}: checksum mismatch"
    assert peak < size / 10


def _resealed(data: bytes, edit) -> bytes:
    """data with its header and row lines passed through edit (a list of
    lines to a list of lines) and the trailer recomputed to match."""
    lines = data[: data.rindex(b"sha256 ")].split(b"\n")[:-1]
    blob = b"".join(line + b"\n" for line in edit(lines))
    return blob + b"sha256 " + hashlib.sha256(blob).hexdigest().encode() + b"\n"


def test_joined_rows_are_rejected_in_bounded_memory(tmp_path):
    # every row newline turned into a comma: row 0 then reads as one line of
    # a megabyte, which fails at its first comma, before it is held whole
    path = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 150))
    data = path.read_bytes()
    rows = data.index(b"\n") + 1
    trailer = data.rindex(b"sha256 ")
    path.write_bytes(data[:rows] + data[rows : trailer - 1].replace(b"\n", b",") + data[trailer - 1 :])
    size = path.stat().st_size
    assert size >= 1 << 20
    error, peak = _load_peak(tmp_path, 10)
    assert str(error) == f"{path.name}: malformed entry"
    assert peak < size / 10


@pytest.mark.parametrize("n", [4, 5, 9])
def test_row_cell_count_checked_under_a_valid_checksum(n, tmp_path):
    # a row that lost a cell, or gained one, is malformed even when the
    # trailer was recomputed to match, for a truncated hit and a miss too
    data = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 10)).read_bytes()
    path = tmp_path / entry_name("sigma", "id")

    def short(lines):
        lines[1 + 5] = lines[1 + 5].rsplit(b",", 1)[0]
        return lines

    def long(lines):
        lines[1 + 5] += b",1"
        return lines

    for edit in (short, long):
        path.write_bytes(_resealed(data, edit))
        with pytest.raises(CacheError, match="malformed entry"):
            load_triangle(tmp_path, arith.sigma(), "id", n)
    path.write_bytes(_resealed(data, lambda lines: lines))
    assert loaded(tmp_path, arith.sigma(), "id", 10).row_scaled(5)[-1] == 1


@pytest.mark.parametrize("cell", [b"xyz", b"1/0"], ids=["non-decimal", "zero-denominator"])
def test_undecodable_cell_under_a_valid_checksum(cell, tmp_path):
    data = save_triangle(tmp_path, build_triangle(arith.sigma(), "id", 6)).read_bytes()
    path = tmp_path / entry_name("sigma", "id")

    def edit(lines):
        lines[1 + 4] = cell + lines[1 + 4][lines[1 + 4].index(b","):]
        return lines

    path.write_bytes(_resealed(data, edit))
    with pytest.raises(CacheError, match="malformed entry"):
        load_triangle(tmp_path, arith.sigma(), "id", 6)


def test_entry_path_that_is_a_directory(tmp_path, capsys, monkeypatch):
    # the entry can be neither read nor replaced: the output is the cold
    # one, each failure is named once, and no temp file is left behind
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "6"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    cache_dir = tmp_path / "c"
    name = entry_name("sigma", "id")
    (cache_dir / name).mkdir(parents=True)
    assert main(argv + ["--cache", str(cache_dir)]) == 0
    out, err = capsys.readouterr()
    assert out == cold
    unreadable, unwritten = err.splitlines()
    assert unreadable.startswith(f"lclab: warning: rebuilding, cache entry unusable: {name}: unreadable (")
    assert unwritten.startswith("lclab: warning: cache not written: ")
    assert [p.name for p in cache_dir.iterdir()] == [name]


def test_schema2_entry_is_replaced_in_place(tmp_path, capsys, monkeypatch):
    # an entry of the previous layout, under the name it still has: its one
    # line is longer than the header cap, so the load reads only the cap
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    cache_dir = tmp_path / "c"
    cache_dir.mkdir()
    path = cache_dir / entry_name("sigma", "id")
    path.write_bytes(_whole_entry(build_triangle(arith.sigma(), "id", 150)))
    assert path.stat().st_size > 10 * cache._HEADER_CAP
    error, peak = _load_peak(cache_dir, 150)
    error_text = "not a schema-5 cache entry"
    assert str(error) == f"{path.name}: {error_text}"
    assert peak < 4 * cache._HEADER_CAP  # the capped readline and its copies
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "150", "--format", "csv"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv + ["--cache", str(cache_dir)]) == 0
    out, err = capsys.readouterr()
    assert out == cold
    assert err == f"lclab: warning: rebuilding, cache entry unusable: {path.name}: {error_text}\n"
    assert [p.name for p in cache_dir.iterdir()] == [path.name]
    with open(path, "rb") as fh:
        assert json.loads(fh.readline())["schema"] == 5
    assert main(argv + ["--cache", str(cache_dir)]) == 0
    assert capsys.readouterr() == (cold, "")


def _cell_edit(row: int, cell: bytes):
    """An edit for _resealed: the first cell of row line `row` becomes cell."""

    def edit(lines):
        lines[1 + row] = cell + lines[1 + row][lines[1 + row].index(b","):]
        return lines

    return edit


# what -> the crafted bytes of an n = 10 (sigma, id) entry, checksum
# recomputed: the first cell of row 7 made one that is not in the cell
# grammar (a leading zero, a signed zero, a zero, signed or padded
# denominator, two slashes, nothing, a letter, or the "p*d" of schema 4),
# or the whole entry written as schemas 3 and 4 held it
CRAFTED = {
    **{what: (lambda cell: lambda data, tri: _resealed(data, _cell_edit(7, cell)))(cell)
       for what, cell in {
           "leading zero": b"007",
           "negative zero": b"-0",
           "zero denominator": b"1/0",
           "padded denominator": b"1/01",
           "two slashes": b"1/2/3",
           "negative denominator": b"1/-2",
           "empty cell": b"",
           "letter": b"1a",
           "cofactor 0": b"1*0",
           "cofactor not dividing 7!": b"1*b",
           "cofactor above 7!": b"1*2760",
           "empty cofactor": b"1*",
       }.items()},
    "schema 3": lambda data, tri: _line_entry(tri, schema=3),
    "schema 4": lambda data, tri: _line_entry(tri, schema=4),
}


@pytest.mark.parametrize("what", list(CRAFTED))
@pytest.mark.parametrize("n", [7, 10])
def test_crafted_entry_is_repaired(what, n, tmp_path, capsys, monkeypatch):
    # under a valid checksum, a cell outside the grammar or an entry of an
    # earlier schema is named once, before any output, in every format and
    # with or without --scaled: the run prints the cold output, the rebuild
    # replaces the entry, and the next run is a silent hit
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    tri = build_triangle(arith.sigma(), "id", 10)
    path = save_triangle(tmp_path, tri)
    crafted = CRAFTED[what](path.read_bytes(), tri)
    for fmt in ("table", "json", "csv"):
        for scaled in ((), ("--scaled",)):
            path.write_bytes(crafted)
            argv = ["triangle", "--g", "sigma", "--h", "id", "--n", str(n), "--format", fmt, *scaled]
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv + ["--cache", str(tmp_path)]) == 0
            out, err = capsys.readouterr()
            assert out == cold
            assert err.startswith(f"lclab: warning: rebuilding, cache entry unusable: {path.name}: ")
            assert err.count("\n") == 1
            assert path.read_bytes() == _line_entry(build_triangle(arith.sigma(), "id", n))
            assert main(argv + ["--cache", str(tmp_path)]) == 0
            assert capsys.readouterr() == (cold, "")
