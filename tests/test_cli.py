import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lclab import arith, cli
from lclab.cache import entry_name, row_text, scaled_cells
from lclab.cli import ingest_custom_g, main, parse_g, parse_rational, parse_xs
from lclab.triangles import Triangle, build_triangle, closed_form_oracle
from test_golden import GOLDEN, TABLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_g_tokens(tmp_path):
    assert parse_g("one").label == "one"
    assert parse_g("sigma")(6) == 12
    assert parse_g("sigma_k=2")(4) == 21
    with pytest.raises(ValueError):
        parse_g("cubes")
    with pytest.raises(ValueError):
        parse_g("sigma_k=two")


def test_identity_family_matches_its_closed_form(capsys):
    # (id, id) is the Laguerre family: A(n, m) = C(n-1, m-1) / m!
    assert parse_g("id").label == "id"
    assert [parse_g("id")(n) for n in range(1, 6)] == [1, 2, 3, 4, 5]
    code, out, err = run(capsys, "triangle", "--g", "id", "--h", "id", "--n", "8", "--format", "csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()]
    assert [row[0] for row in rows] == [str(n) for n in range(9)]
    assert rows[0] == ["0", "1"]
    for n, (_, *cells) in enumerate(rows[1:], 1):
        expected = [closed_form_oracle("id", "id", n, m) for m in range(1, n + 1)]
        assert [Fraction(c) for c in cells] == expected


def test_parse_rational_and_xs():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    with pytest.raises(ValueError):
        parse_rational("x")
    assert parse_xs("1,-2,5/3") == [1, -2, Fraction(5, 3)]


def test_custom_table_ingestion(tmp_path):
    table = tmp_path / "g.txt"
    table.write_text(
        "# a normalized table\n"
        "1\n"
        "3/2   # trailing comment\n"
        "\n"
        "4/3\n"
    )
    g = ingest_custom_g(str(table))
    assert g(1) == 1
    assert g(2) == Fraction(3, 2)
    assert g(3) == Fraction(4, 3)
    with pytest.raises(ValueError):
        g(4)


def test_custom_table_rejections(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n3\n")
    with pytest.raises(ValueError, match="g\\(1\\)"):
        ingest_custom_g(str(bad))
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1\nabc\n")
    with pytest.raises(ValueError, match="garbled.txt:2"):
        ingest_custom_g(str(garbled))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no values"):
        ingest_custom_g(str(empty))


def test_custom_table_missing_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = run(capsys, "triangle", "--g", f"custom={missing}", "--h", "one", "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("lclab: error: cannot read custom table: ")
    assert str(missing) in err and err.count("\n") == 1


def test_triangle_table_output(capsys):
    code, out, _ = run(capsys, "triangle", "--g", "sigma", "--h", "id", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0: 1"
    assert lines[3] == "2: 3/2 1/2"
    assert lines[5] == "4: 7/4 59/24 3/4 1/24"


def test_triangle_json_output(capsys):
    code, out, _ = run(
        capsys, "triangle", "--g", "sigma", "--h", "id", "--n", "3", "--format", "json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == 1
    assert body["rows"][2] == ["3/2", "1/2"]
    assert body["rows"][3] == ["4/3", "3/2", "1/6"]


def test_triangle_csv_scaled(capsys):
    code, out, _ = run(
        capsys, "triangle", "--g", "one", "--h", "id", "--n", "6",
        "--format", "csv", "--scaled",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,720,120,274,225,85,15,1"


# (g, h, n) -> sha256 of `triangle --scaled --format csv`: (sigma, h) past
# four block edges of the column kernel, and the table (-1)^k 10^12 + k,
# whose lane sums are large and of both signs, past two
KERNEL_BYTES = {
    ("sigma", "id", 130): "a6315bac434fda48e43c1325fde46045169b453b9c4a6ff7f7ba0a9496652086",
    ("sigma", "one", 130): "e9d6040f304eba0b78d6b23372de8dde644b77c4314eb65bd4c896d3e745fe31",
    ("lanes", "id", 70): "30e44d49ad3d88610e04fa5c96524bebb90e61f38247b6cdef48509adcdbf81b",
    ("lanes", "one", 70): "38924071731fe838d579ed7ff76dbdfea6d22c4c6cbd6b7de4c626fe12b0e78c",
}


@pytest.mark.parametrize("g, h, n", list(KERNEL_BYTES))
def test_scaled_csv_bytes_past_block_edges(g, h, n, tmp_path, capsys):
    token = g
    if g == "lanes":
        table = tmp_path / "lanes.txt"
        table.write_text("\n".join(["1"] + [str((-1) ** k * 10**12 + k) for k in range(2, 71)]))
        token = f"custom={table}"
    code, out, err = run(capsys, "triangle", "--scaled", "--format", "csv",
                         "--g", token, "--h", h, "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_BYTES[g, h, n]


def test_triangle_custom_family_matches_api(tmp_path, capsys):
    table = tmp_path / "tilde_sigma.txt"
    vals = [Fraction(arith.sigma()(n), n) for n in range(1, 7)]
    table.write_text("\n".join(str(v) for v in vals))
    code, out, _ = run(
        capsys, "triangle", "--g", f"custom={table}", "--h", "one", "--n", "6"
    )
    assert code == 0
    expected = build_triangle(arith.tilde(arith.sigma()), "one", 6)
    last = out.strip().splitlines()[-1]
    assert last == "6: " + " ".join(str(v) for v in expected.row_values(6))


def test_triangle_out_file(tmp_path, capsys):
    target = tmp_path / "tri.txt"
    code, out, _ = run(
        capsys, "triangle", "--g", "one", "--h", "one", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "3: 1 2 1" in target.read_text()


def test_triangle_cache_env_wins(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("LCLAB_CACHE", str(env_dir))
    code, _, _ = run(
        capsys, "triangle", "--g", "one", "--h", "id", "--n", "4",
        "--cache", str(flag_dir),
    )
    assert code == 0
    assert list(env_dir.glob("*.json"))
    assert not flag_dir.exists()


def test_triangle_corrupt_cache_warns_and_rebuilds(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    code, first, _ = run(
        capsys, "triangle", "--g", "sigma", "--h", "id", "--n", "5",
        "--cache", str(cache_dir),
    )
    assert code == 0
    entry = next(cache_dir.glob("*.json"))
    entry.write_text(entry.read_text().replace('"n_max"', '"n_mox"', 1))
    code, second, err = run(
        capsys, "triangle", "--g", "sigma", "--h", "id", "--n", "5",
        "--cache", str(cache_dir),
    )
    assert code == 0
    assert second == first
    assert err == f"lclab: warning: rebuilding, cache entry unusable: {entry.name}: malformed entry\n"


@pytest.mark.parametrize("under_file", ["", "sub"])
def test_triangle_unwritable_cache_warns_and_keeps_output(tmp_path, capsys, under_file):
    # the cache path is a regular file, or a directory below one: the save
    # fails, and only a warning on stderr tells the two runs apart
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "6", "--format", "json")
    code, out, err = run(capsys, *argv, "--cache", str(blocker / under_file))
    assert (code, out) == run(capsys, *argv)[:2]
    assert code == 0
    assert err.startswith("lclab: warning: cache not written: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


def test_triangle_corrupt_exact_entry_is_repaired(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "5", "--cache", str(cache_dir))
    _, first, _ = run(capsys, *argv)
    entry = next(cache_dir.glob("*.json"))
    entry.write_text("garbage")
    code, second, err = run(capsys, *argv)
    assert (code, second) == (0, first)
    assert "warning" in err
    # the rebuild overwrote the bad entry, so the next run is a clean hit
    code, third, err = run(capsys, *argv)
    assert (code, third, err) == (0, first, "")
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_check_vertical_failure_listing(capsys):
    code, out, _ = run(
        capsys, "check", "vertical", "--g", "one", "--h", "id",
        "--m", "1", "--n-max", "10",
    )
    assert code == 1
    assert "FAIL" in out
    for n in range(2, 10):
        assert f"n={n} m=1" in out


def test_check_vertical_pass(capsys):
    code, out, _ = run(
        capsys, "check", "vertical", "--g", "one", "--h", "one",
        "--m-from", "2", "--m-to", "6", "--n-max", "30",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_check_horizontal_pass(capsys):
    code, out, _ = run(
        capsys, "check", "horizontal", "--g", "sigma", "--h", "id", "--n-max", "30"
    )
    assert code == 0
    assert out.startswith("PASS horizontal")


_HORIZONTAL_PEAK = """
import tracemalloc
from lclab import arith, cli
from lclab.triangles import build_triangle

parser = cli.build_parser()  # built once, so its own allocations stay out
cli.build_parser = lambda: parser
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
tri = build_triangle(arith.sigma(), "id", 60)
triangle_size = tracemalloc.get_traced_memory()[0] - base
del tri
tracemalloc.reset_peak()
base = tracemalloc.get_traced_memory()[0]
code = cli.main(["check", "horizontal", "--g", "sigma", "--h", "id", "--n-max", "60"])
peak = tracemalloc.get_traced_memory()[1] - base
tracemalloc.stop()
print(code, peak, triangle_size)
"""


def test_check_horizontal_holds_no_triangle():
    # the scan streams columns: its peak stays far below the triangle it
    # scans.  It is measured in a fresh interpreter, so the reading does not
    # depend on what earlier tests left in this one's allocator.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _HORIZONTAL_PEAK], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("PASS horizontal")
    code, peak, triangle_size = map(int, lines[-1].split())
    assert code == 0
    assert peak < triangle_size / 3


_WARM_PEAK = """
import sys, tempfile, tracemalloc
from lclab import arith, cli
from lclab.triangles import build_triangle

parser = cli.build_parser()  # built once, so its own allocations stay out
cli.build_parser = lambda: parser
with tempfile.TemporaryDirectory() as tmp:
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "200", "--format", "json",
            "--out", tmp + "/tri.json", "--cache", tmp + "/c"]
    assert cli.main(argv) == 0  # a miss: build, save and render
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tri = build_triangle(arith.sigma(), "id", 200)
    triangle_size = tracemalloc.get_traced_memory()[0] - base
    del tri
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
print(code, peak, triangle_size)
"""


def test_warm_triangle_holds_no_triangle():
    # a hit streams its rows from the file, one decoded row at a time: its
    # peak stays far below the triangle it prints (measured in a fresh
    # interpreter, as for check horizontal)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("LCLAB_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_PEAK], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak, triangle_size = map(int, proc.stdout.split())
    assert code == 0
    assert peak < triangle_size / 3


@pytest.mark.parametrize("run_kind", ["cold", "warm"])
def test_triangle_holds_one_row_of_text(run_kind, tmp_path, monkeypatch):
    # the render, the cache write and the cache read stream one row at a
    # time: beyond the triangle itself, a run holds well under the text it
    # writes, so no whole copy of that text or of the cache file
    parser = cli.build_parser()  # built once, so its own allocations stay out
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    out, cache_dir = tmp_path / "tri.json", tmp_path / "c"
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "60", "--format", "json",
            "--out", str(out), "--cache", str(cache_dir)]
    if run_kind == "warm":
        assert main(argv) == 0
        entry = cache_dir / entry_name("sigma", "id")
        stamp = entry.stat().st_mtime_ns
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tri = build_triangle(arith.sigma(), "id", 60)
        triangle_size = tracemalloc.get_traced_memory()[0] - base
        del tri
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    if run_kind == "warm":  # a hit: the entry was read, not rewritten
        assert entry.stat().st_mtime_ns == stamp
    rendered = out.stat().st_size
    assert rendered > triangle_size  # unscaled json of n = 60: about 134 KB
    assert peak - triangle_size < rendered / 2


def test_check_cscan_boundary(capsys):
    code, out, _ = run(
        capsys, "check", "cscan", "--g", "one", "--h", "id",
        "--C", "2", "--m-max", "7", "--include-m1",
    )
    assert code == 1
    assert "n=2 m=1" in out
    assert "window boundary" in out
    code, out, _ = run(
        capsys, "check", "cscan", "--g", "one", "--h", "id", "--C", "2", "--m-max", "7"
    )
    assert code == 0


def test_check_conversion_and_closed_forms(capsys):
    code, out, _ = run(capsys, "check", "conversion", "--g", "square", "--n-max", "12")
    assert code == 0 and out.startswith("PASS conversion")
    code, out, _ = run(capsys, "check", "closed-forms", "--n-max", "10")
    assert code == 0 and out.startswith("PASS closed-forms")


def test_check_genfun_and_euler(capsys):
    code, out, _ = run(
        capsys, "check", "genfun", "--g", "sigma", "--h", "id",
        "--n-max", "10", "--xs", "1,2,-1/2",
    )
    assert code == 0 and "3 eval points" in out
    code, out, _ = run(
        capsys, "check", "euler", "--g", "sigma", "--n-max", "10", "--x", "1/3"
    )
    assert code == 0 and out.startswith("PASS euler-product")


def test_check_genfun_rejects_empty_point_list(capsys):
    for xs in (("--xs", ","), ("--xs=",)):  # an empty value is a list, not "no --xs"
        code, out, err = run(capsys, "check", "genfun", "--g", "sigma", "--h", "id",
                             "--n-max", "3", *xs)
        assert (code, out) == (2, "")
        assert err == "lclab: error: genfun needs at least one evaluation point\n"


@pytest.mark.parametrize("argv, read", [
    # 6 MB of rows: the reader takes 10 bytes and leaves mid-stream
    (("triangle", "--g", "sigma", "--h", "id", "--n", "200", "--format", "csv"), 10),
    # one buffered line, flushed after the reader has gone
    (("check", "table1", "--m-max", "7"), 0),
])
def test_closed_stdout_ends_quietly_with_sigpipe_status(argv, read):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    cmd = [sys.executable, "-m", "lclab.cli", *argv]
    if read:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
    else:  # the read end is closed before the command starts
        r, w = os.pipe()
        os.close(r)
        proc = subprocess.Popen(cmd, stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


PAST_INDEX = str(10**20)


@pytest.mark.parametrize("argv", [
    ("check", "horizontal", "--g", "one", "--h", "id", "--n-max", "1000000000000"),
    ("triangle", "--g", "sigma", "--h", "id", "--n", "1000000000000"),
    # sizes past the index range fail before anything is allocated, and say so
    ("check", "horizontal", "--g", "one", "--h", "id", "--n-max", PAST_INDEX),
    ("triangle", "--g", "sigma", "--h", "id", "--n", PAST_INDEX),
    ("check", "table1", "--m-max", "3", "--n-limit", PAST_INDEX),
])
def test_out_of_memory_exits_two_in_one_line(argv):
    # the child's address space is capped, so a regression cannot take the host's memory
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lclab.cli", *argv],
        capture_output=True, env=env, preexec_fn=limit, timeout=120,
    )
    cause = "cannot fit 'int' into an index-sized integer" if PAST_INDEX in argv else "out of memory"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", f"lclab: error: {cause}\n".encode())


@pytest.mark.parametrize("argv", sorted(a for a, (code, _, _) in GOLDEN.items() if code in (0, 1)))
def test_golden_output_through_out_file(argv, tmp_path, monkeypatch, capsys):
    # one sink serves every command: --out FILE holds the bytes stdout would
    for name, text in TABLES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    code, digest, err = GOLDEN[argv]
    assert run(capsys, *argv.split(), "--out", "out.txt") == (code, "", err)
    assert hashlib.sha256((tmp_path / "out.txt").read_bytes()).hexdigest() == digest


def test_check_euler_rejects_negative_n_max(capsys):
    code, out, err = run(capsys, "check", "euler", "--g", "sigma", "--n-max", "-1", "--x", "1")
    assert (code, out, err) == (2, "", "lclab: error: n_max must be >= 0\n")


def test_check_no_identity(capsys):
    code, out, _ = run(capsys, "check", "no-identity", "--n-max", "8")
    assert code == 0
    assert out.startswith("PASS no-identity")


def test_check_hz_rejects_a_far_oversize_window_at_once(capsys):
    # the first oversize column (21 for C = 3/2) is named; C^m_max is never formed
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "hz", "--C", "3/2", "--m-max", "1000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200
    assert "floor(C^21) = 4987 exceeds 4096 from column 21 (m_max = 1000000)" in err


def test_check_cscan_empty_windows_to_column_40000(capsys):
    # C < 1: every window from column 2 on is empty; no power C^m is formed
    code, out, err = run(
        capsys, "check", "cscan", "--g", "one", "--h", "id", "--C", "1/2", "--m-max", "40000"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "PASS c-vertical: g=one h=id m=2..40000 centers n<=0"


def test_check_hz_window_just_above_one_to_column_50000(capsys):
    # C just above 1: the guard's probes and a stream of the one-row windows
    code, out, err = run(capsys, "check", "hz", "--C", "1000001/1000000", "--m-max", "50000")
    assert (code, err) == (0, "")
    assert out == (
        "PASS hong-zhang: g=sigma h=id m=2..50000 centers n<=1\n"
        "  C=1000001/1000000 include_m1=False coefficients=divisor-sum series powers\n"
    )


def test_check_hz_passes_to_centre_1024(capsys):
    # the largest window past the paper's range that stays a few seconds
    code, out, err = run(capsys, "check", "hz", "--C", "2", "--m-max", "10")
    assert (code, err) == (0, "")
    assert out == (
        "PASS hong-zhang: g=sigma h=id m=2..10 centers n<=1024\n"
        "  C=2 include_m1=False coefficients=divisor-sum series powers\n"
    )


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys, "check", "vertical", "--g", "one", "--h", "id",
        "--m", "1", "--n-max", "6", "--format", "json",
    )
    assert code == 1
    body = json.loads(out)
    assert body["passed"] is False
    assert [2, 1] in body["failures"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--g", "one", "--n", "4"])  # missing --h
    assert exc.value.code == 2
    code, _, err = run(capsys, "triangle", "--g", "mystery", "--h", "id", "--n", "4")
    assert code == 2
    assert "error" in err


def test_jobs_flag_accepted(capsys):
    code, out, _ = run(
        capsys, "check", "table1", "--m-max", "3", "--n-limit", "60", "--jobs", "4"
    )
    assert code == 0
    assert out.strip() == "2 5 17"


@pytest.mark.parametrize("scan", ["horizontal", "vertical"])
def test_check_rejects_negative_entries(scan, tmp_path, capsys):
    table = tmp_path / "neg.txt"
    table.write_text("1\n-5\n2\n3\n1\n")
    code, out, err = run(
        capsys, "check", scan, "--g", f"custom={table}", "--h", "id", "--n-max", "5"
    )
    assert code == 2
    assert out == ""
    assert "(2, 1) is negative" in err


def test_triangle_cache_entry_not_an_object(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "5", "--cache", str(cache_dir))
    _, first, _ = run(capsys, *argv)
    entry = next(cache_dir.glob("*.json"))
    entry.write_text("[1, 2]\n")
    code, second, err = run(capsys, *argv)
    assert (code, second) == (0, first)
    warning = "lclab: warning: rebuilding, cache entry unusable"
    assert err == f"{warning}: {entry.name}: not a schema-5 cache entry\n"
    assert run(capsys, *argv) == (0, first, "")


def test_triangle_corrupt_larger_entry_is_replaced(tmp_path, capsys):
    cache_dir = tmp_path / "c"

    def triangle(n, *cache):
        return run(capsys, "triangle", "--g", "sigma", "--h", "id", "--n", str(n), *cache)

    triangle(12, "--cache", str(cache_dir))
    entry = cache_dir / entry_name("sigma", "id")
    entry.write_text("garbage")
    code, out, err = triangle(6, "--cache", str(cache_dir))
    assert (code, out) == (0, triangle(6)[1])
    assert f"rebuilding, cache entry unusable: {entry.name}:" in err
    # the n = 6 rebuild replaced the bad entry; n = 10 outgrows it, silently
    assert triangle(10, "--cache", str(cache_dir)) == (0, triangle(10)[1], "")
    assert triangle(6, "--cache", str(cache_dir)) == (0, triangle(6)[1], "")
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


@pytest.mark.parametrize("edit", ["short", "long"])
def test_triangle_row_with_wrong_cell_count_is_replaced(edit, tmp_path, capsys):
    # row 5 of an n = 10 entry loses its last cell or gains one, and the
    # checksum is recomputed: still one warning, the cold output, and a
    # silent next run
    cache_dir = tmp_path / "c"
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "10", "--format", "csv")
    cold = run(capsys, *argv)
    run(capsys, *argv, "--cache", str(cache_dir))
    entry = cache_dir / entry_name("sigma", "id")
    lines = entry.read_bytes().split(b"\n")[:-2]  # header and rows, no trailer
    row = lines[1 + 5].split(b",")
    lines[1 + 5] = b",".join(row[:-1] if edit == "short" else row + [b"1"])
    blob = b"".join(line + b"\n" for line in lines)
    entry.write_bytes(blob + b"sha256 " + hashlib.sha256(blob).hexdigest().encode() + b"\n")
    code, out, err = run(capsys, *argv, "--cache", str(cache_dir))
    assert (code, out) == (0, cold[1])
    assert err == f"lclab: warning: rebuilding, cache entry unusable: {entry.name}: malformed entry\n"
    assert run(capsys, *argv, "--cache", str(cache_dir)) == cold


def test_triangle_larger_request_replaces_smaller_entry(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    entry = cache_dir / entry_name("sigma", "id")

    def triangle(n):
        argv = ("triangle", "--g", "sigma", "--h", "id", "--n", str(n))
        cold = run(capsys, *argv)
        assert run(capsys, *argv, "--cache", str(cache_dir)) == cold
        with open(entry, "rb") as fh:
            return json.loads(fh.readline())["n_max"], os.stat(entry).st_ino

    n_stored, inode = triangle(5)
    assert n_stored == 5
    n_stored, inode = triangle(9)  # a smaller build is rebuilt and replaced
    assert n_stored == 9
    assert triangle(4) == (9, inode)  # a truncated hit writes nothing
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_triangle_negative_n_rejected_with_cache(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    run(capsys, "triangle", "--g", "sigma", "--h", "id", "--n", "3", "--cache", str(cache_dir))
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "-1", "--format", "json")
    expected = (2, "", "lclab: error: n_max must be >= 0\n")
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv, "--cache", str(cache_dir)) == expected


@pytest.mark.parametrize(
    "argv",
    [("hz", "--C", "2"), ("cscan", "--g", "one", "--h", "id", "--C", "2")],
    ids=["hz", "cscan"],
)
def test_check_window_rejects_negative_m_max(argv, capsys):
    code, out, err = run(capsys, "check", *argv, "--m-max", "-1")
    assert (code, out) == (2, "")
    assert err == "lclab: error: --m-max must be >= 1, got -1\n"


def test_triangle_entries_past_int_str_limit(tmp_path, capsys):
    # g(2) = 10^4999 has 5000 digits, past CPython's default 4300
    g2 = "1" + "0" * 4999
    table = tmp_path / "g.txt"
    table.write_text(f"1\n{g2}\n7\n")
    argv = ("triangle", "--g", f"custom={table}", "--h", "one", "--n", "3", "--format", "csv")
    expected = f"0,1\n1,1\n2,{g2},1\n3,7,2{g2[1:]},1\n"
    assert run(capsys, *argv) == (0, expected, "")
    cache_dir = tmp_path / "c"
    for _ in range(2):  # a miss that writes, then a hit
        assert run(capsys, *argv, "--cache", str(cache_dir)) == (0, expected, "")
    assert len(list(cache_dir.iterdir())) == 1


def test_main_restores_int_str_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)  # not the default, so a leak cannot pass
    try:
        for g, code in (("one", 0), ("nope", 2)):
            assert run(capsys, "triangle", "--g", g, "--h", "id", "--n", "3")[0] == code
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@given(
    st.one_of(
        st.integers(),
        st.builds(lambda a, k: a * math.factorial(k), st.integers(), st.integers(0, 40)),
        st.fractions(),
    ),
    st.integers(0, 40),
    st.sampled_from(["one", "id"]),
)
def test_row_text_matches_fraction_str(b, n, h):
    tri = Triangle(arith.one(), h, [[1]] * n + [[b, 0]])  # only row n is read
    assert row_text(tri, n) == [str(Fraction(b) / tri.scale(n)), "0"]


# a custom label needing JSON escapes: a quote, a backslash, a non-ASCII letter
ODD_LABEL = 'custom:q"b\\ü.txt'

# name -> (g, h, n_max): both h, n = 0, Fraction-valued g, an escaped label
RENDER_CASES = {
    "sigma-id": (arith.sigma, "id", 9),
    "sigma-id-n0": (arith.sigma, "id", 0),
    "square-one": (arith.square, "one", 7),
    "tilde_sigma-one": (lambda: arith.tilde(arith.sigma()), "one", 7),
    "tilde_sigma-id": (lambda: arith.tilde(arith.sigma()), "id", 6),
    "odd_label-id": (lambda: arith.from_table([1, Fraction(3, 2), -2, 5], ODD_LABEL), "id", 4),
}


def _whole_render(tri, fmt, scaled):
    """The reference for the streamed render: every row's cells in lists,
    joined whole, json by json.dumps."""
    rows, scales = [], None
    for n in range(tri.n_max + 1):
        if scaled:
            rows.append([str(v) for v in tri.row_scaled(n)])
        else:
            rows.append([str(Fraction(b) / tri.scale(n)) for b in tri.row_scaled(n)])
    if scaled:
        scales = [str(tri.scale(n)) for n in range(tri.n_max + 1)]
    if fmt == "json":
        body = {"schema": 1, "g": tri.g.label, "h": tri.h, "n_max": tri.n_max,
                "scaled": scaled, "rows": rows}
        if scales:
            body["scales"] = scales
        return json.dumps(body, indent=2) + "\n"
    if fmt == "csv":
        return "".join(",".join([str(n)] + ([scales[n]] if scales else []) + row) + "\n"
                       for n, row in enumerate(rows))
    text = f"# g={tri.g.label} h={tri.h} n_max={tri.n_max}" + (" (integer-scaled)" if scaled else "")
    for n, row in enumerate(rows):
        scale = f" [x{scales[n]}]" if scales and tri.h == "id" else ""
        text += f"\n{n}:{scale} " + " ".join(row)
    return text + "\n"


@pytest.mark.parametrize("scaled", [False, True], ids=["values", "scaled"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_streamed_render_matches_whole_render(case, fmt, scaled):
    g, h, n_max = RENDER_CASES[case]
    tri = build_triangle(g(), h, n_max)
    out = io.StringIO()
    assert cli.format_triangle(tri, fmt, scaled, out) is None
    assert out.getvalue() == _whole_render(tri, fmt, scaled)


def test_streamed_render_rejects_unknown_format_before_writing():
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        cli.format_triangle(build_triangle(arith.one(), "id", 3), "xml", False, out)
    assert out.getvalue() == ""


def _tilde_sigma_table(path, n):
    values = arith.tilde(arith.sigma()).values(n)[1:]
    path.write_text("".join(f"{v}\n" for v in values))
    return f"custom={path}"


@pytest.mark.parametrize("scaled", [(), ("--scaled",)], ids=["values", "scaled"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("family", ["sigma-id", "tilde_sigma-one"])
def test_warm_cache_output_matches_cold(family, fmt, scaled, tmp_path, capsys):
    if family == "sigma-id":
        g, h = "sigma", "id"
    else:
        g, h = _tilde_sigma_table(tmp_path / "g.txt", 12), "one"

    def triangle(n, *cache):
        code, out, err = run(
            capsys, "triangle", "--g", g, "--h", h, "--n", str(n),
            "--format", fmt, *scaled, *cache,
        )
        assert (code, err) == (0, "")
        return out

    cold = triangle(8)
    exact, larger = tmp_path / "exact", tmp_path / "larger"
    assert triangle(8, "--cache", str(exact)) == cold  # miss, writes n = 8
    assert triangle(8, "--cache", str(exact)) == cold  # exact hit
    triangle(12, "--cache", str(larger))
    assert triangle(8, "--cache", str(larger)) == cold  # truncated hit
    assert len(list(exact.iterdir())) == len(list(larger.iterdir())) == 1


# sizes from n = 0 up, and on both sides of the column kernel's first two
# block edges (32 and 64 rows)
WARM_SIZES = [*range(0, 9), *range(31, 35), *range(63, 67)]


@settings(max_examples=12, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-9, 9), min_size=69, max_size=69),
        st.lists(st.fractions(-9, 9, max_denominator=6), min_size=69, max_size=69),
    ),
    st.sampled_from(["one", "id"]),
    st.sampled_from(WARM_SIZES),
    st.integers(1, 3),
)
def test_warm_cache_output_matches_cold_on_any_table(values, h, n, more):
    # int tables with zeros and negative entries, and Fraction tables: a
    # miss, an exact hit and a truncated hit print the cold bytes in every
    # format, scaled or not, and the cached runs write nothing to stderr
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "g.txt")
        with open(table, "w") as fh:
            fh.write("".join(f"{v}\n" for v in [1] + values))

        def triangle(size, *extra):
            out, err = os.path.join(tmp, "out.txt"), io.StringIO()
            argv = ["triangle", "--g", f"custom={table}", "--h", h, "--n", str(size), *extra]
            with contextlib.redirect_stderr(err):
                assert main(argv + ["--out", out]) == 0
            with open(out) as fh:
                return fh.read(), err.getvalue()

        larger = os.path.join(tmp, "larger")
        triangle(n + more, "--cache", larger)
        for fmt in ("table", "json", "csv"):
            for scaled in ((), ("--scaled",)):
                cold = (triangle(n, "--format", fmt, *scaled)[0], "")
                exact = ["--format", fmt, *scaled, "--cache", os.path.join(tmp, f"{fmt}{scaled}")]
                assert triangle(n, *exact) == cold  # miss, writes n
                assert triangle(n, *exact) == cold  # exact hit
                assert triangle(n, "--format", fmt, *scaled, "--cache", larger) == cold  # truncated hit


class _GcdCounter:
    """math.gcd, counting its calls."""

    def __init__(self, gcd):
        self.gcd, self.calls = gcd, 0

    def __call__(self, *args):
        self.calls += 1
        return self.gcd(*args)


@pytest.mark.parametrize("scaled", [(), ("--scaled",)], ids=["values", "scaled"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_warm_triangle_forms_no_gcd(fmt, scaled, tmp_path, capsys, monkeypatch):
    # a hit copies each value's lowest-terms text from its entry, and a
    # --scaled hit multiplies it by n!, which its denominator divides here,
    # so neither forms a gcd; the cold run, counted the same way, shows
    # that the count sees the render's gcds
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "40", "--format", fmt, *scaled,
            "--cache", str(tmp_path)]
    counter = _GcdCounter(math.gcd)
    monkeypatch.setattr(math, "gcd", counter)
    assert main(argv) == 0
    cold, cold_calls = capsys.readouterr(), counter.calls
    assert cold_calls >= 40 * 41 // 2 - 1  # one per nonzero cell of the save
    counter.calls = 0
    assert main(argv) == 0
    assert capsys.readouterr() == cold
    assert counter.calls == 0


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cold_miss_forms_each_gcd_once(fmt, tmp_path, capsys, monkeypatch):
    # an unscaled miss renders the entry it has just saved, so the save and
    # the render share one text per cell: --cache adds no gcd to a cold run
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "40", "--format", fmt]
    counter = _GcdCounter(math.gcd)
    monkeypatch.setattr(math, "gcd", counter)
    assert main(argv) == 0
    cold, cold_calls = capsys.readouterr(), counter.calls
    counter.calls = 0
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr() == cold
    assert counter.calls == cold_calls >= 40 * 41 // 2 - 1


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_scaled_miss_decodes_nothing(fmt, tmp_path, capsys, monkeypatch):
    # a --scaled miss prints the triangle it has just built, not its saved
    # entry read back; the hit that follows, counted the same way, shows
    # that the count sees the decode of each row
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "40", "--format", fmt, "--scaled",
            "--cache", str(tmp_path)]
    calls = []

    def counted(line, scale):
        calls.append(scale)
        return scaled_cells(line, scale)

    monkeypatch.setattr("lclab.cache.scaled_cells", counted)
    assert main(argv) == 0
    miss = capsys.readouterr()
    assert (miss.err, calls) == ("", [])
    assert main(argv) == 0
    assert capsys.readouterr() == miss
    assert len(calls) >= 41


@pytest.mark.parametrize("replacement", ["garbage", "smaller"])
def test_miss_renders_the_build_when_its_entry_is_replaced(replacement, tmp_path, capsys,
                                                          monkeypatch):
    # another writer replaces the entry between the save and the read-back:
    # reopen finds nothing it can serve, and the render falls back to the build
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    save = cli.save_triangle

    def save_then_replace(directory, tri):
        path = save(directory, tri)
        if replacement == "garbage":
            path.write_text("{not json")
        else:
            save(directory, build_triangle(tri.g, tri.h, tri.n_max // 2))
        return path

    monkeypatch.setattr(cli, "save_triangle", save_then_replace)
    argv = ["triangle", "--g", "sigma", "--h", "id", "--n", "40", "--format", "json"]
    _, cold, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--cache", str(tmp_path)) == (0, cold, "")


def test_triangle_schema1_entry_is_rebuilt_once(tmp_path, capsys):
    # an entry as schema 1 wrote it: decimal strings, digest of the sorted body
    tri = build_triangle(arith.sigma(), "id", 5)
    body = {
        "schema": 1, "kind": "triangle", "g": "sigma", "g_label": tri.g.label, "h": "id",
        "n_max": 5, "rows": [[str(v) for v in tri.row_scaled(n)] for n in range(6)],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    body["checksum"] = hashlib.sha256(blob).hexdigest()
    cache_dir = tmp_path / "c"
    cache_dir.mkdir()
    (cache_dir / entry_name("sigma", "id")).write_text(json.dumps(body, separators=(",", ":")))
    argv = ("triangle", "--g", "sigma", "--h", "id", "--n", "5")
    _, cold, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--cache", str(cache_dir))
    assert (code, out) == (0, cold)
    # one line of JSON with no newline, so not even a header
    warning = "lclab: warning: rebuilding, cache entry unusable"
    assert err == f"{warning}: triangle-sigma-id.json: not a schema-5 cache entry\n"
    assert run(capsys, *argv, "--cache", str(cache_dir)) == (0, cold, "")


_V25_FAILURES = [(n, 1) for n in range(3, 20, 2)] + [(6, 2)] + [(n, 2) for n in range(9, 20, 2)]

# check argv -> (exit code, stdout, stderr); columns past n_max read as zero,
# vertical's column range is checked after --g is read, and the --m-max of
# cscan, hz and table1 before every other input
COLUMN_SELECTION_CASES = {
    "vertical --g sigma --h id --m 30 --n-max 20": (
        0, "PASS vertical: g=sigma h=id m=30..30 centers n<=19\n", "",
    ),
    "vertical --g sigma --h id --m-to 25 --n-max 20": (
        1,
        "FAIL vertical: g=sigma h=id m=1..25 centers n<=19\n"
        "  16 failing center(s):\n"
        + "".join(f"    n={n} m={m}\n" for n, m in _V25_FAILURES),
        "",
    ),
    "vertical --g sigma --h id --m-from 18 --n-max 20": (
        0, "PASS vertical: g=sigma h=id m=18..20 centers n<=19\n", "",
    ),
    "vertical --g sigma --h id --m 2 --n-max 0": (
        0, "PASS vertical: g=sigma h=id m=2..2 centers n<=-1\n", "",
    ),
    "vertical --g one --h id --m 0 --n-max 5": (2, "", "lclab: error: bad column range 0..0\n"),
    "vertical --g one --h id --m -2 --n-max 5": (2, "", "lclab: error: bad column range -2..-2\n"),
    "vertical --g one --h id --m-from 0 --m-to 0 --n-max 5": (
        2, "", "lclab: error: bad column range 0..0\n",
    ),
    "table1 --m-max 0": (2, "", "lclab: error: --m-max must be >= 1, got 0\n"),
    "table1 --m-max -1": (2, "", "lclab: error: --m-max must be >= 1, got -1\n"),
    "table1 --m-max 3 --n-limit -5": (2, "", "lclab: error: n_limit must be >= 0\n"),
    "table1 --m-max 3 --n-limit -1": (2, "", "lclab: error: n_limit must be >= 0\n"),
    "cscan --g one --h id --C 0 --m-max 0": (
        2, "", "lclab: error: --m-max must be >= 1, got 0\n",
    ),
    "vertical --g custom=TWO --h id --n-max 5": (
        2, "", "lclab: error: 'custom:two.txt' is only defined for n <= 2, asked for 5\n",
    ),
}


@pytest.mark.parametrize("line", list(COLUMN_SELECTION_CASES))
def test_check_column_selection_edges(line, tmp_path, capsys):
    table = tmp_path / "two.txt"
    table.write_text("1\n1\n")
    argv = line.replace("custom=TWO", f"custom={table}").split()
    assert run(capsys, "check", *argv) == COLUMN_SELECTION_CASES[line]
