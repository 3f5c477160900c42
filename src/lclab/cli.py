"""Command line front end.

Two top-level commands: `triangle` prints a built coefficient triangle in
table, json, or csv form; `check` runs one of the named verification or
scan routines and exits 0 on pass, 1 when failures were found, 2 on usage
or input errors, out of memory among them.  All output goes to stdout
unless --out FILE is given; `triangle` writes each row as it is
formatted, never the whole text.

Machine formats encode every rational as a "p/q" (or plain integer)
string, never as a float.  The triangle cache directory comes from
--cache, with the LCLAB_CACHE environment variable taking precedence when
set.  --jobs is accepted on every command for interface stability, but
execution is sequential regardless; results do not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, TextIO

from . import arith
from .arith import ArithFn, from_table, _ratio
from .cache import (
    ENV_VAR,
    CachedRows,
    CacheError,
    load_triangle,
    reopen,
    row_text,
    save_triangle,
    unlimited_digits,
)
from .concavity import (
    ConcavityReport,
    _ColumnStream,
    first_failure_table,
    hong_zhang_scan,
    horizontal_check,
    vertical_check,
    window_scan,
)
from .partitions import check_no_identity
from .triangles import (
    CheckResult,
    DEFAULT_EVAL_POINTS,
    Triangle,
    build_triangle,
    check_conversion,
    closed_forms_check,
    euler_product_crosscheck,
    genfun_crosscheck,
)

G_CHOICES = "one|id|square|sigma|sigma_k=K|custom=PATH"
_SIGPIPE_EXIT = 141  # 128 + SIGPIPE: a reader of the output closed first
_NAMED_G = {"one": arith.one, "id": arith.identity, "square": arith.square, "sigma": arith.sigma}


def parse_g(token: str) -> ArithFn:
    """Turn a --g token into an arithmetic function."""
    if token in _NAMED_G:
        return _NAMED_G[token]()
    if token.startswith("sigma_k="):
        raw = token.split("=", 1)[1]
        try:
            power = int(raw)
        except ValueError:
            raise ValueError(f"sigma_k wants an integer power, got {raw!r}") from None
        return arith.sigma_k(power)
    if token.startswith("custom="):
        return ingest_custom_g(token.split("=", 1)[1])
    raise ValueError(f"unknown family {token!r}; expected {G_CHOICES}")


def ingest_custom_g(path: str) -> ArithFn:
    """Read a finite table of values, one per line.

    The k-th value line is g(k).  Blank lines and '#' comments (whole-line
    or trailing) are skipped.  Values are integers or p/q fractions.
    g(1) must equal 1, otherwise the table is rejected.
    """
    values = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read custom table: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(_ratio(Fraction(text)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"{path}:{lineno}: cannot parse {text!r} as an integer or p/q"
            ) from None
    if not values:
        raise ValueError(f"{path}: no values found")
    if values[0] != 1:
        raise ValueError(f"{path}: g(1) must be 1, got {values[0]}")
    digest = hashlib.sha256(
        "\n".join(str(v) for v in values).encode()
    ).hexdigest()[:12]
    return from_table(
        values, label=f"custom:{Path(path).name}", key=f"custom-{digest}"
    )


def parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {token!r} as an integer or p/q") from None


def parse_xs(token: str) -> list[Fraction]:
    return [parse_rational(part) for part in token.split(",") if part.strip()]


def _sink(out: str | None):
    """The one output of every command: the file --out names, else stdout."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------- triangle


_SEPARATORS = {"table": " ", "json": '",\n      "', "csv": ","}  # between a row's cells


def _row_pieces(tri: Triangle | CachedRows, scaled: bool, sep: str) -> Iterator[list[str]]:
    """Each row's cells as text joined by sep, one row at a time, as pieces
    to write in turn."""
    if isinstance(tri, CachedRows):
        return tri.rows(scaled, sep)
    return ([sep.join(map(str, tri.row_scaled(n)) if scaled else row_text(tri, n))]
            for n in range(tri.n_max + 1))


def format_triangle(tri: Triangle | CachedRows, fmt: str, scaled: bool, fh: TextIO) -> None:
    """Write a triangle, or the rows of a cache hit, to the text file fh,
    one line per row as the row is formatted.  Rows are printed for
    n = 0..n_max with entries in ascending m; --scaled swaps in the
    integer-scaled entries and adds the per-row scale.  The json form is
    written by hand, byte for byte what json.dumps(body, indent=2) gives:
    the cells are digits, '-' and '/' only, and the header strings go
    through json.dumps for their escapes."""
    if fmt not in _SEPARATORS:
        raise ValueError(f"unknown format {fmt!r}")
    last = tri.n_max
    rows = _row_pieces(tri, scaled, _SEPARATORS[fmt])
    if fmt == "json":
        head = {"schema": 1, "g": tri.g.label, "h": tri.h, "n_max": last, "scaled": scaled}
        fh.write(json.dumps(head, indent=2)[: -len("\n}")] + ',\n  "rows": [\n')
        for n, pieces in enumerate(rows):
            fh.write('    [\n      "')
            fh.writelines(pieces)
            fh.write('"\n    ]' + (",\n" if n < last else "\n  ]"))
        if scaled:
            fh.write(',\n  "scales": [\n')
            for n in range(last + 1):
                fh.write(f'    "{tri.scale(n)}"' + (",\n" if n < last else "\n  ]"))
        fh.write("\n}\n")
        return
    if fmt == "table":
        fh.write(f"# g={tri.g.label} h={tri.h} n_max={last}"
                 + (" (integer-scaled)\n" if scaled else "\n"))
    for n, pieces in enumerate(rows):
        if fmt == "csv":
            fh.write(f"{n},{tri.scale(n)}," if scaled else f"{n},")
        else:
            fh.write(f"{n}: [x{tri.scale(n)}] " if scaled and tri.h == "id" else f"{n}: ")
        fh.writelines(pieces)
        fh.write("\n")


def cmd_triangle(args) -> int:
    g = parse_g(args.g)
    cache_dir = os.environ.get(ENV_VAR) or args.cache
    hit = tri = None
    if cache_dir:
        try:
            hit = load_triangle(cache_dir, g, args.h, args.n)
        except CacheError as exc:
            print(f"lclab: warning: rebuilding, cache entry unusable: {exc}", file=sys.stderr)
    if hit is None:
        tri = build_triangle(g, args.h, args.n)
        if cache_dir:
            # a miss, a smaller build or a corrupt entry: the rebuild replaces
            # it, and the render reads it back, so each cell's text is formed once
            try:
                hit = reopen(save_triangle(cache_dir, tri), tri)
            except OSError as exc:  # the output does not depend on the cache
                print(f"lclab: warning: cache not written: {exc}", file=sys.stderr)
    with contextlib.nullcontext() if hit is None else hit, _sink(args.out) as fh:
        format_triangle(tri if hit is None else hit, args.format, args.scaled, fh)
    return 0


# ------------------------------------------------------------------ checks


def _render_result(res: CheckResult) -> str:
    if res.passed:
        text = f"PASS {res.name}: {res.checked} comparisons"
        if res.note:
            text += f" ({res.note})"
        return text
    lines = [f"FAIL {res.name}: mismatch at {res.first_mismatch} after {res.checked} comparisons"]
    if res.note:
        lines.append(f"  {res.note}")
    return "\n".join(lines)


_LIST_CAP = 50


def _render_report(report: ConcavityReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    if report.mode == "horizontal":
        span = f"rows {report.n_range[0]}..{report.n_range[1]}"
    else:
        span = f"m={report.m_range[0]}..{report.m_range[1]} centers n<={report.n_range[1]}"
    lines = [f"{status} {report.mode}: g={report.g} h={report.h} {span}"]
    if report.params:
        lines.append("  " + " ".join(f"{k}={v}" for k, v in report.params.items()))
    if not report.passed:
        lines.append(f"  {len(report.failures)} failing center(s):")
        for n, m in report.failures[:_LIST_CAP]:
            tag = "  (window boundary)" if (n, m) in report.boundary else ""
            lines.append(f"    n={n} m={m}{tag}")
        if len(report.failures) > _LIST_CAP:
            lines.append(f"    ... and {len(report.failures) - _LIST_CAP} more")
    if report.equalities:
        shown = ", ".join(f"(n={n},m={m})" for n, m in report.equalities[:8])
        more = " ..." if len(report.equalities) > 8 else ""
        lines.append(f"  equality holds at: {shown}{more}")
    return "\n".join(lines)


def _m_selection(args, default_to) -> tuple[int, int]:
    if args.m is not None and (args.m_from is not None or args.m_to is not None):
        raise ValueError("--m and --m-from/--m-to are mutually exclusive")
    lo, hi = (args.m, args.m) if args.m is not None else (args.m_from, args.m_to)
    lo = 1 if lo is None else lo
    hi = default_to if hi is None else hi
    if lo < 1 or hi < lo:
        raise ValueError(f"bad column range {lo}..{hi}")
    return lo, hi


def _run_horizontal(args) -> ConcavityReport:
    if args.m is not None or args.m_from is not None or args.m_to is not None:
        raise ValueError("column selection applies to vertical checks only")
    return horizontal_check(_ColumnStream(parse_g(args.g), args.h, args.n_max))


def _run_vertical(args) -> ConcavityReport:
    g = parse_g(args.g)
    m_from, m_to = _m_selection(args, default_to=args.n_max)
    return vertical_check(_ColumnStream(g, args.h, args.n_max), m_from, m_to)


def _m_max(args, first: int = 1, unless: str = "") -> int:
    """--m-max of cscan, hz and table1, checked first in their runners, so a
    bound below 1, or below the first scanned column, neither passes
    vacuously nor fails naming a library argument."""
    if args.m_max < 1:
        raise ValueError(f"--m-max must be >= 1, got {args.m_max}")
    if args.m_max < first:
        raise ValueError(f"--m-max must be >= {first}{unless}, got {args.m_max}")
    return args.m_max


def _run_cscan(args) -> ConcavityReport:
    m_max = _m_max(args, 1 if args.include_m1 else 2, " without --include-m1")
    return window_scan(
        parse_g(args.g), args.h, parse_rational(args.C), m_max, include_m1=args.include_m1
    )


def _run_hz(args) -> ConcavityReport:
    m_max = _m_max(args, 2)
    return hong_zhang_scan(parse_rational(args.C), m_max)


def _run_table1(args) -> list:
    return first_failure_table(_m_max(args), args.n_limit)


def _run_genfun(args) -> CheckResult:
    xs = list(DEFAULT_EVAL_POINTS) if args.xs is None else parse_xs(args.xs)
    return genfun_crosscheck(parse_g(args.g), args.h, args.n_max, xs)


# option name -> add_argument("--" + name, **spec)
_OPTIONS = {
    "g": {"required": True, "metavar": G_CHOICES, "help": "arithmetic function"},
    "h": {"required": True, "choices": ["one", "id"], "help": "weight family"},
    "n-max": {"type": int, "required": True},
    "m": {"type": int, "help": "single column"},
    "m-from": {"type": int},
    "m-to": {"type": int},
    "C": {"required": True, "metavar": "P/Q"},
    "m-max": {"type": int, "required": True},
    "include-m1": {"action": "store_true"},
    "xs": {"metavar": "LIST", "help": "comma-separated rationals"},
    "x": {"required": True, "metavar": "P/Q"},
    "n-limit": {"type": int, "default": 1500},
}

# check name -> (help, options in parser order, runner returning a result).
# An option is a name in _OPTIONS or a (name, spec) pair.  Runners look
# library functions up at call time, so rebinding a name in this module (as
# a profiler does) reaches them.
CHECKS = {
    "horizontal": (
        "row log-concavity",
        # --m/--m-from/--m-to are accepted only to be rejected
        ("g", "h", "n-max", ("m", {"type": int}), "m-from", "m-to"),
        _run_horizontal,
    ),
    "vertical": (
        "column log-concavity",
        ("g", "h", "n-max", "m", "m-from", "m-to"),
        _run_vertical,
    ),
    "cscan": (
        "column log-concavity restricted to windows n <= C^m",
        ("g", "h", "C", "m-max", "include-m1"),
        _run_cscan,
    ),
    "conversion": (
        "exponential vs geometric family bridge",
        ("g", "n-max"),
        lambda a: check_conversion(parse_g(a.g), a.n_max),
    ),
    "genfun": (
        "triangle rows vs generating series at sample points",
        ("g", "h", "n-max", "xs"),
        _run_genfun,
    ),
    "euler": (
        "triangle rows vs Euler product",
        ("g", "n-max", "x"),
        lambda a: euler_product_crosscheck(parse_g(a.g), a.n_max, parse_rational(a.x)),
    ),
    "no-identity": (
        "hook-length polynomials vs shifted divisor-sum rows",
        ("n-max",),
        lambda a: check_no_identity(a.n_max),
    ),
    "hz": (
        "windowed scan of divisor-sum series power coefficients",
        ("C", "m-max"),
        _run_hz,
    ),
    "table1": (
        "first failing center per column of the (one, id) family",
        ("m-max", "n-limit"),
        _run_table1,
    ),
    "closed-forms": (
        "six classic families vs their closed forms",
        ("n-max",),
        lambda a: closed_forms_check(a.n_max),
    ),
}


def cmd_check(args) -> int:
    """Run one check and write its verdict as json or text; 0 on a pass, else 1."""
    result = CHECKS[args.what][2](args)
    table1 = isinstance(result, list)  # each column's first failing centre, or None
    if args.format == "json":
        body = {"check": "first-failure-table", "n_limit": args.n_limit,
                "first_failures": result} if table1 else result.to_dict()
        text = json.dumps(body, indent=2)
    elif table1:
        text = " ".join("none" if v is None else str(v) for v in result)
    elif isinstance(result, ConcavityReport):
        text = _render_report(result)
    else:
        text = _render_result(result)
    with _sink(args.out) as fh:
        fh.write(text + "\n")
    passed = None not in result if table1 else result.passed
    return 0 if passed else 1


# ------------------------------------------------------------------ parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    p.add_argument(
        "--jobs", type=int, metavar="N",
        help="accepted for compatibility; execution is sequential either way",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lclab",
        description="Exact coefficient triangles of arithmetic polynomial "
        "families, their generating-series oracles, and log-concavity scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="build and print a coefficient triangle")
    tri.add_argument("--g", **_OPTIONS["g"])
    tri.add_argument("--h", **_OPTIONS["h"])
    tri.add_argument("--n", type=int, required=True, help="last row to build")
    tri.add_argument("--format", choices=["table", "json", "csv"], default="table")
    tri.add_argument("--cache", metavar="DIR", help=f"cache directory (env {ENV_VAR} wins)")
    tri.add_argument("--scaled", action="store_true",
                     help="print integer-scaled entries and the per-row scale")
    _add_common(tri)
    tri.set_defaults(func=cmd_triangle)

    check = sub.add_parser("check", help="run a verification or scan")
    what = check.add_subparsers(dest="what", required=True)
    for name, (help_text, options, _) in CHECKS.items():
        p = what.add_parser(name, help=help_text)
        p.add_argument("--format", choices=["text", "json"], default="text")
        _add_common(p)
        p.set_defaults(func=cmd_check)
        for option in options:
            flag, spec = option if isinstance(option, tuple) else (option, _OPTIONS[option])
            p.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with unlimited_digits():  # entries past 4300 digits print in full
            code = args.func(args)
        sys.stdout.flush()  # a reader that closed first shows here, not at exit
        return code
    except BrokenPipeError:  # end as a shell reports a SIGPIPE, and quietly
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # drop what stdout holds, so exit has nothing to flush
            with contextlib.suppress(BrokenPipeError):
                sys.stdout.close()
        return _SIGPIPE_EXIT
    except (ValueError, OSError, IndexError, OverflowError) as exc:  # a size past the index range too
        print(f"lclab: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a size past memory is a usage error too
        print("lclab: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
