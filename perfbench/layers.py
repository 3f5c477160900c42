"""Per-layer spans and counts, taken from outside the lclab package.

Each layer's public functions are wrapped where their callers look them
up: `install` rebinds `lclab.cli.build_triangle`,
`lclab.concavity.build_triangle` and so on to a wrapper that times the call
and, for some, derives an exact count from the arguments or the return
value.  Nothing in lclab changes.  A name that is missing, or no longer
refers to the same object at a call site, is skipped and listed, so a
refactor of lclab degrades the breakdown instead of breaking the run; the
skipped time then shows up in the enclosing span.

A span's self time is its duration minus its child spans and minus the
time spent computing counts after its children returned.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self._open: list[float] = []  # child time of each open span

    def span(self, fn, metric: str, hook=None):
        """Wrap fn so that its self time accrues to `metric`.

        hook(tracer, args, kwargs, result, exc) runs after the call, outside
        the span, and may return another metric name for this call.
        """
        tracer = self
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                children = open_spans.pop()
                name = metric
                if hook is not None:
                    name = hook(tracer, args, kwargs, result, exc) or metric
                t2 = perf_counter()  # the hook's time counts for no layer
                tracer.self_s[name] += (t1 - t0) - children
                if open_spans:
                    open_spans[-1] += t2 - t0

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Keep `seconds` spent inside the open span out of its self time."""
        if self._open:
            self._open[-1] += seconds

    def counter(self, fn, key: str, amount):
        """Wrap fn to add amount(*args) to counts[key]; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += amount(*args)
            return fn(*args, **kwargs)

        return wrapper


def _resolve(path: str):
    """'pkg.mod' -> module, 'pkg.mod:Class' -> class; None if absent."""
    mod, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(mod)
    except ImportError:
        return None
    return getattr(obj, attr, None) if attr else obj


# ------------------------------------------------------------ computed counts


def _entry_bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return abs(v).bit_length()


def _build(tracer, args, kwargs, tri, exc):
    if exc is not None:
        return None
    n_max = tri.n_max
    m_max = tri.m_max
    tracer.counts["triangles.build_calls"] += 1
    muladds = 0
    for n in range(2, n_max + 1):
        top = n if m_max is None else min(n, m_max)
        # inner loop of column m runs over k = 1..n-m+1, for m = 2..top
        muladds += (top - 1) * (2 * n - top) // 2
    tracer.counts["triangles.muladds"] += muladds
    bits = 0
    frac = False
    for n in range(n_max + 1):
        for v in tri.row_scaled(n):
            bits = max(bits, _entry_bits(v))
            frac = frac or isinstance(v, Fraction)
    tracer.counts["triangles.max_bits"] = max(tracer.counts["triangles.max_bits"], bits)
    return "triangles.build_frac_s" if frac else None


def _scan_done(tracer, report, comparisons):
    tracer.counts["concavity.comparisons"] += comparisons
    tracer.counts["concavity.failures"] += len(report.failures)


def _horizontal(tracer, args, kwargs, report, exc):
    if exc is None:
        lo, hi = max(report.n_range[0], 1), report.n_range[1]
        _scan_done(tracer, report, (hi * (hi + 1) - (lo - 1) * lo) // 2)


def _vertical(tracer, args, kwargs, report, exc):
    if exc is None:
        (m_from, m_to), n_top = report.m_range, report.n_range[1]
        _scan_done(tracer, report, (m_to - m_from + 1) * max(n_top, 0))


def _c_vertical(tracer, args, kwargs, report, exc):
    if exc is None:
        tri, C = args[0], Fraction(report.params["C"])
        m_from, m_to = report.m_range
        reach = sum(
            min(C.numerator**m // C.denominator**m, tri.n_max - 1)
            for m in range(m_from, m_to + 1)
        )
        _scan_done(tracer, report, reach)


def _first_failures(tracer, args, kwargs, firsts, exc):
    if exc is None:
        n_limit = args[1] if len(args) > 1 else kwargs.get("n_limit", 1500)
        found = [n for n in firsts if n is not None]
        tracer.counts["concavity.comparisons"] += sum(found) + n_limit * (len(firsts) - len(found))
        tracer.counts["concavity.failures"] += len(found)


def _stirling_table(tracer, args, kwargs, table, exc):
    if exc is None:
        tracer.counts["stirling.cells"] += table.m_max * table.n_max


def _series_call(tracer, args, kwargs, result, exc):
    tracer.counts["series.calls"] += 1


@functools.lru_cache(maxsize=None)
def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _hook_poly(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["partitions.count"] += _partition_count(args[0])


def _load(tracer, args, kwargs, tri, exc):
    tracer.counts["cache.lookups"] += 1
    if exc is not None:
        if type(exc).__name__ == "CacheError":
            tracer.counts["cache.rebuilds"] += 1
    elif tri is not None:
        tracer.counts["cache.hits"] += 1


def _save(tracer, args, kwargs, path, exc):
    if isinstance(path, os.PathLike):
        tracer.counts["cache.bytes_written"] += os.stat(path).st_size


# (defining module or class, name, call sites where it is rebound, metric, hook)
SPANS = [
    ("lclab.triangles", "build_triangle",
     ("lclab.cli", "lclab.concavity", "lclab.partitions", "lclab.triangles"),
     "triangles.build_s", _build),
    ("lclab.triangles", "check_conversion", ("lclab.cli",), "triangles.crosscheck_s", None),
    ("lclab.triangles", "genfun_crosscheck", ("lclab.cli",), "triangles.crosscheck_s", None),
    ("lclab.triangles", "euler_product_crosscheck", ("lclab.cli",), "triangles.crosscheck_s", None),
    ("lclab.triangles", "closed_forms_check", ("lclab.cli",), "triangles.crosscheck_s", None),
    ("lclab.concavity", "horizontal_check", ("lclab.cli",), "concavity.scan_s", _horizontal),
    ("lclab.concavity", "vertical_check", ("lclab.cli",), "concavity.scan_s", _vertical),
    ("lclab.concavity", "c_vertical_check", ("lclab.cli", "lclab.concavity"),
     "concavity.scan_s", _c_vertical),
    ("lclab.concavity", "first_failure_table", ("lclab.cli",), "concavity.scan_s", _first_failures),
    ("lclab.stirling", "StirlingColumnTable", ("lclab.concavity",), "stirling.table_s", _stirling_table),
    ("lclab.series:Series", "exp", ("lclab.series:Series",), "series.exp_s", _series_call),
    ("lclab.series:Series", "inverse", ("lclab.series:Series",), "series.inverse_s", _series_call),
    ("lclab.series:Series", "__mul__", ("lclab.series:Series",), "series.mul_s", _series_call),
    ("lclab.series:Series", "pow_int", ("lclab.series:Series",), "series.mul_s", _series_call),
    ("lclab.partitions", "nekrasov_okounkov_poly", ("lclab.partitions",),
     "partitions.hook_poly_s", _hook_poly),
    ("lclab.partitions", "taylor_shift", ("lclab.partitions",), "partitions.taylor_shift_s", None),
    ("lclab.arith", "divisor_sigma_sieve", ("lclab.arith",), "arith.sieve_s", None),
    ("lclab.arith", "moebius_sieve", ("lclab.arith",), "arith.sieve_s", None),
    ("lclab.arith", "moebius_convolve", ("lclab.triangles",), "arith.sieve_s", None),
    ("lclab.cache", "load_triangle", ("lclab.cli",), "cache.load_s", _load),
    ("lclab.cache", "save_triangle", ("lclab.cli",), "cache.save_s", _save),
    ("lclab.cli", "format_triangle", ("lclab.cli",), "cli.render_s", None),
    ("lclab.cli", "_render_result", ("lclab.cli",), "cli.render_s", None),
    ("lclab.cli", "_render_report", ("lclab.cli",), "cli.render_s", None),
]

# (defining module or class, name, counter key, amount per call); no span
COUNTERS = [
    ("lclab.arith:ArithFn", "values", "arith.values_calls", lambda *a: 1),
    # the one file-reading step of load_triangle (private name), for bytes read
    ("lclab.cache", "_parse_entry", "cache.bytes_read", lambda path, *a: os.stat(path).st_size),
]


def install(tracer: Tracer) -> None:
    """Rebind every listed name at its call sites to a traced wrapper."""
    plan = [(o, n, s, tracer.span, (m, h)) for o, n, s, m, h in SPANS]
    plan += [(o, n, (o,), tracer.counter, (k, a)) for o, n, k, a in COUNTERS]
    for owner, name, sites, make, extra in plan:
        original = getattr(_resolve(owner), name, None)
        wrapper = None if original is None else make(original, *extra)
        for site in sites:
            target = _resolve(site)
            if original is not None and getattr(target, name, None) is original:
                setattr(target, name, wrapper)
            else:
                tracer.skipped.append(f"{site}.{name}")
