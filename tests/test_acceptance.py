"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with its runtime.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines on passing runs too).

The heavy builds stay within a desk-scale budget: the whole module is
expected to finish in a few minutes, dominated by the weight-500 build of
criterion 7.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from lclab import arith
from row_identities import row_identity_mismatches
from lclab.cli import main
from lclab.concavity import (
    hz_equivalence_check,
    horizontal_check,
    is_logconcave,
    stirling_column_failures,
    vertical_check,
)
from lclab.partitions import check_no_identity, count_partitions
from lclab.series import Series, eichler_integral
from lclab.concavity import sibuya_strict_check
from lclab.stirling import delta
from lclab.triangles import (
    build_triangle,
    check_conversion,
    closed_forms_check,
    euler_product_crosscheck,
    genfun_crosscheck,
)


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def _report(criterion: int, ok: bool, detail: str, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail} ({seconds:.1f} s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_first_failure_table(capsys):
    with _Clock() as clock:
        code = main(["check", "table1", "--m-max", "7"])
    out = capsys.readouterr().out.strip()
    with capsys.disabled():
        _report(
            1,
            code == 0 and out == "2 5 17 54 162 469 1330",
            f"first failures m=1..7 -> {out!r}, exit {code}",
            clock.seconds,
        )
    assert clock.seconds < 120


def test_criterion_2_scaled_table_weight_six():
    expected = {
        1: [1],
        2: [1, 1],
        3: [2, 3, 1],
        4: [6, 11, 6, 1],
        5: [24, 50, 35, 10, 1],
        6: [120, 274, 225, 85, 15, 1],
    }
    with _Clock() as clock:
        tri = build_triangle(arith.one(), "id", 6)
        rows = {n: tri.row_scaled(n) for n in range(1, 7)}
    ok = rows == expected
    count = sum(len(r) for r in expected.values())
    _report(2, ok, f"all {count} integer-scaled entries for n <= 6 match", clock.seconds)


def test_criterion_3_closed_forms():
    with _Clock() as clock:
        res = closed_forms_check(30)
    _report(3, res.passed, f"6 families, {res.checked} exact comparisons", clock.seconds)
    assert clock.seconds < 10


def test_criterion_4_conversion_bridge():
    with _Clock() as clock:
        results = [
            check_conversion(make(), 50)
            for make in (arith.one, arith.identity, arith.square, arith.sigma)
        ]
    ok = all(r.passed for r in results)
    total = sum(r.checked for r in results)
    _report(4, ok, f"4 families to n = 50, {total} exact comparisons", clock.seconds)
    assert clock.seconds < 30


def test_criterion_5_hook_polynomial_identity():
    with _Clock() as clock:
        res = check_no_identity(20)
    _report(
        5, res.passed,
        f"hook polynomials equal shifted rows for n <= 20 ({res.checked} coefficients)",
        clock.seconds,
    )
    assert clock.seconds < 60


def test_criterion_6_series_crosschecks():
    xs = (1, 2, 3, -1, Fraction(1, 2))
    with _Clock() as clock:
        gen_ok = all(
            genfun_crosscheck(make(), h, 30, xs).passed
            for make, h in (
                (arith.sigma, "id"),
                (arith.square, "id"),
                (arith.one, "one"),
                (arith.identity, "one"),
            )
        )
        euler_ok = all(
            euler_product_crosscheck(arith.sigma(), 30, x).passed for x in xs
        )
        tri = build_triangle(arith.sigma(), "id", 30)
        partition_ok = all(
            tri.row_poly(n)(1) == count_partitions(n) for n in range(31)
        )
    _report(
        6, gen_ok and euler_ok and partition_ok,
        "series routes match rows at 5 sample points; x = 1 gives partition numbers",
        clock.seconds,
    )


def test_criterion_7_horizontal_at_weight_500():
    with _Clock() as clock:
        tri = build_triangle(arith.sigma(), "id", 500)
        report = horizontal_check(tri)
    _report(
        7, report.passed,
        f"all rows n <= 500 log-concave ({len(report.failures)} failures)",
        clock.seconds,
    )
    assert clock.seconds < 600
    with _Clock() as clock:
        mismatches = row_identity_mismatches(tri)
    _report(
        7, not mismatches,
        f"every row n <= 500 matches its closed form at x = 1, -1, -3 ({len(mismatches)} mismatches)",
        clock.seconds,
    )


def test_criterion_8_vertical_failure_laws():
    with _Clock() as clock:
        m1 = stirling_column_failures(1, 1000)
        m2 = stirling_column_failures(2, 1000)
        law_ok = m1 == list(range(2, 1001)) and m2 == list(range(5, 1001))
        m2_set = set(m2)
        sign_ok = True
        for n in range(2, 201):
            d = delta(n)
            if d == 0 or (d < 0) != (n in m2_set):
                sign_ok = False
                break
    _report(
        8, law_ok and sign_ok,
        "m=1 fails on 2..1000, m=2 exactly on 5..1000, delta sign agrees to 200",
        clock.seconds,
    )


def test_criterion_9_hz_bridge_and_scan(capsys):
    with _Clock() as clock:
        bridge = hz_equivalence_check(10, 50)
        code = main(["check", "hz", "--C", "2", "--m-max", "9"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            9, bridge.passed and code == 0 and out.startswith("PASS"),
            f"three coefficient routes agree (m <= 10, n <= 50); scan to n = 512 exit {code}",
            clock.seconds,
        )
    assert clock.seconds < 300


def test_criterion_10_property_suites():
    with _Clock() as clock:
        # Moebius round-trip over every built-in, n <= 50
        moebius_ok = True
        for make in (arith.one, arith.identity, arith.square, arith.sigma):
            g = make()
            f = arith.moebius_convolve(g, 50)
            for n in range(1, 51):
                total = sum(f(d) for d in range(1, n + 1) if n % d == 0)
                if total != g(n):
                    moebius_ok = False
        # exp/inverse ring identities on the divisor-sum series
        e = eichler_integral(arith.sigma(), 24)
        ring_ok = (
            e.exp() * (-e).exp() == Series.one(24)
            and (2 * e).exp() == e.exp() * e.exp()
        )
        geo = Series.one(24) - Series.from_arith(arith.sigma(), 24)
        ring_ok = ring_ok and geo * geo.inverse() == Series.one(24)
        # zero extension cannot change a verdict
        tri30 = build_triangle(arith.sigma(), "id", 30)
        pad_ok = all(
            is_logconcave([0, 0] + tri30.row_scaled(n) + [0]) is None
            for n in range(1, 31)
        )
        # vertical verdicts are scale invariant under the m! column bridge
        scale_ok = (
            vertical_check(build_triangle(arith.sigma(), "id", 40)).failures
            == vertical_check(build_triangle(arith.tilde(arith.sigma()), "one", 40)).failures
        )
        sibuya_ok = all(sibuya_strict_check(n) for n in range(3, 201))
    _report(
        10, moebius_ok and ring_ok and pad_ok and scale_ok and sibuya_ok,
        "Moebius round-trip, series ring identities, zero extension, "
        "scale invariance, strict row inequality to n = 200",
        clock.seconds,
    )
