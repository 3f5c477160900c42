"""Pinned outputs of the dual-route crosschecks and of `check horizontal`.

Each crosscheck runs with one route perturbed at one chosen cell, so the
whole failing result is pinned: verdict, comparisons counted, first
mismatch and note, plus the CLI text and exit code where a subcommand
exists.  The perturbations patch names that the checks look up at call
time, on the route that is independent of the cell loop.  The
`check horizontal` cases pin failures and equalities that span several
rows and columns, in row-major order, and the negative entry a scan names.
"""

import json
from fractions import Fraction

import pytest

from lclab import arith, concavity, partitions, triangles
from lclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def perturb_builds(monkeypatch, h, cell, label=None):
    """Add 1 to the stored entry `cell` of every (g, h) build in triangles,
    optionally only for the family whose g is labelled `label`."""
    build = triangles.build_triangle
    n, m = cell

    def perturbed(g, h_, n_max):
        tri = build(g, h_, n_max)
        if h_ == h and label in (None, g.label) and n <= n_max:
            tri._rows[n][m - 1] += 1
        return tri

    monkeypatch.setattr(triangles, "build_triangle", perturbed)


def fail_text(name, cell, checked, note):
    return f"FAIL {name}: mismatch at {cell} after {checked} comparisons\n  {note}\n"


def test_conversion_pins_first_mismatch(monkeypatch, capsys):
    convert = triangles.convert

    def perturbed(tri):
        mapped = convert(tri)
        mapped._rows[6][2] += 1
        return mapped

    monkeypatch.setattr(triangles, "convert", perturbed)
    note = "g=sigma: mapped 173/8 vs built 165/8"
    res = triangles.check_conversion(arith.sigma(), 8)
    assert res.to_dict() == {
        "check": "conversion", "passed": False, "checked": 18,
        "first_mismatch": [6, 3], "note": note,
    }
    expected = fail_text("conversion", (6, 3), 18, note)
    assert run(capsys, "check", "conversion", "--g", "sigma", "--n-max", "8") == (1, expected, "")


def test_genfun_pins_first_mismatch(monkeypatch, capsys):
    # at x = 0 every row n >= 1 evaluates to 0, so the perturbed entry shows
    # only at the second point: the points are the outer loop
    perturb_builds(monkeypatch, "id", (5, 2))
    note = "g=sigma h=id: series 36 vs row 1081/30"
    res = triangles.genfun_crosscheck(arith.sigma(), "id", 7, [0, 2])
    assert (res.passed, res.checked, res.first_mismatch, res.note) == (
        False, 14, (5, Fraction(2)), note,
    )
    argv = ("check", "genfun", "--g", "sigma", "--h", "id", "--n-max", "7", "--xs", "0,2")
    expected = fail_text("genfun", (5, Fraction(2)), 14, note)
    assert run(capsys, *argv) == (1, expected, "")


def test_euler_pins_first_mismatch(monkeypatch, capsys):
    perturb_builds(monkeypatch, "id", (5, 2))
    note = "g=sigma x=1/3: product 646/729 vs row 25867/29160"
    res = triangles.euler_product_crosscheck(arith.sigma(), 7, Fraction(1, 3))
    assert res.to_dict() == {
        "check": "euler-product", "passed": False, "checked": 6,
        "first_mismatch": [5], "note": note,
    }
    argv = ("check", "euler", "--g", "sigma", "--n-max", "7", "--x", "1/3")
    assert run(capsys, *argv) == (1, fail_text("euler-product", (5,), 6, note), "")


def test_closed_forms_pin_first_mismatch(monkeypatch, capsys):
    # the third family: 2 * 21 cells of the first two, then 9 of (square, id)
    perturb_builds(monkeypatch, "id", (4, 3), label="square")
    res = triangles.closed_forms_check(6)
    assert res.to_dict() == {
        "check": "closed-forms", "passed": False, "checked": 51,
        "first_mismatch": [4, 3], "note": "family (square, id)",
    }
    expected = fail_text("closed-forms", (4, 3), 51, "family (square, id)")
    assert run(capsys, "check", "closed-forms", "--n-max", "6") == (1, expected, "")


def test_no_identity_pins_first_mismatch(monkeypatch, capsys):
    hook_poly = partitions.nekrasov_okounkov_poly

    def perturbed(n):
        poly = hook_poly(n)
        if n == 5:
            poly.coeffs[2] += Fraction(1, 7)
        return poly

    monkeypatch.setattr(partitions, "nekrasov_okounkov_poly", perturbed)
    note = "hook side 1823/168 vs shifted row 257/24"
    res = partitions.check_no_identity(7)
    assert res.to_dict() == {
        "check": "no-identity", "passed": False, "checked": 18,
        "first_mismatch": [5, 2], "note": note,
    }
    expected = fail_text("no-identity", (5, 2), 18, note)
    assert run(capsys, "check", "no-identity", "--n-max", "7") == (1, expected, "")


@pytest.mark.parametrize(
    "m_max, n_max, bump, checked, note",
    [
        # column 8 lies past n_max = 5, where both triangle routes read zero
        (12, 5, (8, 3), 38, "series 1, geometric 0, m!*exponential 0"),
        (6, 16, (2, 4), 20, "series 71/12, geometric 59/12, m!*exponential 59/12"),
    ],
)
def test_hz_equivalence_pins_first_mismatch(m_max, n_max, bump, checked, note, monkeypatch):
    coefficients = concavity.hong_zhang_coefficients

    def perturbed(m, n_top):
        b = coefficients(m, n_top)
        if m == bump[0]:
            b[bump[1]] += 1
        return b

    monkeypatch.setattr(concavity, "hong_zhang_coefficients", perturbed)
    res = concavity.hz_equivalence_check(m_max, n_max)
    assert res.to_dict() == {
        "check": "hz-equivalence", "passed": False, "checked": checked,
        "first_mismatch": [bump[1], bump[0]], "note": note,
    }


@pytest.mark.parametrize(
    "m_max, n_max, checked",
    [(12, 5, 60), (0, 5, 0), (3, 0, 0), (6, 16, 96)],
)
def test_hz_equivalence_counts_every_cell(m_max, n_max, checked):
    # m_max * n_max cells, also past n_max, where the columns read as zero
    assert concavity.hz_equivalence_check(m_max, n_max).to_dict() == {
        "check": "hz-equivalence", "passed": True, "checked": checked,
        "first_mismatch": None, "note": f"m <= {m_max}, n <= {n_max}",
    }


# custom g table -> h -> (failures, equalities) of check horizontal at n_max = 8
HORIZONTAL_CASES = {
    "1 0 5 0 0 1 0 9": {
        h: ([(3, 2), (4, 3), (5, 4), (6, 3), (6, 5), (7, 4), (7, 6), (8, 2), (8, 5), (8, 7)], [])
        for h in ("id", "one")
    },
    "1 1 0 2 0 0 0 2": {
        "id": ([(4, 2), (5, 3), (6, 4), (8, 3)], [(7, 5), (8, 2)]),
        "one": ([(4, 2), (5, 3), (8, 3)], []),
    },
}


@pytest.mark.parametrize("h", ["id", "one"])
@pytest.mark.parametrize("table", list(HORIZONTAL_CASES))
def test_check_horizontal_pins_row_major_order(table, h, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("\n".join(table.split()) + "\n")
    failures, equalities = HORIZONTAL_CASES[table][h]
    argv = ("check", "horizontal", "--g", f"custom={path}", "--h", h, "--n-max", "8")

    text = [f"FAIL horizontal: g=custom:g.txt h={h} rows 1..8",
            f"  {len(failures)} failing center(s):"]
    text += [f"    n={n} m={m}" for n, m in failures]
    if equalities:
        text.append("  equality holds at: " + ", ".join(f"(n={n},m={m})" for n, m in equalities))
    assert run(capsys, *argv) == (1, "\n".join(text) + "\n", "")

    body = {
        "check": "horizontal", "g": "custom:g.txt", "h": h, "passed": False,
        "n_range": [1, 8], "m_range": [1, 8],
        "failures": [list(c) for c in failures], "equalities": [list(c) for c in equalities],
        "boundary": [], "clipped": False, "params": {},
    }
    assert run(capsys, *argv, "--format", "json") == (1, json.dumps(body, indent=2) + "\n", "")


@pytest.mark.parametrize("h", ["id", "one"])
def test_check_horizontal_names_first_negative_entry(h, tmp_path, capsys):
    # negative entries at (3, 1), (6, 1) and (7, 2) for both h
    path = tmp_path / "neg.txt"
    path.write_text("1\n2\n-1\n3\n1\n-2\n4\n1\n")
    argv = ("check", "horizontal", "--g", f"custom={path}", "--h", h, "--n-max", "8")
    message = "log-concavity check needs nonnegative entries, but entry (3, 1) is negative"
    assert run(capsys, *argv) == (2, "", f"lclab: error: {message}\n")
