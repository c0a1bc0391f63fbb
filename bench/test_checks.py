"""Tests of the benchmark's independent checks.

    python3 -m pytest bench/test_checks.py -q
"""
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from magicbilliards import (  # noqa: E402
    ConfocalFamily,
    MagicKind,
    TableSpec,
    classify_level,
    singular_level_report,
)
from magicbilliards.cli import main  # noqa: E402

A, B = 9.0, 4.0


@pytest.mark.parametrize(
    "lam,rho",
    [
        (36.0 / 13.0, 1 / 4),  # identity n=4, ellipse caustic
        (7.2, 1 / 4),  # identity n=4, hyperbola caustic
        (1.44, 1 / 6),
        (0.8518737580068128, 1 / 8),
        (4.277359246063364, 1 / 3),  # the flip-long n=3 root
    ],
)
def test_rotation_number_pinned_at_9_4(lam, rho):
    assert checks.rotation_number(A, B, lam) == pytest.approx(rho, abs=1e-11)


def test_rotation_number_is_scale_free_and_monotone():
    lams = [0.1 + 0.35 * k for k in range(11)]  # 0.1 .. 3.6, ellipse caustics
    rhos = [checks.rotation_number(A, B, lam) for lam in lams]
    assert rhos == sorted(rhos) and 0.0 < rhos[0] and rhos[-1] < 0.5
    hyp = [checks.rotation_number(A, B, 4.5 + 0.4 * k) for k in range(11)]
    assert hyp == sorted(hyp, reverse=True) and hyp[0] < 0.5
    assert checks.rotation_number(3 * A, 3 * B, 3 * 1.44) == pytest.approx(1 / 6, abs=1e-12)


@pytest.mark.parametrize(
    "system,n,count",
    [
        ("identity", 4, 2),
        ("flip-short", 4, 2),
        ("identity", 6, 3),
        ("identity", 8, 5),
        ("flip-long", 3, 1),  # hyperbola window only
        ("half-turn", 3, 1),  # n rho = 1/2 on each side, one of them in range
        ("half-turn", 5, 3),
        ("flip-short", 5, 0),  # odd flip-short never closes
        ("identity", 2, 0),
        ("identity", 16, 11),
    ],
)
def test_predicted_root_count_at_9_4(system, n, count):
    assert checks.predicted_root_count(system, n, A, B) == count


def test_roots_within_the_margin_are_not_predicted():
    # the flip-long n=9 root with rho = 4/9 lies 2.4e-6 above b, inside
    # the 1e-6 * a margin the search keeps clear of
    lo, _ = checks.search_windows("flip-long", 9, A, B)[0]
    assert checks.rotation_number(A, B, lo) < 4 / 9
    assert checks.predicted_root_count("flip-long", 9, A, B) == 1


def test_check_roots_classifies_each_fault():
    betas = [36.0 / 13.0, 7.2]
    assert checks.check_roots("identity", 4, A, B, betas, [True, True]) == ("ok", "")
    assert checks.check_roots("identity", 4, A, B, betas, [True, False])[0] == "F1"
    assert checks.check_roots("identity", 4, A, B, betas[:1], [True])[0] == "F2"
    assert checks.check_roots("identity", 4, A, B, [2.5, 7.2], [True, True])[0] == "wrong"
    assert checks.check_roots("identity", 4, A, B, betas + [7.2], [True] * 3)[0] == "wrong"
    assert checks.check_roots("flip-long", 3, A, B, [B], [True])[0] == "wrong"


@pytest.mark.parametrize("lam", [0.7, 2.5, 3.9, 4.2, 6.0, 8.5])
def test_tangent_caustic_recovers_the_conic(lam):
    for t in (0.3, 1.1, 2.6, 4.0):
        if lam < B:  # point and tangent of the ellipse C_lam
            ax, by = math.sqrt(A - lam), math.sqrt(B - lam)
            p, v = (ax * math.cos(t), by * math.sin(t)), (-ax * math.sin(t), by * math.cos(t))
        else:  # point and tangent of the hyperbola C_lam
            ax, by, u = math.sqrt(A - lam), math.sqrt(lam - B), t - 2.0
            p, v = (ax * math.cosh(u), by * math.sinh(u)), (ax * math.sinh(u), by * math.cosh(u))
        assert checks.tangent_caustic(A, B, *p, *v) == pytest.approx(lam, abs=1e-12)
    assert checks.tangent_caustic(A, B, 1.5, 0.2, 0.0, 1.0) == A - 1.5**2


def test_check_orbit_csv_accepts_simulate_output_and_rejects_damage(tmp_path):
    out = tmp_path / "run.csv"
    t = 0.9
    argv = [
        "simulate", "--system", "half-turn", "--table", "annulus", "--inner-lambda", "3",
        "--x0", repr(3.0 * math.cos(t)), "--y0", repr(2.0 * math.sin(t)),
        "--dx", "-1", "--dy", "-0.1", "--bounces", "300", "--out", str(out),
    ]
    assert main(argv) == 0
    text = out.read_text()
    assert checks.check_orbit_csv(text, A, B, 3.0, 300) is None
    assert "rows" in checks.check_orbit_csv(text, A, B, 3.0, 301)
    lines = text.splitlines()
    f = lines[7].split(",")
    f[3] = repr(float(f[3]) + 1e-6)  # bend one outgoing velocity
    assert "caustic" in checks.check_orbit_csv(
        "\n".join(lines[:7] + [",".join(f)] + lines[8:]), A, B, 3.0, 300
    )
    f = lines[7].split(",")
    f[1] = repr(float(f[1]) * 0.999)  # move one impact point off its wall
    damaged = "\n".join(lines[:7] + [",".join(f)] + lines[8:])
    assert checks.check_orbit_csv(damaged, A, B, 3.0, 300) is not None


def test_paper_tables_agree_with_the_package_at_9_4():
    fam = ConfocalFamily(A, B)
    assert set(checks.COMPONENTS) == set(checks.FOCAL_ATOM)
    for (shape, system), (n_ell, n_hyp) in checks.COMPONENTS.items():
        table = TableSpec(fam, MagicKind(system), 3.0 if shape == "annulus" else None)
        assert singular_level_report(table, B).atom == checks.FOCAL_ATOM[(shape, system)]
        got = (
            classify_level(table, 2.5, samples=16, steps=400).component_count,
            classify_level(table, 6.0, samples=16, steps=400).component_count,
        )
        assert got == (n_ell, n_hyp)
