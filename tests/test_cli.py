"""Command-line surface tests: outputs, envelopes, exit codes, determinism."""
import importlib
import json
import math
import os
import re
import hashlib
import subprocess
import sys
import threading

import pytest

import magicbilliards
from magicbilliards.cli import _build_parser, _write_atomic, main
from magicbilliards.geometry import VERTICAL_VX

HEADER = "i,x,y,vx,vy,lambda1,lambda2,caustic"
# a generic boundary point, exact to full precision (the on-boundary gate
# rejects coordinates rounded to fewer than ~8 digits)
X0 = "0.2995"
Y0 = repr(2.0 * math.sqrt(1.0 - 0.2995**2 / 9.0))


def _simulate(tmp_path, *extra, name="run.csv"):
    out = tmp_path / name
    rc = main(
        ["simulate", "--x0", "0", "--y0", "2", "--dx", "0", "--dy", "-1",
         "--bounces", "2", "--out", str(out), *extra]
    )
    return rc, out


# ---------------------------------------------------------------------------
# simulate


def test_python_dash_m_runs_quietly(tmp_path):
    """``python -m magicbilliards`` runs the CLI without runpy's warning."""
    out = tmp_path / "run.csv"
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "magicbilliards", "simulate", "--x0", "0", "--y0", "2",
         "--dx", "0", "--dy", "-1", "--bounces", "5", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(out.read_text().splitlines()) == 7  # header + initial + 5 impacts


def test_import_leaves_the_cli_unloaded():
    """The library loads no CLI; the console script still names cli.main."""
    code = "import sys, magicbilliards; print(sorted(m for m in ('argparse', 'magicbilliards.cli') if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
    with open(os.path.join(os.path.dirname(src), "pyproject.toml"), encoding="utf-8") as fh:
        target = re.search(r'^magicbilliards = "(.+)"$', fh.read(), re.M).group(1)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_simulate_golden_vertical_chord(tmp_path):
    rc, out = _simulate(tmp_path)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "0,0,2,0,-1,0,9,9"
    assert lines[2] == "1,0,-2,0,1,0,9,9"
    assert lines[3] == "2,0,2,0,-1,0,9,9"
    assert len(lines) == 4


def test_simulate_bytes_are_lf_terminated(tmp_path):
    _, out = _simulate(tmp_path)
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_simulate_caustic_column_constant(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--system", "flip-long", "--x0", X0, "--y0", Y0,
         "--dx", "1", "--dy", "-0.3", "--bounces", "40", "--out", str(out)]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    caustics = [float(r[-1]) for r in rows]
    assert len(rows) == 41
    for c in caustics[1:]:
        assert c == pytest.approx(caustics[0], abs=1e-8)
    for r in rows:
        x, y, vx, vy = map(float, r[1:5])
        assert x * x / 9 + y * y / 4 == pytest.approx(1.0, abs=1e-9)
        assert math.hypot(vx, vy) == pytest.approx(1.0, abs=1e-12)


def test_simulate_annulus_row_count(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--table", "annulus", "--inner-lambda", "3", "--x0", "0",
         "--y0", "2", "--dx", "0.3", "--dy", "-1", "--bounces", "7",
         "--out", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 9  # header + initial + 7 impacts


def test_simulate_svg_structure(tmp_path):
    svg = tmp_path / "run.svg"
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--system", "flip-long", "--x0", X0, "--y0", Y0,
         "--dx", "1", "--dy", "-0.3", "--bounces", "5",
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg xmlns=")
    assert text.count("<path ") == 5  # one segment per bounce
    assert text.count("<circle ") == 5  # one numbered marker per impact
    assert text.count("<text ") == 5
    assert "stroke-dasharray" in text  # the caustic is drawn dashed
    assert text.count("<ellipse ") == 2  # boundary + elliptic caustic


def test_simulate_svg_degenerate_caustic(tmp_path):
    # the vertical chord's caustic collapses to the short axis: no dashed
    # curve to draw, but the rendering must still come out whole
    svg = tmp_path / "run.svg"
    rc, _ = _simulate(tmp_path, "--svg", str(svg))
    assert rc == 0
    text = svg.read_text()
    assert text.count("<path ") == 2
    assert text.rstrip().endswith("</svg>")


def test_simulate_svg_annulus_draws_inner_wall(tmp_path):
    svg = tmp_path / "run.svg"
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--table", "annulus", "--inner-lambda", "3", "--x0", "0",
         "--y0", "2", "--dx", "0.3", "--dy", "-1", "--bounces", "4",
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    text = svg.read_text()
    assert text.count('<ellipse cx="0" cy="0" rx=') >= 2  # outer and inner walls


# SHA-256 of the CSV and SVG that ``simulate`` writes, 200 bounces each:
# any change to the bounce kernel, the CSV columns or the serialisers that
# moves one byte of these files fails here.  The last start's first bounce
# leaves the wall with |vx| ~ 1e-16, below VERTICAL_VX.
_ELLIPSE_START = ["--x0", X0, "--y0", Y0, "--dx", "1", "--dy", "-0.3"]
_ANNULUS_START = ["--table", "annulus", "--inner-lambda", "3",
                  "--x0", X0, "--y0", Y0, "--dx", "0.3", "--dy", "-1"]
PINNED_OUTPUTS = {
    "ellipse-identity": (
        ["--system", "identity", *_ELLIPSE_START],
        "e3e5dd8cfa970412778cdc855264d55912b3864de1f08bb30db48b59a926d052",
        "dabfa6701010b9e3168c92138890a076acacfb0ac38f1db8e4f5f7ebc4cab55c",
    ),
    "ellipse-flip-long": (
        ["--system", "flip-long", *_ELLIPSE_START],
        "dc514510bbf02472da0aa1c174a8775a204b74fe3f9c8a193f071d4dd5461937",
        "8e7108cd496b6f04b82aac918dfd645555ea854d1d5bce2d54950b2de81eb229",
    ),
    "ellipse-flip-short": (
        ["--system", "flip-short", *_ELLIPSE_START],
        "9da509b03eed8d5f7a5567b8e83a6a4553aa1248f2c1c0cfa4cf47af80fc3424",
        "959e2bbcc986605101fe620e65e2ce754cb96ecd9e3e5080b1886d61a34392d2",
    ),
    "ellipse-half-turn": (
        ["--system", "half-turn", *_ELLIPSE_START],
        "e0fe3fb04a63a308de52fe64629549c263b587efa33fb1e010de69278aed813c",
        "e220569d8be3ffc8c48bbb174403367e8686cadda34444aff0630645a76786b1",
    ),
    "annulus-identity": (
        ["--system", "identity", *_ANNULUS_START],
        "c90a17f3f10772fafdd81dc06cd93af55cd147c4789e5295eb11ec50c289cd5b",
        "5b26870b7f3ca9fb7ea1628bb48cb42d5b1d339b2a3b1200b29d5cb53b7c3400",
    ),
    "annulus-flip-long": (
        ["--system", "flip-long", *_ANNULUS_START],
        "6f14b9bb2c970a9dd7cea2e9434b9b99f5524a06bf740c18f2f3026aa88eaa18",
        "62927e57f66937d4f4e41c5014051aeb7c8eb01552e6e0ee60ceed84f90c8afb",
    ),
    "annulus-flip-short": (
        ["--system", "flip-short", *_ANNULUS_START],
        "e5333813ee85951c46b1d67e6b369dfe8d7b8d0251f83c6e4029f327dcec91cd",
        "10f7fc3003cde6bdf13ca610a544054d5ee3581fa89b310110c737c51a00fa3b",
    ),
    "annulus-half-turn": (
        ["--system", "half-turn", *_ANNULUS_START],
        "cf9ead57aeba1c79afda6b27b8cf1fc542362110324c4aa326e618346071ae29",
        "07f266de20ed8b7a85d532c071320218720003f6d0a4fb5a20a2d326c1f273f0",
    ),
    "vertical-chord": (
        ["--x0", "0", "--y0", "2", "--dx", "0", "--dy", "-1"],
        "2d18553b52d55792a2c83d64514c2de131f1c5ecde04f37d31f61e7c0b380c8c",
        "f0c802777e843d9e4cfbb9b9fc01143ea8773e56247b076f64aebee1392fabda",
    ),
    "vertical-after-bounce": (
        ["--x0", "-1.3705941471893437", "--y0", "-1.7790723779780815",
         "--dx", "0.6085590996553581", "--dy", "0.7935085520816145"],
        "d8665b404bab2d31acc66b585e809283b9d8e09836cfd28549b93bb965751a06",
        "cda0806b0d5c399463bc260f39910332bd800b7c771f8a37ad66fa0ce16c8cf5",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_simulate_outputs_are_pinned_byte_for_byte(tmp_path, case):
    args, csv_sha, svg_sha = PINNED_OUTPUTS[case]
    csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    rc = main(["simulate", *args, "--bounces", "200", "--out", str(csv), "--svg", str(svg)])
    assert rc == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


def test_pinned_matrix_reaches_the_vertical_branch(tmp_path):
    """The vertical-after-bounce case sends a post-bounce row through |vx| < VERTICAL_VX."""
    csv = tmp_path / "run.csv"
    args = PINNED_OUTPUTS["vertical-after-bounce"][0]
    assert main(["simulate", *args, "--bounces", "2", "--out", str(csv)]) == 0
    vx = float(csv.read_text().splitlines()[2].split(",")[3])
    assert 0.0 < abs(vx) < VERTICAL_VX


@pytest.mark.parametrize(
    "args",
    [
        ["--x0", "1", "--y0", "1", "--dx", "0", "--dy", "-1"],  # off the boundary
        ["--x0", "0", "--y0", "2", "--dx", "0", "--dy", "0"],  # zero direction
        ["--x0", "0", "--y0", "2", "--dx", "0", "--dy", "1"],  # points outward
        ["--x0", "0", "--y0", "2", "--dx", "0", "--dy", "-1", "--bounces", "0"],
        ["--x0", "nan", "--y0", "2", "--dx", "0", "--dy", "-1"],
        ["--x0", "0", "--y0", "2", "--dx", "nan", "--dy", "-1"],
        ["--x0", "0", "--y0", "2", "--dx", "inf", "--dy", "-1"],
    ],
)
def test_simulate_usage_errors(tmp_path, args, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", *args, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--x0", "nan"), ("--y0", "inf"), ("--dx", "nan"), ("--dx", "inf"), ("--dy", "-inf")],
)
def test_simulate_rejects_non_finite_input_by_flag(tmp_path, capsys, flag, value):
    """A non-finite start or direction is refused up front, naming its flag."""
    out = tmp_path / "run.csv"
    start = {"--x0": "0", "--y0": "2", "--dx": "0", "--dy": "-1", flag: value}
    assert main(["simulate", *(f"{k}={v}" for k, v in start.items()), "--out", str(out)]) == 1
    assert f"error: {flag} must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# periodic


def test_periodic_envelope_and_roots(tmp_path):
    out = tmp_path / "roots.json"
    rc = main(
        ["periodic", "--system", "flip-long", "--n", "4", "--interval", "2:8",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"system", "n", "interval", "roots", "reason"}
    assert doc["system"] == "flip-long"
    assert doc["n"] == 4
    assert doc["interval"] == [2.0, 8.0]
    assert doc["reason"] is None
    betas = sorted(r["beta"] for r in doc["roots"])
    assert betas == pytest.approx([36 / 13, 7.2], abs=1e-6)
    for r in doc["roots"]:
        assert set(r) == {
            "system", "n", "beta", "cayley_value", "torsion_residual",
            "pell_residual", "closure_residual", "verified",
        }
        assert r["verified"] is True
        assert r["closure_residual"] < 1e-6


def test_periodic_flip_short_odd_reason(tmp_path):
    out = tmp_path / "roots.json"
    rc = main(
        ["periodic", "--system", "flip-short", "--n", "3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["roots"] == []
    assert doc["reason"] == "flip-short trajectories close only with an even period"


def test_periodic_two_reason(tmp_path):
    out = tmp_path / "roots.json"
    rc = main(["periodic", "--system", "half-turn", "--n", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["roots"] == []
    assert doc["reason"] == "no nondegenerate 2-periodic caustic exists"


@pytest.mark.parametrize(
    "args",
    [
        ["periodic", "--system", "identity", "--n", "3"],  # no odd identity closure
        ["periodic", "--n", "4", "--table", "annulus", "--inner-lambda", "3"],
        ["periodic", "--n", "4", "--interval", "7:3"],
        ["periodic", "--n", "1"],
        ["periodic", "--n", "4", "--interval", "2:11"],
        ["periodic", "--n", "4", "--inner-lambda", "3"],  # wrong table
    ],
)
def test_periodic_usage_errors(tmp_path, args, capsys):
    out = tmp_path / "roots.json"
    assert main([*args, "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_periodic_near_circular_family_is_a_usage_error(tmp_path, capsys):
    """a = b to 1e-12 repeats a root of the cubic: a usage error (exit 1), not exit 2."""
    out = tmp_path / "roots.json"
    rc = main(["periodic", "--a", "4.000000000000001", "--b", "4", "--n", "3",
               "--system", "half-turn", "--out", str(out)])
    assert rc == 1
    assert "repeated cubic root" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n,system", [(4, "identity"), (3, "flip-long"), (2, "half-turn")])
def test_periodic_near_circular_family_is_rejected_for_every_search(tmp_path, capsys, n, system):
    # the family is rejected before any search, so no parity or system
    # reaches a "verified" root next to the degenerate cubic
    out = tmp_path / "roots.json"
    rc = main(["periodic", "--a", "4.000000000000001", "--b", "4", "--n", str(n),
               "--system", system, "--out", str(out)])
    assert rc == 1
    assert "repeated cubic root" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# topology


def test_topology_level_report(tmp_path):
    out = tmp_path / "topo.json"
    rc = main(
        ["topology", "--system", "half-turn", "--beta", "2.5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "system", "beta", "kind", "component_count", "sample_count", "merge_evidence",
    }
    assert doc["system"] == "ellipse:half-turn"
    assert doc["kind"] == "ellipse"
    assert doc["component_count"] == 2
    assert doc["sample_count"] == 64


@pytest.mark.parametrize("system", ["half-turn", "identity"])
def test_topology_counts_two_tori_at_a_period_eight_caustic(tmp_path, system):
    # `periodic --a 10 --b 7.5 --n 8` reports this level, rho = 3/8, where
    # each Landen phase of F(phi|m) lands on an odd multiple of pi/2
    out = tmp_path / "topo.json"
    rc = main(["topology", "--a", "10", "--b", "7.5", "--system", system,
               "--beta", "7.071451058107543", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["component_count"] == 2


def test_topology_graph_document(tmp_path):
    out = tmp_path / "topo.json"
    rc = main(["topology", "--system", "flip-long", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"system", "atoms", "edges", "n", "singular_levels", "provenance"}
    assert doc["n"] == -2
    assert sorted(x["type"] for x in doc["atoms"]) == ["A", "A", "A", "B"]


@pytest.mark.parametrize(
    "args",
    [
        ["topology", "--system", "flip-long", "--beta", "4.0"],  # focal level
        ["topology"],  # identity has no graph
        ["topology", "--system", "half-turn", "--table", "annulus"],  # no wall given
        ["topology", "--system", "half-turn", "--inner-lambda", "3"],  # wrong table
    ],
)
def test_topology_usage_errors(tmp_path, args, capsys):
    out = tmp_path / "topo.json"
    assert main([*args, "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# shared surface behavior


def test_bad_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frequency", "11"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_no_temp_files_left_behind(tmp_path):
    _simulate(tmp_path)
    main(["topology", "--system", "flip-short", "--out", str(tmp_path / "t.json")])
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "args",
    [["--a=inf", "--interval=0:3"], ["--b=nan", "--interval=0:3"], ["--a=4", "--b=9"]],
)
def test_periodic_rejects_bad_family(tmp_path, args, capsys):
    out = tmp_path / "roots.json"
    rc = main(["periodic", *args, "--n=4", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "a=" in err and "b=" in err
    assert not out.exists()


def test_concurrent_writers_of_one_path(tmp_path):
    path = str(tmp_path / "shared.json")
    payloads = ["one\n" * 1000, "two\n" * 1000]
    errors = []

    def write(data):
        try:
            for _ in range(300):
                _write_atomic(path, data)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(d,)) for d in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() in payloads
    assert not list(tmp_path.glob("*.tmp"))


def test_outputs_are_byte_deterministic(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        per = tmp_path / f"{tag}-roots.json"
        topo = tmp_path / f"{tag}-topo.json"
        main(["simulate", "--system", "half-turn", "--x0", X0, "--y0", Y0,
              "--dx", "1", "--dy", "-0.3", "--bounces", "25",
              "--out", str(csv), "--svg", str(svg)])
        main(["periodic", "--system", "half-turn", "--n", "3", "--interval",
              "0.1:8.9", "--out", str(per)])
        main(["topology", "--system", "half-turn", "--beta", "6.0", "--out",
              str(topo)])
        pairs.append((csv.read_bytes(), svg.read_bytes(), per.read_bytes(),
                      topo.read_bytes()))
    assert pairs[0] == pairs[1]


# ---------------------------------------------------------------------------
# long byte pins


# SHA-256 of 2,000-bounce ``simulate`` files on the family (12.5, 3.5),
# recorded before the bounce loop became one float loop and unchanged in
# fresh processes.  Both starts leave the wall at t = 0.7; the ellipse
# orbit has an ellipse caustic and crosses both axes about 1,000 times, the
# annulus orbit alternates walls on a hyperbola caustic.
_LONG_A_B = ["--a", "12.5", "--b", "3.5"]
_LONG_POINT = ["--x0", "2.704125485832066", "--y0", "1.2052209340716655"]
_LONG_ELLIPSE = [*_LONG_POINT, "--dx", "0.1352648027483647", "--dy", "-0.383507811258491"]
_LONG_ANNULUS = ["--table", "annulus", "--inner-lambda", "2", *_LONG_POINT,
                 "--dx", "-0.08513807382544002", "--dy", "-0.39765099841962714"]
LONG_PINNED_OUTPUTS = {
    "ellipse-identity": (
        ["--system", "identity", *_LONG_ELLIPSE],
        "3ecd4113ff671d11d4b6e14ac06889347235a5aa32b0469bac7a806a66fb2feb",
        "1cb15ed18a57ddd66c1f4361aaaa584e1dd2d257134678c6d36d593b8ce81abd",
    ),
    "ellipse-flip-long": (
        ["--system", "flip-long", *_LONG_ELLIPSE],
        "f569e26db3fe39a07247209a8946b2ccaa10af21ecfe4d4fad0255e772321ab1",
        "7e96c8cc4f30b5c759e2e54a3565b3e6f0dfe2ff6d343d80fc64ba43b0a35d1a",
    ),
    "annulus-identity": (
        ["--system", "identity", *_LONG_ANNULUS],
        "a0d7f4c20e70cda709a3b2e68154205b114f5ad698fb3cb4d3ea26edd6962960",
        "9836ce3eaded3fdc79d1e100b42576eb0bf0b6f796d6f46c13376d0d7e610001",
    ),
    "annulus-flip-long": (
        ["--system", "flip-long", *_LONG_ANNULUS],
        "80217126ec1b9bbff0c8b19d9335bec270c44ede91b34bc2ea8a71f7af3c6832",
        "ef3dd208c18c3e20558537cde7ec6fec4b643bb03e118869d30afe92982f2b87",
    ),
}


@pytest.mark.parametrize("case", sorted(LONG_PINNED_OUTPUTS))
def test_long_simulate_outputs_are_pinned_byte_for_byte(tmp_path, case):
    args, csv_sha, svg_sha = LONG_PINNED_OUTPUTS[case]
    csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    rc = main(["simulate", *_LONG_A_B, *args, "--bounces", "2000",
               "--out", str(csv), "--svg", str(svg)])
    assert rc == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


# ---------------------------------------------------------------------------
# output paths


_SIMULATE = ["simulate", "--x0", "0", "--y0", "2", "--dx", "0", "--dy", "-1"]


@pytest.mark.parametrize(
    "command, svg",
    [
        (_SIMULATE, False),
        (_SIMULATE, True),  # a good --out and a bad --svg
        (["periodic", "--n", "3"], False),
        (["topology"], False),
    ],
    ids=["simulate-out", "simulate-svg", "periodic", "topology"],
)
def test_missing_output_directory_fails_before_computing(tmp_path, capsys, command, svg):
    """Exit 1 with an error line and no traceback, and nothing is written."""
    missing = str(tmp_path / "missing" / "out.file")
    good = str(tmp_path / "run.csv")
    paths = ["--out", good, "--svg", missing] if svg else ["--out", missing]
    assert main([*command, *paths]) == 1
    err = capsys.readouterr().err
    assert f"error: output directory {tmp_path / 'missing'} does not exist" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_output_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert main([*_SIMULATE, "--out", str(tmp_path)]) == 1
    assert f"error: output path {tmp_path} is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def full(path, data):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr("magicbilliards.cli._write_atomic", full)
    assert main([*_SIMULATE, "--out", str(tmp_path / "run.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 28] No space left on device")
    assert "Traceback" not in err


def test_svg_naming_the_csv_file_is_a_usage_error(tmp_path, capsys):
    """Compared by real path, so a symlink to the CSV is caught too."""
    csv = tmp_path / "run.csv"
    link = tmp_path / "link.svg"
    link.symlink_to(csv)
    for svg in (csv, tmp_path / "." / "run.csv", link):
        assert main([*_SIMULATE, "--out", str(csv), "--svg", str(svg)]) == 1
        assert "error: --svg names the same file as --out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.svg"]


def test_repeated_main_calls_write_only_their_own_files(tmp_path):
    """main builds its parser once, and no flag of one call reaches the next."""
    assert _build_parser() is _build_parser()
    runs = [
        ([*_SIMULATE, "--svg", "{}/run.svg", "--out", "{}/run.csv"], ["run.csv", "run.svg"]),
        (["periodic", "--n", "4", "--system", "flip-long", "--out", "{}/roots.json"], ["roots.json"]),
        ([*_SIMULATE, "--out", "{}/run.csv"], ["run.csv"]),
    ]
    for i, (argv, names) in enumerate(runs):
        folder = tmp_path / str(i)
        folder.mkdir()
        assert main([arg.format(folder) for arg in argv]) == 0
        assert sorted(p.name for p in folder.iterdir()) == names


def test_simulate_and_topology_load_no_scipy(tmp_path):
    """scipy is imported by the periodic search only, never by these commands."""
    runs = [
        [*_SIMULATE, "--svg", str(tmp_path / "run.svg"), "--out", str(tmp_path / "run.csv")],
        ["topology", "--system", "flip-long", "--out", str(tmp_path / "graph.json")],
        ["topology", "--system", "flip-long", "--beta", "2.5", "--out", str(tmp_path / "level.json")],
    ]
    code = (
        "import sys\n"
        "from magicbilliards.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[0, 0, 0] []"
