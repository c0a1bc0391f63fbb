"""The benchmark's three workloads: inputs drawn from the seed, and checks.

A workload turns (seed, round index) into a list of operations.  Each
operation is ``(label, call, check)``: ``call()`` is the only part that
is timed and calls one public function of the package; ``check(result)``
returns ``(status, detail)`` with status "ok", "F1" or "F2" (the two
known periodic-search faults, counted as failed) or "wrong".

Import this module only after ``magicbilliards``: the worker times the
package import on its own and this module pulls in the checks' scipy.
"""
from __future__ import annotations

import math
import os
import random
import xml.etree.ElementTree as ET

from magicbilliards import certificates, cli, dynamics, geometry, topology

import checks

SYSTEMS = ["identity", "flip-long", "flip-short", "half-turn"]
MAGIC = ["flip-long", "flip-short", "half-turn"]


def _rng(name: str, seed: int, index) -> random.Random:
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{index}")


def _shuffled(ops: list, rng: random.Random, index) -> list:
    # the warm-up operation that ends set-up is the first unshuffled one,
    # so that set-up does the same work whatever the seed
    if index != "warmup":
        rng.shuffle(ops)
    return ops


def _family(rng: random.Random, a_lo: float, a_hi: float) -> tuple[float, float]:
    a = rng.uniform(a_lo, a_hi)
    return a, a * rng.uniform(0.15, 0.85)


# ---------------------------------------------------------------------------
# periodic-sweep

# Searches that every family gets: even n for identity and flip-short,
# every n for half-turn and flip-long.
SWEEP = [(s, n) for n in range(4, 13, 2) for s in ("identity", "flip-short")] + [
    (s, n) for n in range(3, 13) for s in ("half-turn", "flip-long")
]
# Fixed families swept over all of SWEEP.  The searches at n >= 7 hit
# faults F1 and F2 there; because these inputs never change, every run
# and every seed fails the same operations.  (9, 4) is the paper's
# family; (20, 3) is where the 64-point grid also misses roots (F2).
REFERENCE_FAMILIES = [(9.0, 4.0), (20.0, 3.0)]
# Searches for the seeded families: those that passed on every family
# with b/a in [0.15, 0.85] tried.  Half-turn n = 5 and every n >= 7
# fail on some seeds only (see CHANGES.md), so they stay out.
SEEDED_SWEEP = [
    ("identity", 4), ("identity", 6), ("flip-short", 4), ("flip-short", 6),
    ("half-turn", 3), ("half-turn", 4), ("half-turn", 6),
    ("flip-long", 3), ("flip-long", 4), ("flip-long", 5), ("flip-long", 6),
]
SEEDED_FAMILIES = 4


def periodic_op(system: str, n: int, a: float, b: float, tag: str):
    kind = dynamics.MagicKind(system)

    def call():
        return certificates.find_periodic_caustics(kind, n, a, b, (0.0, a))

    def check(roots):
        return checks.check_roots(
            system, n, a, b, [r.beta for r in roots], [r.verified for r in roots]
        )

    return f"{tag} ({a!r}, {b!r}) {system} n={n}", call, check


def periodic_sweep(seed: int, index) -> list:
    rng = _rng("periodic-sweep", seed, index)
    ops = [
        periodic_op(s, n, a, b, "reference")
        for a, b in REFERENCE_FAMILIES
        for s, n in SWEEP
    ]
    for _ in range(SEEDED_FAMILIES):
        a, b = _family(rng, 2.0, 20.0)
        ops += [periodic_op(s, n, a, b, "seeded") for s, n in SEEDED_SWEEP]
    return _shuffled(ops, rng, index)


# ---------------------------------------------------------------------------
# foliation-census


def _table(shape: str, system: str, a: float, b: float, inner: float):
    lam = inner if shape == "annulus" else None
    return dynamics.TableSpec(geometry.ConfocalFamily(a, b), dynamics.MagicKind(system), lam)


TABLES = [(shape, system) for shape in ("ellipse", "annulus") for system in MAGIC]
# fomenko_graph runs on the paper's family and annulus: on families with
# small b/a it fails for some seeds only (see CHANGES.md)
GRAPH_FAMILY = (9.0, 4.0, 3.0)


def foliation_census(seed: int, index) -> list:
    rng = _rng("foliation-census", seed, index)
    ops = []
    for shape, system in TABLES:
        # a family of its own for each table, so that a run averages
        # over many families
        a, b = _family(rng, 4.0, 16.0)
        table = _table(shape, system, a, b, b * rng.uniform(0.4, 0.8))
        # ellipse caustics of an annulus must clear its inner wall
        top = table.inner_lam if shape == "annulus" else b
        want_e, want_h = checks.COMPONENTS[(shape, system)]
        ops.append(_level_op(table, shape, system, "ellipse", rng.uniform(0.2, 0.8) * top, want_e))
        beta = b + rng.uniform(0.2, 0.8) * (a - b)
        ops.append(_level_op(table, shape, system, "hyperbola", beta, want_h))
        ops.append(_graph_op(shape, system, _table(shape, system, *GRAPH_FAMILY)))
    return _shuffled(ops, rng, index)


def _level_op(table, shape, system, kind, beta, want):
    def call():
        return topology.classify_level(table, beta)

    def check(rep):
        if rep.kind != kind or rep.component_count != want:
            return "wrong", f"{rep.kind} level: {rep.component_count} components, paper {want}"
        return "ok", ""

    fam = table.fam
    label = f"classify_level {shape}:{system} ({fam.a!r}, {fam.b!r}, {table.inner_lam!r}) beta={beta!r}"
    return label, call, check


def _graph_op(shape, system, table):
    want = checks.FOCAL_ATOM[(shape, system)]

    def call():
        return topology.fomenko_graph(table)

    def check(graph):
        focal = [atom.type for atom in graph.atoms if atom.level == "b"]
        if focal != [want]:
            return "wrong", f"focal atoms {focal}, paper {want}"
        return "ok", ""

    fam = table.fam
    return f"fomenko_graph {shape}:{system} ({fam.a!r}, {fam.b!r}, {table.inner_lam!r})", call, check


# ---------------------------------------------------------------------------
# orbit-export

BOUNCES = 2000
SVG_PATH = "{http://www.w3.org/2000/svg}path"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def orbit_export(seed: int, index, outdir: str) -> list:
    rng = _rng("orbit-export", seed, index)
    a, b = _family(rng, 2.0, 20.0)
    inner = b * rng.uniform(0.4, 0.8)
    ops = []
    for shape in ("ellipse", "annulus"):
        for system in SYSTEMS:
            t = rng.uniform(0.0, 2.0 * math.pi)
            x0, y0 = math.sqrt(a) * math.cos(t), math.sqrt(b) * math.sin(t)
            nx, ny = -x0 / a, -y0 / b  # inward normal, unnormalised
            psi = rng.uniform(-1.25, 1.25)
            c, s = math.cos(psi), math.sin(psi)
            # "--dx=-1e-05": as a separate word argparse would read it as a flag
            argv = [
                "simulate", f"--a={a!r}", f"--b={b!r}", f"--system={system}",
                f"--table={shape}", f"--x0={x0!r}", f"--y0={y0!r}",
                f"--dx={c * nx - s * ny!r}", f"--dy={s * nx + c * ny!r}",
                f"--bounces={BOUNCES}", f"--seed={seed}",
            ]
            if shape == "annulus":
                argv.append(f"--inner-lambda={inner!r}")
            ops.append((f"{shape}-{system}", argv, a, b, inner if shape == "annulus" else None))
    # one invocation per round is run a second time, outside the timed
    # call, and both runs must write byte-identical files
    again = rng.randrange(len(ops))
    return [
        _simulate_op(*spec, outdir, repeat=(i == again)) for i, spec in enumerate(ops)
    ]


def _outputs(argv, outdir, tag):
    csv = os.path.join(outdir, f"{tag}.csv")
    svg = os.path.join(outdir, f"{tag}.svg")
    return argv + ["--out", csv, "--svg", svg], csv, svg


def _simulate_op(tag, argv, a, b, inner, outdir, repeat=False):
    full, csv, svg = _outputs(argv, outdir, tag)

    def call():
        try:
            return cli.main(full)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code

    def check(code):
        if code != 0:
            return "wrong", f"exit code {code}"
        bad = checks.check_orbit_csv(_read(csv).decode(), a, b, inner, BOUNCES)
        if bad:
            return "wrong", bad
        segments = sum(1 for el in ET.parse(svg).iter(SVG_PATH))
        if segments != BOUNCES:
            return "wrong", f"SVG holds {segments} segments for {BOUNCES} bounces"
        if repeat:
            again, csv2, svg2 = _outputs(argv, outdir, tag + "-again")
            if cli.main(again) != 0 or (_read(csv), _read(svg)) != (_read(csv2), _read(svg2)):
                return "wrong", "a repeated invocation wrote different files"
        return "ok", ""

    return "magicbilliards " + " ".join(full), call, check
