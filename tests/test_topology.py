"""Level-set classification tests: component counts, singular levels, graphs."""
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from magicbilliards import (
    BoundaryPhase,
    ConfocalFamily,
    DegenerateLevel,
    LevelSetReport,
    MagicKind,
    TableSpec,
    UnknownSystem,
    classify_level,
    fomenko_graph,
    singular_level_report,
    trajectory,
)
from magicbilliards import topology
from magicbilliards.dynamics import (
    FOCAL_SLACK,
    ORBIT_MATCH_RTOL,
    _level_grid,
    level_orbits,
    phase_distance,
    step,
    step_inverse,
)
from magicbilliards.geometry import caustic_of_line
from magicbilliards.topology import (
    SEED_BLOCK,
    SEP_MAX_SEGMENTS,
    WINDING_MIN_SWEEP,
    WINDING_WINDOW,
    _HYPERBOLA_LABELS,
    _focal_seeds,
    _hyperbola_labels,
    _level_signatures,
    _merge_count,
    _sep_label,
    _sep_signature,
    _tangent_seeds,
)

FAM = ConfocalFamily(9.0, 4.0)
ELL = {k: TableSpec(FAM, k) for k in MagicKind}
ANN = {k: TableSpec(FAM, k, 3.0) for k in MagicKind}

SIX = [
    ELL[MagicKind.FLIP_LONG],
    ELL[MagicKind.FLIP_SHORT],
    ELL[MagicKind.HALF_TURN],
    ANN[MagicKind.FLIP_LONG],
    ANN[MagicKind.FLIP_SHORT],
    ANN[MagicKind.HALF_TURN],
]

# (table, components at beta=2.5, components at beta=6)
COMPONENT_TABLE = [
    (ELL[MagicKind.FLIP_LONG], 1, 2),
    (ELL[MagicKind.FLIP_SHORT], 1, 1),
    (ELL[MagicKind.HALF_TURN], 2, 2),
    (ANN[MagicKind.FLIP_LONG], 1, 1),
    (ANN[MagicKind.FLIP_SHORT], 1, 2),
    (ANN[MagicKind.HALF_TURN], 2, 1),
]


def _name(table: TableSpec) -> str:
    return f"{table.shape}-{table.outer_map.value}"


# ---------------------------------------------------------------------------
# regular levels


@pytest.mark.parametrize(
    "table,ell_count,hyp_count", COMPONENT_TABLE, ids=[_name(t) for t, _, _ in COMPONENT_TABLE]
)
def test_component_counts(table, ell_count, hyp_count):
    rep_e = classify_level(table, 2.5, samples=64)
    assert rep_e.kind == "ellipse"
    assert rep_e.component_count == ell_count
    rep_h = classify_level(table, 6.0, samples=64)
    assert rep_h.kind == "hyperbola"
    assert rep_h.component_count == hyp_count


def test_report_fields_and_invariants():
    rep = classify_level(ELL[MagicKind.FLIP_LONG], 6.0, samples=32)
    assert rep.beta == 6.0
    assert rep.sample_count == 32
    assert rep.component_count >= 1
    labels = {x for pair in rep.merge_evidence for x in pair}
    # merged pairs can only shrink the class count below the label count
    assert not labels or rep.component_count <= len(labels) + rep.component_count


def test_classification_is_deterministic():
    a = classify_level(ANN[MagicKind.HALF_TURN], 2.5, samples=32)
    b = classify_level(ANN[MagicKind.HALF_TURN], 2.5, samples=32)
    assert a == b


def test_indeterminate_levels_count_one():
    # just off the focal level the winding window cannot accumulate angle,
    # yet the count must stay well defined
    rep = classify_level(ELL[MagicKind.IDENTITY], FAM.b - 1e-3, samples=16, steps=200)
    assert rep.component_count >= 1


@pytest.mark.parametrize("beta", [4.0, 1e-12, 9.0 - 1e-12])
def test_singular_betas_rejected(beta):
    with pytest.raises(DegenerateLevel):
        classify_level(ELL[MagicKind.FLIP_LONG], beta)


def test_annulus_shadow_band_rejected():
    # ellipse caustics nested inside the inner wall bound no annulus orbit
    with pytest.raises(DegenerateLevel):
        classify_level(ANN[MagicKind.FLIP_LONG], 3.5)
    # at the wall parameter itself the level degenerates to gliding
    with pytest.raises(DegenerateLevel):
        classify_level(ANN[MagicKind.FLIP_LONG], 3.0)
    # outside the band the level is regular again
    assert classify_level(ANN[MagicKind.FLIP_LONG], 2.5).component_count == 1


def test_classify_argument_errors():
    with pytest.raises(ValueError):
        classify_level(ELL[MagicKind.FLIP_LONG], 2.5, samples=8)
    with pytest.raises(ValueError):
        classify_level(ELL[MagicKind.FLIP_LONG], -1.0)
    with pytest.raises(ValueError):
        classify_level(ELL[MagicKind.FLIP_LONG], 11.0)
    # no winding window fits in WINDING_WINDOW steps or fewer
    for steps in (WINDING_WINDOW, 1, 0, -5):
        with pytest.raises(ValueError, match="need steps > 32"):
            classify_level(ELL[MagicKind.FLIP_LONG], 2.5, steps=steps)


def test_seeds_cover_boundary_and_branches():
    # regression: seeds must spread over every admissible boundary arc, not
    # crowd into the first one, or entire components go unseeded
    for table, beta in [
        (ELL[MagicKind.HALF_TURN], 6.0),
        (ANN[MagicKind.FLIP_SHORT], 6.0),
        (ELL[MagicKind.FLIP_LONG], 2.5),
    ]:
        seeds = _tangent_seeds(table, beta, 32)
        assert len(seeds) == 32
        xs = sorted(p.at[0] for p in seeds)
        assert xs[0] < 0.0 < xs[-1]
        for s in seeds:
            m = caustic_of_line(table.fam, s.at, s.v)
            assert m.lam == pytest.approx(beta, abs=1e-8)


def _segments(table, s0, steps):
    """(x, y, vx, vy, hit y before magic) of each scalar segment from s0."""
    traj = trajectory(table, s0, steps)
    return list(zip(traj.x, traj.y, traj.vx, traj.vy, traj.hy))


def _tangency_x(fam, beta, x, y, vx, vy):
    # the stationary point of x²/(a−β) + y²/(b−β) along the line, which is
    # the tangency point when the line is tangent to C_β
    aa, bb = fam.a - beta, fam.b - beta
    return x - ((x * vx / aa + y * vy / bb) / (vx * vx / aa + vy * vy / bb)) * vx


def _scalar_label(fam, beta, x, y, vx, vy, qy):
    xstar = _tangency_x(fam, beta, x, y, vx, vy)
    if abs(vy) < 1e-9 or abs(xstar) < 1e-9:
        return None
    if y > 0.0 and qy > 0.0:
        side = "T"
    elif y < 0.0 and qy < 0.0:
        side = "B"
    elif y * qy < 0.0:
        side = "X"
    else:
        return None
    return ("U" if vy > 0.0 else "D") + ("R" if xstar > 0.0 else "L") + side


def _scalar_signature(table, beta, s0, steps):
    """Labels of one trajectory, bounced with the scalar step."""
    fam = table.fam
    if beta > fam.b:
        labels = {_scalar_label(fam, beta, *row) for row in _segments(table, s0, steps)}
        return labels - {None}
    labels = set()
    inc = []
    acc = 0.0
    prev = math.atan2(s0.at[1], s0.at[0])
    s = s0
    for i in range(steps):
        s = step(table, s)
        th = math.atan2(s.at[1], s.at[0])
        inc.append(math.remainder(th - prev, 2.0 * math.pi))
        prev = th
        acc += inc[i]
        if i >= WINDING_WINDOW:
            acc -= inc[i - WINDING_WINDOW]
            if acc > WINDING_MIN_SWEEP:
                labels.add("CCW")
            elif acc < -WINDING_MIN_SWEEP:
                labels.add("CW")
    return labels


OTHER = ConfocalFamily(12.0, 3.0)
LEVEL_PAIRS = [
    (ELL[MagicKind.FLIP_LONG], 2.5),
    (ELL[MagicKind.HALF_TURN], 6.0),
    (ANN[MagicKind.FLIP_SHORT], 2.0),
    (ANN[MagicKind.HALF_TURN], 6.0),
    (TableSpec(OTHER, MagicKind.FLIP_SHORT), 1.2),
    (TableSpec(OTHER, MagicKind.FLIP_LONG, 2.0), 7.0),
]


@pytest.mark.parametrize(
    "table,beta", LEVEL_PAIRS, ids=[f"{_name(t)}-{b}" for t, b in LEVEL_PAIRS]
)
def test_batched_labels_match_scalar_reference(table, beta):
    seeds = _tangent_seeds(table, beta, 16)
    want = [_scalar_signature(table, beta, s0, 400) for s0 in seeds]
    assert _level_signatures(table, beta, seeds, 400) == want
    count, evidence = _merge_count([sig for sig in want if sig])
    rep = classify_level(table, beta, samples=16, steps=400)
    assert (rep.component_count, rep.merge_evidence) == (count, tuple(evidence))


# ellipse levels whose rotation number lies near 1/8 or 9/64 (within 5e-6)
# or is 1/4: the orbits are nearly periodic, and every window of polar
# sweep along one of them turns the same way
RESONANT = [
    (TableSpec(ConfocalFamily(6.876833835212345, 2.9613487089936457), MagicKind.FLIP_LONG),
     0.7950831923614773),
    (TableSpec(ConfocalFamily(8.194381935070608, 1.2369701522387293), MagicKind.FLIP_SHORT),
     0.39528944994110243),
    (TableSpec(ConfocalFamily(11.316688592416039, 6.90945957812054), MagicKind.FLIP_LONG,
               4.126603227522196), 1.2802530003157027),
    (TableSpec(ConfocalFamily(10.0, 6.0), MagicKind.FLIP_SHORT), 3.75),
    (TableSpec(ConfocalFamily(10.0, 6.0), MagicKind.HALF_TURN), 3.75),
]
SENSE_LEVELS = [
    (ELL[MagicKind.FLIP_LONG], 2.5),
    (ELL[MagicKind.IDENTITY], 3.9),
    (ANN[MagicKind.HALF_TURN], 2.0),
    (TableSpec(OTHER, MagicKind.FLIP_SHORT), 1.2),
] + RESONANT


@pytest.mark.parametrize(
    "table,beta", SENSE_LEVELS, ids=[f"{_name(t)}-{b}" for t, b in SENSE_LEVELS]
)
def test_winding_labels_are_the_senses_of_the_scalar_segments(table, beta):
    # a segment from p to the wall point q turns counter-clockwise about
    # the center when px qy - py qx > 0
    seeds = _tangent_seeds(table, beta, 16)
    want = []
    for s0 in seeds:
        traj = trajectory(table, s0, 400)
        spins = [x * qy - y * qx for x, y, qx, qy in zip(traj.x, traj.y, traj.hx, traj.hy)]
        want.append({lab for lab, on in (("CCW", max(spins) > 0.0), ("CW", min(spins) < 0.0)) if on})
    assert _level_signatures(table, beta, seeds, 400) == want


@pytest.mark.parametrize(
    "table,beta", RESONANT, ids=[f"{_name(t)}-{b}" for t, b in RESONANT]
)
def test_resonant_ellipse_levels_count_as_the_map_orients(table, beta):
    # a flip reverses the winding sense at every outer bounce, so CW and CCW
    # lie on one torus; the half-turn keeps them apart
    rep = classify_level(table, beta)
    if table.outer_map.orientation_reversing:
        assert (rep.component_count, rep.merge_evidence) == (1, (("CCW", "CW"),))
    else:
        assert (rep.component_count, rep.merge_evidence) == (2, ())


def test_graphs_build_where_the_ellipse_probe_level_is_resonant():
    # fomenko_graph probes the ellipse caustic 0.625 b, which on (10, 6) has
    # rotation number 1/4
    for kind in (MagicKind.FLIP_LONG, MagicKind.FLIP_SHORT):
        fomenko_graph(TableSpec(ConfocalFamily(10.0, 6.0), kind))


BLOCK_LEVELS = [
    (ELL[MagicKind.FLIP_LONG], 2.5),
    (ELL[MagicKind.HALF_TURN], 6.0),
    (ANN[MagicKind.FLIP_SHORT], 2.5),
    (ANN[MagicKind.HALF_TURN], 6.0),
]


@pytest.mark.parametrize(
    "table,beta", BLOCK_LEVELS, ids=[f"{_name(t)}-{b}" for t, b in BLOCK_LEVELS]
)
def test_block_grids_are_rows_of_the_whole_grid(table, beta):
    # _level_signatures reads the grid block by block; each seed's orbit
    # must be bit for bit the one level_orbits gives with every seed
    seeds = _tangent_seeds(table, beta, 64)
    whole = level_orbits(table, beta, seeds, 1000)
    grid = _level_grid(table, beta, seeds, 1000)
    for lo in range(0, len(seeds), SEED_BLOCK):
        for w, part in zip(whole, grid(slice(lo, lo + SEED_BLOCK))):
            assert np.array_equal(w[lo:lo + SEED_BLOCK], part)


HYPERBOLA_TABLES = SIX + [ELL[MagicKind.IDENTITY], TableSpec(OTHER, MagicKind.HALF_TURN, 2.0)]


@pytest.mark.parametrize("table", HYPERBOLA_TABLES, ids=[_name(t) for t in HYPERBOLA_TABLES])
def test_every_hyperbola_segment_is_labelled(table):
    # regression: every segment is tangent to C_beta, so the discriminant of
    # its hit quadratic is roundoff; labels must not depend on its sign
    fam = table.fam
    beta = fam.b + 0.4 * (fam.a - fam.b)
    rows = [
        row for s0 in _tangent_seeds(table, beta, 64) for row in _segments(table, s0, 200)
    ]
    x, y, vx, vy, qy = (np.array(c) for c in zip(*rows))
    codes = _hyperbola_labels(fam, beta, x, y, vx, vy, qy)
    xstar = _tangency_x(fam, beta, x, y, vx, vy)
    excused = (np.abs(vy) < 1e-9) | (np.abs(xstar) < 1e-9) | (y * qy == 0.0)
    assert not (codes[~excused] < 0).any()
    for row, code in zip(rows, codes):
        want = _scalar_label(fam, beta, *row)
        assert (_HYPERBOLA_LABELS[code] if code >= 0 else None) == want


# whole reports at the default 64 seeds x 1000 bounces, pinned from the
# step-by-step bounce loop that the closed-form orbit replaced
REPORT_GOLDENS = [
    (ELL[MagicKind.FLIP_LONG], 2.5, 1, [("CCW", "CW")]),
    (ELL[MagicKind.FLIP_LONG], 6.0, 2, [("DLX", "DRX"), ("ULX", "URX")]),
    (ELL[MagicKind.FLIP_SHORT], 2.5, 1, [("CCW", "CW")]),
    (ELL[MagicKind.FLIP_SHORT], 6.0, 1, [("DLX", "DRX"), ("DLX", "ULX"), ("DLX", "URX")]),
    (ELL[MagicKind.HALF_TURN], 2.5, 2, []),
    (ELL[MagicKind.HALF_TURN], 6.0, 2, [("DLX", "DRX"), ("ULX", "URX")]),
    (ANN[MagicKind.FLIP_LONG], 2.5, 1, [("CCW", "CW")]),
    (ANN[MagicKind.FLIP_LONG], 6.0, 1, [
        ("DLB", "DLT"), ("DLB", "DRB"), ("DLB", "DRT"), ("DLB", "ULB"),
        ("DLB", "ULT"), ("DLB", "URB"), ("DLB", "URT"),
    ]),
    (ANN[MagicKind.FLIP_SHORT], 2.5, 1, [("CCW", "CW")]),
    (ANN[MagicKind.FLIP_SHORT], 6.0, 2, [
        ("DLT", "DRT"), ("DLT", "ULT"), ("DLT", "URT"),
        ("DLB", "DRB"), ("DLB", "ULB"), ("DLB", "URB"),
    ]),
    (ANN[MagicKind.HALF_TURN], 2.5, 2, []),
    (ANN[MagicKind.HALF_TURN], 6.0, 1, [
        ("DLB", "DLT"), ("DLB", "DRB"), ("DLB", "DRT"), ("DLB", "ULB"),
        ("DLB", "ULT"), ("DLB", "URB"), ("DLB", "URT"),
    ]),
]


@pytest.mark.parametrize(
    "table,beta,count,evidence",
    REPORT_GOLDENS,
    ids=[f"{_name(t)}-{b}" for t, b, _, _ in REPORT_GOLDENS],
)
def test_level_reports_match_goldens(table, beta, count, evidence):
    kind = "ellipse" if beta < FAM.b else "hyperbola"
    assert classify_level(table, beta) == LevelSetReport(beta, kind, count, 64, tuple(evidence))


# Whole reports on three more families (b/a = 0.18, 0.5 and 0.82, inner
# wall 0.6 b), both caustic kinds of each of the six tables, at levels
# from 4 % to 96 % of each caustic range.  Every level of one (shape, map,
# caustic kind) gives the same report, so the expected fields are listed
# once per key.
PINNED_COUNTS = {
    ("ellipse", MagicKind.FLIP_LONG, "ellipse"): (1, [("CCW", "CW")]),
    ("ellipse", MagicKind.FLIP_LONG, "hyperbola"): (2, [("DLX", "DRX"), ("ULX", "URX")]),
    ("ellipse", MagicKind.FLIP_SHORT, "ellipse"): (1, [("CCW", "CW")]),
    ("ellipse", MagicKind.FLIP_SHORT, "hyperbola"): (
        1, [("DLX", "DRX"), ("DLX", "ULX"), ("DLX", "URX")]
    ),
    ("ellipse", MagicKind.HALF_TURN, "ellipse"): (2, []),
    ("ellipse", MagicKind.HALF_TURN, "hyperbola"): (2, [("DLX", "DRX"), ("ULX", "URX")]),
    ("annulus", MagicKind.FLIP_LONG, "ellipse"): (1, [("CCW", "CW")]),
    ("annulus", MagicKind.FLIP_LONG, "hyperbola"): (1, [
        ("DLB", "DLT"), ("DLB", "DRB"), ("DLB", "DRT"), ("DLB", "ULB"),
        ("DLB", "ULT"), ("DLB", "URB"), ("DLB", "URT"),
    ]),
    ("annulus", MagicKind.FLIP_SHORT, "ellipse"): (1, [("CCW", "CW")]),
    ("annulus", MagicKind.FLIP_SHORT, "hyperbola"): (2, [
        ("DLT", "DRT"), ("DLT", "ULT"), ("DLT", "URT"),
        ("DLB", "DRB"), ("DLB", "ULB"), ("DLB", "URB"),
    ]),
    ("annulus", MagicKind.HALF_TURN, "ellipse"): (2, []),
    ("annulus", MagicKind.HALF_TURN, "hyperbola"): (1, [
        ("DLB", "DLT"), ("DLB", "DRB"), ("DLB", "DRT"), ("DLB", "ULB"),
        ("DLB", "ULT"), ("DLB", "URB"), ("DLB", "URT"),
    ]),
}
# (a, b, inner wall, map, beta, caustic kind)
PINNED_LEVELS = [
    (10.0, 1.8, None, MagicKind.FLIP_LONG, 0.072, "ellipse"),
    (10.0, 1.8, None, MagicKind.FLIP_LONG, 5.9, "hyperbola"),
    (10.0, 1.8, None, MagicKind.FLIP_SHORT, 0.9, "ellipse"),
    (10.0, 1.8, None, MagicKind.FLIP_SHORT, 9.672, "hyperbola"),
    (10.0, 1.8, None, MagicKind.HALF_TURN, 1.728, "ellipse"),
    (10.0, 1.8, None, MagicKind.HALF_TURN, 2.128, "hyperbola"),
    (10.0, 1.8, 1.08, MagicKind.FLIP_LONG, 0.54, "ellipse"),
    (10.0, 1.8, 1.08, MagicKind.FLIP_LONG, 9.672, "hyperbola"),
    (10.0, 1.8, 1.08, MagicKind.FLIP_SHORT, 1.0368, "ellipse"),
    (10.0, 1.8, 1.08, MagicKind.FLIP_SHORT, 2.128, "hyperbola"),
    (10.0, 1.8, 1.08, MagicKind.HALF_TURN, 0.0432, "ellipse"),
    (10.0, 1.8, 1.08, MagicKind.HALF_TURN, 5.9, "hyperbola"),
    (8.0, 4.0, None, MagicKind.FLIP_LONG, 2.0, "ellipse"),
    (8.0, 4.0, None, MagicKind.FLIP_LONG, 4.16, "hyperbola"),
    (8.0, 4.0, None, MagicKind.FLIP_SHORT, 3.84, "ellipse"),
    (8.0, 4.0, None, MagicKind.FLIP_SHORT, 6.0, "hyperbola"),
    (8.0, 4.0, None, MagicKind.HALF_TURN, 0.16, "ellipse"),
    (8.0, 4.0, None, MagicKind.HALF_TURN, 7.84, "hyperbola"),
    (8.0, 4.0, 2.4, MagicKind.FLIP_LONG, 2.304, "ellipse"),
    (8.0, 4.0, 2.4, MagicKind.FLIP_LONG, 6.0, "hyperbola"),
    (8.0, 4.0, 2.4, MagicKind.FLIP_SHORT, 0.096, "ellipse"),
    (8.0, 4.0, 2.4, MagicKind.FLIP_SHORT, 7.84, "hyperbola"),
    (8.0, 4.0, 2.4, MagicKind.HALF_TURN, 1.2, "ellipse"),
    (8.0, 4.0, 2.4, MagicKind.HALF_TURN, 4.16, "hyperbola"),
    (6.0, 4.9, None, MagicKind.FLIP_LONG, 4.704, "ellipse"),
    (6.0, 4.9, None, MagicKind.FLIP_LONG, 5.956, "hyperbola"),
    (6.0, 4.9, None, MagicKind.FLIP_SHORT, 0.196, "ellipse"),
    (6.0, 4.9, None, MagicKind.FLIP_SHORT, 4.944, "hyperbola"),
    (6.0, 4.9, None, MagicKind.HALF_TURN, 2.45, "ellipse"),
    (6.0, 4.9, None, MagicKind.HALF_TURN, 5.45, "hyperbola"),
    (6.0, 4.9, 2.94, MagicKind.FLIP_LONG, 0.1176, "ellipse"),
    (6.0, 4.9, 2.94, MagicKind.FLIP_LONG, 4.944, "hyperbola"),
    (6.0, 4.9, 2.94, MagicKind.FLIP_SHORT, 1.47, "ellipse"),
    (6.0, 4.9, 2.94, MagicKind.FLIP_SHORT, 5.45, "hyperbola"),
    (6.0, 4.9, 2.94, MagicKind.HALF_TURN, 2.8224, "ellipse"),
    (6.0, 4.9, 2.94, MagicKind.HALF_TURN, 5.956, "hyperbola"),
]


@pytest.mark.parametrize(
    "a,b,inner,kind,beta,caustic",
    PINNED_LEVELS,
    ids=[f"{a}-{b}-{inner}-{k.value}-{beta}" for a, b, inner, k, beta, _ in PINNED_LEVELS],
)
def test_level_reports_are_pinned_across_families(a, b, inner, kind, beta, caustic):
    table = TableSpec(ConfocalFamily(a, b), kind, inner)
    count, evidence = PINNED_COUNTS[(table.shape, kind, caustic)]
    assert classify_level(table, beta) == LevelSetReport(
        beta, caustic, count, 64, tuple(evidence)
    )


def _graph_doc(system, atoms, edges, n, levels, provenance):
    return {
        "system": system,
        "atoms": [{"id": i, "type": t} for i, t in atoms],
        "edges": [{"from": s, "to": d, "r": r, "eps": e} for s, d, r, e in edges],
        "n": n,
        "singular_levels": levels,
        "provenance": provenance,
    }


PINNED_GRAPHS = {
    ELL[MagicKind.FLIP_LONG]: _graph_doc(
        "ellipse:flip-long",
        [("t1", "A"), ("c", "B"), ("t2", "A"), ("t3", "A")],
        [("c", "t1", "0", 1), ("c", "t2", "1/2", 1), ("c", "t3", "1/2", 1)],
        -2,
        {"0": ["t1"], "b": ["c"], "a": ["t2", "t3"]},
        "transcribed figure data",
    ),
    ELL[MagicKind.FLIP_SHORT]: _graph_doc(
        "ellipse:flip-short",
        [("t1", "A"), ("c", "A**"), ("t2", "A")],
        [("c", "t1", "0", 1), ("c", "t2", "0", 1)],
        0,
        {"0": ["t1"], "b": ["c"], "a": ["t2"]},
        "transcribed figure data",
    ),
    ELL[MagicKind.HALF_TURN]: _graph_doc(
        "ellipse:half-turn",
        [("t1", "A"), ("t2", "A"), ("c", "C2"), ("t3", "A"), ("t4", "A")],
        [("c", "t1", "0", 1), ("c", "t2", "0", 1), ("c", "t3", "0", 1), ("c", "t4", "0", 1)],
        -4,
        {"0": ["t1", "t2"], "b": ["c"], "a": ["t3", "t4"]},
        "transcribed figure data",
    ),
    ANN[MagicKind.FLIP_LONG]: _graph_doc(
        "annulus:flip-long",
        [("t1", "A"), ("c", "A**"), ("t2", "A")],
        [("c", "t1", None, None), ("c", "t2", None, None)],
        None,
        {"0": ["t1"], "b": ["c"], "a": ["t2"]},
        "transcribed figure data; marks unavailable",
    ),
    ANN[MagicKind.FLIP_SHORT]: _graph_doc(
        "annulus:flip-short",
        [("t1", "A"), ("c", "B"), ("t2", "A"), ("t3", "A")],
        [("c", "t1", None, None), ("c", "t2", None, None), ("c", "t3", None, None)],
        None,
        {"0": ["t1"], "b": ["c"], "a": ["t2", "t3"]},
        "transcribed figure data; marks unavailable",
    ),
    ANN[MagicKind.HALF_TURN]: _graph_doc(
        "annulus:half-turn",
        [("t1", "A"), ("t2", "A"), ("c", "B"), ("t3", "A")],
        [("c", "t1", "1/2", 1), ("c", "t2", "1/2", 1), ("c", "t3", "inf", 1)],
        None,
        {"0": ["t1", "t2"], "b": ["c"], "a": ["t3"]},
        "transcribed figure data",
    ),
}


@pytest.mark.parametrize("table", SIX, ids=[_name(t) for t in SIX])
def test_graph_documents_are_pinned(table):
    assert fomenko_graph(table).to_dict() == PINNED_GRAPHS[table]


NEAR_FOCAL = [
    (table, FAM.b + off * FAM.a)
    for table, offsets in ((ELL[MagicKind.FLIP_LONG], (-1e-8, -1e-6, 1e-6, 1e-8)),
                           (ANN[MagicKind.HALF_TURN], (1e-6, 1e-8)))
    for off in offsets
]


@pytest.mark.parametrize(
    "table,beta", NEAR_FOCAL, ids=[f"{_name(t)}-{b - FAM.b:+.0e}" for t, b in NEAR_FOCAL]
)
def test_near_focal_levels(table, beta):
    # the scalar step's own roundoff in beta, some 1e-16 a per bounce,
    # shifts every later phase advance by about 1e-16 a / |beta - b|, so
    # its drift from the exact orbit grows faster than linearly: impact k
    # is held to k² times the first impact's bound
    seeds = _tangent_seeds(table, beta, 16)
    x, y, _, _, _ = level_orbits(table, beta, seeds, 50)
    tol = math.sqrt(FAM.a) * (ORBIT_MATCH_RTOL + FOCAL_SLACK * FAM.a / abs(beta - FAM.b))
    for i, s in enumerate(seeds):
        for k in range(50):
            s = step(table, s)
            assert math.hypot(x[i, k] - s.at[0], y[i, k] - s.at[1]) <= (k + 1) ** 2 * tol
    assert classify_level(table, beta).sample_count == 64


def test_classification_raises_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in SIX:
            for beta in (2.5, 6.0):
                classify_level(table, beta)


def test_a_segment_along_an_asymptote_raises_no_warning():
    # segment 549 of seed 31 on this level is a diameter along an asymptote
    # of the caustic, where alpha in _hyperbola_labels rounds to 0 exactly
    table = TableSpec(ConfocalFamily(13.850435646728982, 10.19309788788021), MagicKind.FLIP_LONG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify_level(table, 12.456132871536386)
    assert (rep.component_count, rep.merge_evidence) == (2, (("DLX", "DRX"), ("ULX", "URX")))


# ---------------------------------------------------------------------------
# singular levels

# (table, {level: (closed, separatrices, atom)})
SINGULAR_TABLE = [
    (ELL[MagicKind.IDENTITY], {0.0: 2, 4.0: (1, 2, "B"), 9.0: 1}),
    (ELL[MagicKind.FLIP_LONG], {0.0: 1, 4.0: (1, 2, "B"), 9.0: 2}),
    (ELL[MagicKind.FLIP_SHORT], {0.0: 1, 4.0: (2, 2, "A**"), 9.0: 1}),
    (ELL[MagicKind.HALF_TURN], {0.0: 2, 4.0: (2, 4, "C2"), 9.0: 2}),
    (ANN[MagicKind.FLIP_LONG], {0.0: 1, 4.0: (2, 2, "A**"), 9.0: 1}),
    (ANN[MagicKind.FLIP_SHORT], {0.0: 1, 4.0: (1, 2, "B"), 9.0: 2}),
    (ANN[MagicKind.HALF_TURN], {0.0: 2, 4.0: (1, 2, "B"), 9.0: 1}),
]


@pytest.mark.parametrize(
    "table,expected", SINGULAR_TABLE, ids=[_name(t) for t, _ in SINGULAR_TABLE]
)
def test_singular_reports(table, expected):
    closed_b, seps_b, atom_b = expected[4.0]
    rep = singular_level_report(table, 4.0)
    assert (rep.closed_orbits, rep.separatrices, rep.atom) == (closed_b, seps_b, atom_b)
    for lam in (0.0, 9.0):
        rep = singular_level_report(table, lam)
        assert rep.closed_orbits == expected[lam]
        assert rep.separatrices == 0
        assert rep.atom == {1: "A", 2: "A,A"}[rep.closed_orbits]


def test_separatrix_labels_read_the_segment_before_magic():
    # a label describes the physical segment from the state, so on the
    # ellipse the first segment's label is the same for every magic map
    for s0, want in zip(_focal_seeds(FAM), ("F1-DX", "F2-DX")):
        for k in MagicKind:
            qy = trajectory(ELL[k], s0, 1).hy[0]
            assert _sep_label(FAM, *s0.at, *s0.v, qy) == want
    # and every segment of a traced focal trajectory, forward and
    # backward, is labelled by the wall point that ends it before magic
    for table in list(ELL.values()) + list(ANN.values()):
        for s0 in _focal_seeds(FAM):
            traj = trajectory(table, s0, SEP_MAX_SEGMENTS)
            fwd = set()
            for px, py, vx, vy, qy in zip(traj.x, traj.y, traj.vx, traj.vy, traj.hy):
                lab = _sep_label(FAM, px, py, vx, vy, qy)
                if lab is None:
                    break
                fwd.add(lab)
            bwd, s = set(), s0
            for _ in range(SEP_MAX_SEGMENTS):
                s = step_inverse(table, s)
                lab = _sep_label(FAM, *s.at, *s.v, trajectory(table, s, 1).hy[0])
                if lab is None:
                    break
                bwd.add(lab)
            assert _sep_signature(table, s0) == (fwd, bwd)


def _reference_cycle_count(table: TableSpec, lam: float) -> int:
    """The axis orbits of level b or a, counted by simulation.

    A written-out copy of the count that the sign rule replaced: launch
    the two axis states, step each up to 8 times, and count the distinct
    phase cycles, states being keyed by their 9-digit rounding.
    """
    fam = table.fam
    sa, sb = math.sqrt(fam.a), math.sqrt(fam.b)
    if lam == fam.b:
        seeds = [BoundaryPhase((sa, 0.0), (-1.0, 0.0)), BoundaryPhase((-sa, 0.0), (1.0, 0.0))]
    else:
        seeds = [BoundaryPhase((0.0, sb), (0.0, -1.0)), BoundaryPhase((0.0, -sb), (0.0, 1.0))]

    def key(s):
        return (*(round(v, 9) for v in s.at + s.v), s.component)

    tol = 1e-9 * math.sqrt(fam.a)
    cycles: list[set] = []
    for s0 in seeds:
        if any(key(s0) in c for c in cycles):
            continue
        visited = {key(s0)}
        s = s0
        for _ in range(8):
            s = step(table, s)
            if phase_distance(fam, s, s0) < tol:
                break
            visited.add(key(s))
        cycles.append(visited)
    return len(cycles)


SIGN_RULE_CASES = [
    (TableSpec(fam, kind, None if wall is None else wall * fam.b), level)
    for fam in (
        ConfocalFamily(10.0, 10.0 * ratio)
        for ratio in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    )
    for kind in MagicKind
    for wall in (None, 0.2, 0.6, 0.95)
    for level in ("b", "a")
]


def test_axis_orbits_from_the_signs_match_simulation(monkeypatch):
    # the separatrix tracer is not under test here, and at small b/a it
    # finds no atom (ROADMAP item 2); a fixed count of 2 makes every
    # (closed, 2) pair an atom, so the report always gives its closed orbits
    monkeypatch.setattr(topology, "_separatrix_count", lambda table: 2)
    assert len(SIGN_RULE_CASES) == 384
    for table, level in SIGN_RULE_CASES:
        lam = table.fam.b if level == "b" else table.fam.a
        rep = singular_level_report(table, lam)
        assert rep.closed_orbits == _reference_cycle_count(table, lam), (table, level)


# other families give the same counts and atoms as (9, 4), table by table;
# the annulus inner wall sits at 0.6 b
OTHER_FAMILIES = [
    (TableSpec(ConfocalFamily(a, b), t.outer_map, None if t.inner_lam is None else 0.6 * b), expected)
    for a, b in ((10.0, 5.0), (10.0, 8.0))
    for t, expected in SINGULAR_TABLE
]


@pytest.mark.parametrize(
    "table,expected",
    OTHER_FAMILIES,
    ids=[f"{t.fam.b:g}-{_name(t)}" for t, _ in OTHER_FAMILIES],
)
def test_singular_reports_beyond_9_4(table, expected):
    fam = table.fam
    rep = singular_level_report(table, fam.b)
    assert (rep.closed_orbits, rep.separatrices, rep.atom) == expected[4.0]
    for lam, key in ((0.0, 0.0), (fam.a, 9.0)):
        rep = singular_level_report(table, lam)
        assert (rep.closed_orbits, rep.separatrices) == (expected[key], 0)
        assert rep.atom == {1: "A", 2: "A,A"}[rep.closed_orbits]


def test_singular_level_must_be_singular():
    with pytest.raises(ValueError):
        singular_level_report(ELL[MagicKind.FLIP_LONG], 2.5)


# ---------------------------------------------------------------------------
# Fomenko graphs


def test_graphs_build_for_all_six_systems():
    for table in SIX:
        g = fomenko_graph(table)  # raises TopologyMismatch on bad data
        assert g.system == f"{table.shape}:{table.outer_map.value}"
        ids = [x.id for x in g.atoms]
        assert len(ids) == len(set(ids))
        for e in g.edges:
            assert e.src in ids and e.dst in ids
        placed = [i for level in ("0", "b", "a") for i in g.singular_levels[level]]
        assert sorted(placed) == sorted(ids)


def test_identity_has_no_graph():
    with pytest.raises(UnknownSystem):
        fomenko_graph(ELL[MagicKind.IDENTITY])


def test_flip_long_graph_golden():
    g = fomenko_graph(ELL[MagicKind.FLIP_LONG])
    assert Counter(x.type for x in g.atoms) == {"A": 3, "B": 1}
    assert g.family_mark == -2
    assert sorted((e.r, e.eps) for e in g.edges) == [("0", 1), ("1/2", 1), ("1/2", 1)]


def test_half_turn_graph_golden():
    g = fomenko_graph(ELL[MagicKind.HALF_TURN])
    assert Counter(x.type for x in g.atoms) == {"A": 4, "C2": 1}
    assert g.family_mark == -4
    assert [(e.r, e.eps) for e in g.edges] == [("0", 1)] * 4
    center = next(x for x in g.atoms if x.type == "C2")
    assert all(center.id in (e.src, e.dst) for e in g.edges)


def test_annulus_half_turn_graph_golden():
    g = fomenko_graph(ANN[MagicKind.HALF_TURN])
    assert Counter(x.type for x in g.atoms) == {"A": 3, "B": 1}
    assert sorted(e.r for e in g.edges) == ["1/2", "1/2", "inf"]
    assert g.family_mark is None


def test_flip_axis_annulus_graphs_flag_missing_marks():
    for kind in (MagicKind.FLIP_LONG, MagicKind.FLIP_SHORT):
        g = fomenko_graph(ANN[kind])
        assert "marks unavailable" in g.provenance
        assert all(e.r is None and e.eps is None for e in g.edges)


def test_rough_equivalence_pairs():
    # the flip-axis annulus systems pair off with the opposite-axis ellipse ones
    def types(g):
        return Counter(x.type for x in g.atoms)

    assert types(fomenko_graph(ANN[MagicKind.FLIP_LONG])) == types(
        fomenko_graph(ELL[MagicKind.FLIP_SHORT])
    )
    assert types(fomenko_graph(ANN[MagicKind.FLIP_SHORT])) == types(
        fomenko_graph(ELL[MagicKind.FLIP_LONG])
    )


def test_graph_serialization():
    g = fomenko_graph(ANN[MagicKind.HALF_TURN])
    doc = g.to_dict()
    assert set(doc) == {"system", "atoms", "edges", "n", "singular_levels", "provenance"}
    assert all(set(x) == {"id", "type"} for x in doc["atoms"])
    assert all(set(e) == {"from", "to", "r", "eps"} for e in doc["edges"])
    assert set(doc["singular_levels"]) == {"0", "b", "a"}
    json.dumps(doc)  # must be plain data end to end
