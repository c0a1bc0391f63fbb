"""Level-set classification tests: component counts, singular levels, graphs."""
import json
import math
from collections import Counter

import numpy as np
import pytest

from magicbilliards import (
    BoundaryPhase,
    ConfocalFamily,
    DegenerateLevel,
    MagicKind,
    TableSpec,
    UnknownSystem,
    classify_level,
    fomenko_graph,
    singular_level_report,
)
from magicbilliards.dynamics import _propagate, apply_magic, step
from magicbilliards.geometry import caustic_of_line
from magicbilliards.topology import (
    WINDING_MIN_SWEEP,
    WINDING_WINDOW,
    _HYPERBOLA_LABELS,
    _hyperbola_labels,
    _level_signatures,
    _merge_count,
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
    rows = []
    s = s0
    for _ in range(steps):
        hit, v_out, comp = _propagate(table, s)
        rows.append(s.at + s.v + (hit[1],))
        if comp == "outer":
            hit, v_out = apply_magic(table.outer_map, hit, v_out)
        s = BoundaryPhase(hit, v_out, comp)
    return rows


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
