"""Level-set classification tests: component counts, singular levels, graphs."""
import itertools
import json
import math
import warnings
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from magicbilliards import dynamics, geometry, topology
from magicbilliards.certificates import find_periodic_caustics
from magicbilliards.dynamics import (
    _check_level,
    _level_grid,
    _twin,
    level_orbits,
    phase_distance,
    step,
    step_inverse,
)
from magicbilliards.geometry import caustic_of_line
from magicbilliards.topology import (
    SEED_BLOCK,
    _GRAPH_DATA,
    _HYPERBOLA_LABELS,
    _WINDING_LABELS,
    _hyperbola_labels,
    _label_masks,
    _level_phases,
    _level_signatures,
    _merge_count,
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


def _seed_points(table: TableSpec, beta: float, phases) -> tuple[np.ndarray, np.ndarray]:
    """Impact 0 of each seed phase, as columns: its twin's, mirrored as level_orbits mirrors."""
    twins = [_twin(beta < table.fam.b, t, sign) for t, sign in phases]
    (x0, y0), _ = _level_grid(table, beta, [t for t, _ in twins], 1)
    fx, fy = np.array([signs for _, signs in twins]).T[:, :, None]
    return fx * x0, fy * y0


def _seed_states(table: TableSpec, beta: float, phases) -> list[BoundaryPhase]:
    """The state of each seed phase, for the scalar references below.

    The closed form's impact 0 is the point, and its first wall point,
    before magic, fixes the direction along the first segment.
    """
    x0, y0 = _seed_points(table, beta, phases)
    _, _, qx, qy, _ = level_orbits(table, beta, phases, 1)
    states = []
    for px, py, hx, hy in zip(x0[:, 0], y0[:, 0], qx[:, 0], qy[:, 0]):
        h = math.hypot(hx - px, hy - py)
        states.append(BoundaryPhase((float(px), float(py)), ((hx - px) / h, (hy - py) / h)))
    return states


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
    for steps in (0, -5):
        with pytest.raises(ValueError, match="need steps >= 1"):
            classify_level(ELL[MagicKind.FLIP_LONG], 2.5, steps=steps)
    # each segment's own sense needs no window of segments: one bounce will do
    for beta in (2.5, 6.0):
        assert classify_level(ELL[MagicKind.FLIP_LONG], beta, steps=1).sample_count == 64


def test_seeds_cover_boundary_and_branches():
    # regression: seeds must spread over every admissible boundary arc, not
    # crowd into the first one, or entire components go unseeded; a phase
    # seed lies on the level by construction
    for table, beta in [
        (ELL[MagicKind.HALF_TURN], 6.0),
        (ANN[MagicKind.FLIP_SHORT], 6.0),
        (ELL[MagicKind.FLIP_LONG], 2.5),
    ]:
        seeds = _seed_states(table, beta, _level_phases(32))
        assert len(seeds) == 32
        for coord in (0, 1):
            xs = sorted(s.at[coord] for s in seeds)
            assert xs[0] < 0.0 < xs[-1]
        for s in seeds:
            m = caustic_of_line(table.fam, s.at, s.v)
            assert m.lam == pytest.approx(beta, abs=1e-13 * table.fam.a)
        # the branches: the two winding senses, or the two sides of the long axis
        if beta < table.fam.b:
            senses = [math.copysign(1.0, s.at[0] * s.v[1] - s.at[1] * s.v[0]) for s in seeds]
        else:
            senses = [math.copysign(1.0, s.at[1]) for s in seeds]
        assert senses == [sign for _, sign in _level_phases(32)]


@pytest.mark.parametrize("samples", [16, 17, 18, 64, 65])
def test_seed_phases_split_evenly_between_the_branches(samples):
    # an odd count puts the one seed more on branch +1; seed j of n is the
    # phase (j + 1/2) / n turns, in this order, taken one turn back past
    # 1/2 and rounded once
    phases = _level_phases(samples)
    assert len(phases) == samples
    for sign, n in ((1.0, (samples + 1) // 2), (-1.0, samples // 2)):
        turns = [Fraction(2 * j + 1, 2 * n) for j in range(n)]
        want = [float(t - 1 if t > Fraction(1, 2) else t) for t in turns]
        assert [t for t, s in phases if s == sign] == want
        # the first half is bit for bit the phase (j + 1/2) / n
        assert want[: (n + 1) // 2] == [(j + 0.5) / n for j in range((n + 1) // 2)]


@pytest.mark.parametrize("samples", [16, 32, 64, 100, 132])
def test_seed_phases_of_an_even_branch_are_closed_under_negation(samples):
    # so on an ellipse level the twin (-t, +1) of every seed (t, -1) is a
    # seed, and only branch +1 runs
    phases = _level_phases(samples)
    for sign in (1.0, -1.0):
        turns = [t for t, s in phases if s == sign]
        assert sorted(t.hex() for t in turns) == sorted((-t).hex() for t in turns)
    assert {t for t, s in phases if s > 0.0} == {t for t, s in phases if s < 0.0}


@pytest.mark.parametrize("samples", [16, 32, 64])
def test_even_sample_counts_run_half_their_seeds(samples, monkeypatch):
    # every branch -1 seed takes its twin's labels, on both kinds of level
    rows = []

    def counted(table, beta, turns, steps):
        rows.append(len(turns))
        return _level_grid(table, beta, turns, steps)

    monkeypatch.setattr(topology, "_level_grid", counted)
    for table in SIX:
        for beta in (2.5, 6.0):
            classify_level(table, beta, samples=samples, steps=50)
    assert rows == [samples // 2] * 12


def test_odd_sample_counts_classify_as_even_ones():
    for table, ell_count, hyp_count in COMPONENT_TABLE:
        for beta, count in ((2.5, ell_count), (6.0, hyp_count)):
            rep = classify_level(table, beta, samples=17)
            assert (rep.component_count, rep.sample_count) == (count, 17)


def _segments(table, s0, steps):
    """(x, y, vx, vy, hit y before magic) of each scalar segment from s0."""
    traj = trajectory(table, s0, steps)
    return list(zip(traj.x, traj.y, traj.vx, traj.vy, traj.hy))


def _tangency_x(fam, beta, x, y, vx, vy):
    # the stationary point of x²/(a−β) + y²/(b−β) along the line, which is
    # the tangency point when the line is tangent to C_β
    aa, bb = fam.a - beta, fam.b - beta
    return x - ((x * vx / aa + y * vy / bb) / (vx * vx / aa + vy * vy / bb)) * vx


def _stationary_point_labels(fam, beta, x, y, vx, vy, qy):
    """_hyperbola_labels' codes from the stationary point of the unit direction.

    The reference for the pole form: the direction is normalised, the
    tangency point is :func:`_tangency_x`, and both thresholds are
    absolute.  A segment along an asymptote, whose alpha rounds to 0
    exactly, gets x* = ±inf or NaN here, as it did in the package.
    """
    h = np.hypot(vx, vy)
    vx, vy = vx / h, vy / h
    with np.errstate(divide="ignore", invalid="ignore"):
        xstar = _tangency_x(fam, beta, x, y, vx, vy)
    top = (y > 0.0) & (qy > 0.0)
    bottom = (y < 0.0) & (qy < 0.0)
    side = np.where(bottom, 0, np.where(top, 1, 2))
    code = np.where(vy > 0.0, 6, 0) + np.where(xstar > 0.0, 3, 0) + side
    labelled = (np.abs(vy) >= 1e-9) & (np.abs(xstar) >= 1e-9) & (top | bottom | (y * qy < 0.0))
    return np.where(labelled, code, -1)


def _pole_sweep_levels(count):
    """Seeded hyperbola levels for the pole-label sweep, every combination in turn.

    Thin (b/a <= 0.05) and round (b/a >= 0.95) families, ellipse and
    annulus tables, the four maps, levels 1e-8 a to 1e-3 a above b or
    below a, or anywhere between, and samples 16, 17, 64 against steps
    50, 400, 1000.
    """
    rng = np.random.default_rng(34)
    combos = itertools.cycle(itertools.product(
        ("thin", "round"), (False, True), MagicKind, ("near b", "near a", "between"),
        ((16, 50), (17, 400), (64, 1000), (16, 1000), (17, 50), (64, 400)),
    ))
    levels = []
    while len(levels) < count:
        shape, annulus, kind, where, (samples, steps) = next(combos)
        a = rng.uniform(1.0, 20.0)
        ratio = rng.uniform(0.001, 0.05) if shape == "thin" else rng.uniform(0.95, 0.999)
        fam = ConfocalFamily(a, ratio * a)
        table = TableSpec(fam, kind, rng.uniform(0.1, 0.9) * fam.b if annulus else None)
        gap = 10.0 ** rng.uniform(-8.0, -3.0) * a
        beta = {
            "near b": fam.b + gap,
            "near a": fam.a - gap,
            "between": fam.b + rng.uniform(0.001, 0.999) * (fam.a - fam.b),
        }[where]
        if fam.b < beta < fam.a and _is_regular(table, beta):
            levels.append((table, beta, samples, steps))
    return levels


def test_pole_labels_match_the_stationary_point_form():
    # _level_signatures labels each segment from the pole of its line,
    # along the unnormalised q - p; the reference normalises the direction
    # and finds the tangency point as the stationary point of the conic
    # along the line, on every seed's own orbit
    levels = _pole_sweep_levels(540)
    labelled = 0
    for table, beta, samples, steps in levels:
        phases = _level_phases(samples)
        x0, y0 = _seed_points(table, beta, phases)
        x, y, qx, qy, _ = level_orbits(table, beta, phases, steps)
        px, py = np.hstack([x0, x[:, :-1]]), np.hstack([y0, y[:, :-1]])
        code = _stationary_point_labels(table.fam, beta, px, py, qx - px, qy - py, qy)
        labelled += int((code >= 0).sum())
        assert _level_signatures(table, beta, phases, steps) == _label_masks(code), (
            table, beta, samples, steps
        )
    assert {t.outer_map for t, *_ in levels} == set(MagicKind)
    assert {t.shape for t, *_ in levels} == {"ellipse", "annulus"}
    assert labelled > 0.9 * sum(len(_level_phases(s)) * n for _, _, s, n in levels)


@pytest.mark.parametrize("scale", [2.0**-40, 1e-3, 1.0, 7.0, 1e3, 2.0**40])
def test_pole_label_thresholds_are_scale_free(scale):
    # the label of a line depends on its direction only up to scale:
    # x* = (a - beta) vy / (x vy - y vx) and the thresholds |x*| >= 1e-9
    # and |vy| >= 1e-9 |v| sit where they sit for a unit direction
    fam, beta = FAM, 6.0
    aa = fam.a - beta
    rows = []
    for target in (-2e-9, -0.5e-9, 0.5e-9, 2e-9, -0.3, 0.3):
        for ux, uy in ((0.6, 0.8), (0.6, -0.8), (-0.28, 0.96)):
            # a point at height 0.5 on the line whose pole has x = target
            y = 0.5
            x = (aa * uy / target + y * ux) / uy
            rows.append((x, y, ux, uy, 1.0, (abs(target) >= 1e-9, target > 0.0)))
    for r in (-2e-9, -0.5e-9, 0.5e-9, 2e-9):
        # near-horizontal lines through (0.1, 0.5), their pole far off the axis
        ux, uy = 1.0 / math.sqrt(1.0 + r * r), r / math.sqrt(1.0 + r * r)
        cross = 0.1 * uy - 0.5 * ux
        rows.append((0.1, 0.5, ux, uy, 1.0, (abs(uy) >= 1e-9, aa * uy / cross > 0.0)))
    x, y, ux, uy, qy = (np.array(c) for c in list(zip(*rows))[:5])
    codes = _hyperbola_labels(fam, beta, x, y, scale * ux, scale * uy, qy)
    assert np.array_equal(codes, _hyperbola_labels(fam, beta, x, y, ux, uy, qy))
    for code, (*_, uy_i, _, (labelled, right)) in zip(codes, rows):
        assert (code >= 0) == labelled
        if labelled:
            label = _HYPERBOLA_LABELS[code]
            assert label == ("U" if uy_i > 0.0 else "D") + ("R" if right else "L") + "T"


def test_a_line_through_the_center_is_labelled_l_both_ways():
    # x vy - y vx is 0 exactly, the pole at infinity: the segment keeps a
    # label, L on either vertical direction, so that its mirror in the
    # long axis is labelled as _MIRROR maps it
    x, y = np.array([1.5, 1.5]), np.array([1.0, -1.0])
    vx, vy = np.array([0.75, 0.75]), np.array([0.5, -0.5])
    assert not (x * vy - y * vx).any()
    codes = _hyperbola_labels(FAM, 6.0, x, y, vx, vy, 2.0 * y)
    assert [_HYPERBOLA_LABELS[c] for c in codes] == ["ULT", "DLB"]
    assert topology._MIRROR["ULT"] == "DLB"


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


# The winding labels' independent reference: the polar angle swept over
# sliding windows of WINDING_WINDOW segments, a window sweeping less than
# WINDING_MIN_SWEEP giving no label.  The labels themselves are each
# segment's own sense (see _level_signatures): where the rotation number
# lies near a rational with a small denominator, every window of a flip
# map's orbit sweeps the same way, and CW and CCW never meet.
WINDING_WINDOW = 32
WINDING_MIN_SWEEP = math.pi / 8


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


def _signature_sets(table, beta, phases, steps):
    """_level_signatures as label sets, for the scalar references."""
    names = _WINDING_LABELS if beta < table.fam.b else _HYPERBOLA_LABELS
    return [
        {lab for j, lab in enumerate(names) if mask >> j & 1}
        for mask in _level_signatures(table, beta, phases, steps)
    ]


def _string_merge_count(signatures):
    """Union-find over label strings: the reference for _merge_count."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    evidence = []
    seen = set()
    for sig in signatures:
        labs = sorted(sig)
        for lab in labs:
            parent.setdefault(lab, lab)
        for other in labs[1:]:
            ra, rb = find(labs[0]), find(other)
            if ra != rb:
                parent[rb] = ra
            pair = (labs[0], other)
            if pair not in seen:
                seen.add(pair)
                evidence.append(pair)
    classes = {find(lab) for lab in parent}
    return (len(classes) if classes else 1), evidence


def _masks(signatures, names):
    """Label sets as the masks of _level_signatures: bit j for names[j]."""
    return [sum(1 << names.index(lab) for lab in sig) for sig in signatures]


@given(data=st.data(), names=st.sampled_from([_WINDING_LABELS, _HYPERBOLA_LABELS]))
@settings(max_examples=300, deadline=None)
def test_mask_merge_matches_the_string_union_find(data, names):
    # trajectories drawn from a small pool of label sets, so sets repeat;
    # empty and single-label sets and the empty list all occur
    pool = data.draw(st.lists(st.sets(st.sampled_from(names)), min_size=1, max_size=6))
    signatures = data.draw(st.lists(st.sampled_from(pool), max_size=24))
    assert _merge_count(_masks(signatures, names), names) == _string_merge_count(signatures)


@pytest.mark.parametrize("names", [_WINDING_LABELS, _HYPERBOLA_LABELS])
def test_mask_merge_edge_cases_match_the_string_union_find(names):
    # a mask's lowest bit is the first label of its set in sorted order
    assert list(names) == sorted(names)
    for signatures in ([], [set()], [{names[0]}], [{names[1]}, set(), {names[0]}],
                       [set(names)] * 3, [{names[1]}, {names[0], names[1]}, {names[1]}]):
        assert _merge_count(_masks(signatures, names), names) == _string_merge_count(signatures)


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
    phases = _level_phases(16)
    want = [_scalar_signature(table, beta, s0, 400) for s0 in _seed_states(table, beta, phases)]
    assert _signature_sets(table, beta, phases, 400) == want
    count, evidence = _string_merge_count([sig for sig in want if sig])
    rep = classify_level(table, beta, samples=16, steps=400)
    assert (rep.component_count, rep.merge_evidence) == (count, tuple(evidence))


def _any_label_masks(code):
    """The label masks of the rows of code, by comparing it with every label index."""
    seen = (code[:, :, None] == np.arange(len(_HYPERBOLA_LABELS))).any(axis=1)
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in seen]


def test_label_bit_masks_match_the_comparison_with_every_label():
    rng = np.random.default_rng(7)
    for names in (_WINDING_LABELS, _HYPERBOLA_LABELS):
        for shape in ((8, 1000), (3, 1), (5, 40)):
            # -1 marks a segment without a label, and whole rows of it occur
            code = rng.integers(-1, len(names), size=shape)
            code[0] = -1
            code[1, : shape[1] // 2] = -1
            assert _label_masks(code) == _any_label_masks(code)


@pytest.mark.parametrize(
    "table,beta", LEVEL_PAIRS, ids=[f"{_name(t)}-{b}" for t, b in LEVEL_PAIRS]
)
def test_level_label_bit_masks_match_the_comparison(table, beta, monkeypatch):
    phases = _level_phases(64)
    got = _level_signatures(table, beta, phases, 1000)
    monkeypatch.setattr(topology, "_label_masks", _any_label_masks)
    assert got == _level_signatures(table, beta, phases, 1000)


def test_regular_levels_need_no_scalar_geometry(monkeypatch):
    # the seeds are phases of the level, so classifying it takes no
    # boundary scan, no tangent, no caustic of a seed's line and no bounce
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("caustic_of_line", "tangent_directions", "_walk"):
        for module in (geometry, dynamics, topology):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        ConfocalFamily, "boundary_point", counted("boundary_point", ConfocalFamily.boundary_point)
    )
    # the wrappers see calls made inside the package
    h = math.hypot(1.0, 0.3)
    s0 = BoundaryPhase(FAM.boundary_point(1.2), (-1.0 / h, -0.3 / h), "outer")
    trajectory(ELL[MagicKind.FLIP_LONG], s0, 3)
    dynamics.tangent_phase(FAM, 6.0)
    assert set(calls) == {"caustic_of_line", "tangent_directions", "_walk", "boundary_point"}
    calls.clear()
    for table in SIX:
        for beta in (2.5, 6.0):
            classify_level(table, beta)
    assert calls == Counter()


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
    phases = _level_phases(16)
    want = []
    for s0 in _seed_states(table, beta, phases):
        traj = trajectory(table, s0, 400)
        spins = [x * qy - y * qx for x, y, qx, qy in zip(traj.x, traj.y, traj.hx, traj.hy)]
        want.append({lab for lab, on in (("CCW", max(spins) > 0.0), ("CW", min(spins) < 0.0)) if on})
    assert _signature_sets(table, beta, phases, 400) == want


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
    # _level_signatures reads the grid of the branch +1 seeds, the twins of
    # all 64, block by block; each seed's orbit must be bit for bit the one
    # level_orbits gives with every seed
    turns = [t for t, sign in _level_phases(64) if sign > 0.0]
    whole = level_orbits(table, beta, [(t, 1.0) for t in turns], 1000)
    _, grid = _level_grid(table, beta, turns, 1000)
    for lo in range(0, len(turns), SEED_BLOCK):
        for w, part in zip(whole, grid(slice(lo, lo + SEED_BLOCK))):
            assert np.array_equal(w[lo:lo + SEED_BLOCK], part)


EIGHT = list(ELL.values()) + list(ANN.values())


@pytest.mark.parametrize("frac", [0.001, 0.4, 0.999])
@pytest.mark.parametrize("table", EIGHT, ids=[_name(t) for t in EIGHT])
def test_branch_minus_one_orbits_are_exact_mirrors(table, frac):
    # level_orbits gives the orbit of (t, -1) as the orbit of its twin
    # reflected in an axis: on an ellipse level (-t, +1) in the short axis,
    # on a hyperbola level (t, +1) in the long axis.  Each reflected orbit
    # must also be the one the scalar bounce loop gives from that seed.
    fam = table.fam
    ts = [t for t, sign in _level_phases(64) if sign > 0.0] + [-2.3, 0.0, 7.9]
    for beta in (frac * (table.inner_lam or fam.b), fam.b + frac * (fam.a - fam.b)):
        ellipse = beta < fam.b
        minus = [(t, -1.0) for t in ts]
        xp, yp, qxp, qyp, inner_p = level_orbits(
            table, beta, [(-t if ellipse else t, 1.0) for t in ts], 300
        )
        xm, ym, qxm, qym, inner_m = level_orbits(table, beta, minus, 300)
        if ellipse:
            pairs = ((xp, -xm), (qxp, -qxm), (yp, ym), (qyp, qym))
        else:
            pairs = ((xp, xm), (qxp, qxm), (yp, -ym), (qyp, -qym))
        for plus, mirrored in pairs + ((inner_p, inner_m),):
            assert np.array_equal(plus, mirrored)
        for i, s0 in enumerate(_seed_states(table, beta, minus[::9])):
            traj = trajectory(table, s0, 40)
            gap = np.hypot(xm[9 * i, :40] - traj.x[1:], ym[9 * i, :40] - traj.y[1:])
            assert gap.max() <= 1e-9 * math.sqrt(fam.a)


def _per_seed_signatures(table, beta, phases, steps):
    """Every seed's labels from its own orbit: the reference for the mirror."""
    fam = table.fam
    winding = beta < fam.b
    x0, y0 = _seed_points(table, beta, phases)
    x, y, qx, qy, _ = level_orbits(table, beta, phases, steps)
    px = np.hstack([x0, x[:, :-1]])
    py = np.hstack([y0, y[:, :-1]])
    if winding:
        spin = px * qy - py * qx
        code = np.where(spin > 0.0, 0, np.where(spin < 0.0, 1, -1))
    else:
        vx, vy = qx - px, qy - py
        h = np.hypot(vx, vy)
        code = _hyperbola_labels(fam, beta, px, py, vx / h, vy / h, qy)
    return _label_masks(code)


def _is_regular(table, beta):
    try:
        _check_level(table, beta)
    except ValueError:
        return False
    return True


@given(
    a=st.floats(2.0, 20.0),
    ratio=st.floats(0.02, 0.98),
    kind=st.sampled_from(list(MagicKind)),
    wall=st.one_of(st.none(), st.floats(0.05, 0.95)),
    ellipse=st.booleans(),
    frac=st.floats(1e-4, 1.0 - 1e-4),
    seeds=st.one_of(
        st.sampled_from([16, 17, 32, 33, 64, 65]),
        # any phases, with some t on both branches, repeated or alone
        st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.7, 1.3, -0.4]),
                           st.sampled_from([1.0, -1.0])), min_size=1, max_size=20),
    ),
    steps=st.integers(1, 300),
)
@settings(max_examples=200, deadline=None)
def test_mirrored_signatures_match_every_seed_run(a, ratio, kind, wall, ellipse, frac, seeds, steps):
    fam = ConfocalFamily(a, a * ratio)
    table = TableSpec(fam, kind, None if wall is None else wall * fam.b)
    beta = frac * fam.b if ellipse else fam.b + frac * (fam.a - fam.b)
    # an ellipse level under an annulus' inner wall carries no orbit
    assume(_is_regular(table, beta))
    phases = _level_phases(seeds) if isinstance(seeds, int) else seeds
    assert _level_signatures(table, beta, phases, steps) == _per_seed_signatures(
        table, beta, phases, steps
    )


HYPERBOLA_TABLES = SIX + [ELL[MagicKind.IDENTITY], TableSpec(OTHER, MagicKind.HALF_TURN, 2.0)]


@pytest.mark.parametrize("table", HYPERBOLA_TABLES, ids=[_name(t) for t in HYPERBOLA_TABLES])
def test_every_hyperbola_segment_is_labelled(table):
    # regression: every segment is tangent to C_beta, so the discriminant of
    # its hit quadratic is roundoff; labels must not depend on its sign
    fam = table.fam
    beta = fam.b + 0.4 * (fam.a - fam.b)
    rows = [
        row
        for s0 in _seed_states(table, beta, _level_phases(64))
        for row in _segments(table, s0, 200)
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


@pytest.mark.parametrize("a,b", [(9.0, 4.0), (10.0, 2.0), (10.0, 7.5)])
def test_periodic_caustics_report_as_the_paper(a, b):
    # the levels of period 8 and 16, where the Landen phases of the
    # rotation number land on odd multiples of pi/2, on the six tables
    # (inner wall 0.75 b)
    fam = ConfocalFamily(a, b)
    levels = {
        r.beta for n in (8, 16) for r in find_periodic_caustics(MagicKind.IDENTITY, n, a, b, (0.0, a))
    }
    for beta in sorted(levels):
        for kind in (MagicKind.FLIP_LONG, MagicKind.FLIP_SHORT, MagicKind.HALF_TURN):
            for table in (TableSpec(fam, kind), TableSpec(fam, kind, 0.75 * b)):
                if not _is_regular(table, beta):
                    continue
                caustic = "ellipse" if beta < b else "hyperbola"
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


def _orbit_at_30_digits(table, beta, t, sign, steps):
    """Impacts 1..steps of the seed phase (t, sign), by the formulas of level_orbits in mpmath."""
    fam, lam = table.fam, table.inner_lam
    sx, sy = table.outer_map.signs
    out = []
    with mp.workdps(30):
        a, b, lev = mp.mpf(fam.a), mp.mpf(fam.b), mp.mpf(beta)
        if beta < fam.b:
            m = (a - b) / (a - lev)
            u0, h = 4 * mp.ellipk(m) * t, sign * 2 * mp.ellipf(mp.asin(mp.sqrt(lev / b)), m)
            for k in range(1, steps + 1):
                u, odd = u0 + k * h, k % 2
                out.append((-mp.sqrt(a) * sx**odd * mp.ellipfun("sn", u, m),
                            mp.sqrt(b) * sy**odd * mp.ellipfun("cn", u, m)))
        else:
            m = (a - lev) / (a - b)
            u0 = 4 * mp.ellipk(m) * t
            if lam is None:
                h, turn = 2 * mp.ellipf(mp.asin(mp.sqrt(b / lev)), m), -sy
            else:
                w = mp.mpf(lam)
                h = mp.sqrt(a - b) * (mp.elliprf(a - w, b - w, lev - w) - mp.elliprf(a, b, lev))
                turn = sy
            for k in range(1, steps + 1):
                odd = (k if lam is None else k // 2) % 2
                wall = 0 if lam is None or k % 2 == 0 else mp.mpf(lam)
                sn = mp.ellipfun("sn", u0 + k * h, m)
                out.append((mp.sqrt((a - wall) * m) * sx**odd * sn,
                            mp.sqrt(b - wall) * turn**odd * sign * mp.sqrt(1 - m * sn * sn)))
    return [(float(x), float(y)) for x, y in out]


@pytest.mark.parametrize(
    "table,beta", NEAR_FOCAL, ids=[f"{_name(t)}-{b - FAM.b:+.0e}" for t, b in NEAR_FOCAL]
)
def test_near_focal_levels(table, beta):
    # Next to the focal level the seeds crowd toward the long-axis
    # vertices, where a scalar step amplifies its own roundoff faster than
    # any power of k, so the reference is the closed form at 30 digits.
    # The float phase advance is off by some 3e-17 a / |beta - b| (the
    # arcsine that gives phi rounds there), which impact k gathers k
    # times; the bound has a factor of 3 to spare.
    phases = _level_phases(16)[::2]
    x, y, _, _, _ = level_orbits(table, beta, phases, 50)
    tol = math.sqrt(FAM.a) * (1e-12 + 1e-16 * FAM.a / abs(beta - FAM.b))
    for i, (t, sign) in enumerate(phases):
        for k, want in enumerate(_orbit_at_30_digits(table, beta, t, sign, 50)):
            assert math.hypot(x[i, k] - want[0], y[i, k] - want[1]) <= (k + 1) * tol
    assert classify_level(table, beta).sample_count == 64


def test_classification_raises_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in SIX:
            for beta in (2.5, 6.0):
                classify_level(table, beta)


def test_a_segment_along_an_asymptote_raises_no_warning():
    # segment 549 of seed 31 on this level is a diameter along an asymptote
    # of the caustic, where the stationary-point form's alpha rounds to 0
    # exactly and the pole of the line is at infinity
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


# The focal tracer that the sign rule of _separatrix_count replaced,
# written out as its reference.  Eight seeds leave the boundary just off
# the long-axis vertices, aimed at a focus.  A segment's label is the
# focus its line passes (F1/F2), its vertical direction (U/D) and its
# long-axis side (T/B/X); a family is the pair of label sets one seed
# meets forward and backward.  The trace runs 4 segments each way
# because a label cycle has length 2 on the ellipse and 4 on the annulus.
# At 3 segments 126 of the 224 SEPARATRIX_CASES disagree with the rule.
# Longer traces fail the other way: the trajectory converges onto the
# long axis, where both foci lie, and at 14 segments roundoff decides F1
# against F2 in 27 cases.
SEP_SEGMENTS = 4
SEP_SEED_OFFSET = 1e-4


def _sep_label(fam, px, py, vx, vy, qy):
    """Label of the segment from (px, py) along (vx, vy) to a wall point at height qy.

    qy is taken before magic.  The focus test compares the two
    point-line distances, so it keeps working while the trajectory
    converges toward the axis; None once it cannot tell the foci apart,
    or for a horizontal segment or one touching the axis.
    """
    c = fam.focal_distance
    d1 = abs((c - px) * vy + py * vx)
    d2 = abs((-c - px) * vy + py * vx)
    lo, hi = sorted((d1, d2))
    if lo > 3e-5 or hi < 10.0 * lo + 1e-13 or abs(vy) < 1e-9:
        return None
    if py > 0.0 and qy > 0.0:
        side = "T"
    elif py < 0.0 and qy < 0.0:
        side = "B"
    elif py * qy < 0.0:
        side = "X"
    else:
        return None
    return ("F1" if d1 < d2 else "F2") + "-" + ("U" if vy > 0.0 else "D") + side


def _focal_seeds(fam):
    """Eight seeds just off the long-axis vertices, aimed at each focus."""
    eps, c = SEP_SEED_OFFSET, fam.focal_distance
    seeds = []
    for t in (eps, math.pi - eps, math.pi + eps, 2.0 * math.pi - eps):
        p = fam.boundary_point(t)
        for fx in (c, -c):
            dx, dy = fx - p[0], -p[1]
            h = math.hypot(dx, dy)
            seeds.append(BoundaryPhase(p, (dx / h, dy / h)))
    return seeds


def _forward_labels(table, s0, n):
    """Labels of the n segments from s0, read off trajectory's pre-magic wall points."""
    traj = trajectory(table, s0, n)
    return [_sep_label(table.fam, *row) for row in zip(traj.x, traj.y, traj.vx, traj.vy, traj.hy)]


def _sep_signature(table, s0):
    """(forward, backward) label sets of one focal trajectory, each up to its first None."""
    fwd = _forward_labels(table, s0, SEP_SEGMENTS)
    bwd, s = [], s0
    for _ in range(SEP_SEGMENTS):
        s = step_inverse(table, s)
        bwd += _forward_labels(table, s, 1)
    return tuple(
        frozenset(itertools.takewhile(lambda lab: lab is not None, labels)) for labels in (fwd, bwd)
    )


def _reference_separatrix_count(table):
    return len({_sep_signature(table, s0) for s0 in _focal_seeds(table.fam)})


def test_separatrix_labels_read_the_segment_before_magic():
    # a label describes the physical segment from the state, so on the
    # ellipse the first segment's label is the same for every magic map
    for s0, want in zip(_focal_seeds(FAM), ("F1-DX", "F2-DX")):
        for k in MagicKind:
            qy = trajectory(ELL[k], s0, 1).hy[0]
            assert _sep_label(FAM, *s0.at, *s0.v, qy) == want
    # every segment of a focal trajectory is resolved within the trace,
    # and a segment traced backward gets the label it has when read
    # forward from the state that starts it
    for table in list(ELL.values()) + list(ANN.values()):
        for s0 in _focal_seeds(FAM):
            assert None not in _forward_labels(table, s0, SEP_SEGMENTS)
            back = [s0]
            for _ in range(SEP_SEGMENTS):
                back.append(step_inverse(table, back[-1]))
            bwd = [_forward_labels(table, s, 1)[0] for s in back[1:]]
            assert None not in bwd
            assert bwd[::-1] == _forward_labels(table, back[-1], SEP_SEGMENTS)


# a = 10 over the shapes b/a, every map, the ellipse and three inner walls
GRID_RATIOS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SEPARATRIX_CASES = [
    TableSpec(fam, kind, None if wall is None else wall * fam.b)
    for fam in (ConfocalFamily(10.0, 10.0 * ratio) for ratio in GRID_RATIOS)
    for kind in MagicKind
    for wall in (None, 0.2, 0.6, 0.95)
]


def test_separatrix_sign_rule_matches_the_focal_tracer():
    assert len(SEPARATRIX_CASES) == 224
    for table in SEPARATRIX_CASES:
        rep = singular_level_report(table, table.fam.b)
        assert rep.separatrices == _reference_separatrix_count(table), table


def test_thin_flip_short_ellipse_has_the_a_star_star_atom():
    # a 14-segment focal trace converged onto the long axis here and
    # found 4 separatrices, giving C2
    rep = singular_level_report(TableSpec(ConfocalFamily(10.0, 3.0), MagicKind.FLIP_SHORT), 3.0)
    assert (rep.closed_orbits, rep.separatrices, rep.atom) == (2, 2, "A**")


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


def test_axis_orbits_from_the_signs_match_simulation():
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


def test_singular_levels_and_graphs_need_no_bounce(monkeypatch):
    # both counts of a singular level come from the magic signs, and the
    # regular levels a graph probes are read off the closed form
    def refuse(*args, **kwargs):
        raise AssertionError("bounce called")

    for name in ("_walk", "step", "step_inverse"):
        for module in (dynamics, topology):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # the patches reach calls made inside the package
    with pytest.raises(AssertionError, match="bounce called"):
        trajectory(ELL[MagicKind.FLIP_LONG], BoundaryPhase((3.0, 0.0), (-1.0, 0.0)), 1)
    for table in SIX:
        for lam in (0.0, table.fam.b, table.fam.a):
            singular_level_report(table, lam)
        fomenko_graph(table)


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


def _edge_counts(table: TableSpec) -> tuple[int, int]:
    """Transcribed edges that end at a level-0 atom and at a level-a atom."""
    atoms, edges, _, _ = _GRAPH_DATA[(table.shape, table.outer_map)]
    level = {atom: lev for atom, _, lev in atoms}
    ends = Counter(level[e] for src, dst, _, _ in edges for e in (src, dst))
    return ends["0"], ends["a"]


def _six_at(ratio: float) -> list[TableSpec]:
    """The six tables at a = 10 and b/a = ratio, the annulus inner wall at 0.6 b."""
    fam = ConfocalFamily(10.0, 10.0 * ratio)
    return [TableSpec(fam, t.outer_map, None if t.inner_lam is None else 0.6 * fam.b) for t in SIX]


GRID = [table for ratio in GRID_RATIOS for table in _six_at(ratio)]
# the grid and b/a = 0.75
EDGE_SWEEP = [table for ratio in sorted(GRID_RATIOS + (0.75,)) for table in _six_at(ratio)]


@pytest.mark.parametrize("table", GRID, ids=[f"{t.fam.b:g}-{_name(t)}" for t in GRID])
def test_graphs_build_across_the_shapes(table):
    # the atoms, closed orbits and edge counts are the transcribed ones at
    # every shape, the thinnest tables included
    fomenko_graph(table)


@pytest.mark.parametrize(
    "table", EDGE_SWEEP, ids=[f"{t.fam.b:g}-{_name(t)}" for t in EDGE_SWEEP]
)
def test_regular_levels_count_the_transcribed_edges(table):
    # the torus count is constant along an edge of the graph (Bolsinov and
    # Fomenko), so every regular level counts the edges on its side; three
    # levels on each side of the focal one
    fam = table.fam
    top = table.inner_lam or fam.b
    want_e, want_h = _edge_counts(table)
    for frac in (0.1, 0.5, 0.9):
        assert classify_level(table, frac * top).component_count == want_e
        assert classify_level(table, fam.b + frac * (fam.a - fam.b)).component_count == want_h


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
