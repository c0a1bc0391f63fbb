"""Magic billiard map tests: reflection, magic maps, closure, bookkeeping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magicbilliards import (
    BoundaryPhase,
    ConfocalFamily,
    MagicKind,
    NoForwardHit,
    TableSpec,
    apply_magic,
    caustic_of_line,
    closure_defect,
    detect_closure,
    phase_at,
    phase_distance,
    step,
    step_batch,
    step_inverse,
    tangent_directions,
    trajectory,
)
from magicbilliards.geometry import _first_hit_time

FAM = ConfocalFamily(9.0, 4.0)
ELL = {k: TableSpec(FAM, k) for k in MagicKind}
ANN = {k: TableSpec(FAM, k, 3.0) for k in MagicKind}


def test_magic_signs():
    p, v = (1.0, 2.0), (0.3, -0.4)
    assert apply_magic(MagicKind.IDENTITY, p, v) == (p, v)
    assert apply_magic(MagicKind.FLIP_LONG, p, v) == ((1.0, -2.0), (0.3, 0.4))
    assert apply_magic(MagicKind.FLIP_SHORT, p, v) == ((-1.0, 2.0), (-0.3, -0.4))
    assert apply_magic(MagicKind.HALF_TURN, p, v) == ((-1.0, -2.0), (-0.3, 0.4))


@given(
    kind=st.sampled_from(list(MagicKind)),
    x=st.floats(-3.0, 3.0),
    y=st.floats(-2.0, 2.0),
    vx=st.floats(-1.0, 1.0),
    vy=st.floats(-1.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_magic_is_involution(kind, x, y, vx, vy):
    p2, v2 = apply_magic(kind, *apply_magic(kind, (x, y), (vx, vy)))
    assert p2 == (x, y) and v2 == (vx, vy)


def test_orientation_flags():
    assert MagicKind.FLIP_LONG.orientation_reversing
    assert MagicKind.FLIP_SHORT.orientation_reversing
    assert not MagicKind.HALF_TURN.orientation_reversing
    assert not MagicKind.IDENTITY.orientation_reversing


def test_table_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(FAM, MagicKind.IDENTITY, 4.5)  # inner wall must satisfy 0 < lam < b
    with pytest.raises(ValueError):
        TableSpec(FAM, MagicKind.IDENTITY, -1.0)
    assert ELL[MagicKind.IDENTITY].shape == "ellipse"
    assert ANN[MagicKind.IDENTITY].shape == "annulus"


def test_vertical_chord_periods():
    """The short-axis chord closes after one magic bounce when the map
    sends the bottom vertex back to the top (flip-long, half-turn)."""
    s0 = BoundaryPhase((0.0, 2.0), (0.0, -1.0))
    s1 = step(ELL[MagicKind.FLIP_LONG], s0)
    assert s1.at == pytest.approx(s0.at) and s1.v == pytest.approx(s0.v)
    for kind, period in [
        (MagicKind.FLIP_LONG, 1),
        (MagicKind.HALF_TURN, 1),
        (MagicKind.IDENTITY, 2),
        (MagicKind.FLIP_SHORT, 2),
    ]:
        rep = detect_closure(ELL[kind], s0, 8)
        assert rep is not None and rep.period == period


def test_step_stays_on_boundary_unit_speed():
    s = phase_at(ELL[MagicKind.HALF_TURN], 0.83, (-0.45, -0.89))
    for _ in range(50):
        s = step(ELL[MagicKind.HALF_TURN], s)
        assert abs(FAM.conic_residual(0.0, *s.at)) < 1e-9
        assert math.hypot(*s.v) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", list(MagicKind))
@pytest.mark.parametrize("inner", [None, 3.0])
def test_caustic_is_conserved(kind, inner):
    table = TableSpec(FAM, kind, inner)
    for t0, th in [(0.4, 3.8), (1.3, 4.4), (2.6, 5.6), (5.1, 1.9)]:
        s = phase_at(table, t0, (math.cos(th), math.sin(th)))
        nx, ny = s.at[0] / FAM.a, s.at[1] / FAM.b
        if s.v[0] * nx + s.v[1] * ny > -1e-2:
            continue  # outward or grazing start
        lam0 = caustic_of_line(FAM, s.at, s.v).lam
        for _ in range(300):
            s = step(table, s)
        assert caustic_of_line(FAM, s.at, s.v).lam == pytest.approx(lam0, abs=1e-9)


@pytest.mark.parametrize("kind", [MagicKind.FLIP_LONG, MagicKind.FLIP_SHORT, MagicKind.HALF_TURN])
def test_even_steps_match_identity(kind):
    """Two magic bounces equal two plain bounces: the maps are involutions
    commuting with the reflection law, so even-indexed states coincide."""
    table = TableSpec(FAM, kind)
    ident = ELL[MagicKind.IDENTITY]
    for t0, th in [(0.7, 3.6), (1.9, 5.0), (4.0, 1.3)]:
        s = phase_at(table, t0, (math.cos(th), math.sin(th)))
        nx, ny = s.at[0] / FAM.a, s.at[1] / FAM.b
        if s.v[0] * nx + s.v[1] * ny > -1e-2:
            continue
        magic = trajectory(table, s, 20).states
        plain = trajectory(ident, s, 20).states
        for i in range(0, 21, 2):
            assert phase_distance(FAM, magic[i], plain[i]) < 1e-9


def test_step_inverse_roundtrip():
    for kind in MagicKind:
        for table in (ELL[kind], ANN[kind]):
            s0 = phase_at(table, 2.2, (0.1, -0.995))
            s = s0
            for _ in range(7):
                s = step(table, s)
            for _ in range(7):
                s = step_inverse(table, s)
            assert phase_distance(FAM, s, s0) < 1e-9


def test_trajectory_shape_and_crossings():
    s0 = BoundaryPhase((0.0, 2.0), (0.0, -1.0))
    traj = trajectory(ELL[MagicKind.FLIP_LONG], s0, 6)
    assert len(traj.states) == 7
    # the vertical chord crosses the long axis once per segment and
    # never crosses the short axis transversally
    assert traj.crossings.long_axis == 6
    assert traj.crossings.short_axis == 0
    assert traj.crossings.flips == 6
    traj_id = trajectory(ELL[MagicKind.IDENTITY], s0, 6)
    assert traj_id.crossings.flips == 0


def test_annulus_inner_wall_is_reached():
    table = ANN[MagicKind.IDENTITY]
    # hyperbola-caustic chords pass near the center and must hit the inner wall
    s = phase_at(table, 1.45, (-0.05, -0.999))
    comps = set()
    for _ in range(40):
        s = step(table, s)
        comps.add(s.component)
    assert "inner" in comps and "outer" in comps


def test_annulus_ellipse_caustic_ignores_inner_wall():
    """Chords tangent to C_beta with beta < inner_lam never reach the inner wall."""
    table = ANN[MagicKind.HALF_TURN]
    ell = ELL[MagicKind.HALF_TURN]
    p = FAM.boundary_point(0.9)
    s = BoundaryPhase(p, tangent_directions(FAM, 2.5, p)[0])
    lam = caustic_of_line(FAM, s.at, s.v).lam
    assert lam < 3.0  # seed actually has an ellipse caustic below the inner wall
    sa, se = s, s
    for _ in range(60):
        sa = step(table, sa)
        se = step(ell, se)
        assert sa.component == "outer"
        assert phase_distance(FAM, sa, se) < 1e-9


def test_closure_defect_at_exact_period():
    s0 = BoundaryPhase((0.0, 2.0), (0.0, -1.0))
    assert closure_defect(ELL[MagicKind.IDENTITY], s0, 2) < 1e-12
    assert closure_defect(ELL[MagicKind.IDENTITY], s0, 1) > 0.1


def test_detect_closure_winding():
    # a 4-periodic orbit of the plain billiard with an ellipse caustic
    beta = 36.0 / 13.0
    p = FAM.boundary_point(0.9)
    for v in tangent_directions(FAM, beta, p):
        rep = detect_closure(ELL[MagicKind.IDENTITY], BoundaryPhase(p, v), 8, tol=1e-5)
        assert rep is not None
        assert rep.period == 4
        assert rep.winding in (1, -1)


def test_trajectory_keeps_pre_magic_hits():
    for table in (ELL[MagicKind.FLIP_LONG], ANN[MagicKind.HALF_TURN]):
        traj = trajectory(table, phase_at(table, 1.45, (-0.05, -0.999)), 40)
        assert len(traj.hits) == 40
        for hit, s in zip(traj.hits, traj.states[1:]):
            if s.component == "outer":
                assert apply_magic(table.outer_map, hit, s.v)[0] == s.at
            else:
                assert hit == s.at


# ---------------------------------------------------------------------------
# the batched step against the scalar reference


def _arrays(states):
    return tuple(np.array(c) for c in zip(*(s.at + s.v for s in states)))


def _assert_batch_matches(table, states, out):
    x, y, vx, vy, inner = out
    for i, s in enumerate(states):
        ref = step(table, s)
        assert ref.component == ("inner" if inner[i] else "outer")
        got = (x[i], y[i], vx[i], vy[i])
        assert max(abs(g - r) for g, r in zip(got, ref.at + ref.v)) <= 1e-12


@given(
    kind=st.sampled_from(list(MagicKind)),
    a=st.floats(1.0, 20.0),
    ratio=st.floats(0.15, 0.85),
    wall=st.one_of(st.none(), st.floats(0.2, 0.9)),
    starts=st.lists(
        st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-1.4, 1.4), st.integers(0, 3)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=80, deadline=None)
def test_step_batch_matches_step(kind, a, ratio, wall, starts):
    fam = ConfocalFamily(a, a * ratio)
    table = TableSpec(fam, kind, None if wall is None else wall * fam.b)
    states = []
    for t, psi, advance in starts:
        # a boundary point, aimed psi off the inward normal, then a few
        # scalar steps so that inner-wall states are covered too
        p = fam.boundary_point(t)
        nx, ny = -p[0] / fam.a, -p[1] / fam.b
        h = math.hypot(nx, ny)
        c, s = math.cos(psi), math.sin(psi)
        state = BoundaryPhase(p, ((c * nx - s * ny) / h, (s * nx + c * ny) / h))
        for _ in range(advance):
            state = step(table, state)
        states.append(state)
    _assert_batch_matches(table, states, step_batch(table, *_arrays(states)))


@pytest.mark.parametrize("kind", list(MagicKind))
def test_inner_wall_graze_is_a_miss_on_both_paths(kind):
    table = ANN[kind]
    p = FAM.boundary_point(1.1)
    states = []
    for v in tangent_directions(FAM, table.inner_lam, p):
        # tangent rays turned by 1e-13 rad: the one turned toward the wall
        # crosses it, with a discriminant inside the graze band
        ang = math.atan2(v[1], v[0])
        for turn in (1e-13, -1e-13):
            w = (math.cos(ang + turn), math.sin(ang + turn))
            if _first_hit_time(FAM, table.inner_lam, p, w) is not None:
                assert _first_hit_time(FAM, table.inner_lam, p, w, graze=True) is None
                states.append(BoundaryPhase(p, w))
    assert len(states) == 2
    out = step_batch(table, *_arrays(states))
    assert not out[4].any()
    _assert_batch_matches(table, states, out)


@pytest.mark.parametrize("table", [ELL[MagicKind.FLIP_LONG], ANN[MagicKind.HALF_TURN]])
def test_ray_leaving_table_raises_on_both_paths(table):
    good = phase_at(table, 0.4, (-0.6, -0.8))
    p = FAM.boundary_point(2.0)
    h = math.hypot(p[0] / FAM.a, p[1] / FAM.b)
    bad = BoundaryPhase(p, (p[0] / FAM.a / h, p[1] / FAM.b / h))  # outward normal
    with pytest.raises(NoForwardHit):
        step(table, bad)
    with pytest.raises(NoForwardHit):
        step_batch(table, *_arrays([good, bad]))
    step_batch(table, *_arrays([good]))  # the good state alone steps fine
