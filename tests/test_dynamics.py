"""Magic billiard map tests: reflection, magic maps, closure, bookkeeping."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from magicbilliards import (
    BoundaryPhase,
    ConfocalFamily,
    MagicKind,
    NoForwardHit,
    TableSpec,
    caustic_of_line,
    closure_defect,
    detect_closure,
    level_orbits,
    phase_at,
    phase_distance,
    step,
    step_inverse,
    tangent_directions,
    tangent_phase,
    trajectory,
)
from magicbilliards.dynamics import (
    ORBIT_MATCH_RTOL,
    DegenerateLevel,
    OrbitMismatch,
    _jacobi,
    _jacobi_steps,
)
from magicbilliards.geometry import GRAZE_RTOL, HIT_TMIN_RTOL, _hit_time
from magicbilliards.topology import _tangent_seeds

FAM = ConfocalFamily(9.0, 4.0)
ELL = {k: TableSpec(FAM, k) for k in MagicKind}
ANN = {k: TableSpec(FAM, k, 3.0) for k in MagicKind}


def test_magic_signs():
    assert MagicKind.IDENTITY.signs == (1.0, 1.0)
    assert MagicKind.FLIP_LONG.signs == (1.0, -1.0)
    assert MagicKind.FLIP_SHORT.signs == (-1.0, 1.0)
    assert MagicKind.HALF_TURN.signs == (-1.0, -1.0)


@given(
    kind=st.sampled_from(list(MagicKind)),
    x=st.floats(-3.0, 3.0),
    y=st.floats(-2.0, 2.0),
    vx=st.floats(-1.0, 1.0),
    vy=st.floats(-1.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_magic_is_involution(kind, x, y, vx, vy):
    sx, sy = kind.signs
    assert (sx * (sx * x), sy * (sy * y)) == (x, y)
    assert (sx * (sx * vx), sy * (sy * vy)) == (vx, vy)


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


@pytest.mark.parametrize(
    "table,label",
    [(ELL[MagicKind.FLIP_LONG], "inner"), (ELL[MagicKind.FLIP_LONG], "bogus"),
     (ANN[MagicKind.HALF_TURN], "bogus")],
)
def test_wall_label_must_name_a_wall_of_the_table(table, label):
    # "inner" names no wall of the ellipse table; any label other than
    # "outer" and "inner" names none at all
    s = BoundaryPhase((3.0, 0.0), (-1.0, 0.0), label)
    for call in (step, step_inverse, lambda t, s: trajectory(t, s, 3)):
        with pytest.raises(ValueError, match="names no wall"):
            call(table, s)


BOUNCE_CALLS = {
    "step": step,
    "step_inverse": step_inverse,
    "trajectory": lambda t, s: trajectory(t, s, 3),
    "closure_defect": lambda t, s: closure_defect(t, s, 3),
}
# zero, zero in floats (its square underflows), and not finite
BAD_VELOCITIES = [(0.0, 0.0), (1e-200, 0.0), (math.nan, 0.5), (math.inf, 1.0)]


@pytest.mark.parametrize("v", BAD_VELOCITIES, ids=repr)
@pytest.mark.parametrize("name", BOUNCE_CALLS)
def test_velocity_must_be_finite_and_nonzero(name, v):
    s = BoundaryPhase((3.0, 0.0), v)
    with pytest.raises(ValueError):
        BOUNCE_CALLS[name](ELL[MagicKind.FLIP_LONG], s)


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 0.5), (math.inf, 1.0)], ids=repr)
def test_phase_at_needs_a_finite_nonzero_direction(direction):
    with pytest.raises(ValueError, match="finite and nonzero"):
        phase_at(ELL[MagicKind.FLIP_LONG], 0.3, direction)


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


@pytest.mark.parametrize("n", [0, -3])
def test_closure_needs_a_bounce(n):
    # zero bounces would read as a perfect closure
    table, s0 = ELL[MagicKind.FLIP_LONG], tangent_phase(FAM, 2.5)
    with pytest.raises(ValueError, match="need n >= 1"):
        closure_defect(table, s0, n)
    with pytest.raises(ValueError, match="need n_max >= 1"):
        detect_closure(table, s0, n)
    with pytest.raises(ValueError, match="need n >= 1"):
        trajectory(table, s0, n)


def test_detect_closure_winding():
    # a 4-periodic orbit of the plain billiard with an ellipse caustic
    beta = 36.0 / 13.0
    p = FAM.boundary_point(0.9)
    for v in tangent_directions(FAM, beta, p):
        rep = detect_closure(ELL[MagicKind.IDENTITY], BoundaryPhase(p, v), 8, tol=1e-5)
        assert rep is not None
        assert rep.period == 4
        assert rep.winding in (1, -1)


@pytest.mark.parametrize(
    "a, b, beta",
    [(9.0, 4.0, 1.3), (9.0, 4.0, 6.0), (9.0, 4.0, 8.9),
     (20.0, 3.0, 2.9), (20.0, 3.0, 5.0), (20.0, 3.0, 19.5)],
)
def test_tangent_phase_is_the_first_tangent_of_the_scan(a, b, beta):
    """The scan t = 0.83 + 0.031 k, written out, picks the same phase bit for bit."""
    fam = ConfocalFamily(a, b)
    s0 = tangent_phase(fam, beta)
    for k in range(200):
        p = fam.boundary_point(0.83 + 0.031 * k)
        dirs = tangent_directions(fam, beta, p)
        if dirs:
            break
    assert s0.component == "outer"
    assert [float.hex(c) for c in (*s0.at, *s0.v)] == [
        float.hex(c) for c in (*p, *dirs[0])
    ]
    assert caustic_of_line(fam, s0.at, s0.v).lam == pytest.approx(beta, abs=1e-8 * a)


def test_trajectory_keeps_pre_magic_hits():
    for table in (ELL[MagicKind.FLIP_LONG], ANN[MagicKind.HALF_TURN]):
        traj = trajectory(table, phase_at(table, 1.45, (-0.05, -0.999)), 40)
        assert len(traj.hits) == 40
        for hit, s in zip(traj.hits, traj.states[1:]):
            if s.component == "outer":
                sx, sy = table.outer_map.signs
                assert (sx * hit[0], sy * hit[1]) == s.at
            else:
                assert hit == s.at


# ---------------------------------------------------------------------------
# the closed-form level orbit against the scalar reference


@given(
    kind=st.sampled_from(list(MagicKind)),
    a=st.floats(1.0, 20.0),
    ratio=st.floats(0.15, 0.85),
    wall=st.one_of(st.none(), st.floats(0.2, 0.9)),
    hyperbola=st.booleans(),
    where=st.floats(0.0, 1.0),
)
# a level where two seeds' lines carry 1e-12 of roundoff in beta (one of
# their tangents is nearly vertical): the orbit must follow each seed's own
# caustic, as the step does
@example(
    kind=MagicKind.HALF_TURN, a=4.297680868191241, ratio=0.5191325636742681,
    wall=None, hyperbola=False, where=1.0,
)
@settings(max_examples=80, deadline=None)
def test_level_orbits_match_step(kind, a, ratio, wall, hyperbola, where):
    # any level classify_level accepts, kept 1e-3 a clear of {0, b, a} and
    # of the inner wall, on either side of the focal level
    fam = ConfocalFamily(a, a * ratio)
    table = TableSpec(fam, kind, None if wall is None else wall * fam.b)
    margin = 1e-3 * a
    if hyperbola:
        lo, hi = fam.b + margin, fam.a - margin
    else:
        lo, hi = margin, (table.inner_lam or fam.b) - margin
    assume(lo < hi)
    beta = lo + where * (hi - lo)
    seeds = _tangent_seeds(table, beta, 16)
    x, y, qx, qy, inner = level_orbits(table, beta, seeds, 40)
    tol = ORBIT_MATCH_RTOL * math.sqrt(a)
    for i, s0 in enumerate(seeds):
        traj = trajectory(table, s0, 40)
        for k, (s, hit) in enumerate(zip(traj.states[1:], traj.hits)):
            assert inner[i, k] == (s.component == "inner")
            assert math.hypot(x[i, k] - s.at[0], y[i, k] - s.at[1]) <= tol
            assert math.hypot(qx[i, k] - hit[0], qy[i, k] - hit[1]) <= tol


def test_level_orbits_refuse_a_seed_the_closed_form_cannot_follow():
    # a seed tangent to an ellipse caustic, given as a hyperbola level: no
    # branch of the hyperbola form meets its first step
    p = FAM.boundary_point(1.2)
    seed = BoundaryPhase(p, tangent_directions(FAM, 2.5, p)[0])
    with pytest.raises(OrbitMismatch):
        level_orbits(ELL[MagicKind.IDENTITY], 6.0, [seed], 5)


@pytest.mark.parametrize("m1", [0.5, 1e-3, 1e-6, 1e-9, 1e-12])
def test_jacobi_functions_match_mpmath(m1):
    u = np.concatenate([np.linspace(-7.0, 7.0, 15), np.linspace(0.0, 1000.0, 21)])
    sn, cn, dn = _jacobi(u, 1.0 - m1, m1)
    with mp.workdps(30):
        m = 1 - mp.mpf(m1)
        for i, ui in enumerate(u):
            for name, got in (("sn", sn), ("cn", cn), ("dn", dn)):
                assert abs(got[i] - float(mp.ellipfun(name, ui, m))) <= 1e-12


@pytest.mark.parametrize("m1", [0.5, 1e-3, 1e-6, 1e-9])
def test_jacobi_steps_match_mpmath(m1):
    # baby and giant steps joined by the addition theorem, over 1000 steps
    # of phases up to |u0| + 1000 |h| = 12020
    u0 = np.array([[-20.0], [-3.7], [0.9], [20.0]])
    h = np.array([[12.0], [-0.31], [5.5], [-7.25]])
    ones = np.ones_like(u0)
    sn, cn, dn = _jacobi_steps(u0, h, 1000, (1.0 - m1) * ones, m1 * ones)(slice(None))
    assert sn.shape == cn.shape == dn.shape == (4, 1000)
    ks = list(range(1, 70)) + list(range(70, 1000, 31)) + [1000]
    with mp.workdps(30):
        m = 1 - mp.mpf(m1)
        for i in range(len(u0)):
            for k in ks:
                u = mp.mpf(u0[i, 0]) + k * mp.mpf(h[i, 0])
                for name, got in (("sn", sn), ("cn", cn), ("dn", dn)):
                    assert abs(got[i, k - 1] - float(mp.ellipfun(name, u, m))) <= 1e-11


_P = FAM.boundary_point(1.2)
_SEEDS = [BoundaryPhase(_P, tangent_directions(FAM, 6.0, _P)[0])]
# (table, beta, seeds, steps, error, message)
BAD_LEVEL_ORBITS = [
    (ELL[MagicKind.FLIP_LONG], 6.0, [], 5, ValueError, "at least one seed"),
    (ELL[MagicKind.FLIP_LONG], 6.0, _SEEDS, 0, ValueError, "need steps >= 1"),
    (ELL[MagicKind.FLIP_LONG], 6.0, _SEEDS, -3, ValueError, "need steps >= 1"),
    (ELL[MagicKind.FLIP_LONG], FAM.b, _SEEDS, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], 1e-12, _SEEDS, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], FAM.a - 1e-12, _SEEDS, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], math.nan, _SEEDS, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], math.inf, _SEEDS, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], -1.0, _SEEDS, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], FAM.a, _SEEDS, 5, ValueError, "outside"),
    # ellipse caustics inside an annulus' inner wall carry no orbit of it
    (ANN[MagicKind.FLIP_LONG], 3.5, _SEEDS, 5, DegenerateLevel, "inside the inner wall"),
]


@pytest.mark.parametrize(
    "table,beta,seeds,steps,error,message",
    BAD_LEVEL_ORBITS,
    ids=[f"{t.shape}-{b}-{len(s)}-{n}" for t, b, s, n, _, _ in BAD_LEVEL_ORBITS],
)
def test_level_orbits_check_their_inputs(table, beta, seeds, steps, error, message):
    with pytest.raises(error, match=message):
        level_orbits(table, beta, seeds, steps)


def test_level_orbits_take_a_single_step():
    assert level_orbits(ELL[MagicKind.FLIP_LONG], 6.0, _SEEDS, 1)[0].shape == (1, 1)


@pytest.mark.parametrize("kind", list(MagicKind))
def test_inner_wall_graze_is_a_miss_on_both_paths(kind):
    # the hit-time solver calls a graze a miss, and the step goes on to the
    # outer wall
    table = ANN[kind]
    aa, bb = FAM.a - table.inner_lam, FAM.b - table.inner_lam
    tmin, graze = HIT_TMIN_RTOL * math.sqrt(FAM.a), GRAZE_RTOL * FAM.a
    p = FAM.boundary_point(1.1)
    states = []
    for v in tangent_directions(FAM, table.inner_lam, p):
        # tangent rays turned by 1e-13 rad: the one turned toward the wall
        # crosses it, with a discriminant inside the graze band
        ang = math.atan2(v[1], v[0])
        for turn in (1e-13, -1e-13):
            w = (math.cos(ang + turn), math.sin(ang + turn))
            if _hit_time(aa, bb, tmin, 0.0, *p, *w) is not None:
                assert _hit_time(aa, bb, tmin, graze, *p, *w) is None
                states.append(BoundaryPhase(p, w))
    assert len(states) == 2
    for s in states:
        assert step(table, s).component == "outer"


@pytest.mark.parametrize("table", [ELL[MagicKind.FLIP_LONG], ANN[MagicKind.HALF_TURN]])
def test_ray_leaving_table_raises_on_both_paths(table):
    # level_orbits runs the scalar step at every seed, so it raises too
    p = FAM.boundary_point(1.2)
    good = BoundaryPhase(p, tangent_directions(FAM, 6.0, p)[0])
    p = FAM.boundary_point(2.0)
    h = math.hypot(p[0] / FAM.a, p[1] / FAM.b)
    bad = BoundaryPhase(p, (p[0] / FAM.a / h, p[1] / FAM.b / h))  # outward normal
    with pytest.raises(NoForwardHit):
        step(table, bad)
    with pytest.raises(NoForwardHit):
        level_orbits(table, 6.0, [good, bad], 5)
    level_orbits(table, 6.0, [good], 5)  # the good seed alone runs fine
