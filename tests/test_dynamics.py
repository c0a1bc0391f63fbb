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
    phase_distance,
    step,
    step_inverse,
    tangent_directions,
    tangent_phase,
    trajectory,
)
from magicbilliards.dynamics import (
    DegenerateLevel,
    _agm,
    _annulus_advance,
    _caustic_modulus,
    _dn,
    _ellipf,
    _jacobi,
    _jacobi_steps,
)
from magicbilliards.certificates import find_periodic_caustics
from magicbilliards.geometry import GRAZE_RTOL, HIT_TMIN_RTOL, _hit_time

FAM = ConfocalFamily(9.0, 4.0)
ELL = {k: TableSpec(FAM, k) for k in MagicKind}
ANN = {k: TableSpec(FAM, k, 3.0) for k in MagicKind}


def _unit(vx, vy):
    h = math.hypot(vx, vy)
    return vx / h, vy / h


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
    s = BoundaryPhase(FAM.boundary_point(0.83), _unit(-0.45, -0.89), "outer")
    for _ in range(50):
        s = step(ELL[MagicKind.HALF_TURN], s)
        assert abs(FAM.conic_residual(0.0, *s.at)) < 1e-9
        assert math.hypot(*s.v) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", list(MagicKind))
@pytest.mark.parametrize("inner", [None, 3.0])
def test_caustic_is_conserved(kind, inner):
    table = TableSpec(FAM, kind, inner)
    for t0, th in [(0.4, 3.8), (1.3, 4.4), (2.6, 5.6), (5.1, 1.9)]:
        s = BoundaryPhase(table.fam.boundary_point(t0), _unit(math.cos(th), math.sin(th)), "outer")
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
        s = BoundaryPhase(table.fam.boundary_point(t0), _unit(math.cos(th), math.sin(th)), "outer")
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
            s0 = BoundaryPhase(table.fam.boundary_point(2.2), _unit(0.1, -0.995), "outer")
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
    "detect_closure": lambda t, s: detect_closure(t, s, 3),
}
# zero, zero in floats (its square underflows), and not finite
BAD_VELOCITIES = [(0.0, 0.0), (1e-200, 0.0), (math.nan, 0.5), (math.inf, 1.0)]


@pytest.mark.parametrize("v", BAD_VELOCITIES, ids=repr)
@pytest.mark.parametrize("name", BOUNCE_CALLS)
def test_velocity_must_be_finite_and_nonzero(name, v):
    # trajectory and detect_closure check the velocity before they take
    # the caustic of the seed's line
    s = BoundaryPhase((3.0, 0.0), v)
    with pytest.raises(ValueError, match=r"velocity \(.*\) must be finite and nonzero"):
        BOUNCE_CALLS[name](ELL[MagicKind.FLIP_LONG], s)


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
    s = BoundaryPhase(table.fam.boundary_point(1.45), _unit(-0.05, -0.999), "outer")
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
        rep = detect_closure(ELL[MagicKind.IDENTITY], BoundaryPhase(p, v), 8)
        assert rep is not None
        assert rep.period == 4
        assert rep.winding in (1, -1)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_detect_closure_default_tolerance_is_scale_free(scale):
    # a caustic 2e-5 (relative) off the 4-periodic one misses closure by a
    # phase distance of 1.5e-4 at every scale: far above the default
    # tolerance, which phase_distance, being dimensionless, must not scale
    fam = ConfocalFamily(9.0 * scale, 4.0 * scale)
    p = fam.boundary_point(0.9)
    v = tangent_directions(fam, 36.0 / 13.0 * (1.0 + 2e-5) * scale, p)[0]
    table = TableSpec(fam, MagicKind.IDENTITY)
    assert closure_defect(table, BoundaryPhase(p, v), 4) == pytest.approx(1.575e-4, rel=1e-3)
    assert detect_closure(table, BoundaryPhase(p, v), 4) is None


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
        s0 = BoundaryPhase(table.fam.boundary_point(1.45), _unit(-0.05, -0.999), "outer")
        traj = trajectory(table, s0, 40)
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
# the ellipse level nearest to the focal one that the search allows
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
    phases = [((j + 0.5) / 8, sign) for sign in (1.0, -1.0) for j in range(8)]
    x, y, qx, qy, inner = level_orbits(table, beta, phases, 40)
    tol = 1e-9 * math.sqrt(a)
    for i, (t, sign) in enumerate(phases):
        # the seed's state: its point at the phase, by mpmath, and of the
        # two tangents to C_beta from there the one whose first scalar
        # bounce meets the closed form's (at the wall points where the
        # two merge, either)
        p = _phase_point(fam, beta, t, sign)
        trajs = [
            trajectory(table, BoundaryPhase(p, v), 40) for v in tangent_directions(fam, beta, p)
        ]
        traj = min(trajs, key=lambda tr: math.hypot(x[i, 0] - tr.x[1], y[i, 0] - tr.y[1]))
        if beta < fam.b:  # the branch is the winding sense
            assert math.copysign(1.0, p[0] * traj.vy[0] - p[1] * traj.vx[0]) == sign
        for k, (s, hit) in enumerate(zip(traj.states[1:], traj.hits)):
            assert inner[i, k] == (s.component == "inner")
            assert math.hypot(x[i, k] - s.at[0], y[i, k] - s.at[1]) <= tol
            assert math.hypot(qx[i, k] - hit[0], qy[i, k] - hit[1]) <= tol


def _phase_point(fam, beta, t, sign):
    """The outer-wall point of the seed phase (t, sign) on level beta, by mpmath."""
    with mp.workdps(30):
        a, b, lev = mp.mpf(fam.a), mp.mpf(fam.b), mp.mpf(beta)
        if beta < fam.b:
            m = (a - b) / (a - lev)
            u = 4 * mp.ellipk(m) * t
            x, y = -mp.sqrt(a) * mp.ellipfun("sn", u, m), mp.sqrt(b) * mp.ellipfun("cn", u, m)
        else:
            m = (a - lev) / (a - b)
            u = 4 * mp.ellipk(m) * t
            x = mp.sqrt(a * m) * mp.ellipfun("sn", u, m)
            y = sign * mp.sqrt(b) * mp.ellipfun("dn", u, m)
        return float(x), float(y)


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
    # of phases up to |u0| + 1000 |h| = 12020; h is a level's advance, one
    # float per call
    ks = list(range(1, 70)) + list(range(70, 1000, 31)) + [1000]
    with mp.workdps(30):
        m = 1 - mp.mpf(m1)
        for u0, h in ((-20.0, 12.0), (-3.7, -0.31), (0.9, 5.5), (20.0, -7.25)):
            sn, cn = _jacobi_steps(np.array([[u0]]), h, 1000, 1.0 - m1, m1)(slice(None))
            dn = _dn(sn, cn, m1)  # as the hyperbola levels of _level_grid take it
            assert sn.shape == cn.shape == dn.shape == (1, 1000)
            for k in ks:
                u = mp.mpf(u0) + k * mp.mpf(h)
                for name, got in (("sn", sn), ("cn", cn), ("dn", dn)):
                    assert abs(got[0, k - 1] - float(mp.ellipfun(name, u, m))) <= 1e-11


def _jacobi_numpy(u, m, m1):
    """(sn, cn, dn) by the descending AGM in numpy, moduli broadcast against u, written out."""
    m1 = np.asarray(m1, dtype=float)
    a, c = [np.ones_like(m1)], [np.sqrt(m)]
    b = np.sqrt(m1)
    while np.any(c[-1] > 1e-17 * a[-1]):
        a_next = 0.5 * (a[-1] + b)
        b = np.sqrt(a[-1] * b)
        c.append(0.25 * c[-1] * c[-1] / a_next)
        a.append(a_next)
    period = 2.0 * math.pi / a[-1]
    phi = (2.0 ** (len(a) - 1) * a[-1]) * (u - period * np.round(u / period))
    for an, cn in zip(a[:0:-1], c[:0:-1]):
        phi = 0.5 * (phi + np.arcsin(cn / an * np.sin(phi)))
    sn, cn = np.sin(phi), np.cos(phi)
    return sn, cn, np.sqrt(cn * cn + m1 * sn * sn)


def _level_beta(a, b, where, frac, offset):
    return {
        "ellipse": frac * b,
        "hyperbola": b + frac * (a - b),
        # 1e-9 .. 1e-2 relative off b, on either side
        "near-focal": b * (1.0 + math.copysign(10.0**offset, frac - 0.5)),
    }[where]


LEVELS = dict(
    a=st.floats(2.0, 20.0),
    ratio=st.floats(0.02, 0.98),
    where=st.sampled_from(["ellipse", "hyperbola", "near-focal"]),
    frac=st.floats(1e-6, 1.0 - 1e-6),
    offset=st.floats(-9.0, -2.0),
)


@given(**LEVELS, u=st.lists(st.floats(-2e4, 2e4), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_jacobi_matches_the_numpy_agm_bit_for_bit(a, ratio, where, frac, offset, u):
    b = a * ratio
    beta = _level_beta(a, b, where, frac, offset)
    assume(0.0 < beta < a and beta != b)
    _, m, m1 = _caustic_modulus(a, b, beta)
    u = np.array(u)
    for got, want in zip(_jacobi(u, m, m1), _jacobi_numpy(u, m, m1)):
        assert [v.hex() for v in got] == [v.hex() for v in want]


@given(**LEVELS, inner=st.floats(0.01, 0.99), phi=st.floats(-10.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_elliptic_integrals_match_mpmath(a, ratio, where, frac, offset, inner, phi):
    """K, F(phi|m) and the annulus advance, as _level_grid takes them, to 30 digits.

    K and F come from the same float m1 and phi; the advance from the
    same floats a, b, beta and inner wall.
    """
    b = a * ratio
    beta = _level_beta(a, b, where, frac, offset)
    assume(0.0 < beta < a and beta != b)
    phase, m, m1 = _caustic_modulus(a, b, beta)
    an, bn, _ = _agm(m, m1)
    lam = inner * min(b, beta)
    with mp.workdps(30):
        m_exact = 1 - mp.mpf(m1)
        want = mp.ellipk(m_exact)
        assert abs(math.pi / (2.0 * an[-1]) - want) <= 4e-15 * want
        want = mp.ellipf(phase, m_exact)
        assert abs(_ellipf(phase, an, bn) - want) <= 4e-15 * want
        want = mp.ellipf(phi, m_exact)
        assert abs(_ellipf(phi, an, bn) - want) <= 1e-14 * max(1.0, abs(want))
        if beta > b:  # hyperbola levels, the only ones that reach an inner wall
            ea, eb, ebeta, el = (mp.mpf(v) for v in (a, b, beta, lam))
            want = mp.sqrt(ea - eb) * (
                mp.elliprf(eb - el, ebeta - el, ea - el) - mp.elliprf(eb, ebeta, ea)
            )
            assert abs(_annulus_advance(a, b, beta, lam, an, bn) - want) <= 4e-15 * want


# Periodic caustics of period 8 and 16 have a dyadic rotation number
# F/2K, so the Landen phases of F(phi|m) land on odd multiples of pi/2,
# where tan phi has no sign to trust.  The search finds the levels of
# three families; these two, found by `periodic --n 8`, gave F/K = 1 for
# 0.75 when the branch of each step was picked by rounding phi/pi.
DYADIC_FAMILIES = [(9.0, 4.0), (10.0, 2.0), (10.0, 7.5)]
ROUNDED_BRANCH_LEVELS = [(10.0, 7.5, 7.071451058107543), (9.0, 4.0, 4.0370210080143325)]
# (a, b, beta, inner wall, F/2K of the annulus advance): walls where the
# advance's rotation number is dyadic, found with scipy's elliprf
DYADIC_WALLS = [
    (9.0, 4.0, 6.5, 3.813961264605878, 3 / 16),
    (9.0, 4.0, 8.0, 3.9778480884792686, 7 / 32),
    (10.0, 2.0, 3.6, 1.9887856228781688, 3 / 16),
    (10.0, 2.0, 6.0, 1.655520834682585, 3 / 32),
    (10.0, 7.5, 8.0, 7.172053516503158, 7 / 32),
    (10.0, 7.5, 8.75, 6.903196302608449, 3 / 16),
    (10.0, 7.5, 9.5, 5.343828085287883, 3 / 32),
]


def _annulus_advance_at_30_digits(a, b, beta, lam):
    ea, eb, ebeta, el = (mp.mpf(v) for v in (a, b, beta, lam))
    return mp.sqrt(ea - eb) * (mp.elliprf(eb - el, ebeta - el, ea - el) - mp.elliprf(eb, ebeta, ea))


@pytest.mark.parametrize("a,b", DYADIC_FAMILIES)
def test_elliptic_integrals_match_mpmath_at_dyadic_periodic_caustics(a, b):
    levels = {
        r.beta for n in (8, 16) for r in find_periodic_caustics(MagicKind.IDENTITY, n, a, b, (0.0, a))
    }
    assert min(levels) < b < max(levels)
    levels |= {beta for fa, fb, beta in ROUNDED_BRANCH_LEVELS if (fa, fb) == (a, b)}
    for beta in sorted(levels):
        phase, m, m1 = _caustic_modulus(a, b, beta)
        an, bn, _ = _agm(m, m1)
        with mp.workdps(30):
            want = mp.ellipf(phase, 1 - mp.mpf(m1))
            assert abs(_ellipf(phase, an, bn) - want) <= 4e-15 * want
            if beta > b:
                want = _annulus_advance_at_30_digits(a, b, beta, 0.75 * b)
                assert abs(_annulus_advance(a, b, beta, 0.75 * b, an, bn) - want) <= 4e-15 * want


@pytest.mark.parametrize("a,b,beta,lam,rho", DYADIC_WALLS)
def test_annulus_advance_matches_mpmath_where_its_rotation_is_dyadic(a, b, beta, lam, rho):
    _, m, m1 = _caustic_modulus(a, b, beta)
    an, bn, _ = _agm(m, m1)
    with mp.workdps(30):
        want = _annulus_advance_at_30_digits(a, b, beta, lam)
        assert abs(want / (2 * mp.ellipk(1 - mp.mpf(m1))) - rho) <= 1e-13
        assert abs(_annulus_advance(a, b, beta, lam, an, bn) - want) <= 4e-15 * want


_PHASES = [(0.3, 1.0)]
# (table, beta, seed phases, steps, error, message)
BAD_LEVEL_ORBITS = [
    (ELL[MagicKind.FLIP_LONG], 6.0, [], 5, ValueError, "at least one seed"),
    (ELL[MagicKind.FLIP_LONG], 6.0, _PHASES, 0, ValueError, "need steps >= 1"),
    (ELL[MagicKind.FLIP_LONG], 6.0, _PHASES, -3, ValueError, "need steps >= 1"),
    (ELL[MagicKind.FLIP_LONG], FAM.b, _PHASES, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], 1e-12, _PHASES, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], FAM.a - 1e-12, _PHASES, 5, DegenerateLevel, "singular level"),
    (ELL[MagicKind.FLIP_LONG], math.nan, _PHASES, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], math.inf, _PHASES, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], -1.0, _PHASES, 5, ValueError, "outside"),
    (ELL[MagicKind.FLIP_LONG], FAM.a, _PHASES, 5, ValueError, "outside"),
    # ellipse caustics inside an annulus' inner wall carry no orbit of it
    (ANN[MagicKind.FLIP_LONG], 3.5, _PHASES, 5, DegenerateLevel, "inside the inner wall"),
]


@pytest.mark.parametrize(
    "table,beta,seeds,steps,error,message",
    BAD_LEVEL_ORBITS,
    ids=[f"{t.shape}-{b}-{len(s)}-{n}" for t, b, s, n, _, _ in BAD_LEVEL_ORBITS],
)
def test_level_orbits_check_their_inputs(table, beta, seeds, steps, error, message):
    with pytest.raises(error, match=message):
        level_orbits(table, beta, seeds, steps)


@pytest.mark.parametrize(
    "phase", [(0.3, 0.0), (0.3, 2.0), (0.3, math.nan), (math.nan, 1.0), (math.inf, -1.0)], ids=repr
)
def test_level_orbits_check_their_seed_phases(phase):
    with pytest.raises(ValueError, match="needs a finite t and a sign of"):
        level_orbits(ELL[MagicKind.FLIP_LONG], 6.0, [(0.1, 1.0), phase], 5)


def test_level_orbits_take_a_single_step():
    assert level_orbits(ELL[MagicKind.FLIP_LONG], 6.0, _PHASES, 1)[0].shape == (1, 1)


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
    # every bounce call runs the hit-time solver, so each raises; a seed
    # phase of level_orbits lies on the level and cannot leave the table
    p = FAM.boundary_point(2.0)
    h = math.hypot(p[0] / FAM.a, p[1] / FAM.b)
    bad = BoundaryPhase(p, (p[0] / FAM.a / h, p[1] / FAM.b / h))  # outward normal
    for call in BOUNCE_CALLS.values():
        with pytest.raises(NoForwardHit):
            call(table, bad)
