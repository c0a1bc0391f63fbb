"""The float bounce loop against a written-out copy of the object-based step.

The reference below is the bounce as it was composed before the loop ran
on plain floats: ``_propagate`` (hit times, then ``reflect_standard``
through ``normal_at``), ``apply_magic`` on the outer wall, and a new
``BoundaryPhase`` per bounce.  Every state, wall point, label, crossing
count and closure defect must agree by ``float.hex``, and every failure
must be the same exception, with the same message, at the same bounce.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from magicbilliards import (
    BoundaryPhase,
    CausticId,
    ConfocalFamily,
    Crossings,
    MagicKind,
    NoForwardHit,
    NotOnConic,
    TableSpec,
    caustic_of_line,
    closure_defect,
    normal_at,
    phase_distance,
    step,
    step_inverse,
    tangent_directions,
    trajectory,
)
from magicbilliards.geometry import GRAZE_RTOL, HIT_TMIN_RTOL, VERTICAL_VX


def _ref_hit_time(fam, lam, p, v, graze=False):
    aa = fam.a - lam
    bb = fam.b - lam
    x, y = p
    vx, vy = v
    alpha = vx * vx / aa + vy * vy / bb
    gamma = (x * vx) / aa + (y * vy) / bb
    delta = x * x / aa + y * y / bb - 1.0
    disc = gamma * gamma - alpha * delta
    if disc < 0.0:
        return None
    if graze and disc / (alpha * alpha) < GRAZE_RTOL * fam.a:
        return None
    sq = math.sqrt(disc)
    q = -(gamma + sq) if gamma >= 0.0 else -(gamma - sq)
    delta = (gamma * gamma - disc) / alpha
    tmin = HIT_TMIN_RTOL * math.sqrt(fam.a)
    t = q / alpha
    best = t if t > tmin else None
    if abs(q) > 1e-300:
        t = delta / q
        if t > tmin and (best is None or t < best):
            best = t
    return best


def _ref_reflect(fam, lam, p, v_in):
    if abs(fam.conic_residual(lam, *p)) > 1e-8:
        raise NotOnConic(f"{p} is not on C_{lam}")
    gx = p[0] / (fam.a - lam)
    gy = p[1] / (fam.b - lam)
    h = math.hypot(gx, gy)
    nx, ny = -gx / h, -gy / h
    d = v_in[0] * nx + v_in[1] * ny
    return v_in[0] - 2.0 * d * nx, v_in[1] - 2.0 * d * ny


def _ref_magic(kind, p, v):
    sx, sy = kind.signs
    return (sx * p[0], sy * p[1]), (sx * v[0], sy * v[1])


def _ref_propagate(table, s):
    fam = table.fam
    t_outer = _ref_hit_time(fam, 0.0, s.at, s.v)
    t_inner = None
    if table.inner_lam is not None:
        t_inner = _ref_hit_time(fam, table.inner_lam, s.at, s.v, graze=True)
    if t_outer is None and t_inner is None:
        raise NoForwardHit(f"ray from {s.at} along {s.v} leaves the table")
    if t_inner is not None and (t_outer is None or t_inner < t_outer):
        t, lam, comp = t_inner, table.inner_lam, "inner"
    else:
        t, lam, comp = t_outer, 0.0, "outer"
    hit = (s.at[0] + t * s.v[0], s.at[1] + t * s.v[1])
    return hit, _ref_reflect(fam, lam, hit, s.v), comp


def _ref_step(table, s):
    hit, v_out, comp = _ref_propagate(table, s)
    if comp == "outer":
        hit, v_out = _ref_magic(table.outer_map, hit, v_out)
    return BoundaryPhase(hit, v_out, comp)


def _ref_step_inverse(table, s):
    p, v = s.at, s.v
    if s.component == "outer":
        p, v = _ref_magic(table.outer_map, p, v)
        lam = 0.0
    else:
        lam = table.inner_lam
    v_in = _ref_reflect(table.fam, lam, p, v)
    back = BoundaryPhase(p, (-v_in[0], -v_in[1]), s.component)
    hit, _, comp = _ref_propagate(table, back)
    return BoundaryPhase(hit, v_in, comp)


def _ref_trajectory(table, s0, n):
    caustic = caustic_of_line(table.fam, s0.at, s0.v)
    states, hits = [s0], []
    long_c = short_c = outer = 0
    s = s0
    for _ in range(n):
        hit, v_out, comp = _ref_propagate(table, s)
        hits.append(hit)
        if s.at[1] * hit[1] < 0.0:
            long_c += 1
        if s.at[0] * hit[0] < 0.0:
            short_c += 1
        if comp == "outer":
            outer += 1
            hit, v_out = _ref_magic(table.outer_map, hit, v_out)
        s = BoundaryPhase(hit, v_out, comp)
        states.append(s)
    flips = 0 if table.outer_map is MagicKind.IDENTITY else outer
    return tuple(states), tuple(hits), Crossings(long_c, short_c, flips), caustic


def _ref_closure_defect(table, s0, n):
    s = s0
    for _ in range(n):
        s = _ref_step(table, s)
    return phase_distance(table.fam, s, s0)


def _hex(obj):
    """Floats as float.hex, recursively; labels and counts as they are."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, BoundaryPhase):
        return _hex(obj.at), _hex(obj.v), obj.component
    if isinstance(obj, (tuple, list)):
        return tuple(_hex(o) for o in obj)
    if isinstance(obj, CausticId):
        return obj.lam.hex(), obj.kind
    if isinstance(obj, Crossings):
        return obj.long_axis, obj.short_axis, obj.flips
    return obj


def _outcome(fn, *args):
    try:
        return "ok", _hex(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return "raised", type(exc), str(exc)


def _traj_outcome(table, s0, n):
    def new():
        traj = trajectory(table, s0, n)
        return traj.states, traj.hits, traj.crossings, traj.caustic

    return _outcome(new), _outcome(_ref_trajectory, table, s0, n)


def _check_against_reference(table, s0, n):
    """Compare every entry point with the reference; returns the reference states."""
    got, want = _traj_outcome(table, s0, n)
    assert got == want
    assert _outcome(closure_defect, table, s0, n) == _outcome(_ref_closure_defect, table, s0, n)
    # step by step, so a failure is pinned to its bounce
    states = [s0]
    for _ in range(n):
        s = states[-1]
        assert _outcome(step_inverse, table, s) == _outcome(_ref_step_inverse, table, s)
        got, want = _outcome(step, table, s), _outcome(_ref_step, table, s)
        assert got == want
        if want[0] != "ok":
            break
        states.append(_ref_step(table, s))
    return states


def _turned(v, turn):
    ang = math.atan2(v[1], v[0]) + turn
    return math.cos(ang), math.sin(ang)


@given(
    a=st.floats(2.0, 20.0),
    ratio=st.floats(0.15, 0.85),
    kind=st.sampled_from(list(MagicKind)),
    wall=st.one_of(st.none(), st.floats(0.1, 0.9)),
    start=st.sampled_from(["outer", "tangent", "inner", "anywhere", "far"]),
    t=st.floats(0.0, 2.0 * math.pi),
    psi=st.floats(-1.55, 1.55),
    turn=st.sampled_from([1e-13, -1e-13, 1e-7, -1e-7]),
    scale=st.floats(0.0, 1.5),
    n=st.integers(1, 40),
)
@settings(max_examples=300, deadline=None)
def test_bounce_loop_matches_the_object_step_bit_for_bit(
    a, ratio, kind, wall, start, t, psi, turn, scale, n
):
    """Both walls, the four maps, grazing and leaving rays, points off the wall.

    ``outer`` and ``inner`` leave a wall at angle psi to its interior
    normal; ``tangent`` leaves the outer wall along a tangent to the inner
    wall turned by ``turn`` (a graze, a near miss or a near hit);
    ``anywhere`` starts inside or outside the table, off every wall, so the
    inverse step fails and outward rays leave the table; ``far`` starts
    10**(2 + 8 scale / 1.5) sqrt(a) out and aims at the table, where the hit
    lands off the wall by more than the 1e-8 gate from about 1e5 on.
    """
    fam = ConfocalFamily(a, a * ratio)
    table = TableSpec(fam, kind, None if wall is None else wall * fam.b)
    lam = table.inner_lam
    if start == "inner" and lam is not None:
        p = (math.sqrt(fam.a - lam) * math.cos(t), math.sqrt(fam.b - lam) * math.sin(t))
        s0 = BoundaryPhase(p, _turned(tuple(-c for c in normal_at(fam, lam, p)), psi), "inner")
    elif start == "anywhere":
        p = (scale * math.sqrt(fam.a) * math.cos(t), scale * math.sqrt(fam.b) * math.sin(3.0 * t))
        s0 = BoundaryPhase(p, _turned((1.0, 0.0), 4.0 * psi))
    elif start == "far":
        r = 10.0 ** (2.0 + 8.0 * scale / 1.5) * math.sqrt(fam.a)
        p = (r * math.cos(t), r * math.sin(t))
        s0 = BoundaryPhase(p, _turned((-math.cos(t), -math.sin(t)), psi * 1e-9))
    else:
        p = fam.boundary_point(t)
        dirs = tangent_directions(fam, lam, p) if start == "tangent" and lam else []
        if dirs:
            s0 = BoundaryPhase(p, _turned(dirs[0], turn))
        else:
            s0 = BoundaryPhase(p, _turned(normal_at(fam, 0.0, p), psi))
    _check_against_reference(table, s0, n)


FAM = ConfocalFamily(9.0, 4.0)


@pytest.mark.parametrize("kind", list(MagicKind))
@pytest.mark.parametrize("inner_lam", [None, 3.0])
def test_bounce_loop_matches_on_vertical_and_failing_starts(kind, inner_lam):
    """Fixed starts for the cases a random draw rarely reaches.

    A vertical chord; a start whose first bounce leaves with |vx| below
    VERTICAL_VX; a ray that hits the wall from outside and then leaves the
    table at bounce 1; a point off the wall; a hit too far out for the
    1e-8 on-wall gate.
    """
    table = TableSpec(FAM, kind, inner_lam)
    vertical = BoundaryPhase((0.0, 2.0), (0.0, -1.0))
    h = math.hypot(0.6085590996553581, 0.7935085520816145)
    near_vertical = BoundaryPhase(
        (-1.3705941471893437, -1.7790723779780815),
        (0.6085590996553581 / h, 0.7935085520816145 / h),
    )
    states = _check_against_reference(table, near_vertical, 3)
    if kind is MagicKind.IDENTITY and inner_lam is None:
        assert 0.0 < abs(states[1].v[0]) < VERTICAL_VX
    _check_against_reference(table, vertical, 6)
    leaving = BoundaryPhase((0.0, 3.0), (0.0, -1.0))
    assert _traj_outcome(table, leaving, 5)[1][:2] == ("raised", NoForwardHit)
    assert len(_check_against_reference(table, leaving, 5)) == 2
    off_wall = BoundaryPhase((0.5, 0.5), (0.6, 0.8))
    assert _outcome(step_inverse, table, off_wall)[:2] == ("raised", NotOnConic)
    _check_against_reference(table, off_wall, 4)
    far = BoundaryPhase((3e7, 0.0), (-1.0, 1e-9))
    assert _outcome(step, table, far)[:2] == ("raised", NotOnConic)
    _check_against_reference(table, far, 2)
