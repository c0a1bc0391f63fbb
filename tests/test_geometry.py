"""Confocal-coordinate and ray-geometry tests."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from magicbilliards import (
    CenterDegenerate,
    ConfocalFamily,
    caustic_of_line,
    classify_caustic,
    elliptic_columns,
    normal_at,
    tangent_directions,
)
from magicbilliards.geometry import (
    GRAZE_RTOL,
    HIT_TMIN_RTOL,
    VERTICAL_VX,
    _hit_time,
    caustic_column,
)

FAM = ConfocalFamily(9.0, 4.0)
# the bounce loop's minimum advance, which lets a ray leave its wall point
TMIN = HIT_TMIN_RTOL * math.sqrt(FAM.a)


def test_family_validation():
    with pytest.raises(ValueError):
        ConfocalFamily(4.0, 9.0)
    with pytest.raises(ValueError):
        ConfocalFamily(9.0, -1.0)
    with pytest.raises(ValueError):
        ConfocalFamily(9.0, 9.0)


@pytest.mark.parametrize("a, b", [(math.inf, 4.0), (9.0, math.nan), (math.nan, 4.0)])
def test_family_rejects_non_finite(a, b):
    with pytest.raises(ValueError, match="a=.*b="):
        ConfocalFamily(a, b)


def test_foci():
    c = math.sqrt(5.0)
    (f1, f2) = FAM.foci()
    assert f1 == pytest.approx((c, 0.0))
    assert f2 == pytest.approx((-c, 0.0))


def test_boundary_point_on_conic():
    for k in range(17):
        t = 2.0 * math.pi * k / 17
        x, y = FAM.boundary_point(t)
        assert abs(FAM.conic_residual(0.0, x, y)) < 1e-14


def test_elliptic_coords_quadratic_oracle():
    # lambda solves lam^2 - S lam + P = 0 with S = a+b-x^2-y^2 and
    # P = ab - b x^2 - a y^2; at (1,1) that is lam^2 - 11 lam + 23 = 0.
    lam1, lam2 = elliptic_columns(FAM, 1.0, 1.0)
    r = math.sqrt(29.0)
    assert float(lam1) == pytest.approx((11.0 - r) / 2.0, rel=1e-14)
    assert float(lam2) == pytest.approx((11.0 + r) / 2.0, rel=1e-14)


def test_elliptic_coords_ordering_and_ranges():
    for p in [(2.0, 0.5), (0.3, 1.9), (-2.5, -0.2), (1.0, -1.0)]:
        lam1, lam2 = elliptic_columns(FAM, *p)
        assert 0.0 <= lam1 <= FAM.b <= lam2 <= FAM.a


def test_center_degenerate():
    with pytest.raises(CenterDegenerate):
        elliptic_columns(FAM, 0.0, 0.0)


@given(
    t=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    r=st.floats(0.05, 0.995),
)
@settings(max_examples=200, deadline=None)
def test_elliptic_roundtrip(t, r):
    """elliptic_columns' (lam1, lam2) put the point back on both confocal conics:
    x²/(a−λ) + y²/(b−λ) = 1 for each λ.

    The tolerance is what a rounding error in λ explains: 4 ulp of the
    residual plus the residual's λ-derivative times
    ε·(a + (a+b)²/(λ2−λ1)), the root's error from a quadratic whose
    roots are λ2 − λ1 apart (near a focus the two roots meet).
    """
    a, b = FAM.a, FAM.b
    x = r * math.sqrt(a) * math.cos(t)
    y = r * math.sqrt(b) * math.sin(t)
    if abs(x) < 1e-6 or abs(y) < 1e-6:
        return  # on an axis one conic degenerates to a segment: b − λ1 or a − λ2 is 0
    lam1, lam2 = (float(v) for v in elliptic_columns(FAM, x, y))
    eps = 2.0**-52
    dlam = eps * (a + (a + b) ** 2 / (lam2 - lam1))
    for lam in (lam1, lam2):
        residual = x * x / (a - lam) + y * y / (b - lam) - 1.0
        slope = x * x / (a - lam) ** 2 + y * y / (b - lam) ** 2
        assert abs(residual) <= 4.0 * (eps + slope * dlam), (lam, residual)


def test_classify_caustic_kinds():
    assert classify_caustic(FAM, 2.5).kind == "ellipse"
    assert classify_caustic(FAM, 6.0).kind == "hyperbola"
    assert classify_caustic(FAM, 0.0).kind == "degenerate-boundary"
    assert classify_caustic(FAM, 4.0).kind == "degenerate-focal"
    assert classify_caustic(FAM, 9.0).kind == "degenerate-short-axis"
    # degeneracy tolerance is relative to a
    assert classify_caustic(FAM, 4.0 + 1e-10).kind == "degenerate-focal"
    with pytest.raises(ValueError):
        classify_caustic(FAM, -0.5)
    with pytest.raises(ValueError):
        classify_caustic(FAM, 9.5)


@given(
    t=st.floats(0.0, 2.0 * math.pi),
    th=st.floats(0.0, 2.0 * math.pi),
    shift=st.floats(0.1, 0.9),
    scale=st.floats(0.2, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_caustic_of_line_parametrization_invariant(t, th, shift, scale):
    """The caustic depends on the line only, not on the point/speed chosen."""
    p = FAM.boundary_point(t)
    v = (math.cos(th), math.sin(th))
    nx, ny = p[0] / FAM.a, p[1] / FAM.b
    if v[0] * nx + v[1] * ny > -1e-3:  # keep rays that enter the table
        return
    lam0 = caustic_of_line(FAM, p, v).lam
    t_hit = _hit_time(FAM.a, FAM.b, TMIN, 0.0, *p, *v)
    hit = (p[0] + t_hit * v[0], p[1] + t_hit * v[1])
    q = (p[0] + shift * (hit[0] - p[0]), p[1] + shift * (hit[1] - p[1]))
    lam1 = caustic_of_line(FAM, q, (scale * v[0], scale * v[1])).lam
    assert lam1 == pytest.approx(lam0, abs=1e-9)


def test_caustic_of_vertical_line():
    lam = caustic_of_line(FAM, (1.5, 0.3), (0.0, 1.0)).lam
    assert lam == pytest.approx(9.0 - 1.5**2, rel=1e-13)


def test_caustic_interval_law():
    # chords crossing the open focal segment touch a hyperbola, others an ellipse
    f = math.sqrt(5.0)
    c = caustic_of_line(FAM, (0.5 * f, 0.0), (0.3, 1.0))
    assert c.kind == "hyperbola" and FAM.b < c.lam < FAM.a
    c2 = caustic_of_line(FAM, (2.9, 0.0), (0.3, 1.0))
    assert c2.kind == "ellipse" and 0.0 < c2.lam < FAM.b


def test_hit_time_lands_on_conic():
    p = FAM.boundary_point(0.4)
    v = (-0.6, -0.8)
    t = _hit_time(FAM.a, FAM.b, TMIN, 0.0, *p, *v)
    hit = (p[0] + t * v[0], p[1] + t * v[1])
    assert abs(FAM.conic_residual(0.0, hit[0], hit[1])) < 1e-10
    # and the hit is ahead of p, not p itself
    assert math.hypot(hit[0] - p[0], hit[1] - p[1]) > 1e-6


def test_ray_misses_inner_conic():
    # a chord tangent to C_2.5 stays outside C_3.0
    p = FAM.boundary_point(1.2)
    v = tangent_directions(FAM, 2.5, p)[0]
    assert _hit_time(FAM.a - 3.0, FAM.b - 3.0, TMIN, 0.0, *p, *v) is None


def test_normal_at_is_inward_unit():
    for t in (0.0, 0.7, 2.1, 4.4):
        p = FAM.boundary_point(t)
        n = normal_at(FAM, 0.0, p)
        assert math.hypot(*n) == pytest.approx(1.0, rel=1e-12)
        # inward: a short move along n decreases the conic residual
        eps = 1e-6
        inside = FAM.conic_residual(0.0, p[0] + eps * n[0], p[1] + eps * n[1])
        assert inside < 0.0


def test_normal_at_inner_points_outward_into_annulus():
    lam = 3.0
    p = (math.sqrt(FAM.a - lam), 0.0)
    n = tuple(-c for c in normal_at(FAM, lam, p))
    # for the annulus wall the useful normal points away from the center
    assert n[0] > 0.0


def test_tangent_directions_touch_the_caustic():
    for beta in (1.0, 2.5, 3.9):
        for t in (0.3, 1.0, 2.8, 5.0):
            p = FAM.boundary_point(t)
            dirs = tangent_directions(FAM, beta, p)
            assert len(dirs) == 2
            for v in dirs:
                assert caustic_of_line(FAM, p, v).lam == pytest.approx(beta, abs=1e-8)


def test_tangent_directions_hyperbola_band():
    # hyperbola tangencies exist only on part of the boundary
    some, none = 0, 0
    for k in range(64):
        t = 2.0 * math.pi * (k + 0.5) / 64
        dirs = tangent_directions(FAM, 6.0, FAM.boundary_point(t))
        if dirs:
            some += 1
            for v in dirs:
                assert caustic_of_line(FAM, FAM.boundary_point(t), v).lam == pytest.approx(
                    6.0, abs=1e-8
                )
        else:
            none += 1
    assert some > 0 and none > 0


def test_tangent_slopes_stay_exact_next_to_a_vertical_tangent():
    """Where a - beta - x² is small the finite slope is taken without cancellation.

    At this family and level two points of this boundary scan sit next to
    a nearly vertical tangent; the slope form (-xy + sqrt(disc)) / aq put
    their lines 3.7e-13 a off the level.
    """
    a = 4.297680868191241
    fam = ConfocalFamily(a, 0.5191325636742681 * a)
    beta = fam.b - 1e-3 * a
    for k in range(128):
        p = fam.boundary_point(2.0 * math.pi * (k + 0.37) / 128)
        dirs = tangent_directions(fam, beta, p)
        assert len(dirs) == 2
        for v in dirs:
            assert abs(caustic_of_line(fam, p, v).lam - beta) <= 1e-14 * a


def _tangent_reference(fam, beta, p):
    """The inward tangent directions at the float point p, to 50 digits.

    A root r = -xy ± sqrt(disc) of the slope quadratic gives the line
    (aq, r), or (r', bq) with r r' = aq bq; the longer of the two is
    kept, so the vertical line at aq = 0 is no special case.
    """
    with mp.workdps(50):
        x, y = mp.mpf(p[0]), mp.mpf(p[1])
        aq = mp.mpf(fam.a) - mp.mpf(beta) - x * x
        bq = mp.mpf(fam.b) - mp.mpf(beta) - y * y
        disc = x * x * y * y - aq * bq
        if disc < 0:
            return []
        sq = mp.sqrt(disc)
        out = []
        for r, r2 in ((-x * y + sq, -x * y - sq), (-x * y - sq, -x * y + sq)):
            u = max((aq, r), (r2, bq), key=lambda w: mp.hypot(*w))
            h = mp.hypot(*u)
            for s in (1, -1):
                d = (s * u[0] / h, s * u[1] / h)
                if d[0] * x / fam.a + d[1] * y / fam.b < 0:
                    out.append(d)
        return out


def _tangent_cases():
    # wall points on the vertical tangent x² = a - beta, and up to 2e-11 a off
    # it on either side, on both sides of b, and generic wall points
    deltas = (0.0, 1e-13, 1e-12, 5e-12, 1e-11, 2e-11)
    for a, b in ((9.0, 4.0), (20.0, 3.0), (10.0, 0.5)):
        fam = ConfocalFamily(a, b)
        for beta in (0.4 * b, 0.9 * b, b + 0.3 * (a - b), b + 0.8 * (a - b)):
            for delta in deltas + tuple(-d for d in deltas[1:]):
                x = math.sqrt(a - beta - delta * a)
                y = math.sqrt(b * (1.0 - x * x / a))
                for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)):
                    yield fam, beta, (sx * x, sy * y)
            for k in range(16):
                yield fam, beta, fam.boundary_point(2.0 * math.pi * (k + 0.3) / 16)
    # a - beta - x² is 0.0 in floats here
    yield FAM, 5.0, (2.0, math.sqrt(20.0 / 9.0))


def test_tangent_directions_round_trip_through_caustic_of_line():
    """Each tangent direction's line touches C_beta to 1e-14 a, and the
    directions match 50-digit ones, also next to a vertical tangent."""
    aq_zero = False
    for fam, beta, p in _tangent_cases():
        dirs = tangent_directions(fam, beta, p)
        aq_zero |= fam.a - beta - p[0] * p[0] == 0.0
        want = _tangent_reference(fam, beta, p)
        assert len(dirs) == len(want)
        for d in dirs:
            assert abs(caustic_of_line(fam, p, d).lam - beta) <= 1e-14 * fam.a, (fam, beta, p, d)
            err = min(max(abs(d[0] - float(w[0])), abs(d[1] - float(w[1]))) for w in want)
            assert err <= 1e-14, (fam, beta, p, d, err)
    assert aq_zero


# ---------------------------------------------------------------------------
# array forms against their scalar twins, bit for bit


def _to_elliptic_scalar(fam, x, y):
    # the one-point formula of elliptic_columns, written out
    s = fam.a + fam.b - x * x - y * y
    prod = fam.a * fam.b - fam.b * x * x - fam.a * y * y
    disc = max(s * s - 4.0 * prod, 0.0)
    root = math.sqrt(disc)
    lam2 = 0.5 * (s + root)
    lam1 = prod / lam2 if abs(lam2) > 1e-300 else 0.5 * (s - root)
    return min(max(lam1, 0.0), fam.b), min(max(lam2, fam.b), fam.a)


# axis points, where the clamps act, and generic ones
_WALL_T = st.one_of(
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
    st.floats(0.0, 2.0 * math.pi),
)
# directions with |vx| below, at and just above VERTICAL_VX, and generic ones
_SIGN = st.sampled_from([1.0, -1.0])
_DIRECTION = st.one_of(
    st.tuples(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]), _SIGN, _SIGN).map(
        lambda c: (c[0] * c[1] * VERTICAL_VX, c[2])
    ),
    st.floats(0.0, 2.0 * math.pi).map(lambda th: (math.cos(th), math.sin(th))),
)


@given(
    ratio=st.floats(0.15, 0.85),
    inner=st.floats(0.1, 0.9),
    walls=st.lists(st.tuples(st.booleans(), _WALL_T, _DIRECTION), min_size=1, max_size=12),
)
@example(ratio=4.0 / 9.0, inner=0.75, walls=[(False, 0.5 * math.pi, (0.0, -1.0))])
@example(ratio=4.0 / 9.0, inner=0.75, walls=[(True, 0.0, (VERTICAL_VX, 1.0))])
@settings(max_examples=300, deadline=None)
def test_array_columns_match_the_scalar_functions(ratio, inner, walls):
    """elliptic_columns and caustic_column equal the scalar forms by float.hex."""
    fam = ConfocalFamily(9.0, 9.0 * ratio)
    lam_in = inner * fam.b
    x, y, vx, vy = [], [], [], []
    for on_inner, t, (dx, dy) in walls:
        shift = lam_in if on_inner else 0.0
        x.append(math.sqrt(fam.a - shift) * math.cos(t))
        y.append(math.sqrt(fam.b - shift) * math.sin(t))
        vx.append(dx)
        vy.append(dy)
    lam1, lam2 = elliptic_columns(fam, x, y)
    caustic = caustic_column(fam, x, y, vx, vy)
    for i in range(len(x)):
        want = _to_elliptic_scalar(fam, x[i], y[i])
        assert (lam1[i].hex(), lam2[i].hex()) == (want[0].hex(), want[1].hex())
        assert caustic[i].hex() == caustic_of_line(fam, (x[i], y[i]), (vx[i], vy[i])).lam.hex()


def test_array_columns_keep_the_scalar_checks():
    with pytest.raises(CenterDegenerate):
        elliptic_columns(FAM, [1.0, 0.0], [1.0, 0.0])
    # rows 1 and 2 lie on lines that miss every member of the family
    x, y, vx, vy = [0.0, 4.0, 5.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    with pytest.raises(ValueError) as want:
        caustic_of_line(FAM, (x[1], y[1]), (vx[1], vy[1]))
    with pytest.raises(ValueError) as got:
        caustic_column(FAM, x, y, vx, vy)
    assert str(got.value) == str(want.value) == "caustic parameter -7.0 outside [0, a=9.0]"
    with pytest.raises(ValueError, match="caustic parameter nan"):
        caustic_column(FAM, [math.nan], [0.0], [1.0], [0.0])


def _hit_time_reference(fam, lam, p, v, graze=False):
    # the list-and-min form of _hit_time, written out
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
    roots = [q / alpha]
    if abs(q) > 1e-300:
        roots.append(delta / q)
    tmin = HIT_TMIN_RTOL * math.sqrt(fam.a)
    good = [t for t in roots if t > tmin]
    return min(good) if good else None


def _hex_or_none(t):
    return None if t is None else t.hex()


@given(
    ratio=st.floats(0.15, 0.85),
    inner=st.floats(0.1, 0.9),
    from_inner=st.booleans(),
    t=_WALL_T,
    turn=st.one_of(
        st.floats(0.0, 2.0 * math.pi),
        st.sampled_from([0.0, 1e-13, -1e-13, 1e-7, -1e-7]),
    ),
    tangent=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_hit_time_matches_the_list_and_min_rule(ratio, inner, from_inner, t, turn, tangent):
    """Same time, by float.hex, or None: on both walls, with grazes and misses.

    Rays leave a point of either wall in a generic direction, or along a
    tangent to the inner wall turned by ``turn``: those graze it or miss.
    """
    fam = ConfocalFamily(9.0, 9.0 * ratio)
    lam_in = inner * fam.b
    shift = lam_in if from_inner else 0.0
    p = (math.sqrt(fam.a - shift) * math.cos(t), math.sqrt(fam.b - shift) * math.sin(t))
    dirs = tangent_directions(fam, lam_in, p) if tangent and not from_inner else []
    base = math.atan2(dirs[0][1], dirs[0][0]) if dirs else 0.0
    v = (math.cos(base + turn), math.sin(base + turn))
    tmin = HIT_TMIN_RTOL * math.sqrt(fam.a)
    for lam in (0.0, lam_in):
        for graze in (False, True):
            graze_tol = GRAZE_RTOL * fam.a if graze else 0.0
            got = _hit_time(fam.a - lam, fam.b - lam, tmin, graze_tol, *p, *v)
            assert _hex_or_none(got) == _hex_or_none(_hit_time_reference(fam, lam, p, v, graze))
