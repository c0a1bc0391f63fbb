"""Discrete dynamics of magic billiards in an ellipse or confocal annulus.

A state is an impact point on a wall together with the *outgoing* unit
velocity.  One step propagates the ray to the first wall hit, reflects
it classically, and — on the outer wall only — composes with the magic
map: one of the four diagonal sign involutions

    identity    (x, y, vx, vy) -> ( x,  y,  vx,  vy)
    flip-long   (x, y, vx, vy) -> ( x, -y,  vx, -vy)
    flip-short  (x, y, vx, vy) -> (-x,  y, -vx,  vy)
    half-turn   (x, y, vx, vy) -> (-x, -y, -vx, -vy)

The inner wall of an annulus always reflects classically.  Every map
preserves the confocal caustic of the trajectory, which is the backbone
invariant the whole package leans on.

One loop over plain floats, ``_walk``, carries out every bounce:
``step``, ``step_inverse``, ``trajectory`` and ``closure_defect`` all
run on it, and ``Trajectory`` keeps its float columns.  ``level_orbits``
gives many seeds' impacts on one caustic level at once, in closed form:
on a regular level the Jacobi phase of the outer wall is the angle
variable, the map a translation in it, and each magic map an exact
symmetry of the Jacobi functions.  Seeds are given by their phases, so
they lie on the level exactly; the level is set up once for all of
them, and the addition theorem builds each seed's (steps) impacts from
about 2 sqrt(steps) Jacobi values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .geometry import (
    DEGENERATE_RTOL,
    GRAZE_RTOL,
    HIT_TMIN_RTOL,
    CausticId,
    ConfocalFamily,
    NoForwardHit,
    _hit_time,
    _inward_normal,
    caustic_of_line,
    classify_caustic,
    tangent_directions,
)

# default closure tolerance on the dimensionless phase_distance
CLOSURE_RTOL = 1e-7


class MagicKind(Enum):
    """A magic map, by its CLI name; ``signs`` are its (x, y) sign factors."""

    IDENTITY = "identity", (1.0, 1.0)
    FLIP_LONG = "flip-long", (1.0, -1.0)
    FLIP_SHORT = "flip-short", (-1.0, 1.0)
    HALF_TURN = "half-turn", (-1.0, -1.0)

    def __new__(cls, value: str, signs: tuple[float, float]):
        kind = object.__new__(cls)
        kind._value_ = value
        # a plain attribute: _walk reads it once per walk, not per bounce
        kind.signs = signs
        return kind

    @property
    def orientation_reversing(self) -> bool:
        """True for the two axis flips, False for identity and half-turn."""
        sx, sy = self.signs
        return sx * sy < 0


@dataclass(frozen=True)
class TableSpec:
    """Table shape (ellipse, or annulus with a confocal inner wall) plus magic kind."""

    fam: ConfocalFamily
    outer_map: MagicKind = MagicKind.IDENTITY
    inner_lam: float | None = None

    def __post_init__(self):
        if self.inner_lam is not None and not (0.0 < self.inner_lam < self.fam.b):
            raise ValueError(
                f"inner wall parameter must lie in (0, b), got {self.inner_lam!r}"
            )

    @property
    def shape(self) -> str:
        return "ellipse" if self.inner_lam is None else "annulus"

    @property
    def label(self) -> str:
        return f"{self.shape}:{self.outer_map.value}"


@dataclass(frozen=True, slots=True)
class BoundaryPhase:
    """Impact point, outgoing unit velocity, and which wall carries it."""

    at: tuple[float, float]
    v: tuple[float, float]
    component: str = "outer"  # outer | inner


@dataclass(frozen=True, slots=True)
class Crossings:
    long_axis: int
    short_axis: int
    flips: int


@dataclass(frozen=True)
class Trajectory:
    """States 0..n and the wall points of bounces 0..n-1, as float columns.

    ``x, y, vx, vy`` and ``component`` describe the states: the impact
    point after magic, the outgoing velocity and the wall.  ``hx, hy``
    hold the wall point of each bounce before magic.  ``states`` and
    ``hits`` build the same data as ``BoundaryPhase`` objects and points
    when first read.
    """

    x: list[float]
    y: list[float]
    vx: list[float]
    vy: list[float]
    component: list[str]
    hx: list[float]
    hy: list[float]
    caustic: CausticId
    crossings: Crossings

    @cached_property
    def states(self) -> tuple[BoundaryPhase, ...]:
        return tuple(
            BoundaryPhase((x, y), (vx, vy), c)
            for x, y, vx, vy, c in zip(self.x, self.y, self.vx, self.vy, self.component)
        )

    @cached_property
    def hits(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.hx, self.hy))


@dataclass(frozen=True)
class ClosureReport:
    period: int
    residual: float
    winding: int | None


def _check_velocity(vx: float, vy: float) -> None:
    """ValueError unless (vx, vy) is finite and its square norm nonzero in floats."""
    if not 0.0 < vx * vx + vy * vy < math.inf:  # also rejects NaN
        raise ValueError(f"velocity {(vx, vy)} must be finite and nonzero")


def _start_wall(table: TableSpec, s: BoundaryPhase) -> float:
    """The parameter of the wall that carries s; ValueError for a bad label or velocity."""
    _check_velocity(*s.v)
    if s.component == "outer":
        return 0.0
    if s.component == "inner" and table.inner_lam is not None:
        return table.inner_lam
    raise ValueError(f"wall label {s.component!r} names no wall of the {table.shape} table")


def _walk(table: TableSpec, s: BoundaryPhase, n: int) -> list:
    """n bounces from s, as one flat list of floats and wall labels.

    The list holds state 0 as (x, y, vx, vy, component), then for each
    bounce the wall point before magic and the new state after it,
    (hx, hy, x, y, vx, vy, component).  So ``out[k::7]`` is a column for
    k = 0..6, in that order, and ``out[-5:]`` is the last state.

    A bounce takes the first forward hit of the outer wall or, on an
    annulus, of the inner wall, reflects classically, and applies the
    magic signs on the outer wall; the inner wall's signs are (1, 1),
    which leave every float as it is.  A hit must lie beyond
    ``HIT_TMIN_RTOL * sqrt(a)``, which lets a ray leave the wall point it
    sits on, and an inner-wall crossing whose normalized discriminant is
    below ``GRAZE_RTOL * a`` is a graze, counted as a miss.

    Raises
    ------
    NoForwardHit
        when a ray reaches neither wall.
    ValueError
        when the wall label of s names no wall of the table, or its
        velocity is zero or not finite.
    """
    _start_wall(table, s)
    fam = table.fam
    a, b, lam = fam.a, fam.b, table.inner_lam
    tmin = HIT_TMIN_RTOL * math.sqrt(a)
    outer = (a, b, 0.0, *table.outer_map.signs, "outer")
    if lam is not None:
        ai, bi, graze = a - lam, b - lam, GRAZE_RTOL * a
        inner = (ai, bi, lam, 1.0, 1.0, "inner")
    (x, y), (vx, vy) = s.at, s.v
    out = [x, y, vx, vy, s.component]
    for _ in range(n):
        t = _hit_time(a, b, tmin, 0.0, x, y, vx, vy)
        t_in = None if lam is None else _hit_time(ai, bi, tmin, graze, x, y, vx, vy)
        if t_in is not None and (t is None or t_in < t):
            t, wall = t_in, inner
        elif t is None:
            raise NoForwardHit(f"ray from {(x, y)} along {(vx, vy)} leaves the table")
        else:
            wall = outer
        aa, bb, wall_lam, mx, my, comp = wall
        hx, hy = x + t * vx, y + t * vy
        nx, ny = _inward_normal(aa, bb, hx, hy, wall_lam)
        d = vx * nx + vy * ny
        x, y = mx * hx, my * hy
        vx, vy = mx * (vx - 2.0 * d * nx), my * (vy - 2.0 * d * ny)
        out += (hx, hy, x, y, vx, vy, comp)
    return out


def step(table: TableSpec, s: BoundaryPhase) -> BoundaryPhase:
    """One bounce: propagate, reflect, and apply magic on the outer wall."""
    x, y, vx, vy, comp = _walk(table, s, 1)[-5:]
    return BoundaryPhase((x, y), (vx, vy), comp)


def step_inverse(table: TableSpec, s: BoundaryPhase) -> BoundaryPhase:
    """Previous state of ``s``: undoes magic, un-reflects, traces backward.

    Both the magic maps and classical reflection are involutions, so the
    inverse step undoes the magic signs, reflects at ``s`` and takes the
    wall point of one :func:`_walk` bounce along the reversed velocity.
    Round-trips with :func:`step` to ~1e-13.
    """
    fam = table.fam
    lam = _start_wall(table, s)
    (x, y), (vx, vy) = s.at, s.v
    if s.component == "outer":
        sx, sy = table.outer_map.signs
        x, y, vx, vy = sx * x, sy * y, sx * vx, sy * vy
    nx, ny = _inward_normal(fam.a - lam, fam.b - lam, x, y, lam)
    d = vx * nx + vy * ny
    vx, vy = vx - 2.0 * d * nx, vy - 2.0 * d * ny
    out = _walk(table, BoundaryPhase((x, y), (-vx, -vy), s.component), 1)
    return BoundaryPhase((out[5], out[6]), (vx, vy), out[-1])


def trajectory(table: TableSpec, s0: BoundaryPhase, n: int) -> Trajectory:
    """n steps from s0, with axis-crossing and flip counts per physical segment.

    A segment crosses the long axis when its endpoint y-signs differ
    strictly; touching the axis at an endpoint does not count.  Interior
    chords never meet the axes outside the table, so the sign test is
    complete.  Likewise for the short axis and the x-signs.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_velocity(*s0.v)
    caustic = caustic_of_line(table.fam, s0.at, s0.v)
    out = _walk(table, s0, n)
    x, y, vx, vy, comp, hx, hy = (out[k::7] for k in range(7))
    long_c = sum(1 for p, q in zip(y, hy) if p * q < 0.0)
    short_c = sum(1 for p, q in zip(x, hx) if p * q < 0.0)
    flips = 0 if table.outer_map is MagicKind.IDENTITY else comp[1:].count("outer")
    return Trajectory(x, y, vx, vy, comp, hx, hy, caustic, Crossings(long_c, short_c, flips))


def phase_distance(fam: ConfocalFamily, s1: BoundaryPhase, s2: BoundaryPhase) -> float:
    """Scale-free phase metric: |Δposition|/√a + angle between velocities.

    The angle uses atan2(|cross|, dot) rather than acos(dot): near zero
    the acos form amplifies roundoff by a square root and floors the
    metric at ~1e-8, which would mask genuine closures.
    """
    dx = s1.at[0] - s2.at[0]
    dy = s1.at[1] - s2.at[1]
    cross = s1.v[0] * s2.v[1] - s1.v[1] * s2.v[0]
    dot = s1.v[0] * s2.v[0] + s1.v[1] * s2.v[1]
    return math.hypot(dx, dy) / math.sqrt(fam.a) + math.atan2(abs(cross), dot)


def closure_defect(table: TableSpec, s0: BoundaryPhase, n: int) -> float:
    """Phase distance between state n and state 0 (no minimality search)."""
    if n < 1:
        raise ValueError("need n >= 1")
    x, y, vx, vy, _ = _walk(table, s0, n)[-5:]
    return phase_distance(table.fam, BoundaryPhase((x, y), (vx, vy)), s0)


def detect_closure(table: TableSpec, s0: BoundaryPhase, n_max: int) -> ClosureReport | None:
    """Smallest period n <= n_max with phase distance to s0 below ``CLOSURE_RTOL``.

    The winding number (signed circulations around the center) is
    reported only for ellipse-caustic trajectories, as the rounded sum
    of wrapped polar-angle increments of the impact points; None when
    the rounding is ambiguous (error >= 0.01 turns) or the caustic is
    not an ellipse.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    _check_velocity(*s0.v)
    caustic = caustic_of_line(table.fam, s0.at, s0.v)
    theta0 = math.atan2(s0.at[1], s0.at[0])
    total = 0.0
    prev = theta0
    s = s0
    for n in range(1, n_max + 1):
        s = step(table, s)
        th = math.atan2(s.at[1], s.at[0])
        total += math.remainder(th - prev, 2.0 * math.pi)
        prev = th
        d = phase_distance(table.fam, s, s0)
        if d < CLOSURE_RTOL:
            winding = None
            if caustic.kind == "ellipse":
                turns = total / (2.0 * math.pi)
                if abs(turns - round(turns)) < 0.01:
                    winding = int(round(turns))
            return ClosureReport(n, d, winding)
    return None


def tangent_phase(fam: ConfocalFamily, beta: float) -> BoundaryPhase | None:
    """A deterministic outer-wall phase whose line is tangent to C_beta, or None.

    Scans t = 0.83 + 0.031 k, k < 200, and returns the first boundary
    point with a tangent line to C_beta, along the first of
    ``tangent_directions``: hyperbola caustics are tangent only to lines
    from part of the wall.
    """
    for k in range(200):
        p = fam.boundary_point(0.83 + 0.031 * k)
        dirs = tangent_directions(fam, beta, p)
        if dirs:
            return BoundaryPhase(p, dirs[0])
    return None


# ---------------------------------------------------------------------------
# caustic levels in closed form
#
# On a regular caustic level the motion is a translation on an elliptic
# curve (Chang & Friedberg 1988; Dragovic & Radnovic, "Poncelet Porisms
# and Beyond", 2011).  In the Jacobi phase u of the outer wall a bounce
# adds a constant to u and each magic map is u -> +-u + 2K j, so every
# impact point has a closed form.  Each modulus below comes with
# m1 = 1 - m taken from (a, b, beta) directly, which keeps levels next
# to the focal one (m -> 1) at full precision.


class DegenerateLevel(ValueError):
    """The requested caustic level is singular (or empty for this table)."""


def _check_level(table: TableSpec, beta: float) -> None:
    """Raise unless beta is a regular caustic level that carries orbits of the table."""
    fam = table.fam
    if not (0.0 < beta < fam.a):
        raise ValueError(f"caustic parameter {beta} outside (0, {fam.a})")
    if classify_caustic(fam, beta).kind.startswith("degenerate"):
        raise DegenerateLevel(f"beta={beta} is a singular level")
    if table.inner_lam is not None and table.inner_lam - DEGENERATE_RTOL * fam.a <= beta < fam.b:
        raise DegenerateLevel(
            f"beta={beta}: ellipse caustics inside the inner wall carry no annulus trajectories"
        )


def _caustic_modulus(a: float, b: float, beta: float) -> tuple[float, float, float]:
    """(phi, m, m1) of the level beta: rotation number F(phi|m) / 2K(m), m1 = 1 - m."""
    if beta < b:
        return math.asin(math.sqrt(beta / b)), (a - b) / (a - beta), (b - beta) / (a - beta)
    return math.asin(math.sqrt(b / beta)), (a - beta) / (a - b), (beta - b) / (a - b)


def _agm(m: float, m1: float) -> tuple[list[float], list[float], list[float]]:
    """The descending AGM a_n, b_n, c_n of the modulus m, n = 0..N (DLMF 19.8.1).

    a_0 = 1, b_0 = sqrt(m1), c_0 = sqrt(m), and c_{n+1} = c_n² / 4 a_{n+1}
    is (a_n - b_n) / 2 without its cancellation; N is the first n with
    c_n <= 1e-17 a_n.  K(m) = pi / (2 a_N).
    """
    a, b, c = [1.0], [math.sqrt(m1)], [math.sqrt(m)]
    while c[-1] > 1e-17 * a[-1]:
        a.append(0.5 * (a[-1] + b[-1]))
        b.append(math.sqrt(a[-2] * b[-1]))
        c.append(0.25 * c[-1] * c[-1] / a[-1])
    return a, b, c


def _ellipf(phi: float, a: list[float], b: list[float]) -> float:
    """F(phi | m) for any real phi from the AGM a, b of m, by Landen steps with phase.

    tan(phi_{n+1} - phi_n) = (b_n / a_n) tan phi_n, on the branch where
    phi_{n+1} is about 2 phi_n, and F = phi_N / (2^N a_N) (DLMF 19.8).
    The atan2 form below has a positive denominator, so it needs no sign
    of tan phi_n, which is roundoff where phi_n lands on an odd multiple of pi/2.
    """
    for an, bn in zip(a[:-1], b[:-1]):
        s, c = math.sin(phi), math.cos(phi)
        phi = 2.0 * phi - math.atan2((an - bn) * s * c, an * c * c + bn * s * s)
    return phi / (2.0 ** (len(a) - 1) * a[-1])


def _annulus_advance(a: float, b: float, beta: float, lam: float, an, bn) -> float:
    """F(phi_l | m) - F(phi_0 | m), tan phi_l = sqrt((a - b) / (b - lam)), on level beta > b.

    By DLMF 19.25.5 that is sqrt(a - b) (R_F(x, y, z) - R_F(b, beta, a)),
    (x, y, z) = (b, beta, a) - lam.  Carlson's addition theorem (DLMF
    19.26(ii)) makes it sqrt(a - b) R_F(x + mu, y + mu, z + mu), one
    F(psi | m) free of cancellation as lam -> 0, where mu > 0 solves
    (lam mu - S)² = 4 P (lam + mu + x + y + z), S = xy + yz + zx, P = xyz.
    """
    x, y, z = b - lam, beta - lam, a - lam
    p = x * y * z
    mu = (lam * (x * y + y * z + z * x) + 2.0 * (p + math.sqrt(p * a * b * beta))) / (lam * lam)
    return _ellipf(math.atan2(math.sqrt(a - b), math.sqrt(x + mu)), an, bn)


def _jacobi(u: np.ndarray, m: float, m1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sn, cn, dn)(u | m) by the descending AGM (Landen) scheme.

    m and m1 = 1 - m are the level's modulus.  u is first reduced
    modulo 4K = 2 pi / a_N, with a_N from the same AGM, so the error
    stays at roundoff for any |u|.  dn is :func:`_dn` of sn and cn.
    """
    a, _, c = _agm(m, m1)
    period = 2.0 * math.pi / a[-1]
    phi = (2.0 ** (len(a) - 1) * a[-1]) * (u - period * np.round(u / period))
    for an, cn in zip(a[:0:-1], c[:0:-1]):
        phi = 0.5 * (phi + np.arcsin(cn / an * np.sin(phi)))
    sn, cn = np.sin(phi), np.cos(phi)
    return sn, cn, _dn(sn, cn, m1)


def _dn(sn: np.ndarray, cn: np.ndarray, m1: float) -> np.ndarray:
    """dn from sn and cn as sqrt(cn² + m1 sn²), accurate as m -> 1 where 1 - m sn² cancels."""
    return np.sqrt(cn * cn + m1 * sn * sn)


def _jacobi_steps(u0: np.ndarray, h: float, steps: int, m, m1):
    """(sn, cn)(u0 + k h | m) for k = 1..steps, by the addition theorem.

    u0 is a column with one row per orbit, and h, m and m1 the level's
    advance and modulus.  With B = ceil(sqrt(steps + 1)), k = g B + j
    splits each phase into a baby step u0 + j h, j < B, and a giant step
    g (B h), and :func:`_jacobi` evaluates each table once, the giant
    steps once for all orbits.  The addition theorem (DLMF 22.8.1-2)
    joins them, its denominator 1 - m sn1² sn2² written as
    dn1² + m sn1² cn2², a sum of non-negative terms that does not cancel
    as m -> 1.  Where both terms are small the quotient still loses
    about 1e-16 / sqrt(m1): some 4e-12 at m1 = 1e-9, the smallest m1 of
    a regular level (see ``DEGENERATE_RTOL``), and 2e-10 at m1 = 1e-12.
    dn, where a level reads it, is :func:`_dn` of the two.

    Returns a function of a row slice that gives those rows as
    (rows, steps) arrays.  The tables are built once for every row, and
    the join is elementwise, so a row's values do not depend on the slice.
    """
    baby = math.isqrt(steps) + 1  # ceil(sqrt(steps + 1))
    giant = -(-(steps + 1) // baby)
    s1, c1, d1 = _jacobi(u0 + np.arange(baby) * h, m, m1)
    s2, c2, d2 = _jacobi(np.arange(giant) * (baby * h), m, m1)
    # the factors of each term: baby steps run along the last axis and
    # giant steps along the middle one, so k = g B + j reads row-major
    by_baby = (s1, c1 * d1, c1, s1 * d1, d1 * d1, m * s1 * s1)
    c2d2, s2, c2, s2d2, c2c2 = (t[:, None] for t in (c2 * d2, s2, c2, s2 * d2, c2 * c2))

    def at(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        s1, c1d1, c1, s1d1, d1d1, ms1s1 = (t[rows, None, :] for t in by_baby)
        den = d1d1 + ms1s1 * c2c2
        return tuple((num / den).reshape(len(den), -1)[:, 1:steps + 1] for num in (
            s1 * c2d2 + c1d1 * s2, c1 * c2 - s1d1 * s2d2
        ))

    return at


def _twin(ellipse: bool, t: float, sign: float) -> tuple[float, tuple[float, float]]:
    """The branch +1 twin of the seed (t, sign), and the (x, y) signs that mirror its orbit.

    Bit for bit, as rounding is symmetric about zero: on an ellipse level
    (t, -1) is (-t, +1) reflected in the short axis, sn being odd in u and
    cn even, and on a hyperbola level (t, +1) reflected in the long axis.
    """
    if sign > 0.0:
        return t, (1.0, 1.0)
    return (-t, (-1.0, 1.0)) if ellipse else (t, (1.0, -1.0))


def _level_grid(table: TableSpec, beta: float, turns: list[float], steps: int):
    """The per-level set-up of :func:`level_orbits`, for seeds at branch +1 phases ``turns``.

    Returns the seeds' impact points ``(x0, y0)``, as columns, and a
    function of a row slice of ``turns`` that gives those seeds'
    ``(x, y, qx, qy, inner)``, as :func:`level_orbits` does.
    """
    fam = table.fam
    a, b, lam = fam.a, fam.b, table.inner_lam
    sa, sb = math.sqrt(a), math.sqrt(b)
    sx, sy = table.outer_map.signs
    phi, m, m1 = _caustic_modulus(a, b, beta)
    an, bn, _ = _agm(m, m1)
    u0 = (2.0 * math.pi / an[-1]) * np.array(turns)[:, None]  # 4K(m) t, _jacobi's 4K
    # A seed (u0, h) puts impact k at phase u0 + k h before magic; the
    # maps' u -> -u flips the sign of sn, and u -> u + 2K those of sn and cn.
    if beta < b:
        h = 2.0 * _ellipf(phi, an, bn)

        def impacts(sn, cn, k):
            # after an odd number of bounces the flips have sent u to -u
            # and flip-long and half-turn have added 2K: the point changes
            # sign as the map's (sx, sy)
            odd = k % 2 == 1
            x = -sa * np.where(odd, sx, 1.0) * sn
            return x, sb * np.where(odd, sy, 1.0) * cn, np.zeros(k.shape, dtype=bool)

    else:
        root_m = math.sqrt(m)
        if lam is None:
            h, turn = 2.0 * _ellipf(phi, an, bn), -sy
            ax, ay = sa, sb
        else:
            h, turn = _annulus_advance(a, b, beta, lam, an, bn), sy
            ax, ay = math.sqrt(a - lam), math.sqrt(b - lam)

        def impacts(sn, cn, k):
            # after an odd number of outer hits flip-short and half-turn
            # have added 2K to u (x changes sign as sx) and the branch
            # has turned
            odd = (k if lam is None else k // 2) % 2 == 1
            inner = (k % 2 == 1) & (lam is not None)
            x = np.where(inner, ax, sa) * np.where(odd, sx, 1.0) * root_m * sn
            y = np.where(inner, ay, sb) * np.where(odd, turn, 1.0) * _dn(sn, cn, m1)
            return x, y, inner

    x0, y0, _ = impacts(*_jacobi(u0, m, m1)[:2], np.zeros((1, 1), dtype=int))
    tables = _jacobi_steps(u0, h, steps, m, m1)
    k = np.arange(1, steps + 1)[None, :]

    def grid(rows: slice):
        x, y, inner = impacts(*tables(rows), k)
        qx, qy = np.where(inner, 1.0, sx) * x, np.where(inner, 1.0, sy) * y
        return x, y, qx, qy, np.broadcast_to(inner, x.shape)

    return (x0, y0), grid


def level_orbits(
    table: TableSpec, beta: float, phases: list[tuple[float, float]], steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Impacts 1..steps of each seed's orbit on the caustic level beta, in closed form.

    A seed is given by its phase ``(t, sign)`` on the level: t is its
    Jacobi phase u of the outer wall in turns, u = 4K t, and sign picks
    the branch.  Returns ``(x, y, qx, qy, inner)``, arrays of shape
    (len(phases), steps): the impact points after magic, the wall points
    before it, and which impacts lie on the inner wall.  They agree with
    repeated :func:`step` from the seed's state to roundoff.  With
    k = sqrt(m) and (phi, m) as for the rotation number:

    * ellipse caustic: the point is (-sqrt(a) sn u, sqrt(b) cn u).  A
      bounce adds sigma d to u, d = 2F(phi|m), sigma = sign the winding
      sense (+1 counter-clockwise).  Flip-short maps (u, sigma) to
      (-u, -sigma), flip-long to (-u - 2K, -sigma), half-turn to
      (u + 2K, sigma).  These orbits never reach an inner wall.
    * hyperbola caustic: the point is (sqrt(a) k sn u, s sqrt(b) dn u),
      s = sign.  The point reaches just the wall arcs whose lines touch
      C_beta, each twice per turn: u and 2K - u are its two tangents.  On
      the ellipse table a bounce maps (u, s) to (u + d, -s).  On an
      annulus every chord crosses the focal segment, so the walls
      alternate; each step adds F(phi_l|m) - F(phi_0|m) to u, l the
      inner wall and tan phi_l = sqrt((a-b)/(b-l)), whose points are the
      same expression in a - l and b - l.  Flip-short adds 2K to u and
      flip-long flips s, on outer hits only.

    So impact k is a point at phase u0 + k h, with its signs set by the
    magic maps: -u and +2K act on sn, cn and dn as exact sign changes.
    Every seed lies on beta exactly, so the modulus and the advance are
    set up once for the level, and the phases u0 + k h come from a table
    of about 2 sqrt(steps) Jacobi values per seed by the addition theorem
    (:func:`_jacobi_steps`).  Only branch +1 runs: a branch -1 row is the
    mirror image of its :func:`_twin`'s.

    Raises
    ------
    ValueError
        when steps < 1, there are no seeds, a phase has a t that is not
        finite or a sign other than +-1, or beta is not a regular
        level of the table (:class:`DegenerateLevel` near {0, b, a} or
        inside an annulus' inner wall).
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    if len(phases) == 0:
        raise ValueError("need at least one seed")
    for t, sign in phases:
        if not (math.isfinite(t) and sign in (1.0, -1.0)):
            raise ValueError(f"seed phase {(t, sign)} needs a finite t and a sign of +1 or -1")
    _check_level(table, beta)
    twins, signs = zip(*(_twin(beta < table.fam.b, t, sign) for t, sign in phases))
    x, y, qx, qy, inner = _level_grid(table, beta, twins, steps)[1](slice(None))
    fx, fy = np.array(signs).T[:, :, None]
    return fx * x, fy * y, fx * qx, fy * qy, inner
