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

``step`` advances one state and is the reference; ``step_batch`` applies
the same map to N states held in numpy arrays, for callers that bounce
many seeds together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    CausticId,
    ConfocalFamily,
    GRAZE_RTOL,
    HIT_TMIN_RTOL,
    NoForwardHit,
    NotOnConic,
    _first_hit_time,
    caustic_of_line,
    normal_at,
    tangent_directions,
)

# default closure tolerance, times sqrt(a)
CLOSURE_RTOL = 1e-7


class MagicKind(Enum):
    IDENTITY = "identity"
    FLIP_LONG = "flip-long"
    FLIP_SHORT = "flip-short"
    HALF_TURN = "half-turn"

    @property
    def signs(self) -> tuple[float, float]:
        return _MAGIC_SIGNS[self]

    @property
    def orientation_reversing(self) -> bool:
        """True for the two axis flips, False for identity and half-turn."""
        sx, sy = self.signs
        return sx * sy < 0


_MAGIC_SIGNS = {
    MagicKind.IDENTITY: (1.0, 1.0),
    MagicKind.FLIP_LONG: (1.0, -1.0),
    MagicKind.FLIP_SHORT: (-1.0, 1.0),
    MagicKind.HALF_TURN: (-1.0, -1.0),
}


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


@dataclass(frozen=True)
class BoundaryPhase:
    """Impact point, outgoing unit velocity, and which wall carries it."""

    at: tuple[float, float]
    v: tuple[float, float]
    component: str = "outer"  # outer | inner


@dataclass(frozen=True)
class Crossings:
    long_axis: int
    short_axis: int
    flips: int


@dataclass(frozen=True)
class Trajectory:
    """States 0..n, plus ``hits[i]``: the wall point of bounce i before magic."""

    states: tuple[BoundaryPhase, ...]
    caustic: CausticId
    crossings: Crossings
    hits: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ClosureReport:
    period: int
    residual: float
    winding: int | None


def apply_magic(
    kind: MagicKind, p: tuple[float, float], v: tuple[float, float]
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The boundary involution phi and its velocity companion phi*."""
    sx, sy = kind.signs
    return (sx * p[0], sy * p[1]), (sx * v[0], sy * v[1])


def reflect_standard(
    fam: ConfocalFamily,
    lam: float,
    p: tuple[float, float],
    v_in: tuple[float, float],
) -> tuple[float, float]:
    """Classical reflection v - 2(v.n)n at a point of C_lam.

    The sign of the normal cancels, so the same formula serves the outer
    and inner walls.
    """
    nx, ny = normal_at(fam, lam, p)
    d = v_in[0] * nx + v_in[1] * ny
    return v_in[0] - 2.0 * d * nx, v_in[1] - 2.0 * d * ny


def _propagate(
    table: TableSpec, s: BoundaryPhase
) -> tuple[tuple[float, float], tuple[float, float], str]:
    """Ray to first wall hit; returns (hit point, reflected velocity, component).

    Magic is *not* applied here; callers that need the physical segment
    endpoint (pre-magic) use this directly.
    """
    fam = table.fam
    t_outer = _first_hit_time(fam, 0.0, s.at, s.v)
    t_inner = None
    if table.inner_lam is not None:
        t_inner = _first_hit_time(fam, table.inner_lam, s.at, s.v, graze=True)
    if t_outer is None and t_inner is None:
        raise NoForwardHit(f"ray from {s.at} along {s.v} leaves the table")
    if t_inner is not None and (t_outer is None or t_inner < t_outer):
        t, lam, comp = t_inner, table.inner_lam, "inner"
    else:
        t, lam, comp = t_outer, 0.0, "outer"
    hit = (s.at[0] + t * s.v[0], s.at[1] + t * s.v[1])
    v_out = reflect_standard(fam, lam, hit, s.v)
    return hit, v_out, comp


def step(table: TableSpec, s: BoundaryPhase) -> BoundaryPhase:
    """One bounce: propagate, reflect, and apply magic on the outer wall."""
    hit, v_out, comp = _propagate(table, s)
    if comp == "outer":
        hit, v_out = apply_magic(table.outer_map, hit, v_out)
    return BoundaryPhase(hit, v_out, comp)


def _hit_times(
    fam: ConfocalFamily,
    walls: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
) -> np.ndarray:
    """:func:`geometry._first_hit_time` for N rays against W walls at once.

    ``walls`` is a (W, 1) column of wall parameters: the outer wall 0.0,
    then, on an annulus, the inner wall, where a graze counts as a miss.
    Returns the (W, N) hit times, with ``inf`` for a miss.
    """
    aa = fam.a - walls
    bb = fam.b - walls
    alpha = vx * vx / aa + vy * vy / bb
    gamma = (x * vx) / aa + (y * vy) / bb
    delta = x * x / aa + y * y / bb - 1.0
    disc = gamma * gamma - alpha * delta
    hit = disc >= 0.0
    if len(walls) > 1:
        hit[1:] &= disc[1:] / (alpha[1:] * alpha[1:]) >= GRAZE_RTOL * fam.a
    q = -(gamma + np.copysign(np.sqrt(np.maximum(disc, 0.0)), gamma))
    delta = (gamma * gamma - disc) / alpha
    t1 = q / alpha
    t2 = np.divide(delta, q, out=np.full_like(q, -np.inf), where=np.abs(q) > 1e-300)
    tmin = HIT_TMIN_RTOL * math.sqrt(fam.a)
    t = np.minimum(np.where(t1 > tmin, t1, np.inf), np.where(t2 > tmin, t2, np.inf))
    return np.where(hit, t, np.inf)


def step_batch(
    table: TableSpec,
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bounce of N states at once: :func:`step` on arrays of shape (N,).

    Takes impact points and outgoing unit velocities and returns the next
    ``(x, y, vx, vy, inner)``, where ``inner`` marks the states now on
    the inner wall.  Like ``step`` it does not need the current wall.
    It keeps every check of the scalar step, in its operation order: the
    ``HIT_TMIN_RTOL`` advance, a graze of the inner wall counted as a
    miss, NoForwardHit when any ray leaves the table, and NotOnConic
    when any hit misses its wall by more than 1e-8.  The scalar ``step``
    stays the reference; the two agree seed by seed to roundoff.
    """
    fam = table.fam
    if table.inner_lam is None:
        t = _hit_times(fam, np.zeros((1, 1)), x, y, vx, vy)[0]
        inner = np.zeros(t.shape, dtype=bool)
        lam = 0.0
    else:
        t, t_in = _hit_times(fam, np.array([[0.0], [table.inner_lam]]), x, y, vx, vy)
        inner = t_in < t
        t = np.where(inner, t_in, t)
        lam = np.where(inner, table.inner_lam, 0.0)
    lost = ~np.isfinite(t)
    if lost.any():
        k = int(np.argmax(lost))
        raise NoForwardHit(
            f"ray from {(float(x[k]), float(y[k]))} along "
            f"{(float(vx[k]), float(vy[k]))} leaves the table"
        )
    hx = x + t * vx
    hy = y + t * vy
    # reflect_standard and its normal_at, on every hit at once
    aa = fam.a - lam
    bb = fam.b - lam
    off = np.abs(hx * hx / aa + hy * hy / bb - 1.0) > 1e-8
    if off.any():
        k = int(np.argmax(off))
        raise NotOnConic(f"{(float(hx[k]), float(hy[k]))} is not on its wall")
    gx = hx / aa
    gy = hy / bb
    h = np.hypot(gx, gy)
    nx = -gx / h
    ny = -gy / h
    d = vx * nx + vy * ny
    ux = vx - 2.0 * d * nx
    uy = vy - 2.0 * d * ny
    if table.outer_map is not MagicKind.IDENTITY:
        sx, sy = table.outer_map.signs
        mx = np.where(inner, 1.0, sx)
        my = np.where(inner, 1.0, sy)
        hx, hy, ux, uy = mx * hx, my * hy, mx * ux, my * uy
    return hx, hy, ux, uy, inner


def step_inverse(table: TableSpec, s: BoundaryPhase) -> BoundaryPhase:
    """Previous state of ``s``: undoes magic, un-reflects, traces backward.

    Both the magic maps and classical reflection are involutions, so the
    inverse step reuses the forward building blocks.  Round-trips with
    :func:`step` to ~1e-13.
    """
    fam = table.fam
    p, v = s.at, s.v
    if s.component == "outer":
        p, v = apply_magic(table.outer_map, p, v)
        lam = 0.0
    else:
        lam = table.inner_lam
    v_in = reflect_standard(fam, lam, p, v)
    back = BoundaryPhase(p, (-v_in[0], -v_in[1]), s.component)
    fam_hit, _, comp = _propagate(table, back)
    return BoundaryPhase(fam_hit, v_in, comp)


def _axis_crossings(
    p0: tuple[float, float], p1: tuple[float, float]
) -> tuple[int, int]:
    """(long, short) axis crossings of the open segment p0 -> p1.

    A segment crosses the long axis when its endpoint y-signs differ
    strictly; touching the axis at an endpoint does not count.  Interior
    chords never meet the axes outside the table, so the sign test is
    complete.
    """
    long_c = 1 if p0[1] * p1[1] < 0.0 else 0
    short_c = 1 if p0[0] * p1[0] < 0.0 else 0
    return long_c, short_c


def trajectory(table: TableSpec, s0: BoundaryPhase, n: int) -> Trajectory:
    """n steps from s0, with axis-crossing and flip counts per physical segment."""
    if n < 1:
        raise ValueError("need n >= 1")
    caustic = caustic_of_line(table.fam, s0.at, s0.v)
    states = [s0]
    hits = []
    long_c = short_c = flips = 0
    s = s0
    for _ in range(n):
        hit, v_out, comp = _propagate(table, s)
        hits.append(hit)
        dl, ds = _axis_crossings(s.at, hit)
        long_c += dl
        short_c += ds
        if comp == "outer":
            if table.outer_map is not MagicKind.IDENTITY:
                flips += 1
            hit, v_out = apply_magic(table.outer_map, hit, v_out)
        s = BoundaryPhase(hit, v_out, comp)
        states.append(s)
    return Trajectory(
        tuple(states), caustic, Crossings(long_c, short_c, flips), tuple(hits)
    )


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
    s = s0
    for _ in range(n):
        s = step(table, s)
    return phase_distance(table.fam, s, s0)


def detect_closure(
    table: TableSpec,
    s0: BoundaryPhase,
    n_max: int,
    tol: float | None = None,
) -> ClosureReport | None:
    """Smallest period n <= n_max with phase distance to s0 below tol.

    The winding number (signed circulations around the center) is
    reported only for ellipse-caustic trajectories, as the rounded sum
    of wrapped polar-angle increments of the impact points; None when
    the rounding is ambiguous (error >= 0.01 turns) or the caustic is
    not an ellipse.
    """
    if tol is None:
        tol = CLOSURE_RTOL * math.sqrt(table.fam.a)
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
        if d < tol:
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


def phase_at(
    table: TableSpec, t: float, direction: tuple[float, float]
) -> BoundaryPhase:
    """Convenience: outer-boundary phase at parameter t with a given direction."""
    p = table.fam.boundary_point(t)
    h = math.hypot(*direction)
    return BoundaryPhase(p, (direction[0] / h, direction[1] / h), "outer")
