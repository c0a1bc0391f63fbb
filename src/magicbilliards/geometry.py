"""Planar geometry of an ellipse and its confocal family.

Conventions used throughout the package: the boundary ellipse is

    x**2 / a + y**2 / b = 1,        a > b > 0,

with *squared* semi-axes ``a`` and ``b`` (so the physical semi-axes are
``sqrt(a)`` and ``sqrt(b)``).  The confocal family is

    C_lam :  x**2 / (a - lam) + y**2 / (b - lam) = 1,

an ellipse for ``0 < lam < b``, a hyperbola for ``b < lam < a``, and
degenerate at ``lam in {0, b, a}`` (the boundary itself, the focal
segment, and the short axis).  The foci sit at ``(+-sqrt(a - b), 0)``.

All functions are pure and operate on plain floats/tuples, except the
array forms ``elliptic_columns`` and ``caustic_column``, which apply the
scalar formulas elementwise to numpy columns; nothing here owns mutable
state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |lam - {0, b, a}| < DEGENERATE_RTOL * a classifies a caustic as degenerate.
DEGENERATE_RTOL = 1e-9
# |v_x| below this routes a line to the vertical-line caustic branch.
VERTICAL_VX = 1e-10
# minimum advance (times sqrt(a)) for a ray to leave its current wall point
HIT_TMIN_RTOL = 1e-10
# inner-wall discriminant (normalized by alpha**2) below this times a => graze,
# resolved as a miss so the step map stays total
GRAZE_RTOL = 1e-12


class CenterDegenerate(ValueError):
    """Elliptic coordinates are undefined at the center of the family."""


class NoForwardHit(RuntimeError):
    """The forward ray does not reach the requested conic."""


class NotOnConic(ValueError):
    """A point expected to lie on a conic does not satisfy its equation."""


@dataclass(frozen=True)
class ConfocalFamily:
    """A confocal family fixed by the squared semi-axes of its boundary ellipse."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > self.b > 0.0):
            raise ValueError(f"need finite a > b > 0, got a={self.a!r}, b={self.b!r}")

    @property
    def focal_distance(self) -> float:
        return math.sqrt(self.a - self.b)

    def foci(self) -> tuple[tuple[float, float], tuple[float, float]]:
        c = self.focal_distance
        return (c, 0.0), (-c, 0.0)

    def boundary_point(self, t: float) -> tuple[float, float]:
        """Point (sqrt(a) cos t, sqrt(b) sin t) on the boundary ellipse."""
        return math.sqrt(self.a) * math.cos(t), math.sqrt(self.b) * math.sin(t)

    def conic_residual(self, lam: float, x: float, y: float) -> float:
        """Signed defect of x²/(a−λ) + y²/(b−λ) − 1 (relative units)."""
        return x * x / (self.a - lam) + y * y / (self.b - lam) - 1.0


@dataclass(frozen=True, slots=True)
class CausticId:
    """A member of the confocal family, tagged by its geometric kind."""

    lam: float
    kind: str  # ellipse | hyperbola | degenerate-boundary | degenerate-focal
    #          | degenerate-short-axis


@dataclass(frozen=True, slots=True)
class EllipticCoords:
    """Elliptic coordinates: lam1 on the ellipse sheet, lam2 on the hyperbola sheet."""

    lam1: float
    lam2: float


def classify_caustic(fam: ConfocalFamily, lam: float) -> CausticId:
    """Attach the kind tag to a family parameter ``lam``.

    Degeneracy wins over the open intervals: anything within
    ``DEGENERATE_RTOL * a`` of {0, b, a} is reported degenerate.
    """
    tol = DEGENERATE_RTOL * fam.a
    if abs(lam) < tol:
        return CausticId(lam, "degenerate-boundary")
    if abs(lam - fam.b) < tol:
        return CausticId(lam, "degenerate-focal")
    if abs(lam - fam.a) < tol:
        return CausticId(lam, "degenerate-short-axis")
    if 0.0 < lam < fam.b:
        return CausticId(lam, "ellipse")
    if fam.b < lam < fam.a:
        return CausticId(lam, "hyperbola")
    raise ValueError(f"caustic parameter {lam} outside [0, a={fam.a}]")


def to_elliptic(fam: ConfocalFamily, p: tuple[float, float]) -> EllipticCoords:
    """Elliptic coordinates of a point.

    (lam1, lam2) are the two roots of
    ``x²/(a−λ) + y²/(b−λ) = 1`` through ``p``, i.e. of

        λ² − Sλ + P = 0,  S = a + b − x² − y²,  P = ab − b x² − a y²,

    sorted so that ``0 ≤ lam1 ≤ b ≤ lam2 ≤ a``.  Its array form, for many
    points at once, is :func:`elliptic_columns`.

    Raises
    ------
    CenterDegenerate
        at the center, where the hyperbola sheet is undefined.
    """
    lam1, lam2 = elliptic_columns(fam, p[0], p[1])
    return EllipticCoords(float(lam1), float(lam2))


def elliptic_columns(fam: ConfocalFamily, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(lam1, lam2) of :func:`to_elliptic` for arrays of points, elementwise.

    numpy's + − × ÷ and sqrt round correctly, and the operations run in
    the scalar order, so every entry is the scalar result bit for bit.
    Clamps use ``where`` so that ties and NaN keep the scalar choice.

    Raises
    ------
    CenterDegenerate
        if any point is at the center.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.hypot(x, y) < 1e-12):
        raise CenterDegenerate("elliptic coordinates are singular at the origin")
    s = fam.a + fam.b - x * x - y * y
    prod = fam.a * fam.b - fam.b * x * x - fam.a * y * y
    disc = s * s - 4.0 * prod
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    lam2 = 0.5 * (s + root)
    # stable small root: product of roots / large root when possible
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = np.where(np.abs(lam2) > 1e-300, prod / lam2, 0.5 * (s - root))
    # clamp roundoff into the nominal ranges
    lam1 = np.where(lam1 < 0.0, 0.0, lam1)
    lam1 = np.where(lam1 > fam.b, fam.b, lam1)
    lam2 = np.where(lam2 < fam.b, fam.b, lam2)
    lam2 = np.where(lam2 > fam.a, fam.a, lam2)
    return lam1, lam2


def caustic_of_line(
    fam: ConfocalFamily, p: tuple[float, float], v: tuple[float, float]
) -> CausticId:
    """The confocal conic tangent to the line through ``p`` with direction ``v``.

    For a non-vertical line y = kx + m the tangency condition
    m² = (a−λ)k² + (b−λ) gives λ = (a k² + b − m²)/(k² + 1).  Near-vertical
    directions (|v_x| < ``VERTICAL_VX``), where the slope blows up, take
    the normal form c² = (a−λ)v_y² + (b−λ)v_x² with c = x v_y − y v_x; for
    a vertical unit direction it is a − x², bit for bit.
    """
    x, y = p
    vx, vy = v
    if abs(vx) < VERTICAL_VX:
        c = x * vy - y * vx
        lam = (fam.a * vy * vy + fam.b * vx * vx - c * c) / (vx * vx + vy * vy)
    else:
        k = vy / vx
        m = y - k * x
        lam = (fam.a * k * k + fam.b - m * m) / (k * k + 1.0)
    return classify_caustic(fam, lam)


def caustic_column(fam: ConfocalFamily, x, y, vx, vy) -> np.ndarray:
    """The parameter of :func:`caustic_of_line` for arrays of lines, elementwise.

    The same operations in the same order as the scalar form, so every
    entry is its ``lam`` bit for bit.

    Raises
    ------
    ValueError
        from :func:`classify_caustic`, for the first line whose caustic it
        rejects.
    """
    x, y, vx, vy = (np.asarray(c, dtype=float) for c in (x, y, vx, vy))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = vy / vx
        m = y - k * x
        c = x * vy - y * vx
        lam = np.where(
            np.abs(vx) < VERTICAL_VX,
            (fam.a * vy * vy + fam.b * vx * vx - c * c) / (vx * vx + vy * vy),
            (fam.a * k * k + fam.b - m * m) / (k * k + 1.0),
        )
    # classify_caustic accepts every lam in (0, a); it judges the rest
    for v in lam[~((0.0 < lam) & (lam < fam.a))].tolist():
        classify_caustic(fam, v)
    return lam


def _hit_time(
    aa: float, bb: float, tmin: float, graze_tol: float, x: float, y: float, vx: float, vy: float
) -> float | None:
    """Smallest time t > tmin along (x, y) + t (vx, vy) to reach C_lam, or None.

    The intersection times solve alpha t² + 2 gamma t + delta = 0 with

        alpha = vx²/A + vy²/B,  gamma = (x vx)/A + (y vy)/B,
        delta = x²/A + y²/B − 1,        A = aa = a−λ, B = bb = b−λ.

    The quadratic is solved in the cancellation-safe form t = q/alpha,
    delta/q.  A nonzero ``graze_tol`` treats a near-tangent crossing —
    normalized discriminant disc/alpha² below it — as a miss.
    """
    alpha = vx * vx / aa + vy * vy / bb
    gamma = (x * vx) / aa + (y * vy) / bb
    delta = x * x / aa + y * y / bb - 1.0
    disc = gamma * gamma - alpha * delta
    if disc < 0.0:
        return None
    if graze_tol and disc / (alpha * alpha) < graze_tol:
        return None
    sq = math.sqrt(disc)
    q = -(gamma + sq) if gamma >= 0.0 else -(gamma - sq)
    # delta is taken back from disc: trajectories, and the files the CLI
    # writes from them, are pinned to the rounding this gives
    delta = (gamma * gamma - disc) / alpha
    t = q / alpha
    best = t if t > tmin else None
    if abs(q) > 1e-300:
        t = delta / q
        if t > tmin and (best is None or t < best):
            best = t
    return best


def _inward_normal(aa: float, bb: float, x: float, y: float, lam: float) -> tuple[float, float]:
    """Unit normal −∇/|∇| of C_lam at (x, y), ``aa = a − λ``, ``bb = b − λ``.

    The float core of :func:`normal_at`; ``lam`` only names the conic in
    the NotOnConic error, raised off the conic by more than 1e-8.
    """
    if abs(x * x / aa + y * y / bb - 1.0) > 1e-8:
        raise NotOnConic(f"{(x, y)} is not on C_{lam}")
    gx = x / aa
    gy = y / bb
    h = math.hypot(gx, gy)
    return -gx / h, -gy / h


def normal_at(fam: ConfocalFamily, lam: float, p: tuple[float, float]) -> tuple[float, float]:
    """Inward unit normal −∇/|∇| of C_lam at ``p``.

    It points into the table at the outer wall (and at any conic enclosing
    the table).  At the inner wall of an annulus the table lies outside
    the conic: negate the result there.

    Raises
    ------
    NotOnConic
        if ``p`` violates the conic equation by more than 1e-8.
    """
    return _inward_normal(fam.a - lam, fam.b - lam, *p, lam)


def tangent_directions(
    fam: ConfocalFamily, beta: float, p: tuple[float, float]
) -> list[tuple[float, float]]:
    """Inward unit directions from boundary point ``p`` tangent to C_beta.

    Solves k²(a−β−x²) + 2xy·k + (b−β−y²) = 0 for the tangent slopes and
    keeps the orientation pointing into the table.  Returns the empty
    list where no tangent line exists (hyperbola caustics are reachable
    only from part of the boundary).  Results are sorted by angle so the
    "branch" index is reproducible.
    """
    x, y = p
    aq = fam.a - beta - x * x
    bq = fam.b - beta - y * y
    nx, ny = normal_at(fam, 0.0, p)
    disc = x * x * y * y - aq * bq
    if disc < 0.0:
        return []
    # q/aq is the root of larger magnitude and bq/q, from the product of the
    # roots, the other, so neither cancels; q = 0 only at a double root 0.
    # At aq = 0 the k² term drops out: the larger root is the vertical line,
    # and q = 0 leaves no finite one
    xy = x * y
    q = -xy - math.copysign(math.sqrt(disc), xy)
    lines: list[tuple[float, float]] = []
    if aq == 0.0:
        lines.append((0.0, 1.0))
        slopes = (bq / q,) if q != 0.0 else ()
    else:
        slopes = (q / aq, bq / q) if q != 0.0 else (0.0, 0.0)
    for k in slopes:
        h = math.hypot(1.0, k)
        lines.append((1.0 / h, k / h))
    both = [d for vx, vy in lines for d in ((vx, vy), (-vx, -vy))]
    dirs = [(vx, vy) for vx, vy in both if vx * nx + vy * ny > 1e-12]
    dirs.sort(key=lambda d: math.atan2(d[1], d[0]))
    return dirs
