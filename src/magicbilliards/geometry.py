"""Planar geometry of an ellipse and its confocal family.

Conventions used throughout the package: the boundary ellipse is

    x**2 / a + y**2 / b = 1,        a > b > 0,

with *squared* semi-axes ``a`` and ``b`` (so the physical semi-axes are
``sqrt(a)`` and ``sqrt(b)``).  The confocal family is

    C_lam :  x**2 / (a - lam) + y**2 / (b - lam) = 1,

an ellipse for ``0 < lam < b``, a hyperbola for ``b < lam < a``, and
degenerate at ``lam in {0, b, a}`` (the boundary itself, the focal
segment, and the short axis).  The foci sit at ``(+-sqrt(a - b), 0)``.

All functions are pure and operate on plain floats/tuples; nothing here
owns mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (self.a > self.b > 0.0):
            raise ValueError(f"need a > b > 0, got a={self.a!r}, b={self.b!r}")

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


@dataclass(frozen=True)
class CausticId:
    """A member of the confocal family, tagged by its geometric kind."""

    lam: float
    kind: str  # ellipse | hyperbola | degenerate-boundary | degenerate-focal
    #          | degenerate-short-axis


@dataclass(frozen=True)
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

    sorted so that ``0 ≤ lam1 ≤ b ≤ lam2 ≤ a``.

    Raises
    ------
    CenterDegenerate
        at the center, where the hyperbola sheet is undefined.
    """
    x, y = p
    if math.hypot(x, y) < 1e-12:
        raise CenterDegenerate("elliptic coordinates are singular at the origin")
    s = fam.a + fam.b - x * x - y * y
    prod = fam.a * fam.b - fam.b * x * x - fam.a * y * y
    disc = max(s * s - 4.0 * prod, 0.0)
    root = math.sqrt(disc)
    lam2 = 0.5 * (s + root)
    # stable small root: product of roots / large root when possible
    lam1 = prod / lam2 if abs(lam2) > 1e-300 else 0.5 * (s - root)
    # clamp roundoff into the nominal ranges
    lam1 = min(max(lam1, 0.0), fam.b)
    lam2 = min(max(lam2, fam.b), fam.a)
    return EllipticCoords(lam1, lam2)


def from_elliptic(
    fam: ConfocalFamily,
    coords: EllipticCoords,
    quadrant: tuple[int, int],
) -> tuple[float, float]:
    """Invert :func:`to_elliptic`; ``quadrant`` supplies the lost signs.

    x² = (a−λ1)(a−λ2)/(a−b),  y² = (b−λ1)(λ2−b)/(a−b).
    """
    sx, sy = quadrant
    den = fam.a - fam.b
    x2 = (fam.a - coords.lam1) * (fam.a - coords.lam2) / den
    y2 = (fam.b - coords.lam1) * (coords.lam2 - fam.b) / den
    return math.copysign(math.sqrt(max(x2, 0.0)), sx), math.copysign(
        math.sqrt(max(y2, 0.0)), sy
    )


def caustic_of_line(
    fam: ConfocalFamily, p: tuple[float, float], v: tuple[float, float]
) -> CausticId:
    """The confocal conic tangent to the line through ``p`` with direction ``v``.

    For a non-vertical line y = kx + m the tangency condition
    m² = (a−λ)k² + (b−λ) gives λ = (a k² + b − m²)/(k² + 1); a vertical
    line x = c is tangent to C_{a−c²}.  Near-vertical directions
    (|v_x| < ``VERTICAL_VX``) use the vertical branch to avoid the
    blow-up of the slope form.
    """
    x, y = p
    vx, vy = v
    if abs(vx) < VERTICAL_VX:
        lam = fam.a - x * x
    else:
        k = vy / vx
        m = y - k * x
        lam = (fam.a * k * k + fam.b - m * m) / (k * k + 1.0)
    return classify_caustic(fam, lam)


def _ray_conic_roots(
    fam: ConfocalFamily,
    lam: float,
    p: tuple[float, float],
    v: tuple[float, float],
) -> tuple[float, float, float] | None:
    """Coefficients-level helper: (alpha, gamma, disc) of the hit quadratic.

    The intersection times solve alpha t² + 2 gamma t + delta = 0 with

        alpha = vx²/A + vy²/B,  gamma = (x vx)/A + (y vy)/B,
        delta = x²/A + y²/B − 1,        A = a−λ, B = b−λ.

    Returns None when the line misses the conic.
    """
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
    return alpha, gamma, disc


def _first_hit_time(
    fam: ConfocalFamily,
    lam: float,
    p: tuple[float, float],
    v: tuple[float, float],
    graze: bool = False,
) -> float | None:
    """Smallest admissible time along p + t v to reach C_lam, or None.

    Admissible means beyond ``t_min = HIT_TMIN_RTOL * sqrt(a)``, which lets
    a ray leave the wall point it currently sits on.  The quadratic is
    solved in the cancellation-safe form t = q/alpha, delta/q.  With
    ``graze=True`` (inner annulus wall) a near-tangent crossing —
    normalized discriminant disc/alpha² below ``GRAZE_RTOL * a`` — is
    treated as a miss.
    """
    out = _ray_conic_roots(fam, lam, p, v)
    if out is None:
        return None
    alpha, gamma, disc = out
    if graze and disc / (alpha * alpha) < GRAZE_RTOL * fam.a:
        return None
    sq = math.sqrt(disc)
    q = -(gamma + sq) if gamma >= 0.0 else -(gamma - sq)
    # roots: q/alpha and delta/q; recover delta from disc to avoid recompute
    delta = (gamma * gamma - disc) / alpha
    roots = [q / alpha]
    if abs(q) > 1e-300:
        roots.append(delta / q)
    tmin = HIT_TMIN_RTOL * math.sqrt(fam.a)
    good = [t for t in roots if t > tmin]
    return min(good) if good else None


def ray_boundary_hit(
    fam: ConfocalFamily,
    lam: float,
    p: tuple[float, float],
    v: tuple[float, float],
) -> tuple[float, float]:
    """First forward intersection of the ray p + t v (t > t_min) with C_lam.

    Raises
    ------
    NoForwardHit
        when the ray misses the conic or only touches it behind t_min.
    """
    t = _first_hit_time(fam, lam, p, v)
    if t is None:
        raise NoForwardHit(f"ray from {p} along {v} has no forward hit on C_{lam}")
    return p[0] + t * v[0], p[1] + t * v[1]


def normal_at(
    fam: ConfocalFamily,
    lam: float,
    p: tuple[float, float],
    inner: bool = False,
) -> tuple[float, float]:
    """Unit normal of C_lam at ``p``, pointing into the table interior.

    For the outer boundary (and any conic enclosing the table) the
    interior normal is the inward one, ``−∇``; for the inner wall of an
    annulus the table lies outside the conic, so pass ``inner=True`` to
    get the outward ``+∇`` instead.

    Raises
    ------
    NotOnConic
        if ``p`` violates the conic equation by more than 1e-8.
    """
    if abs(fam.conic_residual(lam, *p)) > 1e-8:
        raise NotOnConic(f"{p} is not on C_{lam}")
    gx = p[0] / (fam.a - lam)
    gy = p[1] / (fam.b - lam)
    h = math.hypot(gx, gy)
    if inner:
        return gx / h, gy / h
    return -gx / h, -gy / h


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
    dirs: list[tuple[float, float]] = []

    def keep(vx: float, vy: float) -> None:
        if vx * nx + vy * ny > 1e-12:
            dirs.append((vx, vy))

    if abs(aq) < 1e-12 * fam.a:
        # vertical tangent through this point, plus one finite slope
        keep(0.0, 1.0)
        keep(0.0, -1.0)
        if abs(x * y) > 1e-300:
            k = -bq / (2.0 * x * y)
            h = math.hypot(1.0, k)
            keep(1.0 / h, k / h)
            keep(-1.0 / h, -k / h)
    else:
        disc = x * x * y * y - aq * bq
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        for sgn in (1.0, -1.0):
            k = (-x * y + sgn * sq) / aq
            h = math.hypot(1.0, k)
            keep(1.0 / h, k / h)
            keep(-1.0 / h, -k / h)
    dirs.sort(key=lambda d: math.atan2(d[1], d[0]))
    return dirs
