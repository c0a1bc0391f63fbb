"""Independent checks of the package's outputs.

Nothing here imports magicbilliards: every expected value is computed
from a closed form or taken from the paper's tables, so a check cannot
agree with a wrong answer by sharing code with it.
"""
from __future__ import annotations

from scipy.special import elliprf

# find_periodic_caustics documents that it searches no closer than
# 1e-6 * a to the degenerate caustics {0, b, a}.
ROOT_MARGIN_RTOL = 1e-6
# |n rho(beta) - m| above this marks a returned root as not periodic
RHO_TOL = 1e-6
# caustic drift allowed along one CSV trajectory, times a
CAUSTIC_RTOL = 1e-8
# conic-equation residual allowed for a CSV impact point
WALL_TOL = 1e-9

# Paper's component-count table (acceptance criterion 7):
# (shape, system) -> (components of an ellipse-caustic level,
#                     components of a hyperbola-caustic level)
COMPONENTS = {
    ("ellipse", "flip-long"): (1, 2),
    ("ellipse", "flip-short"): (1, 1),
    ("ellipse", "half-turn"): (2, 2),
    ("annulus", "flip-long"): (1, 1),
    ("annulus", "flip-short"): (1, 2),
    ("annulus", "half-turn"): (2, 1),
}
# Paper's focal-level atoms (acceptance criterion 8)
FOCAL_ATOM = {
    ("ellipse", "flip-long"): "B",
    ("ellipse", "flip-short"): "A**",
    ("ellipse", "half-turn"): "C2",
    ("annulus", "flip-long"): "A**",
    ("annulus", "flip-short"): "B",
    ("annulus", "half-turn"): "B",
}


def rotation_number(a: float, b: float, lam: float) -> float:
    """Closed-form rotation number of the ellipse billiard with caustic C_lam.

    rho = (R_F(a-l, b-l, lam-l) - R_F(a, b, lam)) / (2 R_F(a-l, b-l, lam-l))
    with l = min(lam, b), in Carlson's symmetric form of the elliptic
    integrals of Chang & Friedberg, J. Math. Phys. 29 (1988) 1537.  It
    rises from 0 to 1/2 over the ellipse caustics 0 < lam < b and falls
    from 1/2 over the hyperbola caustics b < lam < a.
    """
    low = min(lam, b)
    full = float(elliprf(a - low, b - low, lam - low))
    return (full - float(elliprf(a, b, lam))) / (2.0 * full)


def half_offset(system: str, n: int) -> float:
    """Odd half-turn orbits close at n rho in Z + 1/2, all others at n rho in Z."""
    return 0.5 if system == "half-turn" and n % 2 else 0.0


def search_windows(system: str, n: int, a: float, b: float) -> list[tuple[float, float]]:
    """The caustic ranges a full-window search covers: both sides of the
    focal level, clear of {0, b, a}; odd flip-long only has hyperbola roots."""
    margin = ROOT_MARGIN_RTOL * a
    windows = [(margin, b - margin), (b + margin, a - margin)]
    if system == "flip-long" and n % 2:
        windows = windows[1:]
    return windows


def predicted_root_count(system: str, n: int, a: float, b: float) -> int:
    """Number of windings m with (m + offset)/n strictly inside rho(window)."""
    if n == 2 or (system == "flip-short" and n % 2):
        return 0
    half = half_offset(system, n)
    count = 0
    for lo, hi in search_windows(system, n, a, b):
        r1, r2 = sorted((rotation_number(a, b, lo), rotation_number(a, b, hi)))
        count += sum(1 for m in range(n) if r1 < (m + half) / n < r2)
    return count


def winding_defect(system: str, n: int, a: float, b: float, beta: float) -> float:
    """Distance of n rho(beta) from the closure lattice of (system, n)."""
    x = n * rotation_number(a, b, beta) - half_offset(system, n)
    return abs(x - round(x))


def check_roots(
    system: str, n: int, a: float, b: float, betas: list[float], verified: list[bool]
) -> tuple[str, str]:
    """Classify one periodic search: ("ok" | "F1" | "F2" | "wrong", detail).

    "wrong" means a returned caustic is not periodic, lies outside the
    searched windows, or more roots came back than exist.  F2 means
    genuine roots were missed; F1 means a genuine root was returned
    without ``verified``.
    """
    windows = search_windows(system, n, a, b)
    for beta in betas:
        if not any(lo < beta < hi for lo, hi in windows):
            return "wrong", f"root {beta!r} outside the searched windows"
        if winding_defect(system, n, a, b, beta) > RHO_TOL:
            return "wrong", f"root {beta!r} is not {n}-periodic"
    want = predicted_root_count(system, n, a, b)
    if len(betas) > want:
        return "wrong", f"{len(betas)} roots, only {want} exist"
    if len(betas) < want:
        return "F2", f"{len(betas)} of {want} roots found"
    bad = sum(1 for v in verified if not v)
    if bad:
        return "F1", f"{bad} of {len(betas)} roots unverified"
    return "ok", ""


def tangent_caustic(a: float, b: float, x: float, y: float, vx: float, vy: float) -> float:
    """Caustic of the line through (x, y) along (vx, vy): the confocal conic
    C_lam with m^2 = (a - lam) k^2 + (b - lam) for y = kx + m, so
    lam = (a k^2 + b - m^2)/(k^2 + 1); a vertical line x = c gives a - c^2."""
    if abs(vx) < 1e-10:
        return a - x * x
    k = vy / vx
    m = y - k * x
    return (a * k * k + b - m * m) / (k * k + 1.0)


def wall_residual(a: float, b: float, lam: float, x: float, y: float) -> float:
    """|x^2/(a-lam) + y^2/(b-lam) - 1|: zero on the confocal conic C_lam."""
    return abs(x * x / (a - lam) + y * y / (b - lam) - 1.0)


def check_orbit_csv(
    text: str, a: float, b: float, inner: float | None, bounces: int
) -> str | None:
    """None when the simulate CSV is sound, else what is wrong with it."""
    lines = text.splitlines()
    if lines[0] != "i,x,y,vx,vy,lambda1,lambda2,caustic":
        return f"unexpected header {lines[0]!r}"
    rows = [[float(f) for f in line.split(",")] for line in lines[1:]]
    if len(rows) != bounces + 1:
        return f"{len(rows)} rows for {bounces} bounces"
    lam0 = tangent_caustic(a, b, *rows[0][1:5])
    walls = [0.0] if inner is None else [0.0, inner]
    for i, (_, x, y, vx, vy, *_rest) in enumerate(rows):
        if abs(tangent_caustic(a, b, x, y, vx, vy) - lam0) > CAUSTIC_RTOL * a:
            return f"row {i}: caustic drifted from {lam0!r}"
        if min(wall_residual(a, b, lam, x, y) for lam in walls) > WALL_TOL:
            return f"row {i}: ({x!r}, {y!r}) lies on no wall"
    return None
