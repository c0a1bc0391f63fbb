"""Algebraic periodicity certificates for magic billiards, cross-validated.

Three independent certificates decide whether the trajectories tangent to
a confocal caustic C_beta close up after n reflections:

* a Hankel-type determinant in the Taylor coefficients of
  sqrt((a-x)(b-x)(beta-x)) (and of that series divided by (b-x)),
* a torsion condition [n]Q0 = O on the cubic curve y^2 = (a-x)(b-x)(beta-x),
* a polynomial Pell equation p^2 - s(s-1/a)(s-1/b)(s-1/beta) q^2 = 1
  (with folded variants for the odd-period magic systems).

Which parities admit a certificate depends on the magic kind:

    kind         even n            odd n
    identity     Hankel in B       (no certificate in scope)
    flip-long    Hankel in B       Hankel in C, hyperbola caustics only
    flip-short   Hankel in B       never periodic
    half-turn    Hankel in B       Hankel in B, shifted index

``find_periodic_caustics`` ties everything together: it enumerates the
windings m allowed by the closed-form rotation number, solves
n rho(beta) = m (+1/2 for odd half-turn) once per winding, and fills in
the determinant, torsion, Pell, and direct-simulation residuals at each
root so every certificate is checked independently.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    dps_to_prec, from_float, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_eq, mpf_le,
    mpf_lt, mpf_mul, mpf_neg, mpf_sqrt, mpf_sub, round_nearest, to_float,
)

from .dynamics import MagicKind, TableSpec, _caustic_modulus, closure_defect, tangent_phase
from .geometry import ConfocalFamily, classify_caustic

EC_DPS = 50  # working precision (decimal digits) for curve arithmetic
TORSION_TOL = 1e-8
# relative u-distance below which two curve points count as the same point
# (well above the ~1e-49 representation noise, far below any root spacing)
_U_SNAP = 10.0 ** (10 - EC_DPS)
PELL_TOL = 1e-6
CLOSURE_TOL = 1e-6
CAYLEY_TOL = 1e-8
# roots are not searched within this (times a) of the degenerate caustics {0,b,a}
ROOT_MARGIN_RTOL = 1e-6
BISECT_RTOL = 1e-12


class DegenerateCubic(ValueError):
    """Two of the cubic's roots coincide; the square-root series degenerates."""


class UnsupportedParity(ValueError):
    """The system has no periodicity certificate at this parity of n."""


class DegenerateFocal(ValueError):
    """The focal-segment caustic beta = b separates the two caustic regimes."""


class CayleyMarker(Enum):
    """Non-numeric certificate outcomes."""

    ALWAYS_FALSE = "always-false"  # flip-short, odd n: closure impossible


@dataclass(frozen=True)
class CurvePoint:
    """Affine point on y^2 = (a-x)(b-x)(beta-x), or the point at infinity.

    Coordinates are mpmath floats; ``x is None`` encodes infinity.
    """

    x: object | None
    y: object | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, None)


@dataclass(frozen=True)
class PellPair:
    """Solution (p, q) of a polynomial Pell identity, ascending coefficients."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    residual: float

    @property
    def degrees(self) -> tuple[int, int]:
        # the zero polynomial reports degree -1
        dq = len(self.q) - 1 if any(c != 0.0 for c in self.q) else -1
        return len(self.p) - 1, dq


@dataclass(frozen=True)
class CertificateBundle:
    """One periodic caustic with all four residuals for cross-checking."""

    system: MagicKind
    n: int
    beta: float
    cayley_value: float
    torsion_residual: float
    pell_residual: float | None
    closure_residual: float

    @property
    def verified(self) -> bool:
        return (
            abs(self.cayley_value) < CAYLEY_TOL
            and self.torsion_residual < TORSION_TOL
            and self.pell_residual is not None
            and self.pell_residual < PELL_TOL
            and self.closure_residual < CLOSURE_TOL
        )


# ---------------------------------------------------------------------------
# power series


def _check_distinct(*roots: float) -> None:
    for u, v in itertools.combinations(roots, 2):
        if abs(u - v) < 1e-12 * max(abs(u), abs(v)):
            raise DegenerateCubic(f"repeated cubic root: {u} ~ {v}")


def _check_caustic(a: float, b: float, beta: float) -> None:
    """The certificates' domain: a valid family and a caustic 0 < beta < a."""
    ConfocalFamily(a, b)  # validates a > b > 0, both finite
    if not (0.0 < beta < a):  # also rejects NaN
        raise ValueError(f"caustic parameter {beta} outside (0, {a})")


def _sqrt_cubic_coeffs(p: float, q: float, r: float, nterms: int) -> list[float]:
    """Taylor coefficients of sqrt((p-x)(q-x)(r-x)) about x=0.

    Differentiating g^2 = f gives 2 f g' = f' g; matching coefficients
    yields a three-term recurrence driven by the cubic's coefficients.
    """
    f0 = p * q * r
    f1 = -(p * q + p * r + q * r)
    f2 = p + q + r
    f3 = -1.0
    out = [math.sqrt(f0)]
    for n in range(nterms - 1):
        t = (1 - 2 * n) * f1 * out[n]
        if n >= 1:
            t += (4 - 2 * n) * f2 * out[n - 1]
        if n >= 2:
            t += (7 - 2 * n) * f3 * out[n - 2]
        out.append(t / (2.0 * f0 * (n + 1)))
    return out


def _divide_linear(coeffs: list[float], b: float) -> list[float]:
    """Coefficients of series/(b-x): C_k = (B_k + C_{k-1})/b."""
    out: list[float] = []
    prev = 0.0
    for ck in coeffs:
        prev = (ck + prev) / b
        out.append(prev)
    return out


# ---------------------------------------------------------------------------
# Cayley-type determinants


def cayley_det(
    system: MagicKind, n: int, a: float, b: float, beta: float
) -> float | CayleyMarker:
    """Hankel determinant whose vanishing certifies n-periodicity at caustic beta.

    Even n (any system): det of the (n/2 - 1)-size matrix with entries
    B_{3+i+j}.  Odd n: flip-long uses C_{2+i+j} (hyperbola caustics
    only), half-turn uses B_{2+i+j}; flip-short returns
    ``CayleyMarker.ALWAYS_FALSE`` (odd closure is impossible), and the
    identity system has no odd-n certificate here and raises.

    Internally the series is computed for the scaled cubic
    (1, b/a, beta/a): Hankel determinants are badly conditioned, and the
    dimensionless coefficients keep entries O(1).  Only the root set in
    beta matters, and it is invariant under the scaling.
    """
    _check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        m = n // 2
        if m < 2:
            return 1.0  # empty matrix: no n=2 condition, nothing vanishes
        coeffs = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
        size = m - 1
        mat = np.array(
            [[coeffs[3 + i + j] for j in range(size)] for i in range(size)]
        )
        return float(np.linalg.det(mat))

    m = (n - 1) // 2
    if system is MagicKind.FLIP_SHORT:
        return CayleyMarker.ALWAYS_FALSE
    if system is MagicKind.IDENTITY:
        raise UnsupportedParity("identity system: no odd-period certificate")
    _check_distinct(a, b, beta)
    coeffs = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
    if system is MagicKind.FLIP_LONG:
        if not (b < beta < a):
            raise ValueError("odd flip-long certificate needs a hyperbola caustic")
        coeffs = _divide_linear(coeffs, b / a)
    mat = np.array([[coeffs[2 + i + j] for j in range(m)] for i in range(m)])
    return float(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# elliptic-curve torsion

# The curve y^2 = (a-x)(b-x)(beta-x) is brought to the monic model
# y^2 = u^3 + s2 u^2 + s1 u + s0 by u = -x, so the chord-tangent formulas
# take their textbook form.  The law runs on mpmath's raw mpf tuples
# through mpmath.libmp: each operation is correctly rounded at _PREC
# bits, so the results are those of mpf objects at EC_DPS digits
# without the object overhead.

_PREC = dps_to_prec(EC_DPS)
_RND = round_nearest
_ONE, _TWO, _THREE = from_int(1), from_int(2), from_int(3)
_SNAP = from_float(_U_SNAP)


def _curve_sums(a: float, b: float, beta: float):
    """s2, s1, s0 of the monic model (elementary symmetric functions of a, b, beta)."""
    a, b, beta = from_float(a), from_float(b), from_float(beta)
    ab = mpf_mul(a, b, _PREC, _RND)
    s2 = mpf_add(mpf_add(a, b, _PREC, _RND), beta, _PREC, _RND)
    s1 = mpf_add(ab, mpf_mul(a, beta, _PREC, _RND), _PREC, _RND)
    s1 = mpf_add(s1, mpf_mul(b, beta, _PREC, _RND), _PREC, _RND)
    return s2, s1, mpf_mul(ab, beta, _PREC, _RND)


def _add_u(P, Q, s2, s1):
    """Chord-tangent addition on the monic model; None is infinity.

    Points are pairs of raw ``_mpf_`` values and every operation rounds
    to nearest at ``_PREC`` bits, as mpf arithmetic under
    ``mp.workdps(EC_DPS)`` would.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    u1, y1 = P
    u2, y2 = Q
    # canonical order makes addition commute bit-for-bit
    if (mpf_lt(y2, y1) if mpf_eq(u2, u1) else mpf_lt(u2, u1)):
        u1, y1, u2, y2 = u2, y2, u1, y1
    # Copies of one point reached through different addition chains agree
    # only to working precision, so a secant slope between them would be
    # catastrophically cancelled noise; snap to the tangent/vertical case.
    scale = mpf_add(mpf_add(_ONE, mpf_abs(u1), _PREC, _RND), mpf_abs(u2), _PREC, _RND)
    if mpf_le(mpf_abs(mpf_sub(u1, u2, _PREC, _RND)), mpf_mul(_SNAP, scale, _PREC, _RND)):
        if mpf_le(mpf_abs(mpf_add(y1, y2, _PREC, _RND)), mpf_abs(mpf_sub(y1, y2, _PREC, _RND))):
            return None  # inverse pair (or doubled 2-torsion): vertical chord
        u1 = u2 = mpf_div(mpf_add(u1, u2, _PREC, _RND), _TWO, _PREC, _RND)
        y1 = mpf_div(mpf_add(y1, y2, _PREC, _RND), _TWO, _PREC, _RND)
        # lam = (3 u1^2 + 2 s2 u1 + s1) / (2 y1)
        num = mpf_mul(mpf_mul(_THREE, u1, _PREC, _RND), u1, _PREC, _RND)
        num = mpf_add(num, mpf_mul(mpf_mul(_TWO, s2, _PREC, _RND), u1, _PREC, _RND), _PREC, _RND)
        num = mpf_add(num, s1, _PREC, _RND)
        lam = mpf_div(num, mpf_mul(_TWO, y1, _PREC, _RND), _PREC, _RND)
    else:
        lam = mpf_div(mpf_sub(y2, y1, _PREC, _RND), mpf_sub(u2, u1, _PREC, _RND), _PREC, _RND)
    # u3 = lam^2 - s2 - u1 - u2, y3 = lam (u1 - u3) - y1
    u3 = mpf_sub(mpf_mul(lam, lam, _PREC, _RND), s2, _PREC, _RND)
    u3 = mpf_sub(mpf_sub(u3, u1, _PREC, _RND), u2, _PREC, _RND)
    y3 = mpf_mul(lam, mpf_sub(u1, u3, _PREC, _RND), _PREC, _RND)
    return u3, mpf_sub(y3, y1, _PREC, _RND)


def _mul_u(k: int, P, s2, s1):
    acc = None
    addend = P
    while k:
        if k & 1:
            acc = _add_u(acc, addend, s2, s1)
        addend = _add_u(addend, addend, s2, s1)
        k >>= 1
    return acc


def _raw(v) -> tuple:
    """``v`` as a raw mpf value rounded to ``_PREC`` bits."""
    return mp.mpf(v, prec=_PREC)._mpf_


def ec_add(P: CurvePoint, Q: CurvePoint, a: float, b: float, beta: float) -> CurvePoint:
    """Group law on y^2 = (a-x)(b-x)(beta-x), identity at infinity.

    Runs at ``EC_DPS`` decimal digits; double precision loses too much
    near the identity for the torsion residuals to mean anything.
    """
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    s2, s1, _ = _curve_sums(a, b, beta)
    pu = (mpf_neg(_raw(P.x)), _raw(P.y))
    qu = (mpf_neg(_raw(Q.x)), _raw(Q.y))
    r = _add_u(pu, qu, s2, s1)
    if r is None:
        return INFINITY
    return CurvePoint(mp.make_mpf(mpf_neg(r[0])), mp.make_mpf(r[1]))


def ec_neg(P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    # exact sign flip: plain unary minus would re-round to the ambient
    # precision and the result could miss y1 == -y2 inside ec_add
    return CurvePoint(P.x, mp.fneg(P.y, exact=True))


def torsion_check(system: MagicKind, n: int, a: float, b: float, beta: float) -> float:
    """Residual of the torsion certificate at (n, beta); ~0 certifies closure.

    Even n: computes [n]Q0 with Q0 = (0, +sqrt(a b beta)).  Odd n:
    flip-long adds the 2-torsion point Q_b = (b, 0) (so the condition is
    [n](Q0 - Q_b) = O), half-turn again uses [n]Q0.  The residual is
    1/(1+|x|) of the resulting point — 0 at infinity — to be compared
    against ``TORSION_TOL``.
    """
    _check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    odd = n % 2 == 1
    if odd and system in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT):
        raise UnsupportedParity(f"{system.value}: no odd-period torsion condition")
    if odd and system is MagicKind.FLIP_LONG and not (b < beta < a):
        raise ValueError("odd flip-long certificate needs a hyperbola caustic")
    s2, s1, s0 = _curve_sums(a, b, beta)
    t = _mul_u(n, (fzero, mpf_sqrt(s0, _PREC, _RND)), s2, s1)
    if odd and system is MagicKind.FLIP_LONG:
        # [n](Q0 - Q_b) = [n]Q0 + Q_b since Q_b is 2-torsion and n is odd
        t = _add_u(t, (mpf_neg(from_float(b)), fzero), s2, s1)
    if t is None:
        return 0.0
    denom = mpf_add(_ONE, mpf_abs(t[0]), _PREC, _RND)
    return to_float(mpf_div(_ONE, denom, _PREC, _RND), rnd=_RND)


# ---------------------------------------------------------------------------
# polynomial Pell equations


def _pad_to(arr: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: len(arr)] = arr
    return out


def _pell_key(system: MagicKind, n: int) -> str | MagicKind:
    """Key of the Pell identity for (system, n): "even", or the odd-n system."""
    return "even" if n % 2 == 0 else system


def _pell_seed(system: MagicKind, n: int, a: float, b: float, beta: float):
    """Initial (p, q) from the series: SVD null vector + truncated product.

    Writing the target identity in the trajectory variable x = 1/s turns
    it into lead(x) u(x)^2 - quad(x) w(x)^2 = c x^n, where u approximates
    series*w truncated at degree m = n // 2 and c must have the sign the
    identity needs.  The coefficients of the series product in degrees
    m+1..n-1 must vanish; near a root the smallest singular vector of
    that coefficient map is the seed for w.
    Returns (p, q) in the s-variable, or None when no certificate exists.
    """
    key = _pell_key(system, n)
    # n = 2: q would be the zero polynomial and p^2 = 1 has no solution
    if n < 3 or key in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT):
        return None
    if key is MagicKind.FLIP_LONG and not (b < beta < a):
        return None
    cubic = np.array([a * b * beta, -(a * b + a * beta + b * beta), a + b + beta, -1.0])
    monic = (False, np.array([1.0]), cubic, 1.0)
    # (series divided by b-x, lead, quad, sign of c)
    divide, lead, quad, sign = {
        "even": monic,
        MagicKind.HALF_TURN: monic,
        MagicKind.FLIP_LONG: (
            True, np.array([b, -1.0]), np.array([a * beta, -(a + beta), 1.0]), -1.0
        ),
    }[key]
    s = _sqrt_cubic_coeffs(a, b, beta, n)
    if divide:
        s = _divide_linear(s, b)
    m = n // 2
    mat = np.array([[s[k - j] for j in range(n - 1 - m)] for k in range(m + 1, n)])
    _, _, vh = np.linalg.svd(mat)
    w = vh[-1]
    u = np.convolve(np.array(s), w)[: m + 1]
    defect = _pad_to(np.convolve(lead, np.convolve(u, u)), n + 1) - _pad_to(
        np.convolve(quad, np.convolve(w, w)), n + 1
    )
    c = sign * defect[n]
    if c <= 0.0:
        return None
    p = u[::-1] / math.sqrt(c) if len(lead) == 1 else u[::-1] * math.sqrt(lead[0] / c)
    return p, w[::-1] * math.sqrt(quad[0] / c)


def _pell_defect(system: MagicKind, n: int, a: float, b: float, beta: float):
    """Defect coefficients of the s-variable Pell identity, and their Jacobian.

    The defect lead*p*p - quart*q*q - target is a quadratic form in
    z = (p, q) (* is convolution), so its derivative along p_j is
    2 lead*p shifted down j rows, and along q_j it is -2 quart*q shifted
    down j rows.
    """
    ra, rb, rbeta = 1.0 / a, 1.0 / b, 1.0 / beta
    s = np.array([0.0, 1.0])
    cubic = np.convolve(np.convolve([-ra, 1.0], [-rb, 1.0]), np.array([-rbeta, 1.0]))
    lead, quart, target = {
        "even": (np.array([1.0]), np.convolve(s, cubic), 1.0),
        MagicKind.FLIP_LONG: (
            np.array([-rb, 1.0]),
            np.convolve(s, np.convolve([-ra, 1.0], [-rbeta, 1.0])),
            -1.0,
        ),
        MagicKind.HALF_TURN: (s, cubic, 1.0),
    }[_pell_key(system, n)]
    plen = n // 2 + 1

    def defect(z: np.ndarray) -> np.ndarray:
        p, q = z[:plen], z[plen:]
        p2 = np.convolve(lead, np.convolve(p, p))
        q2 = np.convolve(quart, np.convolve(q, q))
        size = max(len(p2), len(q2))
        d = _pad_to(p2, size) - _pad_to(q2, size)
        d[0] -= target
        return d

    def jac(z: np.ndarray) -> np.ndarray:
        p, q = z[:plen], z[plen:]
        dp = 2.0 * np.convolve(lead, p)
        dq = -2.0 * np.convolve(quart, q)
        out = np.zeros((max(len(dp) + plen - 1, len(dq) + len(q) - 1), len(z)))
        for j in range(plen):
            out[j : j + len(dp), j] = dp
        for j in range(len(q)):
            out[j : j + len(dq), plen + j] = dq
        return out

    return defect, jac, plen


def pell_solve(
    system: MagicKind, n: int, a: float, b: float, beta: float
) -> PellPair | None:
    """Solve the Pell identity for (system, n) at caustic beta, or None.

    Even n: p^2 - s(s-1/a)(s-1/b)(s-1/beta) q^2 = 1, degrees (m, m-2).
    Odd flip-long: (s-1/b) p^2 - s(s-1/a)(s-1/beta) q^2 = -1, (m, m-1).
    Odd half-turn: s p^2 - (s-1/a)(s-1/b)(s-1/beta) q^2 = 1, (m, m-1).

    The series seed is polished by MINPACK's Levenberg-Marquardt (lmder,
    Jacobian column scaling) on the defect coefficients, with their exact
    Jacobian; returns None when no identity exists for the parity or the
    polished residual stays above ``PELL_TOL``.
    """
    from scipy.optimize import leastsq  # deferred: scipy.optimize is slow to import

    _check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    seed = _pell_seed(system, n, a, b, beta)
    if seed is None:
        return None
    p0, q0 = seed
    defect, jac, plen = _pell_defect(system, n, a, b, beta)
    z0 = np.concatenate([p0, q0])
    # maxfev as least_squares(method="lm") sets it; leastsq's own default is 100 (n + 1)
    z, _ = leastsq(
        defect, z0, Dfun=jac, ftol=1e-15, xtol=1e-15, gtol=1e-15, maxfev=100 * len(z0)
    )
    residual = float(np.max(np.abs(defect(z))))
    if residual > PELL_TOL:
        return None
    p, q = z[:plen], z[plen:]
    if p[-1] < 0.0:
        p = -p
    if len(q) and q[np.argmax(np.abs(q))] < 0.0:
        q = -q
    return PellPair(tuple(float(c) for c in p), tuple(float(c) for c in q), residual)


# ---------------------------------------------------------------------------
# root finding and cross-validation

def _closure_residual(system: MagicKind, n: int, a: float, b: float, beta: float) -> float:
    fam = ConfocalFamily(a, b)
    s0 = tangent_phase(fam, beta)
    if s0 is None:
        return math.inf
    return closure_defect(TableSpec(fam, system), s0, n)


def _bundle(system: MagicKind, n: int, a: float, b: float, beta: float) -> CertificateBundle:
    det = cayley_det(system, n, a, b, beta)
    pell = pell_solve(system, n, a, b, beta)
    return CertificateBundle(
        system=system,
        n=n,
        beta=beta,
        cayley_value=float(det),
        torsion_residual=torsion_check(system, n, a, b, beta),
        pell_residual=None if pell is None else pell.residual,
        closure_residual=_closure_residual(system, n, a, b, beta),
    )


def empty_reason(system: MagicKind, n: int) -> str | None:
    """Why no n-periodic caustic of ``system`` exists in any family, or None."""
    if n == 2:
        return "no nondegenerate 2-periodic caustic exists"
    if n % 2 == 1 and system is MagicKind.FLIP_SHORT:
        return "flip-short trajectories close only with an even period"
    return None


def find_periodic_caustics(
    system: MagicKind,
    n: int,
    a: float,
    b: float,
    interval: tuple[float, float],
) -> list[CertificateBundle]:
    """All caustic parameters in ``interval`` whose trajectories are n-periodic.

    Closure after n bounces means n rho(beta) = m, or m + 1/2 for the odd
    half-turn system, with rho the closed-form rotation number.  rho is
    monotone on each side of the focal level b, so every winding m whose
    target lies strictly between rho at the two ends of a window has
    exactly one root there, solved to |dbeta| < 1e-12 a.  The windows
    stay clear of the degenerate caustics {0, b, a} by
    ``ROOT_MARGIN_RTOL * a`` and, for the odd flip-long certificate,
    cover only the hyperbola range (b, a).  Every root comes back as a
    CertificateBundle with the determinant, torsion, Pell, and
    direct-simulation residuals filled in.  Where ``empty_reason`` gives a
    reason (n = 2, odd flip-short) the result is empty without a search.
    A near-circular family, a - b < 1e-12 a, raises DegenerateCubic
    first, for every system and n.
    """
    ConfocalFamily(a, b)  # validates a > b > 0, both finite
    _check_distinct(a, b)  # a near-circular family degenerates at every beta
    if n < 2:
        raise ValueError("need n >= 2")
    lo, hi = interval
    if not (0.0 <= lo < hi <= a):
        raise ValueError(f"interval {interval} not inside (0, {a})")
    odd = n % 2 == 1
    if odd and system is MagicKind.IDENTITY:
        raise UnsupportedParity("identity system: no odd-period certificate")
    if empty_reason(system, n) is not None:
        return []
    # deferred past the checks: scipy.optimize is slow to import
    from scipy.optimize import brentq

    margin = ROOT_MARGIN_RTOL * a
    windows = [(margin, b - margin), (b + margin, a - margin)]
    if odd and system is MagicKind.FLIP_LONG:
        windows = windows[1:]
    half = 0.5 if odd and system is MagicKind.HALF_TURN else 0.0

    def defect(beta: float, target: float) -> float:
        return n * _rho(a, b, beta) - target

    roots: list[float] = []
    for wlo, whi in windows:
        wlo, whi = max(wlo, lo), min(whi, hi)
        if whi <= wlo:
            continue
        r1, r2 = sorted((_rho(a, b, wlo), _rho(a, b, whi)))
        for m in range(n):
            target = m + half
            if r1 < target / n < r2:
                roots.append(brentq(defect, wlo, whi, args=(target,), xtol=BISECT_RTOL * a))
    roots.sort()
    return [_bundle(system, n, a, b, r) for r in roots]


# ---------------------------------------------------------------------------
# rotation number


def _rho(a: float, b: float, beta: float) -> float:
    """Chang-Friedberg rotation number F(phi, k) / (2 K(k)) at caustic beta.

    It rises from 0 to 1/2 over the ellipse caustics 0 < beta < b and
    falls from 1/2 to 0 over the hyperbola caustics b < beta < a
    (Chang & Friedberg, J. Math. Phys. 29 (1988) 1537).
    """
    from scipy.special import ellipk, ellipkinc  # deferred, like scipy.optimize

    phi, k2, _ = _caustic_modulus(a, b, beta)
    return float(ellipkinc(phi, k2)) / (2.0 * float(ellipk(k2)))


def rotation_number(a: float, b: float, beta: float) -> float:
    """Rotation (or libration) number of the standard billiard at caustic beta.

    Ellipse caustics: the mean polar winding per reflection, in turns;
    closure with winding m after n bounces shows up as the rational m/n.
    Hyperbola caustics: the libration ratio 1/2 - rho, the rate of sign
    changes of the polar increment per bounce, halved.
    """
    _check_caustic(a, b, beta)
    if classify_caustic(ConfocalFamily(a, b), beta).kind == "degenerate-focal":
        raise DegenerateFocal("beta = b is the focal segment; no rotation number")
    rho = _rho(a, b, beta)
    return rho if beta < b else 0.5 - rho
