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
import sys
from dataclasses import dataclass
from enum import Enum

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    dps_to_prec, from_float, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_eq, mpf_le,
    mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub, round_nearest, to_float,
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
    """Two of the cubic's roots coincide, or one sits at 0 to within underflow;
    the square-root series degenerates."""


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
    """Solution (p, q) of a polynomial Pell identity, ascending coefficients
    in sigma = a s (see ``pell_solve``)."""

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
    """The certificates' domain: a valid family and a caustic 0 < beta < a
    whose dimensionless cubic has a normal constant term (b/a)(beta/a)."""
    ConfocalFamily(a, b)  # validates a > b > 0, both finite
    if not (0.0 < beta < a):  # also rejects NaN
        raise ValueError(f"caustic parameter {beta} outside (0, {a})")
    if (b / a) * (beta / a) < sys.float_info.min:  # the series divides by it
        raise DegenerateCubic(f"cubic constant term (b/a)(beta/a) underflows at {a, b, beta}")


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


def _series_hankel(system: MagicKind, n: int, a: float, b: float, beta: float):
    """The series of a root and its Hankel matrix, read by the determinant and the Pell seed.

    n terms on (1, b/a, beta/a), divided by (b/a - x) for odd flip-long; the
    matrix has (n-1)//2 rows, entries s_{3+i+j} (even n) or s_{2+i+j} (odd n).
    """
    s = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
    if n % 2 == 1 and system is MagicKind.FLIP_LONG:
        s = _divide_linear(s, b / a)
    size, first = (n - 1) // 2, 3 - n % 2
    return s, np.array([[s[first + i + j] for j in range(size)] for i in range(size)])


def _check_cayley(system: MagicKind, n: int, a: float, b: float, beta: float) -> None:
    """``cayley_det``'s argument checks; odd flip-short is left to its marker."""
    _check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 1 and system is not MagicKind.FLIP_SHORT:
        if system is MagicKind.IDENTITY:
            raise UnsupportedParity("identity system: no odd-period certificate")
        _check_distinct(a, b, beta)
        if system is MagicKind.FLIP_LONG and not (b < beta < a):
            raise ValueError("odd flip-long certificate needs a hyperbola caustic")


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
    _check_cayley(system, n, a, b, beta)
    if n == 2:
        return 1.0  # empty matrix: no n=2 condition, nothing vanishes
    if n % 2 == 1 and system is MagicKind.FLIP_SHORT:
        return CayleyMarker.ALWAYS_FALSE
    return float(np.linalg.det(_series_hankel(system, n, a, b, beta)[1]))


# ---------------------------------------------------------------------------
# elliptic-curve torsion

# The curve y^2 = (a-x)(b-x)(beta-x) is brought to the monic model
# y^2 = u^3 + s2 u^2 + s1 u + s0 by u = -x, so the chord-tangent formulas
# take their textbook form.  The law runs on mpmath's raw mpf tuples
# through mpmath.libmp: each operation is correctly rounded at _PREC
# bits, so the results are those of mpf objects at EC_DPS digits
# without the object overhead.  A doubling is the tangent step alone
# (_double_u): for two equal points the general law's ordering, snap and
# averaging change nothing, and its vertical chord is the case y = 0.
# Products by 2 and halvings are exact shifts of the exponent.  So every
# result is the same, bit for bit, as adding the point to itself.

_PREC = dps_to_prec(EC_DPS)
_RND = round_nearest
_ONE, _THREE = from_int(1), from_int(3)
_SNAP = from_float(_U_SNAP)


def _curve_sums(a: float, b: float, beta: float):
    """s2, s1, s0 of the monic model (elementary symmetric functions of a, b, beta)."""
    a, b, beta = from_float(a), from_float(b), from_float(beta)
    ab = mpf_mul(a, b, _PREC, _RND)
    s2 = mpf_add(mpf_add(a, b, _PREC, _RND), beta, _PREC, _RND)
    s1 = mpf_add(ab, mpf_mul(a, beta, _PREC, _RND), _PREC, _RND)
    s1 = mpf_add(s1, mpf_mul(b, beta, _PREC, _RND), _PREC, _RND)
    return s2, s1, mpf_mul(ab, beta, _PREC, _RND)


def _double_u(P, s2, s1):
    """[2]P on the monic model by the tangent formula; None is infinity.

    A point with y = 0 is 2-torsion: its tangent is vertical.
    """
    if P is None or P[1] == fzero:
        return None
    u, y = P
    # lam = (3 u^2 + 2 s2 u + s1) / (2 y); the doublings are exact shifts
    num = mpf_mul(mpf_mul(_THREE, u, _PREC, _RND), u, _PREC, _RND)
    num = mpf_add(num, mpf_mul(mpf_shift(s2, 1), u, _PREC, _RND), _PREC, _RND)
    num = mpf_add(num, s1, _PREC, _RND)
    lam = mpf_div(num, mpf_shift(y, 1), _PREC, _RND)
    return _third_point(lam, u, u, y, s2)


def _third_point(lam, u1, u2, y1, s2):
    """The sum of two points from the slope lam of their chord or tangent."""
    # u3 = lam^2 - s2 - u1 - u2, y3 = lam (u1 - u3) - y1
    u3 = mpf_sub(mpf_mul(lam, lam, _PREC, _RND), s2, _PREC, _RND)
    u3 = mpf_sub(mpf_sub(u3, u1, _PREC, _RND), u2, _PREC, _RND)
    y3 = mpf_mul(lam, mpf_sub(u1, u3, _PREC, _RND), _PREC, _RND)
    return u3, mpf_sub(y3, y1, _PREC, _RND)


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
    # Rounding to nearest is symmetric, so |u2 - u1| is |u1 - u2| exactly.
    du = mpf_sub(u2, u1, _PREC, _RND)
    scale = mpf_add(mpf_add(_ONE, mpf_abs(u1), _PREC, _RND), mpf_abs(u2), _PREC, _RND)
    if mpf_le(mpf_abs(du), mpf_mul(_SNAP, scale, _PREC, _RND)):
        if mpf_le(mpf_abs(mpf_add(y1, y2, _PREC, _RND)), mpf_abs(mpf_sub(y1, y2, _PREC, _RND))):
            return None  # inverse pair (or doubled 2-torsion): vertical chord
        # the mean point: halving is an exact shift
        u = mpf_shift(mpf_add(u1, u2, _PREC, _RND), -1)
        return _double_u((u, mpf_shift(mpf_add(y1, y2, _PREC, _RND), -1)), s2, s1)
    return _third_point(mpf_div(mpf_sub(y2, y1, _PREC, _RND), du, _PREC, _RND), u1, u2, y1, s2)


def _mul_u(k: int, P, s2, s1):
    """[k]P for k >= 1 by binary double-and-add, from the lowest bit up."""
    acc = None
    while True:
        if k & 1:
            acc = _add_u(acc, P, s2, s1)
        k >>= 1
        if not k:
            return acc
        P = _double_u(P, s2, s1)


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


def _pell_key(system: MagicKind, n: int) -> str | MagicKind:
    """Key of the Pell identity for (system, n): "even", or the odd-n system."""
    return "even" if n % 2 == 0 else system


def _pell_exists(system: MagicKind, n: int, b: float, beta: float) -> bool:
    """Whether (system, n) has a Pell identity at the dimensionless (b, beta)."""
    key = _pell_key(system, n)
    # n = 2: q would be the zero polynomial and p^2 = 1 has no solution
    if n < 3 or key in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT):
        return False
    return key is not MagicKind.FLIP_LONG or b < beta < 1.0


def _pell_seed(system: MagicKind, n: int, b: float, beta: float, s, hankel):
    """Initial (p, q) from the series: SVD null vector + truncated product.

    Writing the target identity in x = 1/sigma turns it into
    lead(x) u(x)^2 - quad(x) w(x)^2 = c x^n, where u approximates
    series*w truncated at degree m = n // 2 and c must have the sign the
    identity needs.  The coefficients of the series product in degrees
    m+1..n-1 must vanish; that map is ``_series_hankel``'s matrix with its
    columns reversed, and near a root its smallest singular vector is the
    seed for w.  Just one product reaches x^n, so c is u_m^2 for even n
    and odd flip-long and w_top^2 for odd half-turn; p and q are scaled by
    lead(0) and quad(0): 1 and b beta, or b and beta for flip-long.
    Returns (p, q) as sigma-coefficients on (1, b, beta), with b and beta
    the dimensionless b/a and beta/a, or None when no certificate exists.
    """
    if not _pell_exists(system, n, b, beta):
        return None
    key = _pell_key(system, n)
    flip = key is MagicKind.FLIP_LONG
    m = n // 2
    _, _, vh = np.linalg.svd(hankel[:, ::-1])
    w = vh[-1]
    u = np.convolve(np.array(s), w)[: m + 1]
    top = w[-1] if key is MagicKind.HALF_TURN else u[-1]
    c = top * top
    if c <= 0.0:
        return None
    if flip:
        return u[::-1] * math.sqrt(b / c), w[::-1] * math.sqrt(beta / c)
    return u[::-1] / math.sqrt(c), w[::-1] * math.sqrt(b * beta / c)


def _pell_defect(system: MagicKind, n: int, b: float, beta: float):
    """Defect coefficients of the sigma Pell identity on (1, b, beta), and their Jacobian.

    The defect lead*p*p - quart*q*q - target is a quadratic form in
    z = (p, q) (* is convolution), so its derivative along p_j is
    2 lead*p shifted down j rows, and along q_j it is -2 quart*q shifted
    down j rows.  With deg p = n // 2 and q as long as the seed's, both
    products have degree n, so no term needs padding.
    """
    rb, rbeta = 1.0 / b, 1.0 / beta
    s = np.array([0.0, 1.0])
    key = _pell_key(system, n)
    target = -1.0 if key is MagicKind.FLIP_LONG else 1.0
    if key is MagicKind.FLIP_LONG:
        lead, quart = np.array([-rb, 1.0]), np.convolve(s, np.convolve([-1.0, 1.0], [-rbeta, 1.0]))
    else:
        cubic = np.convolve(np.convolve([-1.0, 1.0], [-rb, 1.0]), np.array([-rbeta, 1.0]))
        lead, quart = (np.array([1.0]), np.convolve(s, cubic)) if key == "even" else (s, cubic)
    plen = n // 2 + 1

    def defect(z: np.ndarray) -> np.ndarray:
        p, q = z[:plen], z[plen:]
        p2 = np.convolve(p, p)
        if len(lead) > 1:  # the even identity's lead is 1
            p2 = np.convolve(lead, p2)
        d = p2 - np.convolve(quart, np.convolve(q, q))
        d[0] -= target
        return d

    def jac(z: np.ndarray) -> np.ndarray:
        p, q = z[:plen], z[plen:]
        dp = 2.0 * np.convolve(lead, p)
        dq = -2.0 * np.convolve(quart, q)
        # one row per unknown, so each shifted copy is a contiguous write
        out = np.zeros((len(z), len(dp) + plen - 1))
        for j in range(plen):
            out[j, j : j + len(dp)] = dp
        for j in range(len(q)):
            out[plen + j, j : j + len(dq)] = dq
        return out.T

    return defect, jac, plen


def pell_solve(
    system: MagicKind, n: int, a: float, b: float, beta: float
) -> PellPair | None:
    """Solve the Pell identity for (system, n) at caustic beta, or None.

    In sigma = a s, that is for the dimensionless cubic (1, b/a, beta/a)
    as in ``cayley_det``, so that p, q and the residual do not grow with
    the size of the table:
    Even n: p^2 - sigma(sigma-1)(sigma-a/b)(sigma-a/beta) q^2 = 1, degrees (m, m-2).
    Odd flip-long: (sigma-a/b) p^2 - sigma(sigma-1)(sigma-a/beta) q^2 = -1, (m, m-1).
    Odd half-turn: sigma p^2 - (sigma-1)(sigma-a/b)(sigma-a/beta) q^2 = 1, (m, m-1).

    The series seed is accepted when its defect is already within
    ``PELL_TOL``; otherwise it is polished by MINPACK's Levenberg-Marquardt
    (lmder, Jacobian column scaling) on the defect coefficients, with
    their exact Jacobian.  Returns None when no identity exists for the
    parity or the residual stays above ``PELL_TOL``.
    """
    _check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    if not _pell_exists(system, n, b / a, beta / a):
        return None
    return _pell_fit(system, n, b / a, beta / a, *_series_hankel(system, n, a, b, beta))


def _pell_fit(system: MagicKind, n: int, b: float, beta: float, s, hankel) -> PellPair | None:
    """``pell_solve`` on the dimensionless (b, beta), from ``_series_hankel``'s (s, hankel)."""
    seed = _pell_seed(system, n, b, beta, s, hankel)
    if seed is None:
        return None
    defect, jac, plen = _pell_defect(system, n, b, beta)
    z = np.concatenate(seed)
    residual = float(np.max(np.abs(defect(z))))
    if residual > PELL_TOL:
        from scipy.optimize import leastsq  # deferred: scipy.optimize is slow to import

        # maxfev as least_squares(method="lm") sets it; leastsq's own default
        # is 100 (n + 1).  full_output reports a maxfev stop in its return
        # value instead of a RuntimeWarning.
        z = leastsq(
            defect, z, Dfun=jac, ftol=1e-15, xtol=1e-15, gtol=1e-15, maxfev=100 * len(z),
            full_output=True,
        )[0]
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
    """All four residuals at one root; the series and its matrix are built once."""
    _check_cayley(system, n, a, b, beta)
    s, hankel = _series_hankel(system, n, a, b, beta)
    pell = _pell_fit(system, n, b / a, beta / a, s, hankel)
    return CertificateBundle(
        system=system,
        n=n,
        beta=beta,
        cayley_value=float(np.linalg.det(hankel)),
        torsion_residual=torsion_check(system, n, a, b, beta),
        pell_residual=None if pell is None else pell.residual,
        closure_residual=_closure_residual(system, n, a, b, beta),
    )


def _brent(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi] by Brent's method (Brent 1973, ch. 4).

    A statement-for-statement port of scipy's ``Zeros/brentq.c`` with its
    defaults (rtol = 4 eps, 100 iterations), so it returns the root
    ``scipy.optimize.brentq`` returns, bit for bit, without importing it.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    rtol = 4.0 * 2.0 ** -52  # 4 eps
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(lo) and f(hi) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in 100 iterations, at {xcur!r}")


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
    exactly one root there, solved to |dbeta| < 1e-12 a by ``_brent``,
    which returns scipy's brentq root bit for bit but imports no
    scipy.optimize (only the Pell fallback polish does).  The windows
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
    margin = ROOT_MARGIN_RTOL * a
    windows = [(margin, b - margin), (b + margin, a - margin)]
    if odd and system is MagicKind.FLIP_LONG:
        windows = windows[1:]
    half = 0.5 if odd and system is MagicKind.HALF_TURN else 0.0

    roots: list[float] = []
    for wlo, whi in windows:
        wlo, whi = max(wlo, lo), min(whi, hi)
        if whi <= wlo:
            continue
        r1, r2 = sorted((_rho(a, b, wlo), _rho(a, b, whi)))
        for m in range(n):
            target = m + half
            if r1 < target / n < r2:
                roots.append(_brent(
                    lambda beta: n * _rho(a, b, beta) - target, wlo, whi, BISECT_RTOL * a
                ))
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
    from scipy.special import ellipk, ellipkinc  # deferred: scipy is slow to import

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
