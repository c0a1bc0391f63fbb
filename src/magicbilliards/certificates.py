"""Algebraic periodicity certificates for magic billiards, cross-validated.

Three independent certificates decide whether the trajectories tangent to
a confocal caustic C_beta close up after n reflections:

* a Hankel-type determinant in the Taylor coefficients of the dimensionless
  sqrt((1-x)(b/a-x)(beta/a-x)) (and of that series divided by (b/a-x)),
* a torsion condition [n]Q0 = O on the cubic curve y^2 = (a-x)(b-x)(beta-x),
* a polynomial Pell equation p^2 - sigma(sigma-1)(sigma-a/b)(sigma-a/beta) q^2 = 1
  in sigma = a s (with folded variants for the odd-period magic systems).

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

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import MagicKind, TableSpec, _caustic_modulus, closure_defect, tangent_phase
from .geometry import ConfocalFamily, classify_caustic

EC_DPS = 50  # working precision (decimal digits) of ec_add; torsion_check is exact
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
    matrix has (n-1)//2 rows, entries s_{3+i+j} (even n) or s_{2+i+j} (odd n); at
    n = 2 it is the 0x0 matrix, whose determinant is 1.
    """
    s = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
    if n % 2 == 1 and system is MagicKind.FLIP_LONG:
        s = _divide_linear(s, b / a)
    size, first = (n - 1) // 2, 3 - n % 2
    hankel = np.array([[s[first + i + j] for j in range(size)] for i in range(size)])
    return s, hankel.reshape(size, size)


def _check_certificate(system: MagicKind, n: int, a: float, b: float, beta: float) -> None:
    """The domain of ``cayley_det`` and ``torsion_check``: (system, parity of n, caustic
    side) with a periodicity condition, and at odd n three distinct cubic roots (else
    the curve is singular).  Odd flip-short is left to each caller."""
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
    B_{3+i+j}, so 1.0 at n = 2 (the empty matrix).  Odd n: flip-long uses
    C_{2+i+j} (hyperbola caustics only), half-turn uses B_{2+i+j};
    flip-short returns ``CayleyMarker.ALWAYS_FALSE`` (odd closure is
    impossible), and the identity system has no odd-n certificate here
    and raises.

    Internally the series is computed for the scaled cubic
    (1, b/a, beta/a): Hankel determinants are badly conditioned, and the
    dimensionless coefficients keep entries O(1).  Only the root set in
    beta matters, and it is invariant under the scaling.
    """
    _check_certificate(system, n, a, b, beta)
    if n % 2 == 1 and system is MagicKind.FLIP_SHORT:
        return CayleyMarker.ALWAYS_FALSE
    return float(np.linalg.det(_series_hankel(system, n, a, b, beta)[1]))


# ---------------------------------------------------------------------------
# elliptic-curve torsion

# The curve y^2 = (a-x)(b-x)(beta-x) is brought to the monic model
# y^2 = u^3 + s2 u^2 + s1 u + s0 by u = -x, so that Q0 = (0, sqrt(s0)) and the
# division polynomials take their textbook form (Washington 2008, section 3.2):
# [n]Q0 has u = -psi_{n-1} psi_{n+1} / psi_n^2, all at u = 0, and is O where
# psi_n vanishes.  With a, b and beta over one power-of-two denominator d, the
# model scaled by d (u -> d u, y -> d^(3/2) y) has integer s2, s1 and s0, and
# psi_k(0) is g_k y for even k and g_k for odd k with integer g_k.  So the
# residual is a ratio of integers, rounded once.


def _division_values(n: int, s2: int, s1: int, s0: int) -> dict[int, int]:
    """g_k for k = n - 1, n, n + 1 and every index their recursion reaches.

    psi_k(0) on y^2 = u^3 + s2 u^2 + s1 u + s0 is g_k y for even k and g_k
    for odd k, with y^2 = s0.  Each step of the recursion halves k, so it
    evaluates O(log n) indices, each once.
    """
    b8 = 4 * s2 * s0 - s1 * s1
    g = {0: 0, 1: 1, 2: 2, 3: b8, 4: 4 * s1 * b8 - 32 * s0 * s0}

    def at(k: int) -> int:
        if k not in g:
            m = k // 2
            if k % 2:  # psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3
                p, q = at(m + 2) * at(m) ** 3, at(m - 1) * at(m + 1) ** 3
                g[k] = p * s0 * s0 - q if m % 2 == 0 else p - q * s0 * s0
            else:  # psi_{2m} = (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) psi_m / psi_2
                g[k] = (at(m + 2) * at(m - 1) ** 2 - at(m - 2) * at(m + 1) ** 2) * at(m) // 2
        return g[k]

    for k in (n - 1, n, n + 1):
        at(k)
    return g


def _torsion_residual(system: MagicKind, n: int, a: float, b: float, beta: float) -> float:
    """``torsion_check``'s residual, on a domain already checked."""
    (pa, qa), (pb, qb), (pt, qt) = (v.as_integer_ratio() for v in (a, b, beta))
    d = max(qa, qb, qt)  # each is a power of two, so each divides d
    a, b, beta = pa * (d // qa), pb * (d // qb), pt * (d // qt)
    s0 = a * b * beta
    g = _division_values(n, a + b + beta, a * b + a * beta + b * beta, s0)
    # u([n]Q0) = -num / den on the scaled model
    num, den = g[n - 1] * g[n + 1], g[n] * g[n]
    if n % 2:
        num *= s0
    else:
        den *= s0
    if n % 2 and system is MagicKind.FLIP_LONG:
        # [n](Q0 - Q_b) = [n]Q0 + Q_b, as Q_b = (-b, 0) is 2-torsion and n is odd:
        # u = -b + (a - b)(beta - b) / (u([n]Q0) + b)
        num, den = b * (b * den - num) - (a - b) * (beta - b) * den, b * den - num
    # 1/(1 + |u|) with u = -num / (d den); den is 0 at the point O, where num is not
    den = d * abs(den)
    return den / (den + abs(num))  # int / int is correctly rounded


def ec_add(P: CurvePoint, Q: CurvePoint, a: float, b: float, beta: float) -> CurvePoint:
    """Group law on y^2 = (a-x)(b-x)(beta-x), identity at infinity.

    Runs the chord-tangent law on mpmath numbers at ``EC_DPS`` decimal
    digits; double precision loses too much near the identity for
    repeated additions to mean anything.
    """
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    import mpmath as mp  # deferred: the torsion certificate itself needs no mpmath

    with mp.workdps(EC_DPS):
        a, b, beta = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        s2, s1 = a + b + beta, a * b + a * beta + b * beta
        # the monic model in u = -x, in a canonical order, so addition commutes bit for bit
        (u1, y1), (u2, y2) = sorted([(-mp.mpf(P.x), mp.mpf(P.y)), (-mp.mpf(Q.x), mp.mpf(Q.y))])
        # Copies of one point reached through different addition chains agree
        # only to working precision, so a secant slope between them would be
        # catastrophically cancelled noise; snap to the tangent/vertical case.
        if abs(u2 - u1) <= _U_SNAP * (1 + abs(u1) + abs(u2)):
            if abs(y1 + y2) <= abs(y1 - y2):
                return INFINITY  # inverse pair (or doubled 2-torsion): vertical chord
            u1 = u2 = (u1 + u2) / 2
            y1 = (y1 + y2) / 2
            lam = (3 * u1 * u1 + 2 * s2 * u1 + s1) / (2 * y1)
        else:
            lam = (y2 - y1) / (u2 - u1)
        u3 = lam * lam - s2 - u1 - u2
        return CurvePoint(-u3, lam * (u1 - u3) - y1)


def ec_neg(P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    import mpmath as mp  # deferred, as in ec_add; P.y is already an mpf

    # exact sign flip: plain unary minus would re-round to the ambient
    # precision and the result could miss y1 == -y2 inside ec_add
    return CurvePoint(P.x, mp.fneg(P.y, exact=True))


def torsion_check(system: MagicKind, n: int, a: float, b: float, beta: float) -> float:
    """Residual of the torsion certificate at (n, beta); ~0 certifies closure.

    Even n: computes [n]Q0 with Q0 = (0, +sqrt(a b beta)).  Odd n:
    flip-long adds the 2-torsion point Q_b = (b, 0) (so the condition is
    [n](Q0 - Q_b) = O), half-turn again uses [n]Q0.  The residual is
    1/(1+|x|) of the resulting point — 0 at infinity — to be compared
    against ``TORSION_TOL``.  It is exact, from integer division
    polynomials at the doubles a, b and beta, with one rounding to the
    nearest double.  It raises where ``cayley_det`` raises, and at odd
    flip-short, which has no torsion condition.
    """
    _check_certificate(system, n, a, b, beta)
    if n % 2 == 1 and system is MagicKind.FLIP_SHORT:
        raise UnsupportedParity("flip-short: no odd-period torsion condition")
    return _torsion_residual(system, n, a, b, beta)


# ---------------------------------------------------------------------------
# polynomial Pell equations


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
    the dimensionless b/a and beta/a, or None when no certificate exists
    or the series overflowed (an SVD of inf entries is garbage or raises).
    """
    if n % 2 == 0 or system is MagicKind.HALF_TURN:
        if n < 3:  # q would be the zero polynomial, and p^2 = 1 has no solution
            return None
    elif not (system is MagicKind.FLIP_LONG and b < beta < 1.0):
        return None  # odd identity and flip-short have none; flip-long needs a hyperbola
    if not math.isfinite(s[-1]):  # the recurrence carries an overflow to the last term
        return None
    m = n // 2
    _, _, vh = np.linalg.svd(hankel[:, ::-1])
    w = vh[-1]
    u = np.convolve(np.array(s), w)[: m + 1]
    top = w[-1] if n % 2 == 1 and system is MagicKind.HALF_TURN else u[-1]
    c = top * top
    if c <= 0.0:
        return None
    if n % 2 == 1 and system is MagicKind.FLIP_LONG:
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
    flip = n % 2 == 1 and system is MagicKind.FLIP_LONG
    target = -1.0 if flip else 1.0
    if flip:
        lead, quart = np.array([-rb, 1.0]), np.convolve(s, np.convolve([-1.0, 1.0], [-rbeta, 1.0]))
    else:
        cubic = np.convolve(np.convolve([-1.0, 1.0], [-rb, 1.0]), np.array([-rbeta, 1.0]))
        lead, quart = (np.array([1.0]), np.convolve(s, cubic)) if n % 2 == 0 else (s, cubic)
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
    fit = _pell_fit(system, n, b / a, beta / a, *_series_hankel(system, n, a, b, beta))
    if fit is None:
        return None
    p, q, residual = fit
    if p[-1] < 0.0:
        p = -p
    if len(q) and q[np.argmax(np.abs(q))] < 0.0:
        q = -q
    return PellPair(tuple(p.tolist()), tuple(q.tolist()), residual)


def _pell_fit(system: MagicKind, n: int, b: float, beta: float, s, hankel):
    """The Pell fit on the dimensionless (b, beta), from ``_series_hankel``'s (s, hankel):
    (p, q, residual), with p and q before ``pell_solve`` normalises their signs, or
    None when no identity exists or the residual is not within ``PELL_TOL``."""
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
    if not residual <= PELL_TOL:  # also rejects NaN
        return None
    return z[:plen], z[plen:], residual


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
    _check_certificate(system, n, a, b, beta)
    s, hankel = _series_hankel(system, n, a, b, beta)
    fit = _pell_fit(system, n, b / a, beta / a, s, hankel)
    return CertificateBundle(
        system=system,
        n=n,
        beta=beta,
        cayley_value=float(np.linalg.det(hankel)),
        torsion_residual=_torsion_residual(system, n, a, b, beta),
        pell_residual=None if fit is None else fit[2],
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


@functools.cache
def _elliptic_integrals():
    """K(k) and F(phi, k) from ``scipy.special.cython_special``, imported on first
    use (scipy is slow to import) and only once: an import statement in ``_rho``
    would run on every call.  These are the compiled routines that the
    ``scipy.special`` ufuncs dispatch to, called directly on Python floats and
    returning Python floats; a ufunc call on a Python float pays several times
    the routine's own cost in per-call dispatch."""
    from scipy.special.cython_special import ellipk, ellipkinc

    return ellipk, ellipkinc


def _rho(a: float, b: float, beta: float) -> float:
    """Chang-Friedberg rotation number F(phi, k) / (2 K(k)) at caustic beta.

    It rises from 0 to 1/2 over the ellipse caustics 0 < beta < b and
    falls from 1/2 to 0 over the hyperbola caustics b < beta < a
    (Chang & Friedberg, J. Math. Phys. 29 (1988) 1537).
    """
    ellipk, ellipkinc = _elliptic_integrals()
    phi, k2, _ = _caustic_modulus(a, b, beta)
    return ellipkinc(phi, k2) / (2.0 * ellipk(k2))


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
