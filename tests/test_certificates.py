"""Certificate tests: series, Cayley determinants, curve arithmetic, Pell pairs.

Derived quantities are checked against independent oracles: series
coefficients against finite differences of the closed-form square root,
Pell pairs by evaluating their defining identity at sample points, and
every root set against the trajectory closure residual; the closed-form
rotation number against a ratio measured by simulation.
"""
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import magicbilliards
from magicbilliards import (
    ConfocalFamily,
    CurvePoint,
    DegenerateCubic,
    DegenerateFocal,
    INFINITY,
    MagicKind,
    PellPair,
    TableSpec,
    UnsupportedParity,
    cayley_det,
    ec_add,
    ec_neg,
    find_periodic_caustics,
    pell_solve,
    rotation_number,
    step,
    tangent_phase,
    torsion_check,
)
from magicbilliards import certificates
from magicbilliards.certificates import (
    CLOSURE_TOL,
    EC_DPS,
    PELL_TOL,
    TORSION_TOL,
    _U_SNAP,
    _brent,
    _division_values,
    _divide_linear,
    _pell_defect,
    _pell_seed,
    _rho,
    _series_hankel,
    _sqrt_cubic_coeffs,
)
from magicbilliards.dynamics import _caustic_modulus

A, B = 9.0, 4.0

# roots confirmed by all three certificates and by direct simulation
N4_ROOTS = (36.0 / 13.0, 7.2)
N6_ROOTS = (1.44, 3.773519066611132, 4.277359246064201)
FL3_ROOT = 4.277359246064201
HT3_ROOT = 1.44


def _sqrt_cubic(x, beta):
    return math.sqrt((A - x) * (B - x) * (beta - x))


# ---------------------------------------------------------------------------
# power series


def test_series_value_oracle():
    """Partial sums converge to the actual square root near x = 0."""
    beta = 2.5
    s = _sqrt_cubic_coeffs(A, B, beta, 15)
    for x in (0.0, 0.01, -0.02, 0.05):
        val = sum(c * x**k for k, c in enumerate(s))
        assert val == pytest.approx(_sqrt_cubic(x, beta), rel=1e-12)


def test_series_derivative_oracle():
    """Low-order coefficients match central finite differences."""
    beta = 2.5
    s = _sqrt_cubic_coeffs(A, B, beta, 7)
    h = 1e-5
    d1 = (_sqrt_cubic(h, beta) - _sqrt_cubic(-h, beta)) / (2.0 * h)
    d2 = (_sqrt_cubic(h, beta) - 2.0 * _sqrt_cubic(0.0, beta) + _sqrt_cubic(-h, beta)) / h**2
    assert s[1] == pytest.approx(d1, rel=1e-6)
    assert s[2] == pytest.approx(d2 / 2.0, rel=1e-4)


def test_series_square_reproduces_cubic():
    beta = 3.3
    s = _sqrt_cubic_coeffs(A, B, beta, 13)
    sq = np.convolve(s, s)
    cubic = [A * B * beta, -(A * B + A * beta + B * beta), A + B + beta, -1.0]
    for k, want in enumerate(cubic):
        assert sq[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
    for k in range(4, 13):
        assert abs(sq[k]) < 1e-9 * A * B * beta


def test_divide_linear_identity():
    """(b - x) * (B(x)/(b - x)) recovers B(x) numerically."""
    beta = 6.1
    s = _sqrt_cubic_coeffs(A, B, beta, 17)
    c = _divide_linear(s, B)
    x = 0.03
    cval = sum(ck * x**k for k, ck in enumerate(c))
    sval = sum(sk * x**k for k, sk in enumerate(s[: len(c)]))
    assert (B - x) * cval == pytest.approx(sval, rel=1e-10)


# ---------------------------------------------------------------------------
# Cayley determinants


def test_cayley_n2_never_vanishes():
    for kind in MagicKind:
        assert cayley_det(kind, 2, A, B, 2.5) == 1.0


def test_cayley_sign_change_at_n4_roots():
    for root in N4_ROOTS:
        lo = cayley_det(MagicKind.IDENTITY, 4, A, B, root - 1e-4)
        hi = cayley_det(MagicKind.IDENTITY, 4, A, B, root + 1e-4)
        assert lo * hi < 0.0


def test_cayley_even_is_system_independent():
    for beta in (1.7, 2.9, 5.5, 8.0):
        vals = {kind: cayley_det(kind, 6, A, B, beta) for kind in MagicKind}
        base = vals[MagicKind.IDENTITY]
        for v in vals.values():
            assert v == pytest.approx(base, rel=1e-12)


def test_cayley_odd_markers_and_errors():
    with pytest.raises(UnsupportedParity, match="flip-short trajectories close only"):
        cayley_det(MagicKind.FLIP_SHORT, 3, A, B, 2.5)
    with pytest.raises(UnsupportedParity):
        cayley_det(MagicKind.IDENTITY, 3, A, B, 2.5)
    with pytest.raises(ValueError):
        # flip-long odd periods need a hyperbola caustic
        cayley_det(MagicKind.FLIP_LONG, 3, A, B, 2.5)


def _cayley_det_two_branches(system, n, a, b, beta):
    """cayley_det with its even and odd matrices built in separate branches."""
    certificates._check_caustic(a, b, beta)
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        m = n // 2
        if m < 2:
            return 1.0
        coeffs = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
        size = m - 1
        mat = np.array([[coeffs[3 + i + j] for j in range(size)] for i in range(size)])
        return float(np.linalg.det(mat))
    m = (n - 1) // 2
    if system is MagicKind.FLIP_SHORT:
        raise UnsupportedParity("flip-short trajectories close only with an even period")
    if system is MagicKind.IDENTITY:
        raise UnsupportedParity("identity system: no odd-period certificate")
    certificates._check_distinct(a, b, beta)
    coeffs = _sqrt_cubic_coeffs(1.0, b / a, beta / a, n)
    if system is MagicKind.FLIP_LONG:
        if not (b < beta < a):
            raise ValueError("odd flip-long certificate needs a hyperbola caustic")
        coeffs = _divide_linear(coeffs, b / a)
    mat = np.array([[coeffs[2 + i + j] for j in range(m)] for i in range(m)])
    return float(np.linalg.det(mat))


def test_cayley_index_rule_matches_the_two_branch_form_bit_for_bit():
    """One index rule, entries s_{3+i+j} (even n) or s_{2+i+j} (odd n) on
    (n-1)//2 rows, gives the two-branch values and exceptions.

    The four systems, n = 2..16, one ellipse and two hyperbola caustics
    on (9, 4), (20, 3) and four seeded families with b/a in [0.15, 0.85].
    """
    rng = np.random.default_rng(23)
    families = [(9.0, 4.0), (20.0, 3.0)]
    families += [(a, a * r) for a, r in zip(rng.uniform(1.0, 20.0, 4), rng.uniform(0.15, 0.85, 4))]
    values = 0
    for a, b in families:
        for beta in (0.37 * b, b + 0.21 * (a - b), b + 0.83 * (a - b)):
            for system in MagicKind:
                for n in range(2, 17):
                    case = (a, b, beta, system, n)
                    try:
                        want = _cayley_det_two_branches(system, n, a, b, beta)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            cayley_det(system, n, a, b, beta)
                        assert (got.type, str(got.value)) == (type(exc), str(exc)), case
                        continue
                    got = cayley_det(system, n, a, b, beta)
                    assert got.hex() == want.hex(), case
                    values += 1
    assert values == 786


def test_root_sets_match_goldens():
    r4 = find_periodic_caustics(MagicKind.IDENTITY, 4, A, B, (0.0, A))
    assert [b.beta for b in r4] == pytest.approx(list(N4_ROOTS), abs=1e-9)
    r6 = find_periodic_caustics(MagicKind.HALF_TURN, 6, A, B, (0.0, A))
    assert [b.beta for b in r6] == pytest.approx(list(N6_ROOTS), abs=1e-9)
    fl3 = find_periodic_caustics(MagicKind.FLIP_LONG, 3, A, B, (B, A))
    assert len(fl3) == 1
    assert fl3[0].beta == pytest.approx(FL3_ROOT, abs=1e-9)
    ht3 = find_periodic_caustics(MagicKind.HALF_TURN, 3, A, B, (0.0, A))
    assert len(ht3) == 1
    assert ht3[0].beta == pytest.approx(HT3_ROOT, abs=1e-9)


def test_every_root_cross_validates():
    """Cayley roots carry small torsion, Pell, and closure residuals (n <= 6)."""
    cases = [
        (MagicKind.IDENTITY, 4),
        (MagicKind.FLIP_LONG, 3),
        (MagicKind.FLIP_LONG, 5),
        (MagicKind.HALF_TURN, 3),
        (MagicKind.HALF_TURN, 5),
        (MagicKind.FLIP_SHORT, 6),
    ]
    for kind, n in cases:
        for bundle in find_periodic_caustics(kind, n, A, B, (0.0, A)):
            assert bundle.torsion_residual < 1e-8, (kind, n, bundle)
            assert bundle.pell_residual is not None and bundle.pell_residual < 1e-6
            assert bundle.closure_residual < 1e-6
            assert bundle.verified


def test_find_periodic_argument_checks():
    with pytest.raises(ValueError):
        find_periodic_caustics(MagicKind.IDENTITY, 4, A, B, (5.0, 3.0))
    with pytest.raises(UnsupportedParity):
        find_periodic_caustics(MagicKind.IDENTITY, 3, A, B, (0.0, A))
    assert find_periodic_caustics(MagicKind.FLIP_SHORT, 5, A, B, (0.0, A)) == []
    assert find_periodic_caustics(MagicKind.HALF_TURN, 2, A, B, (0.0, A)) == []


def _search_checks_reference(system, n, a, b, interval):
    """find_periodic_caustics' argument checks, in their order, written out: the
    error they raise, True where the search returns [] unsearched, else False."""
    if not (math.isfinite(a) and a > b > 0.0):
        return ValueError, f"need finite a > b > 0, got a={a!r}, b={b!r}"
    if abs(a - b) < 1e-12 * max(abs(a), abs(b)):
        return DegenerateCubic, f"repeated cubic root: {a} ~ {b}"
    if n < 2:
        return ValueError, "need n >= 2"
    lo, hi = interval
    if not (0.0 <= lo < hi <= a):
        return ValueError, f"interval {interval} not inside (0, {a})"
    if n % 2 == 1 and system is MagicKind.IDENTITY:
        return UnsupportedParity, "identity system: no odd-period certificate"
    return n == 2 or (n % 2 == 1 and system is MagicKind.FLIP_SHORT)


def test_find_periodic_argument_checks_keep_their_order():
    """Type, message and precedence of every argument check, against the order
    family, near-circular, n >= 2, interval, odd identity, then empty reason.

    n = -1..4, the four systems, valid, reversed, NaN and out-of-range
    intervals, on (9, 4), two invalid families and a near-circular one with
    a - b = 1e-13 a.
    """
    families = [(A, B), (B, A), (math.inf, B), (A, A * (1.0 - 1e-13))]
    outcomes = Counter()
    for a, b in families:
        intervals = [(0.0, a), (1.0, 8.0), (5.0, 3.0), (2.0, 2.0), (math.nan, a), (0.0, math.nan),
                     (-1.0, a), (0.0, a + 1.0)]
        for interval in intervals:
            for system in MagicKind:
                for n in (-1, 0, 1, 2, 3, 4):
                    case = (a, b, interval, system, n)
                    want = _search_checks_reference(system, n, a, b, interval)
                    if isinstance(want, tuple):
                        with pytest.raises(ValueError) as got:
                            find_periodic_caustics(system, n, a, b, interval)
                        assert (got.type, str(got.value)) == want, case
                        outcomes[want[0].__name__] += 1
                        continue
                    roots = find_periodic_caustics(system, n, a, b, interval)
                    assert isinstance(roots, list) and (roots == [] if want else roots), case
                    outcomes["empty" if want else "searched"] += 1
    assert outcomes == {
        "ValueError": 552, "DegenerateCubic": 192, "UnsupportedParity": 2,
        "empty": 10, "searched": 12,
    }


# root counts from the closed-form prediction of bench/checks.py
# (predicted_root_count): large n, and roots that crowd toward beta = b
SEARCH_CASES = [
    (9.0, 4.0, MagicKind.IDENTITY, 16, 11),
    (9.0, 4.0, MagicKind.IDENTITY, 24, 15),
    (20.0, 3.0, MagicKind.IDENTITY, 16, 10),
    (20.0, 3.0, MagicKind.FLIP_LONG, 11, 3),
    (20.0, 3.0, MagicKind.FLIP_LONG, 13, 4),
    (20.0, 3.0, MagicKind.HALF_TURN, 9, 7),
    (20.0, 3.0, MagicKind.FLIP_SHORT, 10, 7),
]


@pytest.mark.parametrize("a, b, kind, n, count", SEARCH_CASES)
def test_search_finds_every_root_and_each_closes(a, b, kind, n, count):
    """Every predicted root comes back once, in order, and closes when simulated."""
    betas = []
    for bundle in find_periodic_caustics(kind, n, a, b, (0.0, a)):
        assert bundle.closure_residual < CLOSURE_TOL, bundle
        betas.append(bundle.beta)
    assert len(betas) == count
    assert all(lo < hi for lo, hi in zip(betas, betas[1:]))


@settings(max_examples=150, deadline=None)
@given(
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    a0=st.floats(1.0, 10.0),
    ratio=st.floats(0.02, 0.98),
    kind=st.sampled_from(list(MagicKind)),
    n=st.integers(3, 40),
)
def test_brent_matches_scipy_brentq_bit_for_bit(scale, a0, ratio, kind, n):
    """Every winding the search solves gets scipy's brentq root, bit for bit."""
    from scipy.optimize import brentq

    assume(not (n % 2 and kind in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT)))
    a = a0 * scale
    b = ratio * a
    roots = []

    def both(f, lo, hi, xtol):
        root = _brent(f, lo, hi, xtol)
        assert root.hex() == brentq(f, lo, hi, xtol=xtol).hex(), (lo, hi, xtol)
        roots.append(root)
        return root

    with mock.patch.object(certificates, "_brent", both), \
            mock.patch.object(certificates, "_bundle", lambda *args: args[-1]):
        betas = find_periodic_caustics(kind, n, a, b, (0.0, a))
    assert betas == sorted(roots)


def test_brent_raises_when_it_runs_out_of_iterations():
    """A step function gives Brent no usable secant, so it bisects: [0, 1e25]
    takes 124 iterations, past the limit of 100 that it shares with brentq."""
    from scipy.optimize import brentq

    def step(x):
        return -1.0 if x < 1.0 else 1.0

    assert brentq(step, 0.0, 1e25, xtol=1e-12, maxiter=124) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        brentq(step, 0.0, 1e25, xtol=1e-12)
    with pytest.raises(RuntimeError, match="did not converge"):
        _brent(step, 0.0, 1e25, 1e-12)
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: 1.0, 0.0, 1.0, 1e-12)


# ---------------------------------------------------------------------------
# elliptic curve arithmetic


def _q0(beta):
    # build the base point at high precision: repeated addition amplifies
    # input rounding quadratically with the multiple
    with mp.workdps(60):
        return CurvePoint(mp.mpf(0), mp.sqrt(mp.mpf(A) * mp.mpf(B) * mp.mpf(beta)))


def test_ec_identity_and_inverse():
    beta = 2.5
    q0 = _q0(beta)
    assert ec_add(q0, INFINITY, A, B, beta) == q0
    assert ec_add(INFINITY, q0, A, B, beta) == q0
    assert ec_add(q0, ec_neg(q0), A, B, beta).is_infinity


def test_ec_two_torsion():
    beta = 2.5
    qb = CurvePoint(mp.mpf(B), mp.mpf(0))
    assert ec_add(qb, qb, A, B, beta).is_infinity


def test_ec_point_stays_on_curve():
    beta = 3.1
    with mp.workdps(50):
        s2 = mp.mpf(A) + B + beta
        s1 = mp.mpf(A) * B + mp.mpf(A) * beta + mp.mpf(B) * beta
        s0 = mp.mpf(A) * B * beta
        p = _q0(beta)
        q = p
        for _ in range(6):
            q = ec_add(q, p, A, B, beta)
            if q.is_infinity:
                continue
            u = -q.x  # the curve is written in u = -x
            lhs = q.y**2
            rhs = u**3 + s2 * u**2 + s1 * u + s0
            assert abs(lhs - rhs) < mp.mpf(10) ** (-30) * (1 + abs(rhs))


def test_ec_commutative_and_associative():
    beta = 2.5
    q0 = _q0(beta)
    pts = [q0]
    for _ in range(4):
        pts.append(ec_add(pts[-1], q0, A, B, beta))
    import random

    rnd = random.Random(11)
    for _ in range(60):
        p, q, r = (rnd.choice(pts) for _ in range(3))
        ab = ec_add(ec_add(p, q, A, B, beta), r, A, B, beta)
        bc = ec_add(p, ec_add(q, r, A, B, beta), A, B, beta)
        ba = ec_add(q, p, A, B, beta)
        pq = ec_add(p, q, A, B, beta)
        assert pq.is_infinity == ba.is_infinity
        if not pq.is_infinity:
            assert abs(pq.x - ba.x) < mp.mpf(10) ** (-20)
        assert ab.is_infinity == bc.is_infinity
        if not ab.is_infinity:
            assert abs(ab.x - bc.x) < mp.mpf(10) ** (-20)
            assert abs(ab.y - bc.y) < mp.mpf(10) ** (-20) * (1 + abs(ab.y))


def test_torsion_at_roots_and_off_root():
    assert torsion_check(MagicKind.FLIP_LONG, 3, A, B, FL3_ROOT) < 1e-8
    assert torsion_check(MagicKind.HALF_TURN, 3, A, B, HT3_ROOT) < 1e-8
    assert torsion_check(MagicKind.IDENTITY, 4, A, B, 36.0 / 13.0) < 1e-8
    assert torsion_check(MagicKind.IDENTITY, 4, A, B, 2.5) > 1e-3
    with pytest.raises(UnsupportedParity):
        torsion_check(MagicKind.IDENTITY, 3, A, B, 2.5)
    with pytest.raises(UnsupportedParity):
        torsion_check(MagicKind.FLIP_SHORT, 3, A, B, 2.5)


def test_torsion_counterexample_identity_odd():
    """[3]Q0 = O at the half-turn root does NOT make identity 3-periodic:
    the identity system needs different divisor data at odd periods, which
    is why the odd identity query raises instead of reusing [n]Q0."""
    # the point [3]Q0 is (near) zero at HT3_ROOT ...
    assert torsion_check(MagicKind.HALF_TURN, 3, A, B, HT3_ROOT) < 1e-8
    # ... yet the identity billiard is nowhere near 3-periodic there
    from magicbilliards import ConfocalFamily, TableSpec, BoundaryPhase, closure_defect, tangent_directions

    fam = ConfocalFamily(A, B)
    table = TableSpec(fam, MagicKind.IDENTITY)
    p = fam.boundary_point(0.9)
    v = tangent_directions(fam, HT3_ROOT, p)[0]
    assert closure_defect(table, BoundaryPhase(p, v), 3) > 0.1


# The chord-tangent law on mpf objects at EC_DPS digits, written out:
# ec_add must return the same point, bit for bit.


def _add_reference(P, Q, s2, s1):
    if P is None:
        return Q
    if Q is None:
        return P
    u1, y1 = P
    u2, y2 = Q
    if (u2, y2) < (u1, y1):
        u1, y1, u2, y2 = u2, y2, u1, y1
    if abs(u1 - u2) <= _U_SNAP * (1 + abs(u1) + abs(u2)):
        if abs(y1 + y2) <= abs(y1 - y2):
            return None
        u1 = u2 = (u1 + u2) / 2
        y1 = (y1 + y2) / 2
        lam = (3 * u1 * u1 + 2 * s2 * u1 + s1) / (2 * y1)
    else:
        lam = (y2 - y1) / (u2 - u1)
    u3 = lam * lam - s2 - u1 - u2
    return u3, lam * (u1 - u3) - y1


# The chord-tangent law on exact rationals: torsion_check must return its
# residual, bit for bit.  Every multiple of Q0 = (0, sqrt(s0)), and its sum
# with Q_b = (-b, 0), is (u, w sqrt(s0)) with u and w rational, so a point is
# the pair (u, w) and a slope is held as its multiple of sqrt(s0).
# ``branches`` counts the vertical chords.


def _add_exact(P, Q, s2, s1, s0, branches):
    if P is None:
        return Q
    if Q is None:
        return P
    (u1, w1), (u2, w2) = P, Q
    if u1 == u2:
        if w1 == -w2:
            branches["vertical"] += 1
            return None
        lam = (3 * u1 * u1 + 2 * s2 * u1 + s1) / (2 * w1 * s0)
    else:
        lam = (w2 - w1) / (u2 - u1)
    u3 = lam * lam * s0 - s2 - u1 - u2
    return u3, lam * (u1 - u3) - w1


def _torsion_reference(system, n, a, b, beta, branches=None):
    branches = Counter() if branches is None else branches
    a, b, beta = Fraction(a), Fraction(b), Fraction(beta)
    s2, s1, s0 = a + b + beta, a * b + a * beta + b * beta, a * b * beta
    t, addend, k = None, (Fraction(0), Fraction(1)), n
    while True:  # double-and-add, with no doubling past the top bit
        if k & 1:
            t = _add_exact(t, addend, s2, s1, s0, branches)
        k >>= 1
        if not k:
            break
        addend = _add_exact(addend, addend, s2, s1, s0, branches)
    if n % 2 == 1 and system is MagicKind.FLIP_LONG:
        t = _add_exact(t, (-b, Fraction(0)), s2, s1, s0, branches)
    return 0.0 if t is None else float(1 / (1 + abs(t[0])))  # int / int, rounded once


def _has_certificate(kind, n, a, b, beta):
    if n % 2 == 0:
        return True
    return kind is MagicKind.HALF_TURN or (kind is MagicKind.FLIP_LONG and b < beta < a)


@given(
    a=st.floats(2.0, 20.0),
    ratio=st.floats(0.15, 0.85),
    hyperbola=st.booleans(),
    frac=st.floats(0.001, 0.999),
    n=st.integers(2, 16),
    kind=st.sampled_from(list(MagicKind)),
)
@settings(max_examples=300, deadline=None)
def test_torsion_matches_the_mpf_reference_bit_for_bit(a, ratio, hyperbola, frac, n, kind):
    """Both caustic windows, every system and parity with a certificate:
    torsion_check against the exact law, ec_add against the mpf law."""
    b = a * ratio
    beta = b + frac * (a - b) if hyperbola else frac * b
    assume(_has_certificate(kind, n, a, b, beta))
    got = torsion_check(kind, n, a, b, beta)
    assert got.hex() == _torsion_reference(kind, n, a, b, beta).hex()
    # Hold ec_add's chord and tangent step to all EC_DPS digits along [k]Q0.
    with mp.workdps(EC_DPS):
        ma, mb, mbeta = mp.mpf(a), mp.mpf(b), mp.mpf(beta)
        s2, s1 = ma + mb + mbeta, ma * mb + ma * mbeta + mb * mbeta
        ref = q0 = (mp.mpf(0), mp.sqrt(ma * mb * mbeta))
    def as_point(u_y):  # x = -u, exactly
        return CurvePoint(mp.fneg(u_y[0], exact=True), u_y[1])

    for _ in range(n - 1):
        for other in (q0, ref):
            step = ec_add(as_point(ref), as_point(other), a, b, beta)
            with mp.workdps(EC_DPS):
                want = _add_reference(ref, other, s2, s1)
            assert step.is_infinity == (want is None)
            if want is not None:
                assert step == as_point(want)
        with mp.workdps(EC_DPS):
            ref = _add_reference(ref, q0, s2, s1)
        if ref is None:
            break


# (9, 4) scaled by k so that a root becomes exactly 36: 36/13 and 7.2
# (n = 4) and 1.44 (half-turn n = 3) times 13, 5 and 25.  There psi_n
# vanishes, and the exact law lands on infinity through a vertical chord.
EXACT_ROOTS = [
    (13, MagicKind.IDENTITY, 4),
    (5, MagicKind.FLIP_SHORT, 8),
    (25, MagicKind.HALF_TURN, 3),
    (25, MagicKind.HALF_TURN, 15),
    (25, MagicKind.IDENTITY, 12),
]


def _search_roots(a, b, ns):
    for kind in MagicKind:
        for n in ns:
            if n % 2 == 1 and kind in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT):
                continue
            for r in find_periodic_caustics(kind, n, a, b, (0.0, a)):
                yield kind, n, r.beta


def test_torsion_matches_the_reference_at_every_9_4_root():
    """The roots of (9, 4) for n <= 16, and exact roots of its scaled copies."""
    branches = Counter()
    count = 0
    for kind, n, beta in _search_roots(A, B, range(3, 17)):
        got = torsion_check(kind, n, A, B, beta)
        want = _torsion_reference(kind, n, A, B, beta, branches)
        assert got.hex() == want.hex(), (kind, n)
        count += 1
    assert count > 100
    vertical = branches["vertical"]
    for k, kind, n in EXACT_ROOTS:
        assert torsion_check(kind, n, k * A, k * B, 36.0) == 0.0
        assert _torsion_reference(kind, n, k * A, k * B, 36.0, branches) == 0.0
    assert branches["vertical"] > vertical
    # a root of period 3 at n = 15, where a chord-tangent chain at 169 bits
    # drifts to 6.595187260861856e-33
    assert torsion_check(MagicKind.HALF_TURN, 15, A, B, 1.44) == 5.944228223417394e-33
    assert _torsion_reference(MagicKind.HALF_TURN, 15, A, B, 1.44) == 5.944228223417394e-33


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_torsion_matches_the_reference_on_the_scale_ladder(scale):
    """The roots of (9, 4) times scale for n <= 12: the integer model's
    common denominator and sizes change with the scale, the residual stays exact."""
    a, b = A * scale, B * scale
    count = 0
    for kind, n, beta in _search_roots(a, b, range(3, 13)):
        assert torsion_check(kind, n, a, b, beta).hex() == (
            _torsion_reference(kind, n, a, b, beta).hex()
        ), (kind, n, beta)
        count += 1
    assert count > 50


def test_torsion_matches_the_reference_at_a_wide_exponent_spread_and_at_n_40():
    """(1, 1e-150, 3e-151) puts a, b and beta about 500 bits apart over one
    denominator, every system and parity with a certificate for n <= 12; and
    one root of the (9, 4) half-turn search at n = 40."""
    a, b, beta = 1.0, 1e-150, 3e-151
    count = 0
    for kind in MagicKind:
        for n in range(2, 13):
            if _has_certificate(kind, n, a, b, beta):
                got = torsion_check(kind, n, a, b, beta)
                assert got.hex() == _torsion_reference(kind, n, a, b, beta).hex(), (kind, n)
                count += 1
    assert count == 29  # six even n for each system, and the odd n of half-turn
    root = 3.7078264874066296  # 40 rho(beta) = m
    got = torsion_check(MagicKind.HALF_TURN, 40, A, B, root)
    assert got == _torsion_reference(MagicKind.HALF_TURN, 40, A, B, root) == 1.0402144088468732e-29


@pytest.mark.parametrize("beta", [2.5, 5.3])
def test_torsion_check_does_no_wasted_curve_step(beta, monkeypatch):
    """[n]Q0 needs psi_{n-1}, psi_n and psi_{n+1}, and each step of their
    recursion halves the index, so the memoised recursion evaluates at most
    4 bit_length(n) + 2 indices, where every psi_k up to n + 1 would be
    n + 2 of them."""
    sizes = []

    def counted(n, s2, s1, s0):
        g = _division_values(n, s2, s1, s0)
        sizes.append(len(g))
        return g

    monkeypatch.setattr(certificates, "_division_values", counted)
    runs = 0
    for kind in MagicKind:
        for n in range(2, 41):
            if not _has_certificate(kind, n, A, B, beta):
                continue
            sizes.clear()
            assert torsion_check(kind, n, A, B, beta) > TORSION_TOL
            assert len(sizes) == 1 and sizes[0] <= 4 * n.bit_length() + 2, (kind, n, sizes)
            runs += 1
    assert runs >= 99  # every n for half-turn, even n for the others


# ---------------------------------------------------------------------------
# Pell pairs


def _poly(coeffs, s):
    """Evaluate an ascending-coefficient polynomial."""
    return sum(c * s**k for k, c in enumerate(coeffs))


SAMPLES = [0.012, 0.05, 0.09, 0.13]

# pell_solve works on the dimensionless cubic (1, b/a, beta/a): its p and q
# are polynomials in sigma = a s, so the s-samples are taken at sigma = A s.


def _cubic(sigma, beta):
    """(sigma - 1)(sigma - a/b)(sigma - a/beta) on (A, B)."""
    return (sigma - 1.0) * (sigma - A / B) * (sigma - A / beta)


def test_pell_even_identity_on_samples():
    beta = 36.0 / 13.0
    pair = pell_solve(MagicKind.IDENTITY, 4, A, B, beta)
    assert pair is not None
    assert (len(pair.p), len(pair.q)) == (3, 1)
    for sigma in (A * s for s in SAMPLES):
        lhs = _poly(pair.p, sigma) ** 2
        rhs = sigma * _cubic(sigma, beta) * _poly(pair.q, sigma) ** 2
        assert lhs - rhs == pytest.approx(1.0, abs=1e-8)


def test_pell_even_known_coefficients():
    """p = 1 - 26 s + 72 s^2 and q = 72 in s, that is p(sigma) = 1 - 26/9 sigma + 8/9 sigma^2."""
    pair = pell_solve(MagicKind.IDENTITY, 4, A, B, 36.0 / 13.0)
    p = np.asarray(pair.p)
    q = np.asarray(pair.q)
    assert p == pytest.approx([1.0, -26.0 / 9.0, 8.0 / 9.0], abs=1e-6)
    assert q == pytest.approx([8.0 / 9.0], abs=1e-6)


def test_pell_flip_long_odd_on_samples():
    beta = FL3_ROOT
    pair = pell_solve(MagicKind.FLIP_LONG, 3, A, B, beta)
    assert pair is not None
    assert (len(pair.p), len(pair.q)) == (2, 1)
    for sigma in (A * s for s in SAMPLES):
        lhs = (sigma - A / B) * _poly(pair.p, sigma) ** 2
        rhs = sigma * (sigma - 1.0) * (sigma - A / beta) * _poly(pair.q, sigma) ** 2
        assert lhs - rhs == pytest.approx(-1.0, abs=1e-8)


def test_pell_half_turn_odd_on_samples():
    beta = HT3_ROOT
    pair = pell_solve(MagicKind.HALF_TURN, 3, A, B, beta)
    assert pair is not None
    assert (len(pair.p), len(pair.q)) == (2, 1)
    for sigma in (A * s for s in SAMPLES):
        lhs = sigma * _poly(pair.p, sigma) ** 2
        rhs = _cubic(sigma, beta) * _poly(pair.q, sigma) ** 2
        assert lhs - rhs == pytest.approx(1.0, abs=1e-8)


def test_pell_returns_none_off_root():
    assert pell_solve(MagicKind.IDENTITY, 4, A, B, 2.5) is None
    # flip-long odd needs a hyperbola caustic: outside the domain it raises
    with pytest.raises(ValueError, match="needs a hyperbola caustic"):
        pell_solve(MagicKind.FLIP_LONG, 3, A, B, 2.5)


@pytest.mark.parametrize(
    "kind, n, beta",
    [
        (MagicKind.IDENTITY, 4, 2.5),
        (MagicKind.IDENTITY, 8, 6.1),
        (MagicKind.FLIP_SHORT, 12, 1.3),
        (MagicKind.FLIP_LONG, 3, 5.5),
        (MagicKind.FLIP_LONG, 7, 4.6),
        (MagicKind.FLIP_LONG, 11, 8.2),
        (MagicKind.HALF_TURN, 3, 1.44),
        (MagicKind.HALF_TURN, 3, 6.7),
        (MagicKind.HALF_TURN, 9, 2.9),
        (MagicKind.HALF_TURN, 9, 5.3),
    ],
)
def test_pell_jacobian_matches_central_differences(kind, n, beta):
    """The closed-form Jacobian of the Pell defect equals its numerical derivative."""
    defect, jac, plen = _pell_defect(kind, n, B / A, beta / A)
    z = np.random.default_rng(n).uniform(-2.0, 2.0, plen + (n - 1) // 2)
    h = 1e-5
    fd = np.column_stack(
        [(defect(z + h * e) - defect(z - h * e)) / (2.0 * h) for e in np.eye(len(z))]
    )
    exact = jac(z)
    assert exact.shape == fd.shape
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


# The Pell defect and its Jacobian with every key's polynomials built,
# both products padded to a common length and the Jacobian filled column
# by column, written out: _pell_defect must return the same values, bit
# for bit.  One system stands for each key.
PELL_KEYS = [MagicKind.IDENTITY, MagicKind.FLIP_LONG, MagicKind.HALF_TURN]


def _pell_polys_reference(system, n, a, b, beta):
    ra, rb, rbeta = 1.0 / a, 1.0 / b, 1.0 / beta
    s = np.array([0.0, 1.0])
    cubic = np.convolve(np.convolve([-ra, 1.0], [-rb, 1.0]), np.array([-rbeta, 1.0]))
    return {
        "even": (np.array([1.0]), np.convolve(s, cubic), 1.0),
        MagicKind.FLIP_LONG: (
            np.array([-rb, 1.0]),
            np.convolve(s, np.convolve([-ra, 1.0], [-rbeta, 1.0])),
            -1.0,
        ),
        MagicKind.HALF_TURN: (s, cubic, 1.0),
    }["even" if n % 2 == 0 else system]


def _pad(arr, size):
    out = np.zeros(size)
    out[: len(arr)] = arr
    return out


def _pell_defect_reference(system, n, a, b, beta):
    lead, quart, target = _pell_polys_reference(system, n, a, b, beta)
    plen = n // 2 + 1

    def defect(z):
        p, q = z[:plen], z[plen:]
        p2 = np.convolve(lead, np.convolve(p, p))
        q2 = np.convolve(quart, np.convolve(q, q))
        size = max(len(p2), len(q2))
        d = _pad(p2, size) - _pad(q2, size)
        d[0] -= target
        return d

    def jac(z):
        p, q = z[:plen], z[plen:]
        dp = 2.0 * np.convolve(lead, p)
        dq = -2.0 * np.convolve(quart, q)
        out = np.zeros((max(len(dp) + plen - 1, len(dq) + len(q) - 1), len(z)))
        for j in range(plen):
            out[j : j + len(dp), j] = dp
        for j in range(len(q)):
            out[j : j + len(dq), plen + j] = dq
        return out

    return defect, jac


def _pell_unknowns(n):
    # deg p = n // 2, and the seed's q has (n - 1) // 2 coefficients
    return n // 2 + 1, (n - 1) // 2


@pytest.mark.parametrize("system", PELL_KEYS)
def test_pell_products_have_one_length_for_every_key(system):
    """lead*p*p and quart*q*q both have degree n, so the defect needs no padding."""
    for n in range(3, 41):
        if n % 2 == 1 and system is MagicKind.IDENTITY:
            continue
        lead, quart, _ = _pell_polys_reference(system, n, A, B, 5.3)
        plen, qlen = _pell_unknowns(n)
        assert len(lead) + 2 * plen - 2 == len(quart) + 2 * qlen - 2 == n + 1, n
        defect, jac, got_plen = _pell_defect(system, n, B / A, 5.3 / A)
        z = np.ones(plen + qlen)
        assert got_plen == plen and defect(z).shape == (n + 1,)
        assert jac(z).shape == (n + 1, plen + qlen)


@pytest.mark.parametrize("system", PELL_KEYS)
@pytest.mark.parametrize("beta", [1.3, 5.3, 8.2])
def test_pell_defect_and_jacobian_match_the_padded_form_bit_for_bit(system, beta):
    rng = np.random.default_rng(17)
    for n in range(3, 17):
        if n % 2 == 1 and system is MagicKind.IDENTITY:
            continue
        defect, jac, _ = _pell_defect(system, n, B / A, beta / A)
        want_defect, want_jac = _pell_defect_reference(system, n, 1.0, B / A, beta / A)
        for _ in range(3):
            z = rng.uniform(-3.0, 3.0, sum(_pell_unknowns(n)))
            for got, want in ((defect(z), want_defect(z)), (jac(z), want_jac(z))):
                assert got.shape == want.shape
                assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()], n


# (a, b) with b/a spread over [0.15, 0.85]
PELL_FAMILIES = [
    (2.5, 0.375), (17.0, 4.25), (6.4, 2.24), (11.3, 5.085),
    (3.7, 2.035), (14.2, 9.23), (8.8, 6.16), (19.5, 16.575),
    # the unscaled fit left n = 6 residuals of 2^-19 here, above PELL_TOL
    (19.480299577757606, 15.642950020828906),
]
# the benchmark's sweep of one family
SWEEP = [(s, n) for n in range(4, 13, 2) for s in ("identity", "flip-short")] + [
    (s, n) for n in range(3, 13) for s in ("half-turn", "flip-long")
]
PELL_SEARCHES = [
    (MagicKind.IDENTITY, 4), (MagicKind.IDENTITY, 6),
    (MagicKind.FLIP_SHORT, 4), (MagicKind.FLIP_SHORT, 6),
    (MagicKind.HALF_TURN, 3), (MagicKind.HALF_TURN, 4), (MagicKind.HALF_TURN, 6),
    (MagicKind.FLIP_LONG, 3), (MagicKind.FLIP_LONG, 4), (MagicKind.FLIP_LONG, 5),
    (MagicKind.FLIP_LONG, 6),
]


@pytest.mark.parametrize("a, b", PELL_FAMILIES)
def test_pell_solves_at_every_low_period_root(a, b):
    roots = [
        r for kind, n in PELL_SEARCHES for r in find_periodic_caustics(kind, n, a, b, (0.0, a))
    ]
    assert len(roots) >= len(PELL_SEARCHES)
    for r in roots:
        assert r.pell_residual is not None, (r.system, r.n, r.beta)
        assert r.pell_residual < PELL_TOL, (r.system, r.n, r.beta)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_pell_solves_at_every_root_of_a_rescaled_family(scale):
    """(9, 4) scale: every root of the four systems at n <= 8 passes PELL_TOL."""
    a, b = A * scale, B * scale
    count = 0
    for kind in MagicKind:
        for n in range(3, 9):
            if n % 2 == 1 and kind is MagicKind.IDENTITY:
                continue
            for r in find_periodic_caustics(kind, n, a, b, (0.0, a)):
                assert r.pell_residual is not None, (kind, n, r.beta)
                assert r.pell_residual < PELL_TOL, (kind, n, r.beta)
                count += 1
    assert count == 52


def test_pell_polishes_only_where_the_seed_misses(monkeypatch):
    """leastsq runs at no root of the (9, 4) sweep, and on (20, 3) only at
    the two n = 10 roots next to b, in each system."""
    import scipy.optimize

    calls = []
    real = scipy.optimize.leastsq

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "leastsq", counting)
    for a, b in [(A, B), (20.0, 3.0)]:
        polished = []
        for system, n in SWEEP:
            kind = MagicKind(system)
            del calls[:]
            roots = find_periodic_caustics(kind, n, a, b, (0.0, a))
            in_search = len(calls)
            for r in roots:
                del calls[:]
                pell_solve(kind, n, a, b, r.beta)
                if calls:
                    polished.append((system, n, r.beta))
            assert in_search == sum(p[:2] == (system, n) for p in polished)
        if a == A:
            assert polished == []
        else:
            systems = ("identity", "flip-short", "half-turn", "flip-long")
            assert [p[:2] for p in polished] == [(s, 10) for s in systems for _ in range(2)]
            assert all(abs(beta - b) < 1e-4 for _, _, beta in polished), polished


def _pell_seed_reference(system, n, a, b, beta):
    """The series seed with both products padded to degree n, written out."""
    key = "even" if n % 2 == 0 else system
    if n < 3 or key in (MagicKind.IDENTITY, MagicKind.FLIP_SHORT):
        return None
    if key is MagicKind.FLIP_LONG and not (b < beta < a):
        return None
    cubic = np.array([a * b * beta, -(a * b + a * beta + b * beta), a + b + beta, -1.0])
    monic = (False, np.array([1.0]), cubic, 1.0)
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
    defect = _pad(np.convolve(lead, np.convolve(u, u)), n + 1) - _pad(
        np.convolve(quad, np.convolve(w, w)), n + 1
    )
    c = sign * defect[n]
    if c <= 0.0:
        return None
    p = u[::-1] / math.sqrt(c) if len(lead) == 1 else u[::-1] * math.sqrt(lead[0] / c)
    return p, w[::-1] * math.sqrt(quad[0] / c)


def test_pell_seed_matches_the_padded_products_bit_for_bit():
    """Every key and n = 3..40 in the certificates' domain, on seeded families, on
    the dimensionless (b/a, beta/a)."""
    rng = np.random.default_rng(19)
    families = [(9.0, 4.0), (20.0, 3.0), (2.5, 1.0), (7.0, 1.0), *PELL_FAMILIES]
    families += [(a, a * r) for a, r in zip(rng.uniform(1.0, 20.0, 4), rng.uniform(0.15, 0.85, 4))]
    seeds = 0
    for a, b in families:
        for beta in (0.37 * b, b + 0.21 * (a - b), b + 0.83 * (a - b)):
            for system in PELL_KEYS:
                for n in range(3, 41):
                    if not _has_certificate(system, n, a, b, beta):
                        continue
                    got = _pell_seed(
                        system, n, b / a, beta / a, *_series_hankel(system, n, a, b, beta)
                    )
                    want = _pell_seed_reference(system, n, 1.0, b / a, beta / a)
                    assert (got is None) == (want is None), (a, b, beta, system, n)
                    if got is not None:
                        for g, w in zip(got, want):
                            assert [v.hex() for v in g] == [v.hex() for v in w]
                        seeds += 1
    assert seeds > 1000


def _pell_reference(system, n, a, b, beta):
    """pell_solve on (1, b/a, beta/a): the seed when it is within PELL_TOL,
    else its polish through least_squares(method="lm") with Jacobian column
    scaling."""
    from scipy.optimize import least_squares

    s, hankel = _series_hankel(system, n, a, b, beta)
    b, beta = b / a, beta / a
    seed = _pell_seed(system, n, b, beta, s, hankel)
    if seed is None:
        return None
    defect, jac, plen = _pell_defect(system, n, b, beta)
    z = np.concatenate(seed)
    residual = float(np.max(np.abs(defect(z))))
    if residual > PELL_TOL:
        z = least_squares(
            defect, z, jac=jac, method="lm", x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15,
        ).x
        residual = float(np.max(np.abs(defect(z))))
    if residual > PELL_TOL:
        return None
    p, q = z[:plen], z[plen:]
    if p[-1] < 0.0:
        p = -p
    if len(q) and q[np.argmax(np.abs(q))] < 0.0:
        q = -q
    return [c.hex() for c in p], [c.hex() for c in q], residual.hex()


@pytest.mark.parametrize("a, b", [(9.0, 4.0), (20.0, 3.0)])
def test_pell_matches_the_least_squares_reference_bit_for_bit(a, b):
    """Every root for n <= 6 and the four systems; residuals lie far below PELL_TOL.

    On (20, 3) the two identity n = 10 roots next to b are added: there the
    seed misses PELL_TOL and the polish runs.
    """
    searches = [(kind, n) for kind in MagicKind for n in range(3, 7)]
    if a == 20.0:
        searches.append((MagicKind.IDENTITY, 10))
    count = 0
    for kind, n in searches:
        if n % 2 == 1 and kind is MagicKind.IDENTITY:
            continue
        for r in find_periodic_caustics(kind, n, a, b, (0.0, a)):
            if n == 10 and abs(r.beta - b) > 1e-4:
                continue
            pair = pell_solve(kind, n, a, b, r.beta)
            want = _pell_reference(kind, n, a, b, r.beta)
            got = None if pair is None else (
                [c.hex() for c in pair.p], [c.hex() for c in pair.q], pair.residual.hex()
            )
            assert got == want, (kind, n, r.beta)
            count += pair is not None
    assert count >= 20


@pytest.mark.parametrize("n, beta", [(100, 0.005799555901084596), (120, 0.004027949053944891)])
def test_pell_returns_none_on_an_overflowed_series(capfd, n, beta):
    """(9, 4) identity at its winding-1 root: the series overflows, and once
    a term is not finite no later one is, so the last term shows it.  The
    Pell solver returns None there, raises nothing, and writes nothing to
    stderr (an SVD of inf entries makes LAPACK print a warning, then pass
    the root at n = 100 and fail to converge at n = 120)."""
    finite = [math.isfinite(c) for c in _sqrt_cubic_coeffs(1.0, B / A, beta / A, n)]
    assert not finite[-1]
    assert finite == sorted(finite, reverse=True)
    assert pell_solve(MagicKind.IDENTITY, n, A, B, beta) is None
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("a, b", [(9.0, 4.0), (20.0, 3.0)])
def test_bundle_pell_residual_is_pell_solves(a, b):
    """The four systems at n = 3..12: at every root the bundle's Pell residual
    is pell_solve's, bit for bit, or both are None."""
    count = 0
    for kind in MagicKind:
        for n in range(3, 13):
            if n % 2 == 1 and kind is MagicKind.IDENTITY:
                continue
            for r in find_periodic_caustics(kind, n, a, b, (0.0, a)):
                pair = pell_solve(kind, n, a, b, r.beta)
                want = None if pair is None else pair.residual.hex()
                got = None if r.pell_residual is None else r.pell_residual.hex()
                assert got == want, (kind, n, r.beta)
                count += 1
    assert count > 100


# ---------------------------------------------------------------------------
# argument checks shared by the evaluators

BAD_CAUSTICS = [
    (A, B, 0.0),
    (A, B, -1.0),
    (A, B, math.nan),
    (A, B, math.inf),
    (A, B, A),
    (B, A, 2.5),  # a < b
    (math.inf, B, 2.5),
]


@pytest.mark.parametrize("evaluator", [cayley_det, torsion_check, pell_solve])
@pytest.mark.parametrize("a, b, beta", BAD_CAUSTICS)
def test_evaluators_reject_an_invalid_family_or_caustic(evaluator, a, b, beta):
    with pytest.raises(ValueError, match="caustic parameter|need finite a > b > 0"):
        evaluator(MagicKind.IDENTITY, 4, a, b, beta)


# f0 = (b/a)(beta/a), the constant term of the dimensionless cubic, is 0 or
# subnormal: the square-root series would divide by it
UNDERFLOWING_CAUSTICS = [
    (1.0, 1e-200, 1e-200),
    (1.0, 0.5, 1e-310),
    (1e300, 1e-10, 1e-10),
]


@pytest.mark.parametrize("evaluator", [cayley_det, torsion_check, pell_solve])
@pytest.mark.parametrize("a, b, beta", UNDERFLOWING_CAUSTICS)
def test_evaluators_reject_a_cubic_whose_constant_term_underflows(evaluator, a, b, beta):
    with pytest.raises(DegenerateCubic, match="underflows"):
        evaluator(MagicKind.IDENTITY, 4, a, b, beta)


def test_cayley_and_torsion_reject_alike():
    """cayley_det, torsion_check and pell_solve share one domain: wherever one
    raises, all three raise the same type and message; elsewhere the first
    two return floats and pell_solve a PellPair or None.

    The four systems, n = 2..9, on (9, 4), (20, 3) and a near-circular
    family, at an ellipse caustic, 1e-13 either side of b, a hyperbola
    caustic and 1e-13 under a.  At (9, 4) half-turn n = 5, beta = 4 (1 + 1e-13),
    the curve is singular and all three must raise DegenerateCubic.
    """
    evaluators = (cayley_det, torsion_check, pell_solve)
    raised = values = 0
    for a, b in [(9.0, 4.0), (20.0, 3.0), (9.0, 9.0 * (1.0 - 1e-13))]:
        near = (b * (1.0 - 1e-13), b * (1.0 + 1e-13), a * (1.0 - 1e-13))
        for beta in (0.37 * b, *near, b + 0.21 * (a - b)):
            for system in MagicKind:
                for n in range(2, 10):
                    case = (a, b, beta, system, n)
                    got, errors = [], set()
                    for evaluator in evaluators:
                        try:
                            got.append(evaluator(system, n, a, b, beta))
                        except Exception as exc:
                            errors.add((type(exc), str(exc)))
                    if errors or len(got) < len(evaluators):
                        assert not got and len(errors) == 1, (case, got, errors)
                        assert issubclass(errors.pop()[0], ValueError), case
                        raised += 1
                        continue
                    cayley, torsion, pell = got
                    assert isinstance(cayley, float) and isinstance(torsion, float), case
                    assert pell is None or isinstance(pell, PellPair), case
                    values += 1
    assert (raised, values) == (216, 264)
    for evaluator in evaluators:
        with pytest.raises(DegenerateCubic):
            evaluator(MagicKind.HALF_TURN, 5, A, B, B * (1.0 + 1e-13))


# ---------------------------------------------------------------------------
# regression pin for the periodic sweep

SWEEP_9_4_SHA256 = "6e932686f9092f4edfa7f32a5d856ddc97ba06c6f64f6fc48fd8a48d4763fe53"
# the same sweep without pell_residual, unchanged since the Pell identity
# moved onto the dimensionless cubic
SWEEP_9_4_NO_PELL_SHA256 = "e9bd4f09c16eb238eb0c5add212fb5fc58a7ea516bf8c88ac10fba4238438a20"


def test_sweep_certificates_are_pinned_on_9_4():
    """SHA-256 of every CertificateBundle field of the benchmark sweep on (9, 4).

    Identity and flip-short at even n = 4..12, half-turn and flip-long at
    n = 3..12: 124 roots, each field as float.hex or None, once with and
    once without pell_residual.  (20, 3) stays out: its n = 8 root
    (beta = 3.000739966621415) reads 1.6e-8, but at half-turn n = 9
    (beta = 2.999850981215205) the Pell residual reads 6.4e-7, still
    within 2x of PELL_TOL.
    """
    digest, no_pell = hashlib.sha256(), hashlib.sha256()
    count = 0
    for system, n in SWEEP:
        for r in find_periodic_caustics(MagicKind(system), n, A, B, (0.0, A)):
            pell = "None" if r.pell_residual is None else r.pell_residual.hex()
            fields = [
                r.system.value, str(r.n), r.beta.hex(), r.cayley_value.hex(),
                r.torsion_residual.hex(), pell, r.closure_residual.hex(),
            ]
            digest.update((" ".join(fields) + "\n").encode())
            del fields[5]  # pell_residual
            no_pell.update((" ".join(fields) + "\n").encode())
            count += 1
    assert count == 124
    assert no_pell.hexdigest() == SWEEP_9_4_NO_PELL_SHA256
    assert digest.hexdigest() == SWEEP_9_4_SHA256


def test_sweep_builds_one_series_per_root(monkeypatch):
    """The determinant and the Pell seed of a root read one series: over the
    (9, 4) sweep of the pin above, _sqrt_cubic_coeffs runs once per root."""
    calls = []
    real = certificates._sqrt_cubic_coeffs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "_sqrt_cubic_coeffs", counting)
    roots = sum(
        len(find_periodic_caustics(MagicKind(system), n, A, B, (0.0, A))) for system, n in SWEEP
    )
    assert roots == 124
    assert len(calls) == roots


# ---------------------------------------------------------------------------
# rotation numbers


def _simulated_rotation(a, b, beta, reflections=10_000):
    """Rotation (ellipse caustic) or libration ratio (hyperbola caustic),
    measured over ``reflections`` bounces of the identity billiard."""
    fam = ConfocalFamily(a, b)
    table = TableSpec(fam, MagicKind.IDENTITY)
    s = tangent_phase(fam, beta)
    total, flips, prev_sign = 0.0, 0, 0
    prev_theta = math.atan2(s.at[1], s.at[0])
    for _ in range(reflections):
        s = step(table, s)
        theta = math.atan2(s.at[1], s.at[0])
        d = math.remainder(theta - prev_theta, 2.0 * math.pi)
        total += d
        prev_theta = theta
        if abs(d) > 1e-12:
            sign = 1 if d > 0.0 else -1
            if prev_sign and sign != prev_sign:
                flips += 1
            prev_sign = sign
    if beta < b:
        return abs(total) / (2.0 * math.pi * reflections)
    return flips / (2.0 * reflections)


def test_rotation_number_known_values():
    assert rotation_number(A, B, 1.44) == pytest.approx(1.0 / 6.0, abs=1e-3)
    assert rotation_number(A, B, 3.773519066611132) == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert rotation_number(A, B, 36.0 / 13.0) == pytest.approx(0.25, abs=1e-3)
    # libration fractions for hyperbola caustics
    assert rotation_number(A, B, 7.2) == pytest.approx(0.25, abs=1e-3)
    assert rotation_number(A, B, FL3_ROOT) == pytest.approx(1.0 / 6.0, abs=1e-3)


def test_rotation_number_exact_values():
    assert rotation_number(A, B, 36.0 / 13.0) == pytest.approx(0.25, abs=1e-12)
    assert rotation_number(A, B, 1.44) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rotation_number(A, B, 7.2) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("beta", [1.2, 3.3, 5.0, 7.9])
def test_rotation_number_matches_simulation(beta):
    """The closed form agrees with the ratio measured by 10,000 bounces."""
    assert rotation_number(A, B, beta) == pytest.approx(
        _simulated_rotation(A, B, beta), abs=1e-4
    )


def test_rotation_number_monotone_on_ellipse_range():
    vals = [rotation_number(A, B, beta) for beta in (0.4, 1.2, 2.2, 3.2, 3.8)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_rotation_number_degenerate():
    with pytest.raises(DegenerateFocal):
        rotation_number(A, B, 4.0)
    with pytest.raises(ValueError):
        rotation_number(A, B, 9.7)


def _rho_arguments():
    """Every (a, b, beta) at which full searches evaluate rho: (9, 4), (20, 3),
    (9, 4) scaled by 10^-6, 10^-3, 10^3 and 10^6, and six seeded families of
    scale 1e-6 to 1e6, the four systems at n = 3..40, with the bundles left out."""
    rng = np.random.default_rng(32)
    families = [(9.0, 4.0), (20.0, 3.0), *((A * s, B * s) for s in (1e-6, 1e-3, 1e3, 1e6))]
    families += [
        (a, a * r) for a, r in zip(10.0 ** rng.uniform(-6.0, 6.0, 6), rng.uniform(0.15, 0.85, 6))
    ]
    args = set()

    def recording(a, b, beta):
        args.add((a, b, beta))
        return _rho(a, b, beta)

    with mock.patch.object(certificates, "_rho", recording), \
            mock.patch.object(certificates, "_bundle", lambda *_: None):
        for a, b in families:
            for kind in MagicKind:
                for n in range(3, 41):
                    if n % 2 == 0 or kind is not MagicKind.IDENTITY:
                        find_periodic_caustics(kind, n, a, b, (0.0, a))
    return sorted(args)


def test_rho_is_scipy_ufuncs_bit_for_bit():
    """_rho calls the compiled routines behind scipy.special's ellipk and
    ellipkinc directly; it returns what the ufuncs give, compared by ==, at
    every argument of the searches above and at 20,000 seeded draws, a
    quarter of them within 1e-12 to 1e-3 relative of b."""
    import scipy.special as sc

    rng = np.random.default_rng(3201)
    draws = []
    for i in range(20_000):
        a = 10.0 ** rng.uniform(-6.0, 6.0)
        b = a * rng.uniform(0.01, 0.99)
        if i % 4 == 0:
            beta = b * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0))
        else:
            beta = rng.uniform(0.0, a)
        if 0.0 < beta < a and beta != b:
            draws.append((float(a), float(b), float(beta)))
    args = _rho_arguments()
    assert len(args) > 40_000
    for a, b, beta in args + draws:
        phi, m, _ = _caustic_modulus(a, b, beta)
        want = float(sc.ellipkinc(phi, m)) / (2.0 * float(sc.ellipk(m)))
        assert _rho(a, b, beta) == want, (a, b, beta)


def test_import_loads_no_scipy():
    """scipy is imported on first use: scipy.special.cython_special by the
    rotation number, which the search solves with a plain-Python Brent, and
    scipy.optimize by the Pell solver only for its fallback polish.  In a
    fresh process the import loads no scipy module, and a search then loads
    cython_special, whose compiled K and F the rotation number calls."""
    code = (
        "import sys, magicbilliards\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "magicbilliards.find_periodic_caustics(magicbilliards.MagicKind.IDENTITY, 6, 9.0, 4.0, (0.0, 9.0))\n"
        "print('scipy.special.cython_special' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["[]", "True"]


def test_search_and_cli_load_no_mpmath(tmp_path):
    """The torsion law runs on Python ints: in a fresh process the import, a
    search of each system on (9, 4) and (20, 3) at n = 10 and 11, and the
    simulate and topology commands leave mpmath unloaded; ec_add, which takes
    and returns mpf points, loads it."""
    runs = [
        ["simulate", "--x0", "0", "--y0", "2", "--dx", "0", "--dy", "-1", "--svg",
         str(tmp_path / "run.svg"), "--out", str(tmp_path / "run.csv")],
        ["topology", "--system", "flip-long", "--out", str(tmp_path / "graph.json")],
        ["topology", "--system", "half-turn", "--beta", "2.5", "--out", str(tmp_path / "level.json")],
    ]
    code = (
        "import sys\n"
        "from magicbilliards import CurvePoint, MagicKind, ec_add, find_periodic_caustics\n"
        "from magicbilliards.cli import main\n"
        "found = 0\n"
        "for system in MagicKind:\n"
        "    for a, b in ((9.0, 4.0), (20.0, 3.0)):\n"
        "        for n in (10, 11):\n"
        "            if n % 2 == 0 or system is not MagicKind.IDENTITY:\n"
        "                found += len(find_periodic_caustics(system, n, a, b, (0.0, a)))\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "before = 'mpmath' in sys.modules\n"
        "# the three 2-torsion points sum to O: (9, 0) + (4, 0) = (2.5, 0)\n"
        "r = ec_add(CurvePoint(9.0, 0.0), CurvePoint(4.0, 0.0), 9.0, 4.0, 2.5)\n"
        "print(found > 0, codes, before, 'mpmath' in sys.modules, (r.x, r.y) == (2.5, 0))\n"
    )
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "True [0, 0, 0] False True True"


def test_search_loads_scipy_optimize_only_for_the_pell_polish(tmp_path):
    """In a fresh process a (9, 4) search of each system and the CLI's
    ``periodic --a 9 --b 4 --n 8`` leave scipy.optimize unloaded; the
    (20, 3) identity n = 10 search loads it, for the polish of its roots
    next to b."""
    argv = ["periodic", "--a", "9", "--b", "4", "--n", "8", "--out", str(tmp_path / "p.json")]
    code = (
        "import sys\n"
        "from magicbilliards import MagicKind, find_periodic_caustics\n"
        "from magicbilliards.cli import main\n"
        "def loaded():\n"
        "    return 'scipy.optimize' in sys.modules\n"
        "for system in MagicKind:\n"
        "    for n in (7, 8):\n"
        "        if n % 2 == 0 or system is not MagicKind.IDENTITY:\n"
        "            find_periodic_caustics(system, n, 9.0, 4.0, (0.0, 9.0))\n"
        "after_search = loaded()\n"
        f"rc = main({argv!r})\n"
        "after_cli = loaded()\n"
        "find_periodic_caustics(MagicKind.IDENTITY, 10, 20.0, 3.0, (0.0, 20.0))\n"
        "print(after_search, rc, after_cli, loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(magicbilliards.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False 0 False True"
