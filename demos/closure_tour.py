"""A tour of periodic closure in magic billiards.

In an ordinary elliptical billiard every chord stays tangent to one
confocal conic (the caustic).  A *magic* billiard additionally relocates
the ball after each bounce with a boundary bijection -- here a flip
across an axis or a half-turn -- and the caustic survives that, so the
whole periodicity story can be told in terms of the caustic parameter.
This script walks through the three certificates the library computes
for a closure claim and shows they agree with plain simulation.
"""
import math

from magicbilliards import (
    BoundaryPhase,
    ConfocalFamily,
    MagicKind,
    TableSpec,
    closure_defect,
    detect_closure,
    find_periodic_caustics,
    tangent_directions,
    tangent_phase,
)

fam = ConfocalFamily(9.0, 4.0)  # x^2/9 + y^2/4 = 1, foci at (+-sqrt(5), 0)

# ---------------------------------------------------------------------------
# 1. watch a 4-periodic orbit close

# For the identity system (ordinary billiard) the caustic 36/13 is the
# classic 4-periodic one.  Launch tangent to it and measure the return.
beta4 = 36.0 / 13.0
p = fam.boundary_point(0.9)
v = tangent_directions(fam, beta4, p)[0]
table = TableSpec(fam, MagicKind.IDENTITY)
print("4-periodic caustic, identity system")
print("  closure defect after 4 bounces:",
      closure_defect(table, BoundaryPhase(p, v), 4))

rep = detect_closure(table, BoundaryPhase(p, v), 10)
print(f"  detected period {rep.period}, winding {rep.winding}")

# The same caustic closes the *magic* systems too -- for even periods the
# closure condition does not depend on the boundary map at all.
for kind in (MagicKind.FLIP_LONG, MagicKind.FLIP_SHORT, MagicKind.HALF_TURN):
    d = closure_defect(TableSpec(fam, kind), BoundaryPhase(p, v), 4)
    print(f"  {kind.value:10s} closure defect: {d:.2e}")

# ---------------------------------------------------------------------------
# 2. odd periods are where the systems differ

# A flip across the long axis admits 3-periodic orbits only for hyperbola
# caustics; the search solves 3 rho(beta) = m once per winding m allowed
# by the closed-form rotation number and then cross-checks every root.
print("\n3-periodic flip-long search over the hyperbola range (4, 9):")
for bundle in find_periodic_caustics(MagicKind.FLIP_LONG, 3, 9.0, 4.0, (4.0, 9.0)):
    print(f"  beta = {bundle.beta:.12f}")
    print(f"    determinant value  {bundle.cayley_value:+.2e}")
    print(f"    torsion residual   {bundle.torsion_residual:.2e}")
    print(f"    pell residual      {bundle.pell_residual:.2e}")
    print(f"    closure residual   {bundle.closure_residual:.2e}")
    print(f"    verified           {bundle.verified}")

# A flip across the short axis can never close in an odd number of steps:
print("3-periodic flip-short search:",
      find_periodic_caustics(MagicKind.FLIP_SHORT, 3, 9.0, 4.0, (0.1, 8.9)) or "no roots (as it must be)")

# ---------------------------------------------------------------------------
# 3. the certificates are sharp

# Nudge the flip-long root off by a tenth of a percent of a and the
# trajectory visibly fails to close: the residual jumps ten orders.
root = find_periodic_caustics(MagicKind.FLIP_LONG, 3, 9.0, 4.0, (4.0, 9.0))[0].beta
# tangent_phase is the launch the certificate bundles' closure check uses.
for beta in (root, root + 0.009):
    d = closure_defect(TableSpec(fam, MagicKind.FLIP_LONG), tangent_phase(fam, beta), 3)
    print(f"  beta = {beta:.6f}  ->  closure defect {d:.2e}")

print("\ndone; same numbers as the acceptance suite, just slower to read.")
