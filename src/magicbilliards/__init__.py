"""Magic billiards in an ellipse and in a confocal elliptic annulus.

A *magic* billiard reflects off the wall and then teleports along a
boundary symmetry (flip over an axis, or a half turn).  The package
simulates these systems, certifies periodic caustics three independent
ways (Hankel determinants of a square-root series, torsion on a cubic
curve, polynomial Pell identities), and classifies the topology of the
level sets (component counts, singular-level atoms, Fomenko graphs).

Squared semi-axes convention throughout: the outer boundary is
x^2/a + y^2/b = 1 with a > b > 0, and the confocal family is indexed by
lambda with 0 <= lambda <= a.
"""

from .certificates import (
    CayleyMarker,
    CertificateBundle,
    CurvePoint,
    DegenerateCubic,
    DegenerateFocal,
    INFINITY,
    PellPair,
    UnsupportedParity,
    cayley_det,
    ec_add,
    ec_neg,
    find_periodic_caustics,
    pell_solve,
    rotation_number,
    torsion_check,
)
from .dynamics import (
    BoundaryPhase,
    ClosureReport,
    Crossings,
    DegenerateLevel,
    MagicKind,
    TableSpec,
    Trajectory,
    closure_defect,
    detect_closure,
    level_orbits,
    phase_distance,
    step,
    step_inverse,
    tangent_phase,
    trajectory,
)
from .geometry import (
    CausticId,
    CenterDegenerate,
    ConfocalFamily,
    EllipticCoords,
    NoForwardHit,
    NotOnConic,
    caustic_of_line,
    classify_caustic,
    normal_at,
    tangent_directions,
    to_elliptic,
)
from .topology import (
    FomenkoGraph,
    GraphAtom,
    GraphEdge,
    LevelSetReport,
    SingularReport,
    TopologyMismatch,
    UnknownSystem,
    classify_level,
    fomenko_graph,
    singular_level_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPhase",
    "CausticId",
    "CayleyMarker",
    "CenterDegenerate",
    "CertificateBundle",
    "ClosureReport",
    "ConfocalFamily",
    "Crossings",
    "CurvePoint",
    "DegenerateCubic",
    "DegenerateFocal",
    "DegenerateLevel",
    "EllipticCoords",
    "FomenkoGraph",
    "GraphAtom",
    "GraphEdge",
    "INFINITY",
    "LevelSetReport",
    "MagicKind",
    "NoForwardHit",
    "NotOnConic",
    "PellPair",
    "SingularReport",
    "TableSpec",
    "TopologyMismatch",
    "Trajectory",
    "UnknownSystem",
    "UnsupportedParity",
    "caustic_of_line",
    "cayley_det",
    "classify_caustic",
    "classify_level",
    "closure_defect",
    "detect_closure",
    "ec_add",
    "ec_neg",
    "find_periodic_caustics",
    "fomenko_graph",
    "level_orbits",
    "normal_at",
    "pell_solve",
    "phase_distance",
    "rotation_number",
    "singular_level_report",
    "step",
    "step_inverse",
    "tangent_directions",
    "tangent_phase",
    "to_elliptic",
    "torsion_check",
    "trajectory",
]
