"""Numerical topology of the caustic foliation of magic billiards.

Regular caustic levels are unions of tori; this module counts their
connected components by tagging simulated trajectories with coarse
discrete labels (winding sense for ellipse caustics; vertical direction,
hyperbola branch, and axis side for hyperbola caustics) and merging
labels that occur on a single trajectory.  Singular levels (caustic
parameter 0, b, or a) are described by their closed orbits, counted
from the magic map's signs, and their separatrix families, traced from
the foci; the two counts pick out one of the complexity-one atoms
A, B, A**, C2.  Finally, each studied system carries a small static
graph — atoms joined along torus families, decorated with the marks
(r, eps, n) transcribed from figure data — which is cross-checked
against the numeric reports whenever it is constructed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BoundaryPhase,
    DegenerateLevel,  # the error classify_level raises through _check_level
    MagicKind,
    TableSpec,
    _check_level,
    _level_grid,
    _walk,
    step_inverse,
)
from .geometry import ConfocalFamily, classify_caustic, tangent_directions

# The tests' independent reference for the winding labels: the polar angle
# swept over sliding windows of WINDING_WINDOW segments, a window sweeping
# less than WINDING_MIN_SWEEP giving no label.  The labels themselves are
# each segment's own sense (see _level_signatures): where the rotation
# number lies near a rational with a small denominator, every window of a
# flip map's orbit sweeps the same way, and CW and CCW never meet.
WINDING_WINDOW = 32
WINDING_MIN_SWEEP = math.pi / 8
# angular offset of the separatrix seeds from the long-axis vertices
SEP_SEED_OFFSET = 1e-4
# how many segments a focal trajectory stays resolvable before the
# focus-line test degenerates in double precision
SEP_MAX_SEGMENTS = 14
# seeds labelled together: a seed's labels never depend on another's, and
# small blocks keep the (seeds x steps) grids small
SEED_BLOCK = 8

_ATOM_LOOKUP = {
    (1, 0): "A",
    (2, 0): "A,A",
    (1, 2): "B",
    (2, 2): "A**",
    (2, 4): "C2",
}


class UnknownSystem(ValueError):
    """No transcribed Fomenko graph exists for this table/map combination."""


class TopologyMismatch(RuntimeError):
    """Numeric level reports contradict the transcribed graph data."""


@dataclass(frozen=True)
class LevelSetReport:
    beta: float
    kind: str
    component_count: int
    sample_count: int
    merge_evidence: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SingularReport:
    level: float
    closed_orbits: int
    separatrices: int
    atom: str


@dataclass(frozen=True)
class GraphAtom:
    id: str
    type: str
    level: str  # "0" | "b" | "a"


@dataclass(frozen=True)
class GraphEdge:
    src: str
    dst: str
    r: str | None  # rational as a string, "inf", or None when unavailable
    eps: int | None


@dataclass(frozen=True)
class FomenkoGraph:
    system: str
    atoms: tuple[GraphAtom, ...]
    edges: tuple[GraphEdge, ...]
    family_mark: int | None
    provenance: str

    @property
    def singular_levels(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {"0": (), "b": (), "a": ()}
        for atom in self.atoms:
            out[atom.level] = out[atom.level] + (atom.id,)
        return out

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "atoms": [{"id": x.id, "type": x.type} for x in self.atoms],
            "edges": [
                {"from": e.src, "to": e.dst, "r": e.r, "eps": e.eps}
                for e in self.edges
            ],
            "n": self.family_mark,
            "singular_levels": {k: list(v) for k, v in self.singular_levels.items()},
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# seeding


def _tangent_seeds(table: TableSpec, beta: float, samples: int) -> list[BoundaryPhase]:
    """Phases tangent to C_beta, spread over the outer boundary and both branches.

    Hyperbola caustics are reachable only from part of the boundary, so
    the scan oversamples the boundary parameter, then thins the
    admissible points to ``samples`` evenly spaced entries, alternating
    the tangent branch from seed to seed.  A scan point is admissible
    when :func:`tangent_directions` finds a tangent there: its vertical
    case, or a discriminant >= 0, computed here for all points at once in
    the same operation order; the directions are found only at the
    points kept.
    """
    fam = table.fam
    scan = 8 * samples
    points = [fam.boundary_point(2.0 * math.pi * (k + 0.37) / scan) for k in range(scan)]
    x, y = np.array(points).T
    aq = fam.a - beta - x * x
    bq = fam.b - beta - y * y
    hits = np.flatnonzero((np.abs(aq) < 1e-12 * fam.a) | (x * x * y * y - aq * bq >= 0.0))
    if not len(hits):
        return []
    stride = len(hits) / samples
    seeds: list[BoundaryPhase] = []
    for i in range(samples):
        p = points[hits[min(int(i * stride), len(hits) - 1)]]
        dirs = tangent_directions(fam, beta, p)
        seeds.append(BoundaryPhase(p, dirs[i % len(dirs)]))
    return seeds


# ---------------------------------------------------------------------------
# regular levels


_WINDING_LABELS = ("CCW", "CW")
# vertical direction, hyperbola branch, long-axis side
_HYPERBOLA_LABELS = tuple(ud + lr + side for ud in "UD" for lr in "RL" for side in "TBX")


def _hyperbola_labels(
    fam: ConfocalFamily,
    beta: float,
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """Index into _HYPERBOLA_LABELS of each segment tangent to C_beta, or -1.

    A segment runs from (x, y) along (vx, vy) to a wall point at height
    qy (before magic).  Its label combines the vertical direction (U/D),
    the branch touched (R/L, by the sign of the tangency point's x), and
    the long-axis side of the segment (T/B, or X when it crosses the
    axis).  Near-horizontal segments, tangency points near the short
    axis, and segments touching the long axis get no label.

    The tangency point is the vertex t = −gamma/alpha of the quadratic
    for the segment's line meeting C_beta.  That quadratic's discriminant
    is zero in exact arithmetic, so its computed sign is roundoff and is
    not consulted.  A segment along an asymptote of C_beta has alpha = 0
    up to roundoff; when it rounds to 0 exactly the tangency point is at
    x = ±inf, labelled by its sign as a roundoff-sized alpha would be.
    """
    aa = fam.a - beta
    bb = fam.b - beta
    alpha = vx * vx / aa + vy * vy / bb
    gamma = (x * vx) / aa + (y * vy) / bb
    with np.errstate(divide="ignore"):
        xstar = x - (gamma / alpha) * vx
    top = (y > 0.0) & (qy > 0.0)
    bottom = (y < 0.0) & (qy < 0.0)
    cross = y * qy < 0.0
    side = np.where(top, 0, np.where(bottom, 1, 2))
    code = np.where(vy > 0.0, 0, 6) + np.where(xstar > 0.0, 0, 3) + side
    labelled = (np.abs(vy) >= 1e-9) & (np.abs(xstar) >= 1e-9) & (top | bottom | cross)
    return np.where(labelled, code, -1)


def _level_signatures(
    table: TableSpec, beta: float, seeds: list[BoundaryPhase], steps: int
) -> list[set[str]]:
    """Labels observed along each seed's trajectory, read off its closed-form orbit.

    The level is set up once for all seeds, as in :func:`level_orbits`,
    and its grid is read in blocks of SEED_BLOCK seeds.

    Ellipse caustics get winding labels {CW, CCW}: the sense in which
    each segment turns about the center, the sign of px qy - py qx for a
    segment from p to q.  The segment's line touches an ellipse caustic,
    which surrounds the center, so the sign is never zero.  Hyperbola
    caustics get the segment labels of :func:`_hyperbola_labels`.
    """
    fam = table.fam
    winding = beta < fam.b
    names = _WINDING_LABELS if winding else _HYPERBOLA_LABELS
    grid = _level_grid(table, beta, seeds, steps)
    out: list[set[str]] = []
    for lo in range(0, len(seeds), SEED_BLOCK):
        block = seeds[lo:lo + SEED_BLOCK]
        x, y, qx, qy, _ = grid(slice(lo, lo + SEED_BLOCK))
        # impact 0 is the seed; segment i runs from impact i to wall point i + 1
        px = np.hstack([[[s.at[0]] for s in block], x[:, :-1]])
        py = np.hstack([[[s.at[1]] for s in block], y[:, :-1]])
        if winding:
            spin = px * qy - py * qx
            seen = np.stack([spin > 0.0, spin < 0.0], axis=1).any(axis=2)  # CCW, CW
        else:
            vx, vy = qx - px, qy - py
            h = np.hypot(vx, vy)
            code = _hyperbola_labels(fam, beta, px, py, vx / h, vy / h, qy)
            seen = (code[:, :, None] == np.arange(len(names))).any(axis=1)
        out += [{names[j] for j in np.flatnonzero(row)} for row in seen]
    return out


def _merge_count(signatures: list[set[str]]) -> tuple[int, list[tuple[str, str]]]:
    """Union-find over labels: labels co-occurring on one trajectory merge."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    evidence: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for sig in signatures:
        labs = sorted(sig)
        for lab in labs:
            parent.setdefault(lab, lab)
        for other in labs[1:]:
            ra, rb = find(labs[0]), find(other)
            if ra != rb:
                parent[rb] = ra
            pair = (labs[0], other)
            if pair not in seen:
                seen.add(pair)
                evidence.append(pair)
    classes = {find(lab) for lab in parent}
    return (len(classes) if classes else 1), evidence


def classify_level(
    table: TableSpec, beta: float, samples: int = 64, steps: int = 1000
) -> LevelSetReport:
    """Number of connected components of the regular level at caustic beta.

    Seeds ``samples`` tangent phases, takes ``steps`` bounces of each in
    closed form as :func:`level_orbits` does, and merges the discrete labels
    observed on a common trajectory; the component count is the number of
    remaining label classes (1 when no trajectory carries a label).
    """
    if samples < 16:
        raise ValueError("need samples >= 16")
    if steps <= WINDING_WINDOW:
        # the windowed reference of the winding labels needs a whole window
        raise ValueError(f"need steps > {WINDING_WINDOW}")
    _check_level(table, beta)
    kind = "ellipse" if beta < table.fam.b else "hyperbola"
    seeds = _tangent_seeds(table, beta, samples)
    signatures = _level_signatures(table, beta, seeds, steps) if seeds else []
    count, evidence = _merge_count([sig for sig in signatures if sig])
    return LevelSetReport(beta, kind, count, len(seeds), tuple(evidence))


# ---------------------------------------------------------------------------
# singular levels


def _sep_label(
    fam: ConfocalFamily, px: float, py: float, vx: float, vy: float, qy: float
) -> str | None:
    """Asymptotic label of one near-focal segment, or None once unresolvable.

    The segment runs from (px, py) along (vx, vy) to a wall point at
    height qy (before magic).  Its line should pass very near exactly
    one focus; the label combines which focus (F1/F2), the vertical
    direction (U/D), and the long-axis side of the segment (T/B/X).  The
    focus test is a ratio test on the two point-line distances so it
    keeps working while the trajectory converges toward the axis.
    """
    c = fam.focal_distance
    d1 = abs((c - px) * vy + py * vx)
    d2 = abs((-c - px) * vy + py * vx)
    lo, hi = sorted((d1, d2))
    if lo > 3e-5 or hi < 10.0 * lo + 1e-13:
        return None
    foc = "F1" if d1 < d2 else "F2"
    if abs(vy) < 1e-9:
        return None
    ud = "U" if vy > 0.0 else "D"
    if py > 0.0 and qy > 0.0:
        side = "T"
    elif py < 0.0 and qy < 0.0:
        side = "B"
    elif py * qy < 0.0:
        side = "X"
    else:
        return None
    return f"{foc}-{ud}{side}"


def _sep_signature(table: TableSpec, s0: BoundaryPhase) -> tuple[frozenset, frozenset]:
    """(forward, backward) label sets of one focal trajectory.

    Forward, state k of one :func:`_walk` is ``out[7k:7k + 5]`` and its
    segment ends at height ``out[7k + 6]``, before magic.
    """
    fam = table.fam
    out = _walk(table, s0, SEP_MAX_SEGMENTS)
    fwd: set[str] = set()
    for k in range(0, 7 * SEP_MAX_SEGMENTS, 7):
        lab = _sep_label(fam, *out[k:k + 4], out[k + 6])
        if lab is None:
            break
        fwd.add(lab)
    bwd: set[str] = set()
    s = s0
    for _ in range(SEP_MAX_SEGMENTS):
        s = step_inverse(table, s)
        lab = _sep_label(fam, *s.at, *s.v, _walk(table, s, 1)[6])
        if lab is None:
            break
        bwd.add(lab)
    return frozenset(fwd), frozenset(bwd)


def _focal_seeds(fam: ConfocalFamily) -> list[BoundaryPhase]:
    """Eight seeds just off the long-axis vertices, aimed at each focus."""
    eps = SEP_SEED_OFFSET
    c = fam.focal_distance
    seeds = []
    for t in (eps, math.pi - eps, math.pi + eps, 2.0 * math.pi - eps):
        p = fam.boundary_point(t)
        for fx in (c, -c):
            dx, dy = fx - p[0], -p[1]
            h = math.hypot(dx, dy)
            seeds.append(BoundaryPhase(p, (dx / h, dy / h)))
    return seeds


def _separatrix_count(table: TableSpec) -> int:
    """Distinct separatrix families on the focal level lambda = b.

    The eight :func:`_focal_seeds` cover every family; families are told
    apart by the (forward, backward) asymptotic label sets.
    """
    return len({_sep_signature(table, s0) for s0 in _focal_seeds(table.fam)})


def _axis_orbits(table: TableSpec, s: float) -> int:
    """Closed orbits along an axis whose magic sign is s (see singular_level_report)."""
    if table.inner_lam is None:
        return 2 if s < 0.0 else 1
    return 1 if s < 0.0 else 2


def singular_level_report(table: TableSpec, which: float) -> SingularReport:
    """Closed-orbit and separatrix counts (and the atom) of a singular level.

    ``which`` must be one of the singular levels 0, b and a, as
    :func:`classify_caustic` tells them.  Their closed orbits are fixed
    by the magic signs alone:

    * level 0: the boundary slides, one per winding sense; an
      orientation-reversing map swaps the senses, joining them into one.
    * levels b and a: the long- and short-axis orbit, with s the map's
      sign along the axis, sx at b and sy at a.  On the ellipse the axis
      orbit is one 2-cycle through both vertices, and s = -1 sends each
      bounce back to the vertex it left: two 1-cycles.  On the annulus
      each end of the axis is a 2-cycle between its vertex and the inner
      wall, and s = -1 swaps the ends: one 4-cycle.

    Separatrices exist only on the focal level b, where
    :func:`_separatrix_count` traces them.
    """
    kind = classify_caustic(table.fam, which).kind
    sx, sy = table.outer_map.signs
    if kind == "degenerate-boundary":
        closed, seps = (1 if table.outer_map.orientation_reversing else 2), 0
    elif kind == "degenerate-focal":
        closed, seps = _axis_orbits(table, sx), _separatrix_count(table)
    elif kind == "degenerate-short-axis":
        closed, seps = _axis_orbits(table, sy), 0
    else:
        raise ValueError(f"{which} is not a singular level of the family")

    atom = _ATOM_LOOKUP.get((closed, seps))
    if atom is None:
        raise TopologyMismatch(
            f"level {which}: ({closed} closed, {seps} separatrices) matches no known atom"
        )
    return SingularReport(which, closed, seps, atom)


# ---------------------------------------------------------------------------
# Fomenko graphs (static transcribed data, cross-checked numerically)

_PROV = "transcribed figure data"
_PROV_NO_MARKS = "transcribed figure data; marks unavailable"

# (shape, kind) -> (atom rows, edge rows, family mark, provenance)
_GRAPH_DATA: dict[tuple[str, MagicKind], tuple] = {
    ("ellipse", MagicKind.FLIP_LONG): (
        [("t1", "A", "0"), ("c", "B", "b"), ("t2", "A", "a"), ("t3", "A", "a")],
        [("c", "t1", "0", 1), ("c", "t2", "1/2", 1), ("c", "t3", "1/2", 1)],
        -2,
        _PROV,
    ),
    ("ellipse", MagicKind.FLIP_SHORT): (
        [("t1", "A", "0"), ("c", "A**", "b"), ("t2", "A", "a")],
        [("c", "t1", "0", 1), ("c", "t2", "0", 1)],
        0,
        _PROV,
    ),
    ("ellipse", MagicKind.HALF_TURN): (
        [
            ("t1", "A", "0"),
            ("t2", "A", "0"),
            ("c", "C2", "b"),
            ("t3", "A", "a"),
            ("t4", "A", "a"),
        ],
        [
            ("c", "t1", "0", 1),
            ("c", "t2", "0", 1),
            ("c", "t3", "0", 1),
            ("c", "t4", "0", 1),
        ],
        -4,
        _PROV,
    ),
    ("annulus", MagicKind.FLIP_LONG): (
        [("t1", "A", "0"), ("c", "A**", "b"), ("t2", "A", "a")],
        [("c", "t1", None, None), ("c", "t2", None, None)],
        None,
        _PROV_NO_MARKS,
    ),
    ("annulus", MagicKind.FLIP_SHORT): (
        [("t1", "A", "0"), ("c", "B", "b"), ("t2", "A", "a"), ("t3", "A", "a")],
        [("c", "t1", None, None), ("c", "t2", None, None), ("c", "t3", None, None)],
        None,
        _PROV_NO_MARKS,
    ),
    ("annulus", MagicKind.HALF_TURN): (
        [("t1", "A", "0"), ("t2", "A", "0"), ("c", "B", "b"), ("t3", "A", "a")],
        [("c", "t1", "1/2", 1), ("c", "t2", "1/2", 1), ("c", "t3", "inf", 1)],
        None,
        _PROV,
    ),
}


def _cross_check(table: TableSpec, atoms: list[GraphAtom], edges: list[GraphEdge]) -> None:
    """Fail loudly when numeric reports contradict the transcribed graph."""
    fam = table.fam
    by_level: dict[str, list[GraphAtom]] = {"0": [], "b": [], "a": []}
    for atom in atoms:
        by_level[atom.level].append(atom)
    center = by_level["b"][0]

    # closed-orbit counts at the torus ends must match the atom counts
    for level, lam in (("0", 0.0), ("a", fam.a)):
        rep = singular_level_report(table, lam)
        if rep.closed_orbits != len(by_level[level]):
            raise TopologyMismatch(
                f"level {level}: {rep.closed_orbits} closed orbits vs "
                f"{len(by_level[level])} transcribed atoms"
            )
    # the focal atom itself
    rep_b = singular_level_report(table, fam.b)
    if rep_b.atom != center.type:
        raise TopologyMismatch(
            f"focal level: numeric atom {rep_b.atom} vs transcribed {center.type}"
        )
    # regular component counts on each side must match the edge counts
    ids_e = {x.id for x in by_level["0"]}
    ids_h = {x.id for x in by_level["a"]}
    n_edges_e = sum(1 for e in edges if e.dst in ids_e or e.src in ids_e)
    n_edges_h = sum(1 for e in edges if e.dst in ids_h or e.src in ids_h)
    beta_e = (5.0 / 6.0) * table.inner_lam if table.inner_lam else 0.625 * fam.b
    beta_h = fam.b + 0.4 * (fam.a - fam.b)
    for beta, expected, side in ((beta_e, n_edges_e, "ellipse"), (beta_h, n_edges_h, "hyperbola")):
        got = classify_level(table, beta, samples=16, steps=400).component_count
        if got != expected:
            raise TopologyMismatch(
                f"{side}-caustic components: measured {got} vs {expected} transcribed edges"
            )


def fomenko_graph(table: TableSpec) -> FomenkoGraph:
    """The transcribed Fomenko graph of one of the six studied systems.

    The atoms, edges, and marks are static figure data; construction
    re-derives the checkable part (atom types, closed-orbit counts,
    component counts) numerically and raises TopologyMismatch on any
    disagreement.  The numeric marks (r, eps, n) themselves are data,
    not computation: deriving them needs admissible-coordinate
    machinery far beyond simulation.
    """
    key = (table.shape, table.outer_map)
    if key not in _GRAPH_DATA:
        raise UnknownSystem(
            f"no transcribed graph for {table.shape} with {table.outer_map.value}"
        )
    atom_rows, edge_rows, mark, prov = _GRAPH_DATA[key]
    atoms = [GraphAtom(*row) for row in atom_rows]
    edges = [GraphEdge(*row) for row in edge_rows]
    _cross_check(table, atoms, edges)
    name = f"{table.shape}:{table.outer_map.value}"
    return FomenkoGraph(name, tuple(atoms), tuple(edges), mark, prov)
