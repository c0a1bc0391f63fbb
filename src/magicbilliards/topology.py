"""Numerical topology of the caustic foliation of magic billiards.

Regular caustic levels are unions of tori; this module counts their
connected components by tagging simulated trajectories with coarse
discrete labels (winding sense for ellipse caustics; vertical direction,
hyperbola branch, and axis side for hyperbola caustics) and merging
labels that occur on a single trajectory.  Singular levels (caustic
parameter 0, b, or a) are described by counting their closed orbits and
separatrix families, which picks out one of the complexity-one atoms
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
    MagicKind,
    TableSpec,
    _propagate,
    phase_distance,
    step,
    step_batch,
    step_inverse,
)
from .geometry import ConfocalFamily, tangent_directions

# sliding-window length (in segments) and minimum swept angle for a
# winding label; windows sweeping less stay Indeterminate
WINDING_WINDOW = 32
WINDING_MIN_SWEEP = math.pi / 8
# angular offset of the separatrix seeds from the long-axis vertices
SEP_SEED_OFFSET = 1e-4
# how many segments a focal trajectory stays resolvable before the
# focus-line test degenerates in double precision
SEP_MAX_SEGMENTS = 14
DEGEN_RTOL = 1e-9

_ATOM_LOOKUP = {
    (1, 0): "A",
    (2, 0): "A,A",
    (1, 2): "B",
    (2, 2): "A**",
    (2, 4): "C2",
}


class DegenerateLevel(ValueError):
    """The requested caustic level is singular (or empty for this table)."""


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
    the tangent branch from seed to seed.
    """
    fam = table.fam
    scan = 8 * samples
    hits: list[tuple[tuple[float, float], tuple]] = []
    for k in range(scan):
        t = 2.0 * math.pi * (k + 0.37) / scan
        p = fam.boundary_point(t)
        dirs = tangent_directions(fam, beta, p)
        if dirs:
            hits.append((p, dirs))
    if not hits:
        return []
    stride = len(hits) / samples
    seeds: list[BoundaryPhase] = []
    for i in range(samples):
        p, dirs = hits[min(int(i * stride), len(hits) - 1)]
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
    not consulted.
    """
    aa = fam.a - beta
    bb = fam.b - beta
    alpha = vx * vx / aa + vy * vy / bb
    gamma = (x * vx) / aa + (y * vy) / bb
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
    """Labels observed along each seed's trajectory, all seeds stepped together.

    Ellipse caustics get winding labels {CW, CCW}: the polar angle of the
    impact points is summed over sliding windows of WINDING_WINDOW
    segments, kept as a ring buffer of the last increments; a window
    sweeping less than WINDING_MIN_SWEEP is indeterminate and contributes
    no label.  Hyperbola caustics get the segment labels of
    :func:`_hyperbola_labels`.
    """
    fam = table.fam
    n = len(seeds)
    x, y, vx, vy = (np.array(c, dtype=float) for c in zip(*(s.at + s.v for s in seeds)))
    winding = beta < fam.b
    names = _WINDING_LABELS if winding else _HYPERBOLA_LABELS
    seen = np.zeros((n, len(names)), dtype=bool)
    rows = np.arange(n)
    ring = np.zeros((WINDING_WINDOW, n))
    acc = np.zeros(n)
    prev = np.arctan2(y, x)
    sy = table.outer_map.signs[1]
    for i in range(steps):
        x1, y1, vx1, vy1, inner = step_batch(table, x, y, vx, vy)
        if winding:
            th = np.arctan2(y1, x1)
            d = th - prev
            d = np.where(d > math.pi, d - 2.0 * math.pi, d)
            d = np.where(d < -math.pi, d + 2.0 * math.pi, d)
            prev = th
            acc += d
            k = i % WINDING_WINDOW
            if i >= WINDING_WINDOW:
                acc -= ring[k]
                seen[:, 0] |= acc > WINDING_MIN_SWEEP
                seen[:, 1] |= acc < -WINDING_MIN_SWEEP
            ring[k] = d
        else:
            # the wall point before magic, from the one after it
            qy = np.where(inner, y1, sy * y1)
            code = _hyperbola_labels(fam, beta, x, y, vx, vy, qy)
            hit = code >= 0
            seen[rows[hit], code[hit]] = True
        x, y, vx, vy = x1, y1, vx1, vy1
    return [{names[j] for j in np.flatnonzero(row)} for row in seen]


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

    Seeds ``samples`` tangent phases, simulates ``steps`` bounces of all
    of them together with :func:`step_batch`, and merges the discrete
    labels observed on a common trajectory; the component count is the
    number of remaining label classes (1 when every trajectory stays
    indeterminate).
    """
    fam = table.fam
    if samples < 16:
        raise ValueError("need samples >= 16")
    if not (0.0 < beta < fam.a):
        raise ValueError(f"caustic parameter {beta} outside (0, {fam.a})")
    tol = DEGEN_RTOL * fam.a
    if min(abs(beta), abs(beta - fam.b), abs(beta - fam.a)) < tol:
        raise DegenerateLevel(f"beta={beta} is a singular level")
    if table.inner_lam is not None and table.inner_lam - tol <= beta < fam.b:
        raise DegenerateLevel(
            f"beta={beta}: ellipse caustics inside the inner wall carry no annulus trajectories"
        )
    kind = "ellipse" if beta < fam.b else "hyperbola"
    seeds = _tangent_seeds(table, beta, samples)
    signatures = _level_signatures(table, beta, seeds, steps) if seeds else []
    count, evidence = _merge_count([sig for sig in signatures if sig])
    return LevelSetReport(beta, kind, count, len(seeds), tuple(evidence))


# ---------------------------------------------------------------------------
# singular levels


def _state_key(s: BoundaryPhase) -> tuple:
    return (
        round(s.at[0], 9),
        round(s.at[1], 9),
        round(s.v[0], 9),
        round(s.v[1], 9),
        s.component,
    )


def _cycle_count(table: TableSpec, seeds: list[BoundaryPhase], max_period: int = 8) -> int:
    """Distinct phase cycles through the given (exactly periodic) seeds."""
    tol = 1e-9 * math.sqrt(table.fam.a)
    cycles: list[set[tuple]] = []
    for s0 in seeds:
        k0 = _state_key(s0)
        if any(k0 in c for c in cycles):
            continue
        visited = {k0}
        s = s0
        for _ in range(max_period):
            s = step(table, s)
            if phase_distance(table.fam, s, s0) < tol:
                break
            visited.add(_state_key(s))
        cycles.append(visited)
    return len(cycles)


def _sep_label(table: TableSpec, s: BoundaryPhase) -> str | None:
    """Asymptotic label of one near-focal segment, or None once unresolvable.

    The segment's line should pass very near exactly one focus; the
    label combines which focus (F1/F2), the vertical direction (U/D),
    and the long-axis side of the segment (T/B/X).  The focus test is a
    ratio test on the two point-line distances so it keeps working while
    the trajectory converges toward the axis.
    """
    fam = table.fam
    c = fam.focal_distance
    px, py = s.at
    vx, vy = s.v
    d1 = abs((c - px) * vy + py * vx)
    d2 = abs((-c - px) * vy + py * vx)
    lo, hi = sorted((d1, d2))
    if lo > 3e-5 or hi < 10.0 * lo + 1e-13:
        return None
    foc = "F1" if d1 < d2 else "F2"
    if abs(vy) < 1e-9:
        return None
    ud = "U" if vy > 0.0 else "D"
    q = _propagate(table, s)[0]
    if py > 0.0 and q[1] > 0.0:
        side = "T"
    elif py < 0.0 and q[1] < 0.0:
        side = "B"
    elif py * q[1] < 0.0:
        side = "X"
    else:
        return None
    return f"{foc}-{ud}{side}"


def _sep_signature(table: TableSpec, s0: BoundaryPhase) -> tuple[frozenset, frozenset]:
    """(forward, backward) label sets of one focal trajectory."""
    fwd: set[str] = set()
    s = s0
    for _ in range(SEP_MAX_SEGMENTS):
        lab = _sep_label(table, s)
        if lab is None:
            break
        fwd.add(lab)
        s = step(table, s)
    bwd: set[str] = set()
    s = s0
    for _ in range(SEP_MAX_SEGMENTS):
        s = step_inverse(table, s)
        lab = _sep_label(table, s)
        if lab is None:
            break
        bwd.add(lab)
    return frozenset(fwd), frozenset(bwd)


def _separatrix_count(table: TableSpec) -> int:
    """Distinct separatrix families on the focal level lambda = b.

    Eight seeds just off the long-axis vertices, aimed at each focus,
    cover every family; families are told apart by the (forward,
    backward) asymptotic label sets.
    """
    fam = table.fam
    eps = SEP_SEED_OFFSET
    c = fam.focal_distance
    signatures = set()
    for t in (eps, math.pi - eps, math.pi + eps, 2.0 * math.pi - eps):
        p = fam.boundary_point(t)
        for fx in (c, -c):
            dx, dy = fx - p[0], -p[1]
            h = math.hypot(dx, dy)
            s0 = BoundaryPhase(p, (dx / h, dy / h))
            signatures.add(_sep_signature(table, s0))
    return len(signatures)


def singular_level_report(table: TableSpec, which: float) -> SingularReport:
    """Closed-orbit and separatrix counts (and the atom) of a singular level.

    ``which`` must be one of the three singular parameters {0, b, a}.
    Closed orbits are counted by launching the canonical orbits of the
    level — boundary slides for 0, long-axis segments for b, short-axis
    segments for a — and counting distinct phase cycles under the magic
    map.  Separatrices exist only on the focal level b.
    """
    fam = table.fam
    tol = DEGEN_RTOL * fam.a
    sa, sb = math.sqrt(fam.a), math.sqrt(fam.b)

    if abs(which) < tol:
        # boundary slides: one orbit per winding sense; an
        # orientation-reversing magic map swaps the two senses
        closed = 1 if table.outer_map.orientation_reversing else 2
        seps = 0
    elif abs(which - fam.b) < tol:
        seeds = [
            BoundaryPhase((sa, 0.0), (-1.0, 0.0)),
            BoundaryPhase((-sa, 0.0), (1.0, 0.0)),
        ]
        closed = _cycle_count(table, seeds)
        seps = _separatrix_count(table)
    elif abs(which - fam.a) < tol:
        seeds = [
            BoundaryPhase((0.0, sb), (0.0, -1.0)),
            BoundaryPhase((0.0, -sb), (0.0, 1.0)),
        ]
        closed = _cycle_count(table, seeds)
        seps = 0
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
