"""Numerical topology of the caustic foliation of magic billiards.

Regular caustic levels are unions of tori; this module counts their
connected components by tagging trajectories with coarse discrete
labels (winding sense for ellipse caustics; vertical direction,
hyperbola branch, and axis side for hyperbola caustics) and merging
labels that occur on a single trajectory.  The trajectories start at
phases spread evenly over the level's angle variable and run in closed
form (:func:`level_orbits`).  A reflection in an axis maps each seed
of branch -1 exactly onto a seed of branch +1, its twin, so only
branch +1 runs, and a branch -1 seed's labels are the mirror of its
twin's (CW<->CCW, U<->D, T<->B).  Singular levels (caustic parameter
0, b, or a) are described by their closed orbits and their separatrix
families, both counted from the magic map's signs without a bounce;
the two counts pick out one of the complexity-one atoms A, B, A**, C2.
Finally, each studied system carries a small static graph — atoms
joined along torus families, decorated with the marks (r, eps, n)
transcribed from figure data — which is cross-checked against the
numeric reports whenever it is constructed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    MagicKind,
    TableSpec,
    _check_level,
    _level_grid,
    _twin,
)
from .geometry import ConfocalFamily, classify_caustic

# seeds labelled together (a seed's labels never depend on another's).  At the
# defaults a hyperbola level took 1.9-2.1 ms in blocks of 8, 2.1-3.0 ms in 4,
# 2.2-2.3 ms in 16 and 2.8-3.7 ms in one of 32 rows (2-core x86-64 Xeon)
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
# regular levels


# label names in sorted order, bit j of a mask for names[j], so a mask's lowest
# bit is its first label; hyperbola labels: vertical direction, branch, side
_WINDING_LABELS = ("CCW", "CW")
_HYPERBOLA_LABELS = tuple(ud + lr + side for ud in "DU" for lr in "LR" for side in "BTX")
# each label's image in the mirror of a branch +1 orbit onto a branch -1 one
_MIRROR = dict(zip(_WINDING_LABELS + _HYPERBOLA_LABELS, ("CW", "CCW") + tuple(
    ud + lr + side for ud in "UD" for lr in "LR" for side in "TBX")))


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

    A segment runs from (x, y) along any nonzero (vx, vy) to a wall point
    at height qy (before magic).  Its label combines the vertical
    direction (U/D), the branch touched (R/L, by the sign of the tangency
    point's x), and the long-axis side of the segment (T/B, or X when it
    crosses the axis).  Near-horizontal segments (|vy| < 1e-9 |v|),
    tangency points near the short axis (|x*| < 1e-9), and segments
    touching the long axis get no label.

    The tangency point is the pole of the segment's line: n.X = c touches
    x²/A + y²/B = 1 at (A n_x / c, B n_y / c), so with n = (vy, -vx),
    x* = (a - beta) vy / c for the cross product c = x vy - y vx, and R
    holds when vy and c have the same sign.  A segment through the center
    lies along an asymptote, its pole at infinity; it is labelled by the
    sign of its roundoff c, and a c of 0 exactly gives L on either
    vertical direction, so that ``_MIRROR`` still maps its labels.
    """
    cross = x * vy - y * vx
    avy = np.abs(vy)
    north, q_north = y > 0.0, qy > 0.0
    # 6 U + 3 R + side (B 0, T 1, X 2), summed in int8 to keep the temporaries small
    code = np.int8(6) * (vy > 0.0) + np.int8(3) * (vy * cross > 0.0)
    code += np.int8(2) * (north != q_north) + (north & q_north)
    labelled = (avy * avy >= 1e-18 * (vx * vx + avy * avy)) & (y != 0.0) & (qy != 0.0)
    labelled &= (fam.a - beta) * avy >= 1e-9 * np.abs(cross)
    return np.where(labelled, code, -1).astype(np.int64)  # for _label_masks' shifts


def _level_phases(samples: int) -> list[tuple[float, float]]:
    """``samples`` seed phases (t, sign) of a level, evenly spaced on both branches.

    t is the Jacobi phase of the outer wall in turns (see
    :func:`level_orbits`), the angle variable of each torus, and sign the
    branch.  Branch +1 gets (samples + 1) // 2 seeds and branch -1 the
    other samples // 2, so an odd count puts one seed more on branch +1.
    Seed j of n sits at t = (j + 1/2) / n, taken one turn back past 1/2:
    its numerator is an exact half-integer, so for an even n the negative
    of each seed's t is again a seed's t, bit for bit.
    """
    return [
        ((j + 0.5 if 2 * j < n else j + 0.5 - n) / n, sign)
        for sign, n in ((1.0, (samples + 1) // 2), (-1.0, samples // 2))
        for j in range(n)
    ]


def _label_masks(code: np.ndarray) -> list[int]:
    """Each row's labels as a bit mask, bit c for label code c (-1 is no label)."""
    # bit c + 1 marks label c, and the last shift drops bit 0, the -1s
    return (np.bitwise_or.reduce(1 << (code + 1), axis=1) >> 1).tolist()


def _level_signatures(
    table: TableSpec, beta: float, phases: list[tuple[float, float]], steps: int
) -> list[int]:
    """Label mask of each seed's trajectory, read off its closed-form orbit.

    Ellipse caustics get winding labels {CW, CCW}: the sense in which
    each segment turns about the center, the sign of px qy - py qx for a
    segment from p to q.  The segment's line touches an ellipse caustic,
    which surrounds the center, so the sign is never zero.  Hyperbola
    caustics get the segment labels of :func:`_hyperbola_labels`.

    A branch -1 seed's orbit is its branch +1 :func:`_twin`'s mirrored,
    bit for bit, so its labels are the twin's mapped by ``_MIRROR``, and
    each distinct twin runs once: half the seeds of :func:`_level_phases`
    when each branch gets an even number.  The level is set up once for
    them all, as in :func:`level_orbits`, and read in blocks of SEED_BLOCK.
    """
    fam = table.fam
    winding = beta < fam.b
    names = _WINDING_LABELS if winding else _HYPERBOLA_LABELS
    twins = [_twin(winding, t, sign)[0] for t, sign in phases]
    runs = list(dict.fromkeys(twins))
    (x0, y0), grid = _level_grid(table, beta, runs, steps)
    out: list[int] = []
    for lo in range(0, len(runs), SEED_BLOCK):
        rows = slice(lo, lo + SEED_BLOCK)
        x, y, qx, qy, _ = grid(rows)
        # impact 0 is the seed; segment i runs from impact i to wall point i + 1
        px, py = np.hstack([x0[rows], x[:, :-1]]), np.hstack([y0[rows], y[:, :-1]])
        if winding:
            spin = px * qy - py * qx  # CCW where > 0 (bit 0), CW where < 0 (bit 1)
            out += (np.any(spin > 0.0, axis=1) + 2 * np.any(spin < 0.0, axis=1)).tolist()
        else:
            out += _label_masks(_hyperbola_labels(fam, beta, px, py, qx - px, qy - py, qy))
    upper = dict(zip(runs, out))
    # bit j of a mask goes to the bit of names[j]'s mirror image
    flip = [1 << names.index(_MIRROR[lab]) for lab in names]
    mirror = {mask: sum(bit for j, bit in enumerate(flip) if mask >> j & 1) for mask in set(out)}
    return [upper[t] if sign > 0.0 else mirror[upper[t]] for t, (_, sign) in zip(twins, phases)]


def _merge_count(masks: list[int], names: tuple[str, ...]) -> tuple[int, list[tuple[str, str]]]:
    """Label classes of the trajectories' label masks over ``names``.

    Each distinct non-empty mask, in the order first seen, joins every
    class it meets into one, and its first label paired with each of its
    others is merge evidence.  With no label at all the count is 1.
    """
    classes: list[int] = []
    evidence: list[tuple[str, str]] = []
    for mask in dict.fromkeys(m for m in masks if m):
        met = [c for c in classes if c & mask]
        # the classes are disjoint, so their sum is their union
        classes = [c for c in classes if not c & mask] + [mask | sum(met)]
        first, *others = (lab for j, lab in enumerate(names) if mask >> j & 1)
        evidence += [(first, lab) for lab in others]
    return len(classes) or 1, list(dict.fromkeys(evidence))


def classify_level(
    table: TableSpec, beta: float, samples: int = 64, steps: int = 1000
) -> LevelSetReport:
    """Number of connected components of the regular level at caustic beta.

    Seeds ``samples`` phases of the level, evenly spaced in the angle
    variable on both branches (:func:`_level_phases`), takes ``steps``
    bounces of each in closed form as :func:`level_orbits` does, and
    merges the discrete labels observed on a common trajectory; the
    component count is the number of remaining label classes (1 when no
    trajectory carries a label).
    """
    if samples < 16:
        raise ValueError("need samples >= 16")
    if steps < 1:
        raise ValueError("need steps >= 1")
    _check_level(table, beta)
    kind = "ellipse" if beta < table.fam.b else "hyperbola"
    masks = _level_signatures(table, beta, _level_phases(samples), steps)
    names = _WINDING_LABELS if kind == "ellipse" else _HYPERBOLA_LABELS
    count, evidence = _merge_count(masks, names)
    return LevelSetReport(beta, kind, count, samples, tuple(evidence))


# ---------------------------------------------------------------------------
# singular levels


def _separatrix_count(table: TableSpec) -> int:
    """Separatrix families on the focal level b, counted from the magic signs.

    Every segment on level b lies on a line through a focus.  A
    reflection off any confocal wall sends a line through one focus to a
    line through the other, and turns the segment's vertical direction.
    The magic map then swaps F1 and F2 when sx = -1, and turns the
    direction (and the side of the long axis) when sy = -1.  A
    separatrix family is one cycle of this action on the segment labels
    (focus, up/down), and eight seeds aimed at the foci from just off
    the long-axis vertices reach every cycle (Bolsinov & Fomenko 2004;
    Dragovic & Radnovic, Regul. Chaotic Dyn. 14, 2009).

    * Ellipse: a bounce is a reflection and the magic map, so it fixes
      every label only for the half-turn, (sx, sy) = (-1, -1): 4
      families.  Every other map pairs the labels: 2.
    * Annulus: the walls alternate, so over one outer -> inner -> outer
      round trip the two reflections cancel, and what acts on the four
      labels of segments heading for the inner wall is the magic map
      alone.  The identity gives 4 families; every other map gives 2.
    """
    fixing = (-1.0, -1.0) if table.inner_lam is None else (1.0, 1.0)
    return 4 if table.outer_map.signs == fixing else 2


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
    :func:`_separatrix_count` counts them from the same signs.
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


def _cross_check(table: TableSpec, graph: FomenkoGraph) -> None:
    """Fail loudly when numeric reports contradict the transcribed graph."""
    fam = table.fam
    levels = graph.singular_levels
    # closed-orbit counts at the torus ends must match the atom counts
    for level, lam in (("0", 0.0), ("a", fam.a)):
        rep = singular_level_report(table, lam)
        if rep.closed_orbits != len(levels[level]):
            raise TopologyMismatch(
                f"level {level}: {rep.closed_orbits} closed orbits vs "
                f"{len(levels[level])} transcribed atoms"
            )
    # the focal atom itself
    rep_b = singular_level_report(table, fam.b)
    center = next(x.type for x in graph.atoms if x.id == levels["b"][0])
    if rep_b.atom != center:
        raise TopologyMismatch(f"focal level: numeric atom {rep_b.atom} vs transcribed {center}")
    # regular component counts on each side must match the edge counts
    beta_e = (5.0 / 6.0) * table.inner_lam if table.inner_lam else 0.625 * fam.b
    beta_h = fam.b + 0.4 * (fam.a - fam.b)
    for level, beta, side in (("0", beta_e, "ellipse"), ("a", beta_h, "hyperbola")):
        expected = sum(1 for e in graph.edges if {e.src, e.dst} & set(levels[level]))
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
    graph = FomenkoGraph(
        table.label,
        tuple(GraphAtom(*row) for row in atom_rows),
        tuple(GraphEdge(*row) for row in edge_rows),
        mark,
        prov,
    )
    _cross_check(table, graph)
    return graph
