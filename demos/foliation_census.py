"""Census of the Liouville foliation for the six magic systems.

Fixing the caustic parameter slices phase space into level sets; counting
their connected components (and naming the singular transitions) pins
down the global topology.  Everything here is measured from trajectories
-- the library seeds phases spread over each level's angle variable,
labels their motion, and merges labels that co-occur on a single orbit.
"""
import json

from magicbilliards import (
    ConfocalFamily,
    MagicKind,
    TableSpec,
    classify_level,
    fomenko_graph,
    singular_level_report,
)

fam = ConfocalFamily(9.0, 4.0)
systems = [
    ("ellipse", TableSpec(fam, MagicKind.FLIP_LONG)),
    ("ellipse", TableSpec(fam, MagicKind.FLIP_SHORT)),
    ("ellipse", TableSpec(fam, MagicKind.HALF_TURN)),
    ("annulus", TableSpec(fam, MagicKind.FLIP_LONG, 3.0)),
    ("annulus", TableSpec(fam, MagicKind.FLIP_SHORT, 3.0)),
    ("annulus", TableSpec(fam, MagicKind.HALF_TURN, 3.0)),
]

# regular levels: one ellipse-caustic slice, one hyperbola-caustic slice
print(f"{'system':24s} {'ellipse betas':>14s} {'hyperbola betas':>16s}")
for shape, table in systems:
    name = f"{shape}:{table.outer_map.value}"
    e = classify_level(table, 2.5, samples=64).component_count
    h = classify_level(table, 6.0, samples=64).component_count
    print(f"{name:24s} {e:14d} {h:16d}")

# the component count changes across the singular levels 0, b, a
print("\nsingular levels (closed orbits / separatrices / atom):")
for shape, table in systems:
    name = f"{shape}:{table.outer_map.value}"
    cells = []
    for lam in (0.0, 4.0, 9.0):
        r = singular_level_report(table, lam)
        cells.append(f"lam={lam:g}: {r.closed_orbits}/{r.separatrices}/{r.atom}")
    print(f"  {name:22s} " + "   ".join(cells))

# and the whole story rolls up into one graph per system
print("\nflip-long ellipse Fomenko graph:")
print(json.dumps(fomenko_graph(TableSpec(fam, MagicKind.FLIP_LONG)).to_dict(), indent=2))

print("\nhalf-turn annulus Fomenko graph (outer wall slips by a half-ellipse):")
print(json.dumps(fomenko_graph(TableSpec(fam, MagicKind.HALF_TURN, 3.0)).to_dict(), indent=2))
