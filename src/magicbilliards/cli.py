"""Command-line surface and all file serialization (CSV, JSON, SVG).

Three subcommands::

    magicbilliards simulate  --x0 .. --y0 .. --dx .. --dy .. --bounces N --out run.csv [--svg run.svg]
    magicbilliards periodic  --system flip-long --n 3 --interval 4:9 --out roots.json
    magicbilliards topology  --system half-turn [--beta 2.5] --out topo.json

Common flags: --a --b (squared semi-axes, default 9 and 4), --system,
--table ellipse|annulus, --inner-lambda, --seed.  Every computation in
the package is deterministic, so identical invocations produce
byte-identical files; --seed is accepted and ignored, for callers that
pass one.

Exit codes: 0 success (including legitimately empty results), 1 usage
errors (every ValueError, among them an output path whose directory is
missing, checked before any computation) and failed writes (OSError), 2
numerical or topology failures, among them a periodic root whose Cayley
determinant is not finite (the file is still written, with null there).
Files are written atomically (write to a temporary sibling, then rename).

``simulate`` serialises from columns: it takes the trajectory's float
columns as they are, the elliptic coordinates and caustic come from the
array forms in ``geometry``, and each CSV row and SVG element is one
``%`` format of a fixed template (each wall point is formatted once, for
its segment and its marker).  Its files are pinned byte for byte by
SHA-256 in the tests.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .certificates import CertificateBundle, empty_reason, find_periodic_caustics
from .dynamics import BoundaryPhase, MagicKind, TableSpec, trajectory
from .geometry import (
    CausticId,
    ConfocalFamily,
    NoForwardHit,
    caustic_column,
    elliptic_columns,
    normal_at,
)
from .topology import TopologyMismatch, classify_level, fomenko_graph

# every usage error is a ValueError (exit 1); these are numerical failures
_NUMERIC_ERRORS = (NoForwardHit, TopologyMismatch, ArithmeticError)


def _write_atomic(path: str, data: str) -> None:
    # a sibling of its own per call, so concurrent writers of one path never
    # replace or delete each other's temporary file
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"  # NaN/Infinity are not JSON


# ---------------------------------------------------------------------------
# simulate


def _svg_path_hyperbola(a: float, b: float, beta: float, clip: float) -> list[str]:
    """Dashed polyline points for both hyperbola branches, clipped to the frame."""
    ah = math.sqrt(a - beta)
    bh = math.sqrt(beta - b)
    umax = math.asinh(clip / bh)
    out = []
    for sgn in (1.0, -1.0):
        pts = []
        for k in range(65):
            u = -umax + 2.0 * umax * k / 64.0
            x = sgn * ah * math.cosh(u)
            y = bh * math.sinh(u)
            if abs(x) <= clip:
                pts.append(f"{x:.6f},{-y:.6f}")
        if pts:
            out.append(" ".join(pts))
    return out


# one segment per bounce, one numbered marker per impact; both take the
# wall point as its formatted strings
_SVG_SEGMENT = (
    '<path d="M %.6f %.6f L %s %s" stroke="black" stroke-width="0.02" fill="none"/>'
)
_SVG_IMPACT = (
    '<circle cx="%s" cy="%s" r="0.06" fill="black"/>\n'
    '<text x="%.6f" y="%.6f" font-size="0.25" font-family="sans-serif">%d</text>'
)
_CSV_HEADER = "i,x,y,vx,vy,lambda1,lambda2,caustic\n"
# %.17g round-trips every float64 and formats like f"{v:.17g}"
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_SVG_COORD = "%.6f".__mod__


def _render_svg(
    table: TableSpec,
    x: list[float],
    y: list[float],
    hx: list[float],
    hy: list[float],
    caustic: CausticId,
) -> str:
    """Draw the boundary, the caustic (dashed), segments, and numbered hits.

    Segment i runs from (x[i], y[i]) to the wall point (hx[i], hy[i]).
    SVG's y axis points down, so every y coordinate is negated.
    """
    fam = table.fam
    pad = 1.05 * math.sqrt(fam.a)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{-pad:.6f} {-pad:.6f} {2 * pad:.6f} {2 * pad:.6f}" '
        f'width="640" height="640">',
        f'<ellipse cx="0" cy="0" rx="{math.sqrt(fam.a):.6f}" ry="{math.sqrt(fam.b):.6f}" '
        f'fill="none" stroke="black" stroke-width="0.03"/>',
    ]
    if table.inner_lam is not None:
        lines.append(
            f'<ellipse cx="0" cy="0" rx="{math.sqrt(fam.a - table.inner_lam):.6f}" '
            f'ry="{math.sqrt(fam.b - table.inner_lam):.6f}" '
            f'fill="none" stroke="black" stroke-width="0.03"/>'
        )
    if caustic.kind == "ellipse":
        lines.append(
            f'<ellipse cx="0" cy="0" rx="{math.sqrt(fam.a - caustic.lam):.6f}" '
            f'ry="{math.sqrt(fam.b - caustic.lam):.6f}" fill="none" stroke="gray" '
            f'stroke-width="0.02" stroke-dasharray="0.1,0.08"/>'
        )
    elif caustic.kind == "hyperbola":
        for pts in _svg_path_hyperbola(fam.a, fam.b, caustic.lam, pad):
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="gray" '
                f'stroke-width="0.02" stroke-dasharray="0.1,0.08"/>'
            )
    wall_x = list(map(_SVG_COORD, hx))
    wall_y = [_SVG_COORD(-v) for v in hy]
    lines.extend(map(_SVG_SEGMENT.__mod__, zip(x, [-v for v in y], wall_x, wall_y)))
    labels = zip(wall_x, wall_y, [v + 0.1 for v in hx], [-v - 0.1 for v in hy], range(1, len(hx) + 1))
    lines.extend(map(_SVG_IMPACT.__mod__, labels))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_simulate(
    table: TableSpec,
    x0: float,
    y0: float,
    dx: float,
    dy: float,
    bounces: int,
    out_csv: str,
    out_svg: str | None = None,
) -> int:
    """Simulate and write the impact table as CSV (and optionally an SVG)."""
    for flag, value in (("--x0", x0), ("--y0", y0), ("--dx", dx), ("--dy", dy)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    fam = table.fam
    nx, ny = normal_at(fam, 0.0, (x0, y0))  # NotOnConic off the outer wall
    h = math.hypot(dx, dy)
    if h < 1e-300:
        raise ValueError("direction (--dx, --dy) must be nonzero")
    v = (dx / h, dy / h)
    if v[0] * nx + v[1] * ny <= 1e-12:
        raise ValueError("direction must point into the table")
    if bounces < 1:
        raise ValueError("need --bounces >= 1")

    traj = trajectory(table, BoundaryPhase((x0, y0), v), bounces)
    states = [traj.x, traj.y, traj.vx, traj.vy]
    lam1, lam2 = elliptic_columns(fam, traj.x, traj.y)
    caustic = caustic_column(fam, *states)
    columns = [*states, lam1.tolist(), lam2.tolist(), caustic.tolist()]
    rows = map(_CSV_ROW.__mod__, zip(range(bounces + 1), *columns))
    _write_atomic(out_csv, _CSV_HEADER + "".join(rows))

    if out_svg is not None:
        svg = _render_svg(table, traj.x[:-1], traj.y[:-1], traj.hx, traj.hy, traj.caustic)
        _write_atomic(out_svg, svg)
    return 0


# ---------------------------------------------------------------------------
# periodic


def _bundle_dict(b: CertificateBundle) -> dict:
    # the fields in declared order, the system by its name, a determinant that
    # overflowed or lost every digit as null, then the verdict
    cayley = b.cayley_value if math.isfinite(b.cayley_value) else None
    fields = {"system": b.system.value, "cayley_value": cayley, "verified": b.verified}
    return {**dataclasses.asdict(b), **fields}


def cmd_periodic(
    table: TableSpec, n: int, interval: tuple[float, float], out_json: str
) -> int:
    """Search for n-periodic caustics in the interval; write bundles as JSON."""
    system = table.outer_map
    roots = find_periodic_caustics(system, n, table.fam.a, table.fam.b, interval)
    doc = {
        "system": system.value,
        "n": n,
        "interval": [interval[0], interval[1]],
        "roots": [_bundle_dict(b) for b in roots],
        "reason": empty_reason(system, n),
    }
    _write_atomic(out_json, _dump_json(doc))
    failed = [b for b in roots if not math.isfinite(b.cayley_value)]
    for b in failed:
        print(f"error: Cayley determinant {b.cayley_value!r} at beta = {b.beta!r}", file=sys.stderr)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# topology


def cmd_topology(table: TableSpec, beta: float | None, out_json: str) -> int:
    """Level-set report (with --beta) or the system's Fomenko graph as JSON."""
    if beta is not None:
        rep = classify_level(table, beta)
        doc = {"system": table.label, **dataclasses.asdict(rep)}
    else:
        doc = fomenko_graph(table).to_dict()
    _write_atomic(out_json, _dump_json(doc))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numerical failures; argparse
    # defaults to 2 for bad flags
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_interval(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")


@functools.cache  # built once: a parse leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="magicbilliards", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=float, default=9.0, help="squared long semi-axis")
        p.add_argument("--b", type=float, default=4.0, help="squared short semi-axis")
        p.add_argument(
            "--system",
            choices=[k.value for k in MagicKind],
            default="identity",
            help="boundary map on the outer wall",
        )
        p.add_argument("--table", choices=["ellipse", "annulus"], default="ellipse")
        p.add_argument(
            "--inner-lambda",
            type=float,
            default=None,
            help="confocal parameter of the annulus inner wall",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output file path")

    sim = sub.add_parser("simulate", help="run a trajectory, write CSV (and SVG)")
    common(sim)
    sim.add_argument("--x0", type=float, required=True)
    sim.add_argument("--y0", type=float, required=True)
    sim.add_argument("--dx", type=float, required=True)
    sim.add_argument("--dy", type=float, required=True)
    sim.add_argument("--bounces", type=int, default=10)
    sim.add_argument("--svg", default=None, help="optional SVG rendering path")

    per = sub.add_parser("periodic", help="search for n-periodic caustics")
    common(per)
    per.add_argument("--n", type=int, required=True)
    per.add_argument(
        "--interval",
        type=_parse_interval,
        default=None,
        help="caustic search range LO:HI (default: the full family)",
    )

    topo = sub.add_parser("topology", help="level-set report or Fomenko graph")
    common(topo)
    topo.add_argument("--beta", type=float, default=None)
    return top


def _table_spec(args: argparse.Namespace) -> TableSpec:
    """The one table every subcommand runs on, from the common flags."""
    fam = ConfocalFamily(args.a, args.b)
    if args.command == "periodic" and args.table != "ellipse":
        raise ValueError("periodicity certificates apply to the ellipse table")
    system = MagicKind(args.system)
    if args.table == "annulus":
        if args.inner_lambda is None:
            raise ValueError("annulus table needs --inner-lambda")
        return TableSpec(fam, system, args.inner_lambda)
    if args.inner_lambda is not None:
        raise ValueError("--inner-lambda only applies to the annulus table")
    return TableSpec(fam, system)


def _check_outputs(out: str, svg: str | None) -> None:
    """Refuse output paths that cannot be written, before any computation."""
    for path in (out, svg):
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ValueError(f"output directory {folder} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"output path {path} is a directory")
    if svg is not None and os.path.realpath(svg) == os.path.realpath(out):
        raise ValueError(f"--svg names the same file as --out: {out}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(args.out, getattr(args, "svg", None))
        table = _table_spec(args)
        if args.command == "simulate":
            return cmd_simulate(
                table, args.x0, args.y0, args.dx, args.dy, args.bounces,
                args.out, args.svg,
            )
        if args.command == "periodic":
            interval = args.interval if args.interval is not None else (0.0, args.a)
            return cmd_periodic(table, args.n, interval, args.out)
        return cmd_topology(table, args.beta, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
