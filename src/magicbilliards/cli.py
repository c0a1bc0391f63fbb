"""Command-line surface and all file serialization (CSV, JSON, SVG).

Three subcommands::

    magicbilliards simulate  --x0 .. --y0 .. --dx .. --dy .. --bounces N --out run.csv [--svg run.svg]
    magicbilliards periodic  --system flip-long --n 3 --interval 4:9 --out roots.json
    magicbilliards topology  --system half-turn [--beta 2.5] --out topo.json

Common flags: --a --b (squared semi-axes, default 9 and 4), --system,
--table ellipse|annulus, --inner-lambda, --seed.  Every computation in
the package is deterministic, so identical invocations produce
byte-identical files; --seed is recorded for interface stability.

Exit codes: 0 success (including legitimately empty results), 1 usage
errors, 2 numerical or topology failures.  Files are written atomically
(write to a temporary sibling, then rename).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .certificates import (
    CertificateBundle,
    DegenerateCubic,
    DegenerateFocal,
    UnsupportedParity,
    find_periodic_caustics,
)
from .dynamics import BoundaryPhase, MagicKind, TableSpec, trajectory
from .geometry import (
    CenterDegenerate,
    ConfocalFamily,
    NoForwardHit,
    NotOnConic,
    caustic_of_line,
    classify_caustic,
    normal_at,
    to_elliptic,
)
from .topology import (
    DegenerateLevel,
    TopologyMismatch,
    UnknownSystem,
    classify_level,
    fomenko_graph,
)

_USAGE_ERRORS = (
    UnsupportedParity,
    DegenerateLevel,
    DegenerateFocal,
    UnknownSystem,
    NotOnConic,
    CenterDegenerate,
    ValueError,
)
_NUMERIC_ERRORS = (NoForwardHit, TopologyMismatch, DegenerateCubic, ArithmeticError)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    a: float = 9.0
    b: float = 4.0
    system: MagicKind = MagicKind.IDENTITY
    table: str = "ellipse"
    inner_lambda: float | None = None
    seed: int = 0

    def table_spec(self) -> TableSpec:
        fam = ConfocalFamily(self.a, self.b)
        if self.table == "annulus":
            if self.inner_lambda is None:
                raise ValueError("annulus table needs --inner-lambda")
            return TableSpec(fam, self.system, self.inner_lambda)
        if self.inner_lambda is not None:
            raise ValueError("--inner-lambda only applies to the annulus table")
        return TableSpec(fam, self.system)


def _write_atomic(path: str, data: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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


def _render_svg(
    table: TableSpec,
    states: list[BoundaryPhase],
    hits: list[tuple[float, float]],
    caustic_lam: float,
    caustic_kind: str,
) -> str:
    """Draw the boundary, the caustic (dashed), segments, and numbered hits.

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
    if caustic_kind == "ellipse":
        lines.append(
            f'<ellipse cx="0" cy="0" rx="{math.sqrt(fam.a - caustic_lam):.6f}" '
            f'ry="{math.sqrt(fam.b - caustic_lam):.6f}" fill="none" stroke="gray" '
            f'stroke-width="0.02" stroke-dasharray="0.1,0.08"/>'
        )
    elif caustic_kind == "hyperbola":
        for pts in _svg_path_hyperbola(fam.a, fam.b, caustic_lam, pad):
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="gray" '
                f'stroke-width="0.02" stroke-dasharray="0.1,0.08"/>'
            )
    for s, hit in zip(states, hits):
        lines.append(
            f'<path d="M {s.at[0]:.6f} {-s.at[1]:.6f} L {hit[0]:.6f} {-hit[1]:.6f}" '
            f'stroke="black" stroke-width="0.02" fill="none"/>'
        )
    for i, hit in enumerate(hits, start=1):
        lines.append(
            f'<circle cx="{hit[0]:.6f}" cy="{-hit[1]:.6f}" r="0.06" fill="black"/>'
        )
        lines.append(
            f'<text x="{hit[0] + 0.1:.6f}" y="{-hit[1] - 0.1:.6f}" '
            f'font-size="0.25" font-family="sans-serif">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_simulate(
    config: RunConfig,
    x0: float,
    y0: float,
    dx: float,
    dy: float,
    bounces: int,
    out_csv: str,
    out_svg: str | None = None,
) -> int:
    """Simulate and write the impact table as CSV (and optionally an SVG)."""
    table = config.table_spec()
    fam = table.fam
    if abs(fam.conic_residual(0.0, x0, y0)) > 1e-6:
        print(f"error: ({x0}, {y0}) is not on the outer boundary", file=sys.stderr)
        return 1
    h = math.hypot(dx, dy)
    if h < 1e-300:
        print("error: direction (--dx, --dy) must be nonzero", file=sys.stderr)
        return 1
    v = (dx / h, dy / h)
    nx, ny = normal_at(fam, 0.0, (x0, y0))
    if v[0] * nx + v[1] * ny <= 1e-12:
        print("error: direction must point into the table", file=sys.stderr)
        return 1
    if bounces < 1:
        print("error: need --bounces >= 1", file=sys.stderr)
        return 1

    s0 = BoundaryPhase((x0, y0), v)
    traj = trajectory(table, s0, bounces)
    rows = ["i,x,y,vx,vy,lambda1,lambda2,caustic"]
    for i, s in enumerate(traj.states):
        ell = to_elliptic(fam, s.at)
        ca = caustic_of_line(fam, s.at, s.v)
        rows.append(
            f"{i},{_fmt(s.at[0])},{_fmt(s.at[1])},{_fmt(s.v[0])},{_fmt(s.v[1])},"
            f"{_fmt(ell.lam1)},{_fmt(ell.lam2)},{_fmt(ca.lam)}"
        )
    _write_atomic(out_csv, "\n".join(rows) + "\n")

    if out_svg is not None:
        _write_atomic(
            out_svg,
            _render_svg(
                table, list(traj.states[:-1]), list(traj.hits), traj.caustic.lam, traj.caustic.kind
            ),
        )
    return 0


# ---------------------------------------------------------------------------
# periodic


def _bundle_dict(b: CertificateBundle) -> dict:
    return {
        "system": b.system.value,
        "n": b.n,
        "beta": b.beta,
        "cayley_value": b.cayley_value,
        "torsion_residual": b.torsion_residual,
        "pell_residual": b.pell_residual,
        "closure_residual": b.closure_residual,
        "verified": b.verified,
    }


def cmd_periodic(
    config: RunConfig, n: int, interval: tuple[float, float], out_json: str
) -> int:
    """Search for n-periodic caustics in the interval; write bundles as JSON."""
    if config.table != "ellipse":
        print(
            "error: periodicity certificates apply to the ellipse table",
            file=sys.stderr,
        )
        return 1
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 <= interval[0] < interval[1] <= config.a):
        raise ValueError(f"interval {interval} not inside (0, {config.a})")
    reason = None
    if n == 2:
        roots: list[CertificateBundle] = []
        reason = "no nondegenerate 2-periodic caustic exists"
    elif n % 2 == 1 and config.system is MagicKind.FLIP_SHORT:
        roots = []
        reason = "flip-short trajectories close only with an even period"
    else:
        roots = find_periodic_caustics(
            config.system, n, config.a, config.b, interval
        )
    doc = {
        "system": config.system.value,
        "n": n,
        "interval": [interval[0], interval[1]],
        "roots": [_bundle_dict(b) for b in roots],
        "reason": reason,
    }
    _write_atomic(out_json, _dump_json(doc))
    return 0


# ---------------------------------------------------------------------------
# topology


def cmd_topology(config: RunConfig, beta: float | None, out_json: str) -> int:
    """Level-set report (with --beta) or the system's Fomenko graph as JSON."""
    table = config.table_spec()
    if beta is not None:
        rep = classify_level(table, beta)
        doc = {
            "system": f"{table.shape}:{table.outer_map.value}",
            "beta": rep.beta,
            "kind": rep.kind,
            "component_count": rep.component_count,
            "sample_count": rep.sample_count,
            "merge_evidence": [list(pair) for pair in rep.merge_evidence],
        }
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        a=args.a,
        b=args.b,
        system=MagicKind(args.system),
        table=args.table,
        inner_lambda=args.inner_lambda,
        seed=args.seed,
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(
                config, args.x0, args.y0, args.dx, args.dy, args.bounces,
                args.out, args.svg,
            )
        if args.command == "periodic":
            interval = args.interval if args.interval is not None else (0.0, args.a)
            return cmd_periodic(config, args.n, interval, args.out)
        return cmd_topology(config, args.beta, args.out)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
