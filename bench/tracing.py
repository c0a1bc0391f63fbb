"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper in
every package module that holds it (``topology.step`` and
``dynamics.step`` are the same function imported twice), so calls made
inside the package are seen too.  Wrappers keep, in memory, a call
count and the self time of each function: a call's duration minus the
duration of the wrapped calls made inside it.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

LAYERS = {
    "geometry": ["normal_at", "to_elliptic", "caustic_of_line", "tangent_directions"],
    "dynamics": ["step", "step_inverse", "trajectory", "closure_defect"],
    "certificates": ["find_periodic_caustics", "cayley_det", "torsion_check", "pell_solve"],
    "topology": ["classify_level", "singular_level_report", "fomenko_graph"],
    "cli": ["cmd_simulate"],
}
# Counters gathered from arguments and results at the same boundaries.
COUNTERS = {
    "dynamics.bounces": "count",
    "certificates.pell_solve.none": "count",
    "certificates.roots": "count",
    "certificates.roots_verified": "count",
    "topology.seeds": "count",
    "cli.bytes_written": "bytes",
}


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []  # time in wrapped calls inside each open call
        self._bouncing = 0  # open calls that already counted their bounces
        self._undo: list[tuple] = []

    def _observers(self, fn):
        """(bounces requested, result hook) for the functions that have them.

        Bounces are counted at the outermost call that requests them:
        ``closure_defect`` steps through ``step``, and ``classify_level``
        asks for ``steps`` bounces from each seed it places.
        """
        c = self.counts
        name = fn.__name__
        if name in ("step", "step_inverse"):
            return (lambda args, kwargs, out: 1), None
        if name in ("trajectory", "closure_defect"):
            return (lambda args, kwargs, out: _bound(fn, args, kwargs)["n"]), None
        if name == "classify_level":
            def seeds(args, kwargs, out):
                c["topology.seeds"] += out.sample_count

            return (
                lambda args, kwargs, out: out.sample_count * _bound(fn, args, kwargs)["steps"]
            ), seeds
        if name == "find_periodic_caustics":
            def roots(args, kwargs, out):
                c["certificates.roots"] += len(out)
                c["certificates.roots_verified"] += sum(1 for r in out if r.verified)

            return None, roots
        if name == "pell_solve":
            def none(args, kwargs, out):
                c["certificates.pell_solve.none"] += out is None

            return None, none
        if name == "cmd_simulate":
            def written(args, kwargs, out):
                bound = _bound(fn, args, kwargs)
                c["cli.bytes_written"] += _file_bytes(bound["out_csv"], bound["out_svg"])

            return None, written
        return None, None

    def _wrap(self, key: str, fn):
        calls, self_time, stack = self.calls, self.self_time, self._stack
        clock = time.perf_counter
        bounces, hook = self._observers(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            counting = bounces is not None and not tracer._bouncing
            if bounces is not None:
                tracer._bouncing += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[key] += 1
                self_time[key] += dt - child
                if bounces is not None:
                    tracer._bouncing -= 1
            if counting:
                tracer.counts["dynamics.bounces"] += bounces(args, kwargs, out)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "magicbilliards"]
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"magicbilliards.{mod_name}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for mod_name, names in LAYERS.items():
            for name in names:
                key = f"{mod_name}.{name}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_ms"] = (self.self_time[key] * 1e3, "ms")
        for key, unit in COUNTERS.items():
            out[key] = (self.counts[key], unit)
        bounces = self.counts["dynamics.bounces"]
        normals = self.calls["geometry.normal_at"]
        out["dynamics.normals_per_bounce"] = (normals / bounces if bounces else 0.0, "ratio")
        roots = self.counts["certificates.roots"]
        dets = self.calls["certificates.cayley_det"]
        out["certificates.dets_per_root"] = (dets / roots if roots else 0.0, "ratio")
        return out
