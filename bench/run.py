"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in fresh,
single-threaded child processes (bench/worker.py) that import the
package from the checkout's ``src/``: several set-up probes, then the
workload itself.  With ``--trace 0`` the workload runs a closed loop,
one caller, for S seconds and the end-to-end metrics are printed; with
``--trace 1`` a fixed number of rounds runs untraced and then traced,
and the per-layer metrics are printed.  Lines before the last describe
the run (raw seconds, kernel time R, tail latency, trace overhead); the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from kernel import R0_S, WINDOW_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ["periodic-sweep", "foliation-census", "orbit-export"]
# fresh starts for set-up time, besides the workload's own process
PROBES = 4
# every child must end before this many seconds have passed
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, args, outdir: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        mode, args.workload, str(args.seed), str(args.seconds), outdir,
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.dirname(os.path.dirname(os.path.abspath(doc["package"]))) != SRC:
        raise SystemExit(f"imported the package from {doc['package']}, not from {SRC}")
    return doc


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_latencies(run: dict) -> list[float]:
    """Each latency times R0 / R, R the mean kernel time within WINDOW_S of it."""
    at, kernel = run["kernel_at"], run["kernel"]
    out = []
    for start, dt in zip(run["starts"], run["latencies"]):
        i = bisect.bisect_left(at, start - WINDOW_S)
        j = bisect.bisect_right(at, start + dt + WINDOW_S)
        if i == j:  # no sample that close: take the nearest one
            i, j = (j - 1, j) if j == len(at) else (j, j + 1)
        out.append(dt * R0_S / statistics.fmean(kernel[i:j]))
    return out


def end_to_end(doc: dict, setup: list[float]) -> tuple[dict, dict]:
    run = doc["measure"]
    raw = run["latencies"]
    lat = scaled_latencies(run)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": metric(doc["peak_rss_mb"], "MB"),
    }
    info = {
        "rounds": run["rounds"],
        "operations": len(lat),
        "raw_timed_s": sum(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "kernel_R_median_ms": statistics.median(run["kernel"]) * 1e3,
        "kernel_R_mean_ms": statistics.fmean(run["kernel"]) * 1e3,
        "kernel_R0_ms": R0_S * 1e3,
        "kernel_samples": len(run["kernel"]),
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) >= 2 else None,
    }
    return metrics, info


def per_layer(doc: dict, imports: list[float], first_ops: list[float]) -> tuple[dict, dict]:
    run = doc["trace"]
    metrics = {name: metric(value, unit) for name, (value, unit) in run["layers"].items()}
    metrics["magicbilliards.import_ms"] = metric(statistics.median(imports) * 1e3, "ms")
    metrics["magicbilliards.first_op_ms"] = metric(statistics.median(first_ops) * 1e3, "ms")
    info = {
        "rounds": run["rounds"],
        "untraced_s": run["untraced_s"],
        "traced_s": run["traced_s"],
        "trace_overhead": run["traced_s"] / run["untraced_s"] - 1.0,
        "missing_functions": run["missing"],
    }
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "magicbilliards", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    outdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        probes = [run_worker("probe", args, outdir, deadline) for _ in range(PROBES)]
        mode = "trace" if args.trace else "measure"
        doc = run_worker(mode, args, outdir, deadline)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    starts = probes + [doc]
    imports = [d["import_s"] for d in starts]
    first_ops = [d["first_op_s"] for d in starts]
    setup = [i + f for i, f in zip(imports, first_ops)]
    if args.trace:
        metrics, info = per_layer(doc, imports, first_ops)
        with open(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"info": info, "metrics": metrics, "notes": doc["notes"]}, fh, indent=1)
        print(
            f"trace overhead: {info['trace_overhead']:+.1%} "
            f"({info['traced_s']:.3f} s traced vs {info['untraced_s']:.3f} s untraced, "
            f"{info['rounds']} rounds)"
        )
    else:
        metrics, info = end_to_end(doc, setup)
    info["setup_samples_s"] = setup
    for note in sorted(set(doc["notes"] + doc["warmup_notes"])):
        print(note, file=sys.stderr)
    print("run: " + json.dumps(info))
    wrong = doc["wrong"] + sum(d["wrong"] for d in probes)
    result = {
        "correct": wrong == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
