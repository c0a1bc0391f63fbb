"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS OUTDIR

MODE is ``probe`` (set-up time only), ``measure`` (closed loop, one
caller, for SECONDS, tracing off) or ``trace`` (a fixed number of rounds,
first untraced and then traced).  The last line of standard output is
one JSON object for ``run.py``.  The package must be importable from
``src/`` of the checkout, which ``run.py`` puts on PYTHONPATH.
"""
from __future__ import annotations

import time

_t0 = time.perf_counter()
import magicbilliards  # noqa: E402  (timed: the first half of set-up)

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from kernel import KERNEL_EVERY_S, time_kernel  # noqa: E402
from tracing import Tracer  # noqa: E402

# kernel samples taken in one go between two operations
MAX_SAMPLES = 5
# rounds run by a traced run: fixed, so that its counts repeat exactly
TRACE_ROUNDS = {"periodic-sweep": 1, "foliation-census": 1, "orbit-export": 3}


def build_round(name: str, seed: int, index, outdir: str) -> list:
    if name == "periodic-sweep":
        return workloads.periodic_sweep(seed, index)
    if name == "foliation-census":
        return workloads.foliation_census(seed, index)
    if name == "orbit-export":
        return workloads.orbit_export(seed, index, outdir)
    raise ValueError(f"unknown workload {name!r}")


class Tally:
    """Outcomes of checked operations, with every non-ok detail kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def record(self, label: str, result, check) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            status, detail = "wrong", f"raised {result!r}"
        else:
            try:
                status, detail = check(result)
            except Exception as exc:  # output too malformed to check
                status, detail = "wrong", f"check raised {exc!r}"
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            self.notes.append(f"{status}: {label}: {detail}")


def run_op(call):
    """Time one call; an exception is returned as the result."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the op failed; its check reports it
        result = exc
    return t0, time.perf_counter() - t0, result


def measure(name, seed, seconds, outdir):
    """Whole rounds until SECONDS have passed, the kernel timed in between.

    Times are kept raw, each with its start in seconds since the loop
    began, so that run.py can set every operation against the kernel
    times around it.
    """
    tally = Tally()
    run = {"starts": [], "latencies": [], "kernel_at": [], "kernel": []}
    origin = time.perf_counter()

    def sample():
        run["kernel_at"].append(time.perf_counter() - origin)
        run["kernel"].append(time_kernel())

    sample()
    rounds = 0
    while time.perf_counter() - origin < seconds:
        for label, call, check in build_round(name, seed, rounds, outdir):
            # one sample per KERNEL_EVERY_S of the run, also after a long
            # operation, so that long operations are judged as densely
            owed = (time.perf_counter() - origin - run["kernel_at"][-1]) / KERNEL_EVERY_S
            for _ in range(min(int(owed), MAX_SAMPLES)):
                sample()
            t0, dt, result = run_op(call)
            run["starts"].append(t0 - origin)
            run["latencies"].append(dt)
            tally.record(label, result, check)
        rounds += 1
    sample()
    run["rounds"] = rounds
    return tally, run


def run_rounds(name, seed, rounds, outdir, tally):
    total = 0.0
    for index in range(rounds):
        for label, call, check in build_round(name, seed, index, outdir):
            _, dt, result = run_op(call)
            total += dt
            tally.record(label, result, check)
    return total


def trace(name, seed, outdir):
    """The same rounds untraced and then traced; the ratio is the overhead."""
    rounds = TRACE_ROUNDS[name]
    plain = run_rounds(name, seed, rounds, outdir, Tally())
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        traced = run_rounds(name, seed, rounds, outdir, tally)
    finally:
        tracer.uninstall()
    return tally, {
        "rounds": rounds,
        "untraced_s": plain,
        "traced_s": traced,
        "missing": tracer.missing,
        "layers": tracer.metrics(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, outdir = argv
    seed, seconds = int(seed), float(seconds)
    label, call, check = build_round(name, seed, "warmup", outdir)[0]
    _, first_op_s, result = run_op(call)
    warmup = Tally()
    warmup.record(label, result, check)
    doc = {
        "import_s": IMPORT_S,
        "first_op_s": first_op_s,
        "warmup_notes": warmup.notes,
        "package": magicbilliards.__file__,
    }
    if mode == "measure":
        tally, doc["measure"] = measure(name, seed, seconds, outdir)
    elif mode == "trace":
        tally, doc["trace"] = trace(name, seed, outdir)
    else:
        tally = Tally()
    doc.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong + warmup.wrong,
        notes=tally.notes[:200],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
