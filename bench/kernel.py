"""The reference kernel that scales the benchmark's timings.

The machine's speed for this kind of code changes from one tenth of a
second to the next and drifts between runs.  The worker times the kernel
every ``KERNEL_EVERY_S`` between operations; ``run.py`` reports each
operation's time as raw * R0 / R, where R is the mean kernel time within
``WINDOW_S`` of the operation, so each operation is judged against the
machine state it ran in.
"""
import math
import time
from dataclasses import dataclass

# Typical mean kernel time of a run on the reference machine, in seconds
# (README.md).  Scaled timings read as if the machine ran at that speed.
R0_S = 0.0025
KERNEL_EVERY_S = 0.1
WINDOW_S = 1.0


@dataclass(frozen=True)
class _State:
    at: tuple
    v: tuple


def _hit(p, v):
    alpha = v[0] * v[0] / 9.0 + v[1] * v[1] / 4.0
    gamma = p[0] * v[0] / 9.0 + p[1] * v[1] / 4.0
    t = -2.0 * gamma / alpha
    return p[0] + t * v[0], p[1] + t * v[1]


def _reflect(p, v):
    nx, ny = p[0] / 9.0, p[1] / 4.0
    h = math.hypot(nx, ny)
    nx, ny = nx / h, ny / h
    d = v[0] * nx + v[1] * ny
    return v[0] - 2.0 * d * nx, v[1] - 2.0 * d * ny


def reference_kernel(steps: int = 1000) -> float:
    """Classical billiard in x²/9 + y²/4 = 1 written with plain floats.

    It calls nothing from the package but does the kind of work the
    package does per bounce: float arithmetic, small tuples, function
    calls and one frozen-dataclass state per step.
    """
    s = _State((3.0 * math.cos(0.3), 2.0 * math.sin(0.3)), (-0.8, -0.6))
    turn = 0.0
    for _ in range(steps):
        p = _hit(s.at, s.v)
        v = _reflect(p, s.v)
        h = math.hypot(*v)
        turn += math.atan2(p[1], p[0])
        s = _State(p, (v[0] / h, v[1] / h))
    return turn


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
