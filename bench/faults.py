"""List the periodic-sweep operations that faults F1 and F2 hit.

    python3 bench/faults.py

Runs every search of periodic-sweep's fixed reference families once,
checks it as the benchmark does, and prints one line per failing
operation; the last line counts them.  The seeded families are left
out: their searches pass on every seed.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def main() -> int:
    counts = {"ok": 0, "F1": 0, "F2": 0, "wrong": 0}
    for a, b in workloads.REFERENCE_FAMILIES:
        for system, n in workloads.SWEEP:
            label, call, check = workloads.periodic_op(system, n, a, b, "reference")
            status, detail = check(call())
            counts[status] += 1
            if status != "ok":
                print(f"{status}  {label}: {detail}")
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
