"""Render one SVG per magic kind plus an annulus run (written to ./orbit_svgs)."""
import math
import os
import sys

from magicbilliards.cli import main

os.makedirs("orbit_svgs", exist_ok=True)

x0 = 0.2995
y0 = repr(2.0 * math.sqrt(1.0 - x0 * x0 / 9.0))
failed = 0

for kind in ("identity", "flip-long", "flip-short", "half-turn"):
    out = f"orbit_svgs/{kind}"
    rc = main(["simulate", "--system", kind, "--x0", str(x0), "--y0", y0,
               "--dx", "1", "--dy", "-0.35", "--bounces", "12",
               "--out", f"{out}.csv", "--svg", f"{out}.svg"])
    print(f"{kind:10s} -> {out}.svg" if rc == 0 else f"{kind}: failed ({rc})")
    failed += rc != 0

# same start on the annulus table; segments bounce off both walls
rc = main(["simulate", "--table", "annulus", "--inner-lambda", "3",
           "--system", "half-turn", "--x0", str(x0), "--y0", y0,
           "--dx", "-0.2", "--dy", "-1", "--bounces", "14",
           "--out", "orbit_svgs/annulus.csv", "--svg", "orbit_svgs/annulus.svg"])
print("annulus    -> orbit_svgs/annulus.svg" if rc == 0 else f"annulus: failed ({rc})")
failed += rc != 0
if failed:
    sys.exit(1)
