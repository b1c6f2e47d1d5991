#!/usr/bin/env python3
"""Map the weak-drive cross-correlator over the (g, gamma) coupling landscape.

Usage:
    python scripts/coupling_landscape.py [out.csv]

At weak drive the zero-delay cross-correlator spans everything from complete
antibunching (maximal dissipative coupling) to quartically growing bunching
(strong coherent coupling).  This scan tabulates g2 on a log-log grid of the
two coupling magnitudes at a fixed weak drive, with the relative phase at the
one-way value pi/2 along the diagonal g = gamma/2.
"""

import math
import pathlib
import sys

import numpy as np

from mollowpair.sweep import GridSpec, SweepSpec, run_sweep

OMEGA = 1e-3
GRID_G = np.geomspace(0.05, 5.0, 41)
GRID_GAMMA = GridSpec(min=0.01, max=1.0, count=31, scale="log")


def main() -> int:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "landscape.csv")
    lines = ["g,gamma,regime,g2"]
    for g in GRID_G:
        # One gamma sweep per g, every point through the moment solver.
        r = run_sweep(SweepSpec(param="gamma", grid=GRID_GAMMA, observables=("g2",),
                                fixed={"g": float(g), "theta": 0.5 * math.pi, "phi": 0.0,
                                       "omega1": OMEGA}, fastpath=False))
        for (gamma, g2), regime in zip(r.rows, r.regimes):
            lines.append(f"{g:.8g},{gamma:.8g},{regime},{g2:.17g}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} points to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
