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

import pathlib
import sys

import numpy as np

from mollowpair.moments import build_moment_systems, g2_cross, steady_states
from mollowpair.params import SystemParams, classify_regime

OMEGA = 1e-3
GRID_G = np.geomspace(0.05, 5.0, 41)
GRID_GAMMA = np.geomspace(0.01, 1.0, 31)


def main() -> int:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "landscape.csv")
    lines = ["g,gamma,regime,g2"]
    for g in GRID_G:
        row = [SystemParams(g=g, gamma=gamma, theta=0.5 * np.pi, phi=0.0, omega1=OMEGA)
               for gamma in GRID_GAMMA]
        for p, state in zip(row, steady_states(build_moment_systems(row))):
            lines.append(f"{g:.8g},{p.gamma:.8g},{classify_regime(p).value},{g2_cross(state):.17g}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} points to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
