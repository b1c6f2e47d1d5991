#!/usr/bin/env python3
"""Print the sha256 of every output whose bytes a change must keep.

Usage:
    python scripts/output_manifest.py [--against FILE]

One line "<sha256>  <name>" per output: each preset as emit writes it, CSV
and JSON; the same for each of CORNERS, five-point sweeps at the spectral
engine's hard corners; the CSV that scripts/coupling_landscape.py writes;
last "manifest", the sha256 of all the lines before it.  Two checkouts write
the same bytes for all of them exactly when their manifest lines agree.

With --against FILE, a manifest this script wrote earlier (say, at another
commit), one line "differs  <name>" follows for every name whose digest is
not the same in FILE, a name missing on either side included.  The exit
status does not depend on them.
"""

import argparse
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import mollowpair
from mollowpair.sweep import GridSpec, SweepSpec, emit, load_preset, preset_names, run_sweep

LANDSCAPE = pathlib.Path(__file__).resolve().parent / "coupling_landscape.py"


def _corner(lo: float, hi: float, scale: str, **fixed: float) -> SweepSpec:
    return SweepSpec(param="omega1", grid=GridSpec(min=lo, max=hi, count=5, scale=scale),
                     fixed=fixed, observables=("spectrum", "decomposition"), spectrum_points=401)


#: Five-point sweeps at the spectral engine's hard corners.  The first four
#: take the Krylov route at every point; of the presets only fig8 reaches it.
CORNERS = {
    # The one-way pair across the critical drive gamma0/8: a Jordan pole.
    "corner-critical-drive": _corner(0.12, 0.13, "linear", g=0.5, gamma=1.0,
                                     theta=0.5 * math.pi),
    # The trapping line's hidden Jordan block, weak to strong drive.
    "corner-trapping-line": _corner(1e-3, 10.0, "log", g=0.0, gamma=1.0),
    # Corner (a): strong coherent coupling, near-coincident quintuplet lines.
    "corner-strong-coherent": _corner(0.005, 0.05, "log", g=400.0, theta=1.2),
    # The backward one-way pair with both emitters driven.
    "corner-backward-one-way": _corner(0.003, 0.03, "log", delta=-0.25, g=0.3, gamma=0.6,
                                       theta=1.5 * math.pi, omega2=0.007),
    # Far detuning, delta = 402 gamma0, on the direct route.
    "corner-large-detuning": _corner(0.01, 0.04, "log", delta=402.0, g=4.0, theta=0.81,
                                     gamma=0.47, phi=1.74),
}


def _line(data: bytes, name: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every output a change must keep")
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier manifest: name the outputs whose digest differs")
    args = parser.parse_args(argv)
    lines = []
    specs = [(name, load_preset(name)) for name in preset_names()] + list(CORNERS.items())
    for name, spec in specs:
        result = run_sweep(spec)
        lines += [_line(emit(result, fmt), f"{name}.{fmt}") for fmt in ("csv", "json")]
    # The landscape script imports the same package as this one.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(mollowpair.__file__).parent.parent)}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "landscape.csv"
        subprocess.run([sys.executable, str(LANDSCAPE), str(out)], env=env, check=True,
                       capture_output=True)
        lines.append(_line(out.read_bytes(), "coupling_landscape.csv"))
    lines.append(_line("".join(line + "\n" for line in lines).encode(), "manifest"))
    if args.against is not None:
        with open(args.against, encoding="utf-8") as fh:
            before = _digests(fh.read().splitlines())
        now = _digests(lines)
        lines += [f"differs  {name}" for name in [*now, *(n for n in before if n not in now)]
                  if now.get(name) != before.get(name)]
    print("\n".join(lines))
    return 0


def _digests(lines) -> dict[str, str]:
    """{name: sha256} of manifest lines; other lines are skipped."""
    pairs = (line.split("  ", 1) for line in lines)
    return {pair[1]: pair[0] for pair in pairs if len(pair) == 2 and len(pair[0]) == 64}


if __name__ == "__main__":
    sys.exit(main())
