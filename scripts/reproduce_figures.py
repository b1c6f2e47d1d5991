#!/usr/bin/env python3
"""Run every figure-reproduction preset and write plot-ready tables.

Usage:
    python scripts/reproduce_figures.py [outdir]

Writes one CSV and one JSON per preset into outdir (default ./figures-out).
Rendering is intentionally left to external tools; every file carries the
swept values, observables and (for spectra) per-drive frequency blocks.
Prints per preset the wall time of the sweep (run_sweep) and of each
serialization (emit), in milliseconds; file writes are not timed.
"""

import pathlib
import sys
import time

from mollowpair.sweep import emit, load_preset, preset_description, preset_names, run_sweep


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figures-out")
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'preset':7s} {'run ms':>8s} {'csv ms':>8s} {'json ms':>8s}  description")
    for name in preset_names():
        t0 = time.perf_counter()
        result = run_sweep(load_preset(name))
        times = [time.perf_counter() - t0]
        for fmt in ("csv", "json"):
            t0 = time.perf_counter()
            payload = emit(result, fmt)
            times.append(time.perf_counter() - t0)
            (outdir / f"{name}.{fmt}").write_bytes(payload)
        print(f"{name:7s} " + " ".join(f"{1e3 * t:8.2f}" for t in times)
              + f"  {preset_description(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
