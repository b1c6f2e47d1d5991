#!/usr/bin/env python3
"""Print the sha256 of every output whose bytes a change must keep.

Usage:
    python scripts/output_manifest.py [--against FILE]

One line "<sha256>  <name>" per output: each preset as emit writes it, CSV
and JSON; the CSV that scripts/coupling_landscape.py writes; last "manifest",
the sha256 of all the lines before it.  Two checkouts write the same bytes
for all of them exactly when their manifest lines agree.

With --against FILE, a manifest this script wrote earlier (say, at another
commit), one line "differs  <name>" follows for every name whose digest is
not the same in FILE, a name missing on either side included.  The exit
status does not depend on them.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import mollowpair
from mollowpair.sweep import emit, load_preset, preset_names, run_sweep

LANDSCAPE = pathlib.Path(__file__).resolve().parent / "coupling_landscape.py"


def _line(data: bytes, name: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every output a change must keep")
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier manifest: name the outputs whose digest differs")
    args = parser.parse_args(argv)
    lines = []
    for name in preset_names():
        result = run_sweep(load_preset(name))
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
