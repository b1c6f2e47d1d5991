"""The scripts under scripts/, run as a user runs them, against the library."""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np

from mollowpair.moments import build_moment_systems, g2_cross, steady_states
from mollowpair.params import SystemParams
from mollowpair.sweep import emit, load_preset, preset_names, run_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_coupling_landscape_writes_the_stacked_engine_g2(tmp_path):
    out = tmp_path / "landscape.csv"
    run_script("coupling_landscape.py", out, cwd=tmp_path)
    header, *lines = out.read_text().splitlines()
    assert header == "g,gamma,regime,g2"
    assert len(lines) == 41 * 31
    ps = [SystemParams(g=g, gamma=gamma, theta=0.5 * np.pi, phi=0.0, omega1=1e-3)
          for g in np.geomspace(0.05, 5.0, 41) for gamma in np.geomspace(0.01, 1.0, 31)]
    states = steady_states(build_moment_systems(ps))
    for line, p, state in zip(lines, ps, states):
        g, gamma, _, g2 = line.split(",")
        assert (float(g), float(gamma)) == (float(f"{p.g:.8g}"), float(f"{p.gamma:.8g}"))
        assert float(g2) == g2_cross(state), line


def test_reproduce_figures_writes_every_preset_as_emitted(tmp_path):
    outdir = tmp_path / "figures"
    run_script("reproduce_figures.py", outdir, cwd=tmp_path)
    names = preset_names()
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        f"{name}.{fmt}" for name in names for fmt in ("csv", "json"))
    for name in names:
        result = run_sweep(load_preset(name))
        for fmt in ("csv", "json"):
            assert (outdir / f"{name}.{fmt}").read_bytes() == emit(result, fmt), (name, fmt)


def test_output_manifest_hashes_every_preset_and_the_landscape(tmp_path):
    lines = run_script("output_manifest.py", cwd=tmp_path).stdout.splitlines()
    digests, names = zip(*(line.split("  ") for line in lines))
    assert list(names) == [f"{name}.{fmt}" for name in preset_names() for fmt in ("csv", "json")
                           ] + ["coupling_landscape.csv", "manifest"]
    expected = []
    for name in preset_names():
        result = run_sweep(load_preset(name))
        expected += [hashlib.sha256(emit(result, fmt)).hexdigest() for fmt in ("csv", "json")]
    run_script("coupling_landscape.py", tmp_path / "landscape.csv", cwd=tmp_path)
    expected.append(hashlib.sha256((tmp_path / "landscape.csv").read_bytes()).hexdigest())
    listed = "".join(line + "\n" for line in lines[:-1]).encode()
    expected.append(hashlib.sha256(listed).hexdigest())
    assert list(digests) == expected
