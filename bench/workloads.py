"""Seeded workloads of the mollowpair benchmark and the checks on their outputs.

A workload is one fixed list of operations (a pass) built from the seed; the
timed loop repeats whole passes, so every run measures the same mix.  An
operation is what a user of the package does once: a library sweep plus its
CSV serialization, or one in-process CLI call that writes a file.

The program only ever receives the generated ``SweepSpec`` objects or CLI
argument lists; the seed never reaches it.  Why each workload exists is in
``bench/README.md``.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mollowpair.cli as cli
import mollowpair.sweep as sweep
from mollowpair.errors import UndefinedCorrelatorError
from mollowpair.moments import build_moment_system, g2_cross, populations, steady_state

#: Populations sum to one and decompositions obey sum L + delta = 1 within
#: this (tests/test_spectrum.py, tests/test_moments.py).
SUM_TOL = 1e-9
#: Relative agreement of closed-form fast-path values with the moment solver
#: (tests/test_acceptance.py, criterion 1).
CLOSED_FORM_RTOL = 1e-9

#: The weak-drive g2 scan of scripts/coupling_landscape.py: 41 x 31 points.
LANDSCAPE_G = np.geomspace(0.05, 5.0, 41)
LANDSCAPE_GAMMA = sweep.GridSpec(min=0.01, max=1.0, count=31, scale="log")
LANDSCAPE_OMEGA = 1e-3

#: Sweeps per spectra pass: enough draws that the latency quantiles of one
#: pass hardly depend on the seed.  Corners (a) and (c) sit at fixed indices,
#: one sweep in twenty each, so p90 stays a regular-sweep latency.
SPECTRA_SWEEPS = 100
SPECTRA_POINTS = 5
CORNER_STRONG_COHERENT = "a"   # g 10-1000, gamma 0, weak drive: breaks the sum rule
CORNER_CRITICAL_DRIVE = "c"    # one-way pair across omega1 = 1/8: spectrum:fft-fallback
CORNER_TRAPPING = "b"          # g 0, gamma 1, omega1 1e-6..1: aborts

#: Corner (b), run untimed after the loop because it aborts today:
#: ``--regime dissipative --set gamma=1 --sweep omega1:1e-6:1:4:log
#: --observable spectrum``.
TRAPPING_SPEC = sweep.SweepSpec(
    param="omega1",
    grid=sweep.GridSpec(min=1e-6, max=1.0, count=4, scale="log"),
    fixed={"g": 0.0, "gamma": 1.0},
    observables=("spectrum",),
)


@dataclass
class Op:
    """One timed operation and the untimed check of what it returned."""

    label: str
    points: int
    call: Callable[[], object]
    check: Callable[[object], list[dict]]
    corner: str = ""


def _failure(check: str, spec: sweep.SweepSpec | None, index: int | None, detail: str) -> dict:
    """A failed check: which check, at which point (None: every point), and why."""
    point = None
    if spec is not None and index is not None:
        point = {**spec.fixed, spec.param: float(spec.grid.values()[index])}
    return {"check": check, "point_index": index, "point": point, "detail": detail}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLOSED_FORM_RTOL * max(abs(a), abs(b))


def check_result(spec: sweep.SweepSpec, r: sweep.SweepResult) -> list[dict]:
    """Point checks shared by every workload; returns the failures."""
    out: list[dict] = []
    values = spec.grid.values()
    if len(r.rows) != len(values):
        return [_failure("row-count", spec, None, f"{len(r.rows)} rows for {len(values)} points")]
    col = {name: i for i, name in enumerate(r.columns)}
    pop_cols = [col[k] for k in ("rho00", "rho10", "rho01", "rho11") if k in col]
    index_of = {float(v): i for i, v in enumerate(values)}

    for i, (row, path) in enumerate(zip(r.rows, r.paths)):
        if pop_cols:
            total = sum(row[c] for c in pop_cols)
            if not abs(total - 1.0) <= SUM_TOL:
                out.append(_failure("population-sum", spec, i, f"sum {total!r}"))
        if "closed-form" in path:
            out += _check_fast_path(spec, i, row, col)

    for block in r.decompositions:
        i = index_of[block.value]
        total = sum(c[2] for c in block.components) + block.delta_weight
        if not abs(total - 1.0) <= SUM_TOL:
            out.append(_failure("sum-rule", spec, i, f"sum L + delta - 1 = {total - 1.0:.3e}"))
    for block in r.spectra:
        i = index_of[block.value]
        if len(block.values) != spec.spectrum_points or not np.all(np.isfinite(block.values)):
            out.append(_failure("spectrum-finite", spec, i, "non-finite or short spectrum"))
        if not 0.0 <= block.delta_weight <= 1.0:
            out.append(_failure("delta-weight", spec, i, f"delta_weight {block.delta_weight!r}"))
    return out


def _check_fast_path(spec, i, row, col) -> list[dict]:
    """A closed-form point must agree with the moment solver at the same point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = steady_state(build_moment_system(spec.point(spec.grid.values()[i])))
    out = []
    if "rho00" in col:
        ref = populations(state).as_array()
        got = [row[col[k]] for k in ("rho00", "rho10", "rho01", "rho11")]
        if not all(_close(a, b) for a, b in zip(got, ref)):
            out.append(_failure("closed-form-populations", spec, i, f"{got} vs moments {list(ref)}"))
    if "g2" in col and row[col["g2"]] is not None:
        try:
            ref_g2 = g2_cross(state)
        except UndefinedCorrelatorError:
            return out  # the closed form is the only route at vanishing drive
        if not _close(row[col["g2"]], ref_g2):
            out.append(_failure("closed-form-g2", spec, i, f"{row[col['g2']]!r} vs moments {ref_g2!r}"))
    return out


def _library_op(label: str, spec: sweep.SweepSpec, corner: str = "") -> Op:
    # Module attributes are looked up at call time, so a traced run sees them wrapped.
    def call():
        result = sweep.run_sweep(spec)
        return result, sweep.emit(result, "csv")

    return Op(label, spec.grid.count, call, lambda out: check_result(spec, out[0]), corner)


def landscape_ops(seed: int) -> list[Op]:
    """41 gamma sweeps of populations and g2 at weak drive, in seeded order."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in rng.permutation(len(LANDSCAPE_G)):
        g = float(LANDSCAPE_G[i])
        spec = sweep.SweepSpec(
            param="gamma",
            grid=LANDSCAPE_GAMMA,
            fixed={"g": g, "theta": 0.5 * math.pi, "phi": 0.0, "omega1": LANDSCAPE_OMEGA},
            observables=("populations", "g2"),
        )
        ops.append(_library_op(f"landscape g={g:.6g}", spec))
    return ops


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def spectra_ops(seed: int) -> list[Op]:
    """Five-point omega1 sweeps of spectra and decompositions.

    Regular sweeps draw over the asymmetric domain; corners (a) and (c) take
    fixed sweep indices, never chosen by outcome.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(SPECTRA_SWEEPS):
        if i % 20 == 7:
            fixed = {"g": _log_uniform(rng, 10.0, 1000.0), "gamma": 0.0,
                     "theta": rng.uniform(0.0, 2.0 * math.pi)}
            grid = sweep.GridSpec(min=_log_uniform(rng, 0.005, 0.01),
                                  max=_log_uniform(rng, 0.02, 0.05),
                                  count=SPECTRA_POINTS, scale="log")
            observables, corner = ("decomposition",), CORNER_STRONG_COHERENT
        elif i % 20 == 13:
            gamma, phi = rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            fixed = {"g": 0.5 * gamma, "gamma": gamma, "phi": phi, "theta": phi + 0.5 * math.pi}
            half = rng.uniform(0.01, 0.05)
            grid = sweep.GridSpec(min=0.125 - half, max=0.125 + half,
                                  count=SPECTRA_POINTS, scale="linear")
            observables, corner = ("spectrum",), CORNER_CRITICAL_DRIVE
        else:
            fixed = {"g": _log_uniform(rng, 0.1, 5.0), "gamma": rng.uniform(0.0, 1.0),
                     "theta": rng.uniform(0.0, 2.0 * math.pi),
                     "phi": rng.uniform(0.0, 2.0 * math.pi), "delta": rng.normal()}
            if i % 4 == 1:
                fixed["omega2"] = _log_uniform(rng, 0.1, 2.0)
            lo = _log_uniform(rng, 0.1, 1.0)
            grid = sweep.GridSpec(min=lo, max=lo * _log_uniform(rng, 3.0, 10.0),
                                  count=SPECTRA_POINTS, scale="log")
            # One regular sweep in ten is decomposition-only (no spectrum emit),
            # so p50 lies inside the spectrum sweeps rather than between the two.
            if i % 10 == 4:
                observables = ("decomposition",)
            else:
                observables = ("spectrum",) if i % 2 == 0 else ("spectrum", "decomposition")
            corner = ""
        spec = sweep.SweepSpec(param="omega1", grid=grid, fixed=fixed, observables=observables)
        ops.append(_library_op(f"spectra #{i}{' corner ' + corner if corner else ''}", spec, corner))
    return ops


def presets_ops(seed: int, outdir: str) -> list[Op]:
    """Every preset through the in-process CLI, as CSV and as JSON, in seeded order."""
    pairs = [(name, fmt) for name in sweep.preset_names() for fmt in ("csv", "json")]
    rng = np.random.default_rng(seed)
    return [_preset_op(*pairs[i], outdir) for i in rng.permutation(len(pairs))]


def _preset_op(name: str, fmt: str, outdir: str) -> Op:
    path = os.path.join(outdir, f"{name}.{fmt}")
    argv = ["--preset", name, "--format", fmt, "--out", path]
    spec = sweep.load_preset(name)

    def call():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mollowpair {' '.join(argv)} exited with {code}")

    def check(_):
        result = sweep.run_sweep(spec)
        out = check_result(spec, result)
        with open(path, "rb") as fh:
            written = fh.read()
        if written != sweep.emit(result, fmt):
            out.append(_failure("cli-bytes", None, None, f"{path} differs from emit()"))
        if sweep.parse_json(sweep.emit(result, "json")) != result:
            out.append(_failure("json-roundtrip", None, None, "parse_json(emit(r)) != r"))
        return out

    return Op(f"preset {name} {fmt}", spec.grid.count, call, check)


def trapping_probe() -> tuple[int, str, list[dict]]:
    """Run corner (b) once, untimed: (1 if it aborted else 0, the error, failed checks)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = sweep.run_sweep(TRAPPING_SPEC)
        except Exception as exc:  # any abort is the outcome being counted
            return 1, f"{type(exc).__name__}: {exc}", []
    return 0, "", check_result(TRAPPING_SPEC, result)


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    if workload == "landscape":
        return landscape_ops(seed)
    if workload == "spectra":
        return spectra_ops(seed)
    if workload == "presets":
        os.makedirs(outdir, exist_ok=True)
        return presets_ops(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}")
