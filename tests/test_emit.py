"""Bulk CSV/JSON writers against the per-row reference writers.

The reference writers below are the package's former serializers, kept as
the oracle: per-row f-strings for CSV and one json.dumps(..., sort_keys=True,
indent=1) of the whole document for JSON.  emit must reproduce their bytes
exactly, non-finite and extreme floats included.
"""

import io
import json
import math

import numpy as np
import pytest

from mollowpair.sweep import (
    DecompositionBlock,
    GridSpec,
    SpectrumBlock,
    SweepResult,
    SweepSpec,
    emit,
    load_preset,
    parse_json,
    preset_names,
    run_sweep,
)


def _fmt(x):
    return f"{x:.17g}"


def reference_csv(result):
    out = io.StringIO()
    meta = {
        "schema": "mollowpair.sweep",
        "schema_version": 1,
        "artifact_version": result.version,
        "spec": result.spec.as_dict(),
        "regimes": list(result.regimes),
        "paths": list(result.paths),
        "notes": list(result.notes),
    }
    out.write(f"# {json.dumps(meta, sort_keys=True)}\n")
    if result.spec.observables:
        out.write(",".join(result.columns) + "\n")
        for row in result.rows:
            out.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")
    else:
        out.write(result.spec.param + "\n")
    for block in result.spectra:
        out.write(f"\n# spectrum {result.spec.param} = {_fmt(block.value)} "
                  f"delta_weight = {_fmt(block.delta_weight)}\n")
        out.write("omega,spectral_density\n")
        for w, s in zip(block.grid, block.values):
            out.write(f"{_fmt(w)},{_fmt(s)}\n")
    for block in result.decompositions:
        out.write(f"\n# decomposition {result.spec.param} = {_fmt(block.value)} "
                  f"delta_weight = {_fmt(block.delta_weight)}\n")
        out.write("omega_zeta,gamma_zeta,L_zeta,K_zeta\n")
        for comp in block.components:
            out.write(",".join(_fmt(x) for x in comp) + "\n")
    return out.getvalue().encode()


def reference_json(result):
    doc = {
        "schema": "mollowpair.sweep",
        "schema_version": 1,
        "artifact_version": result.version,
        "spec": result.spec.as_dict(),
        "columns": list(result.columns),
        "rows": [list(r) for r in result.rows],
        "regimes": list(result.regimes),
        "paths": list(result.paths),
        "notes": list(result.notes),
        "spectra": [
            {"value": b.value, "delta_weight": b.delta_weight,
             "grid": list(b.grid), "values": list(b.values)}
            for b in result.spectra
        ],
        "decompositions": [
            {"value": b.value, "delta_weight": b.delta_weight,
             "components": [list(c) for c in b.components]}
            for b in result.decompositions
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1).encode()


REFERENCE = {"csv": reference_csv, "json": reference_json}

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-7, 123456789.0,
            # exact ties for 17-digit rounding, and the edges of fixed and scientific notation
            1e15 + 0.25, 1e15 + 0.75, 1e-5, 9.9999999999999995e-5, 99999999999999999.0,
            # repr's own edges: whole numbers, its switch at 1e16, a power of two
            100.0, 1234567890123456.0, 9999999999999998.0, 2.0**-20]


def synthetic(observables=("populations", "spectrum", "decomposition"), spectra=True,
              decompositions=True, rows=None):
    spec = SweepSpec(param="omega1", grid=GridSpec(min=1.0, max=2.0, count=2),
                     fixed={"g": 0.5}, observables=observables, spectrum_points=13)
    grid = np.array(EXTREMES)
    return SweepResult(
        spec=spec,
        columns=("omega1", "rho00", "rho10", "rho01", "rho11", "delta_weight"),
        rows=rows if rows is not None else (
            (1.0, None, -0.0, 5e-324, math.nan, None),
            (2.0, math.inf, -math.inf, 1.7976931348623157e308, 0.25, 1.0 / 3.0),
        ),
        regimes=("asymmetric", "asymmetric"),
        paths=("a;b", "c"),
        notes=("", "spectrum:null"),
        spectra=(
            SpectrumBlock(-0.0, grid, grid[::-1], math.nan),
            SpectrumBlock(math.inf, np.arange(float(grid.size)), -grid, 5e-324),
        ) if spectra else (),
        decompositions=(
            DecompositionBlock(1.0, ((-0.0, math.inf, math.nan, 5e-324),
                                     (1.0, 2.0, 3.0, 1.7976931348623157e308)), -math.inf),
            DecompositionBlock(2.0, (), 0.5),
            DecompositionBlock(3.0, ((1, -2, 3, 40),), 0.25),  # integer cells
        ) if decompositions else (),
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", preset_names())
def test_presets_match_reference_writer(name, fmt):
    result = run_sweep(load_preset(name))
    assert emit(result, fmt) == REFERENCE[fmt](result)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", [
    dict(),
    dict(spectra=False),
    dict(decompositions=False),
    dict(spectra=False, decompositions=False),
    dict(observables=(), spectra=False, decompositions=False, rows=((1.0,), (2.0,))),
])
def test_synthetic_results_match_reference_writer(case, fmt):
    result = synthetic(**case)
    assert emit(result, fmt) == REFERENCE[fmt](result)


def test_roundtrip_is_bool_true_and_exact():
    spec = SweepSpec(param="omega1", grid=GridSpec(min=0.5, max=2.0, count=2),
                     fixed={"g": 0.7, "gamma": 0.4, "theta": 1.0},
                     observables=("populations", "g2", "spectrum", "decomposition"),
                     spectrum_points=101)
    result = run_sweep(spec)
    assert (parse_json(emit(result, "json")) == result) is True

    block = result.spectra[1]
    moved = block.values.copy()
    moved[50] = np.nextafter(moved[50], np.inf)
    nudged = SpectrumBlock(block.value, block.grid, moved, block.delta_weight)
    other = SweepResult(**{**result.__dict__, "spectra": (result.spectra[0], nudged)})
    assert (other == result) is False
    assert (parse_json(emit(other, "json")) == other) is True
    assert (block == 1) is False  # __eq__ defers to the other operand


def test_spectrum_block_arrays_are_read_only_copies():
    source = np.linspace(0.0, 1.0, 9)
    block = SpectrumBlock(0.5, source, source, 0.0)
    source[0] = 7.0
    assert block.grid[0] == 0.0
    with pytest.raises(ValueError):
        block.grid[0] = 1.0
    with pytest.raises(ValueError):
        block.values[0] = 1.0
    assert block.grid.dtype == np.float64
