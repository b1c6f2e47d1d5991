"""Sweep machinery, serialization schemas, presets and the CLI contract."""

import ast
import dataclasses
import inspect
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mollowpair.cli as cli
import mollowpair.moments
import mollowpair.spectrum
import mollowpair.sweep
from mollowpair import closed_forms
from mollowpair.errors import (ConditionWarning, SweepSpecError, UndefinedCorrelatorError,
                               UnsupportedConfigurationError)
from mollowpair.liouville import build_liouvillian, spectrum_fft
from mollowpair.moments import build_moment_system, g2_cross, populations, steady_state
from mollowpair.params import Regime, classify_regime
from mollowpair.single_emitter import SingleParams, single_spectrum
from mollowpair.spectrum import decompose_spectrum, default_grid, evaluate_spectrum
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

REQUIRED_PRESETS = ("fig3a", "fig3b", "fig4", "fig5", "fig6", "fig8",
                    "fig9", "fig11", "fig12", "fig13")


def small_spec(**kw):
    defaults = dict(
        param="omega1",
        grid=GridSpec(min=0.01, max=100.0, count=3, scale="log"),
        fixed={"g": 1.0},
        observables=("populations",),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


# --- spec validation ---------------------------------------------------------

def test_grid_validation():
    with pytest.raises(SweepSpecError, match="count"):
        GridSpec(min=0.0, max=1.0, count=1)
    with pytest.raises(SweepSpecError, match="log"):
        GridSpec(min=0.0, max=1.0, count=5, scale="log")
    with pytest.raises(SweepSpecError, match="max > min"):
        GridSpec(min=2.0, max=1.0, count=5)


def test_spec_validation():
    with pytest.raises(SweepSpecError, match="unknown sweep parameter"):
        small_spec(param="rabi")
    with pytest.raises(SweepSpecError, match="also appears"):
        small_spec(fixed={"omega1": 1.0})
    with pytest.raises(SweepSpecError, match="unknown observable"):
        small_spec(observables=("brightness",))


def test_log_grid_endpoints():
    vals = GridSpec(min=0.25, max=2.0, count=4, scale="log").values()
    np.testing.assert_allclose(vals, [0.25, 0.5, 1.0, 2.0], rtol=1e-12)


# --- run_sweep ---------------------------------------------------------------

def test_populations_sweep_schema():
    result = run_sweep(small_spec())
    assert result.columns == ("omega1", "rho00", "rho10", "rho01", "rho11")
    assert len(result.rows) == 3
    for row in result.rows:
        assert sum(row[1:]) == pytest.approx(1.0, abs=1e-9)
    assert all(r == "coherent" for r in result.regimes)


def test_g2_null_marker_at_zero_drive():
    spec = small_spec(
        param="g",
        grid=GridSpec(min=0.1, max=1.0, count=2),
        fixed={"omega1": 0.0},
        observables=("g2",),
    )
    result = run_sweep(spec)
    assert all(row[1] is None for row in result.rows)
    assert all("undefined-correlator" in note for note in result.notes)


def test_g2_null_marker_where_moment_product_underflows():
    # An asymmetric pair at vanishing drive takes the moment path, where
    # n1 * n2 underflows the correlator's floor: the same null cell.
    spec = SweepSpec(param="omega1", grid=GridSpec(1e-9, 1e-8, 2, "log"),
                     fixed={"g": 0.7, "gamma": 0.4, "theta": 1.0}, observables=("g2",))
    result = run_sweep(spec)
    assert result.regimes == ("asymmetric", "asymmetric")
    assert [row[1] for row in result.rows] == [None, None]
    assert result.paths == ("g2:null", "g2:null")
    assert result.notes == ("g2:undefined-correlator", "g2:undefined-correlator")


def test_fastpath_agrees_with_forced_numeric():
    spec = small_spec(observables=("populations", "g2"),
                      grid=GridSpec(min=0.05, max=20.0, count=7, scale="log"))
    fast = run_sweep(spec)
    slow = run_sweep(small_spec(observables=("populations", "g2"),
                                grid=GridSpec(min=0.05, max=20.0, count=7, scale="log"),
                                fastpath=False))
    assert "closed-form" in fast.paths[0] and "moments" in slow.paths[0]
    for rf, rs in zip(fast.rows, slow.rows):
        np.testing.assert_allclose(rf, rs, atol=1e-9)


def test_spectrum_sweep_blocks():
    spec = small_spec(observables=("spectrum",),
                      grid=GridSpec(min=1.0, max=2.0, count=2),
                      spectrum_points=201)
    result = run_sweep(spec)
    assert len(result.spectra) == 2
    assert result.columns == ("omega1", "delta_weight")
    for block, row in zip(result.spectra, result.rows):
        assert len(block.grid) == 201
        assert block.delta_weight == row[1]


def test_decomposition_sweep_blocks():
    spec = small_spec(observables=("decomposition",),
                      grid=GridSpec(min=1.0, max=2.0, count=2))
    result = run_sweep(spec)
    assert len(result.decompositions) == 2
    assert all(len(b.components) >= 3 for b in result.decompositions)


def test_spectrum_sweep_through_trapping_point():
    # Dissipative pair at gamma = gamma0 down to vanishing drive: the same
    # sweep as --regime dissipative --set gamma=1 --sweep omega1:1e-6:1:4:log
    # --observable spectrum.  Near the trapping point the oracle's kernel is
    # numerically two-dimensional, while the moment system stays solvable.
    spec = small_spec(fixed={"g": 0.0, "gamma": 1.0}, observables=("spectrum",),
                      grid=GridSpec(min=1e-6, max=1.0, count=4, scale="log"))
    with pytest.warns(ConditionWarning, match="sweep point 0"):
        result = run_sweep(spec)
    assert result.paths == ("spectrum:eigendecomposition",) * 4
    assert len(result.spectra) == 4


def test_spectrum_sweep_decomposes_critical_drive():
    # The one-way pair across omega1 = gamma0/8: the middle point carries a
    # visible Jordan pair, a second-order pole of the engine's decomposition.
    spec = small_spec(fixed={"g": 0.5, "gamma": 1.0, "theta": np.pi / 2},
                      observables=("spectrum",),
                      grid=GridSpec(min=0.124, max=0.126, count=3))
    result = run_sweep(spec)
    assert result.paths == ("spectrum:eigendecomposition",) * 3
    middle = result.spectra[1]
    ref = single_spectrum(SingleParams(gamma=1.0, omega=0.125), middle.grid)
    assert np.max(np.abs(middle.values - ref.values)) < 1e-10 * np.max(ref.values)
    assert middle.delta_weight == pytest.approx(ref.delta_weight, abs=1e-12)


def test_decomposition_sweep_nulls_second_order_pole():
    # --regime unidirectional-forward --set gamma=1
    # --sweep omega1:0.124:0.126:3:linear: the 4-column table cannot hold the
    # middle point's second-order pole, so that cell is null; its spectrum
    # still lands.
    spec = small_spec(fixed={"g": 0.5, "gamma": 1.0, "theta": np.pi / 2},
                      observables=("spectrum", "decomposition"),
                      grid=GridSpec(min=0.124, max=0.126, count=3))
    result = run_sweep(spec)
    assert result.paths[1] == "decomposition:null;spectrum:eigendecomposition"
    assert result.notes == ("", "decomposition:second-order-pole", "")
    assert [b.value for b in result.decompositions] == [0.124, 0.126]
    assert len(result.spectra) == 3
    assert result.rows[1][1] == result.spectra[1].delta_weight


def test_trapping_line_strong_drive_spectra_match_quadrature():
    # --regime dissipative --set gamma=1 --sweep omega1:4:10:4:linear: M
    # hides a Jordan pair at lambda = gamma0 that the correlator never sees.
    spec = small_spec(fixed={"g": 0.0, "gamma": 1.0}, observables=("spectrum",),
                      grid=GridSpec(min=4.0, max=10.0, count=4))
    result = run_sweep(spec)
    assert result.paths == ("spectrum:eigendecomposition",) * 4
    for block in result.spectra:
        oracle, delta = spectrum_fft(build_liouvillian(spec.point(block.value)), block.grid,
                                     method="quadrature")
        assert np.max(np.abs(block.values - oracle)) < 1e-6 * np.max(oracle)
        assert block.delta_weight == pytest.approx(delta, abs=1e-9)


def test_production_modules_import_nothing_from_the_oracle():
    # The spectrum path never calls the density-matrix oracle: neither module
    # imports mollowpair.liouville, at module level or inside a function.
    for module in (mollowpair.sweep, mollowpair.spectrum):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert all(n.split(".")[-1] != "liouville" for n in names), module.__name__


def test_trapping_sweep_condition_warning_names_the_sweep():
    # The ill-conditioned point omega1 = 1e-6 is named by its sweep point and
    # reported from run_sweep's caller, as steady_state's warning is.
    spec = small_spec(fixed={"g": 0.0, "gamma": 1.0}, observables=("populations", "g2"),
                      grid=GridSpec(min=1e-6, max=1.0, count=4, scale="log"), fastpath=False)
    with pytest.warns(ConditionWarning) as record:
        run_sweep(spec)
    assert [w.filename for w in record] == [__file__]
    assert str(record[0].message) == ("moment solve 1-norm condition number 6.000e+12 exceeds "
                                      "1e12 at sweep point 0 (omega1 = 1e-06)")


def test_sweep_passes_other_solver_warnings_unchanged(monkeypatch):
    # Any other warning of the moment solve keeps its text, category and
    # origin, and RuntimeWarning still fails the suite (pyproject filterwarnings).
    solve = mollowpair.sweep._solve_stack

    def warning_solve(system, where, category):
        warnings.warn("probe", category)
        return solve(system, where)

    spec = small_spec(fastpath=False)
    monkeypatch.setattr(mollowpair.sweep, "_solve_stack",
                        lambda system, where: warning_solve(system, where, UserWarning))
    with pytest.warns(UserWarning) as record:
        run_sweep(spec)
    assert [(w.category, str(w.message), w.filename) for w in record] == [
        (UserWarning, "probe", __file__)]
    monkeypatch.setattr(mollowpair.sweep, "_solve_stack",
                        lambda system, where: warning_solve(system, where, RuntimeWarning))
    with pytest.raises(RuntimeWarning, match="probe"):
        run_sweep(spec)


#: Regimes with closed forms at resonance when emitter 1 alone is driven.
_CLOSED_FORM_REGIMES = (Regime.COHERENT, Regime.DISSIPATIVE, Regime.UNIDIRECTIONAL_FORWARD)


def _per_point_reference(spec, columns):
    """The sweep's result rebuilt one point at a time from the one-point functions."""
    obs = spec.observables
    rows, paths, notes, spectra, decomps = [], [], [], [], []
    for value in spec.grid.values():
        p = spec.point(value)
        regime = classify_regime(p)
        closed = (spec.fastpath and regime in _CLOSED_FORM_REGIMES
                  and p.delta == 0.0 and p.omega2 == 0.0)
        via = "closed-form" if closed else "moments"
        state = None if closed else steady_state(build_moment_system(p))
        row, path, note = [float(value)], [], []
        if "populations" in obs:
            pops = closed_forms.regime_populations(p, regime) if closed else populations(state)
            row += [pops.rho00, pops.rho10, pops.rho01, pops.rho11]
            path.append(f"populations:{via}")
        if "g2" in obs:
            g2 = None
            if p.omega1 != 0.0 or p.omega2 != 0.0:
                try:
                    g2 = closed_forms.regime_g2(p, regime) if closed else g2_cross(state)
                except UndefinedCorrelatorError:  # n1 * n2 underflows: a null cell
                    pass
            row.append(g2)
            path.append("g2:null" if g2 is None else f"g2:{via}")
            note += ["g2:undefined-correlator"] if g2 is None else []
        if "spectrum" in obs or "decomposition" in obs:
            try:
                d = decompose_spectrum(p)
            except UnsupportedConfigurationError as exc:
                row.append(None)
                path.append("spectrum:null")
                note.append(f"spectrum:{exc.args[0].split(';')[0]}")
            else:
                row.append(d.delta_weight)
                second_order = any(c.L2_zeta or c.K2_zeta for c in d.components)
                if "decomposition" in obs and second_order:
                    path.append("decomposition:null")
                    note.append("decomposition:second-order-pole")
                elif "decomposition" in obs:
                    decomps.append(DecompositionBlock(
                        float(value),
                        tuple((c.omega_zeta, c.gamma_zeta, c.L_zeta, c.K_zeta)
                              for c in d.components),
                        d.delta_weight))
                    path.append("decomposition:eigendecomposition")
                if "spectrum" in obs:
                    grid = default_grid(p, spec.spectrum_points)
                    spectra.append(SpectrumBlock(float(value), grid, evaluate_spectrum(d, grid),
                                                 d.delta_weight))
                    path.append("spectrum:eigendecomposition")
        if "eigenvalues" in obs:
            eigs = np.linalg.eigvals(build_moment_system(p).matrix)
            for z in eigs[np.lexsort((eigs.imag, eigs.real))]:
                row += [float(z.real), float(z.imag)]
            path.append("eigenvalues:moments")
        rows.append(tuple(row))
        paths.append(";".join(path))
        notes.append(";".join(note))
    return SweepResult(spec=spec, columns=columns, rows=tuple(rows),
                       regimes=tuple(classify_regime(spec.point(v)).value
                                     for v in spec.grid.values()),
                       paths=tuple(paths), notes=tuple(notes), spectra=tuple(spectra),
                       decompositions=tuple(decomps))


_ALL_OBSERVABLES = ("populations", "g2", "spectrum", "decomposition", "eigenvalues")
#: A g sweep across the one-way diagonal g = gamma/2 (gamma = 1, theta =
#: pi/2): the middle point takes the closed form, the others the moments.
_ONE_WAY_DIAGONAL = dict(param="g", grid=GridSpec(min=0.3, max=0.7, count=5),
                         fixed={"gamma": 1.0, "theta": np.pi / 2, "omega1": 0.7})
#: A coherent pair driven from omega1 = 0: closed-form populations and g2 at
#: every point, the undriven first point a null spectrum cell that is never
#: solved, the others solved and decomposed for their spectra alone.
_COHERENT_FROM_ZERO_DRIVE = dict(param="omega1", grid=GridSpec(min=0.0, max=1.5, count=4),
                                 fixed={"g": 0.8}, spectrum_points=101)
#: An asymmetric pair at vanishing drive: n1 * n2 underflows 1e-30 at every
#: point, so every g2 cell is null and noted, from the moment columns' mask.
_G2_UNDERFLOW = dict(param="omega1", grid=GridSpec(min=1e-9, max=1e-8, count=4, scale="log"),
                     fixed={"g": 0.7, "gamma": 0.4, "theta": 1.0},
                     observables=("populations", "g2"))
#: A weak-drive gamma sweep at theta = pi/2 across the one-way diagonal
#: g = gamma/2: the middle point takes the closed form, the others the moments.
_WEAK_DRIVE_DIAGONAL = dict(param="gamma", grid=GridSpec(min=0.3, max=0.7, count=5),
                            fixed={"g": 0.25, "theta": np.pi / 2, "omega1": 1e-3},
                            observables=("populations", "g2"))


@pytest.mark.parametrize("kw, closed", [
    pytest.param({**_ONE_WAY_DIAGONAL, "observables": ("populations", "g2")},
                 [False, False, True, False, False], id="observables0"),
    pytest.param({**_ONE_WAY_DIAGONAL, "observables": ("populations", "g2", "eigenvalues")},
                 [False, False, True, False, False], id="observables1"),
    pytest.param({**_ONE_WAY_DIAGONAL, "observables": _ALL_OBSERVABLES, "spectrum_points": 101},
                 [False, False, True, False, False], id="one-way-diagonal-all"),
    pytest.param({**_COHERENT_FROM_ZERO_DRIVE, "observables": _ALL_OBSERVABLES},
                 [True] * 4, id="closed-forms-undriven-spectrum-eigenvalues"),
    pytest.param({**_COHERENT_FROM_ZERO_DRIVE, "observables": _ALL_OBSERVABLES,
                  "fastpath": False}, [False] * 4, id="undriven-spectrum-no-fastpath"),
    pytest.param(_G2_UNDERFLOW, [False] * 4, id="g2-underflow"),
    pytest.param(_WEAK_DRIVE_DIAGONAL, [False, False, True, False, False],
                 id="weak-drive-one-way-diagonal"),
])
def test_batched_sweep_matches_per_point_reference(kw, closed):
    # Every row, path, note and block of the batched sweep, bit for bit, as
    # the one-point functions give them.
    spec = SweepSpec(**kw)
    result = run_sweep(spec)
    ref = _per_point_reference(spec, result.columns)
    assert ["closed-form" in path for path in result.paths] == closed
    assert result.rows == ref.rows
    assert result.paths == ref.paths
    assert result.notes == ref.notes
    assert result.spectra == ref.spectra
    assert result.decompositions == ref.decompositions
    assert emit(result, "json") == emit(ref, "json")
    assert emit(result, "csv") == emit(ref, "csv")


def test_moment_route_makes_no_per_point_state(monkeypatch):
    # Moment-routed populations and g2 are columns of the solved stack: the
    # sweep builds no MomentState or Populations and calls no g2_cross.
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point moment object in run_sweep")

    spec = SweepSpec(**_WEAK_DRIVE_DIAGONAL)
    for name in ("MomentState", "Populations", "populations", "g2_cross"):
        monkeypatch.setattr(mollowpair.moments, name, forbidden)
    result = run_sweep(spec)
    monkeypatch.undo()
    assert result == run_sweep(spec)


#: Asymmetric pair (g = 0.7, gamma = 0.4, theta = 1): every point needs the
#: moment state both for its populations and for its spectrum.
_ASYMMETRIC = {"g": 0.7, "gamma": 0.4, "theta": 1.0}


@pytest.mark.parametrize("fixed, grid, observables", [
    pytest.param(_ASYMMETRIC, GridSpec(min=0.5, max=2.0, count=4),
                 ("populations", "spectrum"), id="observables0"),
    pytest.param(_ASYMMETRIC, GridSpec(min=0.5, max=2.0, count=4),
                 ("populations", "g2", "decomposition"), id="observables1"),
    # The trapping line at strong drive: reduced dimensions differ within the
    # sweep, and a hidden Jordan block is pruned.
    pytest.param({"g": 0.0, "gamma": 1.0}, GridSpec(min=4.0, max=10.0, count=4),
                 ("spectrum", "decomposition"), id="trapping-line"),
    # The one-way pair across the critical drive: the middle point takes the
    # cluster path, a second-order pole and a null decomposition cell.
    pytest.param({"g": 0.5, "gamma": 1.0, "theta": np.pi / 2},
                 GridSpec(min=0.124, max=0.126, count=3),
                 ("spectrum", "decomposition"), id="critical-drive"),
    # A grid from omega1 = 0: the first point is a null spectrum cell.
    pytest.param(_ASYMMETRIC, GridSpec(min=0.0, max=2.0, count=4),
                 ("populations", "spectrum", "decomposition"), id="from-zero-drive"),
])
def test_spectrum_points_share_the_sweep_moment_solve(fixed, grid, observables, monkeypatch):
    # The sweep's one batched solve and one batched decomposition give every
    # point the bits of the per-point decompose_spectrum.
    spec = SweepSpec(param="omega1", grid=grid, fixed=fixed, observables=observables)
    calls = {"batched": 0, "one-point": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mollowpair.sweep, "_solve_stack",
                        counting("batched", mollowpair.sweep._solve_stack))
    monkeypatch.setattr(mollowpair.spectrum, "steady_state",
                        counting("one-point", mollowpair.spectrum.steady_state))
    result = run_sweep(spec)
    assert calls == {"batched": 1, "one-point": 0}
    monkeypatch.undo()

    rows, notes, spectra, decomps = [], [], [], []
    for value in spec.grid.values():
        p = spec.point(value)
        row = [float(value)]
        if "populations" in observables:
            pops = populations(steady_state(build_moment_system(p)))
            row += [pops.rho00, pops.rho10, pops.rho01, pops.rho11]
        if "g2" in observables:
            row.append(g2_cross(steady_state(build_moment_system(p))))
        try:
            d = decompose_spectrum(p)
        except UnsupportedConfigurationError as exc:
            rows.append(tuple(row + [None]))
            notes.append(f"spectrum:{exc.args[0].split(';')[0]}")
            continue
        rows.append(tuple(row + [d.delta_weight]))
        notes.append("")
        if "spectrum" in observables:
            grid = default_grid(p, spec.spectrum_points)
            spectra.append(SpectrumBlock(float(value), grid, evaluate_spectrum(d, grid),
                                         d.delta_weight))
        if "decomposition" not in observables:
            continue
        if any(c.L2_zeta or c.K2_zeta for c in d.components):
            notes[-1] = "decomposition:second-order-pole"
        else:
            decomps.append(DecompositionBlock(
                float(value),
                tuple((c.omega_zeta, c.gamma_zeta, c.L_zeta, c.K_zeta) for c in d.components),
                d.delta_weight))
    assert result.rows == tuple(rows)
    assert result.notes == tuple(notes)
    assert result.spectra == tuple(spectra)
    assert result.decompositions == tuple(decomps)
    for got, ref in zip(result.spectra, spectra):
        assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("fastpath, batched", [(True, 0), (False, 1)])
def test_undriven_spectrum_is_a_null_cell_and_never_solved(fastpath, batched, monkeypatch):
    # With the fast path the closed forms give the populations, so nothing is
    # solved; without it the moments are solved for the populations alone.
    spec = small_spec(param="g", grid=GridSpec(min=0.5, max=1.0, count=2),
                      fixed={"omega1": 0.0}, observables=("populations", "spectrum"),
                      fastpath=fastpath)
    sizes = []
    solve = mollowpair.sweep._solve_stack
    monkeypatch.setattr(mollowpair.sweep, "_solve_stack",
                        lambda system, where: sizes.append(len(system.matrix))
                        or solve(system, where))
    result = run_sweep(spec)
    assert sizes == [2] * batched
    assert [row[-1] for row in result.rows] == [None, None]
    assert result.notes == ("spectrum:emitter 1 is undriven (omega1 = 0)",) * 2
    assert result.spectra == ()


def test_eigenvalue_sweep_columns():
    spec = small_spec(observables=("eigenvalues",),
                      grid=GridSpec(min=1.0, max=2.0, count=2))
    result = run_sweep(spec)
    assert len(result.columns) == 1 + 30


# --- serialization -----------------------------------------------------------

def test_csv_deterministic_and_17_digits():
    spec = small_spec()
    a = emit(run_sweep(spec), "csv")
    b = emit(run_sweep(spec), "csv")
    assert a == b
    text = a.decode()
    assert "0.99991998336403021" in text  # 17 significant digits survive


def test_csv_header_only_without_observables():
    result = run_sweep(small_spec(observables=()))
    text = emit(result, "csv").decode()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines == ["omega1"]


def test_json_roundtrip():
    spec = small_spec(observables=("populations", "g2", "spectrum"),
                      grid=GridSpec(min=0.5, max=2.0, count=2),
                      spectrum_points=101)
    result = run_sweep(spec)
    again = parse_json(emit(result, "json"))
    assert again == result


def test_unknown_format_rejected():
    with pytest.raises(SweepSpecError, match="format"):
        emit(run_sweep(small_spec()), "xml")


# --- presets -----------------------------------------------------------------

def test_required_presets_exist():
    names = preset_names()
    for name in REQUIRED_PRESETS:
        assert name in names


@pytest.mark.parametrize("name", REQUIRED_PRESETS)
def test_preset_runs_end_to_end(name):
    spec = load_preset(name)
    if "spectrum" in spec.observables:
        spec = SweepSpec(param=spec.param, grid=spec.grid, fixed=spec.fixed,
                         observables=spec.observables, fastpath=spec.fastpath,
                         spectrum_points=401)
    result = run_sweep(spec)
    assert len(result.rows) == spec.grid.count
    payload = emit(result, "csv")
    assert payload.startswith(b"# {")


def test_fig3b_limits():
    result = run_sweep(load_preset("fig3b"))
    cols = {c: i for i, c in enumerate(result.columns)}
    last = result.rows[-1]
    for name, ref in (("rho00", 3 / 8), ("rho10", 3 / 8), ("rho01", 1 / 8), ("rho11", 1 / 8)):
        assert last[cols[name]] == pytest.approx(ref, abs=1e-4)


def test_fig5_trapping_limit():
    result = run_sweep(load_preset("fig5"))
    first = result.rows[0]
    assert first[1] == pytest.approx(0.5, abs=1e-3)


def test_unknown_preset_rejected():
    with pytest.raises(SweepSpecError, match="unknown preset"):
        load_preset("fig99")


# --- CLI ---------------------------------------------------------------------

def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "mollowpair", *args],
                          capture_output=True, text=True, **kw)


_WITHOUT_SCIPY = """
import os, sys
import mollowpair.cli as cli
from mollowpair.sweep import preset_names
assert 'scipy' not in sys.modules
sys.modules['scipy'] = None  # any later import of scipy now raises ImportError
out = sys.argv[1]
for name in preset_names():
    for fmt in ('csv', 'json'):
        path = os.path.join(out, name + '.' + fmt)
        assert cli.main(['--preset', name, '--format', fmt, '--out', path]) == 0, (name, fmt)
critical = ['--set', 'g=0.5', '--set', 'gamma=1', '--set', 'theta=1.5707963267948966',
            '--sweep', 'omega1:0.124:0.126:3:linear', '--observable', 'spectrum',
            '--out', os.path.join(out, 'critical.csv')]
assert cli.main(critical) == 0
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy serves only the oracle's defective-generator branch (the oracle
    # extra): importing the CLI leaves it unloaded, and every preset plus the
    # critical-drive spectrum sweep (second-order poles) runs with it blocked.
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 2 * len(preset_names()) + 1


def test_cli_sweep_to_stdout():
    proc = run_cli("--regime", "dissipative", "--set", "gamma=1",
                   "--sweep", "omega1:0.001:0.01:2:log",
                   "--observable", "populations")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
    assert lines[0] == "omega1,rho00,rho10,rho01,rho11"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-3)


def test_cli_preset_to_file(tmp_path):
    out = tmp_path / "sweep.json"
    proc = run_cli("--preset", "fig6", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "mollowpair.sweep"


@pytest.mark.parametrize("flag", [["--sweep", "omega1:1:2:2:linear"], ["--set", "g=3"],
                                  ["--config", "params.cfg"], ["--regime", "coherent"],
                                  ["--observable", "populations"], ["--spectrum-points", "2001"]])
def test_cli_preset_rejects_flags_it_cannot_apply(flag, tmp_path, capsys):
    # A preset fixes the whole sweep, so a flag that would change it is an
    # error naming that flag, even at the value the preset already has.
    out = tmp_path / "fig9.csv"
    assert cli.main(["--preset", "fig9", *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --preset cannot be combined with {flag[0]}\n"
    assert not out.exists()


def test_cli_preset_rejection_names_every_dropped_flag():
    proc = run_cli("--preset", "fig9", "--spectrum-points", "101", "--set", "g=3",
                   "--observable", "populations")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: --preset cannot be combined with "
                           "--set, --observable, --spectrum-points\n")


def test_cli_preset_keeps_output_flags(tmp_path):
    # --format, --out and --no-fastpath do not change the sweep a preset fixes.
    out = tmp_path / "fig3b.json"
    assert cli.main(["--preset", "fig3b", "--format", "json", "--out", str(out),
                     "--no-fastpath"]) == 0
    spec = dataclasses.replace(load_preset("fig3b"), fastpath=False)
    assert out.read_bytes() == emit(run_sweep(spec), "json")


def test_cli_list_presets(capsys):
    assert cli.main(["--list-presets"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "".join(f"{name}: {mollowpair.sweep.preset_description(name)}\n"
                          for name in preset_names())


@pytest.mark.parametrize("flag", [["--preset", "fig9"], ["--sweep", "omega1:1:2:2:linear"],
                                  ["--set", "g=3"], ["--config", "params.cfg"],
                                  ["--regime", "coherent"], ["--observable", "populations"],
                                  ["--spectrum-points", "2001"], ["--format", "csv"],
                                  ["--out", "presets.txt"], ["--no-fastpath"]])
def test_cli_list_presets_rejects_every_other_flag(flag, tmp_path, monkeypatch, capsys):
    # --list-presets runs no sweep, so any other flag, even at its default
    # value, would be dropped: an error naming it instead.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--list-presets", *flag]) == 2
    assert capsys.readouterr() == ("", f"error: --list-presets cannot be combined with {flag[0]}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_list_presets_names_every_dropped_flag():
    proc = run_cli("--list-presets", "--preset", "fig9", "--set", "g=3", "--sweep", "x")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: --list-presets cannot be combined with "
                           "--preset, --sweep, --set\n")


def test_cli_spectrum_points(tmp_path):
    # 2001 frequencies unless --spectrum-points sets another count.
    args = ["--set", "g=0.5", "--sweep", "omega1:1:2:2:linear", "--observable", "spectrum"]
    for extra, count in (([], 2001), (["--spectrum-points", "101"], 101)):
        out = tmp_path / f"{count}.json"
        assert cli.main([*args, *extra, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["spectrum_points"] == count
        assert [len(b["values"]) for b in doc["spectra"]] == [count, count]


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("gamma = 1.0\ng = 0.5\ntheta = 1.5707963267948966\n")
    proc = run_cli("--config", str(cfg), "--sweep", "omega1:0.5:2:2:log",
                   "--observable", "g2")
    assert proc.returncode == 0
    assert "unidirectional-forward" in proc.stdout


def test_cli_validation_error_exit_2():
    proc = run_cli("--sweep", "omega1:1:2:1:linear", "--observable", "populations")
    assert proc.returncode == 2
    proc = run_cli("--sweep", "bogus:1:2:4:linear")
    assert proc.returncode == 2
    proc = run_cli("--set", "gamma=2", "--set", "gamma0=1",
                   "--sweep", "omega1:1:2:2:linear")
    assert proc.returncode == 2


def test_cli_numerical_error_exit_3():
    # The trapping line at omega1 = 1e-8 through the moment solver: the
    # moment matrix is numerically singular (SingularSystemError).
    proc = run_cli("--regime", "dissipative", "--set", "gamma=1",
                   "--sweep", "omega1:1e-8:1e-6:2:log", "--no-fastpath")
    assert proc.returncode == 3
    assert "numerically singular" in proc.stderr


def test_cli_numerical_error_names_the_sweep_point():
    proc = run_cli("--regime", "dissipative", "--set", "gamma=1",
                   "--sweep", "omega1:1e-8:1:3:log", "--observable", "populations",
                   "--no-fastpath")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.rstrip("\n").endswith("at sweep point 0 (omega1 = 1e-08)")


@pytest.mark.parametrize("regime, param", [
    ("coherent", "gamma"), ("dissipative", "g"),
    *[(f"unidirectional-{way}", param) for way in ("forward", "backward")
      for param in ("g", "theta", "gamma", "phi")]])
def test_cli_regime_rejects_sweeping_a_parameter_it_fixes(regime, param, capsys):
    # The grid would silently override the regime; an error names both.
    assert cli.main(["--regime", regime, "--set", "omega1=1",
                     "--sweep", f"{param}:0.2:1:3:linear"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --regime {regime} fixes {param}, so {param} cannot be swept\n")


def test_cli_trapping_line_strong_drive_decomposition():
    proc = run_cli("--regime", "dissipative", "--set", "gamma=1",
                   "--sweep", "omega1:4:10:4:linear", "--observable", "decomposition")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("# decomposition omega1 = ") == 4


def test_cli_io_error_exit_4(tmp_path):
    proc = run_cli("--preset", "fig6", "--out", str(tmp_path / "nodir" / "x.csv"))
    assert proc.returncode == 4


def test_cli_no_fastpath_flag():
    proc = run_cli("--regime", "coherent", "--set", "g=1",
                   "--sweep", "omega1:1:2:2:linear", "--observable", "g2",
                   "--no-fastpath")
    assert proc.returncode == 0
    assert "moments" in proc.stdout
