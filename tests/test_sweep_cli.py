"""Sweep machinery, serialization schemas, presets and the CLI contract."""

import ast
import dataclasses
import json
import pkgutil
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mollowpair.cli as cli
import mollowpair.moments
import mollowpair.spectrum
import mollowpair.sweep
from mollowpair import closed_forms
from mollowpair.errors import (ConditionWarning, SweepSpecError, UndefinedCorrelatorError,
                               UnsupportedConfigurationError)
from mollowpair.liouville import build_liouvillian, liouville_spectrum
from mollowpair.moments import (IDX_N1, IDX_N2, IDX_NX, build_moment_system, g2_cross, populations,
                               steady_state)
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
from test_moments import _exact_steady_state

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


@pytest.mark.parametrize("bounds, bound, got", [
    ((1.0, np.inf), "max", "inf"), ((-np.inf, 1.0), "min", "-inf"), ((np.nan, 1.0), "min", "nan"),
    ((1.0, np.nan), "max", "nan")])
@pytest.mark.parametrize("scale", ["linear", "log"])
def test_grid_rejects_non_finite_bounds(bounds, bound, got, scale):
    with pytest.raises(SweepSpecError, match=f"^grid {bound} must be finite, got {got}$"):
        GridSpec(*bounds, 2, scale)


def test_cli_non_finite_grid_bound_exits_2_without_warning():
    for scale in ("linear", "log"):
        proc = run_cli("--sweep", f"omega1:1:inf:2:{scale}")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: bad --sweep value 'omega1:1:inf:2:{scale}': "
                               "grid max must be finite, got inf\n")


def test_repeated_observable_rejected():
    with pytest.raises(SweepSpecError, match="^observable 'populations' given twice$"):
        small_spec(observables=("populations", "g2", "populations"))
    proc = run_cli("--sweep", "omega1:1:2:2:linear", "--observable", "populations,populations")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: observable 'populations' given twice\n"


def test_spec_document_round_trip():
    spec = small_spec(observables=("g2", "spectrum"), fastpath=False, spectrum_points=101)
    doc = spec.as_dict()
    assert list(doc) == [f.name for f in dataclasses.fields(SweepSpec)]
    assert SweepSpec.from_dict(doc) == spec
    assert SweepSpec.from_dict(json.loads(json.dumps(doc))) == spec


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("fastpath"), lambda d: d.update(points=3), lambda d: d["grid"].pop("scale"),
    lambda d: d["grid"].update(step=0.1), lambda d: d.update(grid=[0.0, 1.0, 3, "linear"])],
    ids=["missing-key", "unknown-key", "grid-missing-key", "grid-unknown-key", "grid-not-object"])
def test_spec_document_needs_exactly_the_fields(edit):
    doc = small_spec().as_dict()
    edit(doc)
    with pytest.raises(SweepSpecError, match="document has the keys"):
        SweepSpec.from_dict(doc)


def test_parse_json_rejects_infinite_grid_bound():
    text = emit(run_sweep(small_spec()), "json").decode().replace('"max": 100.0', '"max": Infinity')
    with pytest.raises(SweepSpecError, match="grid max must be finite, got inf"):
        parse_json(text)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(fastpath="no"), "fastpath must be a bool, got 'no'"),
    (lambda d: d.update(spectrum_points=101.5), "spectrum_points must be an int, got 101.5"),
    (lambda d: d["grid"].update(count=3.5), "grid count must be an int, got 3.5"),
    (lambda d: d["grid"].update(count=True), "grid count must be an int, got True"),
    (lambda d: d["grid"].update(min="0.01"), "grid min must be a number, got '0.01'"),
    (lambda d: d["fixed"].update(g="1"), "fixed g must be a number, got '1'"),
    (lambda d: d["fixed"].update(g=True), "fixed g must be a number, got True"),
    (lambda d: d.update(observables="populations"),
     "observables must be a list of strings, got 'populations'"),
    (lambda d: d.update(observables="g2"), "observables must be a list of strings, got 'g2'"),
    (lambda d: d.update(observables=5), "observables must be a list of strings, got 5"),
    (lambda d: d.update(fixed=[1, 2]), "fixed must be a dict with string keys, got [1, 2]"),
    # JSON object keys are strings, so parse_json reads the key 3 as '3'.
    (lambda d: d.update(fixed={"g": 1.0, 3: 2.0}),
     ("fixed must be a dict with string keys, got {'g': 1.0, 3: 2.0}",
      "unknown fixed parameter '3'"))],
    ids=["fastpath-string", "spectrum-points-float", "grid-count-float", "grid-count-bool",
         "grid-min-string", "fixed-string", "fixed-bool", "observables-string",
         "observables-short-string", "observables-int", "fixed-list", "fixed-int-key"])
def test_spec_document_value_types_checked(edit, message):
    # Each was accepted, or failed later with a bare TypeError or
    # AttributeError (or a string observables split into characters), before
    # the spec checked its value and container types; parse_json rejects it too.
    from_dict_message, json_message = (message, message) if isinstance(message, str) else message
    doc = json.loads(emit(run_sweep(small_spec()), "json"))
    edit(doc["spec"])
    with pytest.raises(SweepSpecError, match=f"^{re.escape(from_dict_message)}$"):
        SweepSpec.from_dict(doc["spec"])
    with pytest.raises(SweepSpecError, match=f"^{re.escape(json_message)}$"):
        parse_json(json.dumps(doc))


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
    # An asymmetric pair at weak drive takes the moment path.  Its g2 is the
    # exact steady state's nX / (n1 n2), within 2 eps, while n1 * n2 is a normal
    # float; where the product is subnormal (omega1 = 1e-77 here) g2 is a
    # null cell.
    fixed = {"g": 0.7, "gamma": 0.4, "theta": 1.0}
    spec = SweepSpec(param="omega1", grid=GridSpec(1e-9, 1e-8, 2, "log"), fixed=fixed,
                     observables=("g2",))
    result = run_sweep(spec)
    assert result.regimes == ("asymmetric", "asymmetric")
    assert result.paths == ("g2:moments", "g2:moments")
    assert result.notes == ("", "")
    for omega1, g2 in result.rows:
        exact = _exact_steady_state(build_moment_system(spec.point(omega1)))
        want = exact[IDX_NX][0] / (exact[IDX_N1][0] * exact[IDX_N2][0])
        assert abs(Fraction(g2) - want) <= 2 * np.finfo(float).eps * want, omega1

    spec = SweepSpec(param="omega1", grid=GridSpec(1e-77, 1e-76, 2, "log"), fixed=fixed,
                     observables=("g2",))
    result = run_sweep(spec)
    state = steady_state(build_moment_system(spec.point(1e-77)))
    assert 0.0 < state.n1 * state.n2 < sys.float_info.min
    assert result.rows[0][1] is None and result.rows[1][1] is not None
    assert result.paths == ("g2:null", "g2:moments")
    assert result.notes == ("g2:undefined-correlator", "")


def test_degenerate_closed_form_point_is_noted():
    # At g = 0, gamma = gamma0 and zero drive the steady state is not unique:
    # the closed form gives the decaying-dynamics limit and says so.
    spec = SweepSpec(param="omega1", grid=GridSpec(0.0, 1.0, 2), fixed={"g": 0.0, "gamma": 1.0},
                     observables=("populations", "g2"))
    result = run_sweep(spec)
    assert result.rows[0] == (0.0, 1.0, 0.0, 0.0, 0.0, None)
    assert result.paths[0] == "populations:closed-form;g2:null"
    assert result.notes == ("populations:degenerate-steady-state;g2:undefined-correlator", "")


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


def test_trapping_line_strong_drive_spectra_match_oracle():
    # --regime dissipative --set gamma=1 --sweep omega1:4:10:4:linear: M
    # hides a Jordan pair at lambda = gamma0 that the correlator never sees.
    spec = small_spec(fixed={"g": 0.0, "gamma": 1.0}, observables=("spectrum",),
                      grid=GridSpec(min=4.0, max=10.0, count=4))
    result = run_sweep(spec)
    assert result.paths == ("spectrum:eigendecomposition",) * 4
    for block in result.spectra:
        oracle, delta = liouville_spectrum(build_liouvillian(spec.point(block.value)), block.grid)
        assert np.max(np.abs(block.values - oracle)) < 1e-9 * np.max(oracle)
        assert block.delta_weight == pytest.approx(delta, abs=1e-9)


_ORACLE = {"liouville", "operators", "hamiltonian"}
_PRODUCTION = ("params", "moments", "closed_forms", "single_emitter", "spectrum", "spec", "sweep",
               "cli")


def _imported_modules(name):
    """Every dotted component of every module that mollowpair.<name> imports, at any depth.

    `from . import x` counts as importing x, so a submodule imported by name
    is caught as well as one imported from; `import scipy.linalg` counts as
    importing both scipy and linalg.
    """
    source = (Path(mollowpair.__file__).parent / f"{name}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            if node.module in (None, "mollowpair"):
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(part for a in node.names for part in a.name.split("."))
    return found


def test_oracle_and_production_import_nothing_from_each_other():
    # The density-matrix oracle and the production path share no code: no
    # production module imports an oracle module, and the oracle imports only
    # itself, params and errors (besides the standard library and numpy).
    # No module imports scipy: the package, oracle included, runs on numpy alone.
    for name in _PRODUCTION:
        assert not _imported_modules(name) & _ORACLE, name
    package = {m.name for m in pkgutil.iter_modules(mollowpair.__path__)}
    for name in _ORACLE:
        assert _imported_modules(name) & package <= _ORACLE | {"params", "errors"}, name
    for path in Path(mollowpair.__file__).parent.glob("*.py"):
        assert "scipy" not in _imported_modules(path.stem), path.name


def test_trapping_sweep_condition_warning_names_the_sweep():
    # The ill-conditioned point omega1 = 1e-6 is named by its sweep point and
    # reported from run_sweep's caller, as steady_state's warning is.
    spec = small_spec(fixed={"g": 0.0, "gamma": 1.0}, observables=("populations", "g2"),
                      grid=GridSpec(min=1e-6, max=1.0, count=4, scale="log"), fastpath=False)
    with pytest.warns(ConditionWarning) as record:
        run_sweep(spec)
    assert [w.filename for w in record] == [__file__]
    assert str(record[0].message) == ("moment solve 1-norm condition number 4.000e+12 exceeds "
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
            note += ["populations:degenerate-steady-state"] if pops.degenerate else []
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

#: The trapping line (g = 0, gamma = gamma0) driven from omega1 = 0: the first
#: point's closed-form populations are the degenerate steady state, noted.
_TRAPPING_FROM_ZERO_DRIVE = dict(param="omega1", grid=GridSpec(min=0.0, max=1.0, count=3),
                                 fixed={"g": 0.0, "gamma": 1.0}, spectrum_points=101,
                                 observables=("populations", "g2", "spectrum"))


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
    pytest.param(_TRAPPING_FROM_ZERO_DRIVE, [True] * 3, id="trapping-from-zero-drive"),
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
    assert result.notes == ("spectrum:neither emitter is driven (omega1 = omega2 = 0)",) * 2
    assert result.spectra == ()


def test_spectrum_of_an_emitter_driven_only_through_the_coupling():
    # omega1 = 0 with omega2 > 0: emitter 1 is excited through the coupling,
    # so the point is solved and decomposed like any other, bit for bit as
    # decompose_spectrum gives it.
    spec = small_spec(param="omega1", grid=GridSpec(min=0.0, max=0.5, count=2),
                      fixed={"g": 1.0, "omega2": 1.0}, observables=("spectrum",))
    result = run_sweep(spec)
    assert result.notes == ("", "")
    assert result.paths == ("spectrum:eigendecomposition",) * 2
    p = spec.point(0.0)
    d = decompose_spectrum(p)
    grid = default_grid(p, spec.spectrum_points)
    assert result.spectra[0] == SpectrumBlock(0.0, grid, evaluate_spectrum(d, grid),
                                              d.delta_weight)


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
        spec = dataclasses.replace(spec, spectrum_points=401)
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


def test_preset_catalog_entries_are_canonical_spec_documents():
    catalog = mollowpair.sweep._load_preset_file()
    assert (catalog["schema"], catalog["version"]) == ("mollowpair.presets", 2)
    for name, entry in catalog["presets"].items():
        assert {"description", "approximate", "spec"} <= entry.keys() <= {
            "description", "approximate", "note", "spec"}, name
        assert SweepSpec.from_dict(entry["spec"]).as_dict() == entry["spec"], name


@pytest.mark.parametrize("name", preset_names())
def test_preset_spec_survives_both_output_headers(name):
    spec = load_preset(name)
    result = run_sweep(spec)
    meta = json.loads(emit(result, "csv").split(b"\n", 1)[0][2:])
    assert SweepSpec.from_dict(meta["spec"]) == spec
    assert parse_json(emit(result, "json")).spec == spec


def test_load_preset_gives_a_spec_of_its_own():
    spec = load_preset("fig9")
    spec.fixed["g"] = 7.0
    assert load_preset("fig9").fixed["g"] == 0.5


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
import numpy as np
from mollowpair.liouville import build_liouvillian, liouville_spectrum, steady_state_dm
from mollowpair.params import unidirectional_pair
defective = build_liouvillian(unidirectional_pair(1.0, 0.125))
steady_state_dm(defective)
liouville_spectrum(defective, np.linspace(-2.0, 2.0, 5))
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # No module needs scipy: importing the CLI leaves it unloaded, and with it
    # blocked every preset, the critical-drive spectrum sweep (second-order
    # poles) and the oracle's steady state and spectrum at the defective
    # critical-drive generator all run.
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 2 * len(preset_names()) + 1


_WITHOUT_NUMPY = """
import sys
sys.modules['numpy'] = None  # any import of numpy now raises ImportError
from mollowpair.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code, err", [
    (["--list-presets"], 0, ""), (["--help"], 0, ""),
    (["--sweep", "g:1:2"], 2, "error: --sweep expects NAME:MIN:MAX:COUNT:SCALE, got 'g:1:2'\n"),
    (["--preset", "fig99"], 2,
     f"error: unknown preset 'fig99' (valid: {', '.join(preset_names())})\n"),
    (["--list-presets", "--format", "csv"], 2,
     "error: --list-presets cannot be combined with --format\n")],
    ids=["list-presets", "help", "bad-sweep", "unknown-preset", "list-presets-with-flag"])
def test_cli_commands_that_run_no_sweep_need_no_numpy(argv, code, err, monkeypatch):
    # Listing presets, help and flag or spec errors run with numpy blocked
    # and write the same text as with it.
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    catalog = json.loads((Path(cli.__file__).parent / "data" / "presets.json").read_text())
    listing = "".join(f"{name}: {catalog['presets'][name]['description']}\n"
                      for name in sorted(catalog["presets"]))
    out = {"--list-presets": listing, "--help": cli.build_parser().format_help()}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.get(argv[0], "") if code == 0 else "", err)


_PRESET_MODULES = """
import sys
import mollowpair.cli as cli
assert cli.main(['--preset', 'fig9', '--format', 'csv', '--out', sys.argv[1]]) == 0
print(' '.join(sorted(sys.modules)))
"""


def test_production_sweep_loads_no_oracle_module(tmp_path):
    # The runtime side of the import scan above: a preset sweep through the
    # CLI (a spectrum preset, the moment solver and the pole decomposition)
    # never loads an oracle module.
    proc = subprocess.run([sys.executable, "-c", _PRESET_MODULES, str(tmp_path / "fig9.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mollowpair.sweep" in loaded
    assert not loaded & {f"mollowpair.{name}" for name in _ORACLE}


_LAZY_PACKAGE = """
import sys
import mollowpair
assert 'numpy' not in sys.modules, 'import mollowpair loaded numpy'
names = mollowpair.__all__
assert set(names) <= set(dir(mollowpair))
values = {name: getattr(mollowpair, name) for name in names}
namespace = {}
exec('from mollowpair import *', namespace)
del namespace['__builtins__']
assert namespace.keys() == values.keys()
assert all(namespace[name] is value for name, value in values.items())
print(len(names))
"""


def test_package_import_is_lazy():
    # import mollowpair loads no numpy; each public name then resolves by
    # attribute access, by star import and in dir().
    proc = subprocess.run([sys.executable, "-c", _LAZY_PACKAGE], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "57\n")


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


def test_cli_regime_asymmetric_is_not_a_choice():
    # Asymmetric is the class of every point the other regimes miss, so it
    # constrains nothing; argparse rejects it rather than run an unconstrained sweep.
    proc = run_cli("--regime", "asymmetric", "--sweep", "omega1:0.1:1:2:linear")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "argument --regime: invalid choice: 'asymmetric'" in proc.stderr


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


@pytest.mark.parametrize("regime, key", [
    ("coherent", "gamma"), ("dissipative", "g"),
    *[(f"unidirectional-{way}", key) for way in ("forward", "backward")
      for key in ("g", "theta")]])
def test_cli_regime_rejects_a_set_it_would_override(regime, key, capsys):
    # The regime would silently replace the --set value; an error names both.
    assert cli.main(["--regime", regime, "--set", f"{key}=0.3",
                     "--sweep", "omega1:1:2:2:linear"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --regime {regime} fixes {key}, so --set {key} conflicts with it\n")


def test_cli_repeated_set_key_rejected(capsys):
    # The second value would silently replace the first.
    assert cli.main(["--set", "g=1", "--set", "g=2", "--sweep", "omega1:1:2:2:linear"]) == 2
    assert capsys.readouterr() == ("", "error: --set g given twice\n")


def test_cli_parser_is_built_once_and_keeps_no_values(tmp_path):
    # main parses with one cached parser; no --set value may reach a later call.
    assert cli.build_parser() is cli.build_parser()
    fixed = []
    for k, sets in enumerate([["g=1"], ["g=2", "gamma=0.5"], []]):
        out = tmp_path / f"{k}.json"
        argv = ["--sweep", "omega1:1:2:2:linear", "--format", "json", "--out", str(out)]
        assert cli.main([*argv, *(a for s in sets for a in ("--set", s))]) == 0
        fixed.append(json.loads(out.read_text())["spec"]["fixed"])
    assert fixed == [{"g": 1.0}, {"g": 2.0, "gamma": 0.5}, {}]


def test_cli_regime_overrides_config_values_and_reads_set_ones(tmp_path, capsys):
    # A --config file lists every key, so the regime's values replace its
    # own; a --set value the regime only reads (gamma here) is kept.
    cfg = tmp_path / "params.cfg"
    cfg.write_text("gamma = 0.5\ng = 1\ntheta = 0.2\n")
    assert cli.main(["--config", str(cfg), "--set", "gamma=0.6", "--regime",
                     "unidirectional-forward", "--sweep", "omega1:1:2:2:linear"]) == 0
    out, err = capsys.readouterr()
    fixed = json.loads(out.splitlines()[0][2:])["spec"]["fixed"]
    assert err == "" and (fixed["gamma"], fixed["g"], fixed["theta"]) == (0.6, 0.3, np.pi / 2)


@pytest.mark.parametrize("source, code", [("set", 2), ("config", 0)])
def test_cli_swept_parameter_given_as_fixed(source, code, tmp_path, capsys):
    # A --set of the swept parameter conflicts with the grid; a --config file
    # lists every key, so its value of the swept parameter gives way to the grid.
    cfg = tmp_path / "params.cfg"
    cfg.write_text("omega1 = 5\ng = 1\n")
    given = ["--set", "omega1=5"] if source == "set" else ["--config", str(cfg)]
    assert cli.main([*given, "--sweep", "omega1:1:2:2:linear", "--set", "g=1"]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", "error: --set omega1 conflicts with --sweep omega1\n")
    else:
        assert err == "" and [row.split(",")[0] for row in out.splitlines()[2:]] == ["1", "2"]


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
