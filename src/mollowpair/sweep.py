"""Parameter sweeps with closed-form fast paths and tabular serialization.

A sweep varies one parameter over a grid, evaluates the requested observables
at every point, records which computational path produced each value, and
serializes to CSV or JSON.  Closed forms are used where a pure regime at
resonance permits them (unless disabled), the moment solver otherwise; one
batched moment solve serves every point that needs moments, spectra
included.  Spectra and decompositions come from the pole decomposition alone;
the density-matrix oracle is never called.  A decomposition with a
second-order pole has no (omega, gamma, L, K) table, so it is a null cell
while the spectrum of the same point is still written.

Both formats write floats round-trip exact: CSV as ``"%.17g"`` writes them
(17 significant digits; ``nan``, ``inf``), JSON as ``json.dumps(doc,
sort_keys=True, indent=1)`` writes them (``float.__repr__``; ``NaN``,
``Infinity``).  The scalar table is written one ``%`` call per row.  All
float arrays of a result, in either format, are converted together in
vectorized passes of ``floattext._CHUNK`` floats that write the same bytes
as one ``"%.17g"`` or ``float.__repr__`` call per float: an exact
double-double scaling gives the digits, and any element it cannot settle
(zeros, non-finite, subnormal or extreme values, near-ties) is written by
that call itself.  Identical results give identical bytes within one
numpy/LAPACK build.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import closed_forms
from .errors import ParameterError, SweepSpecError
from .floattext import _G17, _json_list, _table_texts
from .moments import (IDX_N1, IDX_N2, IDX_NX, _g2, _populations, _real_system, _solve_stack,
                      build_moment_systems)
from .params import classify_regime
# The spec document and the preset catalog live in spec; they stay importable from here.
from .spec import (GridSpec, SweepSpec, _check_keys, _load_preset_file, load_preset,
                   preset_description, preset_names)
from .spectrum import _check_defined, _decompose_stack, default_grid, evaluate_spectrum



@dataclass(frozen=True, eq=False)
class SpectrumBlock:
    """One spectrum: the swept value, its frequency grid and the density.

    grid and values are stored as read-only float64 copies of what is passed
    (a sequence or an array).  Two blocks are equal when all four fields are
    equal value by value.
    """

    value: float
    grid: np.ndarray
    values: np.ndarray
    delta_weight: float

    def __post_init__(self):
        for name in ("grid", "values"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, SpectrumBlock):
            return NotImplemented
        return (self.value == other.value and self.delta_weight == other.delta_weight
                and np.array_equal(self.grid, other.grid)
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class DecompositionBlock:
    """Pole table of one decomposition: rows (omega, gamma, L, K)."""

    value: float
    components: tuple[tuple[float, float, float, float], ...]
    delta_weight: float


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output: scalar table plus optional per-point blocks."""

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]
    regimes: tuple[str, ...]
    paths: tuple[str, ...]
    notes: tuple[str, ...]
    spectra: tuple[SpectrumBlock, ...] = ()
    decompositions: tuple[DecompositionBlock, ...] = ()
    version: str = __version__


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested observables at every grid point.

    One planning pass routes each point: closed forms where closed_forms.covers
    it (fast path on), one batched moment solve for every point that needs the
    moments, one batched decomposition for every defined spectrum.  Undefined
    observables (the zero-drive correlator, the spectrum of an undriven pair or
    of a rounding-level population) and a decomposition holding a second-order pole
    produce per-row null markers with a reason code instead of failing the run.
    Moment-routed populations and g2 are columns computed on the solved stack.
    A point's ParameterError and the solve's ConditionWarning and numerical
    errors name the sweep point.
    """
    values = spec.grid.values()
    obs = spec.observables
    n = len(values)

    def where(k: int) -> str:
        return f"sweep point {k} ({spec.param} = {float(values[k])!r})"

    points = []
    for k, value in enumerate(values):
        try:
            points.append(spec.point(value))
        except ParameterError as exc:
            raise ParameterError(f"{exc} at {where(k)}") from exc
    regimes = [classify_regime(p) for p in points]
    closed = [spec.fastpath and closed_forms.covers(p, r) for p, r in zip(points, regimes)]
    fast = [k for k in range(n) if closed[k]]
    want_state = "populations" in obs or "g2" in obs
    want_spectrum = "spectrum" in obs or "decomposition" in obs
    # decomposed[k]: point k's decomposition, or the reason its spectrum is undefined.
    decomposed = [_check_defined(p, 1) if want_spectrum else None for p in points]
    spectral = [want_spectrum and d is None for d in decomposed]
    solve = [k for k in range(n) if (want_state and not closed[k]) or spectral[k]]
    u = np.zeros((n, 15), dtype=complex)  # the moments of the solved points, zero elsewhere
    want_eigs = "eigenvalues" in obs
    # One build of M and its real form, whose eig gives exact conjugate pairs: every point
    # when its eigenvalues are asked for, else the solved ones.
    if want_eigs or solve:
        built = build_moment_systems(points if want_eigs else [points[k] for k in solve])
        m, (real_m, rhs) = built.matrix, _real_system(built)
    if want_eigs:
        eigs = np.linalg.eigvals(real_m)
        m, real_m, rhs = m[solve], real_m[solve], rhs[solve]
    if solve:
        u[solve] = _solve_stack(real_m, rhs, lambda row: where(solve[row]))[0]
        if any(spectral):
            mask = [spectral[k] for k in solve]  # the solved points that are decomposed
            for k, d in zip(np.flatnonzero(spectral), _decompose_stack(
                    m[mask], real_m[mask], u[spectral], 1)):
                decomposed[k] = d

    # The table's (name, column) pairs, each named where it is built; one label
    # list per observable for the paths and notes.
    swept = values.tolist()
    table, path_parts, note_parts, spectra, decomps = [(spec.param, swept)], [], [], [], []
    n1, n2, nx = u[:, [IDX_N1, IDX_N2, IDX_NX]].real.T
    if "populations" in obs:
        pops = [column.tolist() for column in _populations(n1, n2, nx)]
        degenerate = [""] * n  # the note where the closed form is a non-unique steady state
        for k in fast:
            cf = closed_forms.regime_populations(points[k], regimes[k])
            pops[0][k], pops[1][k], pops[2][k], pops[3][k] = cf.rho00, cf.rho10, cf.rho01, cf.rho11
            degenerate[k] = "populations:degenerate-steady-state" if cf.degenerate else ""
        table += zip(("rho00", "rho10", "rho01", "rho11"), pops)
        path_parts.append([("populations:moments", "populations:closed-form")[c] for c in closed])
        note_parts.append(degenerate)

    if "g2" in obs:
        # Null where n1 * n2 underflows, as at an undriven point, whose moments solve to 0;
        # a closed-form point's omega2 is 0, so omega1 alone drives it.
        g2 = _g2(n1, n2, nx)
        for k in fast:
            g2[k] = closed_forms.regime_g2(points[k], regimes[k]) if points[k].omega1 else None
        table.append(("g2", g2))
        path_parts.append(["g2:null" if v is None else ("g2:moments", "g2:closed-form")[c]
                           for v, c in zip(g2, closed)])
        note_parts.append(["g2:undefined-correlator" if v is None else "" for v in g2])

    if want_spectrum:
        cells = []  # (delta weight, path, note) of each point
        for value, p, d in zip(swept, points, decomposed):
            if isinstance(d, str):
                cells.append((None, "spectrum:null", f"spectrum:{d}"))
                continue
            labels, note = [], ""
            if "decomposition" in obs:
                if any(c.L2_zeta or c.K2_zeta for c in d.components):
                    note = "decomposition:second-order-pole"
                    labels.append("decomposition:null")
                else:
                    poles = tuple((c.omega_zeta, c.gamma_zeta, c.L_zeta, c.K_zeta)
                                  for c in d.components)
                    decomps.append(DecompositionBlock(value, poles, d.delta_weight))
                    labels.append("decomposition:eigendecomposition")
            if "spectrum" in obs:
                grid = default_grid(p, spec.spectrum_points)
                spectra.append(SpectrumBlock(value, grid, evaluate_spectrum(d, grid),
                                             d.delta_weight))
                labels.append("spectrum:eigendecomposition")
            cells.append((d.delta_weight, ";".join(labels), note))
        weights, cell_paths, cell_notes = zip(*cells)
        table.append(("delta_weight", weights))
        path_parts.append(cell_paths)
        note_parts.append(cell_notes)

    if want_eigs:
        eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real)), axis=-1)
        table += zip([f"eig{k:02d}_{part}" for k in range(15) for part in ("re", "im")],
                     np.stack((eigs.real, eigs.imag), axis=-1).reshape(n, 30).T.tolist())
        path_parts.append(["eigenvalues:moments"] * n)

    # Each point's labels joined by ';', empty ones left out.
    paths, notes = (tuple(";".join(filter(None, labels)) for labels in zip(*parts, [""] * n))
                    for parts in (path_parts, note_parts))
    names, columns = zip(*table)
    return SweepResult(spec, names, tuple(zip(*columns)),
                       tuple(r.value for r in regimes), paths, notes, tuple(spectra),
                       tuple(decomps))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def emit(result: SweepResult, format: str = "csv") -> bytes:
    """Serialize a sweep result; identical results give identical bytes."""
    if format == "csv":
        return _emit_csv(result)
    if format == "json":
        return _emit_json(result)
    raise SweepSpecError(f"unknown output format {format!r} (valid: csv, json)")


def _header(result: SweepResult) -> dict:
    """Document keys shared by the CSV metadata line and the JSON document."""
    return {"schema": "mollowpair.sweep", "schema_version": 1,
            "artifact_version": result.version, "spec": result.spec.as_dict(),
            "regimes": result.regimes, "paths": result.paths, "notes": result.notes}


def _emit_csv(result: SweepResult) -> bytes:
    param = result.spec.param
    head = [f"# {json.dumps(_header(result), sort_keys=True)}\n"]
    if result.spec.observables:
        row_text = ",".join([_G17] * len(result.columns)) + "\n"
        head.append(",".join(result.columns) + "\n")
        head += [row_text % row if None not in row else
                 ",".join("" if v is None else _G17 % v for v in row) + "\n"
                 for row in result.rows]
    else:
        head.append(param + "\n")
    titles = [f"\n# spectrum {param} = {_G17 % b.value} delta_weight = {_G17 % b.delta_weight}"
              "\nomega,spectral_density\n" for b in result.spectra]
    titles += [f"\n# decomposition {param} = {_G17 % b.value} delta_weight = "
               f"{_G17 % b.delta_weight}\nomega_zeta,gamma_zeta,L_zeta,K_zeta\n"
               for b in result.decompositions]
    # Each table is built when the writer reaches it, so few are held at once.
    tables = itertools.chain((np.column_stack((b.grid, b.values)) for b in result.spectra),
                             (np.array(b.components, dtype=float).reshape(-1, 4)
                              for b in result.decompositions))
    out = ["".join(head).encode()]
    for title, text in zip(titles, _table_texts(tables)):
        out += (title.encode(), text)
    return b"".join(out)


def _json_spectra(spectra: tuple[SpectrumBlock, ...]) -> Iterator[bytes]:
    """The spectra list as the value of a top-level key, in pieces (block keys sorted)."""
    texts = _table_texts((a.reshape(-1, 1) for b in spectra for a in (b.grid, b.values)), True)
    for k, b in enumerate(spectra):
        yield b",\n  {" if k else b"[\n  {"
        yield f'\n   "delta_weight": {json.dumps(b.delta_weight)},\n   "grid": '.encode()
        yield _json_list(next(texts), b"    ")
        yield f',\n   "value": {json.dumps(b.value)},\n   "values": '.encode()
        yield _json_list(next(texts), b"    ")
        yield b"\n  }"
    yield b"\n ]" if spectra else b"[]"


#: The keys of the document _emit_json writes: _header's, the table's and the blocks'.
_DOC_KEYS = ("artifact_version", "columns", "decompositions", "notes", "paths", "regimes", "rows",
             "schema", "schema_version", "spec", "spectra")


def _emit_json(result: SweepResult) -> bytes:
    """json.dumps(doc, sort_keys=True, indent=1) of the whole result, spectra in bulk.

    Under sort_keys "spectra" is the last top-level key, so the rest of the
    document goes through json.dumps and the spectra list is appended whole
    in place of its closing brace, its float arrays written by floattext.
    """
    doc = {**_header(result), "columns": result.columns, "rows": result.rows,
           "decompositions": [{"value": b.value, "delta_weight": b.delta_weight,
                               "components": b.components} for b in result.decompositions]}
    head = json.dumps(doc, sort_keys=True, indent=1)[:-2] + ',\n "spectra": '
    return b"".join([head.encode(), *_json_spectra(result.spectra), b"\n}"])


def parse_json(data: bytes | str) -> SweepResult:
    """Rebuild a SweepResult from its JSON serialization (emit inverse)."""
    doc = json.loads(data)
    _check_keys(SweepResult, doc, _DOC_KEYS)
    if doc["schema"] != "mollowpair.sweep" or doc["schema_version"] != 1:
        raise SweepSpecError("not a mollowpair sweep document (schema mismatch)")
    for kind, key in ((SpectrumBlock, "spectra"), (DecompositionBlock, "decompositions")):
        for block in doc[key]:
            _check_keys(kind, block)
    return SweepResult(
        SweepSpec.from_dict(doc["spec"]), tuple(doc["columns"]), tuple(map(tuple, doc["rows"])),
        tuple(doc["regimes"]), tuple(doc["paths"]), tuple(doc["notes"]),
        tuple(SpectrumBlock(**b) for b in doc["spectra"]),
        tuple(DecompositionBlock(**{**b, "components": tuple(map(tuple, b["components"]))})
              for b in doc["decompositions"]),
        doc["artifact_version"])
