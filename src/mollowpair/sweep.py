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

Both formats write floats round-trip exact: CSV as 17 significant digits
(``nan``, ``inf``), JSON as ``json.dumps(doc, sort_keys=True, indent=1)``
writes them (``float.__repr__``; ``NaN``, ``Infinity``).  Spectrum blocks are
written in bulk, one format call per block, with the same bytes.  Identical
results give identical bytes within one numpy/LAPACK build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__
from . import closed_forms
from .errors import SweepSpecError, UnsupportedConfigurationError
from .moments import G2_NORM_FLOOR, _solve_stack, build_moment_systems
from .operators import IDX_N1, IDX_N2, IDX_NX
from .params import CONFIG_KEYS, SystemParams, classify_regime
from .spectrum import _check_defined, _decompose_stack, default_grid, evaluate_spectrum

OBSERVABLES = ("populations", "g2", "spectrum", "decomposition", "eigenvalues")

#: CSV float text: 17 significant digits, round-trip exact.  The %-operator
#: writes the same text as f"{x:.17g}", nan, inf and -0 included.
_G17 = "%.17g"


@dataclass(frozen=True)
class GridSpec:
    """One-dimensional sweep grid: endpoints, count and spacing."""

    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise SweepSpecError(f"grid count must be >= 2, got {self.count}")
        if self.scale not in ("linear", "log"):
            raise SweepSpecError(f"grid scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.min <= 0.0:
            raise SweepSpecError(f"log grids require min > 0, got {self.min}")
        if not (self.max > self.min):
            raise SweepSpecError(f"grid needs max > min, got [{self.min}, {self.max}]")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, what to hold fixed, and what to record."""

    param: str
    grid: GridSpec
    fixed: dict[str, float] = field(default_factory=dict)
    observables: tuple[str, ...] = ("populations",)
    fastpath: bool = True
    spectrum_points: int = 2001

    def __post_init__(self):
        if self.param not in CONFIG_KEYS:
            raise SweepSpecError(
                f"unknown sweep parameter {self.param!r} (valid: {', '.join(CONFIG_KEYS)})"
            )
        if self.param in self.fixed:
            raise SweepSpecError(f"swept parameter {self.param!r} also appears in fixed parameters")
        for key in self.fixed:
            if key not in CONFIG_KEYS:
                raise SweepSpecError(f"unknown fixed parameter {key!r}")
        for obs in self.observables:
            if obs not in OBSERVABLES:
                raise SweepSpecError(
                    f"unknown observable {obs!r} (valid: {', '.join(OBSERVABLES)})"
                )
        if self.spectrum_points < 9:
            raise SweepSpecError("spectrum_points must be >= 9")
        object.__setattr__(self, "observables", tuple(self.observables))

    def point(self, value: float) -> SystemParams:
        return SystemParams(**{**self.fixed, self.param: float(value)})

    def as_dict(self) -> dict:
        return {
            "param": self.param,
            "grid": {"min": self.grid.min, "max": self.grid.max,
                     "count": self.grid.count, "scale": self.grid.scale},
            "fixed": dict(sorted(self.fixed.items())),
            "observables": list(self.observables),
            "fastpath": self.fastpath,
            "spectrum_points": self.spectrum_points,
        }


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


def _scalar_columns(observables) -> list[str]:
    cols: list[str] = []
    if "populations" in observables:
        cols += ["rho00", "rho10", "rho01", "rho11"]
    if "g2" in observables:
        cols += ["g2"]
    if "spectrum" in observables or "decomposition" in observables:
        cols += ["delta_weight"]
    if "eigenvalues" in observables:
        for k in range(15):
            cols += [f"eig{k:02d}_re", f"eig{k:02d}_im"]
    return cols


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested observables at every grid point.

    One planning pass routes each point: closed forms where closed_forms.covers
    it (fast path on), one batched moment solve for every point that needs the
    moments, one batched decomposition for every defined spectrum.  Undefined
    observables (the zero-drive correlator, the spectrum of an undriven emitter
    or of a zero population) and a decomposition that holds a second-order pole
    produce per-row null markers with a reason code instead of failing the run.
    Moment-routed populations and g2 are columns computed on the solved stack.
    The solve's ConditionWarning and numerical errors name the sweep point.
    """
    values = spec.grid.values()
    obs = spec.observables
    n = len(values)
    points = [spec.point(value) for value in values]
    regimes = [classify_regime(p) for p in points]
    closed = [spec.fastpath and closed_forms.covers(p, r) for p, r in zip(points, regimes)]
    fast = [k for k in range(n) if closed[k]]
    want_state = "populations" in obs or "g2" in obs
    want_spectrum = "spectrum" in obs or "decomposition" in obs
    # decomposed[k]: point k's decomposition, or the error that leaves its spectrum undefined.
    decomposed = [_check_defined(p, 1) if want_spectrum else None for p in points]
    spectral = [want_spectrum and d is None for d in decomposed]
    solve = [k for k in range(n) if (want_state and not closed[k]) or spectral[k]]
    u = np.zeros((n, 15), dtype=complex)  # the moments of the solved points, zero elsewhere
    if solve:
        system = build_moment_systems([points[k] for k in solve])
        u[solve] = _solve_stack(system, lambda row: f"sweep point {solve[row]} "
                                f"({spec.param} = {float(values[solve[row]])!r})")[0]
        defined = [k for k in solve if spectral[k]]
        if defined:
            m = system.matrix[[spectral[k] for k in solve]]
            for k, d in zip(defined, _decompose_stack(m, u[defined], 1)):
                decomposed[k] = d

    # One list per table column; one label list per observable for the paths and notes.
    columns, path_parts, note_parts, spectra, decomps = [values.tolist()], [], [], [], []
    n1, n2, nx = u[:, [IDX_N1, IDX_N2, IDX_NX]].real.T
    if "populations" in obs:
        pops = [(1.0 + nx - n1 - n2).tolist(), (n1 - nx).tolist(), (n2 - nx).tolist(), nx.tolist()]
        for k in fast:
            cf = closed_forms.regime_populations(points[k], regimes[k])
            pops[0][k], pops[1][k], pops[2][k], pops[3][k] = cf.rho00, cf.rho10, cf.rho01, cf.rho11
        columns += pops
        path_parts.append([("populations:moments", "populations:closed-form")[c] for c in closed])

    if "g2" in obs:
        # Null without drive, or where the moment path's n1 * n2 underflows.
        driven = [p.omega1 != 0.0 or p.omega2 != 0.0 for p in points]
        norm = n1 * n2
        null = norm < G2_NORM_FLOOR
        g2 = [v if on and not z else None
              for v, z, on in zip((nx / np.where(null, 1.0, norm)).tolist(), null.tolist(), driven)]
        for k in fast:
            g2[k] = closed_forms.regime_g2(points[k], regimes[k]) if driven[k] else None
        columns.append(g2)
        path_parts.append(["g2:null" if v is None else ("g2:moments", "g2:closed-form")[c]
                           for v, c in zip(g2, closed)])
        note_parts.append(["g2:undefined-correlator" if v is None else "" for v in g2])

    if want_spectrum:
        cells = []  # (delta weight, path, note) of each point
        for value, p, d in zip(columns[0], points, decomposed):
            if isinstance(d, UnsupportedConfigurationError):
                cells.append((None, "spectrum:null", f"spectrum:{d.args[0].split(';')[0]}"))
                continue
            labels, note = [], ""
            if "decomposition" in obs:
                if any(c.L2_zeta or c.K2_zeta for c in d.components):
                    note = "decomposition:second-order-pole"
                    labels.append("decomposition:null")
                else:
                    table = tuple((c.omega_zeta, c.gamma_zeta, c.L_zeta, c.K_zeta)
                                  for c in d.components)
                    decomps.append(DecompositionBlock(value, table, d.delta_weight))
                    labels.append("decomposition:eigendecomposition")
            if "spectrum" in obs:
                grid = default_grid(p, spec.spectrum_points)
                spectra.append(SpectrumBlock(value, grid, evaluate_spectrum(d, grid),
                                             d.delta_weight))
                labels.append("spectrum:eigendecomposition")
            cells.append((d.delta_weight, ";".join(labels), note))
        for part, column in zip((columns, path_parts, note_parts), zip(*cells)):
            part.append(column)

    if "eigenvalues" in obs:
        eigs = np.linalg.eigvals(build_moment_systems(points).matrix)
        eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real)), axis=-1)
        columns += np.stack((eigs.real, eigs.imag), axis=-1).reshape(n, 30).T.tolist()
        path_parts.append(["eigenvalues:moments"] * n)

    # Each point's labels joined by ';', empty ones left out.
    paths, notes = (tuple(";".join(filter(None, labels)) for labels in zip(*parts, [""] * n))
                    for parts in (path_parts, note_parts))
    return SweepResult(spec, (spec.param, *_scalar_columns(obs)), tuple(zip(*columns)),
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


def _csv_table(rows: np.ndarray) -> str:
    """Rows of a float table as CSV lines, written by one %-format call."""
    n, k = rows.shape
    return ((",".join([_G17] * k) + "\n") * n) % tuple(rows.ravel().tolist())


def _header(result: SweepResult) -> dict:
    """Document keys shared by the CSV metadata line and the JSON document."""
    return {
        "schema": "mollowpair.sweep",
        "schema_version": 1,
        "artifact_version": result.version,
        "spec": result.spec.as_dict(),
        "regimes": list(result.regimes),
        "paths": list(result.paths),
        "notes": list(result.notes),
    }


def _emit_csv(result: SweepResult) -> bytes:
    out = [f"# {json.dumps(_header(result), sort_keys=True)}\n"]
    if result.spec.observables:
        out.append(",".join(result.columns) + "\n")
        out += [",".join("" if v is None else _G17 % v for v in row) + "\n"
                for row in result.rows]
    else:
        out.append(result.spec.param + "\n")
    for block in result.spectra:
        out.append(f"\n# spectrum {result.spec.param} = {_G17 % block.value} "
                   f"delta_weight = {_G17 % block.delta_weight}\n")
        out.append("omega,spectral_density\n")
        out.append(_csv_table(np.column_stack((block.grid, block.values))))
    for block in result.decompositions:
        out.append(f"\n# decomposition {result.spec.param} = {_G17 % block.value} "
                   f"delta_weight = {_G17 % block.delta_weight}\n")
        out.append("omega_zeta,gamma_zeta,L_zeta,K_zeta\n")
        out.append(_csv_table(np.array(block.components, dtype=float).reshape(-1, 4)))
    return "".join(out).encode()


def _json_floats(values: np.ndarray, depth: int) -> str:
    """A float array as json.dumps(..., indent=1) writes it at nesting depth.

    The compact encoder writes each float as the indented one does
    (float.__repr__; NaN, Infinity, -Infinity); its item separator carries
    the newline and indentation of the next item.
    """
    if values.size == 0:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    text = json.dumps(values.tolist(), separators=("," + inner, ":"))
    return "[" + inner + text[1:-1] + "\n" + " " * depth + "]"


def _json_spectrum(b: SpectrumBlock) -> str:
    """One spectrum block as the element of a list at depth 1 (keys sorted)."""
    return (f'{{\n   "delta_weight": {json.dumps(b.delta_weight)},'
            f'\n   "grid": {_json_floats(b.grid, 3)},'
            f'\n   "value": {json.dumps(b.value)},'
            f'\n   "values": {_json_floats(b.values, 3)}\n  }}')


def _emit_json(result: SweepResult) -> bytes:
    """json.dumps(doc, sort_keys=True, indent=1) of the whole result, spectra in bulk.

    Under sort_keys "spectra" is the last top-level key, so the rest of the
    document goes through json.dumps and the spectra list is appended whole
    in place of its closing brace.
    """
    doc = {
        **_header(result),
        "columns": list(result.columns),
        "rows": [list(r) for r in result.rows],
        "decompositions": [
            {"value": b.value, "delta_weight": b.delta_weight,
             "components": [list(c) for c in b.components]}
            for b in result.decompositions
        ],
    }
    head = json.dumps(doc, sort_keys=True, indent=1)
    spectra = ",\n  ".join(_json_spectrum(b) for b in result.spectra)
    spectra = "[\n  " + spectra + "\n ]" if spectra else "[]"
    return (head[:-2] + ',\n "spectra": ' + spectra + "\n}").encode()


def parse_json(data: bytes | str) -> SweepResult:
    """Rebuild a SweepResult from its JSON serialization (emit inverse)."""
    doc = json.loads(data)
    if doc.get("schema") != "mollowpair.sweep" or doc.get("schema_version") != 1:
        raise SweepSpecError("not a mollowpair sweep document (schema mismatch)")
    sd = doc["spec"]
    spec = SweepSpec(
        param=sd["param"],
        grid=GridSpec(**sd["grid"]),
        fixed=dict(sd["fixed"]),
        observables=tuple(sd["observables"]),
        fastpath=sd["fastpath"],
        spectrum_points=sd["spectrum_points"],
    )
    return SweepResult(
        spec=spec,
        columns=tuple(doc["columns"]),
        rows=tuple(tuple(v for v in row) for row in doc["rows"]),
        regimes=tuple(doc["regimes"]),
        paths=tuple(doc["paths"]),
        notes=tuple(doc["notes"]),
        spectra=tuple(
            SpectrumBlock(b["value"], b["grid"], b["values"], b["delta_weight"])
            for b in doc["spectra"]
        ),
        decompositions=tuple(
            DecompositionBlock(b["value"],
                               tuple(tuple(c) for c in b["components"]),
                               b["delta_weight"])
            for b in doc["decompositions"]
        ),
        version=doc["artifact_version"],
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _load_preset_file() -> dict:
    text = resources.files("mollowpair").joinpath("data/presets.json").read_text()
    return json.loads(text)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_load_preset_file()["presets"]))


def _preset_entry(name: str) -> dict:
    entry = _load_preset_file()["presets"].get(name)
    if entry is None:
        raise SweepSpecError(f"unknown preset {name!r} (valid: {', '.join(preset_names())})")
    return entry


def preset_description(name: str) -> str:
    return _preset_entry(name)["description"]


def load_preset(name: str) -> SweepSpec:
    """Build the SweepSpec of a named figure-reproduction preset."""
    entry = _preset_entry(name)
    sw = entry["sweep"]
    return SweepSpec(
        param=sw["param"],
        grid=GridSpec(min=sw["min"], max=sw["max"], count=sw["count"], scale=sw["scale"]),
        fixed={k: float(v) for k, v in entry["fixed"].items()},
        observables=tuple(entry["observables"]),
    )
