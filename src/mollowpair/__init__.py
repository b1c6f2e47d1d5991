"""Resonance fluorescence of a driven pair of coupled two-level systems.

Steady-state populations, second-order cross-correlations and emission
spectra of two emitters sharing coherent and dissipative coupling channels,
with closed forms for the pure coupling regimes, a 15-dimensional moment
solver, a brute-force density-matrix oracle, and a sweep CLI.

The public names below are imported from their submodules on first access
(PEP 562), so importing the package loads no submodule and no numpy, and a
program loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "errors": "ConditionWarning DegenerateSteadyStateError NumericalError ParameterError "
              "SingularSystemError SweepSpecError UndefinedCorrelatorError "
              "UnsupportedConfigurationError",
    "hamiltonian": "build_pair_hamiltonian dressed_energies quintuplet_frequencies",
    "liouville": "Liouvillian build_liouvillian liouville_spectrum steady_state_dm",
    "moments": "MomentState MomentSystem Populations build_moment_system g2_cross populations "
               "steady_state",
    "params": "Regime SystemParams asymmetric_pair classify_regime coherent_pair dissipative_pair "
              "generalized_couplings load_config parse_config unidirectional_pair",
    "single_emitter": "SingleParams SingleSpectrum critical_drive dressed_state "
                      "mollow_coefficients mollow_splitting single_population single_spectrum "
                      "steady_population_coherence",
    "spectrum": "SpectralComponent SpectralDecomposition boundary_vector decompose_spectrum "
                "default_grid evaluate_spectrum local_maxima",
    "spec": "GridSpec SweepSpec load_preset preset_names",
    "sweep": "SpectrumBlock SweepResult emit parse_json run_sweep",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
