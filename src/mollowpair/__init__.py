"""Resonance fluorescence of a driven pair of coupled two-level systems.

Steady-state populations, second-order cross-correlations and emission
spectra of two emitters sharing coherent and dissipative coupling channels,
with closed forms for the pure coupling regimes, a 15-dimensional moment
solver, a brute-force density-matrix oracle, and a sweep CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ConditionWarning,
    DegenerateSteadyStateError,
    NumericalError,
    ParameterError,
    ResolutionError,
    SingularSystemError,
    SweepSpecError,
    TruncationWarning,
    UndefinedCorrelatorError,
    UnsupportedConfigurationError,
)
from .hamiltonian import (
    build_pair_hamiltonian,
    dressed_energies,
    quintuplet_frequencies,
)
from .liouville import (
    Liouvillian,
    build_liouvillian,
    evolve_dm,
    spectrum_fft,
    steady_state_dm,
    two_time_correlator,
)
from .moments import (
    MomentState,
    MomentSystem,
    Populations,
    build_moment_system,
    g2_cross,
    populations,
    steady_state,
)
from .params import (
    Regime,
    SystemParams,
    asymmetric_pair,
    classify_regime,
    coherent_pair,
    dissipative_pair,
    generalized_couplings,
    load_config,
    parse_config,
    unidirectional_pair,
)
from .single_emitter import (
    SingleParams,
    SingleSpectrum,
    critical_drive,
    dressed_state,
    mollow_coefficients,
    mollow_splitting,
    single_population,
    single_spectrum,
    steady_population_coherence,
)
from .spectrum import (
    SpectralComponent,
    SpectralDecomposition,
    boundary_vector,
    decompose_spectrum,
    default_grid,
    evaluate_spectrum,
    local_maxima,
)
from .sweep import (
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
