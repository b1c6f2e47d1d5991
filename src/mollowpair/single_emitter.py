"""One driven-dissipative two-level system, solved exactly.

Everything here is closed form: steady-state population and coherence, the
dressed states, the three-dimensional regression system, and the Mollow
spectrum split into Lorentzian/dispersive components in both the subcritical
(below omega = gamma/8) and supercritical regimes.  These results double as
oracles for the pair machinery, which must reduce to them under one-way
coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError
from .spectrum import CLUSTER_GAP, SpectralComponent, SpectralDecomposition


@dataclass(frozen=True)
class SingleParams:
    """Detuning, decay rate and drive amplitude of a single emitter."""

    delta: float = 0.0
    gamma: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ParameterError(f"gamma must be > 0, got {self.gamma}")
        if self.omega < 0.0:
            raise ParameterError(f"omega must be >= 0, got {self.omega}")


@dataclass(frozen=True)
class DressedState:
    """Dressed energies, splitting and Bogoliubov coefficients."""

    energies: tuple[float, float]
    splitting: float
    bogoliubov: tuple[float, float]


def steady_population_coherence(p: SingleParams) -> tuple[float, complex]:
    """Steady-state excited population n and coherence <sigma>."""
    den = 2.0 * p.omega**2 + p.delta**2 + (0.5 * p.gamma) ** 2
    n = p.omega**2 / den
    c = -p.omega * (p.delta + 0.5j * p.gamma) / den
    return n, c


def single_population(omega: float, gamma0: float) -> float:
    """Resonant steady population n0 of a solitary emitter with decay gamma0."""
    return omega**2 / (2.0 * omega**2 + (0.5 * gamma0) ** 2)


def critical_drive(gamma: float) -> float:
    """Drive amplitude where the regression eigenvalues collide: gamma/8."""
    if not (gamma > 0.0):
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return gamma / 8.0


def dressed_state(p: SingleParams) -> DressedState:
    """Dressed energies delta/2 +- R and the Bogoliubov coefficients."""
    r = math.sqrt((0.5 * p.delta) ** 2 + p.omega**2)
    ratio = 0.0 if r == 0.0 else 0.5 * p.delta / r
    sin_b = math.sqrt(0.5 * (1.0 - ratio))
    cos_b = math.sqrt(0.5 * (1.0 + ratio))
    return DressedState(
        energies=(0.5 * p.delta + r, 0.5 * p.delta - r),
        splitting=r,
        bogoliubov=(sin_b, cos_b),
    )


def regression_system(p: SingleParams) -> tuple[np.ndarray, np.ndarray]:
    """Dynamical matrix Q and drive vector P of the 3-moment system.

    The moments are ordered (<sigma>, <sigma^dag>, <sigma^dag sigma>) and
    evolve as du/dt = P - Q u.
    """
    g2 = 0.5 * p.gamma
    q = np.array(
        [
            [g2 + 1j * p.delta, 0.0, -2j * p.omega],
            [0.0, g2 - 1j * p.delta, 2j * p.omega],
            [-1j * p.omega, 1j * p.omega, p.gamma],
        ],
        dtype=complex,
    )
    pvec = 1j * p.omega * np.array([-1.0, 1.0, 0.0], dtype=complex)
    return q, pvec


def mollow_splitting(gamma: float, omega: float) -> float:
    """Supercritical sideband frequency sqrt((2*omega)**2 - (gamma/4)**2)."""
    return math.sqrt((2.0 * omega) ** 2 - (0.25 * gamma) ** 2)


def mollow_coefficients(p: SingleParams) -> SpectralDecomposition:
    """Pole decomposition of the resonant emission spectrum, in closed form.

    Supercritical drive (omega > gamma/8) gives the central peak plus two
    sidebands at +- the Mollow splitting with complex weights; subcritical
    drive gives three unshifted peaks with purely Lorentzian weights.  The
    components are ordered (central, +Omega_M, -Omega_M).  Where the two
    side poles lie closer than CLUSTER_GAP * gamma, as at the critical drive
    gamma/8, they form one second-order pole at width 3 gamma/2, the rule
    decompose_spectrum applies to colliding eigenvalues: (central, merged).
    The coherent delta fraction gamma**2/(gamma**2 + 8*omega**2) is the
    delta_weight; the record is emitter 1's.

    Raises
    ------
    UnsupportedConfigurationError
        For delta != 0, where no closed-form decomposition is available, and
        where omega**2 is 0 (undriven or underflowing): the side-pole
        weights divide by it.
    """
    if p.delta != 0.0:
        raise UnsupportedConfigurationError(
            "Mollow coefficients are only available at resonance (delta = 0); "
            "use the numerical pair machinery for detuned spectra"
        )
    g, w = p.gamma, p.omega
    if w**2 == 0.0:
        raise UnsupportedConfigurationError(
            f"the emitter is undriven or omega**2 underflows (omega = {w:.3g}); "
            "its spectrum has no pole decomposition")
    delta_weight = g**2 / (g**2 + 8.0 * w**2)
    share = 8.0 * w**2 / (g**2 + 8.0 * w**2)
    central = SpectralComponent(0.0, g, 0.5, 0.0)
    num = g**2 - 16.0 * w**2
    gm_sq = (0.25 * g) ** 2 - (2.0 * w) ** 2

    if 2.0 * math.sqrt(abs(gm_sq)) < CLUSTER_GAP * g:
        # The side poles 3 gamma/4 -+ gm merge: their weights diverge as
        # -+1/gm, but lb exp(gm tau) + lc exp(-gm tau) tends to
        # (lb + lc) - gm (lc - lb) tau, and both coefficients have regular
        # limits in omega (the supercritical pair tends to the same).
        merged = SpectralComponent(
            0.0, 1.5 * g,
            L_zeta=-share * (num + g * g) / (32.0 * w**2), K_zeta=0.0,
            L2_zeta=share * num * (0.25 / g + g / (256.0 * w**2)),
        )
        return SpectralDecomposition((central, merged), delta_weight, emitter=1)

    if gm_sq < 0.0:
        wm = mollow_splitting(g, w)
        common = share * (16.0 * w**2 - 2.0 * g**2) / ((4.0 * wm) ** 2 + g**2)
        disp = (
            share
            * (g / (4.0 * wm))
            * (16.0 * w**2 - g**2 + (4.0 * wm) ** 2)
            / ((4.0 * wm) ** 2 + g**2)
        )
        components = (
            central,
            SpectralComponent(+wm, 1.5 * g, common, +disp),
            SpectralComponent(-wm, 1.5 * g, common, -disp),
        )
        return SpectralDecomposition(components, delta_weight, emitter=1)

    gm = math.sqrt(gm_sq)
    # The narrow side's direct denominator 16*gm**2 - 4*g*gm cancels
    # catastrophically as omega -> 0 (gm -> g/4); with g**2 - 16 gm**2 =
    # 64 omega**2 it factors into the cancellation-free form below.
    den_b = -256.0 * gm * w**2 / (g + 4.0 * gm)
    den_c = 4.0 * gm * (4.0 * gm + g)
    lb = share * (num + 4.0 * g * gm) / den_b
    lc = share * (num - 4.0 * g * gm) / den_c
    components = (
        central,
        SpectralComponent(0.0, 1.5 * g - 2.0 * gm, lb, 0.0),
        SpectralComponent(0.0, 1.5 * g + 2.0 * gm, lc, 0.0),
    )
    return SpectralDecomposition(components, delta_weight, emitter=1)


@dataclass(frozen=True)
class SingleSpectrum:
    """Incoherent spectrum on a grid plus the separate coherent delta weight."""

    values: np.ndarray
    delta_weight: float
    degenerate: bool = False


def single_spectrum(p: SingleParams, grid: np.ndarray) -> SingleSpectrum:
    """Exact resonant emission spectrum evaluated pointwise on a grid.

    The grid holds frequencies relative to the emitter transition, in units
    of gamma's frequency scale, strictly increasing.  The returned values are
    the incoherent density only; the Rayleigh delta weight is reported
    separately and never binned onto the grid.  An undriven emitter has no
    incoherent emission: all-zero values, delta weight 1, degenerate flag.
    """
    if p.delta != 0.0:
        raise UnsupportedConfigurationError(
            "the closed-form spectrum is only available at resonance (delta = 0); "
            "use the numerical pair machinery for detuned spectra"
        )
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ParameterError("grid must be a strictly increasing 1-d array")
    if p.omega == 0.0:
        return SingleSpectrum(np.zeros_like(grid), 1.0, degenerate=True)
    g, w = p.gamma, p.omega
    x2 = grid * grid
    central = (0.5 / math.pi) * (0.5 * g) / ((0.5 * g) ** 2 + x2)
    side = (
        (g / math.pi)
        * (x2 + g**2 - 16.0 * w**2)
        / (4.0 * x2 * x2 + x2 * (5.0 * g**2 - 32.0 * w**2) + (g**2 + 8.0 * w**2) ** 2)
    )
    delta_weight = g**2 / (g**2 + 8.0 * w**2)
    return SingleSpectrum(central - side, delta_weight)

