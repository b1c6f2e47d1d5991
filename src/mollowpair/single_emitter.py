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

from .closed_forms import _EXPONENT, rate_scale
from .errors import ParameterError, UnsupportedConfigurationError
from .spectrum import (CLUSTER_GAP, SpectralComponent, SpectralDecomposition, _as_grid,
                       evaluate_spectrum)

#: Above this omega / gamma, single_spectrum's one-term form gives way to the poles'.
_POLE_RATIO = 1e60


def _in_range(values: tuple, omega: float) -> tuple:
    """values, or ParameterError naming omega where one lies beyond the float range."""
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"omega = {omega!r} puts a result beyond the float range")
    return values


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
        for name in ("delta", "gamma", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")


def _at_resonance(p: SingleParams, what: str) -> None:
    if p.delta != 0.0:
        raise UnsupportedConfigurationError(f"{what} only available at resonance (delta = 0); "
                                            "use the numerical pair machinery for detuned spectra")


@dataclass(frozen=True)
class DressedState:
    """Dressed energies, splitting and Bogoliubov coefficients."""

    energies: tuple[float, float]
    splitting: float
    bogoliubov: tuple[float, float]


def steady_population_coherence(p: SingleParams) -> tuple[float, complex]:
    """Steady-state excited population n and coherence <sigma>.

    n = omega**2 / den and <sigma> = -omega (delta + i gamma / 2) / den, with den =
    2 omega**2 + delta**2 + gamma**2 / 4: of degree 0 in the rates, divided by rate_scale.
    """
    s = rate_scale(p.delta, p.gamma, p.omega)
    delta, gamma, omega = p.delta / s, p.gamma / s, p.omega / s
    den = 2.0 * omega**2 + delta**2 + (0.5 * gamma) ** 2
    return omega**2 / den, -omega * (delta + 0.5j * gamma) / den


def single_population(omega: float, gamma0: float) -> float:
    """Resonant steady population n0 of a solitary emitter with decay gamma0."""
    return steady_population_coherence(SingleParams(gamma=gamma0, omega=omega))[0]


def critical_drive(gamma: float) -> float:
    """Drive amplitude where the regression eigenvalues collide: gamma/8."""
    return SingleParams(gamma=gamma).gamma / 8.0


def dressed_state(p: SingleParams) -> DressedState:
    """Dressed energies delta/2 +- R and the Bogoliubov coefficients.

    Raises ParameterError where an energy lies beyond the float range.
    """
    s = rate_scale(p.delta, p.omega)
    half, w = 0.5 * p.delta / s, p.omega / s
    r = math.sqrt(half**2 + w**2)
    ratio = 0.0 if r == 0.0 else half / r
    sin_b = math.sqrt(0.5 * (1.0 - ratio))
    cos_b = math.sqrt(0.5 * (1.0 + ratio))
    # delta/2 -+ R cancels in the energy of smaller magnitude: -omega**2 / (the other one).
    far = half + math.copysign(r, half)
    near = -p.omega * (w / far) if half else -far * s
    upper, lower, r = _in_range((max(far * s, near), min(far * s, near), r * s), p.omega)
    return DressedState(energies=(upper, lower), splitting=r, bogoliubov=(sin_b, cos_b))


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
    """Supercritical sideband frequency sqrt((2*omega)**2 - (gamma/4)**2).

    Raises ParameterError below gamma/8 and where it lies beyond the float range.
    """
    SingleParams(gamma=gamma, omega=omega)  # the domain of both rates
    s = rate_scale(gamma, omega)
    g, w = gamma / s, omega / s
    square = (2.0 * w) ** 2 - (0.25 * g) ** 2
    if square < 0.0:
        raise ParameterError(f"omega = {omega!r} lies below gamma/8 = {gamma / 8.0!r} "
                             f"(gamma = {gamma!r}): the sidebands do not split")
    return _in_range((math.sqrt(square) * s,), omega)[0]


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
        where the side-pole weights' factor 8 omega**2 / (gamma**2 + 8 omega**2)
        is below the smallest normal float (undriven, or omega / gamma < 1e-154).
    ParameterError
        Where a pole lies beyond the float range (omega above about 9e307).
    """
    _at_resonance(p, "Mollow coefficients are")
    s = rate_scale(p.gamma, p.omega)
    if s != 1.0:
        return _rates_times(mollow_coefficients(SingleParams(0.0, p.gamma / s, p.omega / s)),
                            s, p.omega)
    g, w = p.gamma, p.omega
    delta_weight = g**2 / (g**2 + 8.0 * w**2)
    share = 8.0 * w**2 / (g**2 + 8.0 * w**2)
    if share < 2.0**-1022:
        raise UnsupportedConfigurationError(
            f"the emitter is undriven or omega**2 underflows against gamma**2 (omega / gamma = "
            f"{w / g:.3g}); its spectrum has no pole decomposition")
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


def _rates_times(d: SpectralDecomposition, s: float, omega: float) -> SpectralDecomposition:
    """d with its rates, the poles and L2, K2, multiplied by the power of two s.

    The weights L, K and the delta weight are ratios of rates and stay.
    """
    return SpectralDecomposition(tuple(SpectralComponent(*_in_range((
        c.omega_zeta * s, c.gamma_zeta * s, c.L_zeta, c.K_zeta, c.L2_zeta * s,
        c.K2_zeta * s), omega)) for c in d.components), d.delta_weight, emitter=1)


@dataclass(frozen=True)
class SingleSpectrum:
    """Incoherent spectrum on a grid plus the separate coherent delta weight."""

    values: np.ndarray
    delta_weight: float
    degenerate: bool = False


def single_spectrum(p: SingleParams, grid: np.ndarray) -> SingleSpectrum:
    """Exact resonant emission spectrum evaluated pointwise on a grid.

    The grid holds frequencies relative to the emitter transition, strictly increasing.  The
    values are the incoherent density only; the Rayleigh delta weight is reported separately.
    An undriven emitter has no incoherent emission: all-zero values, delta weight 1,
    degenerate flag.

    Up to omega / gamma = _POLE_RATIO the values are one term with no cancellation,
    (8/pi) gamma / (gamma**2/4 + x**2) omega**2 (x**2 + gamma**2 + 2 omega**2) / D with
    D = 4 ((x - 2 omega)(x + 2 omega))**2 + gamma**2 (5 x**2 + 16 omega**2) + gamma**4, at x
    and the rates divided per point by the power of two that takes the largest just under
    2**100.  Above it they are mollow_coefficients' lineshapes at the grid and rates divided
    by the power of two nearest the geometric mean of gamma and the largest shift."""
    _at_resonance(p, "the closed-form spectrum is")
    grid = _as_grid(grid)
    if p.omega == 0.0:
        return SingleSpectrum(np.zeros_like(grid), 1.0, degenerate=True)
    if p.omega > _POLE_RATIO * p.gamma:
        d = mollow_coefficients(p)
        top = max(-grid[0], grid[-1], 2.0 * p.omega)
        s = math.ldexp(1.0, (math.frexp(p.gamma)[1] + math.frexp(top)[1]) // 2)
        values = evaluate_spectrum(_rates_times(d, 1.0 / s, p.omega), grid / s) / s
        return SingleSpectrum(values, d.delta_weight)
    e = _EXPONENT - np.frexp(np.maximum(np.abs(grid), max(p.gamma, p.omega)))[1]
    g, w, x = np.ldexp(p.gamma, e), np.ldexp(p.omega, e), np.ldexp(grid, e)
    y, x2, g2 = (x - 2.0 * w) * (x + 2.0 * w), x * x, g * g
    den = 4.0 * y * y + g2 * (5.0 * x2 + 16.0 * w * w) + g2 * g2
    values = (8.0 / math.pi) * (g / (0.25 * g2 + x2)) * (w * w) * (x2 + g2 + 2.0 * w * w) / den
    s = rate_scale(p.gamma, p.omega)
    g, w = p.gamma / s, p.omega / s
    return SingleSpectrum(np.ldexp(values, e), g**2 / (g**2 + 8.0 * w**2))
