"""Single-emitter closed forms: populations, regression system, Mollow spectrum."""

import math
from dataclasses import astuple
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from mollowpair.errors import ParameterError, UnsupportedConfigurationError
from mollowpair.single_emitter import (
    SingleParams,
    critical_drive,
    dressed_state,
    mollow_coefficients,
    mollow_splitting,
    regression_system,
    single_population,
    single_spectrum,
    steady_population_coherence,
)
from mollowpair.spectrum import evaluate_spectrum


def test_population_limits():
    n, c = steady_population_coherence(SingleParams(gamma=1.0, omega=0.0))
    assert (n, c) == (0.0, 0.0)
    n, _ = steady_population_coherence(SingleParams(gamma=1.0, omega=1e3))
    assert abs(n - 0.5) < 1e-6


def test_population_value_at_half_gamma():
    n, c = steady_population_coherence(SingleParams(gamma=1.0, omega=0.5))
    assert n == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert c == pytest.approx(-1j / 3.0, abs=1e-15)


def test_population_bounded_below_half(rng):
    for _ in range(50):
        p = SingleParams(delta=rng.uniform(-3, 3), gamma=10 ** rng.uniform(-1, 1),
                         omega=10 ** rng.uniform(-2, 3))
        n, _ = steady_population_coherence(p)
        assert 0.0 <= n < 0.5


def test_critical_drive_scaling():
    assert critical_drive(1.0) == 0.125
    assert critical_drive(8.0) == 1.0
    assert critical_drive(2.0) == 0.25
    with pytest.raises(ParameterError):
        critical_drive(0.0)
    with pytest.raises(ParameterError, match="^gamma must be finite, got inf$"):
        critical_drive(np.inf)


@pytest.mark.parametrize("call, args, match", [
    (mollow_splitting, (1.0, 0.1), r"^omega = 0\.1 lies below gamma/8 = 0\.125 \(gamma = 1\.0\)"),
    (mollow_splitting, (1.0, -1.0), "^omega must be >= 0, got -1.0$"),
    (mollow_splitting, (0.0, 1.0), "^gamma must be > 0, got 0.0$"),
    (mollow_splitting, (np.nan, 1.0), "^gamma must be > 0, got nan$"),
    (single_population, (1.0, 0.0), "^gamma must be > 0, got 0.0$"),
    (single_population, (-1.0, 1.0), "^omega must be >= 0, got -1.0$"),
], ids=["splitting-subcritical", "splitting-negative-omega", "splitting-zero-gamma",
        "splitting-nan-gamma", "population-zero-gamma", "population-negative-omega"])
def test_rates_outside_the_domain_raise_parameter_error(call, args, match):
    # Each entry point checks its rates as SingleParams does and names the
    # rate at fault; below gamma/8, where the radicand is negative,
    # mollow_splitting names omega, gamma/8 and gamma.
    with pytest.raises(ParameterError, match=match):
        call(*args)


def test_mollow_splitting_closes_at_the_critical_drive():
    assert mollow_splitting(1.0, 0.125) == 0.0
    assert mollow_splitting(8.0, 1.0) == 0.0


@pytest.mark.parametrize("field, value", [("omega", np.nan), ("omega", np.inf),
                                          ("delta", np.nan), ("delta", -np.inf),
                                          ("gamma", np.inf)])
def test_single_params_rejects_non_finite(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be finite, got {value}$"):
        SingleParams(**{field: value})


def test_dressed_state_invariants(rng):
    for _ in range(20):
        p = SingleParams(delta=rng.uniform(-3, 3), gamma=1.0, omega=rng.uniform(0, 3))
        d = dressed_state(p)
        s, c = d.bogoliubov
        assert s * s + c * c == pytest.approx(1.0, abs=1e-14)
        assert d.energies[0] - d.energies[1] == pytest.approx(2 * d.splitting, abs=1e-14)


def test_steady_state_solves_regression_system(rng):
    # Closed form against the null-space solution of P - Q u = 0.
    for _ in range(50):
        p = SingleParams(delta=rng.uniform(-2, 2), gamma=10 ** rng.uniform(-1, 1),
                         omega=10 ** rng.uniform(-2, 2))
        q, drive = regression_system(p)
        u = np.linalg.solve(q, drive)
        n, c = steady_population_coherence(p)
        assert u[0] == pytest.approx(c, abs=1e-12)
        assert u[1] == pytest.approx(np.conj(c), abs=1e-12)
        assert u[2] == pytest.approx(n, abs=1e-12)


def test_regression_eigenvalues_supercritical(rng):
    # {gamma/2, 3 gamma/4 +- i Omega_M} as eigenvalues of the 3x3 system.
    for _ in range(30):
        gamma = 10 ** rng.uniform(-1, 1)
        omega = rng.uniform(0.3, 3.0) * gamma
        q, _ = regression_system(SingleParams(gamma=gamma, omega=omega))
        wm = mollow_splitting(gamma, omega)
        expected = np.array([0.75 * gamma - 1j * wm, 0.5 * gamma, 0.75 * gamma + 1j * wm])
        got = np.linalg.eigvals(q)
        got = got[np.argsort(got.imag)]
        np.testing.assert_allclose(got, expected, atol=1e-12 * gamma)


def test_mollow_coefficients_supercritical_values():
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=1.0))
    assert coeffs.emitter == 1
    central, upper, lower = coeffs.components
    assert central.gamma_zeta == 1.0
    assert central.L_zeta == 0.5
    wm = np.sqrt(63.0) / 4.0
    assert upper.omega_zeta == pytest.approx(wm, abs=1e-12)
    assert lower.omega_zeta == pytest.approx(-wm, abs=1e-12)
    assert coeffs.delta_weight == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert coeffs.lorentzian_sum + coeffs.delta_weight == pytest.approx(1.0, abs=1e-12)


def test_mollow_coefficients_subcritical_structure():
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=0.05))
    assert len(coeffs.components) == 3
    for c in coeffs.components:
        assert c.omega_zeta == 0.0
        assert c.K_zeta == 0.0
        assert c.gamma_zeta > 0.0
        assert (c.L2_zeta, c.K2_zeta) == (0.0, 0.0)
    assert coeffs.lorentzian_sum + coeffs.delta_weight == pytest.approx(1.0, abs=1e-12)


def test_mollow_boundary_is_finite():
    # At the critical drive the side poles merge into one second-order pole:
    # first-order weight -7/18, tau weight gamma/24.
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=0.125))
    central, merged = coeffs.components
    expected = ((0.0, 1.0, 0.5, 0.0, 0.0, 0.0),
                (0.0, 1.5, -7.0 / 18.0, 0.0, 1.0 / 24.0, 0.0))
    for got, ref in zip((central, merged), expected):
        np.testing.assert_allclose(astuple(got), ref, rtol=0.0, atol=1e-12)
    assert coeffs.lorentzian_sum + coeffs.delta_weight == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
def test_critical_window_matches_closed_form_spectrum(gamma):
    # Both sides of gamma/8 down to the last bit: the split formulas outside
    # the cluster gap, the second-order pole inside it.
    grid = np.linspace(-12.0, 12.0, 801) * gamma
    omegas = [gamma / 8.0] + [gamma / 8.0 * (1.0 + sign * 10.0**-k)
                              for k in range(1, 17) for sign in (1.0, -1.0)]
    for omega in omegas:
        p = SingleParams(gamma=gamma, omega=omega)
        exact = single_spectrum(p, grid).values
        rebuilt = evaluate_spectrum(mollow_coefficients(p), grid)
        assert np.max(np.abs(rebuilt - exact)) <= 1e-10 * np.max(np.abs(exact)), omega


def test_weight_normalization_random(rng):
    for _ in range(100):
        gamma = 10 ** rng.uniform(-1, 1)
        omega = 10 ** rng.uniform(-3, 2) * gamma
        coeffs = mollow_coefficients(SingleParams(gamma=gamma, omega=omega))
        assert coeffs.lorentzian_sum + coeffs.delta_weight == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("omega", [0.0, 1e-170])
def test_undriven_coefficients_rejected(omega):
    # At omega = 0, and wherever omega**2 underflows, the side-pole weights
    # divide by omega**2: a reason, not a bare ZeroDivisionError.
    with pytest.raises(UnsupportedConfigurationError, match=r"undriven or omega\*\*2 underflows"):
        mollow_coefficients(SingleParams(gamma=1.0, omega=omega))


def test_detuned_coefficients_rejected():
    with pytest.raises(UnsupportedConfigurationError, match="resonance"):
        mollow_coefficients(SingleParams(delta=1.0, gamma=1.0, omega=1.0))
    with pytest.raises(UnsupportedConfigurationError, match="resonance"):
        single_spectrum(SingleParams(delta=1.0, gamma=1.0, omega=1.0), np.linspace(-1, 1, 11))


@pytest.mark.parametrize("omega", [0.125, 0.5, 1.0, 2.0])
def test_spectrum_symmetric_and_decaying(omega):
    grid = np.linspace(-100.0, 100.0, 4001)
    spec = single_spectrum(SingleParams(gamma=1.0, omega=omega), grid)
    np.testing.assert_allclose(spec.values, spec.values[::-1], atol=1e-15)
    assert spec.values[-1] < 1e-4 * spec.values.max()


def test_spectrum_undriven_degenerates_to_delta():
    grid = np.linspace(-5.0, 5.0, 101)
    spec = single_spectrum(SingleParams(gamma=1.0, omega=0.0), grid)
    assert spec.degenerate
    assert spec.delta_weight == 1.0
    assert np.all(spec.values == 0.0)


def test_reconstruction_matches_closed_form(rng):
    grid = np.linspace(-12.0, 12.0, 801)
    for _ in range(60):
        gamma = 10 ** rng.uniform(-0.5, 0.5)
        # both regimes; the critical window has its own test
        omega = gamma * (10 ** rng.uniform(-2, 1))
        coeffs = mollow_coefficients(SingleParams(gamma=gamma, omega=omega))
        rebuilt = evaluate_spectrum(coeffs, grid)
        closed = single_spectrum(SingleParams(gamma=gamma, omega=omega), grid).values
        np.testing.assert_allclose(rebuilt, closed, atol=1e-10)


def test_spectrum_continuity_across_critical_point():
    grid = np.linspace(-3.0, 3.0, 601)
    omega_c = critical_drive(1.0)
    below = single_spectrum(SingleParams(gamma=1.0, omega=omega_c * (1 - 1e-6)), grid).values
    above = single_spectrum(SingleParams(gamma=1.0, omega=omega_c * (1 + 1e-6)), grid).values
    assert np.max(np.abs(above - below)) < 1e-4 * np.max(np.abs(below))


def test_integral_plus_delta_normalizes():
    # Wide grid: the incoherent integral plus the delta weight is 1.
    grid = np.linspace(-2000.0, 2000.0, 400001)
    spec = single_spectrum(SingleParams(gamma=1.0, omega=1.0), grid)
    integral = np.sum(0.5 * (spec.values[1:] + spec.values[:-1]) * np.diff(grid))
    assert integral + spec.delta_weight == pytest.approx(1.0, abs=2e-3)


# --- drives whose square or fourth power leaves the floats -------------------

#: From 5e76 omega**4 overflows, from 1.3e154 omega**2 does, and 1e300 is near the top.
HUGE_DRIVES = [5e76, 1.3e154, 1e155, 1e300]


def _exact_spectrum(x: float, gamma: float, omega: float) -> float:
    """single_spectrum's direct form in exact rational arithmetic, pi the float's."""
    x2, g, w = Fraction(x) ** 2, Fraction(gamma), Fraction(omega)
    central = (g / 4) / (g * g / 4 + x2)
    side = g * (x2 + g * g - 16 * w * w) / (
        4 * x2 * x2 + x2 * (5 * g * g - 32 * w * w) + (g * g + 8 * w * w) ** 2)
    return float((central - side) / Fraction(math.pi))


@pytest.mark.parametrize("delta, gamma, omega", [(0.0, 1.0, w) for w in HUGE_DRIVES] + [
    (1e300, 1e300, 1e300), (1e300, 1.0, 1.0), (1.0, 1e300, 1e-10), (-3e200, 2e180, 5e199),
    (1e10, 1.0, 1e-3), (-1e300, 1.0, 1.0), (0.0, 1e-170, 1e-170), (1e-170, 1e-170, 1e-170)])
def test_population_and_dressed_state_with_huge_rates(delta, gamma, omega):
    d, g, w = Fraction(delta), Fraction(gamma), Fraction(omega)
    den = 2 * w * w + d * d + g * g / 4
    p = SingleParams(delta=delta, gamma=gamma, omega=omega)
    n, c = steady_population_coherence(p)
    assert n == pytest.approx(float(w * w / den), rel=1e-15, abs=0.0)
    assert c.real == pytest.approx(float(-w * d / den), rel=1e-15, abs=0.0)
    assert c.imag == pytest.approx(float(-w * g / 2 / den), rel=1e-15, abs=0.0)
    assert single_population(omega, gamma) == pytest.approx(
        float(w * w / (2 * w * w + g * g / 4)), rel=1e-15, abs=0.0)
    with localcontext() as ctx:
        ctx.prec = 700  # delta/2 - R cancels to 1e-600 of delta at delta = 1e300, omega = 1
        r = (Decimal(delta) ** 2 / 4 + Decimal(omega) ** 2).sqrt()
        energies = (float(Decimal(delta) / 2 + r), float(Decimal(delta) / 2 - r))
    dressed = dressed_state(p)
    assert dressed.splitting == pytest.approx(float(r), rel=1e-15)
    # Both energies to rounding, the one of smaller magnitude too (-1e-16 at delta = 1e10).
    for got, want in zip(dressed.energies, energies):
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert dressed.energies[0] - dressed.energies[1] == pytest.approx(2.0 * float(r), rel=1e-15)
    if delta == 0.0:
        assert dressed.energies == (omega, -omega) and dressed.splitting == omega
        assert dressed.bogoliubov == (math.sqrt(0.5), math.sqrt(0.5))


@pytest.mark.parametrize("omega", HUGE_DRIVES)
def test_mollow_decomposition_at_huge_drive(omega):
    with localcontext() as ctx:
        ctx.prec = 50
        w2 = Decimal(omega) ** 2
        wm = (4 * w2 - Decimal(1) / 16).sqrt()
        share = 8 * w2 / (1 + 8 * w2)
        disp = share / (4 * wm) * (16 * w2 - 1 + 16 * wm * wm) / (16 * wm * wm + 1)
    assert mollow_splitting(1.0, omega) == pytest.approx(float(wm), rel=1e-15)
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=omega))
    central, upper, lower = (astuple(c) for c in coeffs.components)
    assert central == (0.0, 1.0, 0.5, 0.0, 0.0, 0.0)
    for sign, pole in ((1.0, upper), (-1.0, lower)):
        np.testing.assert_allclose(pole, (sign * float(wm), 1.5, 0.25, sign * float(disp), 0, 0),
                                   rtol=1e-15, atol=0.0)
    assert coeffs.delta_weight == pytest.approx(float(1 / (1 + 8 * Fraction(omega) ** 2)),
                                                rel=1e-6, abs=0.0)
    assert coeffs.lorentzian_sum + coeffs.delta_weight == 1.0


@pytest.mark.parametrize("gamma, omega, far", [(1.0, w, ()) for w in HUGE_DRIVES] + [
    (1e200, 1e200, ()), (8e200, 1e200, ()), (1e200, 1e202, ()), (1e300, 1e299, ()),
    (1e-5, 1e300, ()), (1.0, 1e8, ()), (1.0, 1.0, (-1e200, 1e200)),
    (1e-170, 1e-170, (-1e-100, 1e-100))],
    ids=[f"drive-{w:g}" for w in HUGE_DRIVES]
    + ["equal", "critical", "supercritical", "weak-drive", "strong-drive", "sidebands-at-1e8",
       "grid-to-1e200", "tiny-rates"])
def test_spectrum_at_huge_rates_matches_exact_arithmetic(gamma, omega, far):
    # The values, of degree -1 in the rates and the grid, are computed at both divided by
    # a power of two and divided by it: no overflow on the way, nor a NaN.  The one-term
    # form has no cancellation at the sidebands x = +-2 omega, nor far out on the grid.
    grid = np.concatenate((np.linspace(-3.0, 3.0, 7) * omega,
                           gamma * np.array([-2.0, 0.0, 0.5, 2.0, 3.0]),
                           2.0 * omega + gamma * np.array([-1.0, 0.5, 1.0, 3.0]), far))
    grid = np.unique(grid)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = single_spectrum(SingleParams(gamma=gamma, omega=omega), grid)
    exact = np.array([_exact_spectrum(x, gamma, omega) for x in grid])
    # Equal to 1e-13 where the exact value is a normal float, and within the smallest
    # normal float below it.
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(got.values - exact) <= np.maximum(1e-13 * np.abs(exact), tiny))
    w2, g2 = Fraction(omega) ** 2, Fraction(gamma) ** 2
    assert got.delta_weight == pytest.approx(float(g2 / (g2 + 8 * w2)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("gamma_over_omega, expected", [
    (8.0, [(0.0, 1.0, 0.5, 0.0, 0.0, 0.0), (0.0, 1.5, -7.0 / 18.0, 0.0, 1.0 / 24.0, 0.0)]),
    (80.0, None)], ids=["critical", "subcritical"])
def test_mollow_decomposition_at_huge_drive_in_every_regime(gamma_over_omega, expected):
    # Rates scale out: the same decomposition at omega = 1 and 2**400, the rates
    # (poles, L2) multiplied by 2**400 and the weights L, K kept.
    small = mollow_coefficients(SingleParams(gamma=gamma_over_omega, omega=1.0))
    big = mollow_coefficients(SingleParams(gamma=gamma_over_omega * 2.0**400, omega=2.0**400))
    scale = np.array([2.0**400, 2.0**400, 1.0, 1.0, 2.0**400, 2.0**400])
    for a, b in zip(small.components, big.components):
        np.testing.assert_allclose(np.array(astuple(b)) / scale, astuple(a), rtol=1e-15, atol=0)
    assert big.delta_weight == small.delta_weight
    if expected is not None:
        np.testing.assert_allclose([np.array(astuple(c)) / scale for c in big.components],
                                   np.array(expected) * [1, gamma_over_omega, 1, 1,
                                                         gamma_over_omega, 1], atol=1e-12)


def test_poles_past_the_float_range_raise_parameter_error():
    # The Mollow splitting 2 omega exceeds the largest float from omega = 9e307.
    p = SingleParams(gamma=1.0, omega=1.7e308)
    for call in (lambda: mollow_splitting(1.0, 1.7e308), lambda: mollow_coefficients(p),
                 lambda: single_spectrum(p, np.array([-1.0, 0.0, 1.0]))):
        with pytest.raises(ParameterError, match=r"^omega = 1\.7e\+308 puts "):
            call()


@pytest.mark.parametrize("omega", [1e-3, 0.125, 1.0, 1e4, 1e10])
def test_direct_forms_keep_their_bits_up_to_1e10(omega):
    g = 1.0
    p = SingleParams(delta=0.3 if omega > 1.0 else 0.0, gamma=g, omega=omega)
    den = 2.0 * omega**2 + p.delta**2 + (0.5 * g) ** 2
    assert steady_population_coherence(p) == (omega**2 / den,
                                              -omega * (p.delta + 0.5j * g) / den)
    assert single_population(omega, g) == omega**2 / (2.0 * omega**2 + (0.5 * g) ** 2)
    assert dressed_state(p).splitting == math.sqrt((0.5 * p.delta) ** 2 + omega**2)
    if omega > g / 8.0:
        assert mollow_splitting(g, omega) == math.sqrt((2.0 * omega) ** 2 - (0.25 * g) ** 2)
