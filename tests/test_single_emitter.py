"""Single-emitter closed forms: populations, regression system, Mollow spectrum."""

from dataclasses import astuple

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
    integral = np.trapezoid(spec.values, grid)
    assert integral + spec.delta_weight == pytest.approx(1.0, abs=2e-3)
