"""Density-matrix oracle: generator structure, steady states, spectra."""

import numpy as np
import pytest

from mollowpair import closed_forms as cf
from mollowpair.errors import (
    DegenerateSteadyStateError,
    ParameterError,
    UnsupportedConfigurationError,
)
from mollowpair.liouville import (
    build_liouvillian,
    devectorize,
    liouville_spectrum,
    steady_state_dm,
    vectorize,
)
from mollowpair.moments import build_moment_system, steady_state
from mollowpair.operators import N1, SIGMA1, SIGMA2
from mollowpair.params import (
    SystemParams,
    asymmetric_pair,
    coherent_pair,
    unidirectional_pair,
)
from mollowpair.single_emitter import SingleParams, single_spectrum
from mollowpair.spectrum import decompose_spectrum, local_maxima

from conftest import random_params


def random_unit_trace_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + a.conj().T)
    return h / np.trace(h).real


def test_vectorize_roundtrip(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_array_equal(devectorize(vectorize(a)), a)


def test_trace_preservation(rng):
    # Natural-unit-scale parameters; the bound scales with the generator norm.
    p = SystemParams(delta=0.4, g=1.3, theta=2.1, gamma=0.8, phi=0.9,
                     omega1=1.7, omega2=0.6)
    lv = build_liouvillian(p)
    for _ in range(50):
        rho = random_unit_trace_hermitian(rng)
        rate = np.trace(devectorize(lv.matrix @ vectorize(rho)))
        assert abs(rate) < 1e-13


def test_uncoupled_generator_eigenvalues():
    # Two independent decay channels: rates {0, 1/2 x4, 1 x6, 3/2 x4, 2}.
    lv = build_liouvillian(SystemParams())
    vals = np.sort(np.linalg.eigvals(lv.matrix).real)
    expected = -np.array([2.0] + [1.5] * 4 + [1.0] * 6 + [0.5] * 4 + [0.0])
    np.testing.assert_allclose(vals, np.sort(expected), atol=1e-12)


def test_spectral_stability(rng):
    # Largest real part is the zero mode; everything else decays.
    for _ in range(20):
        p = random_params(rng, with_detuning=True, with_second_drive=True)
        vals = np.linalg.eigvals(build_liouvillian(p).matrix)
        assert np.max(vals.real) < 1e-10
        assert np.sum(np.abs(vals) < 1e-9) == 1


def test_dark_state_at_maximal_dissipative_coupling():
    # gamma = gamma0, undriven: the antisymmetric single-excitation state is
    # decay-free.  At resonance the kernel collects the two stationary states
    # plus the two zero-frequency ground/dark coherences, hence dimension 4.
    p = SystemParams(gamma=1.0, phi=0.3)
    lv = build_liouvillian(p)
    # antisymmetric combination of |10> and |01>, with the coupling phase
    v = np.array([0.0, 1.0, -np.exp(-0.3j), 0.0]) / np.sqrt(2)
    dark = np.outer(v, v.conj())
    rate = lv.matrix @ vectorize(dark)
    assert np.max(np.abs(rate)) < 1e-14
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_state_dm(lv)
    assert err.value.kernel_dim == 4
    # Detuning lifts the coherence pair but keeps both stationary states.
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_state_dm(build_liouvillian(SystemParams(delta=0.5, gamma=1.0, phi=0.3)))
    assert err.value.kernel_dim == 2


def test_undriven_decays_to_ground():
    rho = steady_state_dm(build_liouvillian(SystemParams(g=0.7, gamma=0.5, theta=1.0)))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_steady_state_matches_closed_form():
    rho = steady_state_dm(build_liouvillian(coherent_pair(1.0, 1.0)))
    ref = cf.coherent_populations(1.0, 1.0, 1.0).as_array()
    np.testing.assert_allclose(np.diag(rho).real, ref, atol=1e-10)


@pytest.mark.parametrize("g", [100.0, 1000.0])
def test_steady_state_at_strong_coherent_coupling_weak_drive(g):
    # n1 ~ (omega / g)**2 lies far below eps * ||L||, so the kernel solve
    # must resolve it relative to its own size, as the moment solve does.
    p = coherent_pair(g, 0.01)
    rho = steady_state_dm(build_liouvillian(p))
    st = steady_state(build_moment_system(p))
    assert np.trace(N1 @ rho).real == pytest.approx(st.n1, rel=1e-9)


def test_fft_delta_weight_at_strong_coherent_coupling():
    p = coherent_pair(1000.0, 0.01)
    _, delta = liouville_spectrum(build_liouvillian(p), np.linspace(-50.0, 50.0, 1001))
    assert delta == pytest.approx(decompose_spectrum(p).delta_weight, rel=1e-9)


def test_spectrum_normalization_wide_grid():
    p = unidirectional_pair(1.0, 2.0)
    lv = build_liouvillian(p)
    grid = np.linspace(-400.0, 400.0, 16001)
    values, delta = liouville_spectrum(lv, grid)
    integral = np.trapezoid(values, grid)
    assert integral + delta == pytest.approx(1.0, abs=1e-3)


def test_spectrum_matches_unidirectional_closed_form():
    p = unidirectional_pair(1.0, 2.0)
    lv = build_liouvillian(p)
    grid = np.linspace(-12.0, 12.0, 1201)
    values, delta = liouville_spectrum(lv, grid)
    ref = single_spectrum(SingleParams(gamma=1.0, omega=2.0), grid).values
    assert np.max(np.abs(values - ref)) < 1e-9 * np.max(ref)
    assert delta == pytest.approx(1.0 / 33.0, abs=1e-9)


def test_spectrum_matches_per_mode_transform():
    # A diagonalizable generator's correlator is a sum of modes
    # amp_k e^{lambda_k tau}; the one-sided transform of each decaying mode is
    # -amp_k / (lambda_k + i w), and the stationary mode is the delta weight.
    lv = build_liouvillian(coherent_pair(1.0, 1.5))
    grid = np.linspace(-8.0, 8.0, 801)
    values, delta = liouville_spectrum(lv, grid)
    rho = steady_state_dm(lv)
    n1 = np.trace(N1 @ rho).real
    vals, vecs = np.linalg.eig(lv.matrix)
    amp = (vectorize(SIGMA1.T) @ vecs) * np.linalg.solve(vecs, vectorize(rho @ SIGMA1.conj().T))
    decaying = vals.real < -1e-9
    modes = -(amp[decaying] / (vals[decaying] + 1j * grid[:, None])).sum(axis=1).real
    modes /= np.pi * n1
    assert np.max(np.abs(values - modes)) < 1e-12 * np.max(modes)
    assert delta == pytest.approx(abs(np.trace(SIGMA1 @ rho)) ** 2 / n1, rel=1e-12)


def test_spectrum_quintuplet_peak_positions():
    # Strong coherent coupling and drive: five maxima near the dressed
    # transition frequencies.
    from mollowpair.hamiltonian import quintuplet_frequencies

    p = coherent_pair(1.0, 5.0)
    lv = build_liouvillian(p)
    grid = np.linspace(-16.0, 16.0, 3201)
    values, _ = liouville_spectrum(lv, grid)
    idx = local_maxima(values)
    assert len(idx) == 5
    predicted = quintuplet_frequencies(1.0, 5.0)
    for pos, ref in zip(np.sort(grid[idx]), predicted):
        if ref == 0.0:
            assert abs(pos) < 0.05
        else:
            assert abs(pos - ref) / abs(ref) < 0.05


def test_spectrum_is_grid_independent():
    # Each frequency is its own solve, so a coarse grid reads the values of a
    # fine one at the frequencies they share.
    lv = build_liouvillian(coherent_pair(1.0, 1.0))
    fine_grid = np.linspace(-10.0, 10.0, 2001)
    fine, d1 = liouville_spectrum(lv, fine_grid)
    coarse, d2 = liouville_spectrum(lv, fine_grid[::100])
    np.testing.assert_array_equal(coarse, fine[::100])
    assert d1 == d2


@pytest.mark.parametrize("emitter", [0, 3])
@pytest.mark.parametrize("oracle", [
    lambda lv, e: liouville_spectrum(lv, np.linspace(-5.0, 5.0, 11), emitter=e),
], ids=["liouville_spectrum"])
def test_oracle_rejects_unknown_emitter(oracle, emitter):
    lv = build_liouvillian(asymmetric_pair(0.8, 0.9, 1.1, 1.2))
    with pytest.raises(ParameterError, match=f"emitter must be 1 or 2, got {emitter}"):
        oracle(lv, emitter)


def test_spectrum_undefined_without_drive():
    # Decided before the steady state, which is not unique at g = 0, gamma = gamma0.
    for p in (SystemParams(g=1.0), SystemParams(g=0.0, gamma=1.0)):
        for emitter in (1, 2):
            with pytest.raises(UnsupportedConfigurationError, match="neither emitter is driven"):
                liouville_spectrum(build_liouvillian(p), np.linspace(-5.0, 5.0, 801), emitter)


def test_oracle_positivity_and_coherence_consistency(rng):
    for _ in range(25):
        p = random_params(rng, with_detuning=True, with_second_drive=True)
        rho = steady_state_dm(build_liouvillian(p))
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        st = steady_state(build_moment_system(p))
        assert np.trace(SIGMA1 @ rho) == pytest.approx(st.s1, abs=1e-9)
        assert np.trace(SIGMA2 @ rho) == pytest.approx(st.s2, abs=1e-9)
