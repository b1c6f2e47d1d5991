"""Parameter validation, regime classification and the generalized couplings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mollowpair.errors import ParameterError
from mollowpair.params import (
    Regime,
    SystemParams,
    asymmetric_pair,
    classify_regime,
    coherent_pair,
    dissipative_pair,
    format_config,
    generalized_couplings,
    parse_config,
    unidirectional_pair,
    wrap_signed,
)


def test_gamma0_must_be_positive():
    with pytest.raises(ParameterError, match="gamma0"):
        SystemParams(gamma0=0.0)


def test_gamma_bounded_by_gamma0():
    with pytest.raises(ParameterError, match="gamma0"):
        SystemParams(gamma=1.5, gamma0=1.0)


def test_negative_magnitudes_rejected():
    with pytest.raises(ParameterError, match="g must"):
        SystemParams(g=-0.1)
    with pytest.raises(ParameterError, match="omega1"):
        SystemParams(omega1=-1.0)


def test_phases_normalized():
    p = SystemParams(theta=-np.pi / 2, phi=5.0 * np.pi)
    assert 0.0 <= p.theta < 2.0 * np.pi
    assert 0.0 <= p.phi < 2.0 * np.pi
    assert p.theta == pytest.approx(1.5 * np.pi)
    assert p.phi == pytest.approx(np.pi)


@pytest.mark.parametrize("name", ["theta", "phi"])
@pytest.mark.parametrize("x", [-1e-17, -1e-16, -4e-16])
def test_tiny_negative_phase_wraps_to_zero(name, x):
    # x + 2 pi rounds to 2 pi itself, outside [0, 2 pi).
    assert getattr(SystemParams(**{name: x}), name) == 0.0


@pytest.mark.parametrize("name", ["theta", "phi"])
def test_negative_zero_phase_keeps_its_sign(name):
    # M's signed zeros follow the phase's sign bit (cos and sin of -0.0).
    assert math.copysign(1.0, getattr(SystemParams(**{name: -0.0}), name)) == -1.0


def test_classify_forward_unidirectional():
    # g/gamma = 1/2 with relative phase pi/2 is the one-way point.
    p = SystemParams(g=0.5, gamma=1.0, theta=np.pi / 2, phi=0.0)
    assert classify_regime(p) is Regime.UNIDIRECTIONAL_FORWARD


def test_classify_backward_unidirectional():
    p = SystemParams(g=0.5, gamma=1.0, theta=1.5 * np.pi, phi=0.0)
    assert classify_regime(p) is Regime.UNIDIRECTIONAL_BACKWARD


def test_classify_coherent_any_phase():
    p = SystemParams(g=1.0, gamma=0.0, theta=1.2, phi=2.3)
    assert classify_regime(p) is Regime.COHERENT


def test_classify_asymmetric():
    p = SystemParams(g=0.8, gamma=0.4, theta=0.0, phi=0.0)
    assert classify_regime(p) is Regime.ASYMMETRIC


def test_classify_uncoupled_is_coherent():
    # Tie order: the fully uncoupled point counts as the coherent regime.
    assert classify_regime(SystemParams()) is Regime.COHERENT


def test_presets_classify_as_themselves():
    cases = [
        (coherent_pair(1.0, 0.5), Regime.COHERENT),
        (dissipative_pair(0.7, 0.5), Regime.DISSIPATIVE),
        (unidirectional_pair(1.0, 0.5), Regime.UNIDIRECTIONAL_FORWARD),
        (unidirectional_pair(1.0, 0.5, forward=False), Regime.UNIDIRECTIONAL_BACKWARD),
        (unidirectional_pair(0.6, 2.0, phi=1.1), Regime.UNIDIRECTIONAL_FORWARD),
        (asymmetric_pair(0.5, 1.0, 0.0, 1.0), Regime.ASYMMETRIC),
    ]
    for params, expected in cases:
        assert classify_regime(params) is expected


def test_generalized_couplings_unidirectional_point():
    p = SystemParams(g=0.5, gamma=1.0, theta=np.pi / 2, phi=0.0)
    gp, gm = generalized_couplings(p)
    assert abs(gp) < 1e-15
    assert gm == pytest.approx(1.0)


def test_generalized_couplings_pure_dissipative():
    gp, gm = generalized_couplings(SystemParams(g=0.0, gamma=1.0, phi=0.0))
    assert gp == pytest.approx(0.5)
    assert gm == pytest.approx(0.5)


def test_generalized_couplings_pure_coherent():
    gp, gm = generalized_couplings(SystemParams(g=1.0, gamma=0.0, theta=0.0))
    assert gp == pytest.approx(1j)
    assert gm == pytest.approx(-1j)


@settings(max_examples=100, deadline=None)
@given(
    g=st.floats(0.0, 5.0),
    gamma=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_coupling_sum_and_difference_identities(g, gamma, theta, phi):
    p = SystemParams(g=g, gamma=gamma, theta=theta, phi=phi)
    gp, gm = generalized_couplings(p)
    assert gp + gm == pytest.approx(gamma * np.exp(1j * p.phi), abs=1e-14)
    assert gp - gm == pytest.approx(2j * g * np.exp(1j * p.theta), abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-50.0, 50.0))
def test_wrap_signed_range(x):
    w = wrap_signed(x)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    g=st.floats(0.05, 2.0),
    gamma=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    shift=st.floats(-10.0, 10.0),
    omega=st.floats(0.1, 3.0),
)
def test_gauge_invariance_of_observables(g, gamma, theta, phi, shift, omega):
    # Only theta - phi is physical: shifting both phases together leaves
    # populations, the cross-correlator and the emitter-1 spectrum unchanged.
    from mollowpair.moments import build_moment_system, g2_cross, populations, steady_state
    from mollowpair.spectrum import decompose_spectrum, evaluate_spectrum

    grid = np.linspace(-6.0, 6.0, 121)
    base = SystemParams(g=g, gamma=gamma, theta=theta, phi=phi, omega1=omega)
    shifted = SystemParams(g=g, gamma=gamma, theta=theta + shift, phi=phi + shift,
                           omega1=omega)
    out = []
    for p in (base, shifted):
        st_ = steady_state(build_moment_system(p))
        spec = evaluate_spectrum(decompose_spectrum(p), grid)
        out.append((populations(st_).as_array(), g2_cross(st_), spec))
    np.testing.assert_allclose(out[0][0], out[1][0], rtol=1e-10, atol=1e-13)
    assert out[0][1] == pytest.approx(out[1][1], rel=1e-10)
    np.testing.assert_allclose(out[0][2], out[1][2], rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(out[0][2])))


def test_config_roundtrip():
    p = SystemParams(delta=0.25, g=0.5, theta=1.0, gamma=0.75, phi=2.0,
                     gamma0=2.0, omega1=3.0, omega2=0.125)
    assert parse_config(format_config(p)) == p


def test_config_parsing_forms():
    text = """
    # drive settings
    omega1 = 2.5
    g: 1.0
    gamma = 0.5   # inline comment
    """
    p = parse_config(text)
    assert (p.omega1, p.g, p.gamma) == (2.5, 1.0, 0.5)


def test_config_rejects_unknown_key():
    with pytest.raises(ParameterError, match="unknown key"):
        parse_config("coupling = 1.0")


def test_config_rejects_duplicate_and_garbage():
    with pytest.raises(ParameterError, match="duplicate"):
        parse_config("g = 1\ng = 2")
    with pytest.raises(ParameterError, match="not a number"):
        parse_config("g = strong")
    with pytest.raises(ParameterError, match="line 1: expected 'key = value', got 'g 1.0'"):
        parse_config("g 1.0")
