"""Analytic populations and correlators per regime, their limits and identities."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from mollowpair import closed_forms as cf
from mollowpair.errors import ParameterError, UnsupportedConfigurationError
from mollowpair.moments import build_moment_system, populations, steady_state
from mollowpair.params import (
    Regime,
    SystemParams,
    coherent_pair,
    dissipative_pair,
    unidirectional_pair,
)
from mollowpair.single_emitter import single_population


# --- coherent ---------------------------------------------------------------

def test_coherent_undriven_is_ground():
    np.testing.assert_allclose(
        cf.coherent_populations(2.0, 0.0, 1.0).as_array(), [1, 0, 0, 0])


def test_coherent_strong_drive_limit():
    got = cf.coherent_populations(1.0, 1e3, 1.0).as_array()
    np.testing.assert_allclose(got, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-5)
    limit = cf.coherent_strong_drive_populations(1.0, 1.0).as_array()
    np.testing.assert_allclose(limit, [3 / 8, 3 / 8, 1 / 8, 1 / 8])


def test_coherent_g2_limits():
    assert cf.coherent_g2_weak_limit(0.5, 1.0) == pytest.approx(1.0)
    assert cf.coherent_g2_weak_limit(0.0, 1.0) == pytest.approx(0.25)
    assert cf.coherent_g2_weak_limit(10.0, 1.0) == pytest.approx(401.0**2 / 4.0)
    # strong coupling follows the quartic scaling 4 (g/gamma0)**4
    assert cf.coherent_g2_weak_limit(10.0, 1.0) == pytest.approx(4e4, rel=1e-2)
    assert cf.coherent_g2(1.0, 1e-5, 1.0) == pytest.approx(25 / 4, abs=1e-6)
    assert cf.coherent_g2(0.7, 1e3, 1.0) == pytest.approx(1.0, abs=1e-5)


# --- dissipative ------------------------------------------------------------

def test_trapping_limit():
    got = cf.dissipative_populations(1.0, 1e-4, 1.0).as_array()
    np.testing.assert_allclose(got, [0.5, 0.25, 0.25, 0.0], atol=1e-3)


def test_dissipative_strong_drive_limit():
    got = cf.dissipative_populations(1.0, 1e3, 1.0).as_array()
    np.testing.assert_allclose(got, [9 / 20, 9 / 20, 1 / 20, 1 / 20], atol=1e-5)
    for gamma in (0.3, 0.7, 1.0):
        limit = cf.dissipative_strong_drive_populations(gamma, 1.0).as_array()
        finite = cf.dissipative_populations(gamma, 1e3, 1.0).as_array()
        np.testing.assert_allclose(limit, finite, atol=1e-6)


def test_dissipative_uncoupled_reduces_to_solitary():
    for omega in (0.1, 1.0, 10.0):
        pops = cf.dissipative_populations(0.0, omega, 1.0)
        assert pops.rho01 == 0.0
        assert pops.rho11 == 0.0
        assert pops.rho10 == pytest.approx(single_population(omega, 1.0), rel=1e-14)


def test_dissipative_degenerate_point_flagged():
    pops = cf.dissipative_populations(1.0, 0.0, 1.0)
    assert pops.degenerate
    np.testing.assert_allclose(pops.as_array(), [1, 0, 0, 0])
    assert not cf.dissipative_populations(0.5, 0.0, 1.0).degenerate


def test_dissipative_rejects_gamma_above_gamma0():
    with pytest.raises(ParameterError, match=r"needs 0 <= gamma <= gamma0, got 1\.5$"):
        cf.dissipative_populations(1.5, 1.0, 1.0)


def test_dissipative_g2_limits():
    assert cf.dissipative_g2_weak_limit(1.0, 1.0) == 0.0
    assert cf.dissipative_g2_weak_limit(0.0, 1.0) == 0.25
    assert cf.dissipative_g2(1.0, 1e-5, 1.0) == pytest.approx(0.0, abs=1e-6)
    assert cf.dissipative_g2(0.5, 1e2, 1.0) == pytest.approx(1.0, abs=1e-3)


# --- unidirectional ---------------------------------------------------------

def test_unidirectional_population_identity_exact():
    for omega in (0.3, 1.0, 4.0):
        pops = cf.unidirectional_populations(1.0, omega, 1.0)
        n0 = single_population(omega, 1.0)
        assert pops.rho10 + pops.rho11 == pytest.approx(n0, abs=1e-15)
    pops = cf.unidirectional_populations(1.0, 1.0, 1.0)
    assert pops.rho10 + pops.rho11 == pytest.approx(4 / 9, abs=1e-15)


def test_unidirectional_strong_drive_limit():
    got = cf.unidirectional_populations(1.0, 1e3, 1.0).as_array()
    np.testing.assert_allclose(got, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-5)
    for gamma in (0.3, 0.7, 1.0):
        limit = cf.unidirectional_strong_drive_populations(gamma, 1.0).as_array()
        finite = cf.unidirectional_populations(gamma, 1e3, 1.0).as_array()
        np.testing.assert_allclose(limit, finite, atol=1e-6)


def test_unidirectional_undriven_is_ground():
    np.testing.assert_allclose(
        cf.unidirectional_populations(0.8, 0.0, 1.0).as_array(), [1, 0, 0, 0])


def test_unidirectional_g2_values():
    assert cf.unidirectional_g2(1.0, 1.0, 1.0) == pytest.approx(117 / 156)
    assert cf.unidirectional_g2(0.7, 1e-5, 1.0) == pytest.approx(0.25, abs=1e-6)
    assert cf.unidirectional_g2(0.7, 1e2, 1.0) == pytest.approx(1.0, abs=1e-3)


# --- strong drive past the float range -------------------------------------

#: Per regime: populations, correlator, strong-drive limit, and the coupling of the listed sweeps.
_STRONG_DRIVE = {
    "coherent": (cf.coherent_populations, cf.coherent_g2,
                 cf.coherent_strong_drive_populations, 1.0),
    "dissipative": (cf.dissipative_populations, cf.dissipative_g2,
                    cf.dissipative_strong_drive_populations, 0.5),
    "unidirectional": (cf.unidirectional_populations, cf.unidirectional_g2,
                       cf.unidirectional_strong_drive_populations, 1.0),
}


@pytest.mark.parametrize("omega", [1e52, 1e80, 1e160, 1e300])
@pytest.mark.parametrize("regime", list(_STRONG_DRIVE))
def test_strong_drive_overflow_returns_the_limits(regime, omega):
    # omega**6 and omega**4 overflow from about 1e51 and 1e77; there the exact
    # values lie within a relative gamma0**2 / omega**2 < 1e-100 of the limits.
    pops_of, g2_of, limit_of, coupling = _STRONG_DRIVE[regime]
    pops = pops_of(coupling, omega, 1.0)
    assert np.isfinite(pops.as_array()).all()
    assert pops.total == pytest.approx(1.0, abs=1e-15)
    assert pops == limit_of(coupling, 1.0)
    assert g2_of(coupling, omega, 1.0) == 1.0


@pytest.mark.parametrize("regime", list(_STRONG_DRIVE))
def test_populations_stay_normalized_where_the_polynomials_overflow(regime):
    # Between 8e50 and 1e51 a denominator overflows while its numerators do not,
    # which gave finite zeros rather than NaN.
    pops_of, _, limit_of, coupling = _STRONG_DRIVE[regime]
    limit = limit_of(coupling, 1.0).as_array()
    for omega in np.geomspace(1e50, 1e52, 81):
        pops = pops_of(coupling, float(omega), 1.0)
        assert pops.total == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(pops.as_array(), limit, rtol=1e-15)


def test_strong_drive_limit_needs_the_drive_far_above_every_rate():
    # g = 1e41 at omega = 1.01e51 overflows the polynomials but is 1e10 below the
    # drive, so the limit (here 1/4 each, as g >> gamma0) is the exact value.
    pops = cf.coherent_populations(1e41, 1.01e51, 1.0)
    assert pops.as_array().tolist() == [0.25] * 4
    # A coupling past 1e154 squares to inf; the limit takes it scaled.
    assert cf.coherent_populations(1e200, 1e300, 1.0).as_array().tolist() == [0.25] * 4


# --- rates out of [2**-100, 2**100] ------------------------------------------

def _exact_populations(regime: str, coupling: float, omega: float, gamma0: float) -> list:
    """The regime's populations in rational arithmetic, at the rates taken exactly."""
    c, w, g0 = Fraction(coupling), Fraction(omega), Fraction(gamma0)
    pops = _STRONG_DRIVE[regime][0].__wrapped__(c, w, g0)
    rho = [pops.rho00, pops.rho10, pops.rho01, pops.rho11]
    if regime == "unidirectional":  # its form writes rho10 with a float 1.0; rho10 = n0 - rho11
        rho[1] = 4 * w * w / (8 * w * w + g0 * g0) - rho[3]
    return rho


@pytest.mark.parametrize("regime, rates", [
    ("coherent", (1e100, 1.0, 1.0)), ("coherent", (1e45, 1e51, 1.0)),
    ("coherent", (1e-170, 1e-170, 1e-170)), ("dissipative", (1e-170, 1e-170, 1e-170)),
    ("unidirectional", (1e-170, 1e-170, 1e-170)), ("unidirectional", (1e200, 1e199, 1e200)),
    ("dissipative", (3e-200, 1e-200, 1e-199)), ("coherent", (1.0, 1e-120, 1e-110)),
    ("dissipative", (1e-200, 1.0, 1.0)), ("unidirectional", (1e-200, 1.0, 1.0)),
    ("dissipative", (0.5, 1e-200, 1.0)), ("unidirectional", (0.5, 1e-200, 1.0)),
    ("dissipative", (0.9999999999, 1e-100, 1.0))],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{r:g}" for r in v))
def test_forms_at_rates_out_of_range_match_exact_arithmetic(regime, rates):
    # A huge coupling overflowed, a drive at 1e51 gave NaN and tiny rates divided by zero;
    # divided by a power of two, every form keeps its digits.  g2 is rho11 / (n1 n2).
    pops_of, g2_of = _STRONG_DRIVE[regime][:2]
    exact = _exact_populations(regime, *rates)
    pops = pops_of(*rates)
    np.testing.assert_allclose(pops.as_array(), [float(v) for v in exact], rtol=0.0, atol=1e-15)
    assert pops.total == pytest.approx(1.0, abs=1e-15)
    r00, r10, r01, r11 = exact
    assert g2_of(*rates) == pytest.approx(float(r11 / ((r10 + r11) * (r01 + r11))),
                                          rel=1e-14, abs=0.0)


def test_dissipative_forms_keep_their_digits_near_trapping():
    # gamma0**2 - gamma**2 cancelled in the populations (5.0e-13 at the third pinned point),
    # and 1 + term2 + term3 in g2 (8.0e-4 at the first); both now keep every digit.
    rng = np.random.default_rng(2033)
    pinned = [(0.9999999999, 1e-7, 1.0), (0.999999, 1e-5, 1.0), (0.9999, 1e-6, 1.0),
              (59.491591294269455, 0.06088985002813123, 59.49159928830835)]
    drawn = [(c * (1 - 10 ** rng.uniform(-10, 0)), c * 10 ** rng.uniform(-7, 1), c)
             for c in 10 ** rng.uniform(-3, 3, 200)]
    for rates in pinned + drawn:
        r00, r10, r01, r11 = exact = _exact_populations("dissipative", *rates)
        for got, want in zip(cf.dissipative_populations(*rates).as_array(), exact):
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0), rates
        assert cf.dissipative_g2(*rates) == pytest.approx(
            float(r11 / ((r10 + r11) * (r01 + r11))), rel=1e-14, abs=0.0), rates


def test_coherent_forms_at_a_huge_coupling():
    # g = 1e100 with omega = gamma0 = 1: rho10 = 1e-200 and g2 = g**2 / 6 to rounding.
    assert cf.coherent_populations(1e100, 1.0, 1.0).rho10 == pytest.approx(1e-200, rel=1e-15)
    assert cf.coherent_g2(1e100, 1.0, 1.0) == pytest.approx(1e200 / 6, rel=1e-15)


@pytest.mark.parametrize("gamma0", [1.0, 1e100, 1e-50])
def test_trapping_below_every_drive_in_range_is_its_weak_drive_limit(gamma0):
    # At gamma = gamma0 every term carries omega**2; at omega / gamma0 = 1e-250 its square
    # underflows, and the omega -> 0+ limit is the value to rounding.
    pops = cf.dissipative_populations(gamma0, 1e-250 * gamma0, gamma0)
    assert pops.as_array().tolist() == [0.5, 0.25, 0.25, 0.0] and not pops.degenerate
    # At the smallest ratio that rates in range reach, the form still runs.
    pops = cf.dissipative_populations(gamma0, 2.0**-200 * gamma0, gamma0)
    np.testing.assert_allclose(pops.as_array(), [0.5, 0.25, 0.25, 2.0**-402], rtol=1e-15)


def test_rate_scale_is_one_in_range_and_a_power_of_two_outside():
    assert cf.rate_scale(0.0, 2.0**100, 2.0**-100) == 1.0
    for rates, top in [((3e200, 1.0), 3e200), ((1.0, 1e-120), 1.0), ((-1e-170, 0.0), 1e-170),
                       ((1e-320, 5e-324), 1e-320)]:
        s = cf.rate_scale(*rates)
        assert math.frexp(s)[0] == 0.5
        assert top / s < 2.0**100 and (top / s >= 2.0**99 or s == 5e-324)


def _draws(rng, regime: str, spread: float, count: int = 300):
    """Rates at a magnitude drawn over the float range, each within 10**+-spread of it."""
    for _ in range(count):
        base = rng.uniform(-300.0 + spread, 300.0 - spread)
        exponents = base + rng.uniform(-spread, spread, 3)
        coupling, omega, gamma0 = (float(v) for v in 10.0**exponents)
        if regime != "coherent":  # one-way and dissipative coupling stay at or below gamma0
            coupling = min(coupling, gamma0) * float(rng.choice([1.0, rng.uniform()]))
        yield coupling, omega, gamma0


@pytest.mark.parametrize("regime", list(_STRONG_DRIVE))
def test_forms_keep_their_digits_at_any_magnitude(regime):
    # Rate ratios up to 1e100, at magnitudes from 1e-250 to 1e250: the populations stay
    # normalized to rounding, and g2 is finite.
    pops_of, g2_of = _STRONG_DRIVE[regime][:2]
    for rates in _draws(np.random.default_rng(2031), regime, 50.0):
        pops = pops_of(*rates)
        assert np.all(pops.as_array() >= 0.0)
        assert pops.total == pytest.approx(1.0, abs=1e-15)
        assert math.isfinite(g2_of(*rates))


@pytest.mark.parametrize("spread", [3, 12, 50, 100])
def test_coherent_g2_matches_exact_arithmetic(spread):
    # 1 + term2 - term3 cancelled where gamma0 is small against g or omega: it was off by up
    # to 3.3e-13 with rates within 10**+-3 of each other, 1.0 within 10**+-12, 4e41 within
    # 10**+-50 and 6e82 within 10**+-100, and gave 0.0 at the pinned point.
    pinned = [(24670013227.75413, 105.45865234439898, 1.2100776521409249e-12)]
    for rates in pinned + list(_draws(np.random.default_rng(spread), "coherent", spread, 100)):
        r00, r10, r01, r11 = _exact_populations("coherent", *rates)
        want = r11 / ((r10 + r11) * (r01 + r11))
        if want > Fraction(sys.float_info.max):
            with pytest.raises(ParameterError, match="beyond the float range"):
                cf.coherent_g2(*rates)
        else:
            assert cf.coherent_g2(*rates) == pytest.approx(float(want), rel=1e-14, abs=0.0), rates


@pytest.mark.parametrize("regime", list(_STRONG_DRIVE))
def test_no_form_returns_nan_over_the_float_range(regime):
    # Any ratio: each form is finite, or raises ParameterError where a coherent value or the
    # coherent form leaves the floats (g2 above 1e308, g / gamma0 above about 1e250).
    pops_of, g2_of = _STRONG_DRIVE[regime][:2]
    for rates in _draws(np.random.default_rng(2032), regime, 300.0):
        for form in (pops_of, g2_of):
            try:
                value = form(*rates)
            except ParameterError as exc:
                assert regime == "coherent" and "beyond the float range" in str(exc)
                continue
            assert np.all(np.isfinite(value.as_array() if form is pops_of else value))


@pytest.mark.parametrize("call", [lambda: cf.coherent_g2(1e100, 1e-100, 1.0),
                                  lambda: cf.coherent_populations(1e201, 1e37, 1e-276)],
                         ids=["g2-above-1e308", "coupling-ratio-1e477"])
def test_results_beyond_the_float_range_raise_parameter_error(call):
    with pytest.raises(ParameterError, match=r"the ratios of these rates take the closed form "
                                             r"beyond the float range$"):
        call()


# --- cross-regime consistency ------------------------------------------------

def test_populations_sum_to_one(rng):
    for _ in range(60):
        omega = 10 ** rng.uniform(-2, 2)
        g = 10 ** rng.uniform(-2, 2)
        gam = rng.uniform(0, 1)
        for pops in (cf.coherent_populations(g, omega, 1.0),
                     cf.dissipative_populations(gam, omega, 1.0),
                     cf.unidirectional_populations(gam, omega, 1.0)):
            assert pops.total == pytest.approx(1.0, abs=1e-12)
            assert np.all(pops.as_array() >= -1e-15)


def test_closed_forms_match_moment_solver(rng):
    for _ in range(100):
        omega = 10 ** rng.uniform(-2, 2)
        gam = 10 ** rng.uniform(-2, 0)
        g = 10 ** rng.uniform(-2, 2)
        cases = [
            (coherent_pair(g, omega), cf.coherent_populations(g, omega, 1.0)),
            (dissipative_pair(gam, omega), cf.dissipative_populations(gam, omega, 1.0)),
            (unidirectional_pair(gam, omega), cf.unidirectional_populations(gam, omega, 1.0)),
        ]
        for params, ref in cases:
            got = populations(steady_state(build_moment_system(params))).as_array()
            np.testing.assert_allclose(got, ref.as_array(), rtol=1e-10, atol=1e-300)


def test_regime_boundary_consistency():
    # gamma -> 0 dissipative and g -> 0 coherent both give independent emitters.
    for omega in (0.2, 1.0, 5.0):
        a = cf.dissipative_populations(0.0, omega, 1.0).as_array()
        b = cf.coherent_populations(0.0, omega, 1.0).as_array()
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_g2_monotone_washout():
    # Above 10 gamma0 the approach to 1 is monotone on a log grid.
    omegas = np.geomspace(10.0, 1e3, 40)
    for series in (
        np.array([cf.coherent_g2(1.0, w, 1.0) for w in omegas]),
        np.array([cf.dissipative_g2(1.0, w, 1.0) for w in omegas]),
    ):
        gaps = np.abs(series - 1.0)
        assert np.all(np.diff(gaps) < 0.0)


def test_dispatch_rejects_detuned_or_double_driven():
    with pytest.raises(UnsupportedConfigurationError):
        cf.regime_populations(SystemParams(delta=0.5, g=1.0, omega1=1.0), Regime.COHERENT)
    with pytest.raises(UnsupportedConfigurationError):
        cf.regime_g2(SystemParams(g=1.0, omega1=1.0, omega2=0.5), Regime.COHERENT)


def test_dispatch_matches_direct_calls():
    p = dissipative_pair(0.8, 1.3)
    assert cf.regime_g2(p, Regime.DISSIPATIVE) == cf.dissipative_g2(0.8, 1.3, 1.0)
    got = cf.regime_populations(p, Regime.DISSIPATIVE).as_array()
    np.testing.assert_allclose(got, cf.dissipative_populations(0.8, 1.3, 1.0).as_array())
