"""Exact steady-state populations, cross-correlators and limits per regime.

These are the analytic ground truths for the three pure coupling regimes at
resonance with only emitter 1 driven.  They serve both as fast paths for
sweeps and as oracles for the numerical machinery; the formulas are written
out term by term rather than algebraically simplified, so each piece stays
auditable.  One table of the three covered regimes serves covers(p, regime),
regime_populations and regime_g2.

Every g2 is nX / (n1 n2) of its regime's populations: the dissipative and one-way ones of
the populations themselves (the weak-drive limit where rho11 underflows), the coherent one
with omega**2 and g**2 divided out, so no term cancels and omega = 0 gives its weak limit.

Every form is homogeneous of degree 0 in its rates: _at_scaled_rates runs it at
them divided by rate_scale's power of two, which is exact, or at strong drive
returns its limit.
"""

from __future__ import annotations

import contextlib
import functools
import math

from .errors import ParameterError, UnsupportedConfigurationError
from .moments import G2_NORM_FLOOR, Populations
from .params import Regime, SystemParams


#: A drive this many times every other rate puts each closed form within rounding of its
#: strong-drive limit: the corrections are of relative order (rate / omega)**2.
STRONG_DRIVE_RATIO = 1e10

#: Rates enter every closed form as given while every nonzero |rate| lies within
#: 2**(+-_EXPONENT): there the eighth powers in the pair's forms stay normal floats.
_EXPONENT = 100
_LOW, _HIGH = 2.0**-_EXPONENT, 2.0**_EXPONENT


def _as_given(rates: tuple) -> bool:
    for r in rates:
        if r and not _LOW <= abs(r) <= _HIGH:
            return False
    return True


def rate_scale(*rates: float) -> float:
    """1 where every nonzero |rate| lies in [2**-100, 2**100], else the power of two (at
    least the smallest float) that takes the largest just under 2**100."""
    if _as_given(rates):
        return 1.0
    return math.ldexp(1.0, max(math.frexp(max(map(abs, rates)))[1] - _EXPONENT, -1074))


def _at_scaled_rates(limit):
    """Run a pair form f(coupling, omega, gamma0) at its rates divided by rate_scale.  Out of
    range, a drive STRONG_DRIVE_RATIO times both others gives limit(coupling, gamma0) (g2's is
    1) at those two divided by their rate_scale, and a result still beyond the floats (a
    coherent g2 above 1e308, or g / gamma0 above about 1e250) raises ParameterError."""
    def wrap(form):
        @functools.wraps(form)
        def scaled(coupling: float, omega: float, gamma0: float):
            rates = (coupling, omega, gamma0)
            if _as_given(rates):
                return form(*rates)
            if omega > STRONG_DRIVE_RATIO * max(coupling, gamma0):
                t = rate_scale(coupling, gamma0)
                return limit(coupling / t, gamma0 / t)
            s = rate_scale(*rates)
            with contextlib.suppress(ZeroDivisionError):
                value = form(coupling / s, omega / s, gamma0 / s)
                if math.isfinite(value if isinstance(value, float) else value.total):
                    return value
            raise ParameterError(f"{form.__name__}{rates}: the ratios of these rates take the "
                                 "closed form beyond the float range")
        return scaled
    return wrap


def _g2_from_populations(populations, weak_limit):
    """Make a stub its regime's g2: rho11 / (rho10 + rho11) / (rho01 + rho11) of the populations
    form's body, or weak_limit where rho11 underflows.  g2 is even in the coupling: below 2**-60
    gamma0 it is its value there to rounding, whose rho11 underflows only at negligible drive."""
    body = populations.__wrapped__

    def derive(stub):
        @_at_scaled_rates(lambda coupling, gamma0: 1.0)
        @functools.wraps(stub)
        def g2(coupling: float, omega: float, gamma0: float) -> float:
            if 0.0 <= coupling < 2.0**-60 * gamma0:
                coupling = 2.0**-60 * gamma0
            pops = body(coupling, omega, gamma0)
            if pops.rho11 < G2_NORM_FLOOR:
                return weak_limit(coupling, gamma0)
            return pops.rho11 / (pops.rho10 + pops.rho11) / (pops.rho01 + pops.rho11)
        return g2
    return derive


# ---------------------------------------------------------------------------
# Coherent coupling (gamma = 0)
# ---------------------------------------------------------------------------

def coherent_strong_drive_populations(g: float, gamma0: float) -> Populations:
    """Asymptotic populations for omega >> gamma0 with coherent coupling g.

    The same function serves one-way coupling gamma at g = gamma, and dissipative
    coupling gamma at g = gamma / 2.
    """
    g2, c2 = g * g, gamma0 * gamma0
    lead = 0.25 * (g2 + 2 * c2) / (g2 + c2)
    tail = 0.25 * g2 / (g2 + c2)
    return Populations(lead, lead, tail, tail)


def _coherent_den(g: float, omega: float, gamma0: float) -> float:
    """The common denominator of the coherent populations."""
    g2, w2, c2 = g * g, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    return (
        (4 * g2 + 9 * c2) * (4 * g2 * gamma0 + gamma0 * c2) ** 2
        + 4 * c2 * w2 * (16 * g2 * g2 + 48 * g2 * c2 + 27 * c2 * c2)
        + 64 * w4 * (4 * g2 * g2 + 11 * g2 * c2 + 5 * c2 * c2)
        + 256 * w6 * (g2 + c2)
    )


@_at_scaled_rates(coherent_strong_drive_populations)
def coherent_populations(g: float, omega: float, gamma0: float) -> Populations:
    """Steady populations with purely coherent coupling."""
    g2, w2, c2 = g * g, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    den = _coherent_den(g, omega, gamma0)
    n00 = (
        (4 * g2 + 9 * c2) * (8 * c2 * c2 * w2 + (4 * g2 * gamma0 + gamma0 * c2) ** 2)
        + 16 * w4 * (4 * g2 * g2 + 13 * g2 * c2 + 11 * c2 * c2)
        + 64 * w6 * (g2 + 2 * c2)
    )
    n10 = (
        (4 * g2 + 9 * c2) * (4 * c2 * c2 * w2 + 16 * w4 * (g2 + c2))
        + 64 * w6 * (g2 + 2 * c2)
    )
    n01 = 16 * g2 * w2 * (9 * c2 * c2 + 9 * c2 * w2 + 4 * w4 + 4 * g2 * (c2 + w2))
    n11 = 16 * g2 * w4 * (4 * g2 + 9 * c2 + 4 * w2)
    return Populations(n00 / den, n10 / den, n01 / den, n11 / den)


@_at_scaled_rates(lambda coupling, gamma0: 1.0)
def coherent_g2(g: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator with purely coherent coupling: nX / (n1 n2) of
    coherent_populations, whose n10 = w2 x10, n01 = g2 w2 x01 and n11 = g2 w4 y."""
    g2, w2, c2 = g * g, omega * omega, gamma0 * gamma0
    y = 16 * (4 * g2 + 9 * c2 + 4 * w2)
    x10 = (4 * g2 + 9 * c2) * (4 * c2 * c2 + 16 * w2 * (g2 + c2)) + 64 * w2 * w2 * (g2 + 2 * c2)
    x01 = 16 * (9 * c2 * c2 + 9 * c2 * w2 + 4 * w2 * w2 + 4 * g2 * (c2 + w2))
    return y / (x10 + g2 * w2 * y) * (_coherent_den(g, omega, gamma0) / (x01 + w2 * y))


def coherent_g2_weak_limit(g: float, gamma0: float) -> float:
    """Weak-drive limit (4*g**2 + gamma0**2)**2 / (4*gamma0**4)."""
    return (4 * g * g + gamma0 * gamma0) ** 2 / (4 * gamma0**4)


# ---------------------------------------------------------------------------
# Dissipative coupling (g = 0)
# ---------------------------------------------------------------------------

def dissipative_strong_drive_populations(gamma: float, gamma0: float) -> Populations:
    """Asymptotic populations for omega >> gamma0 with dissipative coupling."""
    return coherent_strong_drive_populations(0.5 * gamma, gamma0)


@_at_scaled_rates(dissipative_strong_drive_populations)
def dissipative_populations(gamma: float, omega: float, gamma0: float) -> Populations:
    """Steady populations with purely dissipative coupling.

    The point gamma = gamma0, omega = 0 is a removable 0/0: the trapping
    values are the omega -> 0+ limit, while at exactly zero drive the
    decaying dynamics ends in the ground state, which is then not the unique
    stationary state.  That case returns (1, 0, 0, 0) flagged degenerate.
    """
    if gamma < 0.0 or gamma > gamma0:
        raise ParameterError(f"dissipative regime needs 0 <= gamma <= gamma0, got {gamma}")
    if omega == 0.0:
        return Populations(1.0, 0.0, 0.0, 0.0, degenerate=(gamma == gamma0))
    if gamma == gamma0 and omega < _LOW * _LOW * gamma0:
        # Every term carries omega**2 here: the omega -> 0+ limit, to rounding.
        ratio = 0.5 * omega / gamma0
        return Populations(0.5, 0.25, 0.25, ratio * ratio)
    y2, w2, c2 = gamma * gamma, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    den = (
        (9 * c2 - y2) * (gamma0 * (gamma0 - gamma) * (gamma0 + gamma)) ** 2
        + 4 * c2 * w2 * (3 * y2 * y2 + 2 * y2 * c2 + 27 * c2 * c2)
        - 32 * w4 * (y2 - 10 * c2) * (y2 + c2)
        + 64 * w6 * (y2 + 4 * c2)
    )
    n00 = (
        (9 * c2 - y2) * (gamma0 * (gamma0 - gamma) * (gamma0 + gamma)) ** 2
        + 8 * c2 * w2 * (2 * y2 * y2 - 3 * y2 * c2 + 9 * c2 * c2)
        + 4 * w4 * (44 * c2 * c2 + 29 * y2 * c2 - 5 * y2 * y2)
        + 16 * w6 * (8 * c2 + y2)
    )
    # gamma0**4 on the first term: required by dimensional consistency and by
    # the exact uncoupled reduction rho10 = n0 at gamma = 0.
    n10 = (
        4 * c2 * c2 * w2 * (9 * c2 - y2)
        + 4 * w4 * (36 * c2 * c2 + 25 * y2 * c2 - 3 * y2 * y2)
        + 16 * w6 * (y2 + 8 * c2)
    )
    n01 = 4 * y2 * w2 * (9 * c2 * c2 + 9 * c2 * w2 + 4 * w4 + y2 * (w2 - c2))
    n11 = 4 * y2 * w4 * (4 * w2 + 9 * c2 - y2)
    return Populations(n00 / den, n10 / den, n01 / den, n11 / den)


def dissipative_g2_weak_limit(gamma: float, gamma0: float) -> float:
    """Weak-drive limit (gamma**2 - gamma0**2)**2 / (4*gamma0**4), exact near trapping."""
    return ((gamma0 - gamma) * (gamma0 + gamma)) ** 2 / (4 * gamma0**4)


@_g2_from_populations(dissipative_populations, dissipative_g2_weak_limit)
def dissipative_g2(gamma: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator with purely dissipative coupling."""


# ---------------------------------------------------------------------------
# Unidirectional coupling (g = gamma/2, relative phase pi/2, drive on 1)
# ---------------------------------------------------------------------------

unidirectional_strong_drive_populations = coherent_strong_drive_populations


@_at_scaled_rates(unidirectional_strong_drive_populations)
def unidirectional_populations(gamma: float, omega: float, gamma0: float) -> Populations:
    """Steady populations under forward one-way coupling.

    Satisfies rho10 + rho11 = n0 exactly: emitter 1 is blind to emitter 2.
    """
    y2, w2, c2 = gamma * gamma, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    front = c2 + 8 * w2
    den = 9 * c2 * c2 * c2 + 4 * c2 * w2 * (28 * y2 + 9 * c2) + 32 * w4 * (y2 + c2)
    n00 = (
        9 * c2**4
        + 8 * c2 * c2 * w2 * (9 * c2 - 4 * y2)
        + 16 * w4 * (11 * c2 * c2 + 21 * y2 * c2 - 4 * y2 * y2)
        + 64 * w6 * (2 * c2 + y2)
    )
    rho00 = n00 / (front * den)
    rho10 = (4 * w2 / front) * (1.0 - 4 * y2 * w2 * (9 * c2 + 4 * w2) / den)
    rho01 = (16 * y2 * w2 / front) * (9 * c2 * c2 + 9 * c2 * w2 + 4 * w2 * (y2 + w2)) / den
    rho11 = (16 * y2 * w4 / front) * (9 * c2 + 4 * w2) / den
    return Populations(rho00, rho10, rho01, rho11)


@_g2_from_populations(unidirectional_populations, lambda gamma, gamma0: 0.25)
def unidirectional_g2(gamma: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator under forward one-way coupling; 1/4 at weak drive."""


# ---------------------------------------------------------------------------
# Regime dispatch used by the sweep fast path
# ---------------------------------------------------------------------------

#: Per covered regime: populations and correlator functions, the coupling they take.
_REGIMES = {
    Regime.COHERENT: (coherent_populations, coherent_g2, "g"),
    Regime.DISSIPATIVE: (dissipative_populations, dissipative_g2, "gamma"),
    Regime.UNIDIRECTIONAL_FORWARD: (unidirectional_populations, unidirectional_g2, "gamma"),
}
#: The covered regimes; a tuple's membership test compares by identity and hashes no Enum.
_COVERED = tuple(_REGIMES)


def covers(p: SystemParams, regime: Regime) -> bool:
    """Whether closed forms cover p: a pure regime at resonance, emitter 1 alone driven."""
    return regime in _COVERED and p.delta == 0.0 and p.omega2 == 0.0


def _dispatch(p: SystemParams, regime: Regime, column: int, noun: str):
    if not covers(p, regime):
        raise UnsupportedConfigurationError(
            f"no closed-form {noun} for {regime} at delta={p.delta}, omega2={p.omega2}: they "
            "cover the coherent, dissipative and forward one-way regimes at resonance with "
            "emitter 1 alone driven (delta = 0, omega2 = 0); use the moment solver")
    entry = _REGIMES[regime]
    return entry[column](getattr(p, entry[2]), p.omega1, p.gamma0)


def regime_populations(p: SystemParams, regime: Regime) -> Populations:
    """Closed-form populations for a classified pure regime."""
    return _dispatch(p, regime, 0, "populations")


def regime_g2(p: SystemParams, regime: Regime) -> float:
    """Closed-form cross-correlator for a classified pure regime."""
    return _dispatch(p, regime, 1, "correlator")


__all__ = [
    "coherent_populations", "coherent_strong_drive_populations",
    "coherent_g2", "coherent_g2_weak_limit",
    "dissipative_populations", "dissipative_strong_drive_populations",
    "dissipative_g2", "dissipative_g2_weak_limit",
    "unidirectional_populations", "unidirectional_strong_drive_populations",
    "unidirectional_g2",
    "covers", "regime_populations", "regime_g2", "rate_scale",
]
