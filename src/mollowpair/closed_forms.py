"""Exact steady-state populations, cross-correlators and limits per regime.

These are the analytic ground truths for the three pure coupling regimes at
resonance with only emitter 1 driven.  They serve both as fast paths for
sweeps and as oracles for the numerical machinery; the formulas are written
out term by term rather than algebraically simplified, so each piece stays
auditable.  One table of the three covered regimes serves covers(p, regime),
regime_populations and regime_g2.

Where a form's pieces overflow (omega**6 from a drive near 1e51 gamma0) at a
drive STRONG_DRIVE_RATIO times every other rate, it returns its strong-drive
limit, which is then its value to rounding.
"""

from __future__ import annotations

import math

from .errors import ParameterError, UnsupportedConfigurationError
from .moments import Populations
from .params import Regime, SystemParams


#: A drive this many times every other rate puts each closed form within rounding of its
#: strong-drive limit: the corrections are of relative order (rate / omega)**2.
STRONG_DRIVE_RATIO = 1e10


def _strong_drive_rates(pieces, omega: float, coupling: float, gamma0: float):
    """(coupling, gamma0) for the strong-drive limit where pieces overflowed, else None.

    Only at omega above STRONG_DRIVE_RATIO times both rates.  The limits depend on
    coupling / gamma0 alone: both come divided by one power of two, which keeps the
    limits' bits and their squares in range.
    """
    if all(map(math.isfinite, pieces)) or not omega > STRONG_DRIVE_RATIO * max(coupling, gamma0):
        return None
    k = math.frexp(max(coupling, gamma0))[1]
    return math.ldexp(coupling, -k), math.ldexp(gamma0, -k)


# ---------------------------------------------------------------------------
# Coherent coupling (gamma = 0)
# ---------------------------------------------------------------------------

def coherent_populations(g: float, omega: float, gamma0: float) -> Populations:
    """Steady populations with purely coherent coupling."""
    g2, w2, c2 = g * g, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    den = (
        (4 * g2 + 9 * c2) * (4 * g2 * gamma0 + gamma0 * c2) ** 2
        + 4 * c2 * w2 * (16 * g2 * g2 + 48 * g2 * c2 + 27 * c2 * c2)
        + 64 * w4 * (4 * g2 * g2 + 11 * g2 * c2 + 5 * c2 * c2)
        + 256 * w6 * (g2 + c2)
    )
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
    limit = _strong_drive_rates((den, n00, n10, n01, n11), omega, g, gamma0)
    if limit is not None:
        return coherent_strong_drive_populations(*limit)
    return Populations(n00 / den, n10 / den, n01 / den, n11 / den)


def coherent_strong_drive_populations(g: float, gamma0: float) -> Populations:
    """Asymptotic populations for omega >> gamma0 with coherent coupling."""
    g2, c2 = g * g, gamma0 * gamma0
    lead = 0.25 * (g2 + 2 * c2) / (g2 + c2)
    tail = 0.25 * g2 / (g2 + c2)
    return Populations(lead, lead, tail, tail)


def coherent_g2(g: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator with purely coherent coupling."""
    g2, w2, c2 = g * g, omega * omega, gamma0 * gamma0
    w4 = w2 * w2
    term2 = (
        g2 * (4 * g2 + 3 * c2) * (4 * g2 + 9 * c2 + 4 * w2)
        / (
            4 * g2 * c2 * c2
            + 9 * c2 * c2 * c2
            + 4 * w2 * (8 * g2 * g2 + 22 * g2 * c2 + 9 * c2 * c2)
            + 32 * w4 * (g2 + c2)
        )
    )
    term3 = (
        (16 * g2 * g2 + 27 * c2 * c2 - 4 * c2 * w2 + 16 * g2 * (3 * c2 + w2))
        / (4 * (9 * c2 * c2 + 18 * c2 * w2 + 8 * w4 + 4 * g2 * (c2 + 2 * w2)))
    )
    value = 1.0 + term2 - term3
    return value if _strong_drive_rates((value,), omega, g, gamma0) is None else 1.0


def coherent_g2_weak_limit(g: float, gamma0: float) -> float:
    """Weak-drive limit (4*g**2 + gamma0**2)**2 / (4*gamma0**4)."""
    return (4 * g * g + gamma0 * gamma0) ** 2 / (4 * gamma0**4)


# ---------------------------------------------------------------------------
# Dissipative coupling (g = 0)
# ---------------------------------------------------------------------------

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
    y2, w2, c2 = gamma * gamma, omega * omega, gamma0 * gamma0
    w4, w6 = w2 * w2, w2 * w2 * w2
    den = (
        (9 * c2 - y2) * (gamma0 * c2 - gamma0 * y2) ** 2
        + 4 * c2 * w2 * (3 * y2 * y2 + 2 * y2 * c2 + 27 * c2 * c2)
        - 32 * w4 * (y2 - 10 * c2) * (y2 + c2)
        + 64 * w6 * (y2 + 4 * c2)
    )
    n00 = (
        (9 * c2 - y2) * (gamma0 * c2 - gamma0 * y2) ** 2
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
    limit = _strong_drive_rates((den, n00, n10, n01, n11), omega, gamma, gamma0)
    if limit is not None:
        return dissipative_strong_drive_populations(*limit)
    return Populations(n00 / den, n10 / den, n01 / den, n11 / den)


def dissipative_strong_drive_populations(gamma: float, gamma0: float) -> Populations:
    """Asymptotic populations for omega >> gamma0 with dissipative coupling."""
    half2 = (0.5 * gamma) ** 2
    tail = 0.25 * half2 / (half2 + gamma0 * gamma0)
    lead = 0.5 * (1.0 - 0.5 * half2 / (half2 + gamma0 * gamma0))
    return Populations(lead, lead, tail, tail)


def dissipative_g2(gamma: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator with purely dissipative coupling."""
    y2, w2, c2 = gamma * gamma, omega * omega, gamma0 * gamma0
    w4 = w2 * w2
    term2 = (
        0.25
        * y2
        * (y2 * y2 - 11 * y2 * c2 + 18 * c2 * c2 - 2 * w2 * (y2 + 6 * c2))
        / (
            c2 * c2 * (y2 - 9 * c2)
            + 2 * w2 * (2 * y2 * y2 - 17 * y2 * c2 - 18 * c2 * c2)
            - 8 * w4 * (y2 + 4 * c2)
        )
    )
    term3 = (
        0.25
        * (4 * c2 * w2 - 27 * c2 * c2 + y2 * (3 * c2 - 10 * w2))
        / (9 * c2 * c2 - y2 * c2 + 18 * c2 * w2 + 8 * w4)
    )
    value = 1.0 + term2 + term3
    return value if _strong_drive_rates((value,), omega, gamma, gamma0) is None else 1.0


def dissipative_g2_weak_limit(gamma: float, gamma0: float) -> float:
    """Weak-drive limit (gamma**2 - gamma0**2)**2 / (4*gamma0**4)."""
    return (gamma * gamma - gamma0 * gamma0) ** 2 / (4 * gamma0**4)


# ---------------------------------------------------------------------------
# Unidirectional coupling (g = gamma/2, relative phase pi/2, drive on 1)
# ---------------------------------------------------------------------------

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
    limit = _strong_drive_rates((den, front * den, rho00, rho10, rho01, rho11),
                                omega, gamma, gamma0)
    if limit is not None:
        return unidirectional_strong_drive_populations(*limit)
    return Populations(rho00, rho10, rho01, rho11)


def unidirectional_strong_drive_populations(gamma: float, gamma0: float) -> Populations:
    """Asymptotic populations for omega >> gamma0 under one-way coupling."""
    y2, c2 = gamma * gamma, gamma0 * gamma0
    lead = 0.25 * (y2 + 2 * c2) / (y2 + c2)
    tail = 0.25 * y2 / (y2 + c2)
    return Populations(lead, lead, tail, tail)


def unidirectional_g2(gamma: float, omega: float, gamma0: float) -> float:
    """Zero-delay cross-correlator under forward one-way coupling.

    The constant denominator term must carry gamma0**4 for dimensional
    consistency; that weight also pins the weak-drive limit to exactly 1/4.
    """
    y2, w2, c2 = gamma * gamma, omega * omega, gamma0 * gamma0
    num = (c2 + 8 * w2) * (9 * c2 + 4 * w2)
    den = 36 * c2 * c2 + 8 * w2 * (2 * y2 + 9 * c2) + 32 * w2 * w2
    value = num / den
    return value if _strong_drive_rates((value,), omega, gamma, gamma0) is None else 1.0


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
    if p.delta != 0.0 or p.omega2 != 0.0:
        raise UnsupportedConfigurationError(
            "closed forms exist only at resonance with emitter 1 driven "
            f"(delta = 0, omega2 = 0); got delta={p.delta}, omega2={p.omega2}. "
            "Use the moment solver for this configuration."
        )
    if regime not in _REGIMES:
        raise UnsupportedConfigurationError(
            f"no closed-form {noun} for regime {regime}; use the moment solver"
        )
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
    "covers", "regime_populations", "regime_g2",
]
