"""Parameters of the coupled two-level-system pair and regime classification.

All frequencies and rates are dimensionless multiples of the individual decay
rate gamma0, which is the unit of frequency throughout the public interface.
Only the relative coupling phase theta - phi is physical; all observables are
invariant under the gauge shift (theta, phi) -> (theta + c, phi + c).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

from .errors import ParameterError

TWO_PI = 2.0 * math.pi

#: Tolerance of classify_regime: couplings below it (in gamma0 units) count
#: as zero, and g/gamma and theta - phi within it count as one-way.
REGIME_TOL = 1e-9

#: Keys of the flat key-value config format, in canonical order.  The key
#: names are part of the CLI contract.
CONFIG_KEYS = ("delta", "g", "theta", "gamma", "phi", "gamma0", "omega1", "omega2")


def wrap_phase(x: float) -> float:
    """Reduce a phase to [0, 2*pi); -0.0 stays -0.0."""
    x = math.fmod(x, TWO_PI)
    if x < 0.0:
        x += TWO_PI  # rounds to 2*pi itself when x is within half an ulp of 2*pi below 0
    return 0.0 if x == TWO_PI else x


def wrap_signed(x: float) -> float:
    """Reduce a phase difference to (-pi, pi]."""
    x = math.fmod(x, TWO_PI)
    if x > math.pi:
        x -= TWO_PI
    elif x <= -math.pi:
        x += TWO_PI
    return x


class Regime(enum.Enum):
    """Coupling regimes of the pair, classified from (g, gamma, theta - phi)."""

    COHERENT = "coherent"
    DISSIPATIVE = "dissipative"
    UNIDIRECTIONAL_FORWARD = "unidirectional-forward"
    UNIDIRECTIONAL_BACKWARD = "unidirectional-backward"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set of the driven-dissipative pair.

    Attributes
    ----------
    delta : float
        Drive detuning (transition frequency minus drive frequency).
    g : float
        Coherent coupling magnitude, >= 0.
    theta : float
        Coherent coupling phase, stored in [0, 2*pi).
    gamma : float
        Dissipative coupling magnitude, 0 <= gamma <= gamma0.
    phi : float
        Dissipative coupling phase, stored in [0, 2*pi).
    gamma0 : float
        Individual decay rate, > 0.  Reference frequency unit.
    omega1, omega2 : float
        Drive amplitudes on emitter 1 and emitter 2, >= 0.
    """

    delta: float = 0.0
    g: float = 0.0
    theta: float = 0.0
    gamma: float = 0.0
    phi: float = 0.0
    gamma0: float = 1.0
    omega1: float = 0.0
    omega2: float = 0.0

    def __post_init__(self):
        if not (self.gamma0 > 0.0):
            raise ParameterError(f"gamma0 must be > 0 (strictly dissipative), got {self.gamma0}")
        if self.g < 0.0:
            raise ParameterError(f"g must be >= 0, got {self.g}")
        if self.gamma < 0.0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if self.gamma > self.gamma0:
            raise ParameterError(
                f"gamma must not exceed gamma0 (0 <= gamma <= gamma0), "
                f"got gamma={self.gamma}, gamma0={self.gamma0}"
            )
        if self.omega1 < 0.0:
            raise ParameterError(f"omega1 must be >= 0, got {self.omega1}")
        if self.omega2 < 0.0:
            raise ParameterError(f"omega2 must be >= 0, got {self.omega2}")
        for name in CONFIG_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "theta", wrap_phase(self.theta))
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    def as_dict(self) -> dict[str, float]:
        return {k: float(getattr(self, k)) for k in CONFIG_KEYS}


def generalized_couplings(p: SystemParams) -> tuple[complex, complex]:
    """Generalized coupling constants combining both coupling channels.

    Returns the pair (gp, gm) with gp = +i*g*e^{i*theta} + (gamma/2)*e^{i*phi}
    and gm = -i*g*e^{i*theta} + (gamma/2)*e^{i*phi}.  Exactly one of the two
    vanishes at the unidirectional points.
    """
    coh = p.g * complex(math.cos(p.theta), math.sin(p.theta))
    dis = 0.5 * p.gamma * complex(math.cos(p.phi), math.sin(p.phi))
    return 1j * coh + dis, -1j * coh + dis


#: g / gamma and the offset theta - phi of each one-way regime.
ONE_WAY = {Regime.UNIDIRECTIONAL_FORWARD: (0.5, 0.5 * math.pi),
           Regime.UNIDIRECTIONAL_BACKWARD: (0.5, 1.5 * math.pi)}
#: What each pure regime sets, given the point's other values p (a dict): coherent zeroes
#: gamma, dissipative zeroes g, and a one-way regime sets g and theta by its ONE_WAY rule.
REGIME_PINS = {
    Regime.COHERENT: lambda p: {"gamma": 0.0},
    Regime.DISSIPATIVE: lambda p: {"g": 0.0},
    **{regime: lambda p, k=ratio, s=offset: {"g": k * p["gamma"], "theta": p["phi"] + s}
       for regime, (ratio, offset) in ONE_WAY.items()},
}


def classify_regime(p: SystemParams) -> Regime:
    """Classify the coupling regime of a parameter set.

    Pure regimes are checked before the unidirectional conditions, so the
    fully uncoupled point g = gamma = 0 classifies as COHERENT.  Couplings
    and phase offsets within REGIME_TOL count as exact.
    """
    if p.gamma <= REGIME_TOL * p.gamma0:
        return Regime.COHERENT
    if p.g <= REGIME_TOL * p.gamma0:
        return Regime.DISSIPATIVE
    for regime, (ratio, offset) in ONE_WAY.items():
        if (abs(p.g / p.gamma - ratio) <= REGIME_TOL
                and abs(wrap_signed(p.theta - p.phi - offset)) <= REGIME_TOL):
            return regime
    return Regime.ASYMMETRIC


# ---------------------------------------------------------------------------
# Named constructors for the pure regimes
# ---------------------------------------------------------------------------

def coherent_pair(g: float, omega: float, gamma0: float = 1.0, delta: float = 0.0,
                  theta: float = 0.0) -> SystemParams:
    """Purely coherently coupled pair (gamma = 0), emitter 1 driven."""
    values = dict(delta=delta, g=g, theta=theta, gamma0=gamma0, omega1=omega)
    return SystemParams(**values, **REGIME_PINS[Regime.COHERENT](values))


def dissipative_pair(gamma: float, omega: float, gamma0: float = 1.0, delta: float = 0.0,
                     phi: float = 0.0) -> SystemParams:
    """Purely dissipatively coupled pair (g = 0), emitter 1 driven."""
    values = dict(delta=delta, gamma=gamma, phi=phi, gamma0=gamma0, omega1=omega)
    return SystemParams(**values, **REGIME_PINS[Regime.DISSIPATIVE](values))


def unidirectional_pair(gamma: float, omega: float, gamma0: float = 1.0,
                        delta: float = 0.0, phi: float = 0.0,
                        forward: bool = True) -> SystemParams:
    """One-way coupled pair: g = gamma/2 and theta = phi + pi/2 (or 3*pi/2).

    forward=True suppresses all backaction from emitter 2 onto emitter 1.
    """
    regime = Regime.UNIDIRECTIONAL_FORWARD if forward else Regime.UNIDIRECTIONAL_BACKWARD
    values = dict(delta=delta, gamma=gamma, phi=phi, gamma0=gamma0, omega1=omega)
    return SystemParams(**values, **REGIME_PINS[regime](values))


def asymmetric_pair(g: float, gamma: float, relative_phase: float, omega: float,
                    gamma0: float = 1.0, delta: float = 0.0,
                    phi: float = 0.0) -> SystemParams:
    """General pair with both couplings and an explicit relative phase."""
    return SystemParams(delta=delta, g=g, theta=phi + relative_phase, gamma=gamma,
                        phi=phi, gamma0=gamma0, omega1=omega)


# ---------------------------------------------------------------------------
# Flat key-value config format
# ---------------------------------------------------------------------------

def parse_config(text: str) -> SystemParams:
    """Parse the flat key-value parameter format.

    One `key = value` (or `key: value`) pair per line, `#` comments, blank
    lines ignored.  Valid keys are exactly CONFIG_KEYS; values are floats in
    gamma0 units.  Missing keys take the SystemParams defaults.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParameterError(
                f"config line {lineno}: unknown key {key!r} (valid: {', '.join(CONFIG_KEYS)})"
            )
        if key in values:
            raise ParameterError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ParameterError(f"config line {lineno}: {val.strip()!r} is not a number") from None
    return SystemParams(**values)


def load_config(path: str | os.PathLike) -> SystemParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(p: SystemParams) -> str:
    """Serialize a parameter set in the flat key-value format."""
    return "".join(f"{k} = {getattr(p, k):.17g}\n" for k in CONFIG_KEYS)
