"""Rotating-frame Hamiltonian of the pair and its dressed energies.

The shared bare-state basis ordering is (|00>, |10>, |01>, |11>), where the
first digit is the excitation of emitter 1.  Every module in the package uses
this ordering.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .params import SystemParams


def build_pair_hamiltonian(p: SystemParams) -> np.ndarray:
    """4x4 Hermitian rotating-frame Hamiltonian, drives on both emitters.

    Exchange coupling g*e^{+i theta} connects |10><01|; the drives connect
    states differing by one excitation of the driven emitter.
    """
    ge = p.g * cmath.exp(1j * p.theta)
    d, w1, w2 = p.delta, p.omega1, p.omega2
    return np.array(
        [
            [0.0, w1, w2, 0.0],
            [w1, d, ge, w2],
            [w2, np.conj(ge), d, w1],
            [0.0, w2, w1, 2.0 * d],
        ],
        dtype=complex,
    )


def dressed_energies(g: float, omega: float) -> np.ndarray:
    """Resonant dressed energies (+-f/2 +-g/2), sorted descending.

    f = sqrt(g**2 + 4*omega**2) is the drive-dependent splitting.  The four
    values sum to zero exactly; degenerate values (omega = 0) are retained.
    """
    f = math.sqrt(g * g + 4.0 * omega * omega)
    vals = [0.5 * (f + g), 0.5 * (f - g), -0.5 * (f - g), -0.5 * (f + g)]
    return np.array(sorted(vals, reverse=True))


def quintuplet_frequencies(g: float, omega: float) -> np.ndarray:
    """The five resonant dressed-state transition frequencies, ascending.

    Relative to the bare transition frequency these are 0, +-(f - g) and
    +-(f + g); they locate the peaks of the strongly driven pair spectrum.
    """
    f = math.sqrt(g * g + 4.0 * omega * omega)
    return np.array(sorted([-(f + g), -(f - g), 0.0, f - g, f + g]))
