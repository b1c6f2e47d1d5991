"""Operator algebra of the pair in the shared (|00>, |10>, |01>, |11>) basis.

Emitter 1 is the fast index: state k = n1 + 2*n2.  The fifteen moment
operators listed here fix the index ordering of the moment vector used by the
regression machinery; together with the identity they form a complete basis
of the 4x4 operator space.  Left-multiplying any of them by a raising
operator gives zero or another one of them, so the two-time seeds are a
selection of moment coordinates (SEED_SELECTION).
"""

from __future__ import annotations

import numpy as np

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

#: Lowering operator of emitter 1 (fast index).
SIGMA1 = np.kron(_EYE2, _LOWER)
#: Lowering operator of emitter 2 (slow index).
SIGMA2 = np.kron(_LOWER, _EYE2)
SIGMA1_DAG = SIGMA1.conj().T
SIGMA2_DAG = SIGMA2.conj().T
N1 = SIGMA1_DAG @ SIGMA1
N2 = SIGMA2_DAG @ SIGMA2
EYE4 = np.eye(4, dtype=complex)

#: Labels of the 15 moment operators, in the frozen regression ordering.
MOMENT_LABELS = (
    "s1", "s2", "s1d", "s2d",
    "n1", "n2", "s1 s2", "s1d s2d", "s1d s2", "s1 s2d",
    "n1 s2", "s1 n2", "n1 s2d", "s1d n2",
    "n1 n2",
)

#: Matrix representations matching MOMENT_LABELS.
MOMENT_OPERATORS = (
    SIGMA1, SIGMA2, SIGMA1_DAG, SIGMA2_DAG,
    N1, N2, SIGMA1 @ SIGMA2, SIGMA1_DAG @ SIGMA2_DAG, SIGMA1_DAG @ SIGMA2,
    SIGMA1 @ SIGMA2_DAG,
    N1 @ SIGMA2, SIGMA1 @ N2, N1 @ SIGMA2_DAG, SIGMA1_DAG @ N2,
    N1 @ N2,
)

# Named indices into the moment vector.
IDX_S1 = 0
IDX_S2 = 1
IDX_N1 = 4
IDX_N2 = 5
IDX_NX = 14


def _product_selection(left: np.ndarray) -> np.ndarray:
    """0/1 matrix S with <left O_i> = (S u)_i for every moment vector u.

    Each product left @ O_i must be zero or exactly one moment operator O_j;
    anything else fails the unpacking below when the module is imported.
    """
    sel = np.zeros((len(MOMENT_OPERATORS), len(MOMENT_OPERATORS)))
    for i, op in enumerate(MOMENT_OPERATORS):
        prod = left @ op
        if prod.any():
            (j,) = [j for j, o in enumerate(MOMENT_OPERATORS) if np.array_equal(o, prod)]
            sel[i, j] = 1.0
    return sel


#: Two-time seeds <sigma_e^dag O_i> = (SEED_SELECTION[e] @ u)_i, keyed by emitter.
SEED_SELECTION = {1: _product_selection(SIGMA1_DAG), 2: _product_selection(SIGMA2_DAG)}
