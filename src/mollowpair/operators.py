"""Operator algebra of the pair in the shared (|00>, |10>, |01>, |11>) basis.

Emitter 1 is the fast index: state k = n1 + 2*n2.  Only the density-matrix
oracle (liouville) and the tests import this module; the moment solver,
spectra and sweeps never do.  MOMENT_OPERATORS lists the fifteen
moment operators in the order of mollowpair.moments; together with the
identity they form a complete basis of the 4x4 operator space, so the tests
can derive the moment system's structure and seed table from them.
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

#: The 15 moment operators, in the moment vector order of mollowpair.moments.
MOMENT_OPERATORS = (
    SIGMA1, SIGMA2, SIGMA1_DAG, SIGMA2_DAG,
    N1, N2, SIGMA1 @ SIGMA2, SIGMA1_DAG @ SIGMA2_DAG, SIGMA1_DAG @ SIGMA2,
    SIGMA1 @ SIGMA2_DAG,
    N1 @ SIGMA2, SIGMA1 @ N2, N1 @ SIGMA2_DAG, SIGMA1_DAG @ N2,
    N1 @ N2,
)
