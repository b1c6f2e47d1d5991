"""The 15-dimensional one-time moment system of the pair.

The moment vector u evolves as du/dt = P - M u, with the ordering frozen in
operators.MOMENT_LABELS: the four first moments, then the six quadratic
moments, then the four cubic moments, then the joint excitation <n1 n2>.
The same matrix M drives the two-time regression system used for spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditionWarning, NumericalError, SingularSystemError, UndefinedCorrelatorError
from .operators import IDX_N1, IDX_N2, IDX_NX, IDX_S1, IDX_S2
from .params import SystemParams, generalized_couplings

#: Tolerance on the imaginary residue of n1, n2, nX.  A larger residue
#: indicates a mis-built regression matrix, not noise, and is an error.
IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class MomentSystem:
    """Regression matrix M and drive vector P, ordered as MOMENT_LABELS."""

    matrix: np.ndarray
    drive: np.ndarray


@dataclass(frozen=True)
class MomentState:
    """Steady-state moments and the derived population summary."""

    u: np.ndarray
    n1: float
    n2: float
    nX: float
    s1: complex
    s2: complex
    cond: float


@dataclass(frozen=True)
class Populations:
    """Bare-state occupation probabilities, ordered (00, 10, 01, 11).

    degenerate marks parameter points where the steady state is not unique
    and the returned values are the decaying-dynamics limit.
    """

    rho00: float
    rho10: float
    rho01: float
    rho11: float
    degenerate: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.rho00, self.rho10, self.rho01, self.rho11])

    @property
    def total(self) -> float:
        return self.rho00 + self.rho10 + self.rho01 + self.rho11


def build_moment_system(p: SystemParams) -> MomentSystem:
    """Assemble M and P entrywise from the generalized couplings.

    The eleven nonzero blocks couple the first, second, third and fourth
    order moments; zero blocks are exactly zero.
    """
    gp, gm = generalized_couplings(p)
    gpc, gmc = np.conj(gp), np.conj(gm)
    g0, d = p.gamma0, p.delta
    w1, w2 = p.omega1, p.omega2
    gam = p.gamma
    eiphi = np.exp(1j * p.phi)

    m = np.zeros((15, 15), dtype=complex)

    m11 = np.array([
        [0.5 * g0 + 1j * d, gp, 0, 0],
        [gmc, 0.5 * g0 + 1j * d, 0, 0],
        [0, 0, 0.5 * g0 - 1j * d, gpc],
        [0, 0, gm, 0.5 * g0 - 1j * d],
    ])
    m12 = np.zeros((4, 6), dtype=complex)
    m12[0, 0] = -2j * w1
    m12[1, 1] = -2j * w2
    m12[2, 0] = 2j * w1
    m12[3, 1] = 2j * w2
    m13 = np.diag([-2 * gp, -2 * gmc, -2 * gpc, -2 * gm])

    m21 = np.array([
        [-1j * w1, 0, 1j * w1, 0],
        [0, -1j * w2, 0, 1j * w2],
        [1j * w2, 1j * w1, 0, 0],
        [0, 0, -1j * w2, -1j * w1],
        [0, -1j * w1, 1j * w2, 0],
        [-1j * w2, 0, 0, 1j * w1],
    ])
    m22 = np.array([
        [g0, 0, 0, 0, gp, gpc],
        [0, g0, 0, 0, gm, gmc],
        [0, 0, g0 + 2j * d, 0, 0, 0],
        [0, 0, 0, g0 - 2j * d, 0, 0],
        [gmc, gpc, 0, 0, g0, 0],
        [gm, gp, 0, 0, 0, g0],
    ])
    m23 = np.array([
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [-2j * w1, -2j * w2, 0, 0],
        [0, 0, 2j * w1, 2j * w2],
        [2j * w1, 0, 0, -2j * w2],
        [0, 2j * w2, -2j * w1, 0],
    ])
    m24 = np.array([0, 0, 0, 0, -2 * gam * np.conj(eiphi), -2 * gam * eiphi],
                   dtype=complex).reshape(6, 1)

    m32 = np.array([
        [1j * w2, 0, -1j * w1, 0, 1j * w1, 0],
        [0, 1j * w1, -1j * w2, 0, 0, 1j * w2],
        [-1j * w2, 0, 0, 1j * w1, 0, -1j * w1],
        [0, -1j * w1, 0, 1j * w2, -1j * w2, 0],
    ])
    m33 = np.array([
        [1.5 * g0 + 1j * d, gpc, 0, 0],
        [gm, 1.5 * g0 + 1j * d, 0, 0],
        [0, 0, 1.5 * g0 - 1j * d, gp],
        [0, 0, gmc, 1.5 * g0 - 1j * d],
    ])
    m34 = np.array([-2j * w2, -2j * w1, 2j * w2, 2j * w1], dtype=complex).reshape(4, 1)

    m43 = np.array([[-1j * w2, -1j * w1, 1j * w2, 1j * w1]])

    m[0:4, 0:4] = m11
    m[0:4, 4:10] = m12
    m[0:4, 10:14] = m13
    m[4:10, 0:4] = m21
    m[4:10, 4:10] = m22
    m[4:10, 10:14] = m23
    m[4:10, 14:15] = m24
    m[10:14, 4:10] = m32
    m[10:14, 10:14] = m33
    m[10:14, 14:15] = m34
    m[14:15, 10:14] = m43
    m[14, 14] = 2 * g0

    drive = np.zeros(15, dtype=complex)
    drive[0:4] = [-1j * w1, -1j * w2, 1j * w1, 1j * w2]
    return MomentSystem(matrix=m, drive=drive)


def _refined_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense solve with extended-precision iterative refinement.

    Weakly driven systems have moments spanning many orders of magnitude
    (u4 ~ omega**4 while u1 ~ omega); refinement with clongdouble residuals
    restores componentwise relative accuracy that a plain double solve loses.
    At 15x15, re-solving for each correction is no slower than reusing an
    LU factorization.
    """
    u = np.linalg.solve(m, rhs)
    m_ld = m.astype(np.clongdouble)
    rhs_ld = rhs.astype(np.clongdouble)
    for _ in range(3):
        resid = rhs_ld - m_ld @ u.astype(np.clongdouble)
        corr = np.linalg.solve(m, resid.astype(np.complex128))
        if not np.all(np.isfinite(corr)):
            break
        u = (u.astype(np.clongdouble) + corr.astype(np.clongdouble)).astype(np.complex128)
    return u


def steady_state(system: MomentSystem) -> MomentState:
    """Steady-state moment vector u = M^-1 P via a dense refined solve.

    M is generically nonsingular for gamma0 > 0 (every moment decays at
    gamma0/2 or faster).  A condition-number estimate is attached to every
    solve; poorly conditioned systems warn, singular ones raise.
    """
    m = system.matrix
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise SingularSystemError(cond)
    if cond > 1e12:
        warnings.warn(
            f"moment solve condition number {cond:.3e} exceeds 1e12",
            ConditionWarning,
            stacklevel=2,
        )
    u = _refined_solve(m, system.drive)

    def _real(idx: int, label: str) -> float:
        z = u[idx]
        if abs(z.imag) > IMAG_RESIDUE_TOL:
            raise NumericalError(
                f"{label} has imaginary residue {z.imag:.3e} beyond {IMAG_RESIDUE_TOL:.0e}; "
                "the regression matrix is inconsistent"
            )
        return float(z.real)

    return MomentState(
        u=u,
        n1=_real(IDX_N1, "n1"),
        n2=_real(IDX_N2, "n2"),
        nX=_real(IDX_NX, "nX"),
        s1=complex(u[IDX_S1]),
        s2=complex(u[IDX_S2]),
        cond=cond,
    )


def populations(state: MomentState) -> Populations:
    """Bare-state probabilities from the excitation moments."""
    return Populations(
        rho00=1.0 + state.nX - state.n1 - state.n2,
        rho10=state.n1 - state.nX,
        rho01=state.n2 - state.nX,
        rho11=state.nX,
    )


def solve_populations(p: SystemParams) -> Populations:
    """Convenience wrapper: build, solve and extract populations."""
    return populations(steady_state(build_moment_system(p)))


def g2_cross(state: MomentState) -> float:
    """Normalized zero-delay cross-correlator nX / (n1 * n2).

    The weak-drive limit is 0/0; callers must use the closed-form limits
    there instead of this estimator.
    """
    norm = state.n1 * state.n2
    if norm < 1e-30:
        raise UndefinedCorrelatorError(
            f"n1*n2 = {norm:.3e} underflows; the correlator is undefined at "
            "vanishing drive, use the closed-form weak-drive limits"
        )
    return state.nX / norm
