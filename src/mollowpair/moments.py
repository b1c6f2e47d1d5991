"""The 15-dimensional one-time moment system of the pair.

The moment vector u evolves as du/dt = P - M u, with the ordering frozen in
operators.MOMENT_LABELS: the four first moments, then the six quadratic
moments, then the four cubic moments, then the joint excitation <n1 n2>.
The same matrix M drives the two-time regression system used for spectra.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
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
    """Regression matrix M and drive vector P, ordered as MOMENT_LABELS.

    One point holds shapes (15, 15) and (15,); a stack of N points holds
    (N, 15, 15) and (N, 15).
    """

    matrix: np.ndarray
    drive: np.ndarray


@dataclass(frozen=True)
class MomentState:
    """Steady-state moments, population summary and the solve's 1-norm condition number."""

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


#: Columns of the structural nonzeros of M, row by row (81 in all); every
#: other entry is exactly zero.
_NONZERO_COLS = (
    (0, 1, 4, 10), (0, 1, 5, 11), (2, 3, 4, 12), (2, 3, 5, 13),
    (0, 2, 4, 8, 9), (1, 3, 5, 8, 9), (0, 1, 6, 10, 11), (2, 3, 7, 12, 13),
    (1, 2, 4, 5, 8, 10, 13, 14), (0, 3, 4, 5, 9, 11, 12, 14),
    (4, 6, 8, 10, 11, 14), (5, 6, 9, 10, 11, 14), (4, 7, 9, 12, 13, 14), (5, 7, 8, 12, 13, 14),
    (10, 11, 12, 13, 14),
)
_FLAT = np.array([15 * r + c for r, cols in enumerate(_NONZERO_COLS) for c in cols])


def _entries(p: SystemParams) -> tuple:
    """Values of M's nonzeros at p, row by row in the order of _NONZERO_COLS."""
    gp, gm = generalized_couplings(p)
    gpc, gmc = gp.conjugate(), gm.conjugate()
    g0, d = p.gamma0, p.delta
    w1, w2 = p.omega1, p.omega2
    gam = p.gamma
    eiphi = np.exp(1j * p.phi)
    return (
        0.5 * g0 + 1j * d, gp, -2j * w1, -2 * gp,
        gmc, 0.5 * g0 + 1j * d, -2j * w2, -2 * gmc,
        0.5 * g0 - 1j * d, gpc, 2j * w1, -2 * gpc,
        gm, 0.5 * g0 - 1j * d, 2j * w2, -2 * gm,
        -1j * w1, 1j * w1, g0, gp, gpc,
        -1j * w2, 1j * w2, g0, gm, gmc,
        1j * w2, 1j * w1, g0 + 2j * d, -2j * w1, -2j * w2,
        -1j * w2, -1j * w1, g0 - 2j * d, 2j * w1, 2j * w2,
        -1j * w1, 1j * w2, gmc, gpc, g0, 2j * w1, -2j * w2, -2 * gam * eiphi.conjugate(),
        -1j * w2, 1j * w1, gm, gp, g0, 2j * w2, -2j * w1, -2 * gam * eiphi,
        1j * w2, -1j * w1, 1j * w1, 1.5 * g0 + 1j * d, gpc, -2j * w2,
        1j * w1, -1j * w2, 1j * w2, gm, 1.5 * g0 + 1j * d, -2j * w1,
        -1j * w2, 1j * w1, -1j * w1, 1.5 * g0 - 1j * d, gp, 2j * w2,
        -1j * w1, 1j * w2, -1j * w2, gmc, 1.5 * g0 - 1j * d, 2j * w1,
        -1j * w2, -1j * w1, 1j * w2, 1j * w1, 2 * g0,
    )


def build_moment_systems(ps: Sequence[SystemParams]) -> MomentSystem:
    """Assemble M and P of every point as one (N, 15, 15) and (N, 15) stack.

    Row blocks couple the first, second, third and fourth order moments to
    each other; all entries off the nonzero pattern are exactly zero.
    """
    n = len(ps)
    m = np.zeros((n, 225), dtype=complex)
    # The explicit shapes let an empty list of points give an empty stack.
    m[:, _FLAT] = np.array([_entries(p) for p in ps], dtype=complex).reshape(n, _FLAT.size)
    drive = np.zeros((n, 15), dtype=complex)
    drive[:, :4] = np.array(
        [(-1j * p.omega1, -1j * p.omega2, 1j * p.omega1, 1j * p.omega2) for p in ps],
        dtype=complex).reshape(n, 4)
    return MomentSystem(matrix=m.reshape(n, 15, 15), drive=drive)


def build_moment_system(p: SystemParams) -> MomentSystem:
    """M and P of one point: the batch of one."""
    stack = build_moment_systems([p])
    return MomentSystem(matrix=stack.matrix[0], drive=stack.drive[0])


def _refined_solve(m: np.ndarray, rhs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Extended-precision iterative refinement of a stack's first solve u.

    Weakly driven systems have moments spanning many orders of magnitude
    (u4 ~ omega**4 while u1 ~ omega); refinement with clongdouble residuals
    restores componentwise relative accuracy that a plain double solve loses.
    At 15x15, re-solving for each correction is no slower than reusing an
    LU factorization.  A row stops at its first non-finite correction.
    """
    m_ld = m.astype(np.clongdouble)
    rhs_ld = rhs.astype(np.clongdouble)
    live = np.ones(len(m), dtype=bool)
    for _ in range(3):
        resid = rhs_ld - (m_ld @ u.astype(np.clongdouble)[..., None])[..., 0]
        corr = np.linalg.solve(m, resid.astype(np.complex128)[..., None])[..., 0]
        live &= np.isfinite(corr).all(axis=1)
        np.copyto(u, (u.astype(np.clongdouble) + corr).astype(np.complex128), where=live[:, None])
    return u


def _moment_state(u: np.ndarray, cond: float) -> MomentState:
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


def _solve_stack(system: MomentSystem) -> list[MomentState]:
    # One LU per point solves [P | I]: column 0 is the first solve, the rest M^-1.
    m = system.matrix
    try:
        x = np.linalg.solve(m, np.concatenate(
            (system.drive[..., None], np.broadcast_to(np.eye(15), m.shape)), axis=-1))
    except np.linalg.LinAlgError:
        raise SingularSystemError(math.inf) from None
    conds = (np.abs(m).sum(axis=-2).max(axis=-1)
             * np.abs(x[..., 1:]).sum(axis=-2).max(axis=-1)).tolist()
    singular = 1.0 / np.finfo(float).eps
    for cond in conds:
        if not math.isfinite(cond) or cond > singular:
            raise SingularSystemError(cond)
        if cond > 1e12:
            # Reached only through the two public solvers: stacklevel 3 names their caller.
            warnings.warn(
                f"moment solve 1-norm condition number {cond:.3e} exceeds 1e12",
                ConditionWarning,
                stacklevel=3,
            )
    u = _refined_solve(m, system.drive, np.ascontiguousarray(x[..., 0]))
    return [_moment_state(row, cond) for row, cond in zip(u, conds)]


def steady_states(system: MomentSystem) -> list[MomentState]:
    """Steady-state moment vectors u = M^-1 P of a stack, one state per point.

    M is generically nonsingular for gamma0 > 0 (every moment decays at
    gamma0/2 or faster).  Each state carries the exact 1-norm condition number
    ||M||_1 ||M^-1||_1 from the solve's own LU; above 1e12 it warns, and above
    1/eps or at an exactly singular M it raises, before any state is returned.
    """
    return _solve_stack(system)


def steady_state(system: MomentSystem) -> MomentState:
    """Steady state of one (15, 15) system: the batch of one."""
    return _solve_stack(MomentSystem(matrix=system.matrix[None], drive=system.drive[None]))[0]


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
