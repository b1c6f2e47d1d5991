"""The 15-dimensional one-time moment system of the pair.

The moment vector u evolves as du/dt = P - M u, with the ordering frozen in
operators.MOMENT_LABELS: the four first moments, then the six quadratic
moments, then the four cubic moments, then the joint excitation <n1 n2>.
The same matrix M drives the two-time regression system used for spectra.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConditionWarning, NumericalError, SingularSystemError, UndefinedCorrelatorError
from .operators import IDX_N1, IDX_N2, IDX_NX, IDX_S1, IDX_S2
from .params import SystemParams

#: Tolerance on the imaginary residue of n1, n2, nX.  A larger residue
#: indicates a mis-built regression matrix, not noise, and is an error.
IMAG_RESIDUE_TOL = 1e-12

#: A solve whose 1-norm condition number exceeds this warns (ConditionWarning).
_COND_WARN = 1e12

#: Below this n1 * n2 the cross-correlator nX / (n1 n2) is undefined (0/0).
G2_NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class MomentSystem:
    """Regression matrix M and drive vector P, ordered as MOMENT_LABELS.

    One point holds shapes (15, 15) and (15,); a stack of N points holds
    (N, 15, 15) and (N, 15).  M has the nonzero pattern that
    build_moment_systems writes: the solvers' refinement reads no other entry.
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


#: M's rows, each a string over its 15 columns: a letter names one of the 26
#: distinct values that _values returns (a the first), a dot an exact zero.
_PATTERN = (
    "ac..k.....g....", "fa...m.....j...", "..bdl.......h..", "..eb.n.......i.",
    "o.p.s...cd.....", ".q.r.s..ef.....", "rp....t...km...",
    "..qo...u....ln.", ".or.fd..s.l..mv", "q..pec...s.nk.w",
    "....r.o.p.xd..m", ".....pq..rex..k", "....q..p.o..ycn", ".....o.rq...fyl",
    "..........qorpz",
)
#: Flat positions of M's 81 structural nonzeros, row by row, and the values they take.
_FLAT = np.array([k for k, name in enumerate("".join(_PATTERN)) if name != "."])
_IDX = np.array([ord(name) - ord("a") for name in "".join(_PATTERN) if name != "."])
#: The values of P's four nonzeros, -i w1, -i w2, i w1 and i w2.
_DRIVE = np.array([ord(name) - ord("a") for name in "oqpr"])


def _values(ps: Sequence[SystemParams]) -> np.ndarray:
    """The 26 distinct entries of M and P, named a to z in _PATTERN, as an (N, 26) stack.

    Each column is its entry's scalar expression (gp, gm as generalized_couplings)
    taken elementwise, with the bits of Python's complex arithmetic.
    """
    cols = np.array([(p.delta, p.g, p.gamma, p.gamma0, p.omega1, p.omega2, math.cos(p.theta),
                      math.sin(p.theta), math.cos(p.phi), math.sin(p.phi))
                     for p in ps]).reshape(-1, 10)
    d, g, gamma, g0, w1, w2 = cols[:, :6].T
    eith, eiphi = cols[:, 6:].view(complex).T  # each (cos, sin) pair read as one complex
    coh, dis = g * eith, 0.5 * gamma * eiphi
    gp, gm = 1j * coh + dis, -1j * coh + dis
    gpc, gmc = gp.conjugate(), gm.conjugate()
    # v and w stay apart: -2 gamma conj(e^{i phi}) and conj(-2 gamma e^{i phi})
    # differ in the sign of an imaginary zero.
    return np.stack((
        0.5 * g0 + 1j * d, 0.5 * g0 - 1j * d, gp, gpc, gm, gmc, -2 * gp, -2 * gpc, -2 * gm,
        -2 * gmc, -2j * w1, 2j * w1, -2j * w2, 2j * w2, -1j * w1, 1j * w1, -1j * w2, 1j * w2,
        g0, g0 + 2j * d, g0 - 2j * d, -2 * gamma * eiphi.conjugate(), -2 * gamma * eiphi,
        1.5 * g0 + 1j * d, 1.5 * g0 - 1j * d, 2 * g0,
    ), axis=1)


def build_moment_systems(ps: Sequence[SystemParams]) -> MomentSystem:
    """Assemble M and P of every point as one (N, 15, 15) and (N, 15) stack.

    Row blocks couple the first, second, third and fourth order moments to
    each other; all entries off the nonzero pattern are exactly zero.  The
    26 distinct values of M and P are computed as columns over the points;
    one gather places them at the 81 nonzeros of M and the 4 of P.
    """
    n, vals = len(ps), _values(ps)
    m = np.zeros((n, 225), dtype=complex)
    m[:, _FLAT] = vals[:, _IDX]
    drive = np.zeros((n, 15), dtype=complex)
    drive[:, :4] = vals[:, _DRIVE]
    return MomentSystem(matrix=m.reshape(n, 15, 15), drive=drive)


def build_moment_system(p: SystemParams) -> MomentSystem:
    """M and P of one point: the batch of one."""
    stack = build_moment_systems([p])
    return MomentSystem(matrix=stack.matrix[0], drive=stack.drive[0])


def _refined_solve(m: np.ndarray, rhs: np.ndarray, u: np.ndarray, minv: np.ndarray) -> np.ndarray:
    """Extended-precision iterative refinement of a stack's first solve u.

    Weakly driven systems have moments spanning many orders of magnitude
    (u4 ~ omega**4 while u1 ~ omega); refinement with clongdouble residuals
    restores componentwise relative accuracy that a plain double solve loses.
    The residual carries the precision, so a correction needs only modest
    relative accuracy: it is minv @ r with the M^-1 of the stack's one LU
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 12),
    not a new factorization.  A row stops at its first non-finite correction.

    Only M's 81 structural nonzeros are upcast, into a zeroed clongdouble
    stack; entries off that pattern are taken as zero.  The residual's M u is
    an einsum, which sums each row from zero in column order as matmul does,
    so the bits are matmul's without its generic clongdouble loop.
    """
    m_ld = np.zeros((len(m), 225), dtype=np.clongdouble)
    m_ld[:, _FLAT] = m.reshape(-1, 225)[:, _FLAT]
    m_ld = m_ld.reshape(m.shape)
    rhs_ld = rhs.astype(np.clongdouble)
    live = np.ones(len(m), dtype=bool)
    for _ in range(3):
        u_ld = u.astype(np.clongdouble)
        resid = rhs_ld - np.einsum("nij,nj->ni", m_ld, u_ld)
        corr = (minv @ resid.astype(np.complex128)[..., None])[..., 0]
        live &= np.isfinite(corr).all(axis=1)
        np.copyto(u, (u_ld + corr).astype(np.complex128), where=live[:, None])
    return u


def _solve_stack(system: MomentSystem, where: Callable[[int], str] = "stack row {}".format
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Steady states u = M^-1 P of a stack: (N, 15) moment vectors and (N,) condition numbers.

    M is generically nonsingular for gamma0 > 0 (every moment decays at
    gamma0/2 or faster).  cond is the exact 1-norm condition number
    ||M||_1 ||M^-1||_1 from the solve's own LU; above 1e12 it warns, and above
    1/eps or at an exactly singular M it raises, before any row is returned.
    where(row) names the row in the ConditionWarning, the SingularSystemError
    and the imaginary-residue NumericalError; it is called only for such a row.
    """
    # One LU per point solves [P | I]: column 0 is the first solve, the rest M^-1.
    m = system.matrix
    try:
        x = np.linalg.solve(m, np.concatenate(
            (system.drive[..., None], np.broadcast_to(np.eye(15), m.shape)), axis=-1))
    except np.linalg.LinAlgError:  # an exactly singular factor; LAPACK names no row
        row = next(k for k in range(len(m)) if np.linalg.cond(m[k], 1) == math.inf)
        raise SingularSystemError(math.inf, where(row)) from None
    minv = np.ascontiguousarray(x[..., 1:])
    cond = np.abs(m).sum(axis=-2).max(axis=-1) * np.abs(minv).sum(axis=-2).max(axis=-1)
    singular = 1.0 / np.finfo(float).eps
    for row, c in enumerate(cond.tolist()):
        if not math.isfinite(c) or c > singular:
            raise SingularSystemError(c, where(row))
        if c > _COND_WARN:
            # stacklevel 3 names the caller of steady_state or run_sweep.
            warnings.warn(f"moment solve 1-norm condition number {c:.3e} exceeds 1e12 at "
                          f"{where(row)}", ConditionWarning, stacklevel=3)
    u = _refined_solve(m, system.drive, np.ascontiguousarray(x[..., 0]), minv)
    excitations = u[:, [IDX_N1, IDX_N2, IDX_NX]]
    bad = np.argwhere(np.abs(excitations.imag) > IMAG_RESIDUE_TOL)
    if len(bad):
        row, col = bad[0]
        raise NumericalError(
            f"{('n1', 'n2', 'nX')[col]} has imaginary residue {excitations[row, col].imag:.3e} "
            f"beyond {IMAG_RESIDUE_TOL:.0e} at {where(int(row))}; the regression matrix is "
            "inconsistent"
        )
    return u, cond


def steady_state(system: MomentSystem) -> MomentState:
    """Steady state of one (15, 15) system: the batch of one."""
    u, cond = _solve_stack(MomentSystem(system.matrix[None], system.drive[None]))
    return MomentState(u[0], *u[0, [IDX_N1, IDX_N2, IDX_NX]].real.tolist(),
                       *u[0, [IDX_S1, IDX_S2]].tolist(), cond.item())


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
    if norm < G2_NORM_FLOOR:
        raise UndefinedCorrelatorError(
            f"n1*n2 = {norm:.3e} underflows; the correlator is undefined at "
            "vanishing drive, use the closed-form weak-drive limits"
        )
    return state.nX / norm
