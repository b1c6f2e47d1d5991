"""The 15-dimensional one-time moment system of the pair.

The moment vector u evolves as du/dt = P - M u.  Its 15 coordinates are
frozen in this order: the first moments <s1>, <s2>, <s1^dag>, <s2^dag>; the
quadratic <n1>, <n2>, <s1 s2>, <s1^dag s2^dag>, <s1^dag s2>, <s1 s2^dag>; the
cubic <n1 s2>, <s1 n2>, <n1 s2^dag>, <s1^dag n2>; and the joint excitation
<n1 n2>.  This module is the one owner of that ordering: the named indices,
M's pattern and the two-time seed table are written against it here.  The
same matrix M drives the two-time regression system used for spectra.  The
steady state is solved in real coordinates: (Re, Im) of the first member of
each conjugate pair, then the real n1, n2 and nX.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConditionWarning, NumericalError, SingularSystemError, UndefinedCorrelatorError
from .params import SystemParams

#: A solve whose 1-norm condition number exceeds this warns (ConditionWarning).
_COND_WARN = 1e12

#: Below this n1 * n2, the smallest normal float, the product has lost precision
#: to underflow and the cross-correlator nX / (n1 n2) is undefined.
G2_NORM_FLOOR = sys.float_info.min

# Named indices into the moment vector.
IDX_S1, IDX_S2, IDX_N1, IDX_N2, IDX_NX = 0, 1, 4, 5, 14

#: For each emitter e, the moment j with sigma_e^dag O_i = O_j, or None where
#: the product is zero, for i in moment order.
_SEEDS = {
    1: (4, 8, None, 7, None, 13, 10, None, None, 12, None, 14, None, None, None),
    2: (9, 5, 7, None, 12, None, 11, None, 13, None, 14, None, None, None, None),
}
#: Two-time seeds <sigma_e^dag O_i> = (SEED_SELECTION[e] @ u)_i, as 0/1 (15, 15) matrices.
SEED_SELECTION = {e: np.eye(16)[[15 if j is None else j for j in seeds], :15]
                  for e, seeds in _SEEDS.items()}


@dataclass(frozen=True)
class MomentSystem:
    """Regression matrix M and drive vector P, in the module's moment order.

    One point holds shapes (15, 15) and (15,); a stack of N points holds
    (N, 15, 15) and (N, 15).  M has the nonzero pattern that
    build_moment_systems writes: the solve reads no other entry.
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


#: The conjugate pairs (O, O^dag) of the basis and its three real moments, n1, n2 and nX.
_PAIRS = ((0, 2), (1, 3), (6, 7), (8, 9), (10, 12), (11, 13))
_FIRST, _SECOND = (list(pair) for pair in zip(*_PAIRS))
_REAL = [IDX_N1, IDX_N2, IDX_NX]
#: The complex row and part behind each real equation, in the order of x.
_ROWS = [(i, part) for i in _FIRST for part in ("re", "im")] + [(r, "re") for r in _REAL]


def _real_gather() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each structural nonzero of the real M comes from: (flat position, source, factor).

    Real row I is the real or imaginary part of complex row _ROWS[I], and
    u = T x.  Entry (I, J) is part(sum_j M[i, j] T[j, J]) over M's nonzeros:
    one part of one entry of M times +-1, or, in the three real rows, where
    M[i, d] = conj(M[i, c]) repeats c's term, times +-2.  A source indexes
    the (N, 450) float view of M.
    """
    t = {}  # T's nonzeros: x_2p = Re u_c, x_2p+1 = Im u_c for pair p = (c, d), then n1, n2, nX
    for p, (c, d) in enumerate(_PAIRS):
        t[c, 2 * p], t[d, 2 * p], t[c, 2 * p + 1], t[d, 2 * p + 1] = 1, 1, 1j, -1j
    for q, r in enumerate(_REAL):
        t[r, 12 + q] = 1
    terms = {}  # flat position in the real M: (source, factor)
    for row, (i, part) in enumerate(_ROWS):
        for (j, col), tj in t.items():
            key = 15 * row + col
            if _PATTERN[i][j] == ".":
                continue
            if key in terms:  # a real row's d repeats its c: twice c's term
                terms[key] = terms[key][0], 2 * terms[key][1]
                continue
            # part(tj M[i, j]) = Re(z M[i, j]) = z.real Re M[i, j] - z.imag Im M[i, j]
            z = tj if part == "re" else -1j * tj
            terms[key] = (2 * (15 * i + j), z.real) if z.real else (2 * (15 * i + j) + 1, -z.imag)
    src, factor = np.array(list(terms.values())).T
    return np.array(list(terms)), src.astype(int), factor


_GATHER_FLAT, _GATHER_SRC, _GATHER_FACTOR = _real_gather()
#: Where each entry of the real P comes from in the (N, 30) float view of P.
_DRIVE_SRC = [2 * i + (part == "im") for i, part in _ROWS]
#: Each moment's conjugate partner, and the partner of each of M's nonzeros.
_CONJ = np.arange(15)
_CONJ[_FIRST + _SECOND] = _SECOND + _FIRST
_FLAT_CONJ = (15 * _CONJ[:, None] + _CONJ).ravel()[_FLAT]


def _real_system(system: MomentSystem) -> tuple[np.ndarray, np.ndarray]:
    """The stack in the real coordinates x: the (N, 15, 15) real M and (N, 15) real P.

    x holds (Re, Im) of each pair's first member, then n1, n2 and nX, so
    u = T x.  On a conjugate-consistent stack the real system is T^-1 M T and
    T^-1 P exactly: every entry is one part of one complex entry, times +-1
    or +-2.  Only M's structural nonzeros are read.
    """
    drive = np.ascontiguousarray(system.drive).view(float)
    return _real_matrix(system.matrix), drive[:, _DRIVE_SRC]


def _real_matrix(m: np.ndarray) -> np.ndarray:
    """The real M = T^-1 M T of a conjugate-consistent (N, 15, 15) stack, as _real_system."""
    n = len(m)
    floats = np.ascontiguousarray(m).view(float).reshape(n, 450)
    real_m = np.zeros((n, 225))
    real_m[:, _GATHER_FLAT] = floats[:, _GATHER_SRC] * _GATHER_FACTOR
    return real_m.reshape(n, 15, 15)


def _moment_columns(x: np.ndarray) -> np.ndarray:
    """T x for a stack x of (N, 15, k) columns in the real coordinates, real or complex."""
    u = np.empty(x.shape, dtype=complex)
    re, im = x[:, 0:12:2], x[:, 1:12:2]
    u[:, _FIRST], u[:, _SECOND] = re + 1j * im, re - 1j * im
    u[:, _REAL] = x[:, 12:]
    return u


def _refined_solve(m: np.ndarray, rhs: np.ndarray, x: np.ndarray, minv: np.ndarray) -> np.ndarray:
    """Extended-precision iterative refinement of a real stack's first solve x.

    Weakly driven systems have moments spanning many orders of magnitude
    (u4 ~ omega**4 while u1 ~ omega); refinement with longdouble residuals
    restores componentwise relative accuracy that a plain double solve loses.
    The residual carries the precision, so a correction needs only modest
    relative accuracy: it is minv @ r with the M^-1 of the stack's one LU
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 12),
    not a new factorization.  A row stops at its first non-finite correction.
    """
    m_ld, rhs_ld = m.astype(np.longdouble), rhs.astype(np.longdouble)
    live = np.ones(len(m), dtype=bool)
    for _ in range(3):
        x_ld = x.astype(np.longdouble)
        resid = rhs_ld - np.einsum("nij,nj->ni", m_ld, x_ld)
        corr = (minv @ resid.astype(float)[..., None])[..., 0]
        live &= np.isfinite(corr).all(axis=1)
        np.copyto(x, (x_ld + corr).astype(float), where=live[:, None])
    return x


def _solve_stack(system: MomentSystem, where: Callable[[int], str] = "stack row {}".format
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Steady states u = M^-1 P of a stack: (N, 15) moment vectors and (N,) condition numbers.

    The solve runs on the real system of _real_system and places x back
    into u exactly: each pair as exact conjugates, n1, n2 and nX exactly
    real.  A stack whose M or P is not conjugate-consistent, M[conj i, conj j]
    = conj(M[i, j]) over M's nonzeros with conj i the partner of moment i,
    raises NumericalError before any solve.  M is generically nonsingular for
    gamma0 > 0 (every moment decays at gamma0/2 or faster).  cond is the exact
    1-norm condition number ||M||_1 ||M^-1||_1 of the real M, from the solve's
    own LU; above 1e12 it warns, and above 1/eps or at an exactly singular M
    it raises, before any row is returned.  where(row) names the row in the
    ConditionWarning, the SingularSystemError and the NumericalError; it is
    called only for such a row.
    """
    n = len(system.matrix)
    flat = system.matrix.reshape(n, 225)
    bad = ((flat[:, _FLAT] != flat[:, _FLAT_CONJ].conj()).any(axis=1)
           | (system.drive != system.drive[:, _CONJ].conj()).any(axis=1))
    if bad.any():
        raise NumericalError(f"M or P is not conjugate-consistent at {where(int(bad.argmax()))}; "
                             "the regression matrix is inconsistent")
    m, rhs = _real_system(system)
    # One LU per point solves [P | I]: column 0 is the first solve, the rest M^-1.
    try:
        x = np.linalg.solve(m, np.concatenate(
            (rhs[..., None], np.broadcast_to(np.eye(15), m.shape)), axis=-1))
    except np.linalg.LinAlgError:  # an exactly singular factor; LAPACK names no row
        row = next(k for k in range(n) if np.linalg.cond(m[k], 1) == math.inf)
        raise SingularSystemError(math.inf, where(row)) from None
    minv = np.ascontiguousarray(x[..., 1:])
    # einsum sums the columns in half the time of sum(axis=-2), to the same bits.
    cond = (np.einsum("nij->nj", np.abs(m)).max(axis=-1)
            * np.einsum("nij->nj", np.abs(minv)).max(axis=-1))
    singular = 1.0 / np.finfo(float).eps
    for row, c in enumerate(cond.tolist()):
        if not math.isfinite(c) or c > singular:
            raise SingularSystemError(c, where(row))
        if c > _COND_WARN:
            # stacklevel 3 names the caller of steady_state or run_sweep.
            warnings.warn(f"moment solve 1-norm condition number {c:.3e} exceeds 1e12 at "
                          f"{where(row)}", ConditionWarning, stacklevel=3)
    x = _refined_solve(m, rhs, np.ascontiguousarray(x[..., 0]), minv)
    u = np.empty((n, 15), dtype=complex)
    u[:, _FIRST] = x[:, :12].view(complex)
    u[:, _SECOND] = u[:, _FIRST].conj()
    u[:, _REAL] = x[:, 12:]
    return u, cond


def steady_state(system: MomentSystem) -> MomentState:
    """Steady state of one (15, 15) system: the batch of one."""
    u, cond = _solve_stack(MomentSystem(system.matrix[None], system.drive[None]))
    return MomentState(u[0], *u[0, [IDX_N1, IDX_N2, IDX_NX]].real.tolist(),
                       *u[0, [IDX_S1, IDX_S2]].tolist(), cond.item())


def _populations(n1, n2, nx):
    """(rho00, rho10, rho01, rho11) from the excitation moments: floats or arrays alike."""
    return 1.0 + nx - n1 - n2, n1 - nx, n2 - nx, nx


def populations(state: MomentState) -> Populations:
    """Bare-state probabilities from the excitation moments."""
    return Populations(*_populations(state.n1, state.n2, state.nX))


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
