"""Brute-force density-matrix oracle for the pair.

Everything here works in the full 4-dimensional Hilbert space through the
vectorized 16x16 generator: steady states from its kernel and the emission
spectrum from the regression resolvent.  It shares no code with the
15-dimensional moment machinery, which it exists to cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    NumericalError,
    ParameterError,
    UnsupportedConfigurationError,
)
from .hamiltonian import build_pair_hamiltonian
from .operators import EYE4, SIGMA1, SIGMA2
from .params import SystemParams

#: Absolute tolerance (units of gamma0) for calling a generator eigenvalue zero.
KERNEL_TOL = 1e-9
#: Most negative admissible density-matrix eigenvalue.
POSITIVITY_TOL = -1e-10
#: An emitter population at or below this multiple of the total excitation
#: n1 + n2 is rounding: that emitter is never excited.
EXCITATION_FLOOR = 16.0 * np.finfo(float).eps


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a 4x4 matrix into a 16-vector."""
    return np.asarray(rho, dtype=complex).reshape(16, order="F")


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of vectorize."""
    return np.asarray(vec, dtype=complex).reshape((4, 4), order="F")


def _left_right(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a @ rho @ b under column stacking."""
    return np.kron(b.T, a)


def _dissipator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> 2 a rho b^dag - b^dag a rho - rho b^dag a."""
    bda = b.conj().T @ a
    return 2.0 * _left_right(a, b.conj().T) - _left_right(bda, EYE4) - _left_right(EYE4, bda)


@dataclass
class Liouvillian:
    """Vectorized generator of the master equation."""

    matrix: np.ndarray
    params: SystemParams


def build_liouvillian(p: SystemParams) -> Liouvillian:
    """Assemble the 16x16 generator from the Hamiltonian and the four
    dissipator lines: one local decay channel per emitter at gamma0 and the
    two phase-carrying cross channels at gamma/2 * e^{+-i phi}."""
    h = build_pair_hamiltonian(p)
    eiphi = np.exp(1j * p.phi)
    mat = 1j * (_left_right(EYE4, h) - _left_right(h, EYE4))
    mat += 0.5 * p.gamma0 * _dissipator(SIGMA1, SIGMA1)
    mat += 0.5 * p.gamma0 * _dissipator(SIGMA2, SIGMA2)
    mat += 0.5 * p.gamma * eiphi * _dissipator(SIGMA2, SIGMA1)
    mat += 0.5 * p.gamma * np.conj(eiphi) * _dissipator(SIGMA1, SIGMA2)
    return Liouvillian(matrix=mat, params=p)


def validate_density_matrix(rho: np.ndarray, context: str = "density matrix") -> None:
    """Hermiticity, unit trace and positivity up to solver-noise tolerances."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-12:
        raise NumericalError(f"{context}: Hermiticity residual {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-12:
        raise NumericalError(f"{context}: trace deviates from 1 by {abs(tr - 1.0):.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < POSITIVITY_TOL:
        raise NumericalError(f"{context}: negative eigenvalue {eigs.min():.3e}")


def steady_state_dm(lv: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix from the generator kernel.

    Raises DegenerateSteadyStateError when the kernel dimension exceeds one
    (the undriven, maximally dissipatively coupled point has a dark state).
    """
    scale = lv.params.gamma0
    vals = np.linalg.eigvals(lv.matrix)
    kernel_dim = int(np.sum(np.abs(vals) < KERNEL_TOL * scale))
    if kernel_dim == 0:
        raise NumericalError("no Liouvillian eigenvalue within tolerance of zero")
    if kernel_dim > 1:
        raise DegenerateSteadyStateError(kernel_dim)
    # Kernel vector via a square solve with the trace row in place of the
    # rho_00 equation, which the other fifteen imply (L preserves the trace).
    # A norm-weighted least-squares fit loses populations far below
    # eps * ||L||, as under weak drive with strong coherent coupling.
    a = lv.matrix.copy()
    a[0] = vectorize(np.eye(4)).conj()
    b = np.zeros(16, dtype=complex)
    b[0] = 1.0
    sol = np.linalg.solve(a, b)
    rho = devectorize(sol)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    validate_density_matrix(rho, "steady state")
    return rho


def _emitter_sigma(emitter: int) -> np.ndarray:
    """Lowering operator sigma_e of emitter 1 or 2."""
    if emitter not in (1, 2):
        raise ParameterError(f"emitter must be 1 or 2, got {emitter}")
    return SIGMA1 if emitter == 1 else SIGMA2


def liouville_spectrum(
    lv: Liouvillian, grid: np.ndarray, emitter: int = 1
) -> tuple[np.ndarray, float]:
    """Emission spectrum and delta weight from the regression resolvent in Liouville space.

    S(w) = -Re[r^T (L' + i w)^-1 y] / (pi n_e) with the readout r = vec(sigma_e^T) and
    the seed y = vec(rho sigma_e^dag) - conj(<sigma_e>) vec(rho): the correlator's
    tau = 0 boundary without its coherent plateau, which is returned as the delta
    weight |<sigma_e>|^2 / n_e.  L' = L - gamma0 vec(rho) vec(I)^H equals L on
    traceless vectors such as y and moves the kernel eigenvalue to -gamma0, so
    L' + i w is invertible at every real w: one 16x16 solve per grid point, exact at
    defective generators and on any grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ParameterError("grid must be a strictly increasing 1-d array")
    sig = _emitter_sigma(emitter)
    p = lv.params
    # Undriven, the pair has no spectrum; at g = 0, gamma = gamma0 its steady
    # state is not even unique, so this is decided before any solve.
    if p.omega1 == 0.0 and p.omega2 == 0.0:
        raise UnsupportedConfigurationError(
            "neither emitter is driven (omega1 = omega2 = 0); its spectrum is undefined"
        )
    rho_ss = steady_state_dm(lv)
    n1, n2 = (float(np.trace(op.conj().T @ op @ rho_ss).real) for op in (SIGMA1, SIGMA2))
    n_e = n1 if emitter == 1 else n2
    if n_e <= EXCITATION_FLOOR * (n1 + n2):
        raise UnsupportedConfigurationError(
            f"emitter {emitter} is not excited (population at the rounding level of n1 + n2); "
            "its spectrum is undefined"
        )
    coherent = np.trace(sig @ rho_ss)
    rho_vec = vectorize(rho_ss)
    seed = vectorize(rho_ss @ sig.conj().T) - np.conj(coherent) * rho_vec
    deflated = lv.matrix - p.gamma0 * np.outer(rho_vec, vectorize(EYE4).conj())
    shifted = np.repeat(deflated[None], grid.size, axis=0)
    diag = np.arange(16)
    shifted[:, diag, diag] += 1j * grid[:, None]
    x = np.linalg.solve(shifted, np.broadcast_to(seed[:, None], (grid.size, 16, 1)))[..., 0]
    values = -(x @ vectorize(sig.T)).real / (math.pi * n_e)  # Tr[sigma_e X] per row
    return values, float(abs(coherent) ** 2 / n_e)
