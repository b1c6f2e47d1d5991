"""Production spectrum path: pole decomposition of the two-time regression.

The stationary correlator <sigma_e^dag(0) sigma_e(tau)> obeys the same
15-dimensional regression system as the one-time moments.  Eigendecomposing
that system splits the spectrum into Lorentzian/dispersive components with a
separate coherent (Rayleigh) delta weight; evaluating the components on a
grid is then trivial.  The two-time boundary vector is a selection of the
one-time moments, so one moment solve per point seeds the whole spectrum.
Parts of the coupling landscape make the full regression matrix defective
(at zero coherent coupling it carries a Jordan chain), but the chain is
invisible to the emitter correlator, so the decomposition first restricts
the system to the subspace that is both reachable from the boundary vector
and observable by the readout; only a defect in that visible part is
reported as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateEigenvectorError, ParameterError, UnsupportedConfigurationError
from .moments import MomentState, build_moment_system, steady_state
from .operators import IDX_S1, IDX_S2, SEED_SELECTION
from .params import SystemParams

if TYPE_CHECKING:
    from .single_emitter import MollowCoefficients

#: Relative gap below which eigenvalues count as one cluster.
CLUSTER_GAP = 1e-8
#: Eigenvector condition number above which degenerate clusters get repaired.
SUSPECT_COND = 1e6
#: Eigenvector condition number that marks the restricted system defective.
DEFECT_COND = 1e8
#: Components with both weights below this are zero-projection modes.
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralComponent:
    """One emission pole: shift, full width, and its two real weights."""

    omega_zeta: float
    gamma_zeta: float
    L_zeta: float
    K_zeta: float


@dataclass(frozen=True)
class SpectralDecomposition:
    """Pole components of one emitter's spectrum plus the Rayleigh weight."""

    components: tuple[SpectralComponent, ...]
    delta_weight: float
    emitter: int

    @property
    def lorentzian_sum(self) -> float:
        return sum(c.L_zeta for c in self.components)


def _invariant_basis(m: np.ndarray, w: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal basis of the smallest M-invariant subspace containing w.

    Arnoldi with full reorthogonalization; terminates when the next direction
    couples below 1e-10 of the matrix scale.  The restriction of M to this
    subspace carries exactly the poles that the boundary vector can excite;
    the cutoff keeps roundoff from dragging in invisible sectors (at zero
    coherent coupling M hides a Jordan chain the correlator never touches).
    """
    n = m.shape[0]
    q = np.zeros((n, n), dtype=complex)
    nw = np.linalg.norm(w)
    if nw == 0.0:
        return q[:, :0]
    q[:, 0] = w / nw
    dim = 1
    for k in range(n - 1):
        v = m @ q[:, k]
        for _ in range(2):
            v -= q[:, :dim] @ (q[:, :dim].conj().T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-10 * scale:
            break
        q[:, dim] = v / nv
        dim += 1
    return q[:, :dim]


def _cluster_indices(values: np.ndarray, gap: float) -> list[list[int]]:
    """Group eigenvalue indices whose mutual distance is below gap."""
    order = np.argsort(values.real, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        for group in groups:
            if abs(values[idx] - values[group[0]]) < gap:
                group.append(int(idx))
                break
        else:
            groups.append([int(idx)])
    return [g for g in groups if len(g) > 1]


def _repair_semisimple(m_red, vals, vecs, scale):
    """Rebuild eigenvector columns inside degenerate but semisimple clusters.

    For a non-normal matrix with an exactly repeated eigenvalue the solver
    may return nearly parallel eigenvectors even when a full eigenspace
    exists; an orthonormal null-space basis of (M - mu I) restores a
    well-conditioned expansion.  Returns None when some cluster is genuinely
    defective (geometric multiplicity below the algebraic one).
    """
    vals = vals.copy()
    vecs = vecs.copy()
    for group in _cluster_indices(vals, 1e-6 * scale):
        mu = vals[group].mean()
        u, s, vh = np.linalg.svd(m_red - mu * np.eye(m_red.shape[0]))
        tol = max(1e-8 * scale, 10.0 * np.max(np.abs(vals[group] - mu)))
        nullity = int(np.sum(s < tol))
        if nullity < len(group):
            return None
        basis = vh.conj().T[:, -len(group):]
        for col, idx in enumerate(group):
            vals[idx] = mu
            vecs[:, idx] = basis[:, col]
    return vals, vecs


def _merge_poles(vals, contrib, scale) -> list[tuple[complex, complex]]:
    """Sum the contributions of coinciding poles, keeping exact pole values."""
    order = np.lexsort((vals.imag, vals.real))
    merged: list[list] = []
    for idx in order:
        lam, b = vals[idx], contrib[idx]
        if merged and abs(lam - merged[-1][0]) < 1e-9 * scale:
            merged[-1][1] += b
        else:
            merged.append([lam, b])
    return [(lam, b) for lam, b in merged]


def _clustered(values: np.ndarray, scale: float) -> list[complex]:
    """Eigenvalues participating in near-degenerate clusters.

    A numerically split Jordan pair separates by about sqrt(eps), so the
    nominal CLUSTER_GAP threshold is widened until something is found.
    """
    for gap in (CLUSTER_GAP, 1e-6, 1e-4):
        out: list[complex] = []
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if abs(values[i] - values[j]) < gap * scale:
                    out.extend([complex(values[i]), complex(values[j])])
        if out:
            return out
    return [complex(z) for z in sorted(values, key=abs)[:2]]


def boundary_vector(u: np.ndarray, emitter: int = 1) -> np.ndarray:
    """Zero-delay seeds Tr[O_i rho_ss sigma_e^dag] = <sigma_e^dag O_i> from moments u.

    Each sigma_e^dag O_i is zero or another moment operator, so the seeds
    are moment coordinates: the sigma_e coordinate reads the emitter
    population, and every coordinate whose operator already raises the same
    emitter vanishes (sigma^dag sigma^dag = 0).
    """
    return SEED_SELECTION[emitter] @ u


def decompose_spectrum(p: SystemParams, emitter: int = 1) -> SpectralDecomposition:
    """Split one emitter's emission spectrum into pole components.

    Procedure: build the regression system and solve it for the steady-state
    moments u; seed the two-time boundary vector <sigma_e^dag O_i> by
    selecting coordinates of u (boundary_vector); subtract the infinite-delay
    offset u <sigma_e^dag>; expand the remainder over the eigenvectors of the
    regression matrix restricted to the subspace it generates; read off each
    mode's contribution to the emitter correlator.
    Widths are -2 Re and shifts -Im of the regression eigenvalues, and the
    delta weight is |<sigma_e>|^2 / n_e.

    Raises
    ------
    DegenerateEigenvectorError
        When the restricted regression matrix is defective within tolerance,
        naming the clustered eigenvalues; fall back to the oracle spectrum.
    """
    _check_defined(p, emitter)
    system = build_moment_system(p)
    return _decompose(p, emitter, system.matrix, steady_state(system))


def _check_defined(p: SystemParams, emitter: int) -> None:
    """Reject an emitter whose spectrum is undefined before anything is solved."""
    if emitter not in (1, 2):
        raise ParameterError(f"emitter must be 1 or 2, got {emitter}")
    if emitter == 1 and p.omega1 == 0.0:
        raise UnsupportedConfigurationError(
            "emitter 1 is undriven (omega1 = 0); its spectrum is undefined"
        )


def _decompose(p: SystemParams, emitter: int, m: np.ndarray, state: MomentState
               ) -> SpectralDecomposition:
    """decompose_spectrum at a point already solved: its (15, 15) M and moment state.

    The sweep passes the states of its one batched moment solve; of p only
    gamma0, the floor of the matrix scale, is read.
    """
    n_e = state.n1 if emitter == 1 else state.n2
    coh = state.s1 if emitter == 1 else state.s2
    if n_e <= 0.0:
        raise UnsupportedConfigurationError(
            f"emitter {emitter} population is zero; its spectrum is undefined"
        )
    # The correlator <sig_e^dag(0) sig_e(tau)> sits at the sigma_e coordinate.
    readout = IDX_S1 if emitter == 1 else IDX_S2

    w = boundary_vector(state.u, emitter) - state.u * np.conj(coh)

    scale = max(float(np.linalg.norm(m, ord=np.inf)), p.gamma0)

    # Minimal realization of the scalar correlator: restrict to the subspace
    # reached from the boundary, then to the part observed by the readout
    # functional.  Sectors that are reachable but invisible to the emitter
    # correlator (at zero coherent coupling they hide a Jordan chain) drop
    # out here instead of poisoning the eigenvector basis.
    reach = _invariant_basis(m, w, scale)
    if reach.shape[1] == 0:
        return SpectralDecomposition((), float(abs(coh) ** 2 / n_e), emitter)
    m_r = reach.conj().T @ m @ reach
    b_r = reach.conj().T @ w
    c_r = np.conj(reach[readout, :])
    obs = _invariant_basis(m_r.conj().T, c_r, scale)
    if obs.shape[1] == 0:
        return SpectralDecomposition((), float(abs(coh) ** 2 / n_e), emitter)
    h = obs.conj().T @ m_r @ obs
    b_h = obs.conj().T @ b_r
    c_h = obs.conj().T @ c_r

    vals, vecs = np.linalg.eig(h)
    # A suspicious eigenvector basis means poles have collided: either a
    # degenerate eigenvalue with a full eigenspace (repairable by replacing
    # the cluster's eigenvectors with a null-space basis) or a Jordan block
    # (defective, not representable by simple Lorentzians: raise).
    if np.linalg.cond(vecs) > SUSPECT_COND:
        repaired = _repair_semisimple(h, vals, vecs, scale)
        if repaired is None or np.linalg.cond(repaired[1]) > DEFECT_COND:
            raise DegenerateEigenvectorError(_clustered(vals, p.gamma0))
        vals, vecs = repaired
    contrib = (c_h.conj() @ vecs) * np.linalg.solve(vecs, b_h)

    components = [
        SpectralComponent(
            omega_zeta=float(lam.imag),
            gamma_zeta=float(2.0 * lam.real),
            L_zeta=float((b / n_e).real),
            K_zeta=float((b / n_e).imag),
        )
        for lam, b in _merge_poles(vals, contrib, scale)
        if abs(b.real / n_e) >= PRUNE_TOL or abs(b.imag / n_e) >= PRUNE_TOL
    ]
    components.sort(key=lambda c: (c.omega_zeta, c.gamma_zeta))
    delta_weight = abs(coh) ** 2 / n_e
    return SpectralDecomposition(tuple(components), float(delta_weight), emitter)


def evaluate_spectrum(
    d: SpectralDecomposition | MollowCoefficients, grid: np.ndarray
) -> np.ndarray:
    """Pointwise sum of the Lorentzian-plus-dispersive lineshapes.

    Reads only d.components, so it evaluates a SpectralDecomposition and a
    single-emitter MollowCoefficients alike.  The delta weight is never
    rasterized onto the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ParameterError("grid must be a strictly increasing 1-d array")
    out = np.zeros_like(grid)
    for c in d.components:
        half = 0.5 * c.gamma_zeta
        shift = grid - c.omega_zeta
        out += (half * c.L_zeta - shift * c.K_zeta) / (half * half + shift * shift)
    return out / math.pi


def default_grid(p: SystemParams, points: int = 2001) -> np.ndarray:
    """Symmetric frequency grid wide enough for every predicted peak.

    Spans 1.5 * (f + g + 3 gamma0) around the drive, where f is the dressed
    splitting, so the outermost quintuplet satellites stay in-window.
    """
    f = math.sqrt(p.g**2 + 4.0 * max(p.omega1, p.omega2) ** 2)
    half = 1.5 * (f + p.g + 3.0 * p.gamma0)
    return np.linspace(-half, half, points)


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima of a sampled curve."""
    v = np.asarray(values)
    mask = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return np.nonzero(mask)[0] + 1
