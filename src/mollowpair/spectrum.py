"""Production spectrum path: pole decomposition of the two-time regression.

The stationary correlator <sigma_e^dag(0) sigma_e(tau)> obeys the same
15-dimensional regression system as the one-time moments.  Eigendecomposing
that system splits the spectrum into Lorentzian/dispersive components with a
separate coherent (Rayleigh) delta weight; evaluating the components on a
grid is then trivial.  The two-time boundary vector is a selection of the
one-time moments, so one moment solve per point seeds the whole spectrum.
Parts of the coupling landscape make the full regression matrix defective
(at zero coherent coupling it carries a Jordan chain, mostly invisible to the
emitter correlator), so the decomposition first restricts the system to the
subspace that is both reachable from the boundary vector and observable by
the readout.  Eigenvalues that still collide there are decomposed through
their invariant subspace; a visible defect becomes a second-order pole with
its own lineshape.  The path is numpy only and never calls the
density-matrix oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError
from .moments import MomentState, build_moment_system, steady_state
from .operators import IDX_S1, IDX_S2, SEED_SELECTION
from .params import SystemParams

#: Relative gap below which eigenvalues count as one cluster.  A Jordan pair
#: splits by about sqrt(eps) of the matrix scale, well inside it.
CLUSTER_GAP = 1e-6
#: Eigenvector condition number above which clustered poles are decomposed
#: through their invariant subspaces instead of their eigenvectors.
SUSPECT_COND = 1e6
#: Weight pairs with both parts below this (relative to n_e) are zero.
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralComponent:
    """One emission pole: shift, full width, and its two real weights.

    A second-order (Jordan) pole also carries the weights L2_zeta, K2_zeta of
    its tau exp(-lambda tau) term; they are zero at a simple pole.
    """

    omega_zeta: float
    gamma_zeta: float
    L_zeta: float
    K_zeta: float
    L2_zeta: float = 0.0
    K2_zeta: float = 0.0


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


def _cluster_poles(h, vals, vecs, b, c, groups) -> list[tuple[complex, complex, complex]]:
    """Poles (lambda, b1, b2) of c^H exp(-h tau) b when eigenvalues collide.

    Each group of k clustered eigenvalues with mean mu is represented by an
    orthonormal basis X of its invariant subspace, the null space of
    (h - mu I)^k; the other eigenvalues keep their eigenvectors.  On
    T = [eigenvectors | X ...] h is block diagonal with blocks C = X^H h X, and
    exp(-C tau) = exp(-mu tau) (I - (C - mu I) tau + ...) gives the cluster
    the correlator term (b1 - b2 tau) exp(-mu tau) with b1 = c_X x0 and
    b2 = c_X (C - mu I) x0, where x0 is the cluster's part of T^-1 b and c_X
    its part of c^H T.  Exact when (C - mu I)^2 vanishes, as for a Jordan
    pair.
    """
    n = h.shape[0]
    clustered = {i for g in groups for i in g}
    single = [i for i in range(n) if i not in clustered]
    bases = []
    for g in groups:
        mu = vals[g].mean()
        _, _, vh = np.linalg.svd(np.linalg.matrix_power(h - mu * np.eye(n), len(g)))
        bases.append((mu, vh[-len(g):].conj().T))
    t = np.hstack([vecs[:, single]] + [x for _, x in bases])
    y = np.linalg.solve(t, b)
    cy = c.conj() @ t
    poles = [(vals[i], cy[j] * y[j], 0j) for j, i in enumerate(single)]
    col = len(single)
    for mu, x in bases:
        k = x.shape[1]
        cx, x0 = cy[col:col + k], y[col:col + k]
        nil = x.conj().T @ h @ x - mu * np.eye(k)
        poles.append((mu, cx @ x0, cx @ nil @ x0))
        col += k
    return poles


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


def _visible(b: complex, n_e: float) -> bool:
    """Whether a weight has a part at or above PRUNE_TOL relative to n_e."""
    return abs(b.real / n_e) >= PRUNE_TOL or abs(b.imag / n_e) >= PRUNE_TOL


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
    offset u <sigma_e^dag>; restrict the regression matrix to the part of
    the subspace it generates that the emitter correlator observes; expand
    the remainder over that matrix's eigenvectors and read off each mode's
    contribution to the emitter correlator.
    Widths are -2 Re and shifts -Im of the regression eigenvalues, and the
    delta weight is |<sigma_e>|^2 / n_e.

    Where eigenvalues collide and the eigenvector basis degrades (the one-way
    pair at the critical drive gamma0/8, the trapping line at strong drive),
    each cluster is expanded over its invariant subspace instead.  A visible
    Jordan pair becomes one second-order pole, a component with nonzero
    L2_zeta/K2_zeta; an invisible one has weights below PRUNE_TOL and drops.
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
    gamma0, the floor of the matrix scale, is read.  Eigenvalues that
    collide in the reduced system are expanded over their invariant
    subspace (_cluster_poles): a visible Jordan pair yields one component
    with second-order weights L2_zeta/K2_zeta, an invisible one is pruned.
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
    delta_weight = float(abs(coh) ** 2 / n_e)

    # Minimal realization of the scalar correlator: restrict to the subspace
    # reached from the boundary, then to the part observed by the readout
    # functional.  Sectors that are reachable but invisible to the emitter
    # correlator (at zero coherent coupling they hide a Jordan chain) drop
    # out here instead of poisoning the eigenvector basis.  An empty reachable
    # subspace leaves an empty observed one.
    reach = _invariant_basis(m, w, scale)
    m_r = reach.conj().T @ m @ reach
    b_r = reach.conj().T @ w
    c_r = np.conj(reach[readout, :])
    obs = _invariant_basis(m_r.conj().T, c_r, scale)
    if obs.shape[1] == 0:
        return SpectralDecomposition((), delta_weight, emitter)
    h = obs.conj().T @ m_r @ obs
    b_h = obs.conj().T @ b_r
    c_h = obs.conj().T @ c_r

    vals, vecs = np.linalg.eig(h)
    # A suspicious eigenvector basis means poles have collided: a cluster is
    # taken through its invariant subspace, which also covers a Jordan block
    # (a second-order pole).  Without a cluster the eigenvectors serve as is.
    groups = []
    if np.linalg.cond(vecs) > SUSPECT_COND:
        groups = _cluster_indices(vals, CLUSTER_GAP * scale)
    if groups:
        poles = _cluster_poles(h, vals, vecs, b_h, c_h, groups)
    else:
        contrib = (c_h.conj() @ vecs) * np.linalg.solve(vecs, b_h)
        poles = [(lam, b, 0j) for lam, b in _merge_poles(vals, contrib, scale)]

    components = []
    for lam, b, b2 in poles:
        if not _visible(b2, n_e):
            if not _visible(b, n_e):
                continue
            b2 = 0j
        components.append(SpectralComponent(
            omega_zeta=float(lam.imag),
            gamma_zeta=float(2.0 * lam.real),
            L_zeta=float((b / n_e).real),
            K_zeta=float((b / n_e).imag),
            L2_zeta=float((b2 / n_e).real),
            K2_zeta=float((b2 / n_e).imag),
        ))
    components.sort(key=lambda c: (c.omega_zeta, c.gamma_zeta))
    return SpectralDecomposition(tuple(components), delta_weight, emitter)


def evaluate_spectrum(d: SpectralDecomposition, grid: np.ndarray) -> np.ndarray:
    """Pointwise sum of the Lorentzian-plus-dispersive lineshapes.

    A second-order pole adds -Re[(L2 + i K2) / (lambda - i omega)^2] / pi,
    lambda = gamma_zeta / 2 + i omega_zeta.

    Serves the pair engine's decompose_spectrum and the single-emitter
    closed form mollow_coefficients alike.  The delta weight is never
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
        if c.L2_zeta or c.K2_zeta:
            # tau exp(-lambda tau) transforms to (lambda - i omega)^-2.
            z = half - 1j * shift
            out -= ((c.L2_zeta + 1j * c.K2_zeta) / (z * z)).real
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
