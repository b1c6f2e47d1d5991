"""Production spectrum path: pole decomposition of the two-time regression.

The stationary correlator <sigma_e^dag(0) sigma_e(tau)> obeys the same
15-dimensional regression system as the one-time moments.  Eigendecomposing
that system splits the spectrum into Lorentzian/dispersive components with a
separate coherent (Rayleigh) delta weight; evaluating the components on a
grid is then trivial.  The two-time boundary vector is a selection of the
one-time moments, so one moment solve per point seeds the whole spectrum,
and a sweep decomposes all its points in one batched pass.

One batched eig of the full regression matrix M routes the points.  Where
its eigenvector basis V has an exact 1-norm condition number
||V||_1 ||V^-1||_1 at most DIRECT_COND (read from the LU that gives the
weights V^-1 w) and its eigenvalues lie pairwise at least CLUSTER_GAP apart
(the generic case), a point is expanded over M's own eigenvectors: the
direct route.  Elsewhere M is defective or nearly so (at zero coherent
coupling it carries a Jordan chain, mostly invisible to the emitter
correlator), so the Krylov route first restricts the system to the subspace
that is both reachable from the boundary vector and observable by the
readout.  Eigenvalues that still collide there are decomposed through their
invariant subspace; a visible defect becomes a second-order pole with its
own lineshape.  A spectrum is undefined where neither emitter is driven, or
where the emitter's population is at the rounding level of n1 + n2.  The
path is numpy only and never calls the density-matrix oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError
from .moments import (IDX_N1, IDX_N2, IDX_S1, IDX_S2, SEED_SELECTION, _moment_columns,
                      _real_system, _solve_inverse, _solve_stack, build_moment_systems)
from .params import SystemParams

#: Relative gap below which eigenvalues count as one cluster.  A Jordan pair
#: splits by about sqrt(eps) of the matrix scale, well inside it.
CLUSTER_GAP = 1e-6
#: Exact 1-norm condition number of a reduced eigenvector basis, from the LU of its weights,
#: above which clustered poles are decomposed through their invariant subspaces.
SUSPECT_COND = 1e6
#: Weight pairs with both parts below this times the incoherent weight are zero.
PRUNE_TOL = 1e-12
#: Exact 1-norm condition number of M's eigenvector basis, from the LU of its weights, up
#: to which a point whose eigenvalues lie apart takes the direct route.
DIRECT_COND = 1.75e2
#: An emitter population at or below this multiple of n1 + n2 is rounding.
ROUNDING_POPULATION = 16.0 * np.finfo(float).eps


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


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: dots of the same strided real/imag views."""
    re, im = v.real, v.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _invariant_bases(m, w, scale) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases q[i, :, :dims[i]] of the smallest M-invariant subspaces containing w.

    Arnoldi with full reorthogonalization, in lockstep over the stack; a row
    stops when its next direction couples below 1e-10 of its matrix scale,
    which keeps roundoff from dragging in invisible sectors (at zero coherent
    coupling M hides a Jordan chain the correlator never touches).  Products
    take whole-stack views, never row-indexed copies: an operand's memory
    layout picks the BLAS kernel, and with it the bits.
    """
    q = np.zeros(w.shape + w.shape[1:], dtype=complex)
    nw = _norms(w)
    live = nw != 0.0
    q[live, :, 0] = w[live] / nw[live, None]
    dims = live.astype(int)
    for k in range(w.shape[1] - 1):
        if not live.any():
            break
        v = (m @ q[:, :, k, None])[..., 0]
        basis = q[:, :, :k + 1]
        basis_h = basis.conj().transpose(0, 2, 1)
        for _ in range(2):
            v -= (basis @ (basis_h @ v[..., None]))[..., 0]
        nv = _norms(v)
        live &= ~(nv < 1e-10 * scale)
        q[live, :, k + 1] = v[live] / nv[live, None]
        dims += live
    return q, dims


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
    """Poles (lambda, b1, b2) of c^H exp(-h tau) b when eigenvalues collide, zero-padded to len(h).

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
    return poles + [(0j, 0j, 0j)] * (n - len(poles))


def _check_emitter(emitter: int) -> None:
    if emitter not in (1, 2):
        raise ParameterError(f"emitter must be 1 or 2, got {emitter}")


def boundary_vector(u: np.ndarray, emitter: int = 1) -> np.ndarray:
    """Zero-delay seeds Tr[O_i rho_ss sigma_e^dag] = <sigma_e^dag O_i> from moments u.

    Each sigma_e^dag O_i is zero or another moment operator, so the seeds
    are moment coordinates: the sigma_e coordinate reads the emitter
    population, and every coordinate whose operator already raises the same
    emitter vanishes (sigma^dag sigma^dag = 0).  u is one moment vector or
    a stack of them, one per row.
    """
    _check_emitter(emitter)
    return (SEED_SELECTION[emitter] @ u[..., None])[..., 0]


def decompose_spectrum(p: SystemParams, emitter: int = 1) -> SpectralDecomposition:
    """Split one emitter's emission spectrum into pole components.

    The batch of one of the sweep's engine, _decompose_stack: build and solve
    the moment system for u; seed the two-time boundary vector
    <sigma_e^dag O_i> by selecting coordinates of u (boundary_vector) and
    subtract the infinite-delay offset u <sigma_e^dag>; expand it over the
    eigenvectors of the regression matrix M, one pole per eigenvalue.  Where
    M's eigenvector basis is well conditioned and its eigenvalues apart, that
    basis is M's own (the direct route); elsewhere M is first restricted to
    the part of the subspace it generates that the emitter correlator
    observes (the Krylov route).  Widths are -2 Re and shifts -Im of the
    regression eigenvalues, and the delta weight is |<sigma_e>|^2 / n_e.

    Where eigenvalues collide and the reduced eigenvector basis degrades (the
    one-way pair at the critical drive gamma0/8, the trapping line at strong
    drive), each cluster is expanded over its invariant subspace.  A visible
    Jordan pair becomes one second-order pole, a component with nonzero
    L2_zeta/K2_zeta; an invisible one has weights below _prune's cut and drops.
    An undefined spectrum raises UnsupportedConfigurationError with the engine's reason.
    """
    d = _check_defined(p, emitter)
    if d is None:
        system = build_moment_systems([p])
        real_m, rhs = _real_system(system)
        (d,) = _decompose_stack(system.matrix, real_m, _solve_stack(real_m, rhs)[0], emitter)
    if isinstance(d, str):
        raise UnsupportedConfigurationError(f"{d}; its spectrum is undefined")
    return d


def _check_defined(p: SystemParams, emitter: int) -> str | None:
    """Why the spectrum is undefined before anything is solved, or None.

    Undriven, the pair has no spectrum, and at g = 0, gamma = gamma0 M is singular.
    """
    _check_emitter(emitter)
    if p.omega1 == 0.0 and p.omega2 == 0.0:
        return "neither emitter is driven (omega1 = omega2 = 0)"
    return None


def _decompose_stack(m: np.ndarray, real_m: np.ndarray, u: np.ndarray, emitter: int) -> list:
    """decompose_spectrum at solved points: (N, 15, 15) M, the solve's real M and (N, 15) u.

    On the direct route each eigenvalue of M is a pole with weight
    V[readout, k] (V^-1 w)_k; the sectors the correlator never sees get
    rounding-level weights that _prune drops.  Every other point takes
    _krylov_poles.  Both routes fill one zero-padded pole array for _prune.
    A point whose emitter population is at most ROUNDING_POPULATION (n1 + n2)
    gets the reason its spectrum is undefined in place of its decomposition.
    """
    # The correlator <sig_e^dag(0) sig_e(tau)> sits at the sigma_e coordinate.
    readout = IDX_S1 if emitter == 1 else IDX_S2
    n_e, coh = u[:, IDX_N1 if emitter == 1 else IDX_N2].real, u[:, readout]
    excited = ~(n_e <= ROUNDING_POPULATION * (u[:, IDX_N1].real + u[:, IDX_N2].real))
    m, real_m, u, n_e, coh = m[excited], real_m[excited], u[excited], n_e[excited], coh[excited]
    w = boundary_vector(u, emitter) - u * np.conj(coh)[:, None]
    # At least 2 gamma0, the <n1 n2> diagonal: a float sum of non-negative terms is >= each term.
    scale = np.abs(m).sum(axis=-1).max(axis=-1)

    # M is similar to the real T^-1 M T of the moment solve, whose eig is cheaper.
    vals, vecs = np.linalg.eig(real_m)
    vecs = _moment_columns(vecs)
    gaps = np.abs(vals[:, :, None] - vals[:, None, :]) + np.diag(np.full(15, np.inf))
    weights, _, cond = _solve_inverse(vecs, w)
    direct = (cond <= DIRECT_COND) & (gaps.min(axis=(1, 2)) >= CLUSTER_GAP * scale)
    poles = np.zeros(u.shape + (3,), dtype=complex)
    poles[direct, :, :2] = np.stack((vals, vecs[:, readout, :] * weights), axis=-1)[direct]
    if not direct.all():
        poles[~direct] = _krylov_poles(m[~direct], w[~direct], scale[~direct], readout)
    pruned = iter(_prune(poles, n_e, coh, emitter))
    return [next(pruned) if row else f"emitter {emitter} is not excited (population at the "
            "rounding level of n1 + n2)" for row in excited.tolist()]


def _krylov_poles(m, w, scale, readout) -> np.ndarray:
    """Poles (lambda, b1, b2) of a stack's rows from a minimal realization, zero-padded (N, 15, 3).

    The reductions run over the stack, row groups of equal reachable and then
    observed dimension in lockstep.  Each group's reduced systems are
    decomposed where they are formed: one eig and one LU for weights and cond;
    only the cluster step runs per point.  A row whose correlator realizes to
    nothing keeps zeros.
    """
    # The Krylov route, for points whose eigenbasis of M is ill-conditioned or
    # whose eigenvalues cluster: restrict to the subspace reached from the
    # boundary, then to the part observed by the readout functional.  Sectors
    # that are reachable but invisible to the emitter correlator drop out here
    # instead of poisoning the eigenvector basis.
    poles = np.zeros(w.shape + (3,), dtype=complex)
    reach, dims = _invariant_bases(m, w, scale)
    for d in np.unique(dims[dims > 0]):
        sel = np.flatnonzero(dims == d)
        q = reach[sel][:, :, :d]
        qh = q.conj().transpose(0, 2, 1)
        m_r = qh @ m[sel] @ q
        b_r = (qh @ w[sel][..., None])[..., 0]
        c_r = np.conj(q[:, readout, :])
        obs, odims = _invariant_bases(m_r.conj().transpose(0, 2, 1), c_r, scale[sel])
        for e in np.unique(odims[odims > 0]):
            sub = np.flatnonzero(odims == e)
            idx, o = sel[sub], obs[sub][:, :, :e]
            oh = o.conj().transpose(0, 2, 1)
            h = oh @ m_r[sub] @ o
            b_h, c_h = (oh @ b_r[sub][..., None])[..., 0], (oh @ c_r[sub][..., None])[..., 0]
            vals, vecs = np.linalg.eig(h)
            # One LU gives every row's weights and cond.  A suspicious basis means poles have
            # collided: each cluster goes through its invariant subspace, Jordan blocks included.
            weights, _, cond = _solve_inverse(vecs, b_h)
            contrib = (c_h.conj()[:, None, :] @ vecs)[:, 0, :] * weights
            poles[idx, :e, :2] = np.stack((vals, contrib), axis=-1)
            for j in np.flatnonzero(cond > SUSPECT_COND):
                groups = _cluster_indices(vals[j], CLUSTER_GAP * scale[idx[j]])
                if groups:
                    poles[idx[j], :e] = _cluster_poles(h[j], vals[j], vecs[j], b_h[j], c_h[j],
                                                       groups)
    return poles


def _prune(poles: np.ndarray, n_e: np.ndarray, coh: np.ndarray, emitter: int) -> list:
    """Each row's decomposition from a zero-padded (N, 15, 3) stack of poles (lambda, b1, b2).

    A pole drops where both parts of both weights b / n_e lie below PRUNE_TOL times the row's
    incoherent weight 1 - |<sigma_e>|^2 / n_e (floored at eps), which shrinks like omega^2 at
    weak drive; the zero padding always drops.  Components sort by (omega_zeta, gamma_zeta).
    """
    b = poles[..., 1:] / n_e[:, None, None]
    delta = [abs(c) ** 2 / n for c, n in zip(coh.tolist(), n_e.tolist())]
    tol = PRUNE_TOL * np.maximum(1.0 - np.array(delta), np.finfo(float).eps)
    faint = np.maximum(abs(b.real), abs(b.imag)) < tol[:, None, None]
    b[..., 1][faint[..., 1]] = 0.0
    table = np.concatenate((poles[..., :1].imag, 2.0 * poles[..., :1].real, b.view(float)), -1)
    order = np.lexsort((table[..., 1], table[..., 0]), axis=-1)
    keep = np.take_along_axis(~faint.all(axis=-1), order, axis=-1)
    components = iter([SpectralComponent(*row) for row in
                       np.take_along_axis(table, order[..., None], axis=1)[keep].tolist()])
    return [SpectralDecomposition(tuple(itertools.islice(components, k)), d, emitter)
            for k, d in zip(keep.sum(axis=-1).tolist(), delta)]


def evaluate_spectrum(d: SpectralDecomposition, grid: np.ndarray) -> np.ndarray:
    """Pointwise sum of the Lorentzian-plus-dispersive lineshapes.

    A second-order pole adds -Re[(L2 + i K2) / (lambda - i omega)^2] / pi,
    lambda = gamma_zeta / 2 + i omega_zeta.

    Serves the pair engine's decompose_spectrum and the single-emitter
    closed form mollow_coefficients alike.  The delta weight is never
    rasterized onto the grid.
    """
    grid = _as_grid(grid)
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


def _as_grid(grid) -> np.ndarray:
    """grid as a float array, which must be finite, strictly increasing and 1-d."""
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0.0)):
        raise ParameterError("grid must be a finite, strictly increasing 1-d array")
    return grid


def default_grid(p: SystemParams, points: int = 2001) -> np.ndarray:
    """Symmetric frequency grid around the drive, from the parameters alone.

    Spans 1.5 * (f + g + |delta| + 3 gamma0), where f is the dressed splitting:
    the quintuplet satellites and, off resonance, the lines near +-(delta +- g)
    stay in-window.  The window is a heuristic, not a bound on every pole.
    """
    f = math.sqrt(p.g**2 + 4.0 * max(p.omega1, p.omega2) ** 2)
    half = 1.5 * (f + p.g + abs(p.delta) + 3.0 * p.gamma0)
    return np.linspace(-half, half, points)


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima of a sampled curve."""
    v = np.asarray(values)
    mask = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return np.nonzero(mask)[0] + 1
