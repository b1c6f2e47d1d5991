"""Pole decomposition of the two-time regression system and grid evaluation."""

import math
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest

import mollowpair.spectrum as spectrum
from mollowpair.errors import ParameterError, UnsupportedConfigurationError
from mollowpair.liouville import build_liouvillian, liouville_spectrum, steady_state_dm
from mollowpair.moments import (
    IDX_N1,
    IDX_S1,
    IDX_S2,
    SEED_SELECTION,
    MomentSystem,
    _moment_columns,
    _real_system,
    _solve_stack,
    build_moment_system,
    build_moment_systems,
    steady_state,
)
from mollowpair.operators import (
    MOMENT_OPERATORS,
    SIGMA1_DAG,
    SIGMA2_DAG,
)
from mollowpair.params import (
    SystemParams,
    asymmetric_pair,
    coherent_pair,
    dissipative_pair,
    unidirectional_pair,
)
from mollowpair.single_emitter import (
    SingleParams,
    critical_drive,
    mollow_coefficients,
    single_spectrum,
)
from mollowpair.spec import load_preset, preset_names
from mollowpair.spectrum import (
    SpectralComponent,
    SpectralDecomposition,
    boundary_vector,
    decompose_spectrum,
    default_grid,
    evaluate_spectrum,
    local_maxima,
)

from conftest import random_params
from test_moments import _exact, _exact_solve, _exact_steady_state


def test_boundary_vector_operator_identities():
    # The seeds selected from the moment state equal Tr[O_i rho sigma_e^dag]
    # on the oracle's density matrix, for both emitters.
    p = asymmetric_pair(0.6, 0.9, 0.8, 1.3)
    rho = steady_state_dm(build_liouvillian(p))
    st = steady_state(build_moment_system(p))
    for emitter, sig_dag in ((1, SIGMA1_DAG), (2, SIGMA2_DAG)):
        oracle = np.array([np.trace(op @ rho @ sig_dag) for op in MOMENT_OPERATORS])
        np.testing.assert_allclose(boundary_vector(st.u, emitter), oracle, rtol=0.0, atol=1e-12)

    # sigma^dag sigma^dag = 0 and sigma^dag sigma sigma = sigma pin several
    # boundary components exactly; the sigma_e component is the population.
    v0 = boundary_vector(st.u, emitter=1)
    assert v0[0] == pytest.approx(st.n1, abs=1e-10)      # <s1d s1>
    assert v0[2] == pytest.approx(0.0, abs=1e-14)        # <s1d s1d>
    assert v0[4] == pytest.approx(0.0, abs=1e-14)        # <s1d n1> = 0
    assert v0[11] == pytest.approx(st.nX, abs=1e-10)     # <s1d s1 n2>


def _product_selection(left):
    """0/1 matrix S with <left O_i> = (S u)_i, derived from the operator algebra.

    Each product left @ O_i must be zero or exactly one moment operator O_j;
    anything else fails the unpacking below.
    """
    sel = np.zeros((len(MOMENT_OPERATORS), len(MOMENT_OPERATORS)))
    for i, op in enumerate(MOMENT_OPERATORS):
        prod = left @ op
        if prod.any():
            (j,) = [j for j, o in enumerate(MOMENT_OPERATORS) if np.array_equal(o, prod)]
            sel[i, j] = 1.0
    return sel


def test_seed_table_matches_operator_algebra():
    # The seed table that moments writes out as literals is the sigma_e^dag O_i
    # product table of the operator algebra, bit for bit, and is laid out as
    # the C-contiguous float64 matrix that boundary_vector's matmul reads.
    assert sorted(SEED_SELECTION) == [1, 2]
    for emitter, sig_dag in ((1, SIGMA1_DAG), (2, SIGMA2_DAG)):
        table, derived = SEED_SELECTION[emitter], _product_selection(sig_dag)
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.shape == derived.shape and table.tobytes() == derived.tobytes()


@pytest.mark.parametrize("g", [100.0, 1000.0])
def test_sum_rule_at_strong_coherent_coupling_weak_drive(g):
    # Weak drive under strong coupling puts n1 near (omega / g)**2, so the
    # seeds must be accurate relative to n1, not to the generator's norm.
    p = coherent_pair(g, 0.01)
    d = decompose_spectrum(p)
    st = steady_state(build_moment_system(p))
    assert d.lorentzian_sum + d.delta_weight == pytest.approx(1.0, abs=1e-9)
    assert d.delta_weight == pytest.approx(abs(st.s1) ** 2 / st.n1, rel=1e-12)


def test_weak_drive_cut_follows_the_incoherent_weight():
    # At weak detuned drive the incoherent weight 1 - |<sigma_1>|^2 / n1 is
    # 6.4e-5 here, so poles whose weights lie below a fixed 1e-12 of n1 still
    # carry 1e-8 of the spectrum: the cut scales with that weight, and this
    # draw (the worst of 200 detuned ones) keeps them.
    p = SystemParams(delta=-1.7388051579206363, g=0.014339327139888381,
                     theta=1.3282556213789987, gamma=0.137822775848633, phi=6.181083101548878,
                     omega1=0.010223862889640266)
    grid = default_grid(p, 401)
    oracle, _ = liouville_spectrum(build_liouvillian(p), grid)
    engine = evaluate_spectrum(decompose_spectrum(p), grid)
    assert np.max(np.abs(engine - oracle)) <= 1e-9 * np.max(oracle)


def _resolvent_spectrum(p, grid):
    """Emitter 1's Re[e_r^T (M - i omega)^-1 w] / (pi n_e) on the full M: no eigenvectors."""
    system = build_moment_system(p)
    st = steady_state(system)
    w = boundary_vector(st.u) - st.u * np.conj(st.s1)
    shifted = system.matrix - 1j * grid[:, None, None] * np.eye(15)
    x = np.linalg.solve(shifted, np.broadcast_to(w[:, None], (grid.size, 15, 1)))[..., 0]
    return x[:, IDX_S1].real / (np.pi * st.n1)


def _exact_spectrum(p, omegas):
    """Emitter 1's Re[e_r^T (M - i omega)^-1 w] / (pi n_1) in exact rational arithmetic.

    w = <sigma_1^dag O_i> - u_i conj(<sigma_1>) is formed from the exact u of
    the float M and P, and (M - i omega) x = w is solved exactly at each float
    omega, taken exactly; only the division by pi is rounded.
    """
    system = build_moment_system(p)
    u = _exact_steady_state(system)
    sr, si = u[IDX_S1]
    seeds = [next((u[j] for j, v in enumerate(row) if v), (0, 0))
             for row in SEED_SELECTION[1].tolist()]
    w = [(br - (ur * sr + ui * si), bi - (ui * sr - ur * si))
         for (br, bi), (ur, ui) in zip(seeds, u)]
    m = [list(map(_exact, row)) for row in system.matrix.tolist()]
    out = []
    for omega in map(Fraction, omegas):
        shifted = [[(re, im - omega) if i == j else (re, im) for j, (re, im) in enumerate(row)]
                   for i, row in enumerate(m)]
        out.append(float(_exact_solve(shifted, w)[IDX_S1][0] / u[IDX_N1][0]) / math.pi)
    return np.array(out)


@pytest.mark.parametrize("p", [
    SystemParams(delta=-0.83, g=0.37, theta=2.1, gamma=0.64, phi=4.4, omega1=1.9, omega2=0.55),
    unidirectional_pair(1.0, 0.125),
    unidirectional_pair(1.0, 0.1255),
    load_preset("fig9").point(1.0),
], ids=["both-driven", "one-way-at-critical-drive", "one-way-near-critical-drive", "fig9-middle"])
def test_spectrum_matches_exact_arithmetic_at_poles_and_worst_grid_points(p):
    # Against exact rational arithmetic on the float M, at every kept pole
    # centre and at the three grid points where the pole sum and the M
    # resolvent differ most, in corners where the two agree to about 1e-12;
    # at the critical drive gamma0/8 the pole sum holds a second-order pole.
    # Production is within about 2e-15 of the largest exact value at each.
    d = decompose_spectrum(p)
    grid = default_grid(p)
    worst = np.argsort(np.abs(evaluate_spectrum(d, grid) - _resolvent_spectrum(p, grid)))[-3:]
    probes = np.unique(np.concatenate(([c.omega_zeta for c in d.components], grid[worst])))
    exact = _exact_spectrum(p, probes)
    assert np.max(np.abs(evaluate_spectrum(d, probes) - exact)) <= 1e-11 * np.max(exact)


@pytest.mark.parametrize("p", [
    coherent_pair(995.5240692893162, 0.005125278118434071, theta=5.331999597276228),
    dissipative_pair(1.0, 1e-4),
    dissipative_pair(1.0, 1e-2),
], ids=["strong-coherent-weak-drive", "trapping-1e-4", "trapping-1e-2"])
def test_oracle_matches_resolvent_at_the_corners(p):
    # Corner (a)'s worst point and the trapping line, on the default grid,
    # whose step is far wider than the narrowest peak at these points.  The
    # moment resolvent is built from M, the oracle from the 16x16 generator.
    grid = default_grid(p)
    ref = _resolvent_spectrum(p, grid)
    oracle, _ = liouville_spectrum(build_liouvillian(p), grid)
    assert np.max(np.abs(oracle - ref)) <= 1e-8 * np.max(ref)


@pytest.mark.parametrize("g, theta, omega1", [
    (37.63750617675235, 6.050051851493986, 0.006004135427017627),
    (84.12462217817313, 5.3523816125120645, 0.013097208598411705),
    (100.7656265344963, 3.449663770691147, 0.009529948129215756),
])
def test_near_coincident_poles_keep_the_lineshape(g, theta, omega1):
    # Strong coherent coupling at weak drive puts pole pairs within 1e-9 of
    # the matrix scale, with cancelling weights up to K ~ 1e5, so each
    # eigenvalue must keep its own pole: summing a pair's weights onto one
    # pole value drops K dlambda / (lambda - i omega)^2, up to 8.7e-3 of the
    # maximum at these points.
    p = coherent_pair(g, omega1, theta=theta)
    grid = default_grid(p)
    ref = _resolvent_spectrum(p, grid)
    got = evaluate_spectrum(decompose_spectrum(p), grid)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(ref)


def test_unidirectional_reproduces_single_emitter_components():
    d = decompose_spectrum(unidirectional_pair(1.0, 1.0))
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=1.0))
    assert d.delta_weight == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert len(d.components) == 3
    # decompose_spectrum sorts by shift; the closed form lists (0, +W, -W).
    central, upper, lower = coeffs.components
    for got, ref in zip(d.components, (lower, central, upper)):
        assert got.omega_zeta == pytest.approx(ref.omega_zeta, abs=1e-9)
        assert got.gamma_zeta == pytest.approx(ref.gamma_zeta, abs=1e-9)
        assert got.L_zeta == pytest.approx(ref.L_zeta, abs=1e-9)
        assert got.K_zeta == pytest.approx(ref.K_zeta, abs=1e-9)


def test_semisimple_repair_accepts_ill_conditioned_basis(monkeypatch):
    # A backward one-way pair under weak, unequal drives: the restricted
    # eigenvector basis is ill-conditioned (cond ~6e7, above SUSPECT_COND),
    # but no eigenvalues cluster, so the eigenvectors are used as they are.
    groups = []
    original = spectrum._cluster_indices

    def spy(*args):
        out = original(*args)
        groups.append(out)
        return out

    monkeypatch.setattr(spectrum, "_cluster_indices", spy)
    p = SystemParams(delta=-0.25, g=0.5, theta=1.5 * np.pi, gamma=1.0,
                     omega1=0.0094, omega2=0.0024)
    d = decompose_spectrum(p, emitter=1)
    assert groups == [[]]
    assert all(c.L2_zeta == 0.0 and c.K2_zeta == 0.0 for c in d.components)
    assert d.lorentzian_sum + d.delta_weight == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(-6.0, 6.0, 601)
    oracle, _ = liouville_spectrum(build_liouvillian(p), grid)
    engine = evaluate_spectrum(d, grid)
    assert np.max(np.abs(engine - oracle)) < 1e-9 * np.max(oracle)


def _krylov_rows(monkeypatch):
    """Row counts of the stacks _decompose_stack sends to the Krylov route, one per call."""
    rows = []
    krylov = spectrum._krylov_poles
    monkeypatch.setattr(spectrum, "_krylov_poles",
                        lambda m, *args: rows.append(len(m)) or krylov(m, *args))
    return rows


@pytest.mark.parametrize("p", [
    *(unidirectional_pair(1.0, w) for w in (0.124, 0.1245, 0.125, 0.1255, 0.126)),
    *(dissipative_pair(1.0, w) for w in (1e-2, 1.0, 4.0, 10.0)),
    coherent_pair(995.5240692893162, 0.005125278118434071, theta=5.331999597276228),
], ids=[*(f"critical-drive-{w}" for w in (0.124, 0.1245, 0.125, 0.1255, 0.126)),
        *(f"hidden-jordan-{w}" for w in (1e-2, 1.0, 4.0, 10.0)), "corner-a-worst"])
def test_gate_sends_defective_and_clustered_points_to_the_krylov_route(p, monkeypatch):
    # The one-way pair around the critical drive (full-M eigenvector cond
    # 10^2.4 at the window's edges, 10^8.7 at 1/8), the trapping line's
    # hidden Jordan block (cond ~1e8) and corner (a)'s near-coincident pairs
    # (cond about 2.5, but pairs far closer than CLUSTER_GAP) take the reduction.
    rows = _krylov_rows(monkeypatch)
    decompose_spectrum(p)
    assert rows == [1]


def test_generic_draws_take_the_direct_route(rng, monkeypatch):
    # Off resonance the eigenbasis of M is nearly always well conditioned and
    # its eigenvalues apart; the exceptions lie near the trapping line's
    # Jordan block (one of these 100: g 0.05, gamma 0.99, cond 169).  On
    # resonance, weak drive puts pole pairs within CLUSTER_GAP of each other,
    # so there more draws take the reduction.
    rows = _krylov_rows(monkeypatch)
    for second in (False, True):
        for _ in range(50):
            decompose_spectrum(random_params(rng, with_detuning=True, with_second_drive=second))
    assert len(rows) <= 2
    del rows[:]
    for _ in range(50):
        decompose_spectrum(random_params(rng))
    assert len(rows) <= 10


@pytest.mark.parametrize("name", ["fig4", "fig8a", "fig9", "fig9b", "fig13"])
def test_direct_route_matches_the_resolvent_at_the_spectrum_presets(name, monkeypatch):
    rows = _krylov_rows(monkeypatch)
    spec = load_preset(name)
    for value in spec.grid.values():
        p = spec.point(value)
        grid = default_grid(p, spec.spectrum_points)
        ref = _resolvent_spectrum(p, grid)
        got = evaluate_spectrum(decompose_spectrum(p), grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref), value
    assert rows == []


def test_default_grid_holds_every_line_at_large_detuning():
    # The lines sit near +-(delta +- g); a window that ignored delta missed over half of
    # sum |L_zeta| at most draws with |delta| from 10 to 1e3.
    rng = np.random.default_rng(2020)
    for _ in range(200):
        delta = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0.0, 3.0))
        p = replace(random_params(rng), delta=delta)
        components = decompose_spectrum(p).components
        weights = np.abs([c.L_zeta for c in components])
        shifts = np.abs([c.omega_zeta for c in components])
        assert np.all(shifts[weights >= 1e-3 * weights.sum()] <= default_grid(p, 3)[-1]), p


def test_default_grid_keeps_its_bits_at_resonance():
    # Every spectrum preset has delta = 0, where the window is today's, bit for bit.
    for name in preset_names():
        spec = load_preset(name)
        if not {"spectrum", "decomposition"} & set(spec.observables):
            continue
        for value in spec.grid.values():
            p = spec.point(value)
            assert p.delta == 0.0
            f = math.sqrt(p.g**2 + 4.0 * max(p.omega1, p.omega2) ** 2)
            half = 1.5 * (f + p.g + 3.0 * p.gamma0)
            old = np.linspace(-half, half, spec.spectrum_points)
            assert default_grid(p, spec.spectrum_points).tobytes() == old.tobytes(), name


def test_exactly_singular_eigenbasis_row_takes_the_krylov_route(rng, monkeypatch):
    # A stack row whose eigenvector matrix V has an exactly singular LU factor
    # gets cond inf from the solve of [w | I] and takes the Krylov route; the
    # rest of the stack keeps the direct route and its bits.
    ps = [random_params(rng, with_detuning=True, with_second_drive=True) for _ in range(6)]
    system = build_moment_systems(ps)
    real_m, rhs = _real_system(system)
    u = _solve_stack(real_m, rhs)[0]
    krylov, krylov_m = spectrum._krylov_poles, []
    monkeypatch.setattr(spectrum, "_krylov_poles",
                        lambda m, *args: krylov_m.append(m) or krylov(m, *args))
    clean = spectrum._decompose_stack(system.matrix, real_m, u, 1)
    assert krylov_m == []
    eig = np.linalg.eig

    def singular_eig(a):
        vals, vecs = eig(a)
        if a.shape == real_m.shape:  # the routing eig of the whole stack
            vecs[3, :, 0] = 0.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", singular_eig)
    got = spectrum._decompose_stack(system.matrix, real_m, u, 1)
    assert len(krylov_m) == 1 and np.array_equal(krylov_m[0], system.matrix[[3]])
    for k in (0, 1, 2, 4, 5):
        assert repr(got[k]) == repr(clean[k])
    grid = default_grid(ps[3], 401)
    ref = evaluate_spectrum(clean[3], grid)
    assert np.max(np.abs(evaluate_spectrum(got[3], grid) - ref)) < 1e-9 * np.max(ref)


@pytest.mark.parametrize("detuning, second", [(False, False), (True, False), (False, True),
                                              (True, True)])
def test_direct_route_is_as_accurate_as_the_krylov_route(detuning, second, rng, monkeypatch):
    # Against the resolvent on the full M, per draw, as a fraction of each
    # spectrum's maximum.  Both routes expand over eigenvectors and share the
    # cut, and per draw either may be the closer by a few times at the
    # rounding level.  Over
    # the draws the direct route's median error is no larger than the
    # reduction's, and its worst is the reduction's up to 10 % and 1e-12.
    direct_cond, errors = spectrum.DIRECT_COND, []
    for _ in range(40):
        p = random_params(rng, with_detuning=detuning, with_second_drive=second)
        grid = default_grid(p, 401)
        ref = _resolvent_spectrum(p, grid)
        pair = []
        for cond in (direct_cond, 0.0):  # below 1 no point takes the direct route
            monkeypatch.setattr(spectrum, "DIRECT_COND", cond)
            pair.append(np.max(np.abs(evaluate_spectrum(decompose_spectrum(p), grid) - ref))
                        / np.max(ref))
        errors.append(pair)
    direct, krylov = np.array(errors).T
    assert np.median(direct) <= np.median(krylov)
    assert direct.max() <= 1.1 * krylov.max() + 1e-12


def _per_point_basis(m, w, scale):
    """The per-point Arnoldi the stack engine replaced: 1-d vectors, strided views."""
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


def _per_point_cut(poles, n_e, coh, emitter):
    """One point's decomposition from its poles (lambda, b1, b2), cut one point
    at a time: a pole drops where both parts of both weights b / n_e lie below
    PRUNE_TOL times the incoherent weight 1 - |<sigma_e>|^2 / n_e, floored at
    eps.  Components sort by (omega_zeta, gamma_zeta)."""
    delta = float(abs(coh) ** 2 / n_e)
    tol = spectrum.PRUNE_TOL * max(1.0 - delta, np.finfo(float).eps)
    lam, b1, b2 = np.array(poles, dtype=complex).reshape(-1, 3).T
    b1, b2 = b1 / n_e, b2 / n_e
    faint1, faint2 = (np.maximum(abs(w.real), abs(w.imag)) < tol for w in (b1, b2))
    b2[faint2] = 0.0
    table = np.column_stack((lam.imag, 2.0 * lam.real, b1.real, b1.imag, b2.real, b2.imag))
    components = sorted((SpectralComponent(*row) for row in table[~(faint1 & faint2)].tolist()),
                        key=lambda c: (c.omega_zeta, c.gamma_zeta))
    return SpectralDecomposition(tuple(components), delta, emitter)


def _per_point_decomposition(p, emitter):
    """One point's route, as before the stack engine: M's own eigenbasis where
    it is well conditioned and its eigenvalues apart, else the reduction, eig
    and modal solve."""
    system = build_moment_system(p)
    state, m = steady_state(system), system.matrix
    n_e, coh = (state.n1, state.s1) if emitter == 1 else (state.n2, state.s2)
    if n_e <= spectrum.ROUNDING_POPULATION * (state.n1 + state.n2):
        return f"emitter {emitter} is not excited (population at the rounding level of n1 + n2)"
    readout = IDX_S1 if emitter == 1 else IDX_S2
    w = SEED_SELECTION[emitter] @ state.u - state.u * np.conj(coh)
    scale = max(float(np.linalg.norm(m, ord=np.inf)), p.gamma0)
    # M's eig through its real similar T^-1 M T.
    vals, vecs = np.linalg.eig(_real_system(MomentSystem(m[None], system.drive[None]))[0][0])
    vecs = _moment_columns(vecs[None])[0]
    gap = min(abs(a - b) for i, a in enumerate(vals) for b in vals[:i])
    if np.linalg.cond(vecs, 1) <= spectrum.DIRECT_COND and gap >= spectrum.CLUSTER_GAP * scale:
        contrib = vecs[readout] * np.linalg.solve(vecs, w)
        return _per_point_cut([(lam, b, 0j) for lam, b in zip(vals, contrib)], n_e, coh, emitter)
    reach = _per_point_basis(m, w, scale)
    m_r = reach.conj().T @ m @ reach
    b_r = reach.conj().T @ w
    c_r = np.conj(reach[readout, :])
    obs = _per_point_basis(m_r.conj().T, c_r, scale)
    h, b_h, c_h = obs.conj().T @ m_r @ obs, obs.conj().T @ b_r, obs.conj().T @ c_r
    vals, vecs = np.linalg.eig(h)
    groups = []
    if np.linalg.cond(vecs, 1) > spectrum.SUSPECT_COND:
        groups = spectrum._cluster_indices(vals, spectrum.CLUSTER_GAP * scale)
    if groups:
        poles = spectrum._cluster_poles(h, vals, vecs, b_h, c_h, groups)
    else:
        contrib = (c_h.conj() @ vecs) * np.linalg.solve(vecs, b_h)
        poles = [(lam, b, 0j) for lam, b in zip(vals, contrib)]
    return _per_point_cut(poles, n_e, coh, emitter)


@pytest.mark.parametrize("emitter", [1, 2])
def test_stack_engine_matches_per_point_reduction_bitwise(emitter, rng):
    # One stack mixing reduced dimensions (the trapping line's pruned hidden
    # block), the cluster path (the critical-drive window), corner (a)'s
    # near-coincident pairs, weak drive, generic draws and the backward
    # one-way pair, whose emitter 2 is undefined, so both routes and the
    # error: each point gets the bits of its route taken one point at a time,
    # and the stack's one cut is the per-point cut.  Row-indexed or
    # contiguous copies of the engine's operands would change BLAS kernels
    # and bits.
    ps = ([dissipative_pair(1.0, w) for w in (1e-4, 1e-2, 1.0, 4.0, 6.0, 8.0, 10.0)]
          + [unidirectional_pair(1.0, w) for w in (0.124, 0.1245, 0.125, 0.1255, 0.126)]
          + [coherent_pair(10 ** rng.uniform(1, 3), 10 ** rng.uniform(np.log10(0.005), -1.3),
                           theta=rng.uniform(0.0, 2.0 * np.pi)) for _ in range(10)]
          + [unidirectional_pair(1.0, 0.5, forward=False)]
          + [random_params(rng, with_detuning=True, with_second_drive=True)
             for _ in range(40)])
    system = build_moment_systems(ps)
    real_m, rhs = _real_system(system)
    got = spectrum._decompose_stack(system.matrix, real_m, _solve_stack(real_m, rhs)[0], emitter)
    assert (emitter == 2) == isinstance(got[22], str)
    for p, d in zip(ps, got):
        assert repr(d) == repr(_per_point_decomposition(p, emitter)), p


def test_normalization_over_random_draws(rng):
    for _ in range(100):
        p = random_params(rng, with_detuning=True, with_second_drive=True)
        d = decompose_spectrum(p)
        assert d.lorentzian_sum + d.delta_weight == pytest.approx(1.0, abs=1e-9)


def test_pole_consistency(rng):
    # Every surviving component pole belongs to the regression spectrum.
    for _ in range(20):
        p = random_params(rng)
        d = decompose_spectrum(p)
        eigs = np.linalg.eigvals(build_moment_system(p).matrix)
        for c in d.components:
            lam = 0.5 * c.gamma_zeta + 1j * c.omega_zeta
            assert np.min(np.abs(eigs - lam)) < 1e-10 * max(1.0, abs(lam))


def test_lineshape_peak_height():
    d = SpectralDecomposition(
        (SpectralComponent(omega_zeta=0.0, gamma_zeta=1.0, L_zeta=1.0, K_zeta=0.0),),
        delta_weight=0.0, emitter=1)
    grid = np.linspace(-5.0, 5.0, 1001)
    vals = evaluate_spectrum(d, grid)
    assert vals[500] == pytest.approx(2.0 / np.pi, abs=1e-14)


def test_dispersive_component_integrates_to_zero():
    d = SpectralDecomposition(
        (SpectralComponent(omega_zeta=0.0, gamma_zeta=1.0, L_zeta=0.0, K_zeta=1.0),),
        delta_weight=0.0, emitter=1)
    grid = np.linspace(-500.0, 500.0, 200001)
    vals = evaluate_spectrum(d, grid)
    assert abs(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))) < 1e-3


def test_grid_validation():
    d = SpectralDecomposition((), 0.0, 1)
    with pytest.raises(ParameterError):
        evaluate_spectrum(d, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("spectrum_of", [
    lambda grid: evaluate_spectrum(decompose_spectrum(unidirectional_pair(1.0, 0.5)), grid),
    lambda grid: single_spectrum(SingleParams(gamma=1.0, omega=1.0), grid),
    lambda grid: liouville_spectrum(build_liouvillian(unidirectional_pair(1.0, 0.5)), grid),
], ids=["evaluate_spectrum", "single_spectrum", "liouville_spectrum"])
def test_non_finite_grid_is_rejected(spectrum_of, grid):
    # Production and the oracle each check their own grid: NaN fails no
    # comparison, so only an explicit finiteness test rejects it.
    with pytest.raises(ParameterError,
                       match="^grid must be a finite, strictly increasing 1-d array$"):
        spectrum_of(np.array(grid))


@pytest.mark.parametrize("emitter", [0, 3])
@pytest.mark.parametrize("call", [
    lambda e: boundary_vector(steady_state(build_moment_system(coherent_pair(1.0, 1.0))).u, e),
    lambda e: decompose_spectrum(coherent_pair(1.0, 1.0), e),
    lambda e: decompose_spectrum(SystemParams(g=1.0), e),
], ids=["boundary_vector", "decompose_spectrum", "decompose_spectrum-undriven"])
def test_engine_rejects_unknown_emitter(call, emitter):
    # One check serves both; boundary_vector raised a bare KeyError.
    with pytest.raises(ParameterError, match=f"^emitter must be 1 or 2, got {emitter}$"):
        call(emitter)


def test_engine_matches_oracle_across_regimes():
    cases = [
        coherent_pair(1.0, 1.0),
        dissipative_pair(1.0, 1.0),
        unidirectional_pair(1.0, 1.0),
        asymmetric_pair(0.5, 1.0, np.pi / 4, 1.0),
    ]
    for p in cases:
        grid = default_grid(p, 801)
        engine = evaluate_spectrum(decompose_spectrum(p), grid)
        oracle, _ = liouville_spectrum(build_liouvillian(p), grid)
        assert np.max(np.abs(engine - oracle)) < 1e-9 * np.max(oracle)


def test_pure_regime_spectra_are_symmetric():
    for p in (coherent_pair(1.0, 1.0), dissipative_pair(1.0, 0.7),
              unidirectional_pair(1.0, 1.5)):
        grid = default_grid(p, 1001)
        vals = evaluate_spectrum(decompose_spectrum(p), grid)
        assert np.max(np.abs(vals - vals[::-1])) < 1e-8 * vals.max()


def test_in_phase_couplings_skew_the_spectrum():
    # Equal phases break mirror symmetry (the one-way point restores it).
    p = asymmetric_pair(0.5, 1.0, 0.0, 1.0)
    grid = default_grid(p, 1001)
    vals = evaluate_spectrum(decompose_spectrum(p), grid)
    assert np.max(np.abs(vals - vals[::-1])) > 1e-3 * vals.max()


def test_maxima_count_fingerprints():
    cases = [
        (unidirectional_pair(1.0, 2.0), 3),
        (coherent_pair(1.0, 5.0), 5),
        (dissipative_pair(1.0, 0.5), 3),
        (dissipative_pair(1.0, 2.0), 3),
    ]
    for p, count in cases:
        grid = default_grid(p)
        vals = evaluate_spectrum(decompose_spectrum(p), grid)
        assert len(local_maxima(vals)) == count


def test_components_pair_by_frequency(rng):
    # Mirror poles exist even when the weights are skewed.
    for _ in range(10):
        p = random_params(rng)
        d = decompose_spectrum(p)
        freqs = sorted(c.omega_zeta for c in d.components)
        for w in freqs:
            if abs(w) > 1e-9:
                assert any(abs(w + v) < 1e-6 for v in freqs)


def test_emitter2_spectrum_against_oracle():
    p = asymmetric_pair(0.8, 0.9, 1.1, 1.2)
    grid = default_grid(p, 801)
    d = decompose_spectrum(p, emitter=2)
    assert d.emitter == 2
    engine = evaluate_spectrum(d, grid)
    oracle, delta = liouville_spectrum(build_liouvillian(p), grid, emitter=2)
    assert np.max(np.abs(engine - oracle)) < 1e-9 * np.max(oracle)
    assert d.delta_weight == pytest.approx(delta, abs=1e-9)


def test_critical_drive_second_order_pole():
    # The one-way point at the single-emitter critical drive embeds a Jordan
    # pair in the visible dynamics: one pole carries a second-order weight,
    # and the lineshape is the exact closed form through and around it.  The
    # closed form's merged pole is the same record, component by component.
    d = decompose_spectrum(unidirectional_pair(1.0, critical_drive(1.0)))
    assert any(abs(c.L2_zeta) > 1e-3 for c in d.components)
    assert d.lorentzian_sum + d.delta_weight == pytest.approx(1.0, abs=1e-12)
    coeffs = mollow_coefficients(SingleParams(gamma=1.0, omega=critical_drive(1.0)))
    assert len(d.components) == len(coeffs.components) == 2
    for got, ref in zip(d.components, coeffs.components):
        np.testing.assert_allclose(astuple(got), astuple(ref), rtol=0.0, atol=1e-12)
    assert d.delta_weight == pytest.approx(coeffs.delta_weight, abs=1e-12)

    def worst(omega):
        p = unidirectional_pair(1.0, omega)
        grid = default_grid(p)
        ref = single_spectrum(SingleParams(gamma=1.0, omega=omega), grid).values
        engine = evaluate_spectrum(decompose_spectrum(p), grid)
        return np.max(np.abs(engine - ref)) / np.max(np.abs(ref))

    assert max(worst(w) for w in np.linspace(0.12, 0.13, 41)) < 1e-10
    assert max(worst(0.125 + s * 10.0**-k) for k in range(3, 15) for s in (1, -1)) < 1e-9


def test_second_order_lineshape_is_the_double_pole():
    # tau exp(-lambda tau) transforms to (lambda - i omega)^-2: for a real
    # lambda = 1/2 the term -Re[1 / (1/2 - i omega)^2] / pi.
    d = SpectralDecomposition(
        (SpectralComponent(omega_zeta=0.0, gamma_zeta=1.0, L_zeta=0.0, K_zeta=0.0,
                           L2_zeta=1.0),),
        delta_weight=0.0, emitter=1)
    grid = np.linspace(-5.0, 5.0, 1001)
    expected = -(0.25 - grid**2) / (0.25 + grid**2) ** 2 / np.pi
    np.testing.assert_allclose(evaluate_spectrum(d, grid), expected, rtol=1e-13, atol=1e-15)


def test_undriven_emitter1_rejected(monkeypatch):
    # Neither emitter driven: undefined before any solve (at g = 0, gamma =
    # gamma0 M is singular there).
    monkeypatch.setattr(spectrum, "_solve_stack", None)
    for p in (SystemParams(g=1.0), SystemParams(g=0.0, gamma=1.0)):
        with pytest.raises(UnsupportedConfigurationError, match="neither emitter is driven"):
            decompose_spectrum(p, emitter=1)


def test_emitter2_unpopulated_rejected():
    with pytest.raises(UnsupportedConfigurationError, match="emitter 2 is not excited"):
        decompose_spectrum(SystemParams(g=0.0, gamma=0.0, omega1=1.0), emitter=2)


def test_unexcited_emitter_has_no_spectrum_on_either_route():
    # The backward one-way pair never excites emitter 2: n2 is rounding
    # (7.9e-33 in the moments), so neither route may return a spectrum.
    p = unidirectional_pair(1.0, 0.5, forward=False)
    with pytest.raises(UnsupportedConfigurationError, match="emitter 2 is not excited"):
        decompose_spectrum(p, emitter=2)
    with pytest.raises(UnsupportedConfigurationError, match="emitter 2 is not excited"):
        liouville_spectrum(build_liouvillian(p), default_grid(p), emitter=2)


def test_emitter_excited_through_the_coupling_has_a_spectrum():
    # Emitter 1 undriven (omega1 = 0) holds n1 = 0.303 through the coupling to
    # the driven emitter 2: both routes give its spectrum, and they agree.
    p = SystemParams(g=1.0, omega2=1.0)
    grid = default_grid(p)
    d = decompose_spectrum(p, emitter=1)
    oracle, delta = liouville_spectrum(build_liouvillian(p), grid, emitter=1)
    assert steady_state(build_moment_system(p)).n1 == pytest.approx(0.303, abs=1e-3)
    assert np.max(np.abs(evaluate_spectrum(d, grid) - oracle)) <= 1e-12 * np.max(oracle)
    assert d.delta_weight == pytest.approx(delta, abs=1e-12)


def test_engine_matches_single_emitter_closed_form():
    for omega in (0.5, 1.0, 2.0):
        p = unidirectional_pair(1.0, omega)
        grid = default_grid(p)
        engine = evaluate_spectrum(decompose_spectrum(p), grid)
        ref = single_spectrum(SingleParams(gamma=1.0, omega=omega), grid)
        assert np.max(np.abs(engine - ref.values)) < 1e-8
