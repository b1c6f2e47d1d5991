"""Pole decomposition of the two-time regression system and grid evaluation."""

from dataclasses import astuple

import numpy as np
import pytest

import mollowpair.spectrum as spectrum
from mollowpair.errors import ParameterError, UnsupportedConfigurationError
from mollowpair.liouville import build_liouvillian, liouville_spectrum, steady_state_dm
from mollowpair.moments import (
    IDX_S1,
    IDX_S2,
    SEED_SELECTION,
    _moment_columns,
    _real_matrix,
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
from mollowpair.spec import load_preset
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


def _resolvent_spectrum(p, grid):
    """Emitter 1's Re[e_r^T (M - i omega)^-1 w] / (pi n_e) on the full M: no eigenvectors."""
    system = build_moment_system(p)
    st = steady_state(system)
    w = boundary_vector(st.u) - st.u * np.conj(st.s1)
    shifted = system.matrix - 1j * grid[:, None, None] * np.eye(15)
    x = np.linalg.solve(shifted, np.broadcast_to(w[:, None], (grid.size, 15, 1)))[..., 0]
    return x[:, IDX_S1].real / (np.pi * st.n1)


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


@pytest.mark.parametrize("detuning, second", [(False, False), (True, False), (False, True),
                                              (True, True)])
def test_direct_route_is_as_accurate_as_the_krylov_route(detuning, second, rng, monkeypatch):
    # Against the resolvent on the full M, per draw, as a fraction of each
    # spectrum's maximum.  Both routes expand over eigenvectors, so both lose
    # digits at weak drive (up to about 1e-9 over such draws), and per draw
    # either may be the closer by a few times at the rounding level.  Over
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


def _per_point_decomposition(p, emitter):
    """One point's route, as before the stack engine: M's own eigenbasis where
    it is well conditioned and its eigenvalues apart, else the reduction, eig
    and modal solve."""
    system = build_moment_system(p)
    state, m = steady_state(system), system.matrix
    n_e, coh = (state.n1, state.s1) if emitter == 1 else (state.n2, state.s2)
    readout = IDX_S1 if emitter == 1 else IDX_S2
    w = SEED_SELECTION[emitter] @ state.u - state.u * np.conj(coh)
    scale = max(float(np.linalg.norm(m, ord=np.inf)), p.gamma0)
    vals, vecs = np.linalg.eig(_real_matrix(m[None])[0])  # M's eig through its real similar
    vecs = _moment_columns(vecs[None])[0]
    gap = min(abs(a - b) for i, a in enumerate(vals) for b in vals[:i])
    if np.linalg.cond(vecs) <= spectrum.DIRECT_COND and gap >= spectrum.CLUSTER_GAP * scale:
        contrib = vecs[readout] * np.linalg.solve(vecs, w)
        return spectrum._prune([(lam, b, 0j) for lam, b in zip(vals, contrib)], n_e, coh, emitter)
    reach = _per_point_basis(m, w, scale)
    m_r = reach.conj().T @ m @ reach
    b_r = reach.conj().T @ w
    c_r = np.conj(reach[readout, :])
    obs = _per_point_basis(m_r.conj().T, c_r, scale)
    h, b_h, c_h = obs.conj().T @ m_r @ obs, obs.conj().T @ b_r, obs.conj().T @ c_r
    vals, vecs = np.linalg.eig(h)
    groups = []
    if np.linalg.cond(vecs) > spectrum.SUSPECT_COND:
        groups = spectrum._cluster_indices(vals, spectrum.CLUSTER_GAP * scale)
    if groups:
        poles = spectrum._cluster_poles(h, vals, vecs, b_h, c_h, groups)
    else:
        contrib = (c_h.conj() @ vecs) * np.linalg.solve(vecs, b_h)
        poles = [(lam, b, 0j) for lam, b in zip(vals, contrib)]
    return spectrum._prune(poles, n_e, coh, emitter)


@pytest.mark.parametrize("emitter", [1, 2])
def test_stack_engine_matches_per_point_reduction_bitwise(emitter, rng):
    # One stack mixing reduced dimensions (the trapping line's pruned hidden
    # block), the cluster path (critical drive) and generic draws, so both
    # routes: each point gets the bits of its route taken one point at a
    # time.  Row-indexed or contiguous copies of the engine's operands would
    # change BLAS kernels and bits.
    ps = ([dissipative_pair(1.0, w) for w in (4.0, 6.0, 8.0, 10.0)]
          + [unidirectional_pair(1.0, w) for w in (0.124, 0.125, 0.126)]
          + [random_params(rng, with_detuning=True, with_second_drive=True)
             for _ in range(40)])
    system = build_moment_systems(ps)
    got = spectrum._decompose_stack(system.matrix, _solve_stack(system)[0], emitter)
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
    assert abs(np.trapezoid(vals, grid)) < 1e-3


def test_grid_validation():
    d = SpectralDecomposition((), 0.0, 1)
    with pytest.raises(ParameterError):
        evaluate_spectrum(d, np.array([0.0, 0.0, 1.0]))


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
    monkeypatch.setattr(spectrum, "steady_state", None)
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
