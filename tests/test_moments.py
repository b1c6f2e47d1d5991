"""Moment system structure, steady-state solve, and the cross-correlator."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mollowpair.errors import (
    ConditionWarning,
    NumericalError,
    SingularSystemError,
    UndefinedCorrelatorError,
)
from mollowpair.hamiltonian import build_pair_hamiltonian
from mollowpair.moments import (
    IDX_N1,
    IDX_N2,
    IDX_NX,
    IDX_S1,
    IDX_S2,
    _PAIRS,
    MomentSystem,
    _moment_columns,
    _real_system,
    _solve_stack,
    build_moment_system,
    build_moment_systems,
    g2_cross,
    populations,
    steady_state,
)
from mollowpair.operators import (
    EYE4,
    MOMENT_OPERATORS,
    SIGMA1,
    SIGMA2,
)
from mollowpair.params import (
    SystemParams,
    coherent_pair,
    dissipative_pair,
    generalized_couplings,
    unidirectional_pair,
)

from conftest import random_params


def adjoint_moment_system(p):
    """Independent derivation of M and P from the master-equation adjoint.

    For each moment operator O the adjoint generator i[H, O] plus the
    dissipator adjoints is expanded over the complete operator basis
    {identity} + MOMENT_OPERATORS; the identity coefficient is the drive and
    the rest give -M row by row.
    """
    h = build_pair_hamiltonian(p)
    channels = [
        (SIGMA1, SIGMA1, complex(p.gamma0)),
        (SIGMA2, SIGMA2, complex(p.gamma0)),
        (SIGMA2, SIGMA1, p.gamma * np.exp(1j * p.phi)),
        (SIGMA1, SIGMA2, p.gamma * np.exp(-1j * p.phi)),
    ]
    basis = np.column_stack([b.reshape(16) for b in (EYE4, *MOMENT_OPERATORS)])

    def adjoint(op):
        out = 1j * (h @ op - op @ h)
        for a, b, rate in channels:
            bda = b.conj().T @ a
            out = out + 0.5 * rate * (2.0 * b.conj().T @ op @ a - op @ bda - bda @ op)
        return out

    m = np.zeros((15, 15), dtype=complex)
    drive = np.zeros(15, dtype=complex)
    for i, op in enumerate(MOMENT_OPERATORS):
        coeffs = np.linalg.solve(basis, adjoint(op).reshape(16))
        drive[i] = coeffs[0]
        m[i, :] = -coeffs[1:]
    return m, drive


def test_matrix_matches_independent_derivation(rng):
    # Entry-for-entry check of all 225 coefficients against the adjoint
    # expansion, over generic parameters including detuning and two drives,
    # one point at a time and as rows of one stacked build.
    ps = [random_params(rng, with_detuning=True, with_second_drive=True) for _ in range(30)]
    stack = build_moment_systems(ps)
    assert stack.matrix.shape == (30, 15, 15) and stack.drive.shape == (30, 15)
    for k, p in enumerate(ps):
        m_ref, p_ref = adjoint_moment_system(p)
        for system in (build_moment_system(p), MomentSystem(stack.matrix[k], stack.drive[k])):
            np.testing.assert_allclose(system.matrix, m_ref, atol=1e-13)
            np.testing.assert_allclose(system.drive, p_ref, atol=1e-13)


def _mixed_batch(rng):
    """Wide draws (strong coupling, weak drive, detuning, two drives) plus
    the 41 x 31 weak-drive landscape grid of scripts/coupling_landscape.py."""
    wide = [
        SystemParams(delta=rng.uniform(-3.0, 3.0), g=10 ** rng.uniform(-2, 3),
                     theta=rng.uniform(0.0, 2.0 * np.pi), gamma=rng.uniform(0.0, 1.0),
                     phi=rng.uniform(0.0, 2.0 * np.pi), omega1=10 ** rng.uniform(-3, 2),
                     omega2=10 ** rng.uniform(-3, 1))
        for _ in range(200)
    ]
    grid = [SystemParams(g=g, gamma=gamma, theta=0.5 * np.pi, phi=0.0, omega1=1e-3)
            for g in np.geomspace(0.05, 5.0, 41) for gamma in np.geomspace(0.01, 1.0, 31)]
    return wide + grid


def test_batch_engine_matches_per_point_bitwise(rng):
    # The stacked build and solve are the per-point functions' own engine:
    # every bit agrees, signed zeros included.
    ps = _mixed_batch(rng)
    stack = build_moment_systems(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        u, cond = _solve_stack(*_real_system(stack))
        for k, p in enumerate(ps):
            one = build_moment_system(p)
            assert one.matrix.tobytes() == stack.matrix[k].tobytes()
            assert one.drive.tobytes() == stack.drive[k].tobytes()
            st = steady_state(one)
            assert st.u.tobytes() == u[k].tobytes()
            assert st.cond == cond[k]
    # The one-point state holds Python scalars, not numpy ones.
    assert [type(v) for v in (st.n1, st.n2, st.nX, st.s1, st.s2, st.cond)] == [float] * 3 + [
        complex] * 2 + [float]
    u, cond = _solve_stack(*_real_system(build_moment_systems([])))
    assert u.shape == (0, 15) and cond.shape == (0,)


def test_matrix_scale_is_at_least_twice_gamma0(rng):
    # The spectral engine takes ||M||_inf as its scale with no gamma0 floor:
    # the <n1 n2> row holds exactly 2 gamma0 on its diagonal, and a float sum
    # of non-negative terms is never below one of them.
    ps = _mixed_batch(rng) + [SystemParams(gamma0=g0, gamma=0.5 * g0, g=0.3 * g0,
                                           omega1=w * g0, delta=d * g0)
                              for g0 in (1e-3, 0.37, 1e3) for w in (0.0, 1e-3, 10.0)
                              for d in (0.0, -2.0)]
    m = build_moment_systems(ps).matrix
    gamma0 = np.array([p.gamma0 for p in ps])
    assert np.array_equal(m[:, IDX_NX, IDX_NX], 2.0 * gamma0)
    assert np.all(np.abs(m).sum(axis=-1).max(axis=-1) >= 2.0 * gamma0)


def _reference_entries(p):
    """M's 81 nonzeros at p, row by row, each written as its own expression."""
    gp, gm = generalized_couplings(p)
    gpc, gmc = gp.conjugate(), gm.conjugate()
    g0, d = p.gamma0, p.delta
    w1, w2 = p.omega1, p.omega2
    gam = p.gamma
    eiphi = complex(math.cos(p.phi), math.sin(p.phi))
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


_NONZERO_COLS = (
    (0, 1, 4, 10), (0, 1, 5, 11), (2, 3, 4, 12), (2, 3, 5, 13),
    (0, 2, 4, 8, 9), (1, 3, 5, 8, 9), (0, 1, 6, 10, 11), (2, 3, 7, 12, 13),
    (1, 2, 4, 5, 8, 10, 13, 14), (0, 3, 4, 5, 9, 11, 12, 14),
    (4, 6, 8, 10, 11, 14), (5, 6, 9, 10, 11, 14), (4, 7, 9, 12, 13, 14), (5, 7, 8, 12, 13, 14),
    (10, 11, 12, 13, 14),
)


def _signed_zero_batch(rng):
    """_mixed_batch plus the phases whose cos or sin is a (signed) zero,
    delta = -0 and zero drives."""
    corners = [SystemParams(g=g, theta=theta, gamma=gamma, phi=phi, delta=delta,
                            omega1=omega1, omega2=omega2)
               for phi in (0.0, -0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)
               for delta in (-0.0, 0.0, 0.3)
               for omega1, omega2 in ((0.0, 0.0), (-0.0, 0.0), (0.7, 0.0), (0.0, 0.4))
               for g, theta, gamma in ((0.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.5, 0.5 * np.pi, 0.6))]
    return _mixed_batch(rng) + corners


def test_assembly_matches_the_entry_formula_bytewise(rng):
    # The gather of the 26 distinct values writes each of M's 81 nonzeros and
    # P's four entries with the bits of its own expression, signed zeros
    # included; every other entry is +0.
    ps = _signed_zero_batch(rng)
    stack = build_moment_systems(ps)
    for k, p in enumerate(ps):
        entries = iter(_reference_entries(p))
        m = np.zeros((15, 15), dtype=complex)
        for r, cols in enumerate(_NONZERO_COLS):
            for c in cols:
                m[r, c] = next(entries)
        drive = np.zeros(15, dtype=complex)
        drive[:4] = (-1j * p.omega1, -1j * p.omega2, 1j * p.omega1, 1j * p.omega2)
        assert stack.matrix[k].tobytes() == m.tobytes(), k
        assert stack.drive[k].tobytes() == drive.tobytes(), k


def _place(x):
    """u = T x, written entry by entry: each pair (Re, Im of its first member), then n1, n2, nX."""
    u = np.zeros((len(x), 15, 2))
    for p, (c, d) in enumerate(_PAIRS):
        u[:, c, 0], u[:, c, 1] = x[:, 2 * p], x[:, 2 * p + 1]
        u[:, d, 0], u[:, d, 1] = x[:, 2 * p], -x[:, 2 * p + 1]
    for q, r in enumerate((IDX_N1, IDX_N2, IDX_NX)):
        u[:, r, 0] = x[:, 12 + q]
    return u.view(complex)[..., 0]


def test_refinement_matches_the_dense_residual_bytewise(rng):
    # Three steps of x += M^-1 (P - M x) on the real system, with the residual
    # from the longdouble product of the whole real M, then u = T x: the
    # solver's bits, row by row.  The product is einsum's: matmul sums each
    # row in another order and moves the last bits of some residuals.
    system = build_moment_systems(_signed_zero_batch(rng))
    m, drive = _real_system(system)
    x = np.linalg.solve(m, np.concatenate(
        (drive[..., None], np.broadcast_to(np.eye(15), m.shape)), axis=-1))
    u, minv = np.ascontiguousarray(x[..., 0]), np.ascontiguousarray(x[..., 1:])
    m_ld, rhs_ld = m.astype(np.longdouble), drive.astype(np.longdouble)
    live = np.ones(len(m), dtype=bool)
    for _ in range(3):
        u_ld = u.astype(np.longdouble)
        resid = rhs_ld - np.einsum("nij,nj->ni", m_ld, u_ld)
        corr = (minv @ resid.astype(np.float64)[..., None])[..., 0]
        live &= np.isfinite(corr).all(axis=1)
        np.copyto(u, (u_ld + corr).astype(np.float64), where=live[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        got, _ = _solve_stack(m, drive)
    assert got.tobytes() == _place(u).tobytes()


def _units(v):
    """A float as an exact integer count of 2**-1074, the spacing of the subnormals."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _sparse_product(a, b):
    """The exact product of two sparse complex integer matrices, each {(row, col): (re, im)}."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), (ar, ai) in a.items():
        for j, (br, bi) in rows.get(k, ()):
            re, im = out.get((i, j), (0, 0))
            out[i, j] = re + ar * br - ai * bi, im + ar * bi + ai * br
    return out


def _exact_real_system(system):
    """2 T^-1 M T and 2 T^-1 P of one point in exact integer arithmetic.

    Entries are counted in units of 2**-1074, so every product and sum is
    exact.  u = T x as in _place, so 2 T^-1 takes 2 x_2p = u_c + u_d and
    2 x_2p+1 = -i (u_c - u_d) for pair p = (c, d), and twice n1, n2, nX.
    Returns {(row, col): (re, im)} over the nonzeros, P's in column 0.
    """
    t, tinv2 = {}, {}
    for p, (c, d) in enumerate(_PAIRS):
        t[c, 2 * p], t[d, 2 * p], t[c, 2 * p + 1], t[d, 2 * p + 1] = (1, 0), (1, 0), (0, 1), (0, -1)
        tinv2[2 * p, c], tinv2[2 * p, d], tinv2[2 * p + 1, c], tinv2[2 * p + 1, d] = (
            (1, 0), (1, 0), (0, -1), (0, 1))
    for q, r in enumerate((IDX_N1, IDX_N2, IDX_NX)):
        t[r, 12 + q], tinv2[12 + q, r] = (1, 0), (2, 0)
    m = {(i, j): (_units(v.real), _units(v.imag))
         for i, row in enumerate(system.matrix.tolist()) for j, v in enumerate(row) if v}
    drive = {(i, 0): (_units(v.real), _units(v.imag))
             for i, v in enumerate(system.drive.tolist()) if v}
    return _sparse_product(tinv2, _sparse_product(m, t)), _sparse_product(tinv2, drive)


def test_real_system_is_the_exact_similarity_transform(rng):
    # The solver's real M and P are T^-1 M T and T^-1 P of the complex
    # assembly entry by entry, exactly real, with no rounding; and the
    # solved u holds each pair as exact conjugates and n1, n2, nX exactly
    # real.  This is what a mis-built M would break.
    ps = _signed_zero_batch(rng) + [random_params(rng, with_detuning=True, with_second_drive=True)
                                    for _ in range(30)]
    assert all(p.delta != 0 and p.omega2 > 0 for p in ps[-30:])
    system = build_moment_systems(ps)
    real_m, real_p = _real_system(system)
    for k in range(len(ps)):
        exact_m, exact_p = _exact_real_system(MomentSystem(system.matrix[k], system.drive[k]))
        assert not any(im for _, im in (*exact_m.values(), *exact_p.values())), k
        got_m = {(i, j): 2 * _units(v) for i, row in enumerate(real_m[k].tolist())
                 for j, v in enumerate(row) if v}
        got_p = {(i, 0): 2 * _units(v) for i, v in enumerate(real_p[k].tolist()) if v}
        assert got_m == {key: re for key, (re, _) in exact_m.items() if re}, k
        assert got_p == {key: re for key, (re, _) in exact_p.items() if re}, k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        u, _ = _solve_stack(real_m, real_p)
    for c, d in _PAIRS:
        assert u[:, d].tobytes() == u[:, c].conj().tobytes()
    assert not np.any(u[:, [IDX_N1, IDX_N2, IDX_NX]].imag)


def test_moment_columns_carry_real_eigenvectors_onto_those_of_m(rng):
    # _moment_columns applies T (as _exact_real_system builds it) to the
    # columns of a stack, so the eigenvectors of the real T^-1 M T that the
    # spectral engine decomposes become eigenvectors of M.
    t = np.zeros((15, 15), dtype=complex)
    for p, (c, d) in enumerate(_PAIRS):
        t[c, 2 * p], t[d, 2 * p], t[c, 2 * p + 1], t[d, 2 * p + 1] = 1, 1, 1j, -1j
    for q, r in enumerate((IDX_N1, IDX_N2, IDX_NX)):
        t[r, 12 + q] = 1
    assert np.array_equal(_moment_columns(np.eye(15)[None]), t[None])
    system = build_moment_systems([random_params(rng, with_detuning=True, with_second_drive=True)
                                   for _ in range(10)])
    m = system.matrix
    vals, vecs = np.linalg.eig(_real_system(system)[0])
    vecs = _moment_columns(vecs)
    residual = np.abs(m @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2))
    assert np.all(residual <= 1e-13 * np.abs(m).sum(axis=-1).max(axis=-1))


def test_one_factorization_per_stack(monkeypatch):
    # The refinement reuses the M^-1 of the stack's one LU, so a whole
    # landscape row and the batch of one each make a single LAPACK solve.
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append((args[0].dtype, args[0].shape))
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    row = [SystemParams(g=5.0, gamma=gamma, theta=0.5 * np.pi, phi=0.0, omega1=1e-3)
           for gamma in np.geomspace(0.01, 1.0, 31)]
    assert len(_solve_stack(*_real_system(build_moment_systems(row)))[0]) == 31
    # The one solve is of the real system.
    assert calls == [(np.float64, (31, 15, 15))]
    steady_state(build_moment_system(row[0]))
    assert calls == [(np.float64, (31, 15, 15)), (np.float64, (1, 15, 15))]


def _exact(z):
    """The complex float z as an exact (re, im) pair of Fractions."""
    return Fraction(z.real), Fraction(z.imag)


def _exact_solve(a, b):
    """x = a^-1 b in exact rational arithmetic; every entry an (re, im) pair of Fractions.

    Gaussian elimination on the real form [[A, -B], [B, A]] [x; y] = [p; q]
    of (A + iB)(x + iy) = p + iq.
    """
    n = len(b)
    rows = ([[v for v, _ in a[i]] + [-v for _, v in a[i]] + [b[i][0]] for i in range(n)]
            + [[v for _, v in a[i]] + [v for v, _ in a[i]] + [b[i][1]] for i in range(n)])
    size = 2 * n
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r][col:] = [v - f * w for v, w in zip(rows[r][col:], rows[col][col:])]
    sol = [Fraction(0)] * size
    for r in reversed(range(size)):
        acc = sum((rows[r][c] * sol[c] for c in range(r + 1, size)), Fraction(0))
        sol[r] = (rows[r][size] - acc) / rows[r][r]
    return [(sol[i], sol[n + i]) for i in range(n)]


def _exact_steady_state(system):
    """u = M^-1 P in exact rational arithmetic, as (re, im) Fraction pairs, with every
    float entry of M and P taken exactly."""
    return _exact_solve([list(map(_exact, row)) for row in system.matrix.tolist()],
                        list(map(_exact, system.drive.tolist())))


@pytest.mark.parametrize("p, tol", [
    (SystemParams(g=1000.0, theta=1.0, omega1=0.005), 1e-14),
    (SystemParams(g=5.0, gamma=0.01, theta=0.5 * np.pi, omega1=1e-3), 2 * np.finfo(float).eps),
    (SystemParams(g=0.6, theta=0.9, gamma=0.8, phi=1.3, delta=0.4, omega1=1.3),
     2 * np.finfo(float).eps),
], ids=["strong-coherent-weak-drive", "landscape-corner", "asymmetric"])
def test_refinement_matches_exact_solution(p, tol):
    # Componentwise relative error of the refined moments against the exact
    # solution of the assembled M.  An unrefined double solve misses these
    # bounds (n1 3.4e-12 at strong coupling, 3.4e-15 at the landscape corner,
    # s1 1.6e-15 at the asymmetric point).
    system = build_moment_system(p)
    exact = _exact_steady_state(system)
    state = steady_state(system)
    for value, idx in ((state.n1, IDX_N1), (state.n2, IDX_N2), (state.nX, IDX_NX),
                       (state.s1, IDX_S1), (state.s2, IDX_S2)):
        x, y = exact[idx]
        z = complex(value)
        err2 = ((Fraction(z.real) - x) ** 2 + (Fraction(z.imag) - y) ** 2) / (x * x + y * y)
        assert float(err2) <= tol ** 2, (idx, float(err2) ** 0.5)


def test_decoupled_matrix_is_diagonal():
    system = build_moment_system(SystemParams())
    m = system.matrix
    assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
    diag = np.real(np.diag(m))
    expected = [0.5] * 4 + [1.0] * 6 + [1.5] * 4 + [2.0]
    np.testing.assert_allclose(diag, expected)


def test_cross_decay_block_entries():
    p = SystemParams(gamma=0.8, phi=0.7)
    m = build_moment_system(p).matrix
    assert m[8, 14] == pytest.approx(-2 * 0.8 * np.exp(-0.7j))
    assert m[9, 14] == pytest.approx(-2 * 0.8 * np.exp(0.7j))


def test_unidirectional_fingerprint():
    # At the forward one-way point every g+ occurrence in M vanishes.
    p = unidirectional_pair(1.0, 0.7)
    gp, gm = generalized_couplings(p)
    assert abs(gp) < 1e-15
    m = build_moment_system(p).matrix
    for idx in ((0, 1), (0, 10), (4, 8), (9, 5), (10, 11), (12, 13)):
        assert abs(m[idx]) < 1e-15
    # while the counter-rotating combination survives
    assert abs(gm) == pytest.approx(1.0)


def test_undriven_steady_state_is_ground():
    st = steady_state(build_moment_system(SystemParams(g=0.5, gamma=0.5, theta=1.0)))
    assert np.max(np.abs(st.u)) == 0.0
    pops = populations(st)
    np.testing.assert_allclose(pops.as_array(), [1, 0, 0, 0])


def test_strong_drive_coherent_limit():
    pops = populations(steady_state(build_moment_system(coherent_pair(1.0, 1e3))))
    np.testing.assert_allclose(pops.as_array(), [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-5)


def test_weak_drive_trapping():
    pops = populations(steady_state(build_moment_system(dissipative_pair(1.0, 1e-4))))
    np.testing.assert_allclose(pops.as_array(), [0.5, 0.25, 0.25, 0.0], atol=1e-3)


def test_populations_sum_and_bounds(rng):
    for _ in range(50):
        p = random_params(rng, with_detuning=True, with_second_drive=True)
        pops = populations(steady_state(build_moment_system(p)))
        assert pops.total == pytest.approx(1.0, abs=1e-12)
        assert np.all(pops.as_array() > -1e-12)
        assert np.all(pops.as_array() < 1.0 + 1e-12)


def test_moment_conjugate_pairing(rng):
    # <s1d> = conj(<s1>), <s1d s2d> = conj(<s1 s2>), <s1 s2d> = conj(<s1d s2>)
    pairs = [(0, 2), (1, 3), (6, 7), (8, 9), (10, 12), (11, 13)]
    for _ in range(30):
        p = random_params(rng, with_detuning=True, with_second_drive=True)
        st = steady_state(build_moment_system(p))
        for a, b in pairs:
            assert st.u[b] == pytest.approx(np.conj(st.u[a]), abs=1e-12)


def test_joint_excitation_bounds(rng):
    for _ in range(30):
        p = random_params(rng)
        st = steady_state(build_moment_system(p))
        assert -1e-12 <= st.nX <= min(st.n1, st.n2) + 1e-12


def test_g2_weak_drive_values():
    st = steady_state(build_moment_system(dissipative_pair(1.0, 1e-3)))
    assert g2_cross(st) < 1e-3
    st = steady_state(build_moment_system(coherent_pair(1.0, 1e-3)))
    assert g2_cross(st) == pytest.approx(25.0 / 4.0, abs=1e-3)


def test_g2_washes_out_at_strong_drive():
    for p in (coherent_pair(0.6, 100.0), dissipative_pair(0.9, 100.0),
              unidirectional_pair(1.0, 100.0)):
        st = steady_state(build_moment_system(p))
        assert g2_cross(st) == pytest.approx(1.0, abs=1e-3)


def test_g2_undefined_at_zero_drive():
    st = steady_state(build_moment_system(SystemParams(g=1.0)))
    with pytest.raises(UndefinedCorrelatorError):
        g2_cross(st)


def test_backward_coupling_shields_emitter2():
    # Backward (2 -> 1) one-way coupling with only emitter 1 driven: no
    # excitation reaches emitter 2, and emitter 1 keeps exactly the solitary
    # population since nothing flows back either.
    from mollowpair.single_emitter import single_population

    p = unidirectional_pair(1.0, 1.0, forward=False)
    pops = populations(steady_state(build_moment_system(p)))
    assert pops.rho01 == pytest.approx(0.0, abs=1e-12)
    assert pops.rho11 == pytest.approx(0.0, abs=1e-12)
    assert pops.rho10 == pytest.approx(single_population(1.0, 1.0), abs=1e-12)


def test_unidirectional_population_identity():
    # rho10 + rho11 equals the solitary-emitter population across a sweep.
    from mollowpair.single_emitter import single_population

    for omega in np.geomspace(0.01, 100.0, 50):
        pops = populations(steady_state(build_moment_system(unidirectional_pair(1.0, omega))))
        n0 = single_population(omega, 1.0)
        assert abs(pops.rho10 + pops.rho11 - n0) < 1e-12


def test_singular_system_raises():
    # A conjugate-consistent M of rank 2: <s1> and <s1^dag> decay, nothing else.
    m = np.zeros((15, 15), dtype=complex)
    m[0, 0] = m[2, 2] = 1.0
    with pytest.raises(SingularSystemError, match="inf\\) at stack row 0$"):
        steady_state(MomentSystem(matrix=m, drive=np.zeros(15, dtype=complex)))
    # In a stack, before or after a regular point, LAPACK's LinAlgError for
    # the exactly singular factor is raised as SingularSystemError naming its row.
    regular = build_moment_system(coherent_pair(1.0, 1.0))
    zero = np.zeros(15, dtype=complex)
    for row, matrices, drives in ((1, [regular.matrix, m], [regular.drive, zero]),
                                  (0, [m, regular.matrix], [zero, regular.drive])):
        with pytest.raises(SingularSystemError) as err:
            _solve_stack(*_real_system(MomentSystem(matrix=np.stack(matrices),
                                                    drive=np.stack(drives))))
        assert str(err.value) == ("moment matrix numerically singular (1-norm condition "
                                  f"number inf) at stack row {row}")


@pytest.mark.parametrize("p, warns", [(coherent_pair(1.0, 1.0), False),
                                      (dissipative_pair(1.0, 1e-6), True)])
def test_cond_is_the_exact_one_norm_condition_number(p, warns):
    # The solve's own LU gives the real M^-1, so cond is ||M||_1 ||M^-1||_1 of
    # the real system, not an estimate.  The trapping point omega1 = 1e-6
    # (4.0e12) still warns.
    system = build_moment_system(p)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        state = steady_state(system)
    real_m = _real_system(MomentSystem(system.matrix[None], system.drive[None]))[0][0]
    assert state.cond == pytest.approx(np.linalg.cond(real_m, 1), rel=1e-12)
    assert (state.cond > 1e12) is warns
    assert [w.category for w in record] == [ConditionWarning] * warns


def test_condition_warning():
    m = np.diag(np.array([1.0] * 14 + [1e-13], dtype=complex))
    with pytest.warns(ConditionWarning) as record:
        steady_state(MomentSystem(matrix=m, drive=np.zeros(15, dtype=complex)))
    # The warning names the caller's line, not the solver's.
    assert [w.filename for w in record] == [__file__]
    # In a stack it names the row.
    regular = build_moment_system(coherent_pair(1.0, 1.0))
    with pytest.warns(ConditionWarning) as record:
        _solve_stack(*_real_system(MomentSystem(
            matrix=np.stack([regular.matrix, m]),
            drive=np.stack([regular.drive, np.zeros(15, dtype=complex)]))))
    assert [str(w.message) for w in record] == [
        "moment solve 1-norm condition number 1.000e+13 exceeds 1e12 at stack row 1"]
    # A caller's label is built only for the row that warns.
    named = []
    with pytest.warns(ConditionWarning) as record:
        _solve_stack(*_real_system(MomentSystem(
            matrix=np.stack([regular.matrix, m]),
            drive=np.stack([regular.drive, np.zeros(15, dtype=complex)]))),
            lambda row: named.append(row) or f"point {row} of the probe")
    assert named == [1]
    assert str(record[0].message).endswith("exceeds 1e12 at point 1 of the probe")


def test_conjugate_consistency_guard():
    # A corrupted M or P must fail loudly, not be solved in part: the real
    # system reads one member of each conjugate pair of entries, here the
    # diagonal of n1, an entry it reads, one it does not and P.
    system = build_moment_system(coherent_pair(1.0, 1.0))
    message = "^M or P is not conjugate-consistent at stack row 0;"
    for i, j, z in ((4, 4, 0.3j), (0, 1, 0.1), (2, 3, 0.1), (8, 14, 0.1j)):
        bad = system.matrix.copy()
        bad[i, j] += z
        with pytest.raises(NumericalError, match=message):
            steady_state(MomentSystem(matrix=bad, drive=system.drive))
    drive = system.drive.copy()
    drive[2] += 0.5
    with pytest.raises(NumericalError, match=message):
        steady_state(MomentSystem(matrix=system.matrix, drive=drive))
