"""Pair Hamiltonian structure, dressed energies and transition frequencies."""

import math

import numpy as np
import pytest

from mollowpair.hamiltonian import (
    build_pair_hamiltonian,
    dressed_energies,
    quintuplet_frequencies,
)
from mollowpair.params import SystemParams

SQRT5 = math.sqrt(5.0)
SQRT17 = math.sqrt(17.0)


def test_zero_matrix_without_drive_or_coupling():
    h = build_pair_hamiltonian(SystemParams())
    assert np.all(h == 0.0)


def test_entry_pattern_single_drive():
    p = SystemParams(g=1.0, theta=0.0, omega1=1.0)
    h = build_pair_hamiltonian(p)
    expected = np.array([
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=complex)
    np.testing.assert_allclose(h, expected)


def test_exchange_phase_and_second_drive():
    p = SystemParams(delta=0.3, g=2.0, theta=0.7, omega1=1.0, omega2=0.5)
    h = build_pair_hamiltonian(p)
    assert h[1, 2] == pytest.approx(2.0 * np.exp(0.7j))
    assert h[2, 1] == pytest.approx(2.0 * np.exp(-0.7j))
    # omega2 couples |00> <-> |01> and |10> <-> |11>
    assert h[0, 2] == h[1, 3] == 0.5
    assert np.trace(h) == pytest.approx(4 * 0.3)


def test_hermiticity(rng):
    for _ in range(20):
        p = SystemParams(delta=rng.uniform(-2, 2), g=rng.uniform(0, 3),
                         theta=rng.uniform(0, 2 * np.pi), omega1=rng.uniform(0, 3),
                         omega2=rng.uniform(0, 3))
        h = build_pair_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-15


def test_eigenvalues_match_dressed_energies(rng):
    for _ in range(30):
        g = rng.uniform(0, 3)
        omega = rng.uniform(0, 3)
        p = SystemParams(g=g, theta=rng.uniform(0, 2 * np.pi), omega1=omega)
        eig = np.sort(np.linalg.eigvalsh(build_pair_hamiltonian(p)))[::-1]
        np.testing.assert_allclose(eig, dressed_energies(g, omega), atol=1e-12)


def test_dressed_energies_values():
    np.testing.assert_allclose(dressed_energies(1.0, 0.0), [1.0, 0.0, 0.0, -1.0])
    np.testing.assert_allclose(dressed_energies(0.0, 1.0), [1.0, 1.0, -1.0, -1.0])
    np.testing.assert_allclose(
        dressed_energies(1.0, 1.0),
        [(SQRT5 + 1) / 2, (SQRT5 - 1) / 2, -(SQRT5 - 1) / 2, -(SQRT5 + 1) / 2],
    )
    assert dressed_energies(2.3, 0.9).sum() == pytest.approx(0.0, abs=1e-15)


def test_quintuplet_frequencies_values():
    np.testing.assert_allclose(quintuplet_frequencies(1.0, 0.0), [-2, 0, 0, 0, 2])
    np.testing.assert_allclose(
        quintuplet_frequencies(1.0, 2.0),
        [-(SQRT17 + 1), -(SQRT17 - 1), 0.0, SQRT17 - 1, SQRT17 + 1],
    )
    np.testing.assert_allclose(quintuplet_frequencies(0.0, 1.0), [-2, -2, 0, 2, 2])
