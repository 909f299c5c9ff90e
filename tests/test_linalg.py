import numpy as np
import pytest

from udmrg.linalg import (
    commutator,
    dag,
    hermitian_basis_element,
    hermitian_part,
    hermiticity_residual,
    max_abs,
    random_hermitian,
    random_unitary,
    require_hermitian,
    require_square,
    require_unitary,
    unitarity_residual,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_dag_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    np.testing.assert_array_equal(dag(a), a.conj().T)


def test_pauli_commutator():
    np.testing.assert_allclose(commutator(SZ, SX), 2j * SY, atol=1e-15)


def test_hermitian_part_symmetrizes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian_part(a)
    assert hermiticity_residual(h) == 0.0
    np.testing.assert_allclose(h + 0.5 * (a - dag(a)), a)


def test_max_abs_handles_empty():
    assert max_abs(np.array([])) == 0.0
    assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0


def test_require_square_rejects_rectangles():
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros(4))


def test_require_hermitian_symmetrizes_and_rejects():
    noisy = SZ + 1e-14 * np.array([[0, 1], [0, 0]])
    out = require_hermitian(noisy, tol=1e-12)
    assert hermiticity_residual(out) == 0.0
    with pytest.raises(ValueError, match="not hermitian"):
        require_hermitian(SZ + 0.1 * np.array([[0, 1], [0, 0]]), tol=1e-12)


def test_require_unitary():
    rng = np.random.default_rng(1)
    v = random_unitary(rng, 5)
    assert unitarity_residual(v) < 1e-13
    np.testing.assert_array_equal(require_unitary(v), v)
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(2.0 * v)


def test_random_hermitian_is_hermitian_and_seeded():
    a = random_hermitian(np.random.default_rng(3), 6, scale=0.7)
    b = random_hermitian(np.random.default_rng(3), 6, scale=0.7)
    assert hermiticity_residual(a) == 0.0
    np.testing.assert_array_equal(a, b)


def test_random_unitary_is_seeded():
    a = random_unitary(np.random.default_rng(9), 4)
    b = random_unitary(np.random.default_rng(9), 4)
    np.testing.assert_array_equal(a, b)


def test_hermitian_basis_is_orthonormal():
    """Every (a, b) pair indexes a hermitian element; pairs are orthonormal."""
    dim = 3
    elements = {}
    for a in range(dim):
        for b in range(dim):
            e = hermitian_basis_element(dim, a, b)
            assert hermiticity_residual(e) == 0.0
            elements[(a, b)] = e
    for k1, e1 in elements.items():
        for k2, e2 in elements.items():
            inner = np.trace(dag(e1) @ e2).real
            expected = 1.0 if k1 == k2 else 0.0
            assert inner == pytest.approx(expected, abs=1e-14)


def test_hermitian_basis_spans_hermitian_matrices():
    rng = np.random.default_rng(11)
    target = random_hermitian(rng, 3)
    recon = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            e = hermitian_basis_element(3, a, b)
            recon += np.trace(dag(e) @ target) * e
    np.testing.assert_allclose(recon, target, atol=1e-14)
