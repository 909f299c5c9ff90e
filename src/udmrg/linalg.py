"""Small dense linear-algebra helpers shared across the package.

Everything here operates on plain complex ``numpy`` arrays.  Operators are
square matrices; no wrapper classes are introduced at this level.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.complexfloating]


def dag(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return a.conj().T


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def hermitian_part(a: Matrix) -> Matrix:
    return 0.5 * (a + dag(a))


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_residual(a: Matrix) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    return max_abs(a - dag(a))


def require_square(a, name: str = "matrix") -> Matrix:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a, tol: float = 1e-12, name: str = "matrix") -> Matrix:
    """Validate hermiticity within ``tol`` (relative to the matrix scale).

    Returns the exactly symmetrized matrix so downstream eigensolves see a
    hermitian input even when the caller's entries carry rounding noise.
    Raises ``ValueError`` quoting the maximum asymmetry otherwise.
    """
    a = require_square(a, name)
    scale = max(max_abs(a), 1.0)
    res = hermiticity_residual(a)
    if res > tol * scale:
        raise ValueError(
            f"{name} is not hermitian: max asymmetry {res:.3e} exceeds "
            f"tolerance {tol * scale:.3e}"
        )
    return hermitian_part(a)


def unitarity_residual(v: Matrix) -> float:
    v = np.asarray(v, dtype=complex)
    eye = np.eye(v.shape[1])
    return max_abs(dag(v) @ v - eye)


def require_unitary(v, tol: float = 1e-10, name: str = "matrix") -> Matrix:
    v = require_square(v, name)
    res = unitarity_residual(v)
    if res > tol:
        raise ValueError(
            f"{name} is not unitary: max |V^H V - I| = {res:.3e} exceeds {tol:.1e}"
        )
    return v


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> Matrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * hermitian_part(g)


def random_unitary(rng: np.random.Generator, dim: int) -> Matrix:
    """Haar-distributed unitary via QR with the standard phase fix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian_basis_element(dim: int, a: int, b: int) -> Matrix:
    """Frobenius-orthonormal hermitian basis element indexed by an (a, b) pair.

    Diagonal pairs give ``|a><a|``; pairs with a < b give the real symmetric
    combination, pairs with a > b the imaginary antisymmetric one (both scaled
    by 1/sqrt(2) so every element has unit Frobenius norm).
    """
    e = np.zeros((dim, dim), dtype=complex)
    if a == b:
        e[a, a] = 1.0
    elif a < b:
        e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
    else:
        e[b, a] = 1j / np.sqrt(2.0)
        e[a, b] = -1j / np.sqrt(2.0)
    return e
