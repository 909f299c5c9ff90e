"""Small dense linear-algebra helpers shared across the package.

Everything here operates on plain real or complex ``numpy`` arrays.  Operators
are square matrices, except for :func:`lanczos_lowest`, which sees its
operator only through a matrix-vector product; no wrapper classes are
introduced at this level.  The conjugate transpose, the validators and the
residuals also take a stack ``(..., d, d)`` with any leading axes and act on
each member; a 2-D input is the one-member case.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.inexact]

#: largest matrix ``models.exact_diagonalization`` diagonalizes (2**12
#: states).  It bounds nothing else: the experiments' exact ground states are
#: matrix-free, and the DMRG local solve has no such limit.
DENSE_LIMIT = 4096

#: Krylov basis size of one Lanczos cycle, and cycles allowed per solve
LANCZOS_KRYLOV = 24
LANCZOS_RESTARTS = 100
#: a Lanczos solve stops at residual ``||H x - E x|| <= LANCZOS_TOL * max(1, |E|)``
LANCZOS_TOL = 1e-12


def dag(a: Matrix) -> Matrix:
    """Conjugate transpose; of each member for a stack ``(..., d, d)``."""
    return a.conj().T if a.ndim < 3 else np.conj(np.swapaxes(a, -1, -2))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def hermitian_part(a: Matrix) -> Matrix:
    return 0.5 * (a + dag(a))


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def unit_sum(w: np.ndarray) -> np.ndarray:
    """``w`` scaled to sum to one; an all-zero ``w`` comes back as it is."""
    total = float(np.sum(w))
    return w / total if total > 0 else w


def hermiticity_residual(a: Matrix):
    """Largest entrywise deviation of ``a`` from its conjugate transpose.

    A float for one matrix; for a stack ``(..., d, d)`` an array holding the
    residual of each member.
    """
    res = np.abs(a - dag(a)).max(axis=(-2, -1), initial=0.0)
    return float(res) if res.ndim == 0 else res


def require_square(a, name: str = "matrix") -> Matrix:
    """``a`` as a complex square matrix, or as a stack ``(..., d, d)`` of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        what = "stack must hold square matrices" if a.ndim > 2 else "must be a square matrix"
        raise ValueError(f"{name} {what}, got shape {a.shape}")
    return a


def require_hermitian(a, tol: float = 1e-12, name: str = "matrix") -> Matrix:
    """Validate hermiticity within ``tol`` (relative to the matrix scale).

    Returns the exactly symmetrized matrix so downstream eigensolves see a
    hermitian input even when the caller's entries carry rounding noise.
    Raises ``ValueError`` quoting the maximum asymmetry otherwise.  A stack
    ``(..., d, d)`` with any leading axes is checked member by member, each
    against its own scale, and the first member that fails (in C order) is
    quoted.
    """
    a = require_square(a, name)
    adj = dag(a)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), 1.0)
    res = np.abs(a - adj).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(res > tol * scale)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{name} is not hermitian: max asymmetry {res.flat[i]:.3e} exceeds "
            f"tolerance {tol * scale.flat[i]:.3e}"
        )
    return 0.5 * (a + adj)


def unitarity_residual(v: Matrix) -> float:
    """Largest entry of ``|V^H V - I|``, over every member of a stack ``(..., d, d)``."""
    v = np.asarray(v, dtype=complex)
    eye = np.eye(v.shape[-1])
    return max_abs(dag(v) @ v - eye)


def require_unitary(v, tol: float = 1e-10, name: str = "matrix") -> Matrix:
    """Validate unitarity within ``tol``; a stack fails on its worst member."""
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


def lanczos_lowest(matvec: Callable[[np.ndarray], np.ndarray],
                   start: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Lowest eigenpair of a hermitian operator by restarted Lanczos.

    ``matvec`` applies the operator to a flat vector; ``start`` is the first
    estimate, of any shape with the operator's size, and the Krylov basis
    takes the result type of the start and its image.  Each cycle
    spans up to ``LANCZOS_KRYLOV`` Krylov vectors from the current estimate,
    orthogonalizes every new vector against all earlier ones twice (full
    reorthogonalization), and restarts from the lowest Ritz vector of the
    projected operator.  The solve stops once the residual
    ``||H x - E x||`` is at most ``LANCZOS_TOL * max(1, |E|)``.  Returns
    ``(E, x, converged)``: ``x`` of unit norm, ``E`` its Rayleigh quotient,
    and ``converged`` false when ``LANCZOS_RESTARTS`` cycles ran out first.
    No random numbers are drawn, so a solve is a pure function of its inputs.
    A start orthogonal to the lowest eigenvector (say, in another symmetry
    sector) finds the lowest pair it is not orthogonal to.
    """
    x = np.asarray(start).reshape(-1)
    x = x / np.linalg.norm(x)
    hx = matvec(x)
    size = min(LANCZOS_KRYLOV, x.size)
    basis = np.empty((size, x.size), dtype=np.result_type(x, hx))
    images = np.empty_like(basis)  # the operator applied to each basis vector
    cycles = 0
    while True:
        energy = float(np.vdot(x, hx).real)
        converged = bool(np.linalg.norm(hx - energy * x)
                         <= LANCZOS_TOL * max(1.0, abs(energy)))
        if converged or cycles == LANCZOS_RESTARTS:
            return energy, x, converged
        cycles += 1
        basis[0], images[0] = x, hx
        k = 1
        while k < size:
            w = images[k - 1]
            for _ in range(2):
                w = w - basis[:k].T @ (basis[:k].conj() @ w)
            norm = np.linalg.norm(w)
            if norm <= 1e-14 * np.linalg.norm(images[k - 1]):
                break  # the basis spans an invariant subspace
            basis[k] = w / norm
            images[k] = matvec(basis[k])
            k += 1
        _, ritz = np.linalg.eigh(hermitian_part(basis[:k].conj() @ images[:k].T))
        x, hx = ritz[:, 0] @ basis[:k], ritz[:, 0] @ images[:k]
        norm = np.linalg.norm(x)
        x, hx = x / norm, hx / norm
