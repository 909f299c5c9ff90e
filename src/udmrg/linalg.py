"""Small dense linear-algebra helpers shared across the package.

Everything here operates on plain real or complex ``numpy`` arrays.  Operators
are square matrices, except for :func:`lanczos_lowest`, which sees its
operator only through a matrix-vector product; no wrapper classes are
introduced at this level.  The conjugate transpose, the validators and the
residuals also take a stack ``(..., d, d)`` with any leading axes and act on
each member; a 2-D input is the one-member case.

:func:`contract` is the engine's one tensor contraction.  It runs the same
numpy operations as ``np.tensordot`` in the same order -- transpose and
reshape each operand to a matrix, one ``np.dot``, reshape the product -- so
its result equals ``np.tensordot``'s bit for bit, dtype included.  The
permutations and shapes are planned once per shape signature
``(a.shape, b.shape, axes)`` and reused; at the engine's small bond
dimensions that bookkeeping, not the product, is most of a call.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.inexact]

#: Krylov basis size of one Lanczos cycle, and cycles allowed per solve
LANCZOS_KRYLOV = 24
LANCZOS_RESTARTS = 100
#: a Lanczos solve stops at residual ``||H x - E x|| <= LANCZOS_TOL * max(1, |E|)``
LANCZOS_TOL = 1e-12

#: the smallest normal float64, ``np.finfo(float).tiny``
_SMALLEST_NORMAL = 2.2250738585072014e-308


def dag(a: Matrix) -> Matrix:
    """Conjugate transpose; of each member for a stack ``(..., d, d)``."""
    return a.conj().T if a.ndim < 3 else np.conj(np.swapaxes(a, -1, -2))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def hermitian_part(a: Matrix) -> Matrix:
    return 0.5 * (a + dag(a))


def norm2(v: np.ndarray) -> float:
    """2-norm of a vector: for a real ``v``, ``sqrt(v . v)`` over its entries
    in memory order, bit for bit what ``np.linalg.norm`` computes, without its
    generic dispatch; a complex ``v`` goes to ``np.linalg.norm``."""
    if np.iscomplexobj(v):
        return float(np.linalg.norm(v))
    v = v.ravel(order="K")  # BLAS sums a strided vector in another order
    return math.sqrt(v.dot(v))


def unit_norm(w: np.ndarray) -> np.ndarray:
    """Non-negative weights ``w``, not all zero, divided by ``sqrt(w . w)``.

    When ``w . w`` falls below the smallest normal float, ``w`` is first
    divided by its largest entry, so ``[2.2e-308]`` and ``[1e-160]`` come
    back as ``[1.0]``; any other contiguous ``w`` keeps the bits of
    ``w / norm2(w)``.
    """
    norm_sq = w.dot(w)
    if norm_sq < _SMALLEST_NORMAL:
        w = w / w.max()
        norm_sq = w.dot(w)
    return w / math.sqrt(norm_sq)


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def unit_sum(w: np.ndarray) -> np.ndarray:
    """``w`` scaled to sum to one along its last axis, row by row.

    A row whose sum is not positive (all zeros) keeps its values, and a
    ``w`` with no row to scale comes back as it is.
    """
    total = np.sum(w, axis=-1, keepdims=True)
    positive = total > 0
    return w / np.where(positive, total, 1.0) if positive.any() else w


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
    bad = np.flatnonzero(~(res <= tol * scale))  # NaN fails too
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


def require_unitary(v, name: str = "matrix") -> Matrix:
    """Validate unitarity within 1e-10; a stack fails on its worst member."""
    v = require_square(v, name)
    res = unitarity_residual(v)
    if not res <= 1e-10:  # NaN fails too
        raise ValueError(f"{name} is not unitary: max |V^H V - I| = {res:.3e} exceeds 1.0e-10")
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


@functools.lru_cache(maxsize=None)
def _contraction_plan(shape_a: tuple[int, ...], shape_b: tuple[int, ...], axes):
    """``(perm_a, matrix_a, perm_b, matrix_b, out_shape)`` of one contraction.

    The plan ``np.tensordot`` derives on every call: the summed axes of
    ``a`` go last and those of ``b`` first, in the order ``axes`` lists
    them.  Distinct shapes are few (bond dimensions up to the kept-state
    budget, small physical and MPO bonds), so the cache stays small.
    """
    if isinstance(axes, int):
        axes_a, axes_b = tuple(range(-axes, 0)), tuple(range(axes))
    else:
        axes_a, axes_b = (ax if isinstance(ax, tuple) else (ax,) for ax in axes)
    # indexing the shapes rejects an axis out of range, as np.tensordot does;
    # a repeated axis makes a permutation that ``transpose`` rejects
    if (len(axes_a) != len(axes_b)
            or any(shape_a[i] != shape_b[j] for i, j in zip(axes_a, axes_b))):
        raise ValueError(f"cannot contract axes {axes} of shapes {shape_a} and {shape_b}")
    axes_a = tuple(i % len(shape_a) for i in axes_a)
    axes_b = tuple(j % len(shape_b) for j in axes_b)
    free_a = tuple(k for k in range(len(shape_a)) if k not in axes_a)
    free_b = tuple(k for k in range(len(shape_b)) if k not in axes_b)
    summed = math.prod(shape_a[k] for k in axes_a)
    return (free_a + axes_a, (math.prod(shape_a[k] for k in free_a), summed),
            axes_b + free_b, (summed, math.prod(shape_b[k] for k in free_b)),
            tuple(shape_a[k] for k in free_a) + tuple(shape_b[k] for k in free_b))


def contract(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """``np.tensordot(a, b, axes)`` with its axis bookkeeping planned once.

    ``axes`` takes ``np.tensordot``'s forms with hashable members: an int
    ``n`` (the last ``n`` axes of ``a`` against the first ``n`` of ``b``), or
    a pair whose members are each an int or a tuple of ints.  The result is
    the same array ``np.tensordot`` returns, bit for bit.
    """
    perm_a, mat_a, perm_b, mat_b, out = _contraction_plan(a.shape, b.shape, axes)
    return np.dot(a.transpose(perm_a).reshape(mat_a),
                  b.transpose(perm_b).reshape(mat_b)).reshape(out)


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
    x = x / norm2(x)
    hx = matvec(x)
    size = min(LANCZOS_KRYLOV, x.size)
    basis = np.empty((size, x.size), dtype=np.result_type(x, hx))
    images = np.empty_like(basis)  # the operator applied to each basis vector
    cycles = 0
    while True:
        energy = float(np.vdot(x, hx).real)
        converged = bool(norm2(hx - energy * x)
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
            norm = norm2(w)
            if norm <= 1e-14 * norm2(images[k - 1]):
                break  # the basis spans an invariant subspace
            basis[k] = w / norm
            images[k] = matvec(basis[k])
            k += 1
        _, ritz = np.linalg.eigh(hermitian_part(basis[:k].conj() @ images[:k].T))
        x, hx = ritz[:, 0] @ basis[:k], ritz[:, 0] @ images[:k]
        norm = norm2(x)
        x, hx = x / norm, hx / norm
