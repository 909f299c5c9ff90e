"""Construction and inspection helpers that only the tests use.

They build states and operators by hand (product states, exact
factorizations of dense vectors, single-site operators) and inspect them
(isometry residuals, entanglement spectra, phase alignment of a spectral
point) so the tests can check the package against independent references,
and compare an iterative eigenpair with a dense one.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from udmrg.linalg import dag, max_abs
from udmrg.models import ID2
from udmrg.mps import MatrixProductOperator, MatrixProductState, canonicalize
from udmrg.spectral import SpectralPoint, _aligned


def from_product_state(local_states: Sequence) -> MatrixProductState:
    """Bond-dimension-one MPS from normalized local state vectors."""
    tensors = []
    for s, vec in enumerate(local_states):
        v = np.asarray(vec, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"local state {s} has norm {norm!r}, expected 1")
        tensors.append(v.reshape(1, v.size, 1))
    return MatrixProductState(tensors, center=0)


def from_dense_state(vector, phys_dims: Sequence[int]) -> MatrixProductState:
    """Exact MPS factorization of a dense state vector via successive SVDs."""
    dims = list(phys_dims)
    v = np.asarray(vector, dtype=complex).ravel()
    if v.size != int(np.prod(dims)):
        raise ValueError("vector length does not match the physical dimensions")
    tensors = []
    rest = v.reshape(1, -1)
    for d in dims[:-1]:
        m = rest.reshape(rest.shape[0] * d, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        keep = s > 1e-14 * s[0] if s.size else s > 0
        u, s, vh = u[:, keep], s[keep], vh[keep]
        tensors.append(u.reshape(rest.shape[0], d, -1))
        rest = s[:, None] * vh
    tensors.append(rest.reshape(rest.shape[0], dims[-1], 1))
    return MatrixProductState(tensors, center=len(dims) - 1)


def isometry_residuals(psi: MatrixProductState) -> list[float]:
    """Per-site deviation from the isometry condition implied by the center."""
    if psi.center is None:
        raise ValueError("state has no canonical center")
    residuals = []
    for s, t in enumerate(psi.tensors):
        l, d, r = t.shape
        if s < psi.center:
            m = t.reshape(l * d, r)
            residuals.append(max_abs(dag(m) @ m - np.eye(r)))
        elif s > psi.center:
            m = t.reshape(l, d * r)
            residuals.append(max_abs(m @ dag(m) - np.eye(l)))
        else:
            residuals.append(0.0)
    return residuals


def entanglement_spectrum(psi: MatrixProductState, bond: int) -> np.ndarray:
    """Squared Schmidt coefficients across ``bond``, descending, unit sum."""
    if not 0 <= bond < psi.n_sites - 1:
        raise ValueError(f"bond {bond} out of range for {psi.n_sites} sites")
    phi = canonicalize(psi, bond)
    l, d, r = phi.tensors[bond].shape
    s = np.linalg.svd(phi.tensors[bond].reshape(l * d, r), compute_uv=False)
    p = s**2
    total = p.sum()
    if total <= 0:
        raise ValueError("state has zero norm")
    return p / total


def single_site_mpo(op: np.ndarray, site: int, n: int) -> MatrixProductOperator:
    """Bond-dimension-one MPO acting with ``op`` on one site, identity elsewhere."""
    tensors = []
    for s in range(n):
        local = op if s == site else ID2
        tensors.append(np.asarray(local, dtype=complex).reshape(1, 2, 2, 1))
    return MatrixProductOperator(tensors)


def align_phases(prev: SpectralPoint, cur: SpectralPoint) -> SpectralPoint:
    """Fix eigenvector phases of ``cur`` against ``prev``.

    Each column is multiplied by a unit phase so the diagonal overlap
    ``<a_prev|a_cur>`` becomes real and non-negative.  When some diagonal
    overlap magnitude falls below ``DEGENERACY_THRESHOLD`` the columns are
    first reordered by maximum-overlap assignment.  Idempotent.  This is the
    alignment step :func:`udmrg.spectral.track_hermitian_family` applies
    between neighbouring points.
    """
    if prev.vectors.shape != cur.vectors.shape:
        raise ValueError(
            f"dimension mismatch: {prev.vectors.shape} vs {cur.vectors.shape}"
        )
    vals, vecs, _ = _aligned(prev.vectors, cur.eigenvalues, cur.vectors)
    return SpectralPoint(eigenvalues=vals, vectors=vecs)


def assert_same_eigenpair(energy: float, vector: np.ndarray, ref_energy: float,
                          ref_vector: np.ndarray, tol: float = 1e-10) -> None:
    """``energy`` within ``tol`` of ``ref_energy``, and ``vector`` within
    ``tol`` of ``ref_vector`` entrywise once their relative phase is removed."""
    assert abs(energy - ref_energy) <= tol
    overlap = np.vdot(ref_vector, vector)
    assert max_abs(vector - overlap / abs(overlap) * ref_vector) <= tol
