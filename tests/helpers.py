"""Construction and inspection helpers that only the tests use.

They build states and operators by hand (product states, exact
factorizations of dense vectors, complex random states, single-site
operators) and inspect them
(isometry residuals, entanglement spectra, phase alignment of one
eigensystem) so the tests can check the package against independent
references, and compare an iterative eigenpair with a dense one.  Two spies
(:func:`count_dense_calls`, :func:`count_dense_tiers`) count what the dense
local solve of :mod:`udmrg.dmrg` computes, and :func:`tree_nodes` lists the
points a trajectory tree holds.  The point-by-point spectral
tracker (:func:`sequential_track`), the Pauli Y
matrix, the Landau-Zener survival probability and the free-fermion TFIM
ground energy are references of the same kind.
"""
from __future__ import annotations

import sys
from typing import Sequence

import numpy as np

from udmrg import dmrg
from udmrg.linalg import dag, max_abs, require_hermitian
from udmrg.models import ID2
from udmrg.mps import MatrixProductOperator, MatrixProductState, canonicalize
from udmrg.spectral import (DEGENERACY_THRESHOLD, SpectralTrack, diagonal_phases,
                             max_overlap_permutation)

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def landau_zener_reference(v: float, coupling: float) -> float:
    """Asymptotic diabatic survival probability ``exp(-2 pi V^2 / v)``.

    ``v`` is the sweep velocity of the diabatic gap (``d(eps1 - eps2)/dt``).
    """
    if v <= 0:
        raise ValueError("sweep velocity must be positive")
    return float(np.exp(-2.0 * np.pi * coupling**2 / v))


def free_fermion_tfim_energy(n_sites: int, coupling: float, field: float) -> float:
    """Ground energy of the open TFIM chain ``-J sum Z.Z - h sum X`` as free fermions.

    ``E0 = -sum svd(B)``, where ``B`` is the ``n x n`` bidiagonal matrix with
    ``B_ii = h`` and ``B_i,i+1 = J`` (Lieb, Schultz & Mattis, Ann. Phys. 16,
    407 (1961); Pfeuty, Ann. Phys. 57, 79 (1970)).
    """
    b = np.diag(np.full(n_sites, float(field)))
    b += np.diag(np.full(n_sites - 1, float(coupling)), 1)
    return float(-np.linalg.svd(b, compute_uv=False).sum())


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


def complex_random_mps(rng: np.random.Generator, phys_dims: Sequence[int],
                       bond_dim: int) -> MatrixProductState:
    """Normalized random MPS with complex tensors and the bonds of
    :func:`udmrg.mps.random_mps`.

    Each site draws a real part, then an imaginary part, from ``rng``.  For
    the tests whose premise is a complex state: conjugation checks, and scans
    of a real MPO whose local problems start complex.
    """
    dims = list(phys_dims)
    n = len(dims)
    bonds = [1]
    for s in range(1, n):
        left = int(np.prod(dims[:s]))
        right = int(np.prod(dims[s:]))
        bonds.append(min(bond_dim, left, right))
    bonds.append(1)
    tensors = []
    for s in range(n):
        shape = (bonds[s], dims[s], bonds[s + 1])
        tensors.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = canonicalize(MatrixProductState(tensors), 0)
    psi.tensors[0] = psi.tensors[0] / psi.norm()
    return psi


def bond_dims(psi: MatrixProductState) -> tuple[int, ...]:
    """Internal bond dimensions (length ``n_sites - 1``)."""
    return tuple(t.shape[2] for t in psi.tensors[:-1])


def copy_state(psi: MatrixProductState) -> MatrixProductState:
    """An independent copy of ``psi``: its tensors copied, its center kept."""
    return MatrixProductState([t.copy() for t in psi.tensors], psi.center)


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


def aligned_step(prev: np.ndarray, vals: np.ndarray, vecs: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Align the eigensystems ``(vals, vecs)`` to the aligned vectors ``prev``.

    The per-point alignment step of the sequential reference tracker.  Takes
    one point, ``(d,)`` and ``(d, d)``, or a stack of them with leading axes.
    A member with a diagonal overlap magnitude below ``DEGENERACY_THRESHOLD``
    is degenerate: its columns are first reordered by
    :func:`udmrg.spectral.max_overlap_permutation`, one member at a time.
    Every column is then multiplied by its
    :func:`udmrg.spectral.diagonal_phases` phase, which makes its diagonal
    overlap with ``prev`` real and non-negative.  Returns the aligned values
    and vectors, the column order taken from ``vecs`` and the degeneracy flag
    of each member; the inputs are not modified.
    """
    overlaps = dag(prev) @ vecs
    degenerate = np.any(np.abs(np.diagonal(overlaps, axis1=-2, axis2=-1))
                        < DEGENERACY_THRESHOLD, axis=-1)
    order = np.broadcast_to(np.arange(vals.shape[-1]), vals.shape).copy()
    if degenerate.any():
        vals, vecs = vals.copy(), vecs.copy()
        for i in map(tuple, np.argwhere(degenerate)):
            perm = max_overlap_permutation(np.abs(overlaps[i]))
            vals[i], vecs[i], order[i] = vals[i][perm], vecs[i][:, perm], perm
            overlaps[i] = overlaps[i][:, perm]
    return vals, vecs * diagonal_phases(overlaps)[..., None, :], order, degenerate


def sequential_track(grid, matrices) -> tuple[SpectralTrack, np.ndarray]:
    """The point-by-point reference for
    :func:`udmrg.spectral.track_hermitian_family`.

    The same validation and stacked eigensolve, then :func:`aligned_step`
    from each point to the next along the grid, every family of the stack at
    once.  Returns the track and the column order ``(..., n, d)`` each point
    took from the eigensolve.
    """
    grid = np.asarray(grid, dtype=float)
    w, v = np.linalg.eigh(require_hermitian(matrices, 1e-12, "input"))
    order = np.broadcast_to(np.arange(w.shape[-1]), w.shape).copy()
    degenerate = np.zeros(w.shape[:-1], dtype=bool)
    for k in range(1, grid.size):
        (w[..., k, :], v[..., k, :, :], order[..., k, :],
         degenerate[..., k]) = aligned_step(v[..., k - 1, :, :], w[..., k, :], v[..., k, :, :])
    return SpectralTrack(grid=grid, eigenvalues=w, vectors=v, degenerate=degenerate), order


def align_phases(prev_vectors: np.ndarray, eigenvalues: np.ndarray,
                 vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix the eigenvector phases of ``(eigenvalues, vectors)`` against
    ``prev_vectors``, the aligned vectors of the previous point.

    Each column is multiplied by a unit phase so the diagonal overlap
    ``<a_prev|a_cur>`` becomes real and non-negative.  When some diagonal
    overlap magnitude falls below ``DEGENERACY_THRESHOLD`` the columns are
    first reordered by maximum-overlap assignment.  Idempotent.  This is the
    step :func:`aligned_step` takes between neighbouring points; returns the
    aligned eigenvalues and vectors.
    """
    if prev_vectors.shape != vectors.shape:
        raise ValueError(f"dimension mismatch: {prev_vectors.shape} vs {vectors.shape}")
    vals, vecs, _, _ = aligned_step(prev_vectors, eigenvalues, vectors)
    return vals, vecs


def assert_same_eigenpair(energy: float, vector: np.ndarray, ref_energy: float,
                          ref_vector: np.ndarray, tol: float = 1e-10) -> None:
    """``energy`` within ``tol`` of ``ref_energy``, and ``vector`` within
    ``tol`` of ``ref_vector`` entrywise once their relative phase is removed."""
    assert abs(energy - ref_energy) <= tol
    overlap = np.vdot(ref_vector, vector)
    assert max_abs(vector - overlap / abs(overlap) * ref_vector) <= tol


#: the ``np.linalg`` routines the dense local solve calls, as the spies name them
DENSE_CALLS = ("solve", "cholesky", "eigvalsh", "eigh")


def count_dense_calls(monkeypatch) -> dict[str, int]:
    """Counts, by name, of the :data:`DENSE_CALLS` that
    ``dmrg._lowest_eigenpair`` makes itself, kept up to date as it runs."""
    counts = dict.fromkeys(DENSE_CALLS, 0)
    code = dmrg._lowest_eigenpair.__code__

    def counted(name, function):
        def spy(*args, **kwargs):
            if sys._getframe(1).f_code is code:
                counts[name] += 1
            return function(*args, **kwargs)
        return spy

    for name in DENSE_CALLS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts


def count_dense_tiers(monkeypatch) -> dict[str, int]:
    """How many dense local solves ``dmrg._lowest_eigenpair`` accepted at the
    warm start (``start``), by Rayleigh-quotient iteration (``rqi``), by
    inverse iteration shifted by ``eigvalsh`` (``eigvalsh``) and by the full
    ``eigh`` (``eigh``), kept up to date as it runs."""
    calls = count_dense_calls(monkeypatch)
    tiers = dict.fromkeys(("start", "rqi", "eigvalsh", "eigh"), 0)
    lowest_eigenpair = dmrg._lowest_eigenpair

    def spy(heff, left, right):
        before = dict(calls)
        result = lowest_eigenpair(heff, left, right)
        if heff.dim <= dmrg._FULL_EIGH_DIM:
            made = {name: calls[name] - before[name] for name in DENSE_CALLS}
            tiers["eigh" if made["eigh"] else "eigvalsh" if made["eigvalsh"]
                  else "rqi" if made["solve"] else "start"] += 1
        return result

    monkeypatch.setattr(dmrg, "_lowest_eigenpair", spy)
    return tiers


def split_by_policy(monkeypatch, tiers: dict[str, int]) -> dict:
    """The :func:`count_dense_tiers` counts ``tiers`` split by the truncation
    policy of the solve each step belongs to, kept up to date as it runs.

    A scan's first point solves under the standard kind whatever the scan's
    policy, so its steps count there; a replayed point solves nothing.
    """
    by_policy: dict = {}
    run_dmrg = dmrg._run_dmrg

    def spy(hamiltonian, init, cfg, context):
        before = dict(tiers)
        result = run_dmrg(hamiltonian, init, cfg, context)
        split = by_policy.setdefault(cfg.policy, dict.fromkeys(tiers, 0))
        for name in tiers:
            split[name] += tiers[name] - before[name]
        return result

    monkeypatch.setattr(dmrg, "_run_dmrg", spy)
    return by_policy


def tree_nodes(tree: dmrg.TrajectoryTree) -> list:
    """Every node of ``tree``, each once, in no particular order."""
    nodes, stack = [], list(tree.children)
    while stack:
        nodes.append(stack.pop())
        stack += nodes[-1].children
    return nodes
