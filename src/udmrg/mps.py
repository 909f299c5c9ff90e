"""Matrix-product states and operators, dense-verifiable at desk scale.

Index conventions (fixed throughout the package):

* MPS site tensor:  ``A[left, phys, right]``
* MPO site tensor:  ``W[left, out, in, right]``

Boundary bonds have dimension one.  A state may carry a canonical center
``c``: sites left of ``c`` are left isometries, sites right of it right
isometries, and the tensor at ``c`` holds the norm.  Every operation returns
new objects; tensors are treated as immutable by convention.

Tensors keep the field of their data, stored as float64 when real and as
complex otherwise.  Every contraction follows numpy's type promotion, so a
real state under a real operator never leaves real arithmetic.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import dag, max_abs, unit_sum


def _inexact(t) -> np.ndarray:
    t = np.asarray(t)
    return t.astype(np.result_type(t, np.float64), copy=False)


class MatrixProductState:
    """Open-boundary MPS over arbitrary local dimensions."""

    def __init__(self, tensors: Sequence[np.ndarray], center: Optional[int] = None):
        if len(tensors) == 0:
            raise ValueError("an MPS needs at least one site")
        self.tensors = [_inexact(t) for t in tensors]
        for s, t in enumerate(self.tensors):
            if t.ndim != 3:
                raise ValueError(f"site {s} tensor must be rank 3, got shape {t.shape}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for s in range(len(self.tensors) - 1):
            if self.tensors[s].shape[2] != self.tensors[s + 1].shape[0]:
                raise ValueError(
                    f"bond mismatch between sites {s} and {s + 1}: "
                    f"{self.tensors[s].shape[2]} vs {self.tensors[s + 1].shape[0]}"
                )
        if center is not None and not 0 <= center < len(self.tensors):
            raise ValueError(f"canonical center {center} out of range")
        self.center = center

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Internal bond dimensions (length ``n_sites - 1``)."""
        return tuple(t.shape[2] for t in self.tensors[:-1])

    def copy(self) -> "MatrixProductState":
        return MatrixProductState([t.copy() for t in self.tensors], self.center)

    def norm(self) -> float:
        return float(np.sqrt(max(inner_product(self, self).real, 0.0)))


class MatrixProductOperator:
    """Open-boundary MPO; square local dimensions per site."""

    def __init__(self, tensors: Sequence[np.ndarray]):
        if len(tensors) == 0:
            raise ValueError("an MPO needs at least one site")
        self.tensors = [_inexact(t) for t in tensors]
        for s, t in enumerate(self.tensors):
            if t.ndim != 4:
                raise ValueError(f"site {s} tensor must be rank 4, got shape {t.shape}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[3] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for s in range(len(self.tensors) - 1):
            if self.tensors[s].shape[3] != self.tensors[s + 1].shape[0]:
                raise ValueError(f"bond mismatch between MPO sites {s} and {s + 1}")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def random_mps(rng: np.random.Generator, phys_dims: Sequence[int],
               bond_dim: int) -> MatrixProductState:
    """Normalized random MPS with bonds capped at ``bond_dim`` and exact rank."""
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


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def inner_product(bra: MatrixProductState, ket: MatrixProductState) -> complex:
    """``<bra|ket>`` by left-to-right transfer contraction."""
    if bra.physical_dims != ket.physical_dims:
        raise ValueError("states live on different local Hilbert spaces")
    env = np.ones((1, 1))
    for a, b in zip(bra.tensors, ket.tensors):
        t = np.tensordot(env, b, axes=(1, 0))          # (bra_bond, d, ket_right)
        env = np.tensordot(a.conj(), t, axes=((0, 1), (0, 1)))
    return complex(env[0, 0])


def to_dense(psi: MatrixProductState) -> np.ndarray:
    """Dense state vector (big-endian site ordering)."""
    v = np.ones((1, 1))
    for t in psi.tensors:
        v = np.einsum("pb,bdr->pdr", v, t).reshape(-1, t.shape[2])
    return v[:, 0]


def mpo_to_dense(op: MatrixProductOperator) -> np.ndarray:
    """Dense matrix of an MPO (same site ordering as :func:`to_dense`)."""
    m = np.ones((1, 1, 1))
    for t in op.tensors:
        m = np.einsum("xyb,boir->xoyir", m, t)
        m = m.reshape(m.shape[0] * m.shape[1], m.shape[2] * m.shape[3], m.shape[4])
    return m[:, :, 0]


def expectation(psi: MatrixProductState, op: MatrixProductOperator) -> complex:
    """Normalized expectation ``<psi|op|psi> / <psi|psi>``."""
    if psi.physical_dims != op.physical_dims:
        raise ValueError("state and operator live on different local Hilbert spaces")
    env = np.ones((1, 1, 1))  # (bra, mpo, ket)
    for a, w in zip(psi.tensors, op.tensors):
        t = np.tensordot(env, a, axes=(2, 0))            # (bra, mpo, d, kr)
        t = np.tensordot(t, w, axes=((1, 2), (0, 2)))    # (bra, kr, out, wr)
        env = np.tensordot(a.conj(), t, axes=((0, 1), (0, 2)))  # (br, kr, wr)
        env = env.transpose(0, 2, 1)
    value = complex(env[0, 0, 0])
    norm_sq = inner_product(psi, psi).real
    if norm_sq <= 0:
        raise ValueError("cannot normalize expectation of a zero state")
    return value / norm_sq


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def canonicalize(psi: MatrixProductState, center: int) -> MatrixProductState:
    """Bring ``psi`` to mixed-canonical form with the given center (QR sweeps)."""
    n = psi.n_sites
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for {n} sites")
    tensors = [t.copy() for t in psi.tensors]
    for s in range(center):
        l, d, r = tensors[s].shape
        q, rr = np.linalg.qr(tensors[s].reshape(l * d, r))
        tensors[s] = q.reshape(l, d, q.shape[1])
        tensors[s + 1] = np.tensordot(rr, tensors[s + 1], axes=(1, 0))
    for s in range(n - 1, center, -1):
        l, d, r = tensors[s].shape
        q, rr = np.linalg.qr(tensors[s].reshape(l, d * r).conj().T)
        k = q.shape[1]
        tensors[s] = q.conj().T.reshape(k, d, r)
        tensors[s - 1] = np.tensordot(tensors[s - 1], rr.conj().T, axes=(2, 0))
    return MatrixProductState(tensors, center=center)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def split_theta(theta: np.ndarray, select: Callable, center_after: str = "right"):
    """SVD-split a two-site block, keeping the states a selection hook picks.

    ``select(sigma, u)`` receives the descending singular values and the left
    singular vectors and returns the kept indices, ascending.  The kept
    singular values, renormalized to a unit vector, are absorbed into the
    side named by ``center_after``.  Returns ``(left, right)``.
    """
    l, d1, d2, r = theta.shape
    m = theta.reshape(l * d1, d2 * r)
    if max_abs(m) == 0.0:
        raise ValueError("zero block at this bond; state has no weight here")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    kept = np.asarray(select(s, u), dtype=int)
    renorm = s[kept] / float(np.linalg.norm(s[kept]))
    u_k, vh_k = u[:, kept], vh[kept, :]
    if center_after == "right":
        left = u_k.reshape(l, d1, kept.size)
        right = (renorm[:, None] * vh_k).reshape(kept.size, d2, r)
    elif center_after == "left":
        left = (u_k * renorm[None, :]).reshape(l, d1, kept.size)
        right = vh_k.reshape(kept.size, d2, r)
    else:
        raise ValueError("center_after must be 'left' or 'right'")
    return left, right


# ---------------------------------------------------------------------------
# bond eigendata for cross-state tracking
# ---------------------------------------------------------------------------

def left_canonical(psi: MatrixProductState) -> MatrixProductState:
    """All-left-isometric form (center on the last site)."""
    return canonicalize(psi, psi.n_sites - 1)


def bond_schmidt_data(psi: MatrixProductState):
    """Left-canonical tensors plus per-bond Schmidt bases.

    Returns ``(phi, data)`` where ``phi`` is the left-canonical state and
    ``data[b] = (p, g)`` holds the descending Schmidt probabilities and the
    unitary rotating the bond-``b`` left-isometry basis into the Schmidt
    eigenbasis (columns ordered like ``p``).
    """
    phi = left_canonical(psi)
    norm_sq = inner_product(phi, phi).real
    n = phi.n_sites
    data: list = [None] * (n - 1)
    env = np.ones((1, 1))
    for s in range(n - 1, 0, -1):
        t = phi.tensors[s]
        env = np.einsum("idr,rs,jds->ij", t, env, t.conj())
        rho = 0.5 * (env + dag(env)) / norm_sq
        w, g = np.linalg.eigh(rho)
        w, g = w[::-1].copy(), g[:, ::-1].copy()
        data[s - 1] = (unit_sum(np.clip(w, 0.0, None)), g)
    return phi, data


def left_cross_envs(bra: MatrixProductState, ket: MatrixProductState) -> list[np.ndarray]:
    """Per-bond overlap of left-block bases of two left-canonical states.

    ``envs[b][i, j] = <left-basis-state i of bra | left-basis-state j of ket>``
    contracted through site ``b`` inclusive.
    """
    if bra.physical_dims != ket.physical_dims:
        raise ValueError("states live on different local Hilbert spaces")
    env = np.ones((1, 1))
    envs = []
    for s in range(bra.n_sites - 1):
        env = np.einsum("ipj,ik,kpl->jl", bra.tensors[s].conj(), env, ket.tensors[s])
        envs.append(env)
    return envs
