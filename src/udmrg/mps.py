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
real state under a real operator never leaves real arithmetic;
:func:`random_mps` draws real tensors, so only a complex operator or a
complex state that a caller builds brings complex numbers in.  Every
pairwise contraction here and in the sweep engine goes through
:func:`linalg.contract`, numpy's ``tensordot`` with its axis plan cached
per shape signature, so its bytes are ``tensordot``'s.  The multi-operand
``np.einsum`` contractions (dense forms, Schmidt data, cross overlaps)
stay as they are: rewritten as matrix products they would sum in another
order.  The one-site environment steps live here and nowhere else:
:func:`extend_left_env` and :func:`extend_right_env` for ``<psi|W|psi>``
environments (the sweep engine's and :func:`expectation`'s), and
:func:`extend_cross_env` for the overlap of two states' left-block bases
(:func:`left_cross_envs` and the sweep engine's cross-point charges).
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import contract, hermitian_part, unit_norm, unit_sum
from .truncation import is_integer


def _inexact(t) -> np.ndarray:
    t = np.asarray(t)
    return t.astype(np.result_type(t, np.float64), copy=False)


class _TensorChain:
    """Site tensors ``[left, phys, ..., right]`` of rank :attr:`tensor_rank`,
    with unit boundary bonds and matching neighbouring bonds."""

    tensor_rank: int
    what: str

    def __init__(self, tensors: Sequence[np.ndarray]):
        if len(tensors) == 0:
            raise ValueError(f"an {self.what} needs at least one site")
        self.tensors = [_inexact(t) for t in tensors]
        for s, t in enumerate(self.tensors):
            if t.ndim != self.tensor_rank:
                raise ValueError(
                    f"site {s} tensor must be rank {self.tensor_rank}, got shape {t.shape}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[-1] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for s, (a, b) in enumerate(zip(self.tensors, self.tensors[1:])):
            if a.shape[-1] != b.shape[0]:
                raise ValueError(f"bond mismatch between {self.what} sites {s} and {s + 1}: "
                                 f"{a.shape[-1]} vs {b.shape[0]}")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)


class MatrixProductState(_TensorChain):
    """Open-boundary MPS over arbitrary local dimensions."""

    tensor_rank, what = 3, "MPS"

    def __init__(self, tensors: Sequence[np.ndarray], center: Optional[int] = None):
        super().__init__(tensors)
        if center is not None and not 0 <= center < self.n_sites:
            raise ValueError(f"canonical center {center} out of range")
        self.center = center

    def norm(self) -> float:
        return float(np.sqrt(max(inner_product(self, self).real, 0.0)))


class MatrixProductOperator(_TensorChain):
    """Open-boundary MPO; square local dimensions per site."""

    tensor_rank, what = 4, "MPO"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def random_mps(rng: np.random.Generator, phys_dims: Sequence[int],
               bond_dim: int) -> MatrixProductState:
    """Normalized random MPS with bonds capped at ``bond_dim`` and exact rank.

    Each site draws one real standard normal per entry from ``rng``, so the
    tensors are float64 and a sweep of a real Hamiltonian from this start
    stays in real arithmetic.  ``bond_dim`` and every physical dimension
    must be integers of at least 1.
    """
    if not is_integer(bond_dim) or bond_dim < 1:
        raise ValueError(f"bond_dim must be an integer of at least 1, got {bond_dim!r}")
    dims = list(phys_dims)
    for site, dim in enumerate(dims):
        if not is_integer(dim) or dim < 1:
            raise ValueError(f"site {site} physical dimension must be an integer of "
                             f"at least 1, got {dim!r}")
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
        tensors.append(rng.normal(size=shape))
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
        t = contract(env, b, axes=(1, 0))          # (bra_bond, d, ket_right)
        env = contract(a.conj(), t, axes=((0, 1), (0, 1)))
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


def extend_left_env(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Absorb one site into a left environment (legs bra, mpo, ket)."""
    t = contract(env, a, axes=(2, 0))            # (bra, wl, d, kr)
    t = contract(t, w, axes=((1, 2), (0, 2)))    # (bra, kr, o, wr)
    out = contract(a.conj(), t, axes=((0, 1), (0, 2)))  # (br, kr, wr)
    return out.transpose(0, 2, 1)


def extend_right_env(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Absorb one site into a right environment (legs bra, mpo, ket)."""
    t = contract(a, env, axes=(2, 2))            # (kl, d, bra, wr)
    t = contract(w, t, axes=((2, 3), (1, 3)))    # (wl, o, kl, bra)
    return contract(a.conj(), t, axes=((1, 2), (1, 3)))  # (bl, wl, kl)


def extend_cross_env(env: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Absorb one site into a left overlap environment ``(bra, ket)`` of two
    states, from the bra's and the ket's site tensors."""
    return np.einsum("ipj,ik,kpl->jl", bra.conj(), env, ket)


def expectation(psi: MatrixProductState, op: MatrixProductOperator) -> complex:
    """Normalized expectation ``<psi|op|psi> / <psi|psi>``."""
    if psi.physical_dims != op.physical_dims:
        raise ValueError("state and operator live on different local Hilbert spaces")
    env = np.ones((1, 1, 1))  # (bra, mpo, ket)
    for a, w in zip(psi.tensors, op.tensors):
        env = extend_left_env(env, a, w)
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
    tensors = list(psi.tensors)
    for s in range(center):
        l, d, r = tensors[s].shape
        q, rr = np.linalg.qr(tensors[s].reshape(l * d, r))
        tensors[s] = q.reshape(l, d, q.shape[1])
        tensors[s + 1] = contract(rr, tensors[s + 1], axes=(1, 0))
    for s in range(n - 1, center, -1):
        l, d, r = tensors[s].shape
        q, rr = np.linalg.qr(tensors[s].reshape(l, d * r).conj().T)
        k = q.shape[1]
        tensors[s] = q.conj().T.reshape(k, d, r)
        tensors[s - 1] = contract(tensors[s - 1], rr.conj().T, axes=(2, 0))
    return MatrixProductState(tensors, center=center)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def split_theta(theta: np.ndarray, select: Callable, center_after: str = "right"):
    """SVD-split a two-site block, keeping the states a selection hook picks.

    ``select(sigma, u)`` receives the descending singular values and the left
    singular vectors and returns the kept indices, ascending.  The kept
    singular values, renormalized to a unit vector by
    :func:`linalg.unit_norm` (which scales a spectrum whose squares
    underflow first), are absorbed into the side named by ``center_after``.
    When every state is kept the SVD's factors are used as they are, with no
    copy.  A block whose largest singular value is zero raises; a block
    holding a NaN fails inside the SVD.  Returns ``(left, right)``.
    """
    l, d1, d2, r = theta.shape
    u, s, vh = np.linalg.svd(theta.reshape(l * d1, d2 * r), full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("zero block at this bond; state has no weight here")
    kept = np.asarray(select(s, u), dtype=int)
    if kept.size != s.size:
        u, s, vh = u[:, kept], s[kept], vh[kept, :]
    renorm = unit_norm(s)
    if center_after == "right":
        left = u.reshape(l, d1, kept.size)
        right = (renorm[:, None] * vh).reshape(kept.size, d2, r)
    elif center_after == "left":
        left = (u * renorm[None, :]).reshape(l, d1, kept.size)
        right = vh.reshape(kept.size, d2, r)
    else:
        raise ValueError("center_after must be 'left' or 'right'")
    return left, right


# ---------------------------------------------------------------------------
# bond eigendata for cross-state tracking
# ---------------------------------------------------------------------------

def bond_schmidt_data(psi: MatrixProductState):
    """Left-canonical tensors plus per-bond Schmidt bases.

    Returns ``(phi, data)`` where ``phi`` is the left-canonical state and
    ``data[b] = (p, g)`` holds the descending Schmidt probabilities and the
    unitary rotating the bond-``b`` left-isometry basis into the Schmidt
    eigenbasis (columns ordered like ``p``).  The right-to-left recursion
    forms each bond's reduced density matrix.  They share one dtype: each
    holds the last site, which the left-canonical form makes complex when
    any site is.  The bonds of one dimension are then diagonalized by one
    stacked ``eigh``, which decomposes each member as a call of its own
    would.
    """
    phi = canonicalize(psi, psi.n_sites - 1)
    norm_sq = inner_product(phi, phi).real
    n = phi.n_sites
    rhos: list = [None] * (n - 1)
    env = np.ones((1, 1))
    for s in range(n - 1, 0, -1):
        t = phi.tensors[s]
        env = np.einsum("idr,rs,jds->ij", t, env, t.conj())
        rhos[s - 1] = hermitian_part(env) / norm_sq
    groups: dict[int, list[int]] = {}
    for b, rho in enumerate(rhos):
        groups.setdefault(rho.shape[0], []).append(b)
    data: list = [None] * (n - 1)
    for bonds in groups.values():
        w, g = np.linalg.eigh(np.array([rhos[b] for b in bonds]))
        for b, w_b, g_b in zip(bonds, w, g):
            data[b] = (unit_sum(np.clip(w_b[::-1], 0.0, None)), g_b[:, ::-1].copy())
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
        env = extend_cross_env(env, bra.tensors[s], ket.tensors[s])
        envs.append(env)
    return envs
