"""Benchmark models: a two-level avoided crossing and small spin chains.

The two-level model couples the diabatic branches ``eps1 = lambda^2 - 1/2``
and ``eps2 = -lambda^2 + 1/2`` through a constant off-diagonal ``V``; the
branches are degenerate at ``lambda = +-1/sqrt(2)``, where the Gaussian
transition weight ``P = exp(-(eps1 - eps2)^2 / (2 V^2))`` peaks at exactly 1.
Time evolution uses hbar = 1 throughout.

Spin chains come in two flavors.  Three independent builders each can serve
as another's oracle: the MPO, the matrix-free bit-flip matvec behind the
experiments' exact ground states, and the dense (Kronecker-product) matrix
that tests check both against:

* ``tfim``:        H = -J sum sz.sz - h sum sx
* ``heisenberg``:  H = J sum S.S           (spin-1/2 operators S = sigma/2)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .linalg import dag, require_hermitian
from .mps import MatrixProductOperator

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: diabatic degeneracy points of the two-level model
CROSSING_POINTS = (-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))

SPIN_CHAIN_KINDS = ("tfim", "heisenberg")

#: largest matrix :func:`exact_diagonalization` diagonalizes (2**12 states).
#: It bounds nothing else: the experiments' exact ground states are
#: matrix-free, and the DMRG local solve has no such limit.
DENSE_LIMIT = 4096


# ---------------------------------------------------------------------------
# two-level avoided crossing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoLevelModel:
    """Constant-coupling two-level crossing model."""

    coupling: float = 0.1

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling):
            raise ValueError("coupling must be finite")


def diabatic_energies(lam: float) -> tuple[float, float]:
    """Diabatic branches ``(lambda^2 - 1/2, -lambda^2 + 1/2)``."""
    return lam**2 - 0.5, -(lam**2) + 0.5


def two_level_hamiltonian(model: TwoLevelModel, lam) -> np.ndarray:
    """Real symmetric 2x2 Hamiltonian at parameter ``lam``.

    An array of parameters gives the stack ``lam.shape + (2, 2)``.
    """
    e1, e2 = diabatic_energies(np.asarray(lam, dtype=float))
    h = np.empty(np.shape(lam) + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = e1, e2
    h[..., 0, 1] = h[..., 1, 0] = model.coupling
    return h


def gaussian_transition_probability(model: TwoLevelModel, lam):
    """Gaussian crossing weight ``exp(-(eps1 - eps2)^2 / (2 V^2))``.

    Equals 1 exactly at the degeneracy points and requires ``V != 0``.  A
    scalar ``lam`` gives a ``float``, an array of parameters the array of
    weights.
    """
    if model.coupling == 0.0:
        raise ValueError("transition probability undefined for zero coupling")
    e1, e2 = diabatic_energies(np.asarray(lam, dtype=float))
    p = np.exp(-((e1 - e2) ** 2) / (2.0 * model.coupling**2))
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def midpoint_schedule(times, substeps=1) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and lengths of the steps that split each interval of ``times``.

    Interval ``k`` splits into ``substeps[k]`` equal steps of
    ``dt_k = (times[k+1] - times[k]) / substeps[k]`` with midpoints
    ``times[k] + (j + 0.5) dt_k``; ``substeps`` is one count for every
    interval or one per interval.  Taking ``exp(-i H(mid) dt)`` per step
    (:func:`evolution_step`, then :func:`propagate`) is the midpoint rule:
    exactly norm-preserving and second-order accurate in ``dt``.  Every
    ``times[k]`` is hit exactly by a step boundary.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two times")
    seg = np.diff(times)
    if not np.all(seg > 0):
        raise ValueError("times must run forward, strictly increasing")
    substeps = np.broadcast_to(substeps, seg.shape)
    if np.any(substeps < 1):
        raise ValueError("need at least one time step per interval")
    ends = np.cumsum(substeps)
    dt = np.repeat(seg / substeps, substeps)
    j = np.arange(ends[-1]) - np.repeat(ends - substeps, substeps)
    return np.repeat(times[:-1], substeps) + (j + 0.5) * dt, dt


def evolution_step(hamiltonian: np.ndarray, dt) -> np.ndarray:
    """Exact unitary ``exp(-i H dt)`` of a hermitian matrix (via eigh).

    A stack ``(..., d, d)`` of Hamiltonians gives the stack of their
    unitaries from one stacked eigensolve, each member's as a call of its
    own would give it.  ``dt`` is a scalar or an array over the stack's
    leading axes, one step per member.  A ``2 x 2`` unitary takes 64 bytes,
    so the 4002 substeps of a default ``crossing_scan`` stack to 256 KB.
    """
    h = require_hermitian(hamiltonian, 1e-10, "Hamiltonian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * np.asarray(dt)[..., None])[..., None, :]) @ dag(v)


def propagate(unitaries, psi0) -> np.ndarray:
    """States along a ``(steps, d, d)`` stack of step unitaries.

    ``psi0`` must have unit norm.  The state takes one ``u @ psi`` product
    per step.  Returns the ``(steps + 1, d)`` array of states including the
    initial one.
    """
    psi = np.asarray(psi0, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state has norm {norm!r}, expected 1")
    out = np.empty((len(unitaries) + 1, psi.size), dtype=complex)
    out[0] = psi
    for n, u in enumerate(unitaries, start=1):
        out[n] = psi = u @ psi
    return out


def landau_zener_reference(v: float, coupling: float) -> float:
    """Asymptotic diabatic survival probability ``exp(-2 pi V^2 / v)``.

    ``v`` is the sweep velocity of the diabatic gap (``d(eps1 - eps2)/dt``).
    """
    if v <= 0:
        raise ValueError("sweep velocity must be positive")
    return float(np.exp(-2.0 * np.pi * coupling**2 / v))


# ---------------------------------------------------------------------------
# spin chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinChainSpec:
    """Open-boundary spin-1/2 chain specification."""

    kind: str
    n_sites: int
    coupling: float = 1.0
    field: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SPIN_CHAIN_KINDS:
            raise ValueError(f"kind must be one of {SPIN_CHAIN_KINDS}, got {self.kind!r}")
        if self.n_sites < 2:
            raise ValueError("spin chains need at least two sites")


def _kron_chain(ops: list[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    return _kron_chain([op if s == site else ID2 for s in range(n)])


def _embed_pair(op1: np.ndarray, op2: np.ndarray, site: int, n: int) -> np.ndarray:
    ops = [ID2] * n
    ops[site] = op1
    ops[site + 1] = op2
    return _kron_chain(ops)


def dense_spin_chain(spec: SpinChainSpec) -> np.ndarray:
    """Dense Hamiltonian via explicit Kronecker embedding.

    No experiment forms it; it is the reference that tests hold the MPO and
    :func:`spin_chain_matvec` to.
    """
    n = spec.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    if spec.kind == "tfim":
        for s in range(n - 1):
            h -= spec.coupling * _embed_pair(PAULI_Z, PAULI_Z, s, n)
        for s in range(n):
            h -= spec.field * _embed(PAULI_X, s, n)
    else:
        sx, sy, sz = 0.5 * PAULI_X, 0.5 * PAULI_Y, 0.5 * PAULI_Z
        for s in range(n - 1):
            h += spec.coupling * (_embed_pair(sx, sx, s, n)
                                  + _embed_pair(sy, sy, s, n)
                                  + _embed_pair(sz, sz, s, n))
    return h


def spin_chain_matvec(spec: SpinChainSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free ``x -> H x`` in the basis of :func:`dense_spin_chain`.

    Basis state ``i`` holds site ``s`` in bit ``n - 1 - s`` (site 0 is the
    most significant bit, as in the Kronecker order); a set bit is sz = -1/2.
    The diagonal (the ZZ or SzSz bonds) and the bit-flip index arrays are
    built once here, so applying H is ``diag * x`` plus one stacked gather of
    every term: ``x[i ^ bit(s)]`` for each transverse-field site of the TFIM,
    weighted -h, and for each Heisenberg bond the pair flip
    ``x[i ^ (bit(s) | bit(s + 1))]``, weighted J/2 on the states whose two
    spins are antiparallel and 0 elsewhere.
    """
    n = spec.n_sites
    index = np.arange(2**n)
    bits = [1 << (n - 1 - s) for s in range(n)]
    z = np.stack([np.where(index & b, -1.0, 1.0) for b in bits])
    zz = z[:-1] * z[1:]  # (bond, state)
    if spec.kind == "tfim":
        diag = -spec.coupling * zz.sum(axis=0)
        weights = np.full((n, 1), -spec.field)
        flips = np.stack([index ^ b for b in bits])
    else:
        diag = 0.25 * spec.coupling * zz.sum(axis=0)
        weights = 0.5 * spec.coupling * (zz < 0)
        flips = np.stack([index ^ (bits[s] | bits[s + 1]) for s in range(n - 1)])

    def matvec(x: np.ndarray) -> np.ndarray:
        return diag * x + (weights * x[flips]).sum(axis=0)

    return matvec


def spin_chain_ground_state(spec: SpinChainSpec) -> tuple[float, np.ndarray]:
    """Ground energy and unit ground vector of the chain; no matrix is formed.

    Runs :func:`linalg.lanczos_lowest` on :func:`spin_chain_matvec` from one
    fixed generic start, the same for every coupling and field: a local
    ``default_rng(0)`` normal draw.  A symmetric start can miss the ground
    state: the uniform vector is an eigenvector of the Heisenberg chain (the
    ferromagnet), and it is even under the spin flip, while the TFIM ground
    state at h < 0 and odd n is odd.  The vector is in the basis of
    :func:`dense_spin_chain`.  The solve has the DMRG local solve's stopping
    rule and budget (``linalg.LANCZOS_KRYLOV``, ``LANCZOS_TOL`` and
    ``LANCZOS_RESTARTS``); where the local solve only flags its result when
    the cycles run out, this raises ``LinAlgError``, since an experiment has
    nothing to measure its errors against.
    """
    start = np.random.default_rng(0).standard_normal(2**spec.n_sites)
    energy, state, converged = linalg.lanczos_lowest(spin_chain_matvec(spec), start)
    if not converged:
        raise np.linalg.LinAlgError(
            f"exact ground state of the {spec.n_sites}-site {spec.kind} chain "
            f"(J={float(spec.coupling)!r}, h={float(spec.field)!r}) did not converge in "
            f"{linalg.LANCZOS_RESTARTS} Lanczos cycles")
    return energy, state


def build_spin_chain_mpo(spec: SpinChainSpec) -> MatrixProductOperator:
    """Real MPO with the standard first-order bond algebra (3 for tfim, 5 for SU(2))."""
    n = spec.n_sites
    if spec.kind == "tfim":
        w = np.zeros((3, 2, 2, 3))
        w[0, :, :, 0] = ID2.real
        w[0, :, :, 1] = PAULI_Z.real
        w[0, :, :, 2] = -spec.field * PAULI_X.real
        w[1, :, :, 2] = -spec.coupling * PAULI_Z.real
        w[2, :, :, 2] = ID2.real
    else:
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])  # S+
        sm = sp.T
        sz = 0.5 * PAULI_Z.real
        j = spec.coupling
        w = np.zeros((5, 2, 2, 5))
        w[0, :, :, 0] = ID2.real
        w[0, :, :, 1] = sp
        w[0, :, :, 2] = sm
        w[0, :, :, 3] = sz
        w[1, :, :, 4] = 0.5 * j * sm
        w[2, :, :, 4] = 0.5 * j * sp
        w[3, :, :, 4] = j * sz
        w[4, :, :, 4] = ID2.real
    bulk = w
    first = bulk[:1, :, :, :]
    last = bulk[:, :, :, -1:]
    if n == 2:
        return MatrixProductOperator([first, last])
    return MatrixProductOperator([first] + [bulk] * (n - 2) + [last])


def exact_diagonalization(hamiltonian, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k`` eigenpairs of a dense hermitian matrix.

    Refuses matrices above ``DENSE_LIMIT`` (this is a desk-scale
    oracle, not a sparse solver).  Returns ``(values, vectors)`` with
    eigenvalues ascending and eigenvectors in columns.
    """
    h = require_hermitian(hamiltonian, 1e-10, "Hamiltonian")
    if h.shape[0] > DENSE_LIMIT:
        raise ValueError(
            f"matrix dimension {h.shape[0]} exceeds the dense limit {DENSE_LIMIT}")
    if not 1 <= k <= h.shape[0]:
        raise ValueError(f"cannot request {k} eigenpairs of a {h.shape[0]}-dim matrix")
    w, v = np.linalg.eigh(h)
    return w[:k].copy(), v[:, :k].copy()
