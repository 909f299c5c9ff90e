"""Benchmark models: a two-level avoided crossing and small spin chains.

The two-level model couples the diabatic branches ``eps1 = lambda^2 - 1/2``
and ``eps2 = -lambda^2 + 1/2`` through a constant off-diagonal ``V``; the
branches are degenerate at ``lambda = +-1/sqrt(2)``, where the Gaussian
transition weight ``P = exp(-(eps1 - eps2)^2 / (2 V^2))`` peaks at exactly 1.
Time evolution uses hbar = 1 throughout.

Each spin chain is written once, as a table of site and bond terms in
:data:`SPIN_CHAIN_TERMS`, and read three ways: the MPO the DMRG runs on, the
matrix-free bit-flip matvec behind the experiments' exact ground states, and
the dense (Kronecker-product) matrix that tests check both against:

* ``tfim``:        H = -J sum Z.Z - h sum X
* ``heisenberg``:  H = J sum (S+S- + S-S+) / 2 + Sz.Sz   (= J sum S.S, S = sigma/2)
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import dag, require_hermitian
from .mps import MatrixProductOperator
from .truncation import is_integer

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: diabatic degeneracy points of the two-level model
CROSSING_POINTS = (-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))

_S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # takes bit 1 (spin down) to bit 0

#: Each spin chain as one table of terms, in the coupling ``j`` and field ``h``:
#: ``(c, A)`` is ``c A_s`` on every site, ``(c, A, B)`` is ``c A_s B_{s+1}`` on
#: every bond.  Every operator is real 2x2 with at most one nonzero in each row
#: and column (I, X, Z, S+, S- or Sz), so a placed term maps a basis state to
#: one other.  The MPO, the exact oracle's matvec and the dense reference all
#: read this table, and the bond terms' order is the MPO's channel order.
SPIN_CHAIN_TERMS = {
    "tfim": lambda j, h: [(-j, PAULI_Z.real, PAULI_Z.real), (-h, PAULI_X.real)],
    "heisenberg": lambda j, h: [(0.5 * j, _S_PLUS, _S_PLUS.T), (0.5 * j, _S_PLUS.T, _S_PLUS),
                                (j, 0.5 * PAULI_Z.real, 0.5 * PAULI_Z.real)],
}
SPIN_CHAIN_KINDS = tuple(SPIN_CHAIN_TERMS)

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
    """Hermitian 2x2 Hamiltonian at parameter ``lam``, real-valued entries in
    complex dtype.

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
    p = np.exp(-np.square(e1 - e2) / (2.0 * model.coupling**2))
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
        if not is_integer(self.n_sites) or self.n_sites < 2:
            raise ValueError("n_sites must be an integer: spin chains need at least two "
                             f"sites, got {self.n_sites!r}")
        for name in ("coupling", "field"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind == "heisenberg" and self.field != 0:
            raise ValueError(f"the heisenberg chain has no field, got field={self.field!r}")

    @property
    def terms(self) -> list[tuple]:
        """The chain's terms, as :data:`SPIN_CHAIN_TERMS` gives them."""
        return SPIN_CHAIN_TERMS[self.kind](self.coupling, self.field)


def dense_spin_chain(spec: SpinChainSpec) -> np.ndarray:
    """Dense complex Hamiltonian: ``c`` times the Kronecker product of every placed term.

    No experiment forms it; it is the reference that tests hold the MPO and
    :func:`spin_chain_matvec` to.
    """
    n = spec.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for c, *ops in spec.terms:
        for s in range(n - len(ops) + 1):
            h += c * reduce(np.kron, [ID2] * s + ops + [ID2] * (n - s - len(ops)))
    return h


def spin_chain_matvec(spec: SpinChainSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free ``x -> H x`` in the basis of :func:`dense_spin_chain`.

    Basis state ``i`` holds site ``s`` in bit ``n - 1 - s`` (site 0 is the
    most significant bit, as in the Kronecker order); a set bit is sz = -1/2.
    A placed term maps ``i`` to ``i ^ mask``, flipping the sites whose
    operator is off-diagonal, with weight ``c`` times the product of the
    operators' entries in row ``i``.  Diagonal terms are summed over their
    placements, then scaled by ``c``, into ``diag``.  Terms that flip the
    same sites (both flip terms of a Heisenberg bond) add, in table order,
    into one gather row per placement; the rows run in table order, then
    site order.  Applying H is ``diag * x`` plus one stacked gather.  Only
    the weights depend on the coupling and field: the index arrays are built
    once per chain length and flip layout, and shared read-only.
    """
    n = spec.n_sites
    terms = spec.terms
    local = {k: _configurations(n, k) for k in {len(term) - 1 for term in terms}}
    parts = {}  # 0 for the diagonal, (term length, flip pattern) for the gathers
    for c, *ops in terms:
        k = len(ops)
        flip = [int(op[0, 0] == op[1, 1] == 0) for op in ops]  # 1: the op flips its site
        mask = sum(f << (k - 1 - j) for j, f in enumerate(flip))
        # the weight of each configuration of the k sites: entry (r, r ^ f) of each op
        weight = reduce(np.multiply.outer,
                        [op[[0, 1], [f, 1 - f]] for op, f in zip(ops, flip)]).ravel()
        key, row = (((k, mask), (c * weight)[local[k]]) if mask
                    else (0, c * weight[local[k]].sum(axis=0)))
        parts[key] = parts[key] + row if key in parts else row
    diag = parts.pop(0)
    flips = _flipped(n, tuple(parts))
    weights = np.concatenate(list(parts.values()))

    def matvec(x: np.ndarray) -> np.ndarray:
        return diag * x + (weights * x[flips]).sum(axis=0)

    return matvec


@lru_cache(maxsize=4)
def _configurations(n: int, k: int) -> np.ndarray:
    """Row ``s``: every basis state's bits of sites ``s`` to ``s + k - 1``, read-only.

    Site ``s`` is bit ``n - 1 - s``.
    """
    out = np.arange(2**n) >> np.arange(n - k, -1, -1)[:, None] & (2**k - 1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2)
def _flipped(n: int, patterns: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Every basis state with one placement's sites flipped, read-only: a row
    per placement of each ``(k, mask)`` pattern in turn, ``mask`` marking the
    sites of the ``k`` that a term flips."""
    index = np.arange(2**n)
    out = np.concatenate([index ^ (mask << np.arange(n - k, -1, -1))[:, None]
                          for k, mask in patterns])
    out.flags.writeable = False
    return out


def _ground_sector(spec: SpinChainSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Orthogonal projector onto the symmetry sector that holds the ground state.

    The TFIM commutes with the global spin flip, which reverses the array.
    For h != 0 its ground state is unique, with flip parity +1 at h > 0 and
    (-1)^n at h < 0 (Perron-Frobenius, whatever the sign of J); at h = 0 the
    parity +1 member of the ground pair is taken.  The projector is
    ``(x + s x[::-1]) / 2``.  The Heisenberg chain conserves S^z: the
    projector keeps the configurations with ``n // 2`` set bits, S^z = 0
    for even n and the S^z = +1/2 member of the ground doublet for odd n.
    """
    n = spec.n_sites
    if spec.kind == "heisenberg":
        keep = np.bitwise_count(np.arange(2**n)) == n // 2
        return lambda x: keep * x
    parity = -1.0 if spec.field < 0 and n % 2 else 1.0
    return lambda x: 0.5 * (x + parity * x[::-1])


def spin_chain_ground_states(specs: Sequence[SpinChainSpec]
                             ) -> list[tuple[float, np.ndarray]]:
    """Ground energy and unit ground vector of each chain, in order; no matrix is formed.

    Runs :func:`linalg.lanczos_lowest` on :func:`spin_chain_matvec` inside
    the symmetry sector of the ground state (:func:`_ground_sector`), which
    drops the nearly degenerate partner of the ordered TFIM phase.  Each
    chain starts from the previous chain's vector projected into its own
    sector, so a scan grid continues from field to field.  The first chain,
    one of another length, and one whose sector keeps less than half the
    previous vector's norm (the flip parity changes sign with h on an odd
    chain) start from a fixed generic vector instead: a local
    ``default_rng(0)`` normal draw projected into the sector.  A symmetric
    start can miss the ground state: the uniform vector is an eigenvector of
    the Heisenberg chain (the ferromagnet).  For the odd Heisenberg chain
    the returned vector is the S^z = +1/2 member of the ground doublet, so
    any fidelity against it depends on that choice.  Vectors are in the
    basis of :func:`dense_spin_chain`.  Each solve has the DMRG local
    solve's stopping rule and budget (``linalg.LANCZOS_KRYLOV``,
    ``LANCZOS_TOL`` and ``LANCZOS_RESTARTS``); where the local solve only
    flags its result when the cycles run out, this raises ``LinAlgError``,
    since an experiment has nothing to measure its errors against.
    """
    solved: list[tuple[float, np.ndarray]] = []
    state = None
    for spec in specs:
        sector = _ground_sector(spec)
        start = sector(state) if state is not None and state.size == 2**spec.n_sites else None
        if start is None or np.linalg.norm(start) < 0.5:  # ``state`` has unit norm
            start = sector(np.random.default_rng(0).standard_normal(2**spec.n_sites))
        energy, state, converged = linalg.lanczos_lowest(spin_chain_matvec(spec), start)
        if not converged:
            raise np.linalg.LinAlgError(
                f"exact ground state of the {spec.n_sites}-site {spec.kind} chain "
                f"(J={float(spec.coupling)!r}, h={float(spec.field)!r}) did not converge in "
                f"{linalg.LANCZOS_RESTARTS} Lanczos cycles")
        solved.append((energy, state))
    return solved


def build_spin_chain_mpo(spec: SpinChainSpec) -> MatrixProductOperator:
    """Real MPO in finite-state-machine form, one channel per bond term.

    The ``ch``-th bond term of the table (counting from 1) puts ``A`` in row 0
    and ``c B`` in the last column of channel ``ch``; the site terms sum into
    the corner, and the identity sits at both ends of the diagonal: bond
    dimension 3 for the TFIM, 5 for the Heisenberg chain.
    """
    terms = spec.terms
    bond = [term for term in terms if len(term) == 3]
    site = [term[0] * term[1] for term in terms if len(term) == 2]
    d = len(bond) + 2
    w = np.zeros((d, 2, 2, d))
    w[0, :, :, 0] = w[-1, :, :, -1] = np.eye(2)
    for ch, (c, a, b) in enumerate(bond, start=1):
        w[0, :, :, ch], w[ch, :, :, -1] = a, c * b
    if site:
        w[0, :, :, -1] = reduce(np.add, site)
    return MatrixProductOperator([w[:1]] + [w] * (spec.n_sites - 2) + [w[:, :, :, -1:]])


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
