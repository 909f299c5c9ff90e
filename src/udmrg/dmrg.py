"""Two-site DMRG with coherence-aware truncation and continuation scans.

The local problem is always solved densely: the effective Hamiltonian is
built explicitly from the environments and diagonalized with a dense
hermitian eigensolver (lowest pair only above a size threshold).  There is no
Lanczos path, which keeps runs deterministic at desk scale; dimensions beyond
``dense_limit`` raise with a request for a smaller bond budget.

Continuation scans treat the scan grid as the time axis of the gauge
machinery.  While sweeping at grid point ``k`` the engine maintains cross
overlaps between the current candidate Schmidt bases and the converged
Schmidt bases of up to two earlier points, which turn into backward-stencil
derivative overlaps and from there into the truncation charges.  Schmidt
bases at different points live in different left-block gauges, so the scan
records probabilities and cross-point overlap matrices -- the gauge-invariant
content -- rather than raw eigenvector tracks.  Branches are identified
across points by their descending-weight rank; mismatched bond dimensions
are padded with zero-probability states.

The augmented objective per scan point is ``E + lambda1 * coherence +
lambda2 * curvature`` where the coherence penalty is
``||i d(rho)/dt - [A, rho]||_F^2`` on each tracked bond density and the
curvature penalty is the probability-weighted second-order charge sum.  Both
are diagnostics recorded in the scan log; neither ever perturbs a local
eigensolve.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .linalg import dag, commutator
from .mps import (
    MatrixProductOperator,
    MatrixProductState,
    bond_schmidt_data,
    canonicalize,
    expectation,
    inner_product,
    split_theta,
    to_dense,
)
from .spectral import second_difference_coeffs
from .truncation import (
    TruncationPolicy,
    TruncationWeights,
    charge_first_order,
    charge_second_order,
    compute_weights,
    select_states,
)

#: effective dimensions at or below this are solved with the full eigensolver
_FULL_EIGH_DIM = 128


@dataclass(frozen=True)
class SweepConfig:
    """Budget and policy for a ground-state solve."""

    max_bond: int = 32
    num_sweeps: int = 12
    energy_tol: float = 1e-9
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    dense_limit: int = 4096

    def __post_init__(self) -> None:
        if self.max_bond < 1:
            raise ValueError("max_bond must be positive")
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if self.energy_tol <= 0:
            raise ValueError("energy_tol must be positive")
        if self.dense_limit < 4:
            raise ValueError("dense_limit is unusably small")


@dataclass
class TruncationRecord:
    """One bond truncation event inside a sweep."""

    sweep: int
    bond: int
    singular_values: np.ndarray
    charges1: np.ndarray
    charges2: np.ndarray
    effective: np.ndarray
    kept: np.ndarray
    discarded_weight: float


@dataclass
class DmrgResult:
    """Converged (or flagged) ground-state solve."""

    energy: float
    state: MatrixProductState
    sweep_energies: list[float]
    truncation_log: list[TruncationRecord]
    converged: bool


@dataclass
class ScanPointRecord:
    """Per-grid-point gauge diagnostics of a continuation scan."""

    grid_value: float
    energy: float
    converged: bool
    bond_probabilities: list[np.ndarray]
    bond_charges1: list[np.ndarray]
    bond_charges2: list[np.ndarray]
    bond_discarded: list[float]
    coherence_penalty: float
    curvature_penalty: float
    objective: float


@dataclass
class ContinuationScan:
    """Warm-started scan over a Hamiltonian family."""

    grid: np.ndarray
    results: list[DmrgResult]
    records: list[ScanPointRecord]
    fidelity_to_oracle: Optional[list[float]] = None


# ---------------------------------------------------------------------------
# environments and the effective Hamiltonian
# ---------------------------------------------------------------------------

def _edge_env() -> np.ndarray:
    return np.ones((1, 1, 1), dtype=complex)


def _update_left(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Absorb one site into a left environment (legs bra, mpo, ket)."""
    t = np.tensordot(env, a, axes=(2, 0))            # (bra, wl, d, kr)
    t = np.tensordot(t, w, axes=((1, 2), (0, 2)))    # (bra, kr, o, wr)
    out = np.tensordot(a.conj(), t, axes=((0, 1), (0, 2)))  # (br, kr, wr)
    return out.transpose(0, 2, 1)


def _update_right(env: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Absorb one site into a right environment (legs bra, mpo, ket)."""
    t = np.tensordot(a, env, axes=(2, 2))            # (kl, d, bra, wr)
    t = np.tensordot(w, t, axes=((2, 3), (1, 3)))    # (wl, o, kl, bra)
    out = np.tensordot(a.conj(), t, axes=((1, 2), (1, 3)))  # (bl, wl, kl)
    return out


def effective_hamiltonian(env_left: np.ndarray, env_right: np.ndarray,
                          w1: np.ndarray, w2: np.ndarray,
                          dense_limit: int = 4096) -> np.ndarray:
    """Dense two-site effective Hamiltonian from its environments.

    Row index is the bra block ``(bl, o1, o2, br)``, column index the ket
    block ``(kl, i1, i2, kr)``.  Hermitian whenever the MPO is.  Raises when
    the matrix dimension would exceed ``dense_limit`` (reduce ``max_bond``).
    """
    dim = env_left.shape[0] * w1.shape[1] * w2.shape[1] * env_right.shape[0]
    if dim > dense_limit:
        raise ValueError(
            f"effective Hamiltonian dimension {dim} exceeds the dense limit "
            f"{dense_limit}; reduce max_bond or raise dense_limit"
        )
    t = np.tensordot(env_left, w1, axes=(1, 0))      # (bl, kl, o1, i1, wm)
    t = np.tensordot(t, w2, axes=(4, 0))             # (bl, kl, o1, i1, o2, i2, wr)
    t = np.tensordot(t, env_right, axes=(6, 1))      # (bl, kl, o1, i1, o2, i2, br, kr)
    h = t.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(dim, dim)
    return h


def _lowest_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    if h.shape[0] <= _FULL_EIGH_DIM:
        w, v = np.linalg.eigh(h)
        return float(w[0]), v[:, 0]
    w, v = scipy.linalg.eigh(h, subset_by_index=(0, 0))
    return float(w[0]), v[:, 0]


# ---------------------------------------------------------------------------
# cross-point coherence context
# ---------------------------------------------------------------------------

@dataclass
class _PointData:
    """Converged scan point: left-canonical tensors plus Schmidt bases."""

    tensors: list[np.ndarray]
    probabilities: list[np.ndarray]
    gauges: list[np.ndarray]


def _align_columns(w: np.ndarray) -> np.ndarray:
    """Rotate each column by a unit phase making its diagonal entry real >= 0."""
    out = w.copy()
    n = min(w.shape)
    for b in range(n):
        mag = abs(out[b, b])
        if mag > 0:
            out[:, b] *= np.conj(out[b, b]) / mag
    return out


def _pad_square(w: np.ndarray, size: int) -> np.ndarray:
    """Clip/zero-pad the column index so the overlap block is ``size`` square."""
    out = np.zeros((size, size), dtype=complex)
    cols = min(size, w.shape[1])
    out[: w.shape[0], :cols] = w[:size, :cols]
    return out


def _bond_charges(p: np.ndarray, w1: np.ndarray, w2: Optional[np.ndarray],
                  spacings: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First- and second-order charges of the Schmidt states at one bond.

    ``p`` are the states' probabilities; ``w1`` and ``w2`` their raw overlaps
    with the Schmidt states of the previous point and of the one before it
    (``w2`` is ``None`` when there is no such point); ``spacings`` the grid
    steps back to those points, most recent first.  The backward stencils
    are ``D1 = (I - W1) / h1`` and the three-point second difference over
    the last three points.  Returns ``(q1, q2, w1_aligned)``: the coherence
    penalty of the scan record reuses the padded, phase-aligned ``W1``.
    """
    rank = p.size
    w1 = _align_columns(_pad_square(w1, rank))
    h1 = spacings[0]
    d1 = (np.eye(rank) - w1) / h1
    q1 = charge_first_order(p, d1)
    q2 = np.zeros(rank)
    if w2 is not None:
        w2 = _align_columns(_pad_square(w2, rank))
        c_oldest, c_middle, c_newest = second_difference_coeffs(spacings[1], h1)
        d2 = c_newest * np.eye(rank) + c_middle * w1 + c_oldest * w2
        q2 = charge_second_order(d2)
    return q1, q2, w1


class _ChargeContext:
    """Cross-point Schmidt overlaps maintained during a sweep.

    Holds the previous one or two converged scan points; while the engine
    sweeps left-to-right it advances one overlap environment per reference
    and caches the per-bond values so the right-to-left half sweep (which
    leaves the sites left of each bond untouched) can reuse them.
    """

    def __init__(self, references: Sequence[_PointData], spacings: Sequence[float],
                 n_bonds: int):
        if len(references) not in (1, 2) or len(references) != len(spacings):
            raise ValueError("context needs one or two references with spacings")
        self.references = list(references)
        self.spacings = [float(h) for h in spacings]
        if any(h <= 0 for h in self.spacings):
            raise ValueError("grid spacings must be positive")
        self.n_bonds = n_bonds
        self._running: list[np.ndarray] = []
        self._cache: list[list[Optional[np.ndarray]]] = []

    def begin_sweep(self) -> None:
        self._running = [np.ones((1, 1), dtype=complex) for _ in self.references]
        self._cache = [[None] * self.n_bonds for _ in self.references]

    def note_bond(self, bond: int) -> None:
        """Cache the running environments as the left-to-right pass hits ``bond``."""
        for r in range(len(self.references)):
            self._cache[r][bond] = self._running[r]

    def advance(self, bond: int, new_left_tensor: np.ndarray) -> None:
        """Push the running environments through site ``bond`` after its update."""
        for r, ref in enumerate(self.references):
            self._running[r] = np.einsum(
                "ipj,ik,kpl->jl", new_left_tensor.conj(), self._running[r],
                ref.tensors[bond],
            )

    def _overlap(self, r: int, bond: int, u3: np.ndarray) -> Optional[np.ndarray]:
        env = self._cache[r][bond]
        if env is None:
            return None
        ref = self.references[r]
        cross = np.einsum("ipj,ik,kpl->jl", u3.conj(), env, ref.tensors[bond])
        return cross @ ref.gauges[bond]

    def charges(self, bond: int, u3: np.ndarray,
                sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First- and second-order charges for the candidate states at ``bond``.

        ``u3`` is the candidate left Schmidt tensor ``(left, phys, rank)``
        straight from the SVD, ``sigma`` the matching singular values.
        """
        w1 = self._overlap(0, bond, u3)
        if w1 is None:
            return np.zeros(sigma.size), np.zeros(sigma.size)
        w2 = self._overlap(1, bond, u3) if len(self.references) > 1 else None
        total = float(np.sum(sigma**2))
        p = sigma**2 / total if total > 0 else sigma**2
        q1, q2, _ = _bond_charges(p, w1, w2, self.spacings)
        return q1, q2


# ---------------------------------------------------------------------------
# ground-state solve
# ---------------------------------------------------------------------------

def ground_state(hamiltonian: MatrixProductOperator, init: MatrixProductState,
                 cfg: SweepConfig) -> DmrgResult:
    """Two-site DMRG ground-state search.

    Sweeps until the per-sweep energy change drops below ``energy_tol`` or the
    sweep budget runs out; non-convergence flags the result instead of
    raising.  The reported energy is the exact expectation value of the final
    state.
    """
    return _run_dmrg(hamiltonian, init, cfg, context=None)


def _run_dmrg(hamiltonian: MatrixProductOperator, init: MatrixProductState,
              cfg: SweepConfig, context: Optional[_ChargeContext]) -> DmrgResult:
    if hamiltonian.physical_dims != init.physical_dims:
        raise ValueError("Hamiltonian and initial state disagree on local dimensions")
    n = init.n_sites
    if n < 2:
        raise ValueError("two-site DMRG needs at least two sites")
    ws = hamiltonian.tensors
    psi = canonicalize(init, 0)
    norm = psi.norm()
    if norm <= 0:
        raise ValueError("initial state has zero norm")
    psi.tensors[0] = psi.tensors[0] / norm
    tensors = psi.tensors

    renvs: list[Optional[np.ndarray]] = [None] * n
    renvs[n - 1] = _edge_env()
    for s in range(n - 1, 0, -1):
        renvs[s - 1] = _update_right(renvs[s], tensors[s], ws[s])
    lenvs: list[Optional[np.ndarray]] = [None] * n
    lenvs[0] = _edge_env()

    previous_energy = float(
        expectation(MatrixProductState(tensors, center=0), hamiltonian).real
    )
    sweep_energies: list[float] = []
    log: list[TruncationRecord] = []
    converged = False
    local_energy = previous_energy

    for sweep in range(1, cfg.num_sweeps + 1):
        if context is not None:
            context.begin_sweep()
        # left-to-right
        for b in range(n - 1):
            if context is not None:
                context.note_bond(b)
            local_energy, rec = _optimize_bond(
                tensors, ws, lenvs[b], renvs[b + 1], b, sweep, cfg, context, "right")
            log.append(rec)
            lenvs[b + 1] = _update_left(lenvs[b], tensors[b], ws[b])
            if context is not None:
                context.advance(b, tensors[b])
        # right-to-left
        for b in range(n - 2, -1, -1):
            local_energy, rec = _optimize_bond(
                tensors, ws, lenvs[b], renvs[b + 1], b, sweep, cfg, context, "left")
            log.append(rec)
            renvs[b] = _update_right(renvs[b + 1], tensors[b + 1], ws[b + 1])
        sweep_energies.append(local_energy)
        if abs(local_energy - previous_energy) < cfg.energy_tol:
            converged = True
            break
        previous_energy = local_energy

    state = MatrixProductState(tensors, center=0)
    energy = float(expectation(state, hamiltonian).real)
    return DmrgResult(energy=energy, state=state, sweep_energies=sweep_energies,
                      truncation_log=log, converged=converged)


def _optimize_bond(tensors, ws, lenv, renv, b: int, sweep: int, cfg: SweepConfig,
                   context: Optional[_ChargeContext], center_after: str):
    heff = effective_hamiltonian(lenv, renv, ws[b], ws[b + 1], cfg.dense_limit)
    energy, vec = _lowest_eigenpair(heff)
    l = tensors[b].shape[0]
    d1, d2 = tensors[b].shape[1], tensors[b + 1].shape[1]
    r = tensors[b + 1].shape[2]
    theta = vec.reshape(l, d1, d2, r)

    captured: dict = {}

    def select(sigma, u):
        policy = cfg.policy
        rank = sigma.size
        if context is not None and policy.kind != "standard":
            u3 = u.reshape(l, d1, rank)
            q1, q2 = context.charges(b, u3, sigma)
        else:
            q1 = np.zeros(rank)
            q2 = np.zeros(rank)
        capped = policy if policy.max_kept <= cfg.max_bond else replace(
            policy, max_kept=cfg.max_bond)
        weights = compute_weights(sigma, q1, q2, capped)
        kept, _ = select_states(weights, capped)
        sig_norm = float(np.linalg.norm(sigma[kept]))
        captured["weights"] = weights
        captured["kept"] = kept
        captured["sigma"] = sigma
        return kept, sigma[kept] / sig_norm

    left, right, spectrum = split_theta(theta, select, center_after)
    tensors[b] = left
    tensors[b + 1] = right
    weights: TruncationWeights = captured["weights"]
    rec = TruncationRecord(
        sweep=sweep, bond=b, singular_values=captured["sigma"],
        charges1=weights.charges1, charges2=weights.charges2,
        effective=weights.effective, kept=captured["kept"],
        discarded_weight=spectrum.discarded_weight,
    )
    return energy, rec


# ---------------------------------------------------------------------------
# continuation scans
# ---------------------------------------------------------------------------

def _zero_pad(p: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: min(size, p.size)] = p[:size]
    return out


def _point_gauge_record(grid_value: float, result: DmrgResult, phi, data,
                        history: list[_PointData], spacings: list[float],
                        policy: TruncationPolicy) -> ScanPointRecord:
    """Post-convergence bond diagnostics against up to two earlier points."""
    n_bonds = len(data)
    probs = [d[0] for d in data]
    charges1 = [np.zeros(p.size) for p in probs]
    charges2 = [np.zeros(p.size) for p in probs]
    discarded = _final_discards(result, n_bonds)
    coherence = 0.0
    curvature = 0.0
    if history:
        from .mps import left_cross_envs

        prev = history[0]
        prev_state = MatrixProductState(prev.tensors)
        envs1 = left_cross_envs(phi, prev_state)
        envs2 = None
        if len(history) > 1:
            envs2 = left_cross_envs(phi, MatrixProductState(history[1].tensors))
        h1 = spacings[0]
        for b in range(n_bonds):
            p_cur, g_cur = data[b]
            rank = p_cur.size
            w2 = None
            if envs2 is not None:
                w2 = dag(g_cur) @ envs2[b] @ history[1].gauges[b]
            charges1[b], charges2[b], w1 = _bond_charges(
                p_cur, dag(g_cur) @ envs1[b] @ prev.gauges[b], w2, spacings)
            # coherence penalty: ||i d(rho)/dt - [A, rho]||_F^2 in the current basis
            p_prev = _zero_pad(prev.probabilities[b], rank)
            rho_cur = np.diag(p_cur).astype(complex)
            rho_prev = w1 @ np.diag(p_prev).astype(complex) @ dag(w1)
            u_cur = np.diag(np.sqrt(p_cur)).astype(complex)
            u_prev = w1 @ np.diag(np.sqrt(p_prev)).astype(complex) @ dag(w1)
            du = (u_cur - u_prev) / h1
            a_bond = (du @ dag(u_cur) - u_cur @ dag(du)) / 2j
            d_rho = 1j * (rho_cur - rho_prev) / h1 - commutator(a_bond, rho_cur)
            coherence += float(np.sum(np.abs(d_rho) ** 2))
            curvature += float(np.dot(p_cur, charges2[b]))
    objective = result.energy + policy.lambda1 * coherence + policy.lambda2 * curvature
    return ScanPointRecord(
        grid_value=grid_value, energy=result.energy, converged=result.converged,
        bond_probabilities=probs, bond_charges1=charges1, bond_charges2=charges2,
        bond_discarded=discarded, coherence_penalty=coherence,
        curvature_penalty=curvature, objective=objective,
    )


def _final_discards(result: DmrgResult, n_bonds: int) -> list[float]:
    """Discarded weight per bond from the last sweep that touched it."""
    out = [0.0] * n_bonds
    for rec in result.truncation_log:
        out[rec.bond] = rec.discarded_weight
    return out


def continuation_scan(family: Callable[[float], MatrixProductOperator], grid,
                      cfg: SweepConfig, init: Optional[MatrixProductState] = None,
                      compute_oracle: bool = True,
                      oracle_limit: int = 4096) -> ContinuationScan:
    """Solve a Hamiltonian family along ``grid``, warm-starting each point.

    The first point always uses the standard policy (there is no earlier
    point to difference against); later points use ``cfg.policy`` with
    charges from backward stencils over the previous one or two converged
    points.  When the dense dimension admits it and ``compute_oracle`` is
    set, per-point overlaps with the exact ground state are recorded.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("scan grid must be a non-empty 1-d array")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("scan grid must be strictly increasing")

    results: list[DmrgResult] = []
    records: list[ScanPointRecord] = []
    fidelities: list[float] = []
    history: list[_PointData] = []
    spacings: list[float] = []
    state: Optional[MatrixProductState] = None
    oracle_ok = compute_oracle

    for k, value in enumerate(grid):
        mpo = family(float(value))
        if state is None:
            if init is None:
                raise ValueError("an initial state is required for the first point")
            start = init
        else:
            start = state
        if k == 0:
            point_cfg = replace(cfg, policy=replace(
                cfg.policy, kind="standard", gamma1=0.0, gamma2=0.0,
                lambda1=0.0, lambda2=0.0))
            context = None
        else:
            point_cfg = cfg
            spacings = [float(grid[k] - grid[k - 1])]
            if k >= 2:
                spacings.append(float(grid[k - 1] - grid[k - 2]))
            context = _ChargeContext(history[: len(spacings)], spacings,
                                     n_bonds=start.n_sites - 1)
        result = _run_dmrg(mpo, start, point_cfg, context)
        state = result.state
        phi, data = bond_schmidt_data(state)
        record = _point_gauge_record(float(value), result, phi, data, history,
                                     spacings, cfg.policy)
        results.append(result)
        records.append(record)

        if oracle_ok:
            dim = int(np.prod(state.physical_dims))
            if dim <= oracle_limit:
                from .models import exact_diagonalization
                from .mps import mpo_to_dense

                _, vecs = exact_diagonalization(mpo_to_dense(mpo), k=1)
                dense = to_dense(state)
                dense = dense / np.linalg.norm(dense)
                fidelities.append(float(np.abs(np.vdot(vecs[:, 0], dense)) ** 2))
            else:
                oracle_ok = False

        history.insert(0, _PointData(
            tensors=[t.copy() for t in phi.tensors],
            probabilities=[d[0] for d in data],
            gauges=[d[1] for d in data],
        ))
        del history[2:]

    return ContinuationScan(
        grid=grid, results=results, records=records,
        fidelity_to_oracle=fidelities if oracle_ok else None,
    )
