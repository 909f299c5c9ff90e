"""Two-site DMRG with coherence-aware truncation and continuation scans.

Each local step solves the two-site effective Hamiltonian, an operator over
its environments and the two MPO tensors that is applied by four tensor
contractions and never formed unless it is small.  At or below
``_FULL_EIGH_DIM`` dimensions its dense form goes to a full hermitian
eigensolver; above that a restarted Lanczos with full reorthogonalization
(:func:`linalg.lanczos_lowest`), warm-started from the current two-site tensor,
finds the lowest pair.  Both paths are deterministic.  A Lanczos solve that
misses its residual tolerance within its restarts flags the result as not
converged instead of raising.
Real and imaginary parts of the local eigenvector below ``_FLUSH_RELATIVE``
times its largest magnitude are set to zero before the split.  For a real MPO the
imaginary parts otherwise shrink geometrically along a warm-started scan
until they turn subnormal, and a dense eigensolve on a matrix with subnormal
entries runs more than ten times slower.  A complex eigenvector with no
imaginary part left after the flush comes back float64, the one place a value
sets a dtype; numpy's type promotion then keeps the split, the environments
and the next eigensolves real wherever the MPO is real too.

Continuation scans treat the scan grid as the time axis of the gauge
machinery.  While sweeping at grid point ``k`` the engine maintains cross
overlaps between the current candidate Schmidt bases and the converged
Schmidt bases of up to two earlier points, which turn into backward-stencil
derivative overlaps and from there into the truncation charges.  Schmidt
bases at different points live in different left-block gauges, so the scan
records probabilities and cross-point overlap matrices -- the gauge-invariant
content -- rather than raw eigenvector tracks.  Branches are identified
across points by their descending-weight rank; mismatched bond dimensions
are padded with zero-probability states.  A scan diagonalizes nothing
densely: a caller that already holds the exact ground states passes them as
``oracle`` and gets the per-point fidelities back.

The scans of one problem -- same family, grid, start state, sweep budget
and oracle, different truncation policies -- can share their solves through a
:class:`TrajectoryTree`.  A two-site step's result depends only on the state
it starts from and the states it keeps, so a scan whose policy keeps, at
every local step of a point, exactly the states an earlier scan kept there
follows that scan bit for bit.  The tree holds every point solved for real,
and its nodes carry everything about the point that no policy changes: its
truncation records -- each step's singular values, charges and kept set (the
path fixes the charge context, the node fixes the step's Schmidt states) --
and its gauge record apart from the objective.  A scan sharing the tree
replays a node by selection alone -- weights and kept sets from the recorded
singular values and charges, with no eigensolve, SVD or charge evaluation --
and adopts the point when every kept set agrees; otherwise it solves the
point itself and adds it to the tree.

A step has a choice only when it has more candidate states than
``max_kept`` or its policy has a cutoff above 0.  Without one every policy
keeps every state, so the step is neither charged nor weighed and its record
holds no charges; a replay passes it when the record kept every state.  A
policy with a choice at a step whose charges were never measured solves the
point itself.

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

from .linalg import commutator, dag, lanczos_lowest, unit_sum
from .mps import (
    MatrixProductOperator,
    MatrixProductState,
    bond_schmidt_data,
    canonicalize,
    expectation,
    split_theta,
    to_dense,
)
from .spectral import second_difference_coeffs
from .truncation import (
    TruncationPolicy,
    charge_first_order,
    charge_second_order,
    compute_weights,
    select_states,
)

#: effective dimensions at or below this are solved with the full dense
#: eigensolver, larger ones by Lanczos
_FULL_EIGH_DIM = 128

#: local-eigenvector parts below this fraction of its largest magnitude are zeroed
_FLUSH_RELATIVE = 1e-100


@dataclass(frozen=True)
class SweepConfig:
    """Sweep budget and truncation policy for a ground-state solve.

    ``policy.max_kept`` is the bond budget: no truncation keeps more states.
    """

    num_sweeps: int = 12
    energy_tol: float = 1e-9
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if self.energy_tol <= 0:
            raise ValueError("energy_tol must be positive")


@dataclass(frozen=True)
class TruncationRecord:
    """One bond truncation event inside a sweep.

    Holds what the step measured: the singular values, their charges and
    the kept states.  Charges are measured only at a step with a choice (see
    :func:`_has_choice`), and are zeros there without a charge context; at a
    step without one both are ``None`` and every state is kept.
    """

    sweep: int
    bond: int
    singular_values: np.ndarray
    charges1: Optional[np.ndarray]
    charges2: Optional[np.ndarray]
    kept: np.ndarray

    @property
    def discarded_weight(self) -> float:
        """Squared norm of the singular values the step discarded."""
        s = self.singular_values
        return max(float(np.sum(s**2) - np.sum(s[self.kept] ** 2)), 0.0)


@dataclass
class DmrgResult:
    """Converged (or flagged) ground-state solve.

    ``converged`` is false when the sweep budget ran out before the energy
    settled, or when a local Lanczos solve missed its tolerance.
    """

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
    return np.ones((1, 1, 1))


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


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Two-site effective Hamiltonian over its environments and MPO tensors.

    Row index is the bra block ``(bl, o1, o2, br)``, column index the ket
    block ``(kl, i1, i2, kr)``.  Hermitian whenever the MPO is.
    :meth:`matvec` applies it by four contractions; :meth:`dense` forms it.
    """

    env_left: np.ndarray
    env_right: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    @property
    def dim(self) -> int:
        return (self.env_left.shape[0] * self.w1.shape[1] * self.w2.shape[1]
                * self.env_right.shape[0])

    def dense(self) -> np.ndarray:
        t = np.tensordot(self.env_left, self.w1, axes=(1, 0))  # (bl, kl, o1, i1, wm)
        t = np.tensordot(t, self.w2, axes=(4, 0))      # (bl, kl, o1, i1, o2, i2, wr)
        t = np.tensordot(t, self.env_right, axes=(6, 1))  # (bl, kl, o1, i1, o2, i2, br, kr)
        return t.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(self.dim, self.dim)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = x.reshape(self.env_left.shape[2], self.w1.shape[2], self.w2.shape[2],
                      self.env_right.shape[2])
        t = np.tensordot(self.env_left, x, axes=(2, 0))            # (bl, wl, i1, i2, kr)
        t = np.tensordot(t, self.w1, axes=((1, 2), (0, 2)))        # (bl, i2, kr, o1, wm)
        t = np.tensordot(t, self.w2, axes=((1, 4), (2, 0)))        # (bl, kr, o1, o2, wr)
        t = np.tensordot(t, self.env_right, axes=((1, 4), (2, 1)))  # (bl, o1, o2, br)
        return t.reshape(-1)


def effective_hamiltonian(env_left: np.ndarray, env_right: np.ndarray,
                          w1: np.ndarray, w2: np.ndarray) -> EffectiveHamiltonian:
    """The two-site effective Hamiltonian of one local step, unformed."""
    return EffectiveHamiltonian(env_left, env_right, w1, w2)


def _lowest_eigenpair(heff: EffectiveHamiltonian, left: np.ndarray,
                      right: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Lowest eigenpair of ``heff`` and whether its solve converged.

    At or below ``_FULL_EIGH_DIM`` dimensions the dense form is diagonalized
    in full; above, Lanczos starts from the current two-site tensor
    ``left . right``.
    """
    if heff.dim <= _FULL_EIGH_DIM:
        w, v = np.linalg.eigh(heff.dense())
        return float(w[0]), v[:, 0], True
    return lanczos_lowest(heff.matvec, np.tensordot(left, right, axes=(2, 0)))


def _flush_tiny(vec: np.ndarray) -> np.ndarray:
    """Zero the real and imaginary parts of ``vec`` below ``_FLUSH_RELATIVE``.

    The threshold is relative to the largest magnitude of ``vec``.  Real and
    imaginary parts are tested separately: the parts that decay toward the
    subnormal range sit in entries whose other part is of order one.  A
    complex ``vec`` left with no imaginary part comes back as its real part.
    """
    floor = _FLUSH_RELATIVE * float(np.max(np.abs(vec)))
    parts = (vec.real, vec.imag) if np.iscomplexobj(vec) else (vec,)
    for part in parts:
        part[np.abs(part) < floor] = 0.0
    return vec.real.copy() if np.iscomplexobj(vec) and not vec.imag.any() else vec


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
    out = np.zeros((size, size), dtype=w.dtype)
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
    sweeps left-to-right it pushes one overlap environment per reference
    through each updated site and caches it at the next bond, so the
    right-to-left half sweep (which leaves the sites left of each bond
    untouched) reuses it.
    """

    def __init__(self, references: Sequence[_PointData], spacings: Sequence[float]):
        if len(references) not in (1, 2) or len(references) != len(spacings):
            raise ValueError("context needs one or two references with spacings")
        self.references = list(references)
        self.spacings = [float(h) for h in spacings]
        if any(h <= 0 for h in self.spacings):
            raise ValueError("grid spacings must be positive")
        self._cache: list[list[np.ndarray]] = []

    def begin_sweep(self) -> None:
        self._cache = [[np.ones((1, 1))] for _ in self.references]

    def advance(self, bond: int, new_left_tensor: np.ndarray) -> None:
        """Cache the environments at ``bond + 1``, pushed through the updated site."""
        for r, ref in enumerate(self.references):
            self._cache[r].append(np.einsum(
                "ipj,ik,kpl->jl", new_left_tensor.conj(), self._cache[r][bond],
                ref.tensors[bond],
            ))

    def _overlap(self, r: int, bond: int, u3: np.ndarray) -> np.ndarray:
        ref = self.references[r]
        cross = np.einsum("ipj,ik,kpl->jl", u3.conj(), self._cache[r][bond],
                          ref.tensors[bond])
        return cross @ ref.gauges[bond]

    def charges(self, bond: int, u3: np.ndarray,
                sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First- and second-order charges for the candidate states at ``bond``.

        ``u3`` is the candidate left Schmidt tensor ``(left, phys, rank)``
        straight from the SVD, ``sigma`` the matching singular values.
        """
        w1 = self._overlap(0, bond, u3)
        w2 = self._overlap(1, bond, u3) if len(self.references) > 1 else None
        q1, q2, _ = _bond_charges(unit_sum(sigma**2), w1, w2, self.spacings)
        return q1, q2


# ---------------------------------------------------------------------------
# ground-state solve
# ---------------------------------------------------------------------------

def ground_state(hamiltonian: MatrixProductOperator, init: MatrixProductState,
                 cfg: SweepConfig) -> DmrgResult:
    """Two-site DMRG ground-state search.

    Sweeps until the per-sweep energy change drops below ``energy_tol`` or the
    sweep budget runs out; non-convergence, of the sweeps or of a local
    Lanczos solve, flags the result instead of raising.  The reported energy
    is the exact expectation value of the final state.
    """
    return _run_dmrg(hamiltonian, init, cfg, context=None)


def _run_dmrg(hamiltonian: MatrixProductOperator, init: MatrixProductState,
              cfg: SweepConfig, context: Optional[_ChargeContext]) -> DmrgResult:
    """The sweeps of :func:`ground_state`, charging every step against ``context``."""
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
    solves_converged = True
    local_energy = previous_energy

    for sweep in range(1, cfg.num_sweeps + 1):
        if context is not None:
            context.begin_sweep()
        # left-to-right
        for b in range(n - 1):
            local_energy, rec, solved = _optimize_bond(
                tensors, ws, lenvs[b], renvs[b + 1], b, sweep, cfg.policy, context,
                "right")
            solves_converged = solves_converged and solved
            log.append(rec)
            lenvs[b + 1] = _update_left(lenvs[b], tensors[b], ws[b])
            if context is not None:
                context.advance(b, tensors[b])
        # right-to-left
        for b in range(n - 2, -1, -1):
            local_energy, rec, solved = _optimize_bond(
                tensors, ws, lenvs[b], renvs[b + 1], b, sweep, cfg.policy, context,
                "left")
            solves_converged = solves_converged and solved
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
                      truncation_log=log, converged=converged and solves_converged)


def _has_choice(n: int, policy: TruncationPolicy) -> bool:
    """Whether ``policy`` can discard any of ``n`` candidate states.

    At cutoff 0 every kind's effective weight is non-negative, so every state
    is admitted and ``n <= max_kept`` keeps them all, whatever the charges.
    """
    return n > policy.max_kept or policy.cutoff > 0


def _select(sigma: np.ndarray, q1: np.ndarray, q2: np.ndarray,
            policy: TruncationPolicy) -> np.ndarray:
    """The states ``policy`` keeps at one bond truncation, ascending.

    ``sigma`` are the singular values and ``q1``, ``q2`` their charges.
    Both a real local step and a replayed one select here.
    """
    return select_states(compute_weights(sigma, q1, q2, policy), policy)[0]


def _optimize_bond(tensors, ws, lenv, renv, b: int, sweep: int,
                   policy: TruncationPolicy, context: Optional[_ChargeContext],
                   center_after: str):
    heff = effective_hamiltonian(lenv, renv, ws[b], ws[b + 1])
    energy, vec, solved = _lowest_eigenpair(heff, tensors[b], tensors[b + 1])
    vec = _flush_tiny(vec)
    l = tensors[b].shape[0]
    d1, d2 = tensors[b].shape[1], tensors[b + 1].shape[1]
    r = tensors[b + 1].shape[2]
    theta = vec.reshape(l, d1, d2, r)
    rec = None

    def select(sigma, u):
        nonlocal rec
        if not _has_choice(sigma.size, policy):
            rec = TruncationRecord(sweep, b, sigma, None, None, np.arange(sigma.size))
            return rec.kept
        q1, q2 = np.zeros(sigma.size), np.zeros(sigma.size)
        if context is not None:
            q1, q2 = context.charges(b, u.reshape(l, d1, sigma.size), sigma)
        kept = _select(sigma, q1, q2, policy)
        rec = TruncationRecord(sweep, b, sigma, q1, q2, kept)
        return kept

    tensors[b], tensors[b + 1] = split_theta(theta, select, center_after)
    return energy, rec, solved


# ---------------------------------------------------------------------------
# continuation scans
# ---------------------------------------------------------------------------

def _point_gauge_record(grid_value: float, result: DmrgResult, phi, data,
                        history: list[_PointData],
                        spacings: list[float]) -> ScanPointRecord:
    """Post-convergence bond diagnostics against up to two earlier points.

    Nothing here depends on the policy, so ``objective`` is left NaN: each
    scan reaching the point scores its own copy with :func:`_scored`.
    """
    n_bonds = len(data)
    probs = [d[0] for d in data]
    charges1 = [np.zeros(p.size) for p in probs]
    charges2 = [np.zeros(p.size) for p in probs]
    discarded = [0.0] * n_bonds
    for rec in result.truncation_log:  # the last sweep that touched each bond wins
        discarded[rec.bond] = rec.discarded_weight
    coherence = 0.0
    curvature = 0.0
    if history:
        from .mps import left_cross_envs

        prev = history[0]
        envs1 = left_cross_envs(phi, MatrixProductState(prev.tensors))
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
            p_prev = np.zeros(rank)
            p_prev[: min(rank, prev.probabilities[b].size)] = prev.probabilities[b][:rank]
            rho_cur = np.diag(p_cur).astype(complex)
            rho_prev = w1 @ np.diag(p_prev).astype(complex) @ dag(w1)
            u_cur = np.diag(np.sqrt(p_cur)).astype(complex)
            u_prev = w1 @ np.diag(np.sqrt(p_prev)).astype(complex) @ dag(w1)
            du = (u_cur - u_prev) / h1
            a_bond = (du @ dag(u_cur) - u_cur @ dag(du)) / 2j
            d_rho = 1j * (rho_cur - rho_prev) / h1 - commutator(a_bond, rho_cur)
            coherence += float(np.sum(np.abs(d_rho) ** 2))
            curvature += float(np.dot(p_cur, charges2[b]))
    return ScanPointRecord(
        grid_value=grid_value, energy=result.energy, converged=result.converged,
        bond_probabilities=probs, bond_charges1=charges1, bond_charges2=charges2,
        bond_discarded=discarded, coherence_penalty=coherence,
        curvature_penalty=curvature, objective=float("nan"),
    )


def _scored(base: ScanPointRecord, policy: TruncationPolicy) -> ScanPointRecord:
    """One scan's own copy of a point's gauge record, with its objective."""
    return replace(
        base, bond_probabilities=list(base.bond_probabilities),
        bond_charges1=list(base.bond_charges1), bond_charges2=list(base.bond_charges2),
        bond_discarded=list(base.bond_discarded),
        objective=(base.energy + policy.lambda1 * base.coherence_penalty
                   + policy.lambda2 * base.curvature_penalty),
    )


@dataclass
class _TrajectoryNode:
    """One scan point solved for real, with everything no policy changes.

    ``result.truncation_log`` holds every local step's measured record, which
    is all a replay reads; ``record`` lacks only the objective.  Scans share
    the node's frozen truncation records and its arrays, read-only.
    """

    result: DmrgResult
    record: ScanPointRecord
    point: _PointData
    fidelity: Optional[float]
    children: list["_TrajectoryNode"] = field(default_factory=list)


def _arrays_equal(a: Optional[Sequence[np.ndarray]],
                  b: Optional[Sequence[np.ndarray]]) -> bool:
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TrajectoryTree:
    """Solved scan points shared by the continuation scans of one problem.

    A node is one point some scan solved for real: its result with the
    truncation record of every local step (charged only at steps where the
    solving policy had a choice), its fidelity, and its gauge record apart
    from the objective.  A path from the root is one distinct
    trajectory; its branches are where two policies first kept different
    states.  The first scan pins the problem (family object, grid, initial
    state, sweep budget ``num_sweeps`` and ``energy_tol``, oracle); a scan of
    any other problem raises ``ValueError``.
    """

    def __init__(self) -> None:
        self.children: list[_TrajectoryNode] = []
        self._pinned: Optional[tuple] = None

    def pin(self, family, grid: np.ndarray, cfg: SweepConfig,
            init: MatrixProductState,
            oracle: Optional[Sequence[np.ndarray]]) -> None:
        """Record the problem on first use; refuse any other problem later."""
        if self._pinned is None:
            self._pinned = (family, grid.copy(), cfg,
                            [t.copy() for t in init.tensors],
                            None if oracle is None else [np.array(v) for v in oracle])
            return
        pinned_family, pinned_grid, pinned_cfg, pinned_init, pinned_oracle = self._pinned
        for name, same in (
            ("family", family is pinned_family),
            ("grid", np.array_equal(grid, pinned_grid)),
            ("budget", replace(cfg, policy=pinned_cfg.policy) == pinned_cfg),
            ("initial state", _arrays_equal(init.tensors, pinned_init)),
            ("oracle", _arrays_equal(oracle, pinned_oracle)),
        ):
            if not same:
                raise ValueError(f"the trajectory tree holds scans of another {name}")


def _replays(node: _TrajectoryNode, cfg: SweepConfig) -> bool:
    """Whether ``cfg``'s policy keeps the recorded states at every step of ``node``.

    Stops at the first step whose kept set would differ.  Where the policy has
    no choice it keeps every state, so the step replays exactly when the
    record kept them all.  Where it has a choice, the step is weighed and
    selected again from its recorded singular values and charges; a record
    whose charges were not measured does not replay, and the point is solved
    for real.
    """
    for rec in node.result.truncation_log:
        n = rec.singular_values.size
        if not _has_choice(n, cfg.policy):
            if rec.kept.size != n:
                return False
        elif rec.charges1 is None or not np.array_equal(
                _select(rec.singular_values, rec.charges1, rec.charges2, cfg.policy),
                rec.kept):
            return False
    return True


def _as_own_record(rec: TruncationRecord, policy: TruncationPolicy) -> TruncationRecord:
    """``rec`` as ``policy``'s own solve would have recorded it.

    A node solved by a policy with a choice at a step carries charges that a
    policy without one never measures there; the adopting scan drops them.
    """
    if rec.charges1 is None or _has_choice(rec.singular_values.size, policy):
        return rec
    return replace(rec, charges1=None, charges2=None)


def _read_only(arrays) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _solve_point(mpo: MatrixProductOperator, start: MatrixProductState,
                 cfg: SweepConfig, grid_value: float, history: list[_PointData],
                 spacings: list[float],
                 oracle_state: Optional[np.ndarray]) -> _TrajectoryNode:
    """Solve one scan point for real, charging against ``history``."""
    context = None
    if history:
        context = _ChargeContext(history, spacings)
    result = _run_dmrg(mpo, start, cfg, context)
    phi, data = bond_schmidt_data(result.state)
    fidelity = None
    if oracle_state is not None:
        dense = to_dense(result.state)
        dense = dense / np.linalg.norm(dense)
        fidelity = float(np.abs(np.vdot(oracle_state, dense)) ** 2)
    point = _PointData(
        tensors=[t.copy() for t in phi.tensors],
        probabilities=[d[0] for d in data],
        gauges=[d[1] for d in data],
    )
    record = _point_gauge_record(grid_value, result, phi, data, history, spacings)
    for rec in result.truncation_log:
        _read_only((rec.singular_values, rec.charges1, rec.charges2, rec.kept))
    _read_only(result.state.tensors)
    _read_only(record.bond_probabilities + record.bond_charges1 + record.bond_charges2)
    return _TrajectoryNode(result=result, record=record, point=point, fidelity=fidelity)


def continuation_scan(family: Callable[[float], MatrixProductOperator], grid,
                      cfg: SweepConfig, init: MatrixProductState,
                      oracle: Optional[Sequence[np.ndarray]] = None,
                      shared: Optional[TrajectoryTree] = None) -> ContinuationScan:
    """Solve a Hamiltonian family along ``grid``, warm-starting each point.

    The first point always uses the standard policy (there is no earlier
    point to difference against); later points use ``cfg.policy`` with
    charges from backward stencils over the previous one or two converged
    points.  ``oracle``, when given, holds the exact normalized ground state
    of every grid point as a dense vector; the scan then records each
    point's fidelity ``|<oracle|psi>|^2`` with it.  The scan diagonalizes
    nothing densely itself: the caller owns the oracle and its cost.

    ``shared``, when given, is a :class:`TrajectoryTree` that the scans of
    one problem pass in turn.  At each point the scan replays the tree's
    solved points by selection alone and adopts the first whose every local
    step keeps the states its own policy keeps, taking that point's
    truncation records as they are, less the charges of steps where its own
    policy has no choice; otherwise it solves the point itself.
    Each point's gauge record is computed once; a scan adds only its
    objective.  The result is identical to a scan without the tree, and no
    two scans share a list or a writable array.  A scan of another problem
    than the one the tree was first used for raises ``ValueError``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("scan grid must be a non-empty 1-d array")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("scan grid must be strictly increasing")
    if oracle is not None and len(oracle) != grid.size:
        raise ValueError(
            f"oracle holds {len(oracle)} states for {grid.size} grid points")
    if shared is not None:
        shared.pin(family, grid, cfg, init, oracle)

    results: list[DmrgResult] = []
    records: list[ScanPointRecord] = []
    fidelities: list[float] = []
    history: list[_PointData] = []
    spacings: list[float] = []
    start = init
    # without a shared tree the scan walks a private one that never branches
    parent = shared if shared is not None else TrajectoryTree()

    for k, value in enumerate(grid):
        if k == 0:
            point_cfg = replace(cfg, policy=replace(
                cfg.policy, kind="standard", gamma1=0.0, gamma2=0.0,
                lambda1=0.0, lambda2=0.0))
        else:
            point_cfg = cfg
            spacings = [float(grid[k] - grid[k - 1])]
            if k >= 2:
                spacings.append(float(grid[k - 1] - grid[k - 2]))
        # adopt the first solved point whose replay keeps every recorded set
        node = next((child for child in parent.children if _replays(child, point_cfg)),
                    None)
        if node is None:
            node = _solve_point(family(float(value)), start, point_cfg, float(value),
                                history, spacings, None if oracle is None else oracle[k])
            parent.children.append(node)
        shared_state = node.result.state
        result = replace(node.result,
                         truncation_log=[_as_own_record(rec, point_cfg.policy)
                                         for rec in node.result.truncation_log],
                         state=MatrixProductState(shared_state.tensors, shared_state.center),
                         sweep_energies=list(node.result.sweep_energies))
        parent = node
        start = result.state
        results.append(result)
        records.append(_scored(node.record, cfg.policy))
        if oracle is not None:
            fidelities.append(node.fidelity)
        history.insert(0, node.point)
        del history[2:]

    return ContinuationScan(
        grid=grid, results=results, records=records,
        fidelity_to_oracle=fidelities if oracle is not None else None,
    )
