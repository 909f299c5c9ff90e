"""Two-site DMRG with coherence-aware truncation and continuation scans.

Each local step solves the two-site effective Hamiltonian, an operator over
its environments and the two MPO tensors that is applied by four tensor
contractions and never formed unless it is small.  Only its lowest pair is
sought, from the current two-site tensor and under Lanczos's residual rule.
At or below ``_FULL_EIGH_DIM`` dimensions the dense form is built once.  A
warm start that already meets the rule is accepted once a Cholesky
factorization proves its Rayleigh quotient lies within the tolerance of the
lowest eigenvalue; a start close to the ground state takes up to three
Rayleigh-quotient solves under the same proof.  Only a step that both miss
computes the lowest eigenvalue, without vectors, and inverse iteration
shifted by it, one or two linear solves, gives the vector; a block that
defeats these too is diagonalized in full.  Above that a restarted Lanczos
with full reorthogonalization (:func:`linalg.lanczos_lowest`) finds the
pair.  Both paths are deterministic.  A Lanczos solve that misses its
residual tolerance within its restarts flags the result as not converged
instead of raising.
A real MPO and a real start, such as :func:`mps.random_mps` draws, keep every
environment, local eigensolve and split in float64 from the first sweep.
There a local step pays for its factorizations and little more, with
numpy's generic results bit for bit: 2-norms are ``sqrt(x . x)``
(:func:`linalg.norm2`), Rayleigh quotients ``x . hx`` (the ``ddot`` of
``np.vdot``), diagonal shifts go through one strided view, and the flush
below writes a vector only when an entry falls under its floor.
Real and imaginary parts of the local eigenvector below ``_FLUSH_RELATIVE``
times its largest magnitude are set to zero before the split.  That matters
only for a complex start that a caller passes: under a real MPO its
imaginary parts shrink geometrically along a warm-started scan until they
turn subnormal, and a dense eigensolve on a matrix with subnormal entries
runs more than ten times slower.  A complex eigenvector with no imaginary
part left after the flush comes back float64, the one place a value sets a
dtype; numpy's type promotion then keeps the split, the environments and the
next eigensolves real wherever the MPO is real too.

Continuation scans treat the scan grid as the time axis of the gauge
machinery.  A charged step at grid point ``k`` overlaps its candidate
Schmidt basis with the converged Schmidt bases of up to two earlier points,
which turn into backward-stencil derivative overlaps and from there into
the truncation charges.  Schmidt bases at different points live in
different left-block gauges, so the scan records probabilities and
cross-point overlap matrices -- the gauge-invariant content -- rather than
raw eigenvector tracks.  Branches are identified across points by their
descending-weight rank; mismatched bond dimensions are padded with
zero-probability states.  A scan diagonalizes nothing densely: a caller
that already holds the exact ground states passes them to the scan's
:class:`TrajectoryTree` as ``oracle`` and gets the per-point fidelities
back.

A :class:`TrajectoryTree` states one scan problem -- family, grid, start
state, sweep budget and oracle -- and :func:`continuation_scan` solves it
under one truncation policy, over the whole grid or a leading part of it.
A two-site step's result depends only on the state it starts from and the
states it keeps, so a scan whose policy keeps, at every local step of a
point, exactly the states an earlier scan kept there follows that scan bit
for bit.  The tree holds every point solved for real, and its nodes carry
everything about the point that no policy changes: its truncation records
-- each step's singular values, charges and kept set (the path fixes the
charge context, the node fixes the step's Schmidt states) -- and its frozen
gauge record, computed the first time a scan's records are read.  A scan
replays a node by selection alone, with no eigensolve, SVD or charge
evaluation: the node stacks its recorded steps by candidate count, once,
and one weighing and one stacked selection (:func:`truncation.kept_masks`)
per count give every kept set.  The scan adopts the point when every kept set
agrees; otherwise it solves the point itself and adds it to the tree.

Which steps have a choice and which are charged is :mod:`truncation`'s
rule.  A step without a choice records no charges, and a replay passes it
when the record kept every state.  A step is charged as the policy weighs
it; a standard solve builds no charge context.  A policy that reads
charges, at a step with a choice whose charges were never measured, solves
the point itself, so a caller that scans one tree under several policies
scans the charge-reading ones first: the standard scan then adopts their
points.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .gauge import covariant_rate, potential_from_amplitudes
from .linalg import LANCZOS_TOL, contract, dag, lanczos_lowest, norm2, unit_sum
from .mps import (
    MatrixProductOperator,
    MatrixProductState,
    bond_schmidt_data,
    canonicalize,
    expectation,
    extend_cross_env,
    extend_left_env,
    extend_right_env,
    left_cross_envs,
    split_theta,
    to_dense,
)
from .spectral import diagonal_phases, second_difference_coeffs
from .truncation import (
    TruncationPolicy,
    charge_first_order,
    charge_second_order,
    compute_weights,
    is_integer,
    is_real,
    kept_masks,
    select_states,
)

#: effective dimensions at or below this are solved densely (see
#: :func:`_lowest_eigenpair`), larger ones by Lanczos
_FULL_EIGH_DIM = 128

#: local-eigenvector parts below this fraction of its largest magnitude are zeroed
_FLUSH_RELATIVE = 1e-100


@dataclass(frozen=True)
class SweepConfig:
    """Sweep budget and truncation policy for a ground-state solve.

    ``policy.max_kept`` is the bond budget: no truncation keeps more states.
    Like the policy's, the numbers are stored as ``int`` and ``float``.
    """

    num_sweeps: int = 12
    energy_tol: float = 1e-9
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        if not is_integer(self.num_sweeps):
            raise ValueError(f"num_sweeps must be an integer, got {self.num_sweeps!r}")
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if not is_real(self.energy_tol):
            raise ValueError(f"energy_tol must be a real number, got {self.energy_tol!r}")
        if not 0 < self.energy_tol < float("inf"):
            raise ValueError(f"energy_tol must be positive and finite, got {self.energy_tol!r}")
        object.__setattr__(self, "num_sweeps", int(self.num_sweeps))
        object.__setattr__(self, "energy_tol", float(self.energy_tol))


@dataclass(frozen=True)
class TruncationRecord:
    """One bond truncation event inside a sweep.

    Holds what the step measured: the singular values, their charges and
    the kept states.  Charges are measured only at a scan point's steps
    where :mod:`truncation`'s rule charges them; everywhere
    else, :func:`ground_state` included, both are ``None``.  At a step
    without a choice every state is kept, as one read-only ``arange`` shared
    by all such steps.
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


@dataclass(frozen=True)
class ScanPointRecord:
    """Per-grid-point gauge diagnostics of a continuation scan.

    No policy changes them, so every scan that reaches the point shares one.
    The point's energy and convergence flag are its :class:`DmrgResult`'s.
    """

    bond_charges1: tuple[np.ndarray, ...]
    bond_charges2: tuple[np.ndarray, ...]
    bond_discarded: tuple[float, ...]
    coherence_penalty: float
    curvature_penalty: float


@dataclass
class ContinuationScan:
    """Warm-started scan over a Hamiltonian family, one entry per grid point.

    ``records`` holds each point's gauge record, built the first time any
    scan reads it and shared from then on.
    """

    grid: np.ndarray
    results: list[DmrgResult]
    _nodes: list[_TrajectoryNode] = field(repr=False)
    fidelity_to_oracle: Optional[list[float]] = None

    @property
    def records(self) -> list[ScanPointRecord]:
        return [node.record for node in self._nodes]


# ---------------------------------------------------------------------------
# environments and the effective Hamiltonian
# ---------------------------------------------------------------------------

def _edge_env() -> np.ndarray:
    return np.ones((1, 1, 1))


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Two-site effective Hamiltonian over its environments and MPO tensors.

    Row index is the bra block ``(bl, o1, o2, br)``, column index the ket
    block ``(kl, i1, i2, kr)``.  Hermitian whenever the MPO is.
    :meth:`matvec` applies it by four contractions; :meth:`dense` forms it,
    as a new array on every call.
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
        t = contract(self.env_left, self.w1, axes=(1, 0))  # (bl, kl, o1, i1, wm)
        t = contract(t, self.w2, axes=(4, 0))      # (bl, kl, o1, i1, o2, i2, wr)
        t = contract(t, self.env_right, axes=(6, 1))  # (bl, kl, o1, i1, o2, i2, br, kr)
        return t.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(self.dim, self.dim)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = x.reshape(self.env_left.shape[2], self.w1.shape[2], self.w2.shape[2],
                      self.env_right.shape[2])
        t = contract(self.env_left, x, axes=(2, 0))            # (bl, wl, i1, i2, kr)
        t = contract(t, self.w1, axes=((1, 2), (0, 2)))        # (bl, i2, kr, o1, wm)
        t = contract(t, self.w2, axes=((1, 4), (2, 0)))        # (bl, kr, o1, o2, wr)
        t = contract(t, self.env_right, axes=((1, 4), (2, 1)))  # (bl, o1, o2, br)
        return t.reshape(-1)


def effective_hamiltonian(env_left: np.ndarray, env_right: np.ndarray,
                          w1: np.ndarray, w2: np.ndarray) -> EffectiveHamiltonian:
    """The two-site effective Hamiltonian of one local step, unformed."""
    return EffectiveHamiltonian(env_left, env_right, w1, w2)


def _lowest_eigenpair(heff: EffectiveHamiltonian, left: np.ndarray,
                      right: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Lowest eigenpair of ``heff`` and whether its solve converged.

    Both paths start from the current two-site tensor ``left . right`` and
    accept a pair ``(E, x)`` on Lanczos's rule, ``||H x - E x|| <=
    LANCZOS_TOL * max(1, |E|)``, with ``E`` within that tolerance ``tol`` of
    the lowest eigenvalue ``E0``.  Above ``_FULL_EIGH_DIM`` dimensions
    Lanczos solves.  At or below, the dense form ``H`` is built once and
    tried in three tiers, each taken only when the one before it fails:

    1. Rayleigh-quotient iteration from the start ``x``, at most three
       solves, each shifted by the current Rayleigh quotient ``theta``.  A
       Cholesky factorization of ``H - s`` succeeds exactly when every
       eigenvalue lies above ``s``, and so proves ``E0 > s`` without
       computing ``E0``.  A pair is accepted when its residual meets the rule
       and ``H - (theta - tol)`` factors: ``E0 <= theta`` holds for any
       Rayleigh quotient, so ``theta`` is within ``tol`` of ``E0``.  A start
       that meets both costs no solve.  A start that misses the rule
       iterates only when ``H - (theta - r - tol)`` factors, for its residual
       ``r``: Weinstein's bound puts an eigenvalue within ``r`` of ``theta``,
       and the factorization proves that ``E0`` is the one.  Otherwise, and
       when the iteration ends at an excited pair, the next tier solves.
    2. ``eigvalsh`` gives ``E0``, and inverse iteration shifted by it gives
       ``x`` and ``E = E0 + <x|H - E0|x>``, which must also lie within
       ``tol`` of ``E0``.  It makes one solve, and a second from the first's
       result when a start with little ground-state weight leaves the first
       short.
    3. If both miss, or the shift leaves an exact zero pivot (a diagonal
       ``H``), ``H`` is diagonalized in full.

    Like ``eigvalsh``, numpy's ``cholesky`` reads only the lower triangle.
    It factors ``H - s`` up to a backward error of about ``n eps ||H||``,
    which at these sizes lies far below ``tol``.

    The Weinstein pre-check stays although certifying only at acceptance
    gives the same pairs: without it a start with no ground-state weight
    (outside its symmetry sector, say) runs three wasted solves before
    ``eigvalsh``, as 87 of the 90 that reach it at the ``pec_comparison``
    defaults do, all on the ``coherence_eigenvalue_2`` branch at ``lambda2 = 0.5``.
    """
    start = contract(left, right, axes=(2, 0)).reshape(-1)
    n = heff.dim
    if n > _FULL_EIGH_DIM:
        return lanczos_lowest(heff.matvec, start)
    dense = heff.dense()
    diagonal = dense.diagonal()
    shifted = dense.copy()
    shift = shifted.reshape(-1)[:: n + 1]  # the diagonal of ``shifted``, as a view
    # a real block from a real start stays real: ``x . hx`` is np.vdot's own ddot
    real = not (np.iscomplexobj(dense) or np.iscomplexobj(start))
    x = start / norm2(start)
    for solves in range(4):
        if solves:
            np.subtract(diagonal, energy, out=shift)
            try:
                x = np.linalg.solve(shifted, x)
            except np.linalg.LinAlgError:  # theta is an eigenvalue to the last bit
                break
            x = x / norm2(x)
        hx = dense @ x
        energy = float(x.dot(hx)) if real else float(np.vdot(x, hx).real)
        residual = norm2(hx - energy * x)
        tol = LANCZOS_TOL * max(1.0, abs(energy))
        converged = residual <= tol
        if not converged and solves:
            continue
        floor = energy - tol if converged else energy - residual - tol
        np.subtract(diagonal, floor, out=shift)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:  # an eigenvalue lies at or below the floor
            break
        if converged:
            return energy, x, True
    lowest = float(np.linalg.eigvalsh(dense)[0])
    np.subtract(diagonal, lowest, out=shift)
    x = start
    for _ in range(2):
        try:
            x = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:  # an exact zero pivot
            break
        x = x / norm2(x)
        hx = shifted @ x
        gap = float(x.dot(hx)) if real else float(np.vdot(x, hx).real)
        tol = LANCZOS_TOL * max(1.0, abs(lowest + gap))
        if abs(gap) <= tol and norm2(hx - gap * x) <= tol:
            return lowest + gap, x, True
    w, v = np.linalg.eigh(dense)
    return float(w[0]), v[:, 0], True


def _flush_tiny(vec: np.ndarray) -> np.ndarray:
    """Zero the real and imaginary parts of ``vec`` below ``_FLUSH_RELATIVE``.

    The threshold is relative to the largest magnitude of ``vec``.  Real and
    imaginary parts are tested separately: the parts that decay toward the
    subnormal range sit in entries whose other part is of order one.  A
    complex ``vec`` left with no imaginary part comes back as its real part.
    A real ``vec`` takes one ``abs`` pass and is written, in place, only
    when some entry falls below the floor.
    """
    magnitude = np.abs(vec)
    floor = _FLUSH_RELATIVE * float(magnitude.max())
    if not np.iscomplexobj(vec):
        if magnitude.min() < floor:
            vec[magnitude < floor] = 0.0
        return vec
    for part in (vec.real, vec.imag):
        part[np.abs(part) < floor] = 0.0
    return vec if vec.imag.any() else vec.real.copy()


# ---------------------------------------------------------------------------
# cross-point coherence context
# ---------------------------------------------------------------------------

def _aligned_squares(ws: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Each of ``ws`` clipped or zero-padded to ``size`` square, stacked, each
    column rotated by its :func:`spectral.diagonal_phases` phase."""
    out = np.zeros((len(ws), size, size), dtype=np.result_type(*ws))
    for square, w in zip(out, ws):
        cols = min(size, w.shape[1])
        square[: w.shape[0], :cols] = w[:size, :cols]
    return out * diagonal_phases(out)[:, None, :]


def _bond_charges(p: np.ndarray, overlaps: Sequence[Sequence[np.ndarray]],
                  spacings: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First- and second-order charges of the Schmidt states at ``m`` bonds.

    The one home of the charge stencils: a sweep's steps and a point's gauge
    record are both charged here.  ``p`` holds each bond's ``n`` state
    probabilities, ``(m, n)``.  ``overlaps`` holds, for the previous point
    and, when there is one, the point before it, each bond's raw overlaps
    ``W`` with that point's Schmidt states, of any widths: each is clipped
    or zero-padded to ``n`` square and phase-aligned.  ``spacings`` are the
    grid steps back to those points, most recent first.  The backward
    stencils are ``D1 = (I - W1) / h1`` and the three-point second
    difference over the last three points.  Every operation is elementwise
    or reduces the last axis, so each row is bit for bit what a one-row call
    gives.  Returns ``(q1, q2, w1_aligned)``, shaped ``(m, n)``, ``(m, n)``
    and ``(m, n, n)``: the coherence penalty of the scan record reuses the
    padded, phase-aligned ``W1``.
    """
    rank = p.shape[-1]
    w1 = _aligned_squares(overlaps[0], rank)
    eye = np.eye(rank)
    q1 = charge_first_order(p, (eye - w1) / spacings[0])
    q2 = np.zeros(p.shape)
    if len(overlaps) > 1:
        c_oldest, c_middle, c_newest = second_difference_coeffs(spacings[1], spacings[0])
        q2 = charge_second_order(c_newest * eye + c_middle * w1
                                 + c_oldest * _aligned_squares(overlaps[1], rank))
    return q1, q2, w1


class _ChargeContext:
    """Cross-point Schmidt overlaps of one scan point's charged steps.

    Holds the previous one or two solved scan points, most recent first, and
    reads each one's left-canonical state and Schmidt bases.  A sweep builds
    the overlap environments only as far as its charged steps read them:
    the sites left of a bond stay fixed for the rest of the sweep (a
    right-to-left step at bond ``b`` rewrites only sites ``b`` and ``b + 1``).
    """

    def __init__(self, references: list[_TrajectoryNode], spacings: list[float]):
        self.references = references
        self.spacings = spacings
        self._envs: dict[int, list[list[np.ndarray]]] = {}  # by sweep, the current one only

    def charge(self, tensors: list[np.ndarray], sweep: int, bond: int, u3: np.ndarray,
               sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First- and second-order charges of the candidate states at ``bond``.

        ``tensors`` are the sweep's sites, read left of ``bond``; ``u3`` is the
        candidate left Schmidt tensor ``(left, phys, rank)`` straight from the
        SVD, ``sigma`` the matching singular values.
        """
        if sweep not in self._envs:  # a new sweep rewrites every site
            self._envs = {sweep: [[np.ones((1, 1))] for _ in self.references]}
        for envs, ref in zip(self._envs[sweep], self.references):
            for s in range(len(envs) - 1, bond):
                envs.append(extend_cross_env(envs[s], tensors[s], ref.phi.tensors[s]))
        q1, q2, _ = _bond_charges(unit_sum(sigma[None] ** 2), [
            [extend_cross_env(envs[bond], u3, ref.phi.tensors[bond]) @ ref.schmidt[bond][1]]
            for envs, ref in zip(self._envs[sweep], self.references)], self.spacings)
        return q1[0], q2[0]


# ---------------------------------------------------------------------------
# ground-state solve
# ---------------------------------------------------------------------------

def ground_state(hamiltonian: MatrixProductOperator, init: MatrixProductState,
                 cfg: SweepConfig) -> DmrgResult:
    """Two-site DMRG ground-state search.

    Sweeps until the per-sweep energy change drops below ``energy_tol`` or the
    sweep budget runs out; non-convergence, of the sweeps or of a local
    Lanczos solve, flags the result instead of raising.  The reported energy
    is the exact expectation value of the final state.  There is no earlier
    point to charge against, so every policy weighs zero charges and the
    records hold none.
    """
    return _run_dmrg(hamiltonian, init, cfg, context=None)


def _run_dmrg(hamiltonian: MatrixProductOperator, init: MatrixProductState,
              cfg: SweepConfig, context: Optional[_ChargeContext]) -> DmrgResult:
    """The sweeps of :func:`ground_state`, charging every step with a choice
    against ``context`` when there is one."""
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

    # step b reads lenvs[b] and renvs[b + 1], so lenvs[n - 1] and renvs[0]
    # are never built
    renvs: list[Optional[np.ndarray]] = [None] * n
    renvs[n - 1] = _edge_env()
    for s in range(n - 1, 1, -1):
        renvs[s - 1] = extend_right_env(renvs[s], tensors[s], ws[s])
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

    # left-to-right, then right-to-left
    schedule = ([(b, "right") for b in range(n - 1)]
                + [(b, "left") for b in range(n - 2, -1, -1)])
    for sweep in range(1, cfg.num_sweeps + 1):
        for b, center_after in schedule:
            local_energy, rec, solved = _optimize_bond(
                tensors, ws, lenvs[b], renvs[b + 1], b, sweep, cfg.policy, context,
                center_after)
            solves_converged = solves_converged and solved
            log.append(rec)
            if center_after == "right" and b < n - 2:
                lenvs[b + 1] = extend_left_env(lenvs[b], tensors[b], ws[b])
            elif center_after == "left" and b > 0:
                renvs[b] = extend_right_env(renvs[b + 1], tensors[b + 1], ws[b + 1])
        sweep_energies.append(local_energy)
        if abs(local_energy - previous_energy) < cfg.energy_tol:
            converged = True
            break
        previous_energy = local_energy

    state = MatrixProductState(tensors, center=0)
    energy = float(expectation(state, hamiltonian).real)
    return DmrgResult(energy=energy, state=state, sweep_energies=sweep_energies,
                      truncation_log=log, converged=converged and solves_converged)


@cache
def _every_state(n: int) -> np.ndarray:
    """``arange(n)``, read-only: the kept set of every step of ``n`` candidates
    without a choice, one array for all of them (a scan's tree holds
    hundreds of such steps)."""
    kept = np.arange(n)
    kept.flags.writeable = False
    return kept


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
        n = sigma.size
        if not policy.has_choice(n):
            rec = TruncationRecord(sweep, b, sigma, None, None, _every_state(n))
            return rec.kept
        q1 = q2 = None
        if context is not None:
            q1, q2 = context.charge(tensors, sweep, b, u.reshape(l, d1, n), sigma)
        kept = select_states(compute_weights(sigma, q1, q2, policy), policy)[0]
        rec = TruncationRecord(sweep, b, sigma, q1, q2, kept)
        return kept

    tensors[b], tensors[b + 1] = split_theta(theta, select, center_after)
    return energy, rec, solved


# ---------------------------------------------------------------------------
# continuation scans
# ---------------------------------------------------------------------------

def _point_gauge_record(result: DmrgResult, phi, schmidt, history: list[_TrajectoryNode],
                        spacings: list[float]) -> ScanPointRecord:
    """Bond diagnostics of a point's :func:`mps.bond_schmidt_data` ``(phi,
    schmidt)`` against up to two earlier nodes, most recent first.

    The bonds of one rank are charged, and their coherence terms formed, in
    one stacked evaluation; the penalties add up in bond order.
    """
    n_bonds = len(schmidt)
    charges1 = [np.zeros(p.size) for p, _ in schmidt]
    charges2 = [np.zeros(p.size) for p, _ in schmidt]
    discarded = [0.0] * n_bonds
    # the last sweep that touched each bond wins
    for b, rec in {rec.bond: rec for rec in result.truncation_log}.items():
        discarded[b] = rec.discarded_weight
    coherence = 0.0
    curvature = 0.0
    if history:
        envs = [left_cross_envs(phi, ref.phi) for ref in history]
        h1 = spacings[0]
        by_rank: dict[int, list[int]] = {}
        for b, (p, _) in enumerate(schmidt):
            by_rank.setdefault(p.size, []).append(b)
        terms = [0.0] * n_bonds
        for rank, bonds in by_rank.items():
            p_cur = np.array([schmidt[b][0] for b in bonds])
            q1, q2, w1 = _bond_charges(p_cur, [
                [dag(schmidt[b][1]) @ env[b] @ ref.schmidt[b][1] for b in bonds]
                for env, ref in zip(envs, history)], spacings)
            # coherence penalty: ||i d(rho)/dt - [A, rho]||_F^2 in the current basis
            p_prev = np.zeros(p_cur.shape)
            for row, b in zip(p_prev, bonds):
                p_ref = history[0].schmidt[b][0][:rank]
                row[: p_ref.size] = p_ref
            rho_cur, rho_prev, u_cur, u_prev = (  # diagonal matrices, stacked
                (np.eye(rank) * v[:, None]).astype(complex)
                for v in (p_cur, p_prev, np.sqrt(p_cur), np.sqrt(p_prev)))
            rho_prev = w1 @ rho_prev @ dag(w1)
            u_prev = w1 @ u_prev @ dag(w1)
            a_bond = potential_from_amplitudes(u_cur, (u_cur - u_prev) / h1)
            d_rho = covariant_rate(rho_cur, (rho_cur - rho_prev) / h1, a_bond)
            sums = np.sum((np.abs(d_rho) ** 2).reshape(len(bonds), -1), axis=-1)
            for row, b in enumerate(bonds):
                charges1[b], charges2[b], terms[b] = q1[row], q2[row], float(sums[row])
        for b in range(n_bonds):
            coherence += terms[b]
            curvature += float(np.dot(schmidt[b][0], charges2[b]))
    return ScanPointRecord(
        bond_charges1=tuple(charges1), bond_charges2=tuple(charges2),
        bond_discarded=tuple(discarded), coherence_penalty=coherence,
        curvature_penalty=curvature,
    )


@dataclass
class _TrajectoryNode:
    """One scan point solved for real, with everything no policy changes.

    ``result.truncation_log`` holds every local step's measured record, and
    :attr:`steps` stacks them by candidate count for a replay.  ``phi`` and
    ``schmidt`` are the left-canonical state and per-bond ``(p, g)`` list of
    :func:`mps.bond_schmidt_data`, which the next two points charge against.
    ``history`` holds the one or two points this one was charged against,
    most recent first, and ``spacings`` the grid steps back to them;
    :attr:`record` reads them.  Scans share the node's frozen truncation and
    gauge records and its arrays, read-only.
    """

    result: DmrgResult
    phi: MatrixProductState
    schmidt: list[tuple[np.ndarray, np.ndarray]]
    fidelity: Optional[float]
    history: list["_TrajectoryNode"]
    spacings: list[float]
    children: list["_TrajectoryNode"] = field(default_factory=list)

    @cached_property
    def steps(self) -> dict[int, tuple]:
        """The local steps of each candidate count ``n``, stacked for replay
        the first time one reads them.

        Each is ``(kept, sigma, charges1, charges2)``, read-only: ``kept``
        masks the states each step kept, ``(m, n)``, and the others stack
        what the steps measured, the charges ``None`` when some step
        measured none.
        """
        by_size: dict[int, list[TruncationRecord]] = {}
        for rec in self.result.truncation_log:
            by_size.setdefault(rec.singular_values.size, []).append(rec)
        stacks = {}
        for n, recs in by_size.items():
            kept = np.zeros((len(recs), n), dtype=bool)
            for row, rec in zip(kept, recs):
                row[rec.kept] = True
            charged = all(rec.charges1 is not None for rec in recs)
            stacks[n] = (kept, np.array([rec.singular_values for rec in recs]), *(
                np.array([getattr(rec, name) for rec in recs]) if charged else None
                for name in ("charges1", "charges2")))
            _read_only(stacks[n])
        return stacks

    @cached_property
    def record(self) -> ScanPointRecord:
        """The point's gauge record, computed the first time it is read."""
        record = _point_gauge_record(self.result, self.phi, self.schmidt, self.history,
                                     self.spacings)
        _read_only(record.bond_charges1 + record.bond_charges2)
        return record


class TrajectoryTree:
    """One scan problem and the points its continuation scans solved.

    The problem is a family ``h -> MPO``, a finite, strictly increasing
    ``grid``, a start state ``init``, a sweep budget (``num_sweeps`` and
    ``energy_tol``, checked and stored by :class:`SweepConfig`'s rules)
    and, optionally, an ``oracle``: the exact ground state of every grid
    point as a unit dense vector of the chain's dimension.  The tree checks all of it
    once, here, and keeps read-only copies of the grid, of ``init``'s
    tensors and of the oracle vectors, so no later change to the caller's
    arrays reaches a scan.

    A node is one point some scan solved for real: its result with the
    truncation record of every local step (charged where :mod:`truncation`'s
    rule charges it), its left-canonical state and per-bond Schmidt data,
    its fidelity, and its gauge record.  A path from the root
    is one distinct trajectory; its branches are where two policies first
    kept different states.
    """

    def __init__(self, family: Callable[[float], MatrixProductOperator], grid,
                 init: MatrixProductState, num_sweeps: int, energy_tol: float,
                 oracle: Optional[Sequence[np.ndarray]] = None) -> None:
        grid = np.array(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("scan grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(grid)):
            raise ValueError("scan grid must be finite")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("scan grid must be strictly increasing")
        sweeps = SweepConfig(num_sweeps=num_sweeps, energy_tol=energy_tol)
        if oracle is not None:
            oracle = [np.array(v) for v in oracle]
            if len(oracle) != grid.size:
                raise ValueError(f"oracle holds {len(oracle)} states for {grid.size} grid points")
            dim = int(np.prod(init.physical_dims))
            if any(v.shape != (dim,) for v in oracle):
                raise ValueError(f"oracle states must be dense vectors of shape ({dim},)")
            if any(abs(np.linalg.norm(v) - 1.0) > 1e-10 for v in oracle):
                raise ValueError("oracle states must be unit vectors")
        self.family = family
        self.grid = grid
        self.init = MatrixProductState([np.array(t) for t in init.tensors], init.center)
        self.num_sweeps = sweeps.num_sweeps
        self.energy_tol = sweeps.energy_tol
        self.oracle = oracle
        _read_only([grid, *self.init.tensors, *(self.oracle or ())])
        self.children: list[_TrajectoryNode] = []


def _replays(node: _TrajectoryNode, policy: TruncationPolicy) -> bool:
    """Whether ``policy`` keeps the recorded states at every step of ``node``.

    Whether the policy has a choice depends only on the step's candidate
    count (see :mod:`truncation`), so the steps are taken by count, one
    stack at a time.  Where the policy has no choice the steps replay
    exactly when each kept every state.  Where it has one, they are weighed
    and selected again from their recorded singular values and charges, all
    in one call; a step whose charges were not measured does not replay
    under a policy that reads them, and the point is solved for real.
    """
    for n, (kept, sigma, charges1, charges2) in node.steps.items():
        if not policy.has_choice(n):
            if not kept.all():
                return False
        elif (charges1 is None and policy.reads_charges) or not np.array_equal(
                kept_masks(compute_weights(sigma, charges1, charges2, policy), policy), kept):
            return False
    return True


def _as_own_record(rec: TruncationRecord, policy: TruncationPolicy) -> TruncationRecord:
    """``rec`` as ``policy``'s own solve would have recorded it.

    A node solved by a policy that charged a step carries charges that
    another policy measures only where :mod:`truncation`'s rule charges the
    step; the adopting scan drops them everywhere else.
    """
    if rec.charges1 is None or (policy.reads_charges
                                and policy.has_choice(rec.singular_values.size)):
        return rec
    return replace(rec, charges1=None, charges2=None)


def _read_only(arrays) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _solve_point(mpo: MatrixProductOperator, start: MatrixProductState,
                 cfg: SweepConfig, history: list[_TrajectoryNode],
                 spacings: list[float], oracle_state: Optional[np.ndarray]) -> _TrajectoryNode:
    """Solve one scan point for real, charging its steps against ``history``
    where :mod:`truncation`'s rule charges them; a scan's first point is
    solved under the standard kind, so its empty history is never read."""
    context = _ChargeContext(history, spacings) if cfg.policy.reads_charges else None
    result = _run_dmrg(mpo, start, cfg, context)
    phi, schmidt = bond_schmidt_data(result.state)
    fidelity = None
    if oracle_state is not None:
        dense = to_dense(result.state)
        dense = dense / np.linalg.norm(dense)
        fidelity = float(np.abs(np.vdot(oracle_state, dense)) ** 2)
    for rec in result.truncation_log:
        _read_only((rec.singular_values, rec.charges1, rec.charges2, rec.kept))
    _read_only(result.state.tensors)
    return _TrajectoryNode(result=result, phi=phi, schmidt=schmidt, fidelity=fidelity,
                           history=history, spacings=spacings)


def continuation_scan(tree: TrajectoryTree, policy: TruncationPolicy,
                      points: Optional[int] = None) -> ContinuationScan:
    """Solve ``tree``'s problem under ``policy``, warm-starting each point.

    With ``points``, an integer, the scan stops after the first ``points``
    grid points.
    A point warm-starts from the one before it and charges against the two
    before that, so no later point changes an earlier one: the prefix scan
    is the full scan cut short, and a later full scan replays its points.

    The first point always uses the standard policy (there is no earlier
    point to difference against); later points use ``policy`` with charges
    from backward stencils over the previous one or two converged points.
    With an oracle, the scan records each point's fidelity
    ``|<oracle|psi>|^2``.  The scan diagonalizes nothing densely itself: the
    caller owns the oracle and its cost.

    At each point the scan replays the tree's solved points by selection
    alone and adopts the first whose every local step keeps the states its
    own policy keeps, taking that point's truncation records less the
    charges its own solve would not have measured (see :mod:`truncation`);
    otherwise it solves the point itself and adds it to the tree.  Scan the
    charge-reading policies first (see the module docstring).  Each point is
    held once, by its node: the result, the left-canonical state and
    per-bond Schmidt data the next two points charge against, the fidelity,
    and the gauge record, computed the first time a scan's ``records`` are
    read and shared, frozen.  The result is identical to a scan through a fresh tree
    of the same problem, and no two scans share a list or a writable array.
    """
    if points is not None and not is_integer(points):
        raise ValueError(f"points must be an integer, got {points!r}")
    if points is not None and not 1 <= points <= tree.grid.size:
        raise ValueError(f"points must lie in [1, {tree.grid.size}], got {points!r}")
    grid = tree.grid if points is None else tree.grid[:points]
    oracle = tree.oracle
    cfg = SweepConfig(num_sweeps=tree.num_sweeps, energy_tol=tree.energy_tol,
                      policy=policy)
    results: list[DmrgResult] = []
    nodes: list[_TrajectoryNode] = []
    start = tree.init
    parent = tree

    for k, value in enumerate(grid):
        # the standard kind reads no coefficient
        point_cfg = cfg if k else replace(cfg, policy=replace(cfg.policy, kind="standard"))
        # the last two points, most recent first, and the grid steps back to them
        history = nodes[::-1][:2]
        spacings = [float(grid[k - j] - grid[k - j - 1]) for j in range(len(history))]
        # adopt the first solved point whose replay keeps every recorded set
        node = next((child for child in parent.children
                     if _replays(child, point_cfg.policy)), None)
        if node is None:
            node = _solve_point(tree.family(float(value)), start, point_cfg, history,
                                spacings, None if oracle is None else oracle[k])
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
        nodes.append(node)

    return ContinuationScan(
        grid=grid, results=results, _nodes=nodes,
        fidelity_to_oracle=None if oracle is None else [node.fidelity for node in nodes],
    )
