import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from udmrg import linalg, models
from udmrg.models import (
    CROSSING_POINTS,
    PAULI_X,
    PAULI_Z,
    SPIN_CHAIN_KINDS,
    SPIN_CHAIN_TERMS,
    SpinChainSpec,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    diabatic_energies,
    evolution_step,
    exact_diagonalization,
    gaussian_transition_probability,
    midpoint_schedule,
    propagate,
    spin_chain_ground_states,
    spin_chain_matvec,
    two_level_hamiltonian,
)
from udmrg.mps import mpo_to_dense

from helpers import assert_same_eigenpair, free_fermion_tfim_energy, landau_zener_reference


def linear_sweep_hamiltonian(v, coupling, t):
    """Two-level Hamiltonian whose diabatic gap closes at rate ``v``; an
    array of times gives the stack of Hamiltonians."""
    t = np.asarray(t, dtype=float)
    h = np.empty(t.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = 0.5 * v * t, -0.5 * v * t
    h[..., 0, 1] = h[..., 1, 0] = coupling
    return h


def midpoint_trajectory(h_of_t, psi0, t0, t1, steps):
    """States of the midpoint rule over ``steps`` equal steps from ``t0`` to ``t1``."""
    midpoints, dt = midpoint_schedule([t0, t1], steps)
    return propagate(evolution_step(h_of_t(midpoints), dt), psi0)


# ---------------------------------------------------------------------------
# two-level crossing model
# ---------------------------------------------------------------------------

def test_diabatic_branches_cross_at_the_advertised_points():
    for lam in CROSSING_POINTS:
        e1, e2 = diabatic_energies(lam)
        assert e1 == pytest.approx(e2, abs=1e-15)
    e1, e2 = diabatic_energies(0.0)
    assert (e1, e2) == (-0.5, 0.5)


def test_two_level_spectrum_at_the_origin():
    model = TwoLevelModel(coupling=0.1)
    h = two_level_hamiltonian(model, 0.0)
    w = np.linalg.eigh(h)[0]
    np.testing.assert_allclose(w, [-np.sqrt(0.26), np.sqrt(0.26)], atol=1e-14)


def test_transition_probability_peaks_exactly_at_crossings():
    model = TwoLevelModel(coupling=0.1)
    for lam in CROSSING_POINTS:
        assert gaussian_transition_probability(model, lam) == 1.0


def test_transition_probability_at_origin_closed_form():
    model = TwoLevelModel(coupling=0.1)
    value = gaussian_transition_probability(model, 0.0)
    expected = np.exp(-50.0)
    assert abs(value - expected) <= 1e-12 * expected


@settings(max_examples=100, deadline=None)
@given(lams=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
       coupling=st.floats(0.01, 2.0))
@example(lams=[2.534643545289106], coupling=1.0)
def test_transition_probability_of_an_array_equals_its_points_one_by_one(lams, coupling):
    """An array of parameters, the crossings among them, gives each point's
    own weight bit for bit, and exactly 1.0 at the crossings.  The example's
    squared gap rounds differently under a scalar ``** 2`` than under ``x * x``."""
    model = TwoLevelModel(coupling=coupling)
    lam = np.array(lams + list(CROSSING_POINTS))
    p = gaussian_transition_probability(model, lam)
    assert p.shape == lam.shape
    assert np.array_equal(p, [gaussian_transition_probability(model, x) for x in lam])
    assert np.all(p[-2:] == 1.0)
    assert np.array_equal(gaussian_transition_probability(model, lam.reshape(1, -1))[0], p)


def test_transition_probability_requires_coupling():
    with pytest.raises(ValueError, match="zero coupling"):
        gaussian_transition_probability(TwoLevelModel(coupling=0.0), 0.3)
    with pytest.raises(ValueError, match="finite"):
        TwoLevelModel(coupling=np.inf)


# ---------------------------------------------------------------------------
# midpoint schedules and propagation
# ---------------------------------------------------------------------------

def test_midpoint_schedule_validation_and_values():
    midpoints, dt = midpoint_schedule([-1.0, 1.0], 4)
    np.testing.assert_allclose(dt, [0.5] * 4)
    np.testing.assert_allclose(midpoints, [-0.75, -0.25, 0.25, 0.75])
    midpoints, dt = midpoint_schedule([0.0, 1.0, 3.0], [2, 1])
    np.testing.assert_allclose(dt, [0.5, 0.5, 2.0])
    np.testing.assert_allclose(midpoints, [0.25, 0.75, 2.0])
    with pytest.raises(ValueError, match="at least one"):
        midpoint_schedule([0.0, 1.0], 0)
    with pytest.raises(ValueError, match="at least one"):
        midpoint_schedule([0.0, 1.0, 2.0], [3, 0])
    with pytest.raises(ValueError, match="forward"):
        midpoint_schedule([1.0, 0.0], 10)
    with pytest.raises(ValueError, match="forward"):
        midpoint_schedule([0.0, 1.0, 1.0], 10)
    with pytest.raises(ValueError, match="at least two"):
        midpoint_schedule([0.0], 10)


def test_evolution_step_diagonal_phase():
    u = evolution_step(PAULI_Z, 0.5)
    np.testing.assert_allclose(
        u, np.diag([np.exp(-0.5j), np.exp(0.5j)]), atol=1e-14)


def test_evolution_step_is_unitary_for_random_hamiltonians():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (m + m.conj().T)
        u = evolution_step(h, 0.37)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError, match="not hermitian"):
        evolution_step(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


@settings(max_examples=60, deadline=None)
@given(members=st.integers(1, 12), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       per_member=st.booleans())
def test_a_stack_of_evolution_steps_equals_its_members_one_by_one(members, dim, seed, per_member):
    """A stack with one ``dt`` per member (or one ``dt`` for all) gives each
    member's own unitary bit for bit, under one or two leading axes."""
    rng = np.random.default_rng(seed)
    h = np.array([linalg.random_hermitian(rng, dim) for _ in range(members)])
    dt = rng.uniform(0.001, 2.0, members) if per_member else rng.uniform(0.001, 2.0)
    u = evolution_step(h, dt)
    assert u.shape == h.shape
    for i in range(members):
        assert np.array_equal(u[i], evolution_step(h[i], dt[i] if per_member else dt))
    split = np.asarray(dt).reshape(-1, 1) if per_member else dt
    assert np.array_equal(evolution_step(h[:, None], split)[:, 0], u)


def test_propagate_equals_one_evolution_step_per_step():
    """On a schedule with uneven substeps, the stacked unitaries give, bit
    for bit, the states of one step unitary built and applied at a time."""
    times = np.array([-5.0, -2.0, 0.5, 5.0])
    midpoints, dt = midpoint_schedule(times, [70, 3, 227])
    assert midpoints.shape == dt.shape == (300,)
    psi = np.array([1.0, 0.0], dtype=complex)
    expected = [psi]
    for mid, step in zip(midpoints, dt):
        psi = evolution_step(linear_sweep_hamiltonian(1.0, 0.3, mid), step) @ psi
        expected.append(psi)
    unitaries = evolution_step(linear_sweep_hamiltonian(1.0, 0.3, midpoints), dt)
    assert np.array_equal(propagate(unitaries, np.array([1.0, 0.0])), np.array(expected))


def test_tdse_constant_hamiltonian_closed_form():
    psi0 = np.array([1.0, 0.0])
    traj = midpoint_trajectory(lambda t: np.broadcast_to(PAULI_X, t.shape + (2, 2)),
                               psi0, 0.0, 1.0, 200)
    assert traj.shape == (201, 2)
    # exp(-i sx t) |0> = cos(t)|0> - i sin(t)|1>
    for n in (50, 100, 200):
        t = np.linspace(0.0, 1.0, 201)[n]
        expected = np.array([np.cos(t), -1j * np.sin(t)])
        np.testing.assert_allclose(traj[n], expected, atol=1e-12)


def test_tdse_preserves_norm_to_machine_precision():
    traj = midpoint_trajectory(lambda t: linear_sweep_hamiltonian(1.0, 0.3, t),
                               np.array([1.0, 0.0]), -5.0, 5.0, 500)
    norms = np.linalg.norm(traj, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_tdse_rejects_unnormalized_initial_state():
    with pytest.raises(ValueError, match="expected 1"):
        propagate(evolution_step(PAULI_X, 0.1)[None], np.array([1.0, 1.0]))


def test_slow_sweep_stays_in_the_instantaneous_ground_state():
    omega = 0.02

    def h_of_t(t):
        t = np.asarray(t)[..., None, None]
        return 0.5 * (np.cos(omega * t) * PAULI_Z + np.sin(omega * t) * PAULI_X)

    traj = midpoint_trajectory(h_of_t, np.array([0.0, 1.0]), 0.0, 50.0, 2000)
    _, v = np.linalg.eigh(h_of_t(50.0))
    ground_pop = abs(np.vdot(v[:, 0], traj[-1])) ** 2
    assert ground_pop >= 0.99


def test_fast_sweep_follows_the_diabatic_branch():
    traj = midpoint_trajectory(lambda t: linear_sweep_hamiltonian(1.0, 0.2, t),
                               np.array([1.0, 0.0]), -200.0, 200.0, 20000)
    survival = abs(traj[-1, 0]) ** 2
    reference = landau_zener_reference(1.0, 0.2)
    assert abs(survival - reference) / reference < 0.02


def test_landau_zener_reference_value_and_validation():
    assert landau_zener_reference(1.0, 0.2) == pytest.approx(
        np.exp(-2.0 * np.pi * 0.04), abs=1e-15)
    with pytest.raises(ValueError, match="positive"):
        landau_zener_reference(0.0, 0.2)
    with pytest.raises(ValueError, match="positive"):
        landau_zener_reference(-1.0, 0.2)


# ---------------------------------------------------------------------------
# spin chains
# ---------------------------------------------------------------------------

def test_spin_chain_spec_validation():
    assert SPIN_CHAIN_KINDS == ("tfim", "heisenberg")
    with pytest.raises(ValueError, match="kind must be one of"):
        SpinChainSpec(kind="xy", n_sites=4)
    with pytest.raises(ValueError, match="at least two sites"):
        SpinChainSpec(kind="tfim", n_sites=1)
    with pytest.raises(ValueError, match="n_sites must be an integer: .* got 2.5"):
        SpinChainSpec(kind="tfim", n_sites=2.5, field=1.0)
    SpinChainSpec(kind="tfim", n_sites=np.int64(4))
    with pytest.raises(ValueError, match="the heisenberg chain has no field, got field=0.5"):
        SpinChainSpec(kind="heisenberg", n_sites=4, field=0.5)
    SpinChainSpec(kind="heisenberg", n_sites=4, field=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="coupling must be finite"):
            SpinChainSpec(kind="tfim", n_sites=4, coupling=bad, field=1.0)
        with pytest.raises(ValueError, match="field must be finite"):
            SpinChainSpec(kind="tfim", n_sites=4, field=bad)


def test_every_table_operator_maps_a_basis_state_to_one_other():
    """The matvec reads each operator as a bit flip with a row-dependent
    weight; that holds for real 2x2 operators with at most one nonzero in
    each row and column."""
    for kind, table in SPIN_CHAIN_TERMS.items():
        terms = table(1.3, -0.7)
        assert terms and all(len(term) in (2, 3) for term in terms), kind
        for _, *ops in terms:
            for op in ops:
                assert op.shape == (2, 2) and op.dtype == np.float64, (kind, op)
                nonzero = op != 0
                assert nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1, \
                    (kind, op)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind,coupling,field,bond_dim,mpo_digest,matvec_digest", [
    ("tfim", 1.1, 0.7, 3,
     "716517971474af7a3d225cd3456c52f29bb123256e8d3fdd90f4327d7242d7f6",
     "3e33bac17985b9459c3d5deaa7ae7a5bd956094ca9b420658211a0e7b7d669bc"),
    ("heisenberg", -0.7, 0.0, 5,
     "cf6c47cc4ce480d67767c0c8cb64870096a94637c56295edf86f057a7b856ae9",
     "abfe6f2064ceb617315a202bd7a7455e6791ba80513cb97fb7ddf499fbfbf072"),
], ids=["tfim", "heisenberg"])
def test_mpo_and_matvec_keep_their_bits(kind, coupling, field, bond_dim, mpo_digest,
                                        matvec_digest):
    """``allclose`` against the dense reference would miss a changed summation
    order; these digests, with each array's shape and dtype, would not.  They
    were recorded from the per-kind builders the term table replaced."""
    tensors = build_spin_chain_mpo(SpinChainSpec(kind, 5, coupling, field)).tensors
    assert [w.shape for w in tensors] == \
        [(1, 2, 2, bond_dim)] + [(bond_dim, 2, 2, bond_dim)] * 3 + [(bond_dim, 2, 2, 1)]
    assert {w.dtype for w in tensors} == {np.dtype(np.float64)}
    assert _digest(tensors) == mpo_digest
    x = np.random.default_rng(0).standard_normal(2**8)
    y = spin_chain_matvec(SpinChainSpec(kind, 8, coupling, field))(x)
    assert y.dtype == np.float64
    assert _digest([y]) == matvec_digest


@pytest.mark.parametrize("kind,sizes", [("tfim", (2, 3, 4, 5)),
                                        ("heisenberg", (2, 3, 4))])
def test_mpo_matches_dense_builder(kind, sizes):
    for n in sizes:
        spec = SpinChainSpec(kind=kind, n_sites=n, coupling=1.1,
                             field=0.7 if kind == "tfim" else 0.0)
        dense = dense_spin_chain(spec)
        from_mpo = mpo_to_dense(build_spin_chain_mpo(spec))
        np.testing.assert_allclose(from_mpo, dense, atol=1e-12)


def test_heisenberg_two_site_singlet_energy():
    spec = SpinChainSpec(kind="heisenberg", n_sites=2, coupling=1.0)
    w, _ = exact_diagonalization(dense_spin_chain(spec))
    assert w[0] == pytest.approx(-0.75, abs=1e-12)


def test_tfim_limits():
    # zero field: n - 1 fully satisfied bonds
    spec = SpinChainSpec(kind="tfim", n_sites=5, coupling=1.3, field=0.0)
    w, _ = exact_diagonalization(dense_spin_chain(spec))
    assert w[0] == pytest.approx(-1.3 * 4, abs=1e-12)
    # zero coupling: n independently polarized spins
    spec = SpinChainSpec(kind="tfim", n_sites=5, coupling=0.0, field=0.9)
    w, _ = exact_diagonalization(dense_spin_chain(spec))
    assert w[0] == pytest.approx(-0.9 * 5, abs=1e-12)


def test_exact_diagonalization_contract(monkeypatch):
    spec = SpinChainSpec(kind="tfim", n_sites=3, coupling=1.0, field=1.0)
    h = dense_spin_chain(spec)
    w, v = exact_diagonalization(h, k=3)
    assert w.shape == (3,) and v.shape == (8, 3)
    assert np.all(np.diff(w) >= 0)
    for i in range(3):
        np.testing.assert_allclose(h @ v[:, i], w[i] * v[:, i], atol=1e-10)
    with monkeypatch.context() as patch:
        patch.setattr(models, "DENSE_LIMIT", 4)
        with pytest.raises(ValueError, match="exceeds the dense limit 4"):
            exact_diagonalization(h)
    with pytest.raises(ValueError, match="cannot request"):
        exact_diagonalization(h, k=9)
    with pytest.raises(ValueError, match="cannot request"):
        exact_diagonalization(h, k=0)


# ---------------------------------------------------------------------------
# matrix-free exact oracle
# ---------------------------------------------------------------------------

def _oracle_specs():
    """Both models at 2..8 sites, with J < 0, h = 0 and h < 0 at odd n."""
    for n in range(2, 9):
        for coupling, field in ((1.1, 0.7), (-0.8, 0.0), (1.0, -0.9)):
            yield SpinChainSpec(kind="tfim", n_sites=n, coupling=coupling, field=field)
        for coupling in (1.0, -0.7):
            yield SpinChainSpec(kind="heisenberg", n_sites=n, coupling=coupling)


def test_matvec_applies_the_dense_hamiltonian():
    rng = np.random.default_rng(11)
    for spec in _oracle_specs():
        dim = 2**spec.n_sites
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        np.testing.assert_allclose(spin_chain_matvec(spec)(x),
                                   dense_spin_chain(spec) @ x, rtol=0, atol=1e-12,
                                   err_msg=str(spec))


def test_matvec_is_hermitian_on_probe_vectors():
    rng = np.random.default_rng(12)
    for spec in _oracle_specs():
        dim = 2**spec.n_sites
        u, v = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        apply = spin_chain_matvec(spec)
        lhs, rhs = np.vdot(u, apply(v)), np.vdot(apply(u), v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), spec


@pytest.mark.parametrize("spec", [
    SpinChainSpec(kind="heisenberg", n_sites=n, coupling=1.0) for n in (2, 4, 6, 8)
] + [
    SpinChainSpec(kind="tfim", n_sites=n, coupling=1.0, field=h)
    for n in (5, 7) for h in (-1.0, -0.8, 0.6)
] + [
    SpinChainSpec(kind="tfim", n_sites=8, coupling=-1.2, field=0.9),
])
def test_ground_state_matches_dense_eigh(spec):
    """Every case has a non-degenerate ground state.  A symmetric start would

    fail the Heisenberg chain (the uniform vector is its highest level) and
    the TFIM at h < 0 and odd n (its ground state is odd under the spin flip)."""
    [(energy, state)] = spin_chain_ground_states([spec])
    w, v = np.linalg.eigh(dense_spin_chain(spec))
    assert w[1] - w[0] > 1e-3  # non-degenerate, so the vector is determined
    assert abs(energy - w[0]) <= 1e-12
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
    assert abs(np.vdot(v[:, 0], state)) ** 2 >= 1 - 1e-12


def test_ground_energy_of_degenerate_chains():
    # the odd Heisenberg doublet, the ferromagnet, and the TFIM at zero field
    for spec in (SpinChainSpec(kind="heisenberg", n_sites=7, coupling=1.0),
                 SpinChainSpec(kind="heisenberg", n_sites=6, coupling=-1.0),
                 SpinChainSpec(kind="tfim", n_sites=5, coupling=1.3, field=0.0)):
        [(energy, _)] = spin_chain_ground_states([spec])
        w = np.linalg.eigvalsh(dense_spin_chain(spec))
        assert abs(energy - w[0]) <= 1e-12, spec


def test_unconverged_ground_state_raises(monkeypatch):
    monkeypatch.setattr(linalg, "LANCZOS_RESTARTS", 0)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spin_chain_ground_states([SpinChainSpec(kind="tfim", n_sites=6, field=1.0)])


def test_an_ordered_chain_that_does_not_converge_names_its_field_as_a_number(monkeypatch):
    """Deep in the ordered phase the two lowest TFIM states are nearly
    degenerate, but they lie in opposite spin-flip sectors: at 9 sites and
    h = 0.1 the oracle, started in the ground state's sector, converges to
    the free-fermion energy.  When it runs out of Lanczos cycles, a field
    taken from a numpy grid prints as a plain number."""
    spec = SpinChainSpec(kind="tfim", n_sites=9, coupling=1.0, field=np.float64(0.1))
    [(energy, _)] = spin_chain_ground_states([spec])
    assert abs(energy - free_fermion_tfim_energy(9, 1.0, 0.1)) <= 1e-10
    monkeypatch.setattr(linalg, "LANCZOS_RESTARTS", 0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=re.escape("9-site tfim chain (J=1.0, h=0.1) did not converge")):
        spin_chain_ground_states([spec])


@pytest.mark.parametrize("n_sites, coupling, field", [
    (n, 1.0, h) for n in (2, 5, 8, 9, 10, 12) for h in (-1.3, -0.4, 0.7)
] + [(9, 1.0, -0.1), (7, -0.8, 0.6), (9, 1.0, 0.1), (10, 1.0, 0.2), (12, 1.0, 0.3)])
def test_tfim_oracle_matches_free_fermions(n_sites, coupling, field):
    """The oracle's energy is the free-fermion one to 1e-10 on both sides of
    h = 0, odd chains at h < 0 (whose ground state is odd under the spin
    flip) and the ordered phase included."""
    spec = SpinChainSpec(kind="tfim", n_sites=n_sites, coupling=coupling, field=field)
    [(energy, _)] = spin_chain_ground_states([spec])
    assert abs(energy - free_fermion_tfim_energy(n_sites, coupling, field)) <= 1e-10


@pytest.mark.parametrize("n_sites", [5, 6, 7, 8])
@pytest.mark.parametrize("coupling", [1.0, -1.0])
def test_heisenberg_oracle_starts_in_the_ground_sz_sector(n_sites, coupling):
    """The Heisenberg oracle solves in the sector of ``n // 2`` down spins:
    its energy is the dense lowest level for both signs of J, and its vector
    has S^z = 0 (even n) or +1/2 (odd n, one member of the ground doublet)."""
    spec = SpinChainSpec(kind="heisenberg", n_sites=n_sites, coupling=coupling)
    [(energy, state)] = spin_chain_ground_states([spec])
    assert abs(energy - np.linalg.eigvalsh(dense_spin_chain(spec))[0]) <= 1e-12
    down = np.array([bin(i).count("1") for i in range(2**n_sites)])
    assert np.all(state[down != n_sites // 2] == 0)


@pytest.mark.parametrize("spec", [
    SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=0.8),
    SpinChainSpec(kind="heisenberg", n_sites=6, coupling=1.0),
])
def test_real_chains_have_real_mpos_and_real_ground_states(spec):
    """Both chains are real in the sz basis: the MPO is float64, and so is the
    exact ground vector, which matches dense ``eigh`` to 1e-12."""
    assert {w.dtype for w in build_spin_chain_mpo(spec).tensors} == {np.dtype(np.float64)}
    [(energy, state)] = spin_chain_ground_states([spec])
    assert state.dtype == np.float64
    w, v = np.linalg.eigh(dense_spin_chain(spec))
    assert_same_eigenpair(energy, state, w[0], v[:, 0], tol=1e-12)
