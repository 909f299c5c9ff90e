import re

import numpy as np
import pytest

from udmrg import linalg
from udmrg.models import (
    CROSSING_POINTS,
    PAULI_X,
    PAULI_Z,
    SPIN_CHAIN_KINDS,
    SpinChainSpec,
    TimeGrid,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    diabatic_energies,
    evolution_step,
    exact_diagonalization,
    gaussian_transition_probability,
    landau_zener_reference,
    spin_chain_ground_state,
    spin_chain_matvec,
    tdse_propagate,
    two_level_hamiltonian,
)
from udmrg.mps import mpo_to_dense

from helpers import assert_same_eigenpair


def linear_sweep_hamiltonian(v, coupling):
    """Two-level Hamiltonian whose diabatic gap closes at rate ``v``."""

    def h_of_t(t):
        return np.array([[0.5 * v * t, coupling],
                         [coupling, -0.5 * v * t]], dtype=complex)

    return h_of_t


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


def test_transition_probability_requires_coupling():
    with pytest.raises(ValueError, match="zero coupling"):
        gaussian_transition_probability(TwoLevelModel(coupling=0.0), 0.3)
    with pytest.raises(ValueError, match="finite"):
        TwoLevelModel(coupling=np.inf)


# ---------------------------------------------------------------------------
# time grids and propagation
# ---------------------------------------------------------------------------

def test_time_grid_validation_and_accessors():
    grid = TimeGrid(-1.0, 1.0, 4)
    assert grid.dt == pytest.approx(0.5)
    np.testing.assert_allclose(grid.times(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="at least one"):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="forward"):
        TimeGrid(1.0, 0.0, 10)


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


def test_tdse_constant_hamiltonian_closed_form():
    grid = TimeGrid(0.0, 1.0, 200)
    psi0 = np.array([1.0, 0.0])
    traj = tdse_propagate(lambda t: PAULI_X, psi0, grid)
    assert traj.shape == (201, 2)
    # exp(-i sx t) |0> = cos(t)|0> - i sin(t)|1>
    for n in (50, 100, 200):
        t = grid.times()[n]
        expected = np.array([np.cos(t), -1j * np.sin(t)])
        np.testing.assert_allclose(traj[n], expected, atol=1e-12)


def test_tdse_preserves_norm_to_machine_precision():
    grid = TimeGrid(-5.0, 5.0, 500)
    traj = tdse_propagate(linear_sweep_hamiltonian(1.0, 0.3),
                          np.array([1.0, 0.0]), grid)
    norms = np.linalg.norm(traj, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_tdse_rejects_unnormalized_initial_state():
    with pytest.raises(ValueError, match="expected 1"):
        tdse_propagate(lambda t: PAULI_X, np.array([1.0, 1.0]),
                       TimeGrid(0.0, 1.0, 10))


def test_slow_sweep_stays_in_the_instantaneous_ground_state():
    omega = 0.02

    def h_of_t(t):
        return 0.5 * (np.cos(omega * t) * PAULI_Z
                      + np.sin(omega * t) * PAULI_X)

    grid = TimeGrid(0.0, 50.0, 2000)
    traj = tdse_propagate(h_of_t, np.array([0.0, 1.0]), grid)
    _, v = np.linalg.eigh(h_of_t(grid.t1))
    ground_pop = abs(np.vdot(v[:, 0], traj[-1])) ** 2
    assert ground_pop >= 0.99


def test_fast_sweep_follows_the_diabatic_branch():
    grid = TimeGrid(-200.0, 200.0, 20000)
    traj = tdse_propagate(linear_sweep_hamiltonian(1.0, 0.2),
                          np.array([1.0, 0.0]), grid)
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


@pytest.mark.parametrize("kind,sizes", [("tfim", (2, 3, 4, 5)),
                                        ("heisenberg", (2, 3, 4))])
def test_mpo_matches_dense_builder(kind, sizes):
    for n in sizes:
        spec = SpinChainSpec(kind=kind, n_sites=n, coupling=1.1, field=0.7)
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
        patch.setattr(linalg, "DENSE_LIMIT", 4)
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
    energy, state = spin_chain_ground_state(spec)
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
        energy, _ = spin_chain_ground_state(spec)
        w = np.linalg.eigvalsh(dense_spin_chain(spec))
        assert abs(energy - w[0]) <= 1e-12, spec


def test_unconverged_ground_state_raises(monkeypatch):
    monkeypatch.setattr(linalg, "LANCZOS_RESTARTS", 0)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spin_chain_ground_state(SpinChainSpec(kind="tfim", n_sites=6, field=1.0))


def test_an_ordered_chain_that_does_not_converge_names_its_field_as_a_number():
    """Deep in the ordered phase the two lowest TFIM states are nearly
    degenerate: at 9 sites and h = 0.1 the oracle runs out of Lanczos
    cycles.  A field taken from a numpy grid prints as a plain number."""
    spec = SpinChainSpec(kind="tfim", n_sites=9, coupling=1.0, field=np.float64(0.1))
    with pytest.raises(np.linalg.LinAlgError,
                       match=re.escape("9-site tfim chain (J=1.0, h=0.1) did not converge")):
        spin_chain_ground_state(spec)


@pytest.mark.parametrize("spec", [
    SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=0.8),
    SpinChainSpec(kind="heisenberg", n_sites=6, coupling=1.0),
])
def test_real_chains_have_real_mpos_and_real_ground_states(spec):
    """Both chains are real in the sz basis: the MPO is float64, and so is the
    exact ground vector, which matches dense ``eigh`` to 1e-12."""
    assert {w.dtype for w in build_spin_chain_mpo(spec).tensors} == {np.dtype(np.float64)}
    energy, state = spin_chain_ground_state(spec)
    assert state.dtype == np.float64
    w, v = np.linalg.eigh(dense_spin_chain(spec))
    assert_same_eigenpair(energy, state, w[0], v[:, 0], tol=1e-12)
