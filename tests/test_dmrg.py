import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmrg.dmrg import SweepConfig, _bond_charges, continuation_scan, ground_state
from udmrg.models import (
    SpinChainSpec,
    build_spin_chain_mpo,
    dense_spin_chain,
    exact_diagonalization,
    single_site_mpo,
    PAULI_Z,
)
from udmrg.mps import MatrixProductState, from_product_state, random_mps
from udmrg.truncation import POLICY_KINDS, TruncationPolicy


def tfim_family(n_sites, coupling=1.0):
    def family(field):
        return build_spin_chain_mpo(
            SpinChainSpec(kind="tfim", n_sites=n_sites, coupling=coupling,
                          field=field))
    return family


def reference_energy(spec):
    return exact_diagonalization(dense_spin_chain(spec))[0][0]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_sweep_config_validation():
    SweepConfig()
    with pytest.raises(ValueError, match="max_bond"):
        SweepConfig(max_bond=0)
    with pytest.raises(ValueError, match="num_sweeps"):
        SweepConfig(num_sweeps=0)
    with pytest.raises(ValueError, match="energy_tol"):
        SweepConfig(energy_tol=0.0)
    with pytest.raises(ValueError, match="dense_limit"):
        SweepConfig(dense_limit=2)


def test_ground_state_input_validation():
    mpo = build_spin_chain_mpo(SpinChainSpec(kind="tfim", n_sites=4, field=1.0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="local dimensions"):
        ground_state(mpo, random_mps(rng, [2] * 3, 4), SweepConfig())
    zero = MatrixProductState([np.zeros((1, 2, 1))] * 4)
    with pytest.raises(ValueError, match="zero norm"):
        ground_state(mpo, zero, SweepConfig())
    one_site = single_site_mpo(PAULI_Z, 0, 1)
    up = from_product_state([np.array([1.0, 0.0])])
    with pytest.raises(ValueError, match="at least two sites"):
        ground_state(one_site, up, SweepConfig())


# ---------------------------------------------------------------------------
# ground-state accuracy
# ---------------------------------------------------------------------------

def test_tfim_ground_state_matches_exact_diagonalization():
    spec = SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=1.0)
    rng = np.random.default_rng(1)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 8),
                          SweepConfig(max_bond=8))
    assert result.converged
    assert abs(result.energy - reference_energy(spec)) <= 1e-8


def test_heisenberg_ground_state_matches_exact_diagonalization():
    spec = SpinChainSpec(kind="heisenberg", n_sites=6, coupling=1.0)
    rng = np.random.default_rng(2)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 16),
                          SweepConfig(max_bond=16))
    assert result.converged
    assert abs(result.energy - reference_energy(spec)) <= 1e-8


def test_full_rank_solve_is_numerically_exact():
    spec = SpinChainSpec(kind="tfim", n_sites=4, coupling=1.0, field=0.8)
    rng = np.random.default_rng(3)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 4, 4),
                          SweepConfig(max_bond=4))
    assert result.converged
    assert len(result.sweep_energies) == 2
    assert abs(result.energy - reference_energy(spec)) < 1e-12


def test_dense_limit_guards_the_local_solve():
    spec = SpinChainSpec(kind="tfim", n_sites=8, coupling=1.0, field=1.0)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="dense limit"):
        ground_state(build_spin_chain_mpo(spec),
                     random_mps(rng, [2] * 8, 16),
                     SweepConfig(max_bond=16, dense_limit=100))


def test_truncation_log_bookkeeping():
    spec = SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=1.2)
    rng = np.random.default_rng(5)
    cfg = SweepConfig(max_bond=4, num_sweeps=3, energy_tol=1e-12)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 4), cfg)
    assert result.truncation_log
    for rec in result.truncation_log:
        assert 1 <= rec.sweep <= 3
        assert 0 <= rec.bond <= 4
        assert rec.kept.size <= 4
        assert rec.discarded_weight >= 0.0
        assert rec.effective.shape == rec.singular_values.shape
        # untracked solve: charge columns stay zero
        assert np.all(rec.charges1 == 0.0)
        assert np.all(rec.charges2 == 0.0)


def test_non_convergence_is_flagged_not_raised():
    spec = SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=1.0)
    rng = np.random.default_rng(6)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 8),
                          SweepConfig(max_bond=8, num_sweeps=1,
                                      energy_tol=1e-15))
    assert not result.converged
    assert len(result.sweep_energies) == 1
    assert np.isfinite(result.energy)


# ---------------------------------------------------------------------------
# continuation scans
# ---------------------------------------------------------------------------

def test_scan_grid_validation():
    family = tfim_family(4)
    cfg = SweepConfig(max_bond=4)
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    with pytest.raises(ValueError, match="non-empty"):
        continuation_scan(family, [], cfg, init=init)
    with pytest.raises(ValueError, match="strictly increasing"):
        continuation_scan(family, [1.0, 1.0, 1.2], cfg, init=init)
    with pytest.raises(ValueError, match="initial state is required"):
        continuation_scan(family, [0.8, 1.0], cfg)


def test_scan_tracks_exact_ground_states_at_full_rank():
    family = tfim_family(4)
    grid = np.array([0.6, 0.8, 1.0, 1.2])
    cfg = SweepConfig(max_bond=4, num_sweeps=10, energy_tol=1e-11)
    init = random_mps(np.random.default_rng(8), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init)
    assert len(scan.results) == 4
    assert scan.fidelity_to_oracle is not None
    for k, value in enumerate(grid):
        spec = SpinChainSpec(kind="tfim", n_sites=4, coupling=1.0,
                             field=float(value))
        assert abs(scan.results[k].energy - reference_energy(spec)) < 1e-9
        assert scan.fidelity_to_oracle[k] >= 1.0 - 1e-8


def test_scan_first_point_runs_without_charge_tracking():
    family = tfim_family(4)
    grid = np.array([0.8, 1.0, 1.2])
    policy = TruncationPolicy(kind="coherence_eigenvalue", gamma1=0.2,
                              lambda1=0.1)
    cfg = SweepConfig(max_bond=4, num_sweeps=8, energy_tol=1e-10,
                      policy=policy)
    init = random_mps(np.random.default_rng(9), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init)
    first = scan.records[0]
    assert all(np.all(q == 0.0) for q in first.bond_charges1)
    assert all(np.all(q == 0.0) for q in first.bond_charges2)
    assert first.coherence_penalty == 0.0 and first.curvature_penalty == 0.0
    # later points have at least one nonzero first-order charge column
    later = scan.records[1]
    assert any(np.any(q != 0.0) for q in later.bond_charges1)


def test_zero_coefficient_policies_share_one_trajectory():
    """With every coefficient zero, all policy kinds keep the same states and

    land on exactly the same energies as the standard path."""
    family = tfim_family(4)
    grid = np.array([0.7, 0.9, 1.1])
    energies = {}
    kept_sets = {}
    for kind in POLICY_KINDS:
        cfg = SweepConfig(max_bond=4, num_sweeps=8, energy_tol=1e-10,
                          policy=TruncationPolicy(kind=kind))
        init = random_mps(np.random.default_rng(10), [2] * 4, 4)
        scan = continuation_scan(family, grid, cfg, init=init,
                                 compute_oracle=False)
        energies[kind] = [r.energy for r in scan.results]
        kept_sets[kind] = [rec.kept.tolist()
                           for r in scan.results
                           for rec in r.truncation_log]
    base = energies["standard"]
    for kind in POLICY_KINDS:
        assert energies[kind] == base
        assert kept_sets[kind] == kept_sets["standard"]


def test_record_objective_recomputes_from_parts():
    family = tfim_family(4)
    grid = np.array([0.7, 0.9, 1.1, 1.3])
    policy = TruncationPolicy(kind="coherence_eigenvalue_2", gamma1=0.05,
                              gamma2=0.05, lambda1=0.3, lambda2=0.2)
    cfg = SweepConfig(max_bond=4, num_sweeps=8, energy_tol=1e-10,
                      policy=policy)
    init = random_mps(np.random.default_rng(11), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init,
                             compute_oracle=False)
    for rec in scan.records:
        expected = rec.energy + 0.3 * rec.coherence_penalty \
            + 0.2 * rec.curvature_penalty
        assert rec.objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert rec.coherence_penalty >= 0.0
    # second-order charges need two earlier points
    assert all(np.all(q == 0.0) for q in scan.records[1].bond_charges2)
    assert any(np.any(q != 0.0) for q in scan.records[2].bond_charges1)


def test_scan_disables_oracle_when_requested():
    family = tfim_family(4)
    grid = np.array([0.9, 1.1])
    cfg = SweepConfig(max_bond=4)
    init = random_mps(np.random.default_rng(12), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init,
                             compute_oracle=False)
    assert scan.fidelity_to_oracle is None


@settings(max_examples=80, deadline=None)
@given(rank=st.integers(1, 5), extra_cols=st.integers(-2, 1),
       seed=st.integers(0, 2**32 - 1), h1=st.floats(0.05, 1.0),
       h2=st.floats(0.05, 1.0), second=st.booleans())
def test_bond_charges_ignore_column_phases(rank, extra_cols, seed, h1, h2, second):
    """Schmidt states are defined up to a phase; the charges must not see it."""
    rng = np.random.default_rng(seed)
    cols = max(1, rank + extra_cols)
    p = rng.dirichlet(np.ones(rank))

    def overlaps():
        w = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
        # a diagonal entry bounded away from zero fixes its column's phase
        idx = np.arange(min(rank, cols))
        w[idx, idx] = rng.uniform(0.1, 1.0, idx.size) * np.exp(
            2j * np.pi * rng.uniform(size=idx.size))
        return w

    def phases():
        return np.exp(2j * np.pi * rng.uniform(size=cols))

    w1 = overlaps()
    w2 = overlaps() if second else None
    q1, q2, aligned = _bond_charges(p, w1, w2, (h1, h2))
    r1, r2, r_aligned = _bond_charges(
        p, w1 * phases(), None if w2 is None else w2 * phases(), (h1, h2))
    for ref, rotated in ((q1, r1), (q2, r2)):
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(rotated, ref, rtol=1e-9, atol=1e-12 * scale)
    np.testing.assert_allclose(r_aligned, aligned, atol=1e-12)
    if not second:
        np.testing.assert_array_equal(q2, np.zeros(rank))
