import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from udmrg import dmrg, linalg
from udmrg.dmrg import (
    SweepConfig,
    TrajectoryTree,
    TruncationRecord,
    _bond_charges,
    continuation_scan,
    ground_state,
)
from udmrg.models import (
    SpinChainSpec,
    build_spin_chain_mpo,
    dense_spin_chain,
    exact_diagonalization,
    PAULI_X,
    PAULI_Z,
)
from udmrg.mps import (
    MatrixProductOperator,
    MatrixProductState,
    canonicalize,
    mpo_to_dense,
    random_mps,
    to_dense,
)
from udmrg.truncation import POLICY_KINDS, TruncationPolicy

from helpers import assert_same_eigenpair, from_product_state, single_site_mpo


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
    with pytest.raises(ValueError, match="num_sweeps"):
        SweepConfig(num_sweeps=0)
    with pytest.raises(ValueError, match="energy_tol"):
        SweepConfig(energy_tol=0.0)


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
                          SweepConfig(policy=TruncationPolicy(max_kept=8)))
    assert result.converged
    assert abs(result.energy - reference_energy(spec)) <= 1e-8


def test_heisenberg_ground_state_matches_exact_diagonalization():
    spec = SpinChainSpec(kind="heisenberg", n_sites=6, coupling=1.0)
    rng = np.random.default_rng(2)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 16),
                          SweepConfig(policy=TruncationPolicy(max_kept=16)))
    assert result.converged
    assert abs(result.energy - reference_energy(spec)) <= 1e-8


def test_full_rank_solve_is_numerically_exact():
    spec = SpinChainSpec(kind="tfim", n_sites=4, coupling=1.0, field=0.8)
    rng = np.random.default_rng(3)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 4, 4),
                          SweepConfig(policy=TruncationPolicy(max_kept=4)))
    assert result.converged
    assert len(result.sweep_energies) == 2
    assert abs(result.energy - reference_energy(spec)) < 1e-12


def test_an_unconverged_lanczos_solve_flags_the_result(monkeypatch):
    """Eight sites at bond 16 give local blocks above ``_FULL_EIGH_DIM``;

    one Lanczos cycle per solve is not enough, and the result says so."""
    spec = SpinChainSpec(kind="tfim", n_sites=8, coupling=1.0, field=1.0)
    mpo = build_spin_chain_mpo(spec)
    init = random_mps(np.random.default_rng(4), [2] * 8, 16)
    cfg = SweepConfig(policy=TruncationPolicy(max_kept=16))
    assert ground_state(mpo, init, cfg).converged
    monkeypatch.setattr(linalg, "LANCZOS_RESTARTS", 1)
    result = ground_state(mpo, init, cfg)
    assert not result.converged
    assert np.isfinite(result.energy)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["tfim", "heisenberg"]), n_sites=st.integers(8, 10),
       bond_dim=st.integers(8, 16), field=st.floats(0.5, 1.5),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_lanczos_matches_dense_eigh_on_chain_environments(kind, n_sites, bond_dim,
                                                          field, data, seed):
    """The local problem of a random state canonical at a bond, 130 to 1024

    dimensions: the warm-started Lanczos pair is the dense one."""
    spec = SpinChainSpec(kind=kind, n_sites=n_sites, coupling=1.0, field=field)
    ws = build_spin_chain_mpo(spec).tensors
    bond = data.draw(st.integers(1, n_sites - 3), label="bond")
    psi = canonicalize(random_mps(np.random.default_rng(seed), [2] * n_sites, bond_dim),
                       bond)
    lenv = dmrg._edge_env()
    for s in range(bond):
        lenv = dmrg._update_left(lenv, psi.tensors[s], ws[s])
    renv = dmrg._edge_env()
    for s in range(n_sites - 1, bond + 1, -1):
        renv = dmrg._update_right(renv, psi.tensors[s], ws[s])
    heff = dmrg.effective_hamiltonian(lenv, renv, ws[bond], ws[bond + 1])
    assume(130 <= heff.dim <= 1024)
    w, v = np.linalg.eigh(heff.dense())
    assume(w[1] - w[0] >= 0.05)  # a near-degenerate pair fixes no single vector
    energy, vector, converged = dmrg._lowest_eigenpair(
        heff, psi.tensors[bond], psi.tensors[bond + 1])
    assert converged
    assert_same_eigenpair(energy, vector, w[0], v[:, 0])


# ---------------------------------------------------------------------------
# metamorphic relations: the ground energy at full bond on six and eight sites
# ---------------------------------------------------------------------------

_FULL_BOND = SweepConfig(num_sweeps=20, energy_tol=1e-13,
                         policy=TruncationPolicy(max_kept=16))

#: six sites keep every local block at or below 64 dimensions (dense
#: solves); at eight sites the central blocks have 256 (Lanczos solves)
_CHAINS = [pytest.param(SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=0.7),
                        id="tfim"),
           pytest.param(SpinChainSpec(kind="heisenberg", n_sites=6, coupling=1.0),
                        id="heisenberg"),
           pytest.param(SpinChainSpec(kind="tfim", n_sites=8, coupling=1.0, field=1.2),
                        id="tfim-8"),
           pytest.param(SpinChainSpec(kind="heisenberg", n_sites=8, coupling=1.0),
                        id="heisenberg-8")]


def _full_bond_energy(mpo, init):
    result = ground_state(mpo, init, _FULL_BOND)
    assert result.converged
    return result.energy


@pytest.fixture(scope="module", params=_CHAINS)
def chain(request):
    mpo = build_spin_chain_mpo(request.param)
    init = random_mps(np.random.default_rng(11), [2] * request.param.n_sites, 4)
    energy = _full_bond_energy(mpo, init)
    assert abs(energy - reference_energy(request.param)) <= 1e-10
    return mpo, init, energy


def test_energy_is_unchanged_under_site_reversal(chain):
    mpo, init, energy = chain
    mirrored = MatrixProductOperator(
        [w.transpose(3, 1, 2, 0) for w in reversed(mpo.tensors)])
    mirrored_init = MatrixProductState(
        [a.transpose(2, 1, 0) for a in reversed(init.tensors)])
    assert abs(_full_bond_energy(mirrored, mirrored_init) - energy) <= 1e-10


def test_energy_is_unchanged_under_a_global_x_flip_of_the_start(chain):
    mpo, init, energy = chain
    flipped = MatrixProductState(
        [np.einsum("ps,lsr->lpr", PAULI_X, a) for a in init.tensors])
    assert abs(to_dense(flipped) - to_dense(init)).max() > 0.1
    assert abs(_full_bond_energy(mpo, flipped) - energy) <= 1e-10


@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_energy_scales_with_the_hamiltonian(chain, scale):
    mpo, init, energy = chain
    scaled = MatrixProductOperator([scale * mpo.tensors[0]] + mpo.tensors[1:])
    assert abs(_full_bond_energy(scaled, init) - scale * energy) <= 1e-10


def test_truncation_log_bookkeeping():
    spec = SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=1.2)
    rng = np.random.default_rng(5)
    cfg = SweepConfig(num_sweeps=3, energy_tol=1e-12, policy=TruncationPolicy(max_kept=4))
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 4), cfg)
    assert result.truncation_log
    choices = set()
    for rec in result.truncation_log:
        assert 1 <= rec.sweep <= 3
        assert 0 <= rec.bond <= 4
        assert rec.kept.size <= 4
        assert rec.discarded_weight >= 0.0
        choices.add(rec.singular_values.size > 4)
        if rec.singular_values.size <= 4:
            # no choice at cutoff 0: every state kept, no charges measured
            np.testing.assert_array_equal(rec.kept, np.arange(rec.singular_values.size))
            assert rec.charges1 is None and rec.charges2 is None
        else:
            # untracked solve: charge columns stay zero
            assert rec.charges1.shape == rec.charges2.shape == rec.singular_values.shape
            assert np.all(rec.charges1 == 0.0)
            assert np.all(rec.charges2 == 0.0)
    assert choices == {False, True}


def test_truncation_record_discarded_weight():
    """The squared weight of the singular values a step did not keep: of

    0.8 and 0.6, keeping either one drops 0.36 or 0.64, keeping both nothing."""
    sigma = np.array([0.8, 0.6])

    def record(kept):
        return TruncationRecord(sweep=1, bond=0, singular_values=sigma,
                                charges1=np.zeros(2), charges2=np.zeros(2),
                                kept=np.array(kept))

    assert record([0]).discarded_weight == pytest.approx(0.36, abs=1e-12)
    assert record([1]).discarded_weight == pytest.approx(0.64, abs=1e-12)
    assert record([0, 1]).discarded_weight == pytest.approx(0.0, abs=1e-12)


def test_non_convergence_is_flagged_not_raised():
    spec = SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=1.0)
    rng = np.random.default_rng(6)
    result = ground_state(build_spin_chain_mpo(spec),
                          random_mps(rng, [2] * 6, 8),
                          SweepConfig(num_sweeps=1, energy_tol=1e-15,
                                      policy=TruncationPolicy(max_kept=8)))
    assert not result.converged
    assert len(result.sweep_energies) == 1
    assert np.isfinite(result.energy)


# ---------------------------------------------------------------------------
# continuation scans
# ---------------------------------------------------------------------------

def test_scan_grid_validation():
    family = tfim_family(4)
    cfg = SweepConfig(policy=TruncationPolicy(max_kept=4))
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    with pytest.raises(ValueError, match="non-empty"):
        continuation_scan(family, [], cfg, init=init)
    with pytest.raises(ValueError, match="strictly increasing"):
        continuation_scan(family, [1.0, 1.0, 1.2], cfg, init=init)
    with pytest.raises(TypeError, match="init"):
        continuation_scan(family, [0.8, 1.0], cfg)


def tfim_ground_states(n_sites, grid):
    return [exact_diagonalization(dense_spin_chain(SpinChainSpec(
        kind="tfim", n_sites=n_sites, coupling=1.0, field=float(h))))[1][:, 0]
        for h in grid]


def test_scan_tracks_exact_ground_states_at_full_rank():
    family = tfim_family(4)
    grid = np.array([0.6, 0.8, 1.0, 1.2])
    cfg = SweepConfig(num_sweeps=10, energy_tol=1e-11, policy=TruncationPolicy(max_kept=4))
    init = random_mps(np.random.default_rng(8), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init,
                             oracle=tfim_ground_states(4, grid))
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
                              lambda1=0.1, max_kept=4)
    cfg = SweepConfig(num_sweeps=8, energy_tol=1e-10, policy=policy)
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
        cfg = SweepConfig(num_sweeps=8, energy_tol=1e-10,
                          policy=TruncationPolicy(kind=kind, max_kept=4))
        init = random_mps(np.random.default_rng(10), [2] * 4, 4)
        scan = continuation_scan(family, grid, cfg, init=init)
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
                              gamma2=0.05, lambda1=0.3, lambda2=0.2, max_kept=4)
    cfg = SweepConfig(num_sweeps=8, energy_tol=1e-10, policy=policy)
    init = random_mps(np.random.default_rng(11), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init)
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
    cfg = SweepConfig(policy=TruncationPolicy(max_kept=4))
    init = random_mps(np.random.default_rng(12), [2] * 4, 4)
    scan = continuation_scan(family, grid, cfg, init=init)
    assert scan.fidelity_to_oracle is None


def test_scan_oracle_fidelities_match_a_per_point_dense_reference():
    """The harness's oracle (one dense eigensolve per field, built with the

    Kronecker builder) gives the same fidelities, bit for bit, as the
    per-point ``exact_diagonalization(mpo_to_dense(mpo))`` the scan once ran
    itself."""
    family = tfim_family(6)
    grid = np.linspace(0.8, 1.2, 5)
    cfg = SweepConfig(num_sweeps=8, energy_tol=1e-9, policy=TruncationPolicy(max_kept=4))
    init = random_mps(np.random.default_rng(13), [2] * 6, 4)
    scan = continuation_scan(family, grid, cfg, init=init,
                             oracle=tfim_ground_states(6, grid))
    reference = []
    for value, result in zip(grid, scan.results):
        _, vecs = exact_diagonalization(mpo_to_dense(family(float(value))), k=1)
        dense = to_dense(result.state)
        dense = dense / np.linalg.norm(dense)
        reference.append(float(np.abs(np.vdot(vecs[:, 0], dense)) ** 2))
    assert scan.fidelity_to_oracle == reference
    with pytest.raises(ValueError, match="oracle holds 4 states for 5 grid points"):
        continuation_scan(family, grid, cfg, init=init,
                          oracle=tfim_ground_states(6, grid[:4]))


def test_scan_local_solves_see_no_subnormal_entries(monkeypatch):
    """For the real TFIM MPO the imaginary parts of a warm-started scan's

    local eigenvectors shrink geometrically from point to point.  Unflushed,
    they reach the subnormal range by the ninth point, where a dense
    eigensolve runs more than ten times slower."""
    tiny = np.finfo(float).tiny
    subnormal = []
    lowest = dmrg._lowest_eigenpair

    def spy(heff, left, right):
        parts = np.abs(heff.dense().view(float))
        subnormal.append(int(np.count_nonzero((parts > 0) & (parts < tiny))))
        return lowest(heff, left, right)

    monkeypatch.setattr(dmrg, "_lowest_eigenpair", spy)
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    continuation_scan(tfim_family(4), np.linspace(0.5, 1.5, 9),
                      SweepConfig(num_sweeps=12, energy_tol=1e-9,
                                  policy=TruncationPolicy(max_kept=4)),
                      init=init)
    assert subnormal and sum(subnormal) == 0


def test_flush_zeroes_tiny_entries_of_a_real_vector():
    vec = np.array([1.0, 1e-120, -0.5, -3e-105, 2e-90])
    out = dmrg._flush_tiny(vec)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, 0.0, -0.5, 0.0, 2e-90])


def test_flush_returns_a_complex_vector_with_no_imaginary_part_as_real():
    vec = np.array([1.0 + 1e-120j, -0.5 + 0j, 3e-130 - 2e-140j, 2e-90 + 0j])
    out = dmrg._flush_tiny(vec)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, -0.5, 0.0, 2e-90])


def test_flush_keeps_a_complex_vector_with_an_imaginary_part_complex():
    vec = np.array([1.0 + 1e-120j, -0.5 + 0j, 3e-130 + 1e-60j])
    out = dmrg._flush_tiny(vec)
    assert out.dtype == np.complex128
    np.testing.assert_array_equal(out, [1.0, -0.5, 1e-60j])


def test_a_real_mpo_scans_like_its_complex_twin(monkeypatch):
    """The float64 TFIM MPO and the same tensors cast to complex128 give one
    6-site scan with a re-ranking policy: the same states kept at every step,
    energies and fidelities within 1e-12.  The real run ends in float64
    tensors and real local problems; every local problem of the complex run
    is complex (its state may still turn real, once a flushed eigenvector has
    no imaginary part left)."""
    grid = np.linspace(0.5, 1.5, 11)
    real = tfim_family(6)

    def twin(field):
        return MatrixProductOperator([w.astype(np.complex128)
                                      for w in real(field).tensors])

    build = dmrg.effective_hamiltonian
    dtypes = []

    def spy(*args):
        dtypes.append(np.result_type(*args))
        return build(*args)

    monkeypatch.setattr(dmrg, "effective_hamiltonian", spy)
    cfg = SweepConfig(num_sweeps=8, energy_tol=1e-9, policy=TruncationPolicy(
        kind="coherence_eigenvalue", lambda1=50.0, max_kept=3))
    oracle = tfim_ground_states(6, grid)
    scans, solves = [], []
    for family in (real, twin):
        dtypes.clear()
        init = random_mps(np.random.default_rng(14), [2] * 6, 3)
        scans.append(continuation_scan(family, grid, cfg, init=init, oracle=oracle))
        solves.append(list(dtypes))
    a, b = scans
    kept_a, kept_b = ([[rec.kept.tolist() for rec in r.truncation_log] for r in s.results]
                      for s in (a, b))
    assert kept_a == kept_b
    assert any(k != list(range(len(k))) for steps in kept_a for k in steps)  # re-ranked
    np.testing.assert_allclose([r.energy for r in a.results],
                               [r.energy for r in b.results], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.fidelity_to_oracle, b.fidelity_to_oracle,
                               rtol=0, atol=1e-12)
    last = len(a.results[-1].truncation_log)
    assert {t.dtype for t in a.results[-1].state.tensors} == {np.dtype(np.float64)}
    assert set(solves[0][-last:]) == {np.dtype(np.float64)}
    assert set(solves[1]) == {np.dtype(np.complex128)}


# ---------------------------------------------------------------------------
# scans sharing a trajectory tree
# ---------------------------------------------------------------------------

_TREE_FAMILY = tfim_family(5)
_TREE_GRID = np.linspace(0.6, 1.4, 7)

#: the standard scan first, then policies that leave its trajectory at
#: different points (or never) on the 5-site, chi=3 problem below
_TREE_POLICIES = [
    TruncationPolicy(),
    TruncationPolicy(kind="uhlmann", gamma1=5.0),  # never leaves it
    TruncationPolicy(kind="coherence_eigenvalue", lambda1=50.0),  # leaves at point 1
    TruncationPolicy(kind="coherence_eigenvalue_2", lambda1=0.5, lambda2=0.5),  # at 2
    TruncationPolicy(kind="coherence_eigenvalue_2", lambda2=0.05),  # at 2
    TruncationPolicy(kind="standard", cutoff=0.05),  # at point 0
    TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=2),  # at point 0
    TruncationPolicy(kind="categorified"),  # all coefficients zero
]


@pytest.fixture(scope="module")
def tree_oracle():
    return tfim_ground_states(5, _TREE_GRID)


def _tree_scan(policy, oracle, shared=None, family=_TREE_FAMILY, grid=_TREE_GRID,
               seed=5, max_bond=3, num_sweeps=8):
    policy = dataclasses.replace(policy, max_kept=min(policy.max_kept, max_bond))
    cfg = SweepConfig(num_sweeps=num_sweeps, energy_tol=1e-9, policy=policy)
    init = random_mps(np.random.default_rng(seed), [2] * 5, 3)
    return continuation_scan(family, grid, cfg, init=init, oracle=oracle,
                             shared=shared)


def _assert_same_scan(a, b):
    assert a.fidelity_to_oracle == b.fidelity_to_oracle
    assert len(a.results) == len(b.results) == len(a.records) == len(b.records)
    for ra, rb in zip(a.results, b.results):
        assert (ra.energy, ra.sweep_energies, ra.converged) == \
            (rb.energy, rb.sweep_energies, rb.converged)
        for ta, tb in zip(ra.state.tensors, rb.state.tensors, strict=True):
            np.testing.assert_array_equal(ta, tb)
        assert len(ra.truncation_log) == len(rb.truncation_log)
        for ta, tb in zip(ra.truncation_log, rb.truncation_log):
            assert (ta.sweep, ta.bond, ta.discarded_weight) == \
                (tb.sweep, tb.bond, tb.discarded_weight)
            for name in ("singular_values", "charges1", "charges2", "kept"):
                np.testing.assert_array_equal(getattr(ta, name), getattr(tb, name))
    for pa, pb in zip(a.records, b.records):
        for f in dataclasses.fields(pa):
            va, vb = getattr(pa, f.name), getattr(pb, f.name)
            if isinstance(va, list):
                assert len(va) == len(vb), f.name
                for x, y in zip(va, vb):
                    np.testing.assert_array_equal(x, y)
            else:
                assert va == vb, f.name


def _first_divergence(a, b):
    """First point whose kept sets differ between two scans, or ``None``."""
    for k, (ra, rb) in enumerate(zip(a.results, b.results)):
        kept_a = [rec.kept.tolist() for rec in ra.truncation_log]
        kept_b = [rec.kept.tolist() for rec in rb.truncation_log]
        if kept_a != kept_b:
            return k
    return None


def test_scans_through_a_tree_equal_scans_without_it(tree_oracle):
    tree = TrajectoryTree()
    shared = [_tree_scan(p, tree_oracle, shared=tree) for p in _TREE_POLICIES]
    own = [_tree_scan(p, tree_oracle) for p in _TREE_POLICIES]
    for a, b in zip(shared, own):
        _assert_same_scan(a, b)
    # the policies cover every case: staying on the standard trajectory,
    # leaving it at point 0, 1 and 2, and following a branch another left on
    assert [_first_divergence(own[0], scan) for scan in own] == \
        [None, None, 1, 2, 2, 0, 0, None]
    assert _first_divergence(own[3], own[4]) is None
    assert len(tree.children) == 3


def test_policies_with_a_choice_solve_steps_a_tree_never_charged(tree_oracle):
    """Cutoff-0 scans charge no step within the budget, so a scan that has a

    choice there -- a cutoff above 0, or a smaller budget -- cannot replay
    those steps and solves the point itself; each still equals its own scan.
    The cutoff-1e-12 scan keeps the standard sets, yet branches at point 0;
    the uhlmann one with a cutoff then replays that branch."""
    policies = [TruncationPolicy(), TruncationPolicy(kind="uhlmann", gamma1=5.0),
                TruncationPolicy(cutoff=1e-12),
                TruncationPolicy(kind="uhlmann", gamma1=5.0, cutoff=1e-9),
                TruncationPolicy(max_kept=2),
                TruncationPolicy(kind="coherence_eigenvalue_2", lambda1=0.5,
                                 lambda2=0.5, cutoff=0.05)]
    tree = TrajectoryTree()
    branches = []
    for policy in policies:
        _assert_same_scan(_tree_scan(policy, tree_oracle, shared=tree),
                          _tree_scan(policy, tree_oracle))
        branches.append(len(tree.children))
    assert branches == [1, 1, 2, 2, 3, 4]
    own = [_tree_scan(p, tree_oracle) for p in policies[:3]]
    assert _first_divergence(own[0], own[2]) is None
    assert any(rec.charges1 is None for res in own[0].results for rec in res.truncation_log)
    assert all(rec.charges1 is not None for res in own[2].results
               for rec in res.truncation_log)


def test_a_scan_adopting_a_charged_point_drops_the_charges_it_never_measures(tree_oracle):
    """A cutoff-0 scan replays the points a cutoff-1e-12 scan solved, and

    holds their records as its own solve would: no charges within the budget."""
    tree = TrajectoryTree()
    first = _tree_scan(TruncationPolicy(cutoff=1e-12), tree_oracle, shared=tree)
    adopted = _tree_scan(TruncationPolicy(), tree_oracle, shared=tree)
    assert len(tree.children) == 1
    _assert_same_scan(adopted, _tree_scan(TruncationPolicy(), tree_oracle))
    for ra, rb in zip(first.results, adopted.results, strict=True):
        for ta, tb in zip(ra.truncation_log, rb.truncation_log, strict=True):
            assert ta.charges1 is not None
            assert (tb.charges1 is None) == (tb.singular_values.size <= 3)
            assert tb.kept is ta.kept


def test_a_scan_charges_only_steps_with_more_states_than_the_budget(monkeypatch,
                                                                     tree_oracle):
    sizes = []
    charges = dmrg._ChargeContext.charges

    def spy(self, bond, u3, sigma):
        sizes.append(sigma.size)
        return charges(self, bond, u3, sigma)

    monkeypatch.setattr(dmrg._ChargeContext, "charges", spy)
    scan = _tree_scan(TruncationPolicy(kind="uhlmann", gamma1=5.0), tree_oracle)
    # point 0 has no earlier point to charge against
    over_budget = [rec.singular_values.size for res in scan.results[1:]
                   for rec in res.truncation_log if rec.singular_values.size > 3]
    assert over_budget and sizes == over_budget
    for res in scan.results:
        for rec in res.truncation_log:
            assert (rec.charges1 is None) == (rec.singular_values.size <= 3)


def test_scans_of_different_budgets_share_a_tree(tree_oracle):
    """The budget reaches a step only through its kept set, so scans that

    differ only in ``max_kept`` share one tree and still equal their own
    scans bit for bit.  On five sites no bond exceeds four states, so the
    budgets 4 and 64 keep the same states and share every node."""
    budgets = [2, 3, 4, 64]
    tree = TrajectoryTree()
    shared = [_tree_scan(TruncationPolicy(max_kept=k), tree_oracle, shared=tree,
                         max_bond=64) for k in budgets]
    own = [_tree_scan(TruncationPolicy(max_kept=k), tree_oracle, max_bond=64)
           for k in budgets]
    for a, b in zip(shared, own):
        _assert_same_scan(a, b)
    # 2 and 3 branch off at point 0; 64 replays every point 4 solved
    assert len(tree.children) == 3
    assert all(np.shares_memory(x.state.tensors[0], y.state.tensors[0])
               for x, y in zip(shared[2].results, shared[3].results, strict=True))


def test_a_tree_solves_each_distinct_point_once(monkeypatch, tree_oracle):
    solves = []
    heff = dmrg.effective_hamiltonian

    def counting(*args):
        solves.append(1)
        return heff(*args)

    monkeypatch.setattr(dmrg, "effective_hamiltonian", counting)
    node_work = []
    for name in ("_bond_charges", "_point_gauge_record"):
        def spy(*args, _fn=getattr(dmrg, name), _name=name):
            node_work.append(_name)
            return _fn(*args)
        monkeypatch.setattr(dmrg, name, spy)
    for policy in _TREE_POLICIES:
        _tree_scan(policy, tree_oracle)
    independent = len(solves)
    solves.clear()
    tree = TrajectoryTree()
    first = [_tree_scan(p, tree_oracle, shared=tree) for p in _TREE_POLICIES]
    assert 0 < len(solves) < independent
    # one node per point solved: the standard trajectory, the branch left at
    # point 1, the one both coherence_eigenvalue_2 policies share from point
    # 2, and the two that leave at point 0
    nodes, stack = 0, list(tree.children)
    while stack:
        node = stack.pop()
        nodes += 1
        stack += node.children
    assert nodes == 7 + 6 + 5 + 7 + 7
    solves.clear()
    node_work.clear()
    again = [_tree_scan(p, tree_oracle, shared=tree) for p in _TREE_POLICIES]
    assert solves == []
    # charges and gauge records live on the nodes: a replay only selects
    assert node_work == []
    for a, b in zip(first, again):
        _assert_same_scan(a, b)


def _scan_arrays(scan):
    """Every array a scan's results and records hold, in a fixed order."""
    out = []
    for res, rec in zip(scan.results, scan.records, strict=True):
        out += res.state.tensors
        for t in res.truncation_log:
            out += [t.singular_values, t.charges1, t.charges2, t.kept]
        out += rec.bond_probabilities + rec.bond_charges1 + rec.bond_charges2
    return out


def test_scans_through_a_tree_share_no_mutable_container(tree_oracle):
    tree = TrajectoryTree()
    # the second policy follows the first one's trajectory, re-weighing by charges
    first, second = [_tree_scan(p, tree_oracle, shared=tree) for p in _TREE_POLICIES[:2]]
    shared = [(x, y) for x, y in zip(_scan_arrays(first), _scan_arrays(second), strict=True)
              if np.shares_memory(x, y)]
    assert shared
    for x, _ in shared:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0

    def lists(scan):
        return [lst for res, rec in zip(scan.results, scan.records)
                for lst in (res.state.tensors, res.truncation_log, res.sweep_energies,
                            rec.bond_probabilities, rec.bond_charges1,
                            rec.bond_charges2, rec.bond_discarded)]

    def contents(scan):
        return [[id(x) for x in lst] for lst in lists(scan)]

    # the adopting scan holds the solved point's frozen records themselves
    for ra, rb in zip(first.results, second.results, strict=True):
        assert all(x is y
                   for x, y in zip(ra.truncation_log, rb.truncation_log, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.results[-1].truncation_log[0].kept = np.arange(1)

    before = contents(second)
    for lst in lists(first) + [first.results, first.records]:
        lst.append(None)
    assert contents(second) == before
    # nor did the appends reach the tree
    _assert_same_scan(_tree_scan(_TREE_POLICIES[3], tree_oracle, shared=tree),
                      _tree_scan(_TREE_POLICIES[3], tree_oracle))


def test_a_tree_refuses_scans_of_another_problem(tree_oracle):
    tree = TrajectoryTree()
    _tree_scan(TruncationPolicy(), tree_oracle, shared=tree)
    with pytest.raises(ValueError, match="another grid"):
        _tree_scan(TruncationPolicy(), tree_oracle, shared=tree, grid=_TREE_GRID + 0.01)
    with pytest.raises(ValueError, match="another initial state"):
        _tree_scan(TruncationPolicy(), tree_oracle, shared=tree, seed=6)
    with pytest.raises(ValueError, match="another budget"):
        _tree_scan(TruncationPolicy(), tree_oracle, shared=tree, num_sweeps=9)
    with pytest.raises(ValueError, match="another family"):
        _tree_scan(TruncationPolicy(), tree_oracle, shared=tree, family=tfim_family(5))
    with pytest.raises(ValueError, match="another oracle"):
        _tree_scan(TruncationPolicy(), None, shared=tree)
    # another policy on the same problem is what the tree is for
    _tree_scan(_TREE_POLICIES[2], tree_oracle, shared=tree)


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
