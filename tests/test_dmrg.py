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
from udmrg.harness import PecComparisonConfig, run_experiment
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
    bond_schmidt_data,
    canonicalize,
    expectation,
    extend_cross_env,
    extend_left_env,
    extend_right_env,
    mpo_to_dense,
    random_mps,
    to_dense,
)
from udmrg.spectral import second_difference_coeffs
from udmrg.truncation import (
    POLICY_KINDS,
    TruncationPolicy,
    charge_first_order,
    charge_second_order,
    compute_weights,
    select_states,
)

from helpers import (
    assert_same_eigenpair,
    complex_random_mps,
    count_dense_calls,
    count_dense_tiers,
    from_product_state,
    single_site_mpo,
    tree_nodes,
)


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


@pytest.mark.parametrize("energy_tol", [np.nan, np.inf], ids=["nan", "inf"])
def test_sweep_config_rejects_an_energy_tolerance_that_is_not_finite(energy_tol):
    """A NaN tolerance would run every solve's whole budget and flag it, an

    infinite one would accept every solve after one sweep."""
    with pytest.raises(ValueError, match="energy_tol must be positive and finite"):
        SweepConfig(energy_tol=energy_tol)


def test_sweep_config_rejects_a_sweep_count_that_is_not_an_integer():
    with pytest.raises(ValueError, match="num_sweeps must be an integer"):
        SweepConfig(num_sweeps=2.5)
    assert SweepConfig(num_sweeps=np.int64(3)).num_sweeps == 3


@pytest.mark.parametrize("energy_tol", [True, "1e-9", None], ids=["bool", "str", "none"])
def test_sweep_config_takes_only_a_real_energy_tolerance(energy_tol):
    """A bool is no number, and a string used to raise a ``TypeError`` from
    the comparison; each fails with a ``ValueError`` naming the field."""
    with pytest.raises(ValueError, match="^energy_tol must be a real number"):
        SweepConfig(energy_tol=energy_tol)


def test_sweep_config_stores_python_numbers():
    """Like a truncation policy's fields, so a ``numpy`` scalar compares and
    reports like the number it holds."""
    cfg = SweepConfig(num_sweeps=np.int64(3), energy_tol=np.float32(0.5))
    assert type(cfg.num_sweeps) is int and type(cfg.energy_tol) is float
    assert cfg == SweepConfig(num_sweeps=3, energy_tol=0.5)


def test_a_tree_checks_and_stores_its_sweep_budget_as_the_sweep_config_does():
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    tree = TrajectoryTree(tfim_family(4), [0.8, 1.0], init, np.int64(12), np.float32(0.5))
    assert (type(tree.num_sweeps), type(tree.energy_tol)) == (int, float)
    assert (tree.num_sweeps, tree.energy_tol) == (12, 0.5)
    with pytest.raises(ValueError, match="energy_tol must be a real number"):
        TrajectoryTree(tfim_family(4), [0.8, 1.0], init, 12, True)


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

    dimensions: the warm-started Lanczos pair is the dense one.  The drawn
    field applies to the TFIM only; the Heisenberg chain has none."""
    spec = SpinChainSpec(kind=kind, n_sites=n_sites, coupling=1.0,
                         field=field if kind == "tfim" else 0.0)
    ws = build_spin_chain_mpo(spec).tensors
    bond = data.draw(st.integers(1, n_sites - 3), label="bond")
    psi = canonicalize(random_mps(np.random.default_rng(seed), [2] * n_sites, bond_dim),
                       bond)
    lenv = dmrg._edge_env()
    for s in range(bond):
        lenv = extend_left_env(lenv, psi.tensors[s], ws[s])
    renv = dmrg._edge_env()
    for s in range(n_sites - 1, bond + 1, -1):
        renv = extend_right_env(renv, psi.tensors[s], ws[s])
    heff = dmrg.effective_hamiltonian(lenv, renv, ws[bond], ws[bond + 1])
    assume(130 <= heff.dim <= 1024)
    w, v = np.linalg.eigh(heff.dense())
    assume(w[1] - w[0] >= 0.05)  # a near-degenerate pair fixes no single vector
    energy, vector, converged = dmrg._lowest_eigenpair(
        heff, psi.tensors[bond], psi.tensors[bond + 1])
    assert converged
    assert_same_eigenpair(energy, vector, w[0], v[:, 0])


# ---------------------------------------------------------------------------
# the dense local solve: a certified warm start, then the lowest eigenvalue
# ---------------------------------------------------------------------------

#: (dimension, first-site dimension, complex) of the dense blocks tested
DENSE_BLOCKS = [(dim, d1, cplx) for dim, d1 in ((16, 4), (32, 4), (64, 8), (128, 8))
                for cplx in (False, True)]


def _block_of(h, d1):
    """The effective Hamiltonian whose dense form is ``h``, bit for bit, with
    sites of ``d1`` and ``len(h) // d1`` dimensions under unit environments."""
    d2 = h.shape[0] // d1
    w1 = np.zeros((1, d1, d1, d1 * d1))
    w1[0].reshape(d1 * d1, d1 * d1)[np.diag_indices(d1 * d1)] = 1.0
    w2 = h.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2, d2, 1)
    heff = dmrg.effective_hamiltonian(dmrg._edge_env(), dmrg._edge_env(), w1, w2)
    assert np.array_equal(heff.dense(), h)
    return heff


def _random_hermitian(rng, dim, cplx):
    g = rng.normal(size=(dim, dim))
    if cplx:
        g = g + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def _solve_from(heff, start, d1):
    """``_lowest_eigenpair`` warm-started from the two-site tensor ``start``."""
    d2 = start.size // d1
    return dmrg._lowest_eigenpair(heff, start.reshape(1, d1, d2),
                                  np.eye(d2).reshape(d2, d2, 1))


@pytest.fixture
def dense_path(monkeypatch):
    """Counts of the linear solves, Cholesky factorizations, ``eigvalsh``
    calls and full ``eigh`` fallbacks that ``_lowest_eigenpair`` makes."""
    return count_dense_calls(monkeypatch)


def _assert_lowest(energy, vector, h):
    w, v = np.linalg.eigh(h)
    assert abs(energy - w[0]) <= 1e-12
    assert abs(np.vdot(v[:, 0], vector)) >= 1 - 1e-12


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_from_a_random_start(dense_path, dim, d1, cplx):
    rng = np.random.default_rng(dim + cplx)
    h = _random_hermitian(rng, dim, cplx)
    energy, vector, converged = _solve_from(_block_of(h, d1), rng.normal(size=dim), d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path["eigh"] == 0


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_from_a_start_orthogonal_to_the_ground_state(dense_path, dim, d1,
                                                                 cplx):
    """The first solve from a start with no ground-state weight misses the
    residual rule; the second, from its result, meets it."""
    rng = np.random.default_rng(dim + cplx)
    h = _random_hermitian(rng, dim, cplx)
    ground = np.linalg.eigh(h)[1][:, 0]
    start = rng.normal(size=dim)
    start = start - ground * np.vdot(ground, start)
    energy, vector, converged = _solve_from(_block_of(h, d1), start, d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path == {"solve": 2, "cholesky": 1, "eigvalsh": 1, "eigh": 0}


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_from_an_excited_eigenvector(dense_path, dim, d1, cplx):
    """A start at the second eigenvector meets the residual rule, but the
    Cholesky certificate refuses its Rayleigh quotient ``E1``: ``eigvalsh``
    and inverse iteration find ``E0``."""
    rng = np.random.default_rng(dim + cplx)
    h = _random_hermitian(rng, dim, cplx)
    levels, vectors = np.linalg.eigh(h)
    excited = vectors[:, 1]
    assert np.linalg.norm(h @ excited - levels[1] * excited) <= \
        linalg.LANCZOS_TOL * max(1.0, abs(levels[1]))
    energy, vector, converged = _solve_from(_block_of(h, d1), excited, d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path["cholesky"] == dense_path["eigvalsh"] == 1


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_from_the_ground_state_costs_one_cholesky(dense_path, dim, d1,
                                                              cplx):
    """A converged start is certified as it stands: no solve, no eigensolve."""
    rng = np.random.default_rng(dim + cplx)
    h = _random_hermitian(rng, dim, cplx)
    ground = np.linalg.eigh(h)[1][:, 0]
    energy, vector, converged = _solve_from(_block_of(h, d1), ground, d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path == {"solve": 0, "cholesky": 1, "eigvalsh": 0, "eigh": 0}


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_near_the_ground_state_takes_the_rayleigh_shift(dense_path, dim,
                                                                   d1, cplx):
    """The ground state plus a perturbation of norm 1e-3 passes the Weinstein
    gate, and Rayleigh-quotient iteration converges without ``eigvalsh``."""
    rng = np.random.default_rng(dim + cplx)
    h = _random_hermitian(rng, dim, cplx)
    ground = np.linalg.eigh(h)[1][:, 0]
    kick = rng.normal(size=dim) + (1j * rng.normal(size=dim) if cplx else 0.0)
    start = ground + 1e-3 * kick / np.linalg.norm(kick)
    energy, vector, converged = _solve_from(_block_of(h, d1), start, d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path["solve"] <= 3
    assert dense_path["eigvalsh"] == dense_path["eigh"] == 0


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_on_an_exactly_degenerate_lowest_level(dense_path, dim, d1, cplx):
    """``B (x) 1`` repeats every level of ``B`` exactly: the vector lies in the
    lowest eigenspace and meets the residual rule."""
    rng = np.random.default_rng(dim + cplx)
    b = _random_hermitian(rng, dim // 2, cplx)
    h = np.kron(b, np.eye(2))
    energy, vector, converged = _solve_from(_block_of(h, d1), rng.normal(size=dim), d1)
    assert converged
    lowest, ground = np.linalg.eigh(b)
    assert abs(energy - lowest[0]) <= 1e-12
    in_space = np.kron(np.outer(ground[:, 0], ground[:, 0].conj()), np.eye(2)) @ vector
    assert np.linalg.norm(in_space) >= 1 - 1e-12
    assert np.linalg.norm(h @ vector - energy * vector) <= \
        linalg.LANCZOS_TOL * max(1.0, abs(energy))
    assert dense_path["eigh"] == 0


@pytest.mark.parametrize("dim,d1,cplx", DENSE_BLOCKS)
def test_dense_solve_of_a_diagonal_block_falls_back_to_eigh(dense_path, dim, d1, cplx):
    """Shifted by its lowest entry, a diagonal block has an exact zero pivot."""
    rng = np.random.default_rng(dim + cplx)
    h = np.diag(rng.normal(size=dim)).astype(complex if cplx else float)
    energy, vector, converged = _solve_from(_block_of(h, d1), rng.normal(size=dim), d1)
    assert converged
    _assert_lowest(energy, vector, h)
    assert dense_path == {"solve": 1, "cholesky": 1, "eigvalsh": 1, "eigh": 1}


def test_eight_site_oracle_config_never_falls_back_to_eigh(monkeypatch):
    """None of the 602 dense local solves of ``pec_comparison`` at 8 sites
    without the grid search needs the full ``eigh``; most never reach
    ``eigvalsh`` either.  The README states this split."""
    tiers = count_dense_tiers(monkeypatch)
    run_experiment(PecComparisonConfig(n_sites=8, grid_search=False))
    assert tiers == {"start": 216, "rqi": 380, "eigvalsh": 6, "eigh": 0}


def _reference_lowest_eigenpair(heff, left, right):
    """The dense local solve written with numpy's generic ``norm`` and
    ``vdot`` and with ``.flat`` shifts: the reference its fast paths match."""
    start = np.tensordot(left, right, axes=(2, 0)).reshape(-1)
    if heff.dim > dmrg._FULL_EIGH_DIM:
        return linalg.lanczos_lowest(heff.matvec, start)
    dense = heff.dense()
    diagonal = dense.diagonal()
    shifted = dense.copy()
    x = start / np.linalg.norm(start)
    for solves in range(4):
        if solves:
            shifted.flat[:: heff.dim + 1] = diagonal - energy
            try:
                x = np.linalg.solve(shifted, x)
            except np.linalg.LinAlgError:
                break
            x = x / np.linalg.norm(x)
        hx = dense @ x
        energy = float(np.vdot(x, hx).real)
        residual = float(np.linalg.norm(hx - energy * x))
        tol = linalg.LANCZOS_TOL * max(1.0, abs(energy))
        converged = residual <= tol
        if not converged and solves:
            continue
        floor = energy - tol if converged else energy - residual - tol
        shifted.flat[:: heff.dim + 1] = diagonal - floor
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            break
        if converged:
            return energy, x, True
    lowest = float(np.linalg.eigvalsh(dense)[0])
    shifted.flat[:: heff.dim + 1] = diagonal - lowest
    x = start
    for _ in range(2):
        try:
            x = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        x = x / np.linalg.norm(x)
        hx = shifted @ x
        gap = float(np.vdot(x, hx).real)
        tol = linalg.LANCZOS_TOL * max(1.0, abs(lowest + gap))
        if abs(gap) <= tol and np.linalg.norm(hx - gap * x) <= tol:
            return lowest + gap, x, True
    w, v = np.linalg.eigh(dense)
    return float(w[0]), v[:, 0], True


#: warm starts of the bit-identity cases, with the tier each one reaches:
#: the ground state (accepted as it stands), the ground state kicked by 1e-3
#: (Rayleigh-quotient iteration), a random start, the second eigenvector and
#: a start orthogonal to the ground state (inverse iteration after
#: ``eigvalsh``), a start in the upper block of a block-diagonal ``H`` whose
#: ground state lies in the lower one, and any start under a diagonal ``H``
#: (an exact zero pivot; both go to the full ``eigh``)
START_TIERS = {"ground": "start", "near": "rqi", "random": None, "excited": "eigvalsh",
               "orthogonal": "eigvalsh", "other_sector": "eigh", "diagonal": "eigh"}


def _bit_identity_case(rng, dim, cplx, cplx_start, case):
    """``(h, start)`` of one :data:`START_TIERS` case."""
    def draw(size):
        v = rng.normal(size=size)
        return v + 1j * rng.normal(size=size) if cplx_start else v

    if case == "diagonal":
        return np.diag(rng.normal(size=dim)).astype(complex if cplx else float), draw(dim)
    h = _random_hermitian(rng, dim, cplx)
    if case == "other_sector":
        upper = dim // 2
        h[:upper, upper:] = h[upper:, :upper] = 0.0
        h[upper:, upper:] -= 10.0 * np.eye(dim - upper)
        start = np.zeros(dim, dtype=complex if cplx_start else float)
        start[:upper] = draw(upper)
        return h, start
    levels, vectors = np.linalg.eigh(h)
    if case == "ground":
        return h, vectors[:, 0]
    if case == "excited":
        return h, vectors[:, 1]
    if case == "near":
        kick = draw(dim)
        return h, vectors[:, 0] + 1e-3 * kick / np.linalg.norm(kick)
    start = draw(dim)
    if case == "orthogonal":
        start = start - vectors[:, 0] * np.vdot(vectors[:, 0], start)
    return h, start


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(2, 128), cplx=st.booleans(), cplx_start=st.booleans(),
       case=st.sampled_from(sorted(START_TIERS)), seed=st.integers(0, 2**32 - 1))
def test_dense_solve_is_bit_identical_to_the_generic_numpy_one(dim, cplx, cplx_start,
                                                               case, seed):
    """Real and complex blocks of 2 to 128 dimensions, from starts that reach
    every tier, give the pair of the same solve written with ``np.linalg.norm``,
    ``np.vdot`` and ``.flat`` shifts, bit for bit and dtype included."""
    h, start = _bit_identity_case(np.random.default_rng(seed), dim, cplx, cplx_start, case)
    d1 = 2 if dim % 2 == 0 else 1
    heff = _block_of(h, d1)
    args = (start.reshape(1, d1, dim // d1), np.eye(dim // d1).reshape(dim // d1, dim // d1, 1))
    energy, vector, converged = dmrg._lowest_eigenpair(heff, *args)
    ref_energy, ref_vector, ref_converged = _reference_lowest_eigenpair(heff, *args)
    assert (energy, converged) == (ref_energy, ref_converged)
    assert vector.dtype == ref_vector.dtype and np.array_equal(vector, ref_vector)


@pytest.mark.parametrize("case", [c for c, tier in START_TIERS.items() if tier])
@pytest.mark.parametrize("cplx", [False, True])
def test_bit_identity_cases_reach_their_tiers(monkeypatch, case, cplx):
    tiers = count_dense_tiers(monkeypatch)
    h, start = _bit_identity_case(np.random.default_rng(5), 48, cplx, False, case)
    dmrg._lowest_eigenpair(_block_of(h, 2), start.reshape(1, 2, 24),
                           np.eye(24).reshape(24, 24, 1))
    assert tiers[START_TIERS[case]] == 1


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
            # no choice at cutoff 0: every state kept
            np.testing.assert_array_equal(rec.kept, np.arange(rec.singular_values.size))
        # a ground-state solve has no earlier point to charge against
        assert rec.charges1 is None and rec.charges2 is None
    assert choices == {False, True}


@pytest.mark.parametrize("n_sites", [2, 3, 6])
def test_sweeps_build_only_the_environments_their_steps_read(monkeypatch, n_sites):
    """Step ``b`` reads the left environment at ``b``, the right one at

    ``b + 1`` and, when charged, the charge context's overlaps at ``b``, for
    ``b <= n - 2``.  So the first right build and each half sweep extend
    ``n - 2`` of them, and a charged sweep pushes each reference's overlaps
    through as many sites as the largest bond it charges; each charged step
    then overlaps its candidates with each reference once."""
    calls = {"left": 0, "right": 0, "cross": 0, "charged": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    charge = dmrg._ChargeContext.charge

    def charging(self, *args):
        calls["charged"] += len(self.references)
        return charge(self, *args)

    monkeypatch.setattr(dmrg, "extend_left_env", counting("left", dmrg.extend_left_env))
    monkeypatch.setattr(dmrg, "extend_right_env", counting("right", dmrg.extend_right_env))
    monkeypatch.setattr(dmrg, "extend_cross_env", counting("cross", dmrg.extend_cross_env))
    monkeypatch.setattr(dmrg._ChargeContext, "charge", charging)
    init = random_mps(np.random.default_rng(3), [2] * n_sites, 2)
    # a policy that reads charges, so every later point sweeps a charge context
    scan = continuation_scan(TrajectoryTree(tfim_family(n_sites), np.linspace(0.8, 1.2, 3),
                                            init, 6, 1e-9),
                             TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=2))
    sweeps = [len(res.sweep_energies) for res in scan.results]
    assert sum(sweeps) > len(sweeps)
    # the first point has no charge context; the later ones charge against
    # one earlier point, then two
    pushes = charged = 0
    for k, res in enumerate(scan.results[1:], start=1):
        for sweep in range(1, sweeps[k] + 1):
            bonds = [rec.bond for rec in res.truncation_log
                     if rec.sweep == sweep and rec.charges1 is not None]
            pushes += min(k, 2) * max(bonds, default=0)
            charged += min(k, 2) * len(bonds)
    assert (pushes > 0) is (n_sites > 3)
    assert calls == {"left": (n_sites - 2) * sum(sweeps),
                     "right": (n_sites - 2) * (sum(sweeps) + len(sweeps)),
                     "cross": pushes + charged, "charged": charged}


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
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    with pytest.raises(ValueError, match="non-empty"):
        TrajectoryTree(family, [], init, 12, 1e-9)
    with pytest.raises(ValueError, match="strictly increasing"):
        TrajectoryTree(family, [1.0, 1.0, 1.2], init, 12, 1e-9)
    with pytest.raises(TypeError, match="init"):
        TrajectoryTree(family, [0.8, 1.0], num_sweeps=12, energy_tol=1e-9)


@pytest.mark.parametrize("grid", [[0.5, np.nan, 1.0], [0.5, 1.0, np.inf]],
                         ids=["nan", "inf"])
def test_a_tree_rejects_a_grid_that_is_not_finite(grid):
    """Both pass the strictly-increasing test, and a scan of either dies in

    the eigensolver."""
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    with pytest.raises(ValueError, match="scan grid must be finite"):
        TrajectoryTree(tfim_family(4), grid, init, 12, 1e-9)


def test_a_tree_rejects_oracle_vectors_of_the_wrong_length():
    """Eight entries for a 4-site chain would fail only after point 0."""
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    oracle = [np.full(8, 8 ** -0.5)] * 3
    with pytest.raises(ValueError, match=r"dense vectors of shape \(16,\)"):
        TrajectoryTree(tfim_family(4), [0.8, 1.0, 1.2], init, 12, 1e-9, oracle=oracle)


def test_a_tree_rejects_oracle_vectors_that_are_not_unit():
    """A fidelity is meaningful only against a unit vector: an oracle scaled
    by 2 would report fidelities near 4.  Roundoff below 1e-10 passes."""
    grid = [0.8, 1.0, 1.2]
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    oracle = tfim_ground_states(4, grid)
    for scale in (2.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="oracle states must be unit vectors"):
            TrajectoryTree(tfim_family(4), grid, init, 12, 1e-9,
                           oracle=[scale * v for v in oracle])
    tree = TrajectoryTree(tfim_family(4), grid, init, 12, 1e-9,
                          oracle=[(1.0 + 1e-12) * v for v in oracle])
    assert all(0.99 < f <= 1.0 + 1e-9 for f in continuation_scan(
        tree, TruncationPolicy(max_kept=4)).fidelity_to_oracle)


@pytest.mark.parametrize("num_sweeps, energy_tol, match", [
    (0, 1e-9, "num_sweeps must be positive"),
    (2.5, 1e-9, "num_sweeps must be an integer"),
    (12, 0.0, "energy_tol must be positive"),
], ids=["no_sweeps", "fractional_sweeps", "zero_tolerance"])
def test_a_tree_rejects_a_sweep_budget_by_the_sweep_config_rules(num_sweeps, energy_tol,
                                                                  match):
    """Each used to fail only when the first scan started."""
    init = random_mps(np.random.default_rng(7), [2] * 4, 4)
    with pytest.raises(ValueError, match=match):
        TrajectoryTree(tfim_family(4), [0.8, 1.0], init, num_sweeps, energy_tol)


def tfim_ground_states(n_sites, grid):
    return [exact_diagonalization(dense_spin_chain(SpinChainSpec(
        kind="tfim", n_sites=n_sites, coupling=1.0, field=float(h))))[1][:, 0]
        for h in grid]


def test_scan_tracks_exact_ground_states_at_full_rank():
    family = tfim_family(4)
    grid = np.array([0.6, 0.8, 1.0, 1.2])
    init = random_mps(np.random.default_rng(8), [2] * 4, 4)
    tree = TrajectoryTree(family, grid, init, 10, 1e-11, oracle=tfim_ground_states(4, grid))
    scan = continuation_scan(tree, TruncationPolicy(max_kept=4))
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
    init = random_mps(np.random.default_rng(9), [2] * 4, 4)
    scan = continuation_scan(TrajectoryTree(family, grid, init, 8, 1e-10), policy)
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
        init = random_mps(np.random.default_rng(10), [2] * 4, 4)
        scan = continuation_scan(TrajectoryTree(family, grid, init, 8, 1e-10),
                                 TruncationPolicy(kind=kind, max_kept=4))
        energies[kind] = [r.energy for r in scan.results]
        kept_sets[kind] = [rec.kept.tolist()
                           for r in scan.results
                           for rec in r.truncation_log]
    base = energies["standard"]
    for kind in POLICY_KINDS:
        assert energies[kind] == base
        assert kept_sets[kind] == kept_sets["standard"]


@pytest.mark.parametrize("max_kept", [4, 8])
def test_a_constant_family_has_no_gauge_penalty_or_charge(max_kept):
    """The same MPO at every grid point: each point's state is the last one's,

    so the coherence and curvature penalties and every bond charge vanish to
    roundoff squared (measured at most 3.1e-26, 2.0e-23 and 3.6e-23)."""
    mpo = tfim_family(6)(1.0)
    init = random_mps(np.random.default_rng(13), [2] * 6, max_kept)
    tree = TrajectoryTree(lambda _: mpo, np.linspace(0.8, 1.2, 5), init, 10, 1e-10)
    scan = continuation_scan(tree, TruncationPolicy(max_kept=max_kept))
    for rec in scan.records:
        assert 0.0 <= rec.coherence_penalty <= 1e-20
        assert abs(rec.curvature_penalty) <= 1e-20
        for q in rec.bond_charges1 + rec.bond_charges2:
            assert np.all(np.abs(q) <= 1e-20)


def test_scan_disables_oracle_when_requested():
    family = tfim_family(4)
    grid = np.array([0.9, 1.1])
    init = random_mps(np.random.default_rng(12), [2] * 4, 4)
    scan = continuation_scan(TrajectoryTree(family, grid, init, 12, 1e-9),
                             TruncationPolicy(max_kept=4))
    assert scan.fidelity_to_oracle is None


def test_scan_oracle_fidelities_match_a_per_point_dense_reference():
    """The harness's oracle (one dense eigensolve per field, built with the

    Kronecker builder) gives the same fidelities, bit for bit, as the
    per-point ``exact_diagonalization(mpo_to_dense(mpo))`` the scan once ran
    itself."""
    family = tfim_family(6)
    grid = np.linspace(0.8, 1.2, 5)
    init = random_mps(np.random.default_rng(13), [2] * 6, 4)
    tree = TrajectoryTree(family, grid, init, 8, 1e-9, oracle=tfim_ground_states(6, grid))
    scan = continuation_scan(tree, TruncationPolicy(max_kept=4))
    reference = []
    for value, result in zip(grid, scan.results):
        _, vecs = exact_diagonalization(mpo_to_dense(family(float(value))), k=1)
        dense = to_dense(result.state)
        dense = dense / np.linalg.norm(dense)
        reference.append(float(np.abs(np.vdot(vecs[:, 0], dense)) ** 2))
    assert scan.fidelity_to_oracle == reference
    with pytest.raises(ValueError, match="oracle holds 4 states for 5 grid points"):
        TrajectoryTree(family, grid, init, 8, 1e-9, oracle=tfim_ground_states(6, grid[:4]))


def test_scan_local_solves_see_no_subnormal_entries(monkeypatch):
    """From a complex start, the imaginary parts of a warm-started scan's

    local eigenvectors shrink geometrically from point to point under the
    real TFIM MPO.  Unflushed, they reach the subnormal range by the ninth
    point, where a dense eigensolve runs more than ten times slower."""
    tiny = np.finfo(float).tiny
    subnormal = []
    lowest = dmrg._lowest_eigenpair

    def spy(heff, left, right):
        parts = np.abs(heff.dense().view(float))
        subnormal.append(int(np.count_nonzero((parts > 0) & (parts < tiny))))
        return lowest(heff, left, right)

    monkeypatch.setattr(dmrg, "_lowest_eigenpair", spy)
    init = complex_random_mps(np.random.default_rng(7), [2] * 4, 4)
    tree = TrajectoryTree(tfim_family(4), np.linspace(0.5, 1.5, 9), init, 12, 1e-9)
    continuation_scan(tree, TruncationPolicy(max_kept=4))
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


def _reference_flush_tiny(vec):
    """The flush with two ``abs`` passes and an unconditional write: the
    reference the one-pass flush matches."""
    floor = dmrg._FLUSH_RELATIVE * float(np.max(np.abs(vec)))
    parts = (vec.real, vec.imag) if np.iscomplexobj(vec) else (vec,)
    for part in parts:
        part[np.abs(part) < floor] = 0.0
    return vec.real.copy() if np.iscomplexobj(vec) and not vec.imag.any() else vec


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 64), cplx=st.booleans(), seed=st.integers(0, 2**32 - 1),
       tiny=st.lists(st.sampled_from([0.0, 1e-90, 1e-101, 1e-120, 1e-300, 5e-324]),
                     min_size=1, max_size=8))
def test_flush_is_bit_identical_to_the_two_pass_flush(size, cplx, seed, tiny):
    """Vectors with real and imaginary parts below ``1e-100`` of their
    largest magnitude, and without any, flush as the two-pass flush does,
    dtype included."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=size) + (1j * rng.normal(size=size) if cplx else 0.0)
    picks = rng.integers(size, size=len(tiny))
    vec.real[picks] = np.array(tiny) * rng.choice([-1.0, 1.0], size=len(tiny))
    if cplx:
        vec.imag[picks[::-1]] = tiny
    out, ref = dmrg._flush_tiny(vec.copy()), _reference_flush_tiny(vec.copy())
    assert out.dtype == ref.dtype and np.array_equal(out, ref)


def test_a_real_mpo_scans_like_its_complex_twin(monkeypatch):
    """The float64 TFIM MPO from a real start, and the same tensors cast to
    complex128 from that start times a global phase, give one 6-site scan
    with a re-ranking policy: the same states kept at every step, energies and
    fidelities within 1e-12.  Every local problem of the real run is real, and
    it ends in float64 tensors; every local problem of the complex run is
    complex (its state may still turn real, once a flushed eigenvector has no
    imaginary part left)."""
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
    policy = TruncationPolicy(kind="coherence_eigenvalue", lambda1=50.0, max_kept=3)
    oracle = tfim_ground_states(6, grid)
    scans, solves = [], []
    init = random_mps(np.random.default_rng(14), [2] * 6, 3)
    phased = MatrixProductState([np.exp(0.3j) * init.tensors[0]] + init.tensors[1:])
    for family, start in ((real, init), (twin, phased)):
        dtypes.clear()
        scans.append(continuation_scan(
            TrajectoryTree(family, grid, start, 8, 1e-9, oracle=oracle), policy))
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
    assert {t.dtype for t in a.results[-1].state.tensors} == {np.dtype(np.float64)}
    assert set(solves[0]) == {np.dtype(np.float64)}
    assert set(solves[1]) == {np.dtype(np.complex128)}


# ---------------------------------------------------------------------------
# scans sharing a trajectory tree
# ---------------------------------------------------------------------------

_TREE_FAMILY = tfim_family(5)
_TREE_GRID = np.linspace(0.6, 1.4, 7)

#: the standard scan first, then policies that leave its trajectory at
#: different points (or never) on the 5-site, chi=3 problem below, when it
#: starts from ``complex_random_mps``
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


def _tree(oracle, draw=random_mps):
    """A fresh tree of the 5-site problem, from ``draw``'s seed-5 start."""
    init = draw(np.random.default_rng(5), [2] * 5, 3)
    return TrajectoryTree(_TREE_FAMILY, _TREE_GRID, init, 8, 1e-9, oracle=oracle)


def _tree_scan(policy, tree, max_bond=3):
    policy = dataclasses.replace(policy, max_kept=min(policy.max_kept, max_bond))
    return continuation_scan(tree, policy)


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
            if isinstance(va, tuple):
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
    tree = _tree(tree_oracle, complex_random_mps)
    shared = [_tree_scan(p, tree) for p in _TREE_POLICIES]
    own = [_tree_scan(p, _tree(tree_oracle, complex_random_mps)) for p in _TREE_POLICIES]
    for a, b in zip(shared, own):
        _assert_same_scan(a, b)
    # the policies cover every case: staying on the standard trajectory,
    # leaving it at point 0, 1 and 2, and following a branch another left on
    assert [_first_divergence(own[0], scan) for scan in own] == \
        [None, None, 1, 2, 2, 0, 0, None]
    assert _first_divergence(own[3], own[4]) is None
    assert len(tree.children) == 3


def test_policies_with_a_choice_solve_steps_a_tree_never_charged(tree_oracle):
    """Cutoff-0 scans charge no step within the budget, so a policy that

    reads charges and has a choice there -- a cutoff above 0, or a smaller
    budget -- cannot replay those steps and solves the point itself; each
    still equals its own scan.  The uhlmann scan with a cutoff solves every
    point after the first again.  A standard policy with a choice weighs
    singular values alone: the cutoff-1e-12 scan keeps the standard sets and
    replays every point, and the coherence_eigenvalue_2 one with a cutoff
    replays at point 0 the branch the budget-2 scan left on."""
    policies = [TruncationPolicy(), TruncationPolicy(kind="uhlmann", gamma1=5.0),
                TruncationPolicy(cutoff=1e-12),
                TruncationPolicy(kind="uhlmann", gamma1=5.0, cutoff=1e-9),
                TruncationPolicy(max_kept=2),
                TruncationPolicy(kind="coherence_eigenvalue_2", lambda1=0.5,
                                 lambda2=0.5, cutoff=0.05)]
    tree = _tree(tree_oracle)
    branches, nodes = [], []
    for policy in policies:
        _assert_same_scan(_tree_scan(policy, tree), _tree_scan(policy, _tree(tree_oracle)))
        branches.append(len(tree.children))
        nodes.append(len(tree_nodes(tree)))
    assert branches == [1, 1, 1, 1, 2, 2]
    assert nodes == [7, 13, 13, 19, 26, 32]
    own = [_tree_scan(p, _tree(tree_oracle)) for p in policies[:4]]
    assert [_first_divergence(own[0], scan) for scan in own] == [None] * 4
    assert any(rec.charges1 is None for res in own[1].results[1:]
               for rec in res.truncation_log)
    assert all(rec.charges1 is not None for res in own[3].results[1:]
               for rec in res.truncation_log)


def test_a_coefficient_scan_of_an_uncharged_tree_solves_its_own_points(tree_oracle):
    """A tree that only a standard scan solved holds no charges, so a

    coefficient policy cannot replay its points after the first, which its
    scan solves under the standard kind too.  It solves them, charging its
    own steps, and equals its scan through a fresh tree; a second
    coefficient scan then replays the nodes it solved."""
    tree = _tree(tree_oracle)
    standard = _tree_scan(TruncationPolicy(), tree)
    policy = TruncationPolicy(kind="uhlmann", gamma1=5.0)  # keeps the standard sets
    scan = _tree_scan(policy, tree)
    assert scan._nodes[0] is standard._nodes[0]
    assert not any(a is b for a, b in zip(scan._nodes[1:], standard._nodes[1:]))
    assert _first_divergence(standard, scan) is None
    _assert_same_scan(scan, _tree_scan(policy, _tree(tree_oracle)))
    again = _tree_scan(TruncationPolicy(kind="categorified"), tree)
    assert all(a is b for a, b in zip(again._nodes, scan._nodes, strict=True))
    assert len(tree_nodes(tree)) == 2 * _TREE_GRID.size - 1
    over_budget = [charges for node in standard._nodes[1:]
                   for n, (_, _, charges, _) in node.steps.items() if n > 3]
    assert over_budget and all(charges is None for charges in over_budget)


def test_a_second_standard_scan_replays_the_first(tree_oracle):
    """The standard weights read singular values alone, so a standard scan

    replays the uncharged points of an earlier one: two budget-3 scans leave
    the 7 nodes of one, not 13."""
    tree = _tree(tree_oracle)
    first, second = (_tree_scan(TruncationPolicy(max_kept=3), tree) for _ in range(2))
    assert len(tree_nodes(tree)) == _TREE_GRID.size
    assert all(charges is None for node in tree_nodes(tree)
               for _, _, charges, _ in node.steps.values())
    assert all(a is b for a, b in zip(first._nodes, second._nodes, strict=True))
    _assert_same_scan(first, second)


def test_a_scan_adopting_a_charged_point_drops_the_charges_it_never_measures(tree_oracle):
    """Cutoff-0 scans replay the points an uhlmann scan with cutoff 1e-12

    solved, and hold their records as their own solves would: an uhlmann
    scan no charges within the budget or at point 0, which it solves under
    the standard kind, and a standard scan none at all."""
    tree = _tree(tree_oracle)
    first = _tree_scan(TruncationPolicy(kind="uhlmann", gamma1=5.0, cutoff=1e-12), tree)
    adopting = [TruncationPolicy(kind="uhlmann", gamma1=5.0), TruncationPolicy()]
    adopted = [_tree_scan(policy, tree) for policy in adopting]
    assert len(tree_nodes(tree)) == _TREE_GRID.size
    for policy, scan in zip(adopting, adopted):
        _assert_same_scan(scan, _tree_scan(policy, _tree(tree_oracle)))
    for k, (ra, rb, rc) in enumerate(zip(*(s.results for s in (first, *adopted)),
                                          strict=True)):
        for ta, tb, tc in zip(ra.truncation_log, rb.truncation_log, rc.truncation_log,
                              strict=True):
            assert (ta.charges1 is None) == (k == 0)
            assert (tb.charges1 is None) == (k == 0 or tb.singular_values.size <= 3)
            assert tc.charges1 is None
            assert tb.kept is ta.kept and tc.kept is ta.kept


def test_a_scan_charges_only_steps_with_more_states_than_the_budget(monkeypatch,
                                                                     tree_oracle):
    sizes = []
    charge = dmrg._ChargeContext.charge

    def spy(self, tensors, sweep, bond, u3, sigma):
        sizes.append(sigma.size)
        return charge(self, tensors, sweep, bond, u3, sigma)

    monkeypatch.setattr(dmrg._ChargeContext, "charge", spy)
    scan = _tree_scan(TruncationPolicy(kind="uhlmann", gamma1=5.0), _tree(tree_oracle))
    # point 0 has no earlier point to charge against
    over_budget = [rec.singular_values.size for res in scan.results[1:]
                   for rec in res.truncation_log if rec.singular_values.size > 3]
    assert over_budget and sizes == over_budget
    for k, res in enumerate(scan.results):
        for rec in res.truncation_log:
            assert (rec.charges1 is None) == (k == 0 or rec.singular_values.size <= 3)


def test_a_charged_step_reads_the_overlaps_of_the_sites_left_of_its_bond(monkeypatch,
                                                                         tree_oracle):
    """The charge context builds its overlap environments only as a charged

    step reads them, and reuses them for the rest of the sweep.  At every
    charged step, in both halves of every sweep, the environment it
    overlaps the candidates through equals, bit for bit, one built afresh
    from the sweep's current tensors left of the bond."""
    charge = dmrg._ChargeContext.charge
    cross = dmrg.extend_cross_env
    seen = []

    def spy(self, tensors, sweep, bond, u3, sigma):
        used = []

        def at_the_step(env, bra, ket):
            if bra is u3:
                used.append(env)
            return cross(env, bra, ket)

        monkeypatch.setattr(dmrg, "extend_cross_env", at_the_step)
        try:
            charges = charge(self, tensors, sweep, bond, u3, sigma)
        finally:
            monkeypatch.setattr(dmrg, "extend_cross_env", cross)
        assert len(used) == len(self.references)
        for env, ref in zip(used, self.references):
            fresh = np.ones((1, 1))
            for s in range(bond):
                fresh = extend_cross_env(fresh, tensors[s], ref.phi.tensors[s])
            assert env.dtype == fresh.dtype and env.tobytes() == fresh.tobytes()
        seen.append((self, sweep, bond))
        return charges

    monkeypatch.setattr(dmrg._ChargeContext, "charge", spy)
    _tree_scan(TruncationPolicy(kind="uhlmann", gamma1=5.0), _tree(tree_oracle))
    # some bond is charged in both halves of a sweep, and some point
    # charges in several sweeps
    assert len({(id(c), sweep, bond) for c, sweep, bond in seen}) < len(seen)
    assert any(len({sweep for c, sweep, _ in seen if c is context}) > 1
               for context, _, _ in seen)


def test_scans_of_different_budgets_share_a_tree(tree_oracle):
    """The budget reaches a step only through its kept set, so scans that

    differ only in ``max_kept`` share one tree and still equal their own
    scans bit for bit.  On five sites no bond exceeds four states, so the
    budgets 4 and 64 keep the same states and share every node."""
    budgets = [2, 3, 4, 64]
    tree = _tree(tree_oracle)
    shared = [_tree_scan(TruncationPolicy(max_kept=k), tree, max_bond=64) for k in budgets]
    own = [_tree_scan(TruncationPolicy(max_kept=k), _tree(tree_oracle), max_bond=64)
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
        _tree_scan(policy, _tree(tree_oracle, complex_random_mps))
    independent = len(solves)
    solves.clear()
    tree = _tree(tree_oracle, complex_random_mps)
    # the policies that read charges first, so the standard ones adopt their points
    policies = sorted(_TREE_POLICIES, key=lambda p: p.kind == "standard")
    first = [_tree_scan(p, tree) for p in policies]
    assert 0 < len(solves) < independent
    # one node per point solved: the standard trajectory, the branch left at
    # point 1, the one both coherence_eigenvalue_2 policies share from point
    # 2, and the two that leave at point 0
    assert len(tree_nodes(tree)) == 7 + 6 + 5 + 7 + 7
    solves.clear()
    node_work.clear()
    again = [_tree_scan(p, tree) for p in policies]
    assert solves == []
    # charges and gauge records live on the nodes: a replay only selects
    assert node_work == []
    for a, b in zip(first, again):
        _assert_same_scan(a, b)


def _replays_step_by_step(node, policy):
    """The replay rule one recorded step at a time: the reference the
    stacked replay is held to.  Only the standard kind weighs a step whose
    charges were never measured, and reads none."""
    for rec in node.result.truncation_log:
        n = rec.singular_values.size
        measured = rec.charges1 is not None
        if not policy.has_choice(n):
            if rec.kept.size != n:
                return False
        elif not measured and policy.reads_charges:
            return False
        elif not np.array_equal(select_states(compute_weights(
                rec.singular_values, *((rec.charges1, rec.charges2) if measured
                                       else (np.zeros(n), np.zeros(n))), policy),
                policy)[0], rec.kept):
            return False
    return True


def test_a_stacked_replay_decides_as_the_steps_one_by_one(tree_oracle):
    """Every node of a tree that scans of every kind, budget and cutoff
    grew, replayed under each of those policies: one stacked selection per
    candidate count says what selecting each recorded step says."""
    policies = [dataclasses.replace(p, max_kept=min(p.max_kept, 3)) for p in _TREE_POLICIES]
    policies += [TruncationPolicy(cutoff=1e-12), TruncationPolicy(max_kept=2),
                 TruncationPolicy(kind="uhlmann", gamma1=5.0, cutoff=1e-9)]
    tree = _tree(tree_oracle, complex_random_mps)
    for policy in policies:
        continuation_scan(tree, policy)
    decisions = [(dmrg._replays(node, policy), _replays_step_by_step(node, policy))
                 for node in tree_nodes(tree) for policy in policies]
    assert all(stacked == one_by_one for stacked, one_by_one in decisions)
    assert {stacked for stacked, _ in decisions} == {True, False}


def test_a_prefix_scan_is_the_full_scan_cut_short(monkeypatch, tree_oracle):
    """A scan of the first ``points`` grid points solves only those and
    equals the full scan's first ``points`` entries; a full scan after it
    replays them and solves the rest."""
    solved = []
    family = _TREE_FAMILY
    tree = _tree(tree_oracle)
    monkeypatch.setattr(tree, "family", lambda h: (solved.append(h), family(h))[1])
    policy = TruncationPolicy(kind="coherence_eigenvalue", lambda1=50.0, max_kept=3)
    prefix = continuation_scan(tree, policy, points=4)
    assert solved == list(_TREE_GRID[:4]) and prefix.grid.tolist() == solved
    solved.clear()
    full = continuation_scan(tree, policy)
    assert solved == list(_TREE_GRID[4:])
    own = continuation_scan(_tree(tree_oracle), policy)
    _assert_same_scan(full, own)
    cut = dataclasses.replace(own, results=own.results[:4], _nodes=own._nodes[:4],
                              fidelity_to_oracle=own.fidelity_to_oracle[:4])
    _assert_same_scan(prefix, cut)
    for points in (0, _TREE_GRID.size + 1):
        with pytest.raises(ValueError, match="points must lie in"):
            continuation_scan(tree, policy, points=points)
    # a bool would scan one point, and a float die in numpy's slicing
    for points in (True, 2.0):
        with pytest.raises(ValueError, match="points must be an integer"):
            continuation_scan(tree, policy, points=points)


def test_gauge_records_are_built_once_when_first_read(monkeypatch, tree_oracle):
    built = []
    record = dmrg._point_gauge_record
    monkeypatch.setattr(dmrg, "_point_gauge_record",
                        lambda *args: (built.append(1), record(*args))[1])
    tree = _tree(tree_oracle)
    # the standard scan runs last and adopts the uhlmann scan's points
    scans = [_tree_scan(p, tree) for p in (*_TREE_POLICIES[1:3], _TREE_POLICIES[0])]
    assert built == []
    first = scans[0].records
    assert len(built) == _TREE_GRID.size
    # the standard scan follows the first one's trajectory and shares its records
    assert all(x is y for x, y in zip(scans[2].records, first, strict=True))
    assert len(built) == _TREE_GRID.size
    scans[1].records
    assert len(built) == len({id(node) for scan in scans for node in scan._nodes})


def _scan_arrays(scan):
    """Every array a scan's results and records hold, in a fixed order."""
    out = []
    for res, rec in zip(scan.results, scan.records, strict=True):
        out += res.state.tensors
        for t in res.truncation_log:
            out += [t.singular_values, t.charges1, t.charges2, t.kept]
        out += rec.bond_charges1 + rec.bond_charges2
    return out


def test_scans_through_a_tree_share_no_mutable_container(tree_oracle):
    tree = _tree(tree_oracle)
    # the second policy follows the first one's trajectory, re-weighing by charges
    first, second = [_tree_scan(p, tree) for p in (_TREE_POLICIES[1], _TREE_POLICIES[-1])]
    shared = [(x, y) for x, y in zip(_scan_arrays(first), _scan_arrays(second), strict=True)
              if np.shares_memory(x, y)]
    assert shared
    for x, _ in shared:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0

    def lists(scan):
        return [lst for res in scan.results
                for lst in (res.state.tensors, res.truncation_log, res.sweep_energies)]

    def contents(scan):
        return [[id(x) for x in lst] for lst in lists(scan)]

    # the adopting scan holds the solved point's frozen records themselves
    for ra, rb in zip(first.results, second.results, strict=True):
        assert all(x is y
                   for x, y in zip(ra.truncation_log, rb.truncation_log, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.results[-1].truncation_log[0].kept = np.arange(1)
    # and each node's frozen gauge record itself
    node_records, children = [], tree.children
    while children:
        node_records.append(children[0].record)
        children = children[0].children
    assert all(x is y for x, y in zip(second.records, node_records, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.records[-1].coherence_penalty = 0.0

    before = contents(second)
    for lst in lists(first) + [first.results, first.records]:
        lst.append(None)
    assert contents(second) == before
    # nor did the appends reach the tree
    _assert_same_scan(_tree_scan(_TREE_POLICIES[3], tree),
                      _tree_scan(_TREE_POLICIES[3], _tree(tree_oracle)))


def test_a_tree_keeps_its_own_copy_of_the_problem(tree_oracle):
    """Overwriting the caller's grid, start tensors and oracle vectors after

    building a tree reaches none of its scans."""
    init = random_mps(np.random.default_rng(5), [2] * 5, 3)
    grid = _TREE_GRID.copy()
    oracle = [v.copy() for v in tree_oracle]
    tree = TrajectoryTree(_TREE_FAMILY, grid, init, 8, 1e-9, oracle=oracle)
    rng = np.random.default_rng(6)
    for a in (grid, *init.tensors, *oracle):
        a[...] = rng.standard_normal(a.shape)
    untouched = _tree(tree_oracle)
    for policy in _TREE_POLICIES[:3]:
        _assert_same_scan(_tree_scan(policy, tree), _tree_scan(policy, untouched))


def _one_bond_charges(p, w1, w2, spacings):
    """:func:`dmrg._bond_charges` of one bond, as a stack of one row."""
    q1, q2, aligned = _bond_charges(p[None], [[w1]] + ([] if w2 is None else [[w2]]),
                                    spacings)
    return q1[0], q2[0], aligned[0]


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
    q1, q2, aligned = _one_bond_charges(p, w1, w2, (h1, h2))
    r1, r2, r_aligned = _one_bond_charges(
        p, w1 * phases(), None if w2 is None else w2 * phases(), (h1, h2))
    for ref, rotated in ((q1, r1), (q2, r2)):
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(rotated, ref, rtol=1e-9, atol=1e-12 * scale)
    np.testing.assert_allclose(r_aligned, aligned, atol=1e-12)
    if not second:
        np.testing.assert_array_equal(q2, np.zeros(rank))


def _per_column_aligned(w: np.ndarray) -> np.ndarray:
    """The column alignment the charges used before the phase rule had one
    home: each column rotated, one at a time, by the unit phase making its
    diagonal entry real and non-negative."""
    out = w.copy()
    for b in range(min(w.shape)):
        mag = abs(out[b, b])
        if mag > 0:
            out[:, b] *= np.conj(out[b, b]) / mag
    return out


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 5), extra_cols=st.integers(-2, 1),
       seed=st.integers(0, 2**32 - 1), real=st.booleans(), second=st.booleans())
def test_bond_charges_align_like_the_per_column_loop(rank, extra_cols, seed, real,
                                                      second):
    """On padded, non-unitary overlaps with zero diagonal entries, the aligned
    overlap and both charges are the per-column loop's: bit for bit on real
    overlaps, and to roundoff on complex ones, whose diagonal magnitudes
    ``np.abs`` rounds on an array as the spectral tracks always have, where
    the loop's scalar ``abs`` rounds like ``hypot``."""
    rng = np.random.default_rng(seed)
    cols = max(1, rank + extra_cols)
    p = rng.dirichlet(np.ones(rank))
    h1, h2 = rng.uniform(0.05, 1.0, size=2)

    def overlaps():
        w = rng.normal(size=(rank, cols))
        if not real:
            w = w + 1j * rng.normal(size=(rank, cols))
        w[rng.integers(rank), rng.integers(cols)] = 0.0
        return w

    def reference(w):
        padded = np.zeros((rank, rank), dtype=w.dtype)
        padded[:, :min(rank, cols)] = w[:, :rank]
        return _per_column_aligned(padded)

    w1 = overlaps()
    w2 = overlaps() if second else None
    q1, q2, aligned = _one_bond_charges(p, w1, w2, (h1, h2))
    a1 = reference(w1)
    r1 = charge_first_order(p, (np.eye(rank) - a1) / h1)
    r2 = np.zeros(rank)
    if second:
        c_oldest, c_middle, c_newest = second_difference_coeffs(h2, h1)
        r2 = charge_second_order(c_newest * np.eye(rank) + c_middle * a1
                                 + c_oldest * reference(w2))
    assert aligned.dtype == w1.dtype
    if real:
        for got, want in ((aligned, a1), (q1, r1), (q2, r2)):
            assert np.array_equal(got, want)
        return
    np.testing.assert_allclose(aligned, a1, rtol=1e-15, atol=1e-15 * linalg.max_abs(a1))
    for got, want in ((q1, r1), (q2, r2)):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), rank=st.integers(1, 8), rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), real=st.booleans(), second=st.booleans(),
       zeros=st.integers(0, 2), h1=st.floats(0.01, 2.0), h2=st.floats(0.01, 2.0))
def test_stacked_bond_charges_equal_one_row_calls_bit_for_bit(data, rank, rows, seed, real,
                                                              second, zeros, h1, h2):
    """Each row of a stacked call is what a one-row call gives it, to the
    last bit: overlaps narrower than, as wide as and wider than the rank,
    real and complex, with and without a second point, zero probabilities,
    and unequal spacings."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(rank), size=rows)
    if zeros < rank:
        p[:, rank - zeros:] = 0.0

    def overlaps():
        widths = data.draw(st.lists(st.integers(max(1, rank - 2), rank + 2),
                                    min_size=rows, max_size=rows))
        out = [rng.normal(size=(rank, cols)) for cols in widths]
        return out if real else [w + 1j * rng.normal(size=w.shape) for w in out]

    w1 = overlaps()
    w2 = overlaps() if second else None
    q1, q2, aligned = _bond_charges(p, [w1] + ([] if w2 is None else [w2]), (h1, h2))
    assert q1.shape == q2.shape == (rows, rank) and aligned.shape == (rows, rank, rank)
    for k in range(rows):
        one = _one_bond_charges(p[k], w1[k], None if w2 is None else w2[k], (h1, h2))
        for got, want in zip((q1[k], q2[k], aligned[k]), one):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("draw", [random_mps, complex_random_mps], ids=["real", "complex"])
def test_a_standard_scan_measures_no_charges(monkeypatch, tree_oracle, draw):
    """The standard weights read no charge, so a standard scan builds no

    charge context and its records hold none.  An uhlmann scan at gamma1 =
    1e-300 damps by ``exp(-1e-300 Q) = 1``, so it keeps the same states, but
    it charges each step with a choice as it weighs it, one row per
    ``_bond_charges`` call.  A standard scan of its tree adopts every point,
    dropping the charges, and equals the standard scan through a fresh tree
    bit for bit."""
    contexts, rows = [], []
    context = dmrg._ChargeContext.__init__
    bond_charges = dmrg._bond_charges
    monkeypatch.setattr(dmrg._ChargeContext, "__init__",
                        lambda self, *args: (contexts.append(1), context(self, *args))[1])
    monkeypatch.setattr(dmrg, "_bond_charges",
                        lambda p, *args: (rows.append(p.shape[0]), bond_charges(p, *args))[1])
    standard = _tree_scan(TruncationPolicy(), _tree(tree_oracle, draw))
    assert contexts == rows == []
    tree = _tree(tree_oracle, draw)
    uhlmann = _tree_scan(TruncationPolicy(kind="uhlmann", gamma1=1e-300), tree)
    adopted = _tree_scan(TruncationPolicy(), tree)
    monkeypatch.undo()  # the gauge records read below charge their bonds too
    assert len(contexts) == len(uhlmann.results) - 1
    charged = [rec for res in uhlmann.results[1:] for rec in res.truncation_log
               if rec.charges1 is not None]
    assert any(np.any(rec.charges1) for rec in charged)
    assert rows == [1] * len(charged)
    assert all(rec.charges1 is None for scan in (standard, adopted)
               for res in scan.results for rec in res.truncation_log)
    assert len(tree_nodes(tree)) == _TREE_GRID.size
    _assert_same_scan(standard, adopted)
    assert _first_divergence(standard, uhlmann) is None


# ---------------------------------------------------------------------------
# every engine contraction goes through the planned kernel
# ---------------------------------------------------------------------------

def test_engine_contractions_never_reach_np_tensordot(monkeypatch):
    """With ``np.tensordot`` raising, a charged scan, a Lanczos ground state
    and the state operations still run: they all contract through
    ``linalg.contract``."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot called by engine code")

    lanczos_solves = []

    def counted(*args):
        lanczos_solves.append(1)
        return linalg.lanczos_lowest(*args)

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(dmrg, "lanczos_lowest", counted)

    policy = TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=2)
    init = random_mps(np.random.default_rng(2), [2] * 4, 2)
    scan = continuation_scan(TrajectoryTree(tfim_family(4), np.linspace(0.6, 1.4, 5), init,
                                            4, 1e-9), policy)
    assert len(scan.results) == 5
    assert any(rec.charges1 is not None and np.any(rec.charges1)
               for result in scan.results[1:] for rec in result.truncation_log)

    mpo = build_spin_chain_mpo(SpinChainSpec(kind="tfim", n_sites=8, coupling=1.0,
                                             field=1.0))
    init = random_mps(np.random.default_rng(4), [2] * 8, 8)
    result = ground_state(mpo, init, SweepConfig(num_sweeps=2,
                                                 policy=TruncationPolicy(max_kept=8)))
    assert lanczos_solves  # the central blocks have 256 > _FULL_EIGH_DIM dimensions
    assert np.isfinite(result.energy)

    psi = canonicalize(result.state, 3)
    assert abs(expectation(psi, mpo).real - result.energy) <= 1e-8
    phi, data = bond_schmidt_data(psi)
    assert len(data) == 7 and phi.n_sites == 8
