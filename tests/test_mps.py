import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmrg.mps import (
    MatrixProductOperator,
    MatrixProductState,
    bond_schmidt_data,
    canonicalize,
    expectation,
    inner_product,
    left_cross_envs,
    mpo_to_dense,
    random_mps,
    split_theta,
    to_dense,
)
from udmrg.linalg import dag, hermitian_part, unit_sum
from udmrg.models import PAULI_X, PAULI_Z, build_spin_chain_mpo, SpinChainSpec

from helpers import (
    bond_dims,
    complex_random_mps,
    copy_state,
    entanglement_spectrum,
    from_dense_state,
    from_product_state,
    isometry_residuals,
    single_site_mpo,
)

UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def random_mpo(rng, n_sites, phys_dim=2, bond=3):
    """Random dense-bond MPO for cross-checking contractions."""
    tensors = []
    for i in range(n_sites):
        left = 1 if i == 0 else bond
        right = 1 if i == n_sites - 1 else bond
        w = rng.normal(size=(left, phys_dim, phys_dim, right))
        w = w + 1j * rng.normal(size=w.shape)
        tensors.append(w)
    return MatrixProductOperator(tensors)


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_mps_constructor_validation():
    good = [np.zeros((1, 2, 2)), np.zeros((2, 2, 1))]
    MatrixProductState([t.astype(complex) for t in good])
    with pytest.raises(ValueError, match="rank 3"):
        MatrixProductState([np.zeros((1, 2))])
    with pytest.raises(ValueError, match="boundary"):
        MatrixProductState([np.zeros((2, 2, 2)), np.zeros((2, 2, 1))])
    with pytest.raises(ValueError, match="bond mismatch"):
        MatrixProductState([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])
    with pytest.raises(ValueError, match="center"):
        MatrixProductState([np.zeros((1, 2, 1))], center=5)
    with pytest.raises(ValueError, match="at least one"):
        MatrixProductState([])


def test_mpo_constructor_validation():
    with pytest.raises(ValueError, match="rank 4"):
        MatrixProductOperator([np.zeros((1, 2, 2))])
    with pytest.raises(ValueError, match="boundary"):
        MatrixProductOperator([np.zeros((2, 2, 2, 2)),
                               np.zeros((2, 2, 2, 1))])
    with pytest.raises(ValueError, match="bond mismatch"):
        MatrixProductOperator([np.zeros((1, 2, 2, 3)),
                               np.zeros((2, 2, 2, 1))])


# ---------------------------------------------------------------------------
# product states and dense conversion
# ---------------------------------------------------------------------------

def test_product_state_round_trip():
    psi = from_product_state([UP, DOWN, PLUS])
    dense = to_dense(psi)
    expected = np.kron(np.kron(UP, DOWN), PLUS)
    np.testing.assert_allclose(dense, expected, atol=1e-14)


def test_product_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="expected 1"):
        from_product_state([np.array([1.0, 1.0])])


def test_dense_index_order_is_big_endian():
    """Site 0 is the most significant digit of the dense index."""
    psi = from_product_state([UP, DOWN])
    dense = to_dense(psi)
    assert dense[0b01] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(dense) > 1e-14) == 1


def test_from_dense_state_round_trip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        vec /= np.linalg.norm(vec)
        psi = from_dense_state(vec, [2] * n)
        np.testing.assert_allclose(to_dense(psi), vec, atol=1e-12)
        assert psi.center == n - 1


def test_from_dense_state_shape_check():
    with pytest.raises(ValueError, match="does not match"):
        from_dense_state(np.ones(6) / np.sqrt(6.0), [2, 2])


# ---------------------------------------------------------------------------
# random states and canonical forms
# ---------------------------------------------------------------------------

def test_random_mps_is_normalized_and_capped():
    rng = np.random.default_rng(1)
    psi = random_mps(rng, [2] * 6, bond_dim=4)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    # exact-rank envelope near the edges, the cap in the middle
    assert bond_dims(psi) == (2, 4, 4, 4, 2)
    assert psi.physical_dims == (2,) * 6
    # a real draw, so a real Hamiltonian's sweeps stay real
    assert {t.dtype for t in psi.tensors} == {np.dtype(np.float64)}


@pytest.mark.parametrize("bond_dim", [0, 2.5, True])
def test_random_mps_rejects_a_bond_dimension_that_is_no_positive_integer(bond_dim):
    with pytest.raises(ValueError, match="bond_dim must be an integer of at least 1"):
        random_mps(np.random.default_rng(1), [2] * 4, bond_dim)


@pytest.mark.parametrize("dim", [0, 2.5, True])
def test_random_mps_rejects_a_physical_dimension_that_is_no_positive_integer(dim):
    with pytest.raises(ValueError, match="site 1 physical dimension must be an integer "
                                         "of at least 1"):
        random_mps(np.random.default_rng(1), [2, dim, 2], 2)


def test_random_mps_is_seed_reproducible():
    a = random_mps(np.random.default_rng(7), [2] * 5, 8)
    b = random_mps(np.random.default_rng(7), [2] * 5, 8)
    for ta, tb in zip(a.tensors, b.tensors):
        np.testing.assert_array_equal(ta, tb)


def test_canonicalize_moves_center_and_preserves_state():
    rng = np.random.default_rng(2)
    psi = random_mps(rng, [2] * 5, 6)
    dense = to_dense(psi)
    for center in (0, 2, 4):
        moved = canonicalize(psi, center)
        assert moved.center == center
        assert all(r < 1e-12 for r in isometry_residuals(moved))
        np.testing.assert_allclose(to_dense(moved), dense, atol=1e-12)


# ---------------------------------------------------------------------------
# overlaps and expectations
# ---------------------------------------------------------------------------

def test_inner_product_matches_dense_and_conjugates():
    rng = np.random.default_rng(3)
    a = complex_random_mps(rng, [2] * 4, 5)
    b = complex_random_mps(rng, [2] * 4, 5)
    dense = np.vdot(to_dense(a), to_dense(b))
    assert inner_product(a, b) == pytest.approx(dense, abs=1e-12)
    assert inner_product(b, a) == pytest.approx(np.conj(dense), abs=1e-12)


def test_expectation_of_single_site_paulis():
    up_down = from_product_state([UP, DOWN])
    z0 = single_site_mpo(PAULI_Z, 0, 2)
    z1 = single_site_mpo(PAULI_Z, 1, 2)
    assert expectation(up_down, z0) == pytest.approx(1.0, abs=1e-12)
    assert expectation(up_down, z1) == pytest.approx(-1.0, abs=1e-12)
    plus = from_product_state([PLUS, UP])
    x0 = single_site_mpo(PAULI_X, 0, 2)
    assert expectation(plus, x0) == pytest.approx(1.0, abs=1e-12)


def test_expectation_normalizes_by_the_state_norm():
    psi = from_product_state([UP, UP])
    scaled = copy_state(psi)
    scaled.tensors[0] = 3.0 * scaled.tensors[0]
    z0 = single_site_mpo(PAULI_Z, 0, 2)
    assert expectation(scaled, z0) == pytest.approx(1.0, abs=1e-12)


def test_expectation_rejects_zero_state():
    psi = from_product_state([UP, UP])
    psi.tensors[0] = np.zeros_like(psi.tensors[0])
    z0 = single_site_mpo(PAULI_Z, 0, 2)
    with pytest.raises(ValueError, match="zero state"):
        expectation(psi, z0)


# ---------------------------------------------------------------------------
# splitting and truncation
# ---------------------------------------------------------------------------

def test_split_theta_full_rank_is_exact():
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(2, 2, 2, 3)) + 1j * rng.normal(size=(2, 2, 2, 3))

    def keep_all(sigma, u):
        return np.arange(len(sigma))

    left, right = split_theta(theta, keep_all, "left")
    rebuilt = np.einsum("ipj,jqk->ipqk", left, right)
    np.testing.assert_allclose(rebuilt, theta / np.linalg.norm(theta),
                               atol=1e-12)


def test_split_theta_can_reorder_states():
    """A selector may emphasize the smaller singular value; either kept

    state comes back with unit weight."""
    # rank-2 theta with known schmidt coefficients 0.8 and 0.6
    theta = np.zeros((1, 2, 2, 1), dtype=complex)
    theta[0, 0, 0, 0] = 0.8
    theta[0, 1, 1, 0] = 0.6

    for kept, spins in (([0], (0, 0)), ([1], (1, 1))):
        left, right = split_theta(theta, lambda sigma, u: np.array(kept), "right")
        expected = np.zeros_like(theta)
        expected[0, spins[0], spins[1], 0] = 1.0
        np.testing.assert_allclose(np.tensordot(left, right, axes=(2, 0)), expected,
                                   atol=1e-14)


def test_split_theta_rejects_zero_block():
    theta = np.zeros((1, 2, 2, 1), dtype=complex)

    def keep_all(sigma, u):
        return np.arange(len(sigma))

    with pytest.raises(ValueError, match="zero"):
        split_theta(theta, keep_all, "left")


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 4)] * 4), seed=st.integers(0, 2**32 - 1),
       center_after=st.sampled_from(["left", "right"]))
def test_split_theta_keeping_everything_rebuilds_theta(shape, seed, center_after):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def keep_all(sigma, u):
        return np.arange(len(sigma))

    left, right = split_theta(theta, keep_all, center_after)
    # the split renormalizes what it keeps
    rebuilt = np.tensordot(left, right, axes=(2, 0)) * np.linalg.norm(theta)
    assert np.max(np.abs(rebuilt - theta)) <= 1e-12


def _reference_split_theta(theta, select, center_after="right"):
    """The split with a ``max_abs`` pre-pass, copies of the kept factors
    whatever was kept, and ``np.linalg.norm``: the reference it matches."""
    l, d1, d2, r = theta.shape
    m = theta.reshape(l * d1, d2 * r)
    if np.max(np.abs(m)) == 0.0:
        raise ValueError("zero block at this bond; state has no weight here")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    kept = np.asarray(select(s, u), dtype=int)
    renorm = s[kept] / float(np.linalg.norm(s[kept]))
    u_k, vh_k = u[:, kept], vh[kept, :]
    if center_after == "right":
        return (u_k.reshape(l, d1, kept.size),
                (renorm[:, None] * vh_k).reshape(kept.size, d2, r))
    return ((u_k * renorm[None, :]).reshape(l, d1, kept.size),
            vh_k.reshape(kept.size, d2, r))


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4), cplx=st.booleans(),
       keep_all=st.booleans(), center_after=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1))
def test_split_theta_is_bit_identical_to_the_copying_split(shape, cplx, keep_all,
                                                           center_after, seed):
    """Keeping every state or a subset, in both directions, the factors
    equal those of the split that copied them, dtype included."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0)

    def select(sigma, u):
        if keep_all:
            return np.arange(sigma.size)
        kept = np.flatnonzero(rng.random(sigma.size) < 0.5)
        return kept if kept.size else [0]

    state = rng.bit_generator.state
    left, right = split_theta(theta, select, center_after)
    rng.bit_generator.state = state  # the reference split keeps the same subset
    ref_left, ref_right = _reference_split_theta(theta, select, center_after)
    for out, ref in ((left, ref_left), (right, ref_right)):
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert np.array_equal(out, ref)


@pytest.mark.parametrize("value", [2.2e-308, 1e-160])
@pytest.mark.parametrize("center_after", ["left", "right"])
def test_split_theta_renormalizes_a_block_whose_squares_underflow(value, center_after):
    """A one-entry block at the smallest normal float, or one whose square is
    subnormal, splits into unit-weight factors, not ``[inf, nan]`` or a kept
    weight of 1.0000056."""
    theta = np.zeros((1, 2, 2, 1))
    theta[0, 0, 0, 0] = value
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        left, right = split_theta(theta, lambda sigma, u: np.array([0]), center_after)
    expected = np.zeros_like(theta)
    expected[0, 0, 0, 0] = 1.0
    assert np.array_equal(np.tensordot(left, right, axes=(2, 0)), expected)


# ---------------------------------------------------------------------------
# schmidt data
# ---------------------------------------------------------------------------

def test_entanglement_spectrum_bell_and_product():
    bell = from_dense_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
                            [2, 2])
    np.testing.assert_allclose(entanglement_spectrum(bell, 0), [0.5, 0.5],
                               atol=1e-12)
    product = from_product_state([UP, DOWN])
    np.testing.assert_allclose(entanglement_spectrum(product, 0), [1.0],
                               atol=1e-12)


def test_bond_schmidt_data_probabilities_and_gauges():
    rng = np.random.default_rng(7)
    psi = random_mps(rng, [2] * 5, 6)
    phi, data = bond_schmidt_data(psi)
    assert len(data) == 4
    for b, (p, g) in enumerate(data):
        np.testing.assert_allclose(p, entanglement_spectrum(psi, b),
                                   atol=1e-10)
        assert p[0] >= p[-1]
        np.testing.assert_allclose(dag(g) @ g, np.eye(len(g)), atol=1e-12)
    np.testing.assert_allclose(np.abs(inner_product(phi, psi)), 1.0,
                               atol=1e-12)


def _schmidt_data_bond_by_bond(psi):
    """:func:`bond_schmidt_data` with one ``eigh`` per bond: the reference
    the stacked eigensolves are held to."""
    phi = canonicalize(psi, psi.n_sites - 1)
    norm_sq = inner_product(phi, phi).real
    data = [None] * (phi.n_sites - 1)
    env = np.ones((1, 1))
    for s in range(phi.n_sites - 1, 0, -1):
        t = phi.tensors[s]
        env = np.einsum("idr,rs,jds->ij", t, env, t.conj())
        w, g = np.linalg.eigh(hermitian_part(env) / norm_sq)
        data[s - 1] = (unit_sum(np.clip(w[::-1], 0.0, None)), g[:, ::-1])
    return phi, data


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_stacked_schmidt_data_equals_one_eigh_per_bond(kind):
    """Bonds of 2, 4 and 5 states, from real, complex and mixed-dtype
    tensors: each bond's probabilities and basis are the per-bond loop's,
    bit for bit and in its dtype."""
    rng = np.random.default_rng(12)
    draw = complex_random_mps if kind == "complex" else random_mps
    psi = draw(rng, [2, 2, 3, 2, 2, 2], 5)
    if kind == "mixed":
        tensors = list(psi.tensors)
        tensors[3] = tensors[3] * np.exp(0.3j)
        psi = MatrixProductState(tensors, psi.center)
    phi, data = bond_schmidt_data(psi)
    ref_phi, ref_data = _schmidt_data_bond_by_bond(psi)
    assert sorted({p.size for p, _ in data}) == [2, 4, 5]
    for a, b in zip(phi.tensors, ref_phi.tensors, strict=True):
        assert np.array_equal(a, b)
    for (p, g), (ref_p, ref_g) in zip(data, ref_data, strict=True):
        assert p.dtype == ref_p.dtype and g.dtype == ref_g.dtype
        assert p.tobytes() == ref_p.tobytes() and g.tobytes() == ref_g.tobytes()
        assert g.flags.c_contiguous


def test_left_cross_envs_of_state_with_itself():
    rng = np.random.default_rng(8)
    psi = canonicalize(random_mps(rng, [2] * 5, 6), 4)
    envs = left_cross_envs(psi, psi)
    for b, env in enumerate(envs):
        np.testing.assert_allclose(env, np.eye(env.shape[0]), atol=1e-12)


# ---------------------------------------------------------------------------
# randomized contraction checks
# ---------------------------------------------------------------------------

def test_random_contractions_match_dense_linear_algebra():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        bra = complex_random_mps(rng, [2] * n, int(rng.integers(2, 6)))
        ket = complex_random_mps(rng, [2] * n, int(rng.integers(2, 6)))
        op = random_mpo(rng, n)
        dense_op = mpo_to_dense(op)
        vb, vk = to_dense(bra), to_dense(ket)
        assert inner_product(bra, ket) == pytest.approx(np.vdot(vb, vk),
                                                        abs=1e-10)
        expected = np.vdot(vk, dense_op @ vk) / np.vdot(vk, vk)
        assert expectation(ket, op) == pytest.approx(expected, abs=1e-10)


def test_spin_chain_mpo_against_dense_sum():
    spec = SpinChainSpec(kind="tfim", n_sites=4, coupling=1.0, field=0.7)
    op = build_spin_chain_mpo(spec)
    dense = mpo_to_dense(op)
    assert dense.shape == (16, 16)
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
