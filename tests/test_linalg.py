import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmrg import linalg
from udmrg.linalg import (
    commutator,
    contract,
    dag,
    hermitian_basis_element,
    hermitian_part,
    hermiticity_residual,
    lanczos_lowest,
    max_abs,
    norm2,
    random_hermitian,
    random_unitary,
    require_hermitian,
    require_square,
    require_unitary,
    unit_norm,
    unit_sum,
    unitarity_residual,
)

from helpers import assert_same_eigenpair

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_dag_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    np.testing.assert_array_equal(dag(a), a.conj().T)


def test_pauli_commutator():
    np.testing.assert_allclose(commutator(SZ, SX), 2j * SY, atol=1e-15)


def test_hermitian_part_symmetrizes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian_part(a)
    assert hermiticity_residual(h) == 0.0
    np.testing.assert_allclose(h + 0.5 * (a - dag(a)), a)


def test_max_abs_handles_empty():
    assert max_abs(np.array([])) == 0.0
    assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0


def _vector(rng, size, cplx, scale):
    v = rng.normal(size=size) * scale
    return v + 1j * rng.normal(size=size) * scale if cplx else v


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 300), cplx=st.booleans(),
       scale=st.sampled_from([1e-200, 1e-150, 1e-3, 1.0, 1e150]),
       seed=st.integers(0, 2**32 - 1))
def test_norm2_is_numpys_norm_bit_for_bit(size, cplx, scale, seed):
    v = _vector(np.random.default_rng(seed), size, cplx, scale)
    assert norm2(v) == float(np.linalg.norm(v))
    assert norm2(v[::2]) == float(np.linalg.norm(v[::2]))


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 64), scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_unit_norm_of_a_normal_spectrum_divides_by_numpys_norm(size, scale, seed):
    w = np.sort(np.abs(np.random.default_rng(seed).normal(size=size)))[::-1] * scale
    assert np.array_equal(unit_norm(w), w / np.linalg.norm(w))


@pytest.mark.parametrize("w", [[2.2e-308], [1e-160], [1e-160, 3e-161, 0.0],
                               [5e-324, 5e-324]])
def test_unit_norm_scales_a_spectrum_whose_squares_underflow(w):
    w = np.array(w)
    out = unit_norm(w)
    assert np.all(np.isfinite(out))
    assert out[0] == out.max() and abs(out.dot(out) - 1.0) <= 4e-16
    np.testing.assert_allclose(out, (w / w[0]) / np.linalg.norm(w / w[0]), rtol=1e-15)
    if w.size == 1:
        assert out[0] == 1.0


def test_unit_sum_normalizes_and_passes_zeros_through():
    np.testing.assert_array_equal(unit_sum(np.array([3.0, 1.0])), [0.75, 0.25])
    zeros = np.zeros(3)
    assert unit_sum(zeros) is zeros


def test_require_square_rejects_rectangles():
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        require_square(np.zeros(4))


def test_require_hermitian_symmetrizes_and_rejects():
    noisy = SZ + 1e-14 * np.array([[0, 1], [0, 0]])
    out = require_hermitian(noisy, tol=1e-12)
    assert hermiticity_residual(out) == 0.0
    with pytest.raises(ValueError, match="not hermitian"):
        require_hermitian(SZ + 0.1 * np.array([[0, 1], [0, 0]]), tol=1e-12)


def test_require_unitary():
    rng = np.random.default_rng(1)
    v = random_unitary(rng, 5)
    assert unitarity_residual(v) < 1e-13
    np.testing.assert_array_equal(require_unitary(v), v)
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(2.0 * v)


def test_validators_reject_nan():
    """A NaN entry fails every comparison, so it fails the checks too."""
    with pytest.raises(ValueError, match="not hermitian"):
        require_hermitian([[1.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="not hermitian"):
        require_hermitian(np.array([SZ, [[np.nan, 0.0], [0.0, 1.0]]]))
    v = random_unitary(np.random.default_rng(2), 3)
    v[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(v)


def test_random_hermitian_is_hermitian_and_seeded():
    a = random_hermitian(np.random.default_rng(3), 6, scale=0.7)
    b = random_hermitian(np.random.default_rng(3), 6, scale=0.7)
    assert hermiticity_residual(a) == 0.0
    np.testing.assert_array_equal(a, b)


def test_random_unitary_is_seeded():
    a = random_unitary(np.random.default_rng(9), 4)
    b = random_unitary(np.random.default_rng(9), 4)
    np.testing.assert_array_equal(a, b)


def test_hermitian_basis_is_orthonormal():
    """Every (a, b) pair indexes a hermitian element; pairs are orthonormal."""
    dim = 3
    elements = {}
    for a in range(dim):
        for b in range(dim):
            e = hermitian_basis_element(dim, a, b)
            assert hermiticity_residual(e) == 0.0
            elements[(a, b)] = e
    for k1, e1 in elements.items():
        for k2, e2 in elements.items():
            inner = np.trace(dag(e1) @ e2).real
            expected = 1.0 if k1 == k2 else 0.0
            assert inner == pytest.approx(expected, abs=1e-14)


def test_hermitian_basis_spans_hermitian_matrices():
    rng = np.random.default_rng(11)
    target = random_hermitian(rng, 3)
    recon = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            e = hermitian_basis_element(3, a, b)
            recon += np.trace(dag(e) @ target) * e
    np.testing.assert_allclose(recon, target, atol=1e-14)


@settings(max_examples=8, deadline=None)
@given(dim=st.integers(130, 1024), gap=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_lanczos_matches_dense_eigh_on_random_operators(dim, gap, seed):
    """A random hermitian operator whose lowest eigenvalue is pushed ``gap``
    below the rest: Lanczos from a random start finds the dense pair."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim) / np.sqrt(dim)
    w, v = np.linalg.eigh(h)
    h = h - gap * np.outer(v[:, 0], v[:, 0].conj())
    start = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    energy, vector, converged = lanczos_lowest(lambda x: h @ x, start)
    assert converged
    assert_same_eigenpair(energy, vector, w[0] - gap, v[:, 0])



def test_lanczos_real_start_under_a_complex_operator_solves_in_complex():
    """The Krylov basis takes the dtype of the start and its image: a real
    start under a complex hermitian operator must not drop imaginary parts,
    and solves exactly as the same start cast to complex."""
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 150) / np.sqrt(150)
    w, v = np.linalg.eigh(h)
    h = h - 0.5 * np.outer(v[:, 0], v[:, 0].conj())
    start = rng.normal(size=150)
    energy, vector, converged = lanczos_lowest(lambda x: h @ x, start)
    ref_energy, ref_vector, ref_converged = lanczos_lowest(
        lambda x: h @ x, start.astype(complex))
    assert converged and ref_converged
    assert vector.dtype == np.complex128
    assert abs(energy - ref_energy) <= 1e-12
    assert max_abs(vector - ref_vector) <= 1e-12
    assert_same_eigenpair(energy, vector, w[0] - 0.5, v[:, 0])


def _reference_lanczos_lowest(matvec, start):
    """:func:`linalg.lanczos_lowest` with every 2-norm by ``np.linalg.norm``:
    the reference it matches."""
    x = np.asarray(start).reshape(-1)
    x = x / np.linalg.norm(x)
    hx = matvec(x)
    size = min(linalg.LANCZOS_KRYLOV, x.size)
    basis = np.empty((size, x.size), dtype=np.result_type(x, hx))
    images = np.empty_like(basis)
    cycles = 0
    while True:
        energy = float(np.vdot(x, hx).real)
        converged = bool(np.linalg.norm(hx - energy * x)
                         <= linalg.LANCZOS_TOL * max(1.0, abs(energy)))
        if converged or cycles == linalg.LANCZOS_RESTARTS:
            return energy, x, converged
        cycles += 1
        basis[0], images[0] = x, hx
        k = 1
        while k < size:
            w = images[k - 1]
            for _ in range(2):
                w = w - basis[:k].T @ (basis[:k].conj() @ w)
            norm = np.linalg.norm(w)
            if norm <= 1e-14 * np.linalg.norm(images[k - 1]):
                break
            basis[k] = w / norm
            images[k] = matvec(basis[k])
            k += 1
        _, ritz = np.linalg.eigh(hermitian_part(basis[:k].conj() @ images[:k].T))
        x, hx = ritz[:, 0] @ basis[:k], ritz[:, 0] @ images[:k]
        norm = np.linalg.norm(x)
        x, hx = x / norm, hx / norm


@pytest.mark.parametrize("cplx_op,cplx_start", [(False, False), (True, False), (True, True)])
def test_lanczos_solves_a_fixed_operator_as_numpys_norm_did(cplx_op, cplx_start):
    """Bit for bit the pair of the same solve written with ``np.linalg.norm``,
    on a 200-dimension operator with a small gap, over several restarts."""
    rng = np.random.default_rng(23)
    h = _random_hermitian_of(rng, 200, cplx_op)
    start = _vector(rng, 200, cplx_start, 1.0)
    energy, vector, converged = lanczos_lowest(lambda x: h @ x, start)
    ref = _reference_lanczos_lowest(lambda x: h @ x, start)
    assert converged and ref[2]
    assert energy == ref[0]
    assert vector.dtype == ref[1].dtype and np.array_equal(vector, ref[1])


def _random_hermitian_of(rng, dim, cplx):
    g = _vector(rng, (dim, dim), cplx, 1.0)
    return (g + g.conj().T) / np.sqrt(4 * dim)


def test_lanczos_real_start_under_a_real_operator_stays_real():
    rng = np.random.default_rng(22)
    g = rng.normal(size=(150, 150))
    h = (g + g.T) / np.sqrt(600)
    w, v = np.linalg.eigh(h)
    h = h - 0.5 * np.outer(v[:, 0], v[:, 0])
    energy, vector, converged = lanczos_lowest(lambda x: h @ x, rng.normal(size=150))
    assert converged
    assert vector.dtype == np.float64
    assert_same_eigenpair(energy, vector, w[0] - 0.5, v[:, 0])


# ---------------------------------------------------------------------------
# the planned contraction kernel
# ---------------------------------------------------------------------------

def _operand(rng, shape, dtype, layout):
    """A random array of ``shape`` and ``dtype``, laid out as ``layout`` says:
    contiguous, a conjugate, a transposed view or a strided view."""
    def draw(shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype == complex else x
    if layout == "transposed":
        return draw(shape[::-1]).T
    if layout == "strided":
        return draw(shape[:-1] + (2 * shape[-1],))[..., ::2]
    x = draw(shape)
    return x.conj() if layout == "conj" else x


@st.composite
def contractions(draw):
    """Two 1-4-leg operands' shapes and ``axes`` in one of ``np.tensordot``'s forms."""
    nda, ndb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(0, min(nda, ndb)))
    form = draw(st.sampled_from(["int", "pair", "negative"]))
    if form == "int":
        axes_a, axes_b = list(range(nda - k, nda)), list(range(k))
    else:
        axes_a = draw(st.permutations(range(nda)))[:k]
        axes_b = draw(st.permutations(range(ndb)))[:k]
    shape_a = [draw(st.integers(1, 3)) for _ in range(nda)]
    shape_b = [draw(st.integers(1, 3)) for _ in range(ndb)]
    for i, j in zip(axes_a, axes_b):
        shape_b[j] = shape_a[i]
    if form == "int":
        axes = k
    else:
        if form == "negative":
            axes_a = [i - nda for i in axes_a]
        axes = tuple(ax[0] if len(ax) == 1 and draw(st.booleans()) else tuple(ax)
                     for ax in (axes_a, axes_b))
    return tuple(shape_a), tuple(shape_b), axes


_LAYOUTS = st.sampled_from(["contiguous", "conj", "transposed", "strided"])


@settings(max_examples=200, deadline=None)
@given(case=contractions(), dtypes=st.tuples(*[st.sampled_from([float, complex])] * 2),
       layouts=st.tuples(_LAYOUTS, _LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_contract_equals_tensordot_bit_for_bit(case, dtypes, layouts, seed):
    """Same array and dtype as ``np.tensordot``, also when a second call reuses
    the plan on new data."""
    shape_a, shape_b, axes = case
    rng = np.random.default_rng(seed)
    for _ in range(2):
        a = _operand(rng, shape_a, dtypes[0], layouts[0])
        b = _operand(rng, shape_b, dtypes[1], layouts[1])
        expected = np.tensordot(a, b, axes)
        got = contract(a, b, axes)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_contract_reuses_one_plan_per_shape_signature():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(5, 2, 7)), rng.normal(size=(7, 2, 6))
    contract(a, b, (2, 0))
    before = linalg._contraction_plan.cache_info()
    for _ in range(3):
        a, b = rng.normal(size=(5, 2, 7)), rng.normal(size=(7, 2, 6))
        assert np.array_equal(contract(a, b, (2, 0)), np.tensordot(a, b, (2, 0)))
    after = linalg._contraction_plan.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    # the same axes on other shapes get a plan of their own
    wide = (rng.normal(size=(5, 2, 9)), rng.normal(size=(9, 3)))
    assert np.array_equal(contract(*wide, (2, 0)), np.tensordot(*wide, (2, 0)))
    assert linalg._contraction_plan.cache_info().misses == after.misses + 1
    assert (linalg._contraction_plan((5, 2, 9), (9, 3), (2, 0))
            != linalg._contraction_plan((5, 2, 7), (7, 2, 6), (2, 0)))


def test_contract_rejects_what_tensordot_rejects():
    a, b = np.ones((2, 3)), np.ones((3, 4))
    for axes in [(0, 0), ((0, 1), (0,)), ((1, 1), (0, 0))]:
        with pytest.raises(ValueError):
            np.tensordot(a, b, axes)
        with pytest.raises(ValueError):
            contract(a, b, axes)
    with pytest.raises(IndexError):
        contract(a, b, (2, 0))
