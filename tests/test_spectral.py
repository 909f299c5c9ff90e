import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmrg import harness
from udmrg.linalg import dag, max_abs, random_hermitian, random_unitary, require_hermitian
from udmrg.models import PAULI_X, PAULI_Z
from udmrg.spectral import (
    DEGENERACY_THRESHOLD,
    derivative_overlaps,
    diagonal_phases,
    hermitian_eigensystem,
    max_overlap_permutation,
    second_difference_coeffs,
    second_derivative_overlaps,
    track_hermitian_family,
)

from helpers import align_phases, sequential_track


def eigh_sorted(matrix):
    """One hermitian eigensystem ``(eigenvalues, vectors)``, as a one-point
    track decomposes it."""
    track = track_hermitian_family([0.0], [matrix])
    return track.eigenvalues[0], track.vectors[0]


def rotating_family(grid, omega=0.3):
    """Two-level Hamiltonians rotating in the xz-plane at rate ``omega``."""
    return [0.5 * (np.cos(omega * t) * PAULI_Z + np.sin(omega * t) * PAULI_X)
            for t in grid]


class TestEighSorted:
    """A one-point track is the spectral layer's eigensolve of one hermitian
    matrix: eigenvalues ascending, orthonormal vectors, input validated."""

    def test_ascending_and_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w, v = eigh_sorted(random_hermitian(rng, 5))
            assert np.all(np.diff(w) >= 0)
            assert max_abs(dag(v) @ v - np.eye(5)) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            eigh_sorted(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstructs_input(self):
        h = random_hermitian(np.random.default_rng(1), 4)
        w, v = eigh_sorted(h)
        np.testing.assert_allclose((v * w) @ dag(v), h, atol=1e-13)


def test_max_overlap_permutation_recovers_permutation():
    w = np.array([[0.1, 0.9, 0.0],
                  [0.8, 0.1, 0.1],
                  [0.0, 0.2, 0.95]])
    np.testing.assert_array_equal(max_overlap_permutation(w), [1, 0, 2])


def test_max_overlap_permutation_greedy_order():
    # row 1 has the largest maximum so it claims column 0 first; row 0 must
    # settle for its second-best column.
    w = np.array([[0.6, 0.5],
                  [0.9, 0.4]])
    np.testing.assert_array_equal(max_overlap_permutation(w), [1, 0])


def greedy_reference(w):
    """The greedy assignment row by row in plain Python: rows by descending
    maximum, ties by ascending index, each taking its first best free column."""
    n = w.shape[0]
    perm, taken = [0] * n, set()
    for i in sorted(range(n), key=lambda i: (-w[i].max(), i)):
        j = max((c for c in range(n) if c not in taken), key=lambda c: (w[i, c], -c))
        perm[i] = j
        taken.add(j)
    return perm


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       lead=st.sampled_from([(), (1,), (7,), (2, 3)]))
def test_a_stacked_permutation_equals_row_by_row_calls(seed, d, lead):
    """Weights drawn from four values tie within rows and between row
    maxima; every member of the stack is assigned as a call of its own
    would assign it, and as the plain greedy rule does."""
    rng = np.random.default_rng(seed)
    w = rng.choice([0.0, 0.25, 0.5, 1.0], size=lead + (d, d))
    perm = max_overlap_permutation(w)
    assert perm.shape == lead + (d,)
    for i in np.ndindex(lead):
        assert np.array_equal(perm[i], max_overlap_permutation(w[i]))
        assert perm[i].tolist() == greedy_reference(w[i])


def test_align_phases_makes_diagonal_real_nonnegative():
    rng = np.random.default_rng(2)
    w, v = eigh_sorted(random_hermitian(rng, 4))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    _, fixed = align_phases(v, w, v * phases[None, :])
    overlap = np.diagonal(dag(v) @ fixed)
    assert np.all(overlap.real > 1 - 1e-12)
    assert max_abs(overlap.imag) < 1e-12
    _, again = align_phases(v, w, fixed)
    np.testing.assert_allclose(again, fixed, atol=1e-14)


def test_align_phases_dimension_mismatch():
    _, a = eigh_sorted(np.eye(2))
    w, b = eigh_sorted(np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        align_phases(a, w, b)


def test_diagonal_phases_give_one_at_a_zero_entry():
    m = np.array([[0.0, 1.0], [1j, -2j]])
    phases = diagonal_phases(m)
    np.testing.assert_array_equal(phases, [1.0, 1j])
    np.testing.assert_array_equal(np.diagonal(m * phases), [0.0, 2.0])


def test_diagonal_phases_keep_real_input_real():
    """A float64 overlap gets float64 phases of exactly +1 and -1."""
    m = np.random.default_rng(3).normal(size=(5, 5))
    m[2, 2] = 0.0
    phases = diagonal_phases(m)
    assert phases.dtype == np.float64
    np.testing.assert_array_equal(phases, np.where(np.diagonal(m) < 0, -1.0, 1.0))
    assert np.all(np.diagonal(m * phases) >= 0)


def test_diagonal_phases_of_a_stack_are_its_members_phases():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    stack[0, 1, 3, 3] = 0.0
    stack[1, 2, 0, 0] = 0.0
    phases = diagonal_phases(stack)
    assert phases.shape == (2, 3, 4)
    for i in np.ndindex(2, 3):
        assert np.array_equal(phases[i], diagonal_phases(stack[i]))
    aligned = np.diagonal(stack * phases[..., None, :], axis1=-2, axis2=-1)
    assert np.all(aligned.real >= 0)
    assert max_abs(aligned.imag) < 1e-15
    np.testing.assert_allclose(aligned.real, np.abs(np.diagonal(stack, axis1=-2, axis2=-1)),
                               rtol=1e-15)


def test_track_validates_grid():
    mats = [np.eye(2), np.eye(2)]
    with pytest.raises(ValueError, match="strictly increasing"):
        track_hermitian_family([0.0, 0.0], mats)
    with pytest.raises(ValueError, match="matching lengths"):
        track_hermitian_family([0.0, 1.0, 2.0], mats)
    with pytest.raises(ValueError, match="empty"):
        track_hermitian_family([], [])


def test_track_follows_diabatic_branches_through_crossing():
    """H = diag(t, -t) crosses at t = 0; tracking keeps the branch order."""
    grid = np.array([-0.25, -0.15, -0.05, 0.05, 0.15, 0.25])
    track = track_hermitian_family(grid, [np.diag([t, -t]).astype(complex)
                                          for t in grid])
    # every post-crossing point needs the max-overlap reordering because the
    # raw eigh output re-sorts ascending against the tracked order
    assert np.flatnonzero(track.degenerate).tolist() == [3, 4, 5]
    for t, eigenvalues in zip(grid, track.eigenvalues):
        np.testing.assert_allclose(eigenvalues, [t, -t], atol=1e-14)


def test_track_smooth_family_has_no_degenerate_points():
    grid = np.linspace(0.0, 1.0, 11)
    track = track_hermitian_family(grid, rotating_family(grid))
    assert not track.degenerate.any()
    assert len(track) == 11
    assert track.vectors.shape == (11, 2, 2)


def crossing_family(grid, rng):
    """``diag(t, -t, 1)`` in a fixed random basis: two levels cross at t = 0."""
    u = random_unitary(rng, 3)
    return np.array([u @ np.diag([t, -t, 1.0]) @ dag(u) for t in grid])


def rotating_basis_family(grid, rng):
    """``diag(0, 1, 2)`` carried by ``exp(-i G t)``: no level crosses."""
    w, u = np.linalg.eigh(random_hermitian(rng, 3, scale=0.4))
    vs = [(u * np.exp(-1j * w * t)) @ dag(u) for t in grid]
    return np.array([v @ np.diag([0.0, 1.0, 2.0]) @ dag(v) for v in vs])


def test_a_stacked_track_equals_its_families_tracked_one_by_one():
    """Families that cross (the permutation branch fires) stacked with
    smooth ones: every eigenvalue, vector and flag of the stacked track
    equals the one-family track bit for bit, under one or two leading axes."""
    grid = np.array([-0.25, -0.15, -0.05, 0.05, 0.15, 0.25])
    rng = np.random.default_rng(17)
    families = np.array([crossing_family(grid, rng), rotating_basis_family(grid, rng),
                         crossing_family(grid, rng), rotating_basis_family(grid, rng),
                         rotating_basis_family(grid, rng), crossing_family(grid, rng)])
    singles = [track_hermitian_family(grid, f) for f in families]
    assert [bool(t.degenerate.any()) for t in singles] == [True, False, True,
                                                           False, False, True]
    for stack in (families, families.reshape((2, 3) + families.shape[1:])):
        track = track_hermitian_family(grid, stack)
        assert track.vectors.shape == stack.shape
        eigenvalues = track.eigenvalues.reshape((6,) + track.eigenvalues.shape[-2:])
        vectors = track.vectors.reshape(families.shape)
        degenerate = track.degenerate.reshape(6, grid.size)
        for f, single in enumerate(singles):
            assert np.array_equal(eigenvalues[f], single.eigenvalues)
            assert np.array_equal(vectors[f], single.vectors)
            assert np.array_equal(degenerate[f], single.degenerate)
            for k in (1, 3, 4):
                assert np.array_equal(
                    derivative_overlaps(track, k).reshape(6, 3, 3)[f],
                    derivative_overlaps(single, k))
                assert np.array_equal(
                    second_derivative_overlaps(track, k).reshape(6, 3, 3)[f],
                    second_derivative_overlaps(single, k))


def assert_tracks_as_the_reference(grid, matrices):
    """The stacked tracker against the point-by-point reference: the same
    flags, column orders and eigenvalues exactly, vectors to 1e-13, and
    every neighbour diagonal overlap real and non-negative to 1e-13.
    Returns the reference's column orders."""
    ref, ref_order = sequential_track(grid, matrices)
    track = track_hermitian_family(grid, matrices)
    assert np.array_equal(track.degenerate, ref.degenerate)
    assert np.array_equal(track.eigenvalues, ref.eigenvalues)
    raw = np.linalg.eigh(require_hermitian(matrices, 1e-12))[1]
    assert np.array_equal(np.argmax(np.abs(dag(raw) @ track.vectors), axis=-2), ref_order)
    assert max_abs(track.vectors - ref.vectors) <= 1e-13
    links = np.diagonal(dag(track.vectors[..., :-1, :, :]) @ track.vectors[..., 1:, :, :],
                        axis1=-2, axis2=-1)
    assert max_abs(links.imag) <= 1e-13
    assert links.real.min() >= -1e-13
    return ref_order


def first_track_input(run, cfg):
    """The ``(grid, matrices)`` of the first stack ``run(cfg)`` tracks,
    whether or not the run passes the stack's eigensystem in too."""
    seen = []

    def recording(grid, matrices, *eigensystem):
        seen.append((grid, matrices))
        return track_hermitian_family(grid, matrices, *eigensystem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "track_hermitian_family", recording)
        run(cfg)
    return seen[0]


def test_the_default_gauge_stack_tracks_as_the_reference():
    """The 101 families of ``gauge_diagnostics``: many members reorder, at
    most of the 20 steps."""
    grid, rhos = first_track_input(harness.run_gauge_diagnostics,
                                   harness.GaugeDiagnosticsConfig())
    assert rhos.shape == (101, 21, 3, 3)
    order = assert_tracks_as_the_reference(grid, rhos)
    assert np.count_nonzero(np.any(order != np.arange(3), axis=-1)) > 100


def test_the_default_crossing_grid_tracks_as_the_reference():
    """The 403 points of the default ``crossing_scan``: no point reorders."""
    grid, h = first_track_input(harness.run_crossing_scan, harness.CrossingScanConfig())
    assert h.shape == (403, 2, 2)
    order = assert_tracks_as_the_reference(grid, h)
    assert np.array_equal(order, np.broadcast_to([0, 1], order.shape))


def test_a_reorder_carried_over_many_points_tracks_as_the_reference():
    """Past a crossing the eigensolve's ascending order is the tracked order
    swapped, so every later point reorders again; crossing families stacked
    with smooth ones."""
    grid = np.linspace(-0.35, 0.35, 8)
    rng = np.random.default_rng(23)
    families = np.array([crossing_family(grid, rng), rotating_basis_family(grid, rng),
                         crossing_family(grid, rng)])
    order = assert_tracks_as_the_reference(grid, families)
    moved = np.any(order != np.arange(3), axis=-1)
    assert moved.tolist() == [[False] * 4 + [True] * 4, [False] * 8,
                              [False] * 4 + [True] * 4]


def test_a_passed_eigensystem_tracks_bit_for_bit_and_stays_unchanged():
    """A caller's eigensystem of the stack tracks as the tracker's own
    eigensolve does, reorders included, and the tracker works on a copy."""
    grid = np.linspace(-0.35, 0.35, 8)
    rng = np.random.default_rng(23)
    families = np.array([crossing_family(grid, rng), rotating_basis_family(grid, rng)])
    w, v = hermitian_eigensystem(families)
    w0, v0 = w.copy(), v.copy()
    track = track_hermitian_family(grid, families, (w, v))
    own = track_hermitian_family(grid, families)
    assert track.degenerate.any()
    assert np.array_equal(track.degenerate, own.degenerate)
    assert np.array_equal(track.eigenvalues, own.eigenvalues)
    assert np.array_equal(track.vectors, own.vectors)
    assert np.array_equal(w, w0) and np.array_equal(v, v0)


def test_a_nan_member_fails_validation():
    mats = np.array([np.eye(2), [[1.0, np.nan], [np.nan, 0.0]]])
    with pytest.raises(ValueError, match="input is not hermitian"):
        track_hermitian_family([0.0, 1.0], mats)


def test_derivative_overlaps_rotating_oracle():
    """The off-diagonal overlap of the rotating family is omega / 2 exactly."""
    omega, h = 0.3, 1e-3
    grid = 0.4 + h * np.arange(-2, 3)
    track = track_hermitian_family(grid, rotating_family(grid, omega))
    d = derivative_overlaps(track, 2)
    assert abs(abs(d[0, 1]) - omega / 2) < 1e-6
    assert abs(abs(d[1, 0]) - omega / 2) < 1e-6
    # phase alignment kills the diagonal at this order
    assert max_abs(np.diagonal(d)) < 1e-9


def test_derivative_overlaps_need_an_interior_index():
    grid = np.linspace(0.0, 1.0, 6)
    track = track_hermitian_family(grid, rotating_family(grid))
    assert derivative_overlaps(track, 1).shape == (2, 2)
    assert derivative_overlaps(track, 4).shape == (2, 2)
    for k in (0, 5):
        with pytest.raises(IndexError, match=r"needs grid index in \[1, 4\]"):
            derivative_overlaps(track, k)


def test_overlaps_reject_an_index_array_with_one_exterior_entry():
    grid = np.linspace(0.0, 1.0, 6)
    track = track_hermitian_family(grid, rotating_family(grid))
    assert derivative_overlaps(track, np.arange(1, 5)).shape == (4, 2, 2)
    for k in ([1, 2, 0], [[4, 5], [2, 3]], [-1]):
        for overlaps in (derivative_overlaps, second_derivative_overlaps):
            with pytest.raises(IndexError, match=r"needs grid index in \[1, 4\]"):
                overlaps(track, np.array(k))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 9), families=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_overlaps_at_an_index_array_equal_one_call_per_index(data, n, families, seed):
    """On a non-uniform grid, with or without a leading family axis, the
    overlaps at an index array equal one call per index bit for bit."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.05, 0.3, n))
    stack = np.array([rotating_basis_family(grid, rng) for _ in range(max(families, 1))])
    track = track_hermitian_family(grid, stack if families else stack[0])
    k = np.array(data.draw(st.lists(st.integers(1, n - 2), min_size=1, max_size=6)))
    if data.draw(st.booleans()) and k.size % 2 == 0:
        k = k.reshape(2, -1)
    lead = track.vectors.shape[:-3]
    for overlaps in (derivative_overlaps, second_derivative_overlaps):
        got = overlaps(track, k)
        assert got.shape == lead + k.shape + (3, 3)
        for idx in np.ndindex(k.shape):
            assert np.array_equal(got[(...,) + idx + (slice(None),) * 2],
                                  overlaps(track, int(k[idx])))


def test_derivative_overlaps_anti_hermitian_refinement():
    """The symmetrized residual D + D^H shrinks by ~4x per grid halving."""
    norms = []
    for n in (21, 41, 81):
        grid = np.linspace(0.0, 2.0, n)
        base = np.diag(np.arange(3, dtype=float))
        rng = np.random.default_rng(15)
        vs = [random_unitary(rng, 3)]
        # smooth rotation: V(t) = exp(-i G t) V0 for a fixed generator
        g = random_hermitian(np.random.default_rng(16), 3, scale=0.4)
        w, u = np.linalg.eigh(g)
        mats = []
        for t in grid:
            v = (u * np.exp(-1j * w * t)) @ dag(u) @ vs[0]
            mats.append(v @ base @ dag(v))
        track = track_hermitian_family(grid, mats)
        d = derivative_overlaps(track, (n - 1) // 2)
        norms.append(max_abs(d + dag(d)))
    ratios = [a / b for a, b in zip(norms, norms[1:])]
    for r in ratios:
        assert 3.2 < r < 4.8


def test_second_difference_coeffs_exact_on_quadratics():
    rng = np.random.default_rng(13)
    for _ in range(200):
        h_left, h_right = rng.uniform(0.01, 2.0, size=2)
        a, b, c, x = rng.uniform(-3.0, 3.0, size=4)
        weights = second_difference_coeffs(h_left, h_right)
        samples = [a * t**2 + b * t + c for t in (x - h_left, x, x + h_right)]
        terms = [w * f for w, f in zip(weights, samples)]
        scale = sum(abs(t) for t in terms)
        assert abs(sum(terms) - 2.0 * a) <= 1e-13 * scale
    # a uniform grid gives the textbook (1, -2, 1) / h^2
    assert second_difference_coeffs(0.5, 0.5) == (4.0, -8.0, 4.0)


def test_second_derivative_overlaps_quadratic_oracle():
    # eigenvector components vary like cos/sin of (omega t / 2); the second
    # derivative overlap onto the partner state carries a curvature of order
    # omega^2 / 4 while diagonal terms pick up -omega^2 / 4.
    omega, h = 0.5, 1e-3
    grid = 0.3 + h * np.arange(-1, 2)
    track = track_hermitian_family(grid, rotating_family(grid, omega))
    d2 = second_derivative_overlaps(track, 1)
    assert abs(d2[0, 0].real + omega**2 / 4) < 1e-5
    assert abs(d2[1, 1].real + omega**2 / 4) < 1e-5


def test_degeneracy_threshold_is_sensible():
    assert 0.0 < DEGENERACY_THRESHOLD < 1.0
