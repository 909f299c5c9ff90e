import numpy as np
import pytest

from udmrg.linalg import dag, max_abs, random_hermitian, random_unitary
from udmrg.models import PAULI_X, PAULI_Z
from udmrg.spectral import (
    DEGENERACY_THRESHOLD,
    SpectralPoint,
    derivative_overlaps,
    max_overlap_permutation,
    second_difference_coeffs,
    second_derivative_overlaps,
    track_hermitian_family,
)

from helpers import align_phases


def eigh_sorted(matrix):
    """One hermitian eigensystem, as a one-point track decomposes it."""
    return track_hermitian_family([0.0], [matrix]).points[0]


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
            point = eigh_sorted(random_hermitian(rng, 5))
            assert np.all(np.diff(point.eigenvalues) >= 0)
            assert max_abs(dag(point.vectors) @ point.vectors - np.eye(5)) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            eigh_sorted(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstructs_input(self):
        h = random_hermitian(np.random.default_rng(1), 4)
        p = eigh_sorted(h)
        np.testing.assert_allclose((p.vectors * p.eigenvalues) @ dag(p.vectors),
                                   h, atol=1e-13)


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


def test_align_phases_makes_diagonal_real_nonnegative():
    rng = np.random.default_rng(2)
    prev = eigh_sorted(random_hermitian(rng, 4))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    cur = SpectralPoint(eigenvalues=prev.eigenvalues,
                        vectors=prev.vectors * phases[None, :])
    fixed = align_phases(prev, cur)
    overlap = np.diagonal(dag(prev.vectors) @ fixed.vectors)
    assert np.all(overlap.real > 1 - 1e-12)
    assert max_abs(overlap.imag) < 1e-12
    again = align_phases(prev, fixed)
    np.testing.assert_allclose(again.vectors, fixed.vectors, atol=1e-14)


def test_align_phases_dimension_mismatch():
    a = eigh_sorted(np.eye(2))
    b = eigh_sorted(np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        align_phases(a, b)


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
    assert track.degenerate_points == [3, 4, 5]
    for t, point in zip(grid, track.points):
        np.testing.assert_allclose(point.eigenvalues, [t, -t], atol=1e-14)


def test_track_smooth_family_has_no_degenerate_points():
    grid = np.linspace(0.0, 1.0, 11)
    track = track_hermitian_family(grid, rotating_family(grid))
    assert track.degenerate_points == []
    assert len(track) == 11
    assert track.dim == 2


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
    assert [bool(t.degenerate_points) for t in singles] == [True, False, True,
                                                            False, False, True]
    for stack in (families, families.reshape((2, 3) + families.shape[1:])):
        track = track_hermitian_family(grid, stack)
        assert track.vectors.shape == stack.shape
        eigenvalues = track.eigenvalues.reshape((6,) + track.eigenvalues.shape[-2:])
        vectors = track.vectors.reshape(families.shape)
        for f, single in enumerate(singles):
            assert np.array_equal(eigenvalues[f], single.eigenvalues)
            assert np.array_equal(vectors[f], single.vectors)
            for k in (1, 3, 4):
                assert np.array_equal(
                    derivative_overlaps(track, k).reshape(6, 3, 3)[f],
                    derivative_overlaps(single, k))
                assert np.array_equal(
                    second_derivative_overlaps(track, k).reshape(6, 3, 3)[f],
                    second_derivative_overlaps(single, k))
        expected = [t.degenerate_points for t in singles]
        if stack.ndim == 5:
            expected = [expected[:3], expected[3:]]
        assert track.degenerate_points == expected


def test_a_stacked_track_has_no_one_family_points():
    grid = np.linspace(0.0, 1.0, 4)
    track = track_hermitian_family(grid, np.array([rotating_family(grid)] * 2))
    assert track.degenerate_points == [[], []]
    with pytest.raises(ValueError, match="one-family"):
        track.points


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
