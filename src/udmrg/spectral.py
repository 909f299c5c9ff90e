"""Eigen-decompositions tracked smoothly over a parameter grid.

A :class:`SpectralPoint` is one sorted hermitian eigensystem; a
:class:`SpectralTrack` holds them over a strictly increasing grid, with each
point phase-aligned to its predecessor so that eigenvector derivatives can be
formed by finite differences.  The grid parameter is abstract -- time and
Hamiltonian parameters are treated identically, and any physical rate
conversion is the caller's responsibility.

A family is an ``(n, d, d)`` stack of matrices over an ``n``-point grid.
Leading axes stack families that share a grid, ``(..., n, d, d)``: one
eigensolve decomposes all of them, each alignment step runs on every family
at once, and the overlaps come back with the same leading axes.  A single
family is the case without leading axes; stacking changes no bit of any
member's result.

Conventions
-----------
* Eigenvalues are sorted ascending at construction; tracking may permute a
  point when an adjacent-point overlap drops below the degeneracy threshold.
* ``derivative_overlaps`` returns ``D[a, b] = <a(k)| d/dt |b(k)>`` with the
  derivative acting on the *column* index; ``second_derivative_overlaps`` is
  its second-order analogue, built on :func:`second_difference_coeffs`, the
  one three-point stencil the package uses (the DMRG charges apply it
  backward over the last three scan points).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import dag, require_hermitian

#: adjacent-point overlap magnitude below which maximum-overlap reordering
#: kicks in and the point is flagged as degenerate.
DEGENERACY_THRESHOLD = 0.1


@dataclass(frozen=True)
class SpectralPoint:
    """One hermitian eigensystem: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass
class SpectralTrack:
    """Eigensystems over a strictly increasing grid, aligned point-to-point.

    ``eigenvalues`` is ``(..., n, d)`` and ``vectors`` ``(..., n, d, d)``;
    ``degenerate`` ``(..., n)`` flags the points where degeneracy handling
    fired.  Leading axes index the families of a stacked track.
    """

    grid: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.grid.size

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    @cached_property
    def points(self) -> list[SpectralPoint]:
        """The points of a one-family track, in grid order."""
        if self.vectors.ndim != 3:
            raise ValueError("points are defined for a one-family track")
        return [SpectralPoint(eigenvalues=w, vectors=v)
                for w, v in zip(self.eigenvalues, self.vectors)]

    @property
    def degenerate_points(self) -> list:
        """Grid indices where degeneracy handling fired; one list per family
        of a stacked track."""
        return _flagged_indices(self.degenerate)


def _flagged_indices(flags: np.ndarray) -> list:
    if flags.ndim == 1:
        return np.flatnonzero(flags).tolist()
    return [_flagged_indices(f) for f in flags]


def max_overlap_permutation(weights: np.ndarray) -> np.ndarray:
    """Greedy row-to-column assignment maximizing per-row overlap.

    Rows are processed in order of descending row maximum (ties by ascending
    index); each takes its best still-unassigned column.  ``perm[i]`` is the
    column assigned to row ``i``.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    order = sorted(range(n), key=lambda i: (-w[i].max(), i))
    taken = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=int)
    for i in order:
        row = w[i].copy()
        row[taken] = -np.inf
        j = int(np.argmax(row))
        perm[i] = j
        taken[j] = True
    return perm


def _aligned(prev: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
             threshold: float = DEGENERACY_THRESHOLD
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align the eigensystems ``(vals, vecs)`` to the aligned vectors ``prev``.

    Takes one point, ``(d,)`` and ``(d, d)``, or a stack of them with
    leading axes.  A member with a diagonal overlap magnitude below
    ``threshold`` is degenerate: its columns are first reordered by
    :func:`max_overlap_permutation`, one member at a time.  Every column is
    then multiplied by the unit phase that makes its diagonal overlap real
    and non-negative.  Returns the aligned values and vectors and the
    degeneracy flag of each member; the inputs are not modified.
    """
    overlaps = dag(prev) @ vecs
    degenerate = np.any(np.abs(np.diagonal(overlaps, axis1=-2, axis2=-1)) < threshold,
                        axis=-1)
    if degenerate.any():
        vals, vecs = vals.copy(), vecs.copy()
        for i in map(tuple, np.argwhere(degenerate)):
            perm = max_overlap_permutation(np.abs(overlaps[i]))
            vals[i], vecs[i] = vals[i][perm], vecs[i][:, perm]
            overlaps[i] = overlaps[i][:, perm]
    d = np.diagonal(overlaps, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phases = np.ones_like(d)
    nz = mag > 0
    phases[nz] = np.conj(d[nz]) / mag[nz]
    return vals, vecs * phases[..., None, :], degenerate


def track_hermitian_family(grid, matrices) -> SpectralTrack:
    """Decompose and align a family of hermitian matrices over ``grid``.

    ``grid`` must be strictly increasing and match ``matrices``, an
    ``(..., n, d, d)`` stack, in length ``n``.  Every member is validated as
    hermitian to 1e-12 relative to its scale, and all members are decomposed
    by one stacked eigensolve.  The alignment runs point by point along the
    grid, each step on every family of the stack at once.  Points where
    degeneracy handling fired are flagged in ``degenerate``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    shape = np.shape(matrices)
    if grid.ndim != 1 or len(shape) < 3 or shape[-3] != grid.size:
        raise ValueError("grid and matrices must have matching lengths")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    w, v = np.linalg.eigh(require_hermitian(matrices, 1e-12, "input"))
    degenerate = np.zeros(w.shape[:-1], dtype=bool)
    for k in range(1, grid.size):
        w[..., k, :], v[..., k, :, :], degenerate[..., k] = _aligned(
            v[..., k - 1, :, :], w[..., k, :], v[..., k, :, :])
    return SpectralTrack(grid=grid, eigenvalues=w, vectors=v, degenerate=degenerate)


def _check_index(track: SpectralTrack, k: int, lo: int, hi: int, what: str) -> None:
    if not lo <= k <= hi:
        raise IndexError(
            f"{what} needs grid index in [{lo}, {hi}], got {k} "
            f"(track has {len(track)} points)"
        )


def derivative_overlaps(track: SpectralTrack, k: int) -> np.ndarray:
    """Eigenvector derivative overlaps ``D[a, b] = <a(k)|d b(k)/dt>``.

    A central difference at interior index ``k``; non-uniform grids are
    handled by using the true spacing on either side.
    """
    grid, v = track.grid, track.vectors
    _check_index(track, k, 1, len(track) - 2, "central difference")
    diff = (v[..., k + 1, :, :] - v[..., k - 1, :, :]) / (grid[k + 1] - grid[k - 1])
    return dag(v[..., k, :, :]) @ diff


def second_difference_coeffs(h_left: float, h_right: float) -> tuple[float, float, float]:
    """Three-point second-difference weights on a possibly non-uniform grid.

    For samples ``f(x - h_left), f(x), f(x + h_right)`` returns the weights
    whose combination approximates ``f''`` (exactly for quadratics).  On a
    uniform grid they reduce to ``(1, -2, 1) / h^2``.
    """
    total = h_left + h_right
    return 2.0 / (h_left * total), -2.0 / (h_left * h_right), 2.0 / (h_right * total)


def second_derivative_overlaps(track: SpectralTrack, k: int) -> np.ndarray:
    """Second-derivative overlaps ``D2[a, c] = <a(k)|d^2 c(k)/dt^2>``.

    Uses the three-point stencil of :func:`second_difference_coeffs` with the
    true spacings on either side of interior index ``k``.
    """
    grid, v = track.grid, track.vectors
    _check_index(track, k, 1, len(track) - 2, "second difference")
    c_minus, c_center, c_plus = second_difference_coeffs(grid[k] - grid[k - 1],
                                                         grid[k + 1] - grid[k])
    curv = (c_minus * v[..., k - 1, :, :] + c_center * v[..., k, :, :]
            + c_plus * v[..., k + 1, :, :])
    return dag(v[..., k, :, :]) @ curv
