"""Eigen-decompositions tracked smoothly over a parameter grid.

A :class:`SpectralPoint` is one sorted hermitian eigensystem; a
:class:`SpectralTrack` is a sequence of them over a strictly increasing grid,
with each point phase-aligned to its predecessor so that eigenvector
derivatives can be formed by finite differences.  The grid parameter is
abstract -- time and Hamiltonian parameters are treated identically, and any
physical rate conversion is the caller's responsibility.

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

from dataclasses import dataclass, field
from typing import Sequence

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
    """Eigensystems over a strictly increasing grid, aligned point-to-point."""

    grid: np.ndarray
    points: list[SpectralPoint]
    degenerate_points: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim


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


def _aligned(prev: SpectralPoint, cur: SpectralPoint,
             threshold: float = DEGENERACY_THRESHOLD) -> tuple[SpectralPoint, bool]:
    overlaps = dag(prev.vectors) @ cur.vectors
    vals, vecs = cur.eigenvalues, cur.vectors
    degenerate = bool(np.any(np.abs(np.diagonal(overlaps)) < threshold))
    if degenerate:
        perm = max_overlap_permutation(np.abs(overlaps))
        vals, vecs = vals[perm], vecs[:, perm]
        overlaps = overlaps[:, perm]
    d = np.diagonal(overlaps).copy()
    mag = np.abs(d)
    phases = np.ones_like(d)
    nz = mag > 0
    phases[nz] = np.conj(d[nz]) / mag[nz]
    return SpectralPoint(eigenvalues=vals, vectors=vecs * phases[None, :]), degenerate


def track_hermitian_family(grid, matrices: Sequence) -> SpectralTrack:
    """Decompose and align a family of hermitian matrices over ``grid``.

    ``grid`` must be strictly increasing and match ``matrices`` in length.
    Every member is validated as hermitian to 1e-12 relative to its scale,
    and the family is decomposed by one stacked eigensolve; the alignment
    runs point by point.
    Points where degeneracy handling fired are recorded in
    ``degenerate_points``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size != len(matrices):
        raise ValueError("grid and matrices must have matching lengths")
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    w, v = np.linalg.eigh(require_hermitian(matrices, 1e-12, "input"))
    points = [SpectralPoint(eigenvalues=w[0], vectors=v[0])]
    flagged: list[int] = []
    for k in range(1, grid.size):
        point, degenerate = _aligned(points[-1], SpectralPoint(eigenvalues=w[k], vectors=v[k]))
        if degenerate:
            flagged.append(k)
        points.append(point)
    return SpectralTrack(grid=grid, points=points, degenerate_points=flagged)


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
    grid, pts = track.grid, track.points
    _check_index(track, k, 1, len(track) - 2, "central difference")
    diff = (pts[k + 1].vectors - pts[k - 1].vectors) / (grid[k + 1] - grid[k - 1])
    return dag(pts[k].vectors) @ diff


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
    grid, pts = track.grid, track.points
    _check_index(track, k, 1, len(track) - 2, "second difference")
    c_minus, c_center, c_plus = second_difference_coeffs(grid[k] - grid[k - 1],
                                                         grid[k + 1] - grid[k])
    curv = (c_minus * pts[k - 1].vectors + c_center * pts[k].vectors
            + c_plus * pts[k + 1].vectors)
    return dag(pts[k].vectors) @ curv
