"""Eigen-decompositions tracked smoothly over a parameter grid.

A :class:`SpectralTrack` holds sorted hermitian eigensystems over a strictly
increasing grid, as arrays of eigenvalues and vectors, with each point
phase-aligned to its predecessor so that eigenvector derivatives can be
formed by finite differences.  The grid parameter is abstract -- time and
Hamiltonian parameters are treated identically, and any physical rate
conversion is the caller's responsibility.  :func:`diagonal_phases` is the
package's one phase rule; the DMRG charges align their cross-point overlaps
with it too, and the tracker applies its entrywise form to the diagonal
neighbour overlaps it forms without the full matrices.

A family is an ``(n, d, d)`` stack of matrices over an ``n``-point grid.
Leading axes stack families that share a grid, ``(..., n, d, d)``: one
eigensolve decomposes all of them, one stacked pass forms the diagonal
neighbour overlaps, the phases of the whole track come from one cumulative
product along the grid, and the overlaps come back with the same leading
axes.  A single family is the case without leading axes; stacking changes
no bit of any member's result.

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

import numpy as np

from .linalg import dag, require_hermitian

#: adjacent-point overlap magnitude below which maximum-overlap reordering
#: kicks in and the point is flagged as degenerate.
DEGENERACY_THRESHOLD = 0.1


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


def max_overlap_permutation(weights: np.ndarray) -> np.ndarray:
    """Greedy row-to-column assignment maximizing per-row overlap.

    ``weights`` are non-negative, such as overlap magnitudes.  Rows are
    processed in order of descending row maximum (ties by ascending index);
    each takes its best still-unassigned column, the lowest on a tie.
    ``perm[i]`` is the column assigned to row ``i``.  A stack ``(..., d, d)``
    is assigned member by member, all members at once, and gives
    ``(..., d)``.
    """
    w = np.asarray(weights, dtype=float)
    d = w.shape[-1]
    flat = w.reshape(-1, d, d)
    members = np.arange(flat.shape[0])
    row_max = flat.max(axis=-1)
    taken = np.zeros(row_max.shape, dtype=bool)
    perm = np.empty(row_max.shape, dtype=int)
    for _ in range(d):
        i = np.argmax(row_max, axis=-1)
        row_max[members, i] = -np.inf
        j = np.argmax(np.where(taken, -np.inf, flat[members, i]), axis=-1)
        perm[members, i] = j
        taken[members, j] = True
    return perm.reshape(w.shape[:-1])


def _unit_phases(z: np.ndarray) -> np.ndarray:
    """Unit phases that make each entry of ``z`` real and >= 0, with ``z``'s
    shape and dtype; 1 where an entry is 0."""
    mag = np.abs(z)
    phases = np.ones_like(z)
    nz = mag > 0
    phases[nz] = np.conj(z[nz]) / mag[nz]
    return phases


def diagonal_phases(m: np.ndarray) -> np.ndarray:
    """Unit phases that make each diagonal entry of ``m`` real and >= 0.

    ``m`` is one matrix or a stack of them with leading axes; the phases come
    back with shape ``(..., d)`` and ``m``'s dtype, 1 where an entry is 0.
    Multiplying column ``b`` of ``m`` by phase ``b`` aligns that entry.
    """
    return _unit_phases(np.diagonal(m, axis1=-2, axis2=-1))


def hermitian_eigensystem(matrices, tol: float = 1e-12, name: str = "input") -> tuple:
    """``(w, v)`` of a hermitian matrix or stack, validated to ``tol`` and
    symmetrized by :func:`udmrg.linalg.require_hermitian`, by one ``eigh``."""
    return np.linalg.eigh(require_hermitian(matrices, tol, name))


def track_hermitian_family(grid, matrices, eigensystem=None) -> SpectralTrack:
    """Decompose and align a family of hermitian matrices over ``grid``.

    ``grid`` must be strictly increasing and match ``matrices``, an
    ``(..., n, d, d)`` stack, in length ``n``.  The stack is decomposed by
    :func:`hermitian_eigensystem` at its default tolerance, unless the
    caller passes that eigensystem in, which the track copies.  A point whose
    diagonal overlap magnitude with its predecessor's columns falls below
    ``DEGENERACY_THRESHOLD`` is flagged in ``degenerate`` and reordered by
    :func:`max_overlap_permutation`; only these reorders walk the grid, from
    the first flagged step on.  Each column's phase is then the running
    product along the grid of its neighbour-overlap phases (discrete
    parallel transport), which makes every neighbour diagonal overlap real
    and non-negative; a column whose overlap is exactly 0 keeps its phase.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    shape = np.shape(matrices)
    if grid.ndim != 1 or len(shape) < 3 or shape[-3] != grid.size:
        raise ValueError("grid and matrices must have matching lengths")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    w, v = (hermitian_eigensystem(matrices) if eigensystem is None
            else (eigensystem[0].copy(), eigensystem[1].copy()))
    # links[..., k, a] = <a(k)|a(k + 1)>
    links = np.vecdot(v[..., :-1, :, :], v[..., 1:, :, :], axis=-2)
    degenerate = np.zeros(w.shape[:-1], dtype=bool)
    flagged = np.abs(links) < DEGENERACY_THRESHOLD
    steps = np.flatnonzero(np.any(flagged, axis=tuple(range(flagged.ndim - 2)) + (-1,)))
    if steps.size:
        for k in range(steps[0] + 1, grid.size):
            mag = np.abs(dag(v[..., k - 1, :, :]) @ v[..., k, :, :])
            flag = np.any(np.diagonal(mag, axis1=-2, axis2=-1) < DEGENERACY_THRESHOLD, axis=-1)
            if flag.any():
                perm = max_overlap_permutation(mag[flag])
                w[..., k, :][flag] = np.take_along_axis(w[..., k, :][flag], perm, axis=-1)
                v[..., k, :, :][flag] = np.take_along_axis(v[..., k, :, :][flag],
                                                           perm[:, None, :], axis=-1)
            degenerate[..., k] = flag
        links[..., steps[0]:, :] = np.vecdot(v[..., steps[0]:-1, :, :],
                                             v[..., steps[0] + 1:, :, :], axis=-2)
    v[..., 1:, :, :] *= np.cumprod(_unit_phases(links), axis=-2)[..., None, :]
    return SpectralTrack(grid=grid, eigenvalues=w, vectors=v, degenerate=degenerate)


def _interior(track: SpectralTrack, k, what: str) -> np.ndarray:
    """``k`` as an index array, after checking every entry is interior."""
    k = np.asarray(k)
    hi = len(track) - 2
    bad = k[(k < 1) | (k > hi)]
    if bad.size:
        raise IndexError(
            f"{what} needs grid index in [1, {hi}], got {bad.flat[0]} "
            f"(track has {len(track)} points)"
        )
    return k


def derivative_overlaps(track: SpectralTrack, k) -> np.ndarray:
    """Eigenvector derivative overlaps ``D[a, b] = <a(k)|d b(k)/dt>``.

    A central difference at interior index ``k``; non-uniform grids are
    handled by using the true spacing on either side.  An array of indices
    gives the overlaps at each, ``(..., *k.shape, d, d)`` for a track with
    leading axes ``...``, the same bits as one call per index.
    """
    grid, v = track.grid, track.vectors
    k = _interior(track, k, "central difference")
    spacing = (grid[k + 1] - grid[k - 1])[..., None, None]
    return dag(v[..., k, :, :]) @ ((v[..., k + 1, :, :] - v[..., k - 1, :, :]) / spacing)


def second_difference_coeffs(h_left, h_right) -> tuple:
    """Three-point second-difference weights on a possibly non-uniform grid.

    For samples ``f(x - h_left), f(x), f(x + h_right)`` returns the weights
    whose combination approximates ``f''`` (exactly for quadratics).  On a
    uniform grid they reduce to ``(1, -2, 1) / h^2``.  Arrays of spacings
    give arrays of weights.
    """
    total = h_left + h_right
    return 2.0 / (h_left * total), -2.0 / (h_left * h_right), 2.0 / (h_right * total)


def second_derivative_overlaps(track: SpectralTrack, k) -> np.ndarray:
    """Second-derivative overlaps ``D2[a, c] = <a(k)|d^2 c(k)/dt^2>``.

    Uses the three-point stencil of :func:`second_difference_coeffs` with the
    true spacings on either side of interior index ``k``.  An array of
    indices gives the overlaps at each, as :func:`derivative_overlaps` does.
    """
    grid, v = track.grid, track.vectors
    k = _interior(track, k, "second difference")
    c_minus, c_center, c_plus = (c[..., None, None] for c in second_difference_coeffs(
        grid[k] - grid[k - 1], grid[k + 1] - grid[k]))
    curv = (c_minus * v[..., k - 1, :, :] + c_center * v[..., k, :, :]
            + c_plus * v[..., k + 1, :, :])
    return dag(v[..., k, :, :]) @ curv
