"""Gauge structure carried by density-matrix families.

A density-matrix path ``rho(t)`` is purified pointwise through its principal
hermitian square root ``U = sqrt(rho)`` (the positive root fixes the otherwise
arbitrary purification gauge).  From the amplitudes one builds

* the gauge potential        ``A = (dU U^H - U dU^H) / 2i``
* the covariant derivative   ``D rho = i d(rho)/dt - [A, rho]``
* first/second categorical corrections ``A1 = A + [C, rho]/i`` and
  ``A2 = A1 + [H_op, C]/i``,

plus action functionals, the pointwise field strength of a two-axis
potential, and finite-difference charge residuals.  All derivatives are finite differences on the caller's
grid; the pointwise operations insist on interior indices while the
family-level constructors fall back to one-sided stencils at the ends so that
potentials stay aligned with their grids.

Note on hermiticity: with hermitian ``A`` and ``rho`` both terms of
``D rho`` are anti-hermitian, so the covariant derivative itself is
anti-hermitian; the quantities derived from it (``(D rho)^H (D rho)`` and the
actions) are unaffected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    commutator,
    dag,
    hermitian_basis_element,
    hermitian_part,
    max_abs,
    require_hermitian,
    require_square,
    require_unitary,
)
from .spectral import SpectralTrack, derivative_overlaps, second_derivative_overlaps

ACTION_MODES = ("covariant", "scalar_like")


@dataclass(frozen=True)
class ActionParams:
    """Couplings and mode for the action functionals."""

    g1: float = 1.0
    g2: float = 1.0
    mode: str = "covariant"

    def __post_init__(self) -> None:
        if self.mode not in ACTION_MODES:
            raise ValueError(f"mode must be one of {ACTION_MODES}, got {self.mode!r}")
        for name in ("g1", "g2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class GaugePotential:
    """Hermitian potential sampled over a one-dimensional grid."""

    grid: np.ndarray
    values: list
    level: str = "base"

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        if len(self.values) != self.grid.size:
            raise ValueError("potential values must match the grid in length")

    def __len__(self) -> int:
        return self.grid.size


@dataclass
class GaugePotential2D:
    """Both components of a potential sampled on a two-axis grid.

    ``values1[i, j]`` and ``values2[i, j]`` are the axis-1 and axis-2
    components at ``(axis1[i], axis2[j])``.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values1: np.ndarray
    values2: np.ndarray
    level: str = "base"

    def __post_init__(self) -> None:
        self.axis1 = np.asarray(self.axis1, dtype=float)
        self.axis2 = np.asarray(self.axis2, dtype=float)
        expected = (self.axis1.size, self.axis2.size)
        if self.values1.shape[:2] != expected or self.values2.shape[:2] != expected:
            raise ValueError("component arrays must be indexed by (axis1, axis2)")


@dataclass
class CoherenceMatrix:
    """Hermitian coherence operator ``C``; symmetrized at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = hermitian_part(require_square(self.entries, "coherence matrix"))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass
class CoherenceCube:
    """Rank-3 coherence data ``H[a, b, c]``, real at construction.

    The literal operator contraction ``sum_{abc} H_abc <b|c> |a><a|`` in an
    orthonormal basis collapses the middle index against the third and yields
    a real diagonal operator; see :func:`contract_coherence_cube`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries)
        if e.ndim != 3 or len(set(e.shape)) != 1:
            raise ValueError(f"coherence cube must be cubic rank-3, got shape {e.shape}")
        if np.iscomplexobj(e) and max_abs(e.imag) > 1e-12:
            raise ValueError("coherence cube entries must be real")
        self.entries = e.real.astype(float)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# purification and potentials
# ---------------------------------------------------------------------------

def require_density_matrix(rho, tol: float = 1e-12) -> np.ndarray:
    """Validate hermiticity, unit trace and positivity of a density matrix."""
    r = require_hermitian(rho, tol, "density matrix")
    trace = float(np.trace(r).real)
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")
    w = np.linalg.eigvalsh(r)
    if w[0] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return r


def purify(rho, tol: float = 1e-12) -> np.ndarray:
    """Principal hermitian square root ``U`` with ``U U^H = rho``.

    Eigenvalues inside ``[-tol, 0)`` are clipped to zero; anything more
    negative raises an invalid-density error.
    """
    r = require_density_matrix(rho, tol)
    w, v = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dag(v)


def _grid_derivative(values: Sequence, grid: np.ndarray, k: int):
    """Central difference at interior k, one-sided two-point at the ends."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two grid points to differentiate")
    if 0 < k < n - 1:
        return (values[k + 1] - values[k - 1]) / (grid[k + 1] - grid[k - 1])
    if k == 0:
        return (values[1] - values[0]) / (grid[1] - grid[0])
    return (values[-1] - values[-2]) / (grid[-1] - grid[-2])


def uhlmann_potential(rhos: Sequence, grid, level: str = "base") -> GaugePotential:
    """Gauge potential of a density family, aligned with its full grid.

    Interior points use central differences; the two endpoints fall back to
    one-sided differences (first-order accurate) so the potential can be
    integrated against the same grid as ``rhos``.
    """
    grid = np.asarray(grid, dtype=float)
    if len(rhos) != grid.size:
        raise ValueError("density family must match the grid in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")
    amps = [purify(r) for r in rhos]
    values = []
    for k in range(grid.size):
        du = _grid_derivative(amps, grid, k)
        values.append((du @ dag(amps[k]) - amps[k] @ dag(du)) / 2j)
    return GaugePotential(grid=grid, values=values, level=level)


def covariant_derivative(rhos: Sequence, potential: GaugePotential, k: int) -> np.ndarray:
    """``i d(rho)/dt - [A_k, rho_k]`` at interior grid index ``k``.

    Anti-hermitian for hermitian inputs (see the module note); its
    conjugation behaviour under gauge transforms is what matters downstream.
    """
    grid = potential.grid
    if len(rhos) != grid.size:
        raise ValueError(
            f"mismatched grids: {len(rhos)} density samples vs {grid.size} potential points"
        )
    if not 0 < k < grid.size - 1:
        raise IndexError(f"covariant derivative needs an interior index, got {k}")
    drho = (rhos[k + 1] - rhos[k - 1]) / (grid[k + 1] - grid[k - 1])
    return 1j * drho - commutator(potential.values[k], rhos[k])


def gauge_transform(rho, a, v, dv):
    """Transform ``(rho, A)`` by a unitary ``v`` with derivative ``dv``.

    Returns ``(v rho v^H, v a v^H + herm(i dv v^H))``.  The inhomogeneous
    term is symmetrized because a finite-difference ``dv`` breaks its exact
    anti-unitarity at second order in the spacing.
    """
    v = require_unitary(v, name="gauge transform")
    rho2 = v @ np.asarray(rho, dtype=complex) @ dag(v)
    a2 = v @ np.asarray(a, dtype=complex) @ dag(v) + hermitian_part(1j * dv @ dag(v))
    return rho2, a2


def categorical_potential_1(a, coherence, rho) -> np.ndarray:
    """First categorical correction ``A + [C, rho] / i``."""
    c = coherence.entries if isinstance(coherence, CoherenceMatrix) else np.asarray(coherence)
    a = np.asarray(a, dtype=complex)
    if a.shape != c.shape or a.shape != np.asarray(rho).shape:
        raise ValueError("potential, coherence matrix and density must share a shape")
    return a + commutator(c, np.asarray(rho, dtype=complex)) / 1j


def categorical_potential_2(a1, h_op, coherence) -> np.ndarray:
    """Second categorical correction ``A1 + [H_op, C] / i``.

    ``h_op`` is the already-contracted coherence-cube operator, e.g. from
    :func:`contract_coherence_cube`.
    """
    c = coherence.entries if isinstance(coherence, CoherenceMatrix) else np.asarray(coherence)
    a1 = np.asarray(a1, dtype=complex)
    h_op = np.asarray(h_op, dtype=complex)
    if a1.shape != c.shape or a1.shape != h_op.shape:
        raise ValueError("potential, operator and coherence matrix must share a shape")
    return a1 + commutator(h_op, c) / 1j


def default_coherence_matrix(track: SpectralTrack, k: int) -> CoherenceMatrix:
    """Hermitian coherence matrix from first-derivative overlaps.

    With ``D`` split as ``D = H + iK`` (``H``, ``K`` hermitian) the default
    convention maps the track data to ``C = H + K``, i.e. the hermitian part
    plus the hermitized anti-hermitian part.
    """
    d = derivative_overlaps(track, k)
    c = (d + dag(d)) / 2.0 + (d - dag(d)) / 2j
    return CoherenceMatrix(entries=c)


def default_coherence_cube(track: SpectralTrack, k: int) -> CoherenceCube:
    """Coherence cube ``H[a, b, c] = Re(D2[a, c]) delta_{bc}`` from a track."""
    d2 = second_derivative_overlaps(track, k)
    n = d2.shape[0]
    entries = np.einsum("ac,bc->abc", d2.real, np.eye(n))
    return CoherenceCube(entries=entries)


def contract_coherence_cube(cube: CoherenceCube) -> np.ndarray:
    """Contract ``sum_{abc} H_abc <b|c> |a><a|`` to its diagonal operator.

    In an orthonormal basis ``<b|c> = delta_{bc}``, so the result is
    ``diag(sum_b H[a, b, b])`` -- real diagonal, hence hermitian.
    """
    diag = np.einsum("abb->a", cube.entries)
    return np.diag(diag).astype(complex)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    if xs.size == 1:
        return np.ones(1)
    w = np.empty(xs.size)
    w[0] = 0.5 * (xs[1] - xs[0])
    w[-1] = 0.5 * (xs[-1] - xs[-2])
    if xs.size > 2:
        w[1:-1] = 0.5 * (xs[2:] - xs[:-2])
    return w


def action_functional(rhos: Sequence, potential: GaugePotential,
                      params: ActionParams) -> float:
    """Time integral of the gauge-kinetic density along the family.

    ``covariant`` mode integrates ``Tr[rho (D rho)^H (D rho)]`` (real,
    non-negative); ``scalar_like`` applies the literal operator
    ``(i d/dt - A)`` twice to ``rho`` and integrates ``Re Tr[rho (...)]`` as a
    diagnostic.  Both integrate with trapezoid weights over the interior
    nodes their stencils support.
    """
    grid = potential.grid
    if len(rhos) != grid.size:
        raise ValueError("density family and potential must share a grid")
    n = grid.size
    if params.mode == "covariant":
        if n < 3:
            raise ValueError("covariant action needs at least 3 grid points")
        integrand = np.empty(n - 2)
        for k in range(1, n - 1):
            d = covariant_derivative(rhos, potential, k)
            integrand[k - 1] = float(np.trace(rhos[k] @ dag(d) @ d).real)
        weights = _trapezoid_weights(grid[1:-1])
        return float(np.dot(weights, integrand))
    # scalar_like: X = i d(rho) - A rho on [1, n-2], then Y = i dX - A X
    if n < 5:
        raise ValueError("scalar-like action needs at least 5 grid points")
    xs = [1j * _grid_derivative(rhos, grid, k) - potential.values[k] @ rhos[k]
          for k in range(1, n - 1)]
    inner_grid = grid[1:-1]
    integrand = np.empty(n - 4)
    for j in range(1, len(xs) - 1):
        dx = (xs[j + 1] - xs[j - 1]) / (inner_grid[j + 1] - inner_grid[j - 1])
        y = 1j * dx - potential.values[j + 1] @ xs[j]
        integrand[j - 1] = float(np.trace(rhos[j + 1] @ y).real)
    weights = _trapezoid_weights(grid[2:-2])
    return float(np.dot(weights, integrand))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(a2d: GaugePotential2D, i: int, j: int) -> np.ndarray:
    """Field strength ``F_12 = d1 A_2 - d2 A_1 + [A_1, A_2]`` at interior ``(i, j)``."""
    if not (0 < i < a2d.axis1.size - 1 and 0 < j < a2d.axis2.size - 1):
        raise IndexError(f"curvature stencil needs interior indices, got ({i}, {j})")
    x1, x2 = a2d.axis1, a2d.axis2
    da2_d1 = (a2d.values2[i + 1, j] - a2d.values2[i - 1, j]) / (x1[i + 1] - x1[i - 1])
    da1_d2 = (a2d.values1[i, j + 1] - a2d.values1[i, j - 1]) / (x2[j + 1] - x2[j - 1])
    return da2_d1 - da1_d2 + commutator(a2d.values1[i, j], a2d.values2[i, j])


# ---------------------------------------------------------------------------
# charge residuals
# ---------------------------------------------------------------------------

def gauge_charge_residual(rhos: Sequence, potential: GaugePotential, k: int,
                          eps: float = 1e-5) -> np.ndarray:
    """Finite-difference functional derivative of the covariant action.

    Entry ``(a, b)`` is the central difference of the action under a
    perturbation of ``A_k`` along the Frobenius-orthonormal hermitian basis
    element indexed by ``(a, b)``; see
    :func:`udmrg.linalg.hermitian_basis_element` for the index convention.
    Real-valued because the action is real.  ``eps`` must lie in
    ``[1e-7, 1e-3]``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps!r}")
    grid = potential.grid
    if not 0 < k < grid.size - 1:
        raise IndexError(f"charge residual needs an interior index, got {k}")
    params = ActionParams(mode="covariant")
    dim = potential.values[k].shape[0]
    base = [np.asarray(v, dtype=complex) for v in potential.values]
    residual = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            direction = hermitian_basis_element(dim, a, b)
            plus = list(base)
            minus = list(base)
            plus[k] = base[k] + eps * direction
            minus[k] = base[k] - eps * direction
            s_plus = action_functional(rhos, GaugePotential(grid, plus), params)
            s_minus = action_functional(rhos, GaugePotential(grid, minus), params)
            residual[a, b] = (s_plus - s_minus) / (2.0 * eps)
    return residual


# ---------------------------------------------------------------------------
# seeded smooth families (shared by diagnostics and tests)
# ---------------------------------------------------------------------------

class _GeneratorExponential:
    """Reusable ``exp(i theta G)`` with exact parameter derivative."""

    def __init__(self, generator: np.ndarray):
        self.w, self.v = np.linalg.eigh(generator)
        self.g = np.asarray(generator, dtype=complex)

    def at(self, theta: float) -> np.ndarray:
        return (self.v * np.exp(1j * theta * self.w)) @ dag(self.v)

    def derivative(self, theta: float, dtheta: float) -> np.ndarray:
        # d/dt exp(i theta(t) G) = i theta'(t) G exp(i theta G)
        return 1j * dtheta * self.g @ self.at(theta)


@dataclass
class SmoothUnitaryFamily:
    """Unitary path with exact analytic derivatives at every grid point."""

    grid: np.ndarray
    values: list
    derivatives: list


def smooth_unitary_family(rng: np.random.Generator, dim: int, grid,
                          scale: float = 0.5) -> SmoothUnitaryFamily:
    """Random two-generator unitary path ``exp(i t1(t) G1) exp(i t2(t) G2)``.

    Angles are gentle sinusoids so third derivatives stay O(1); the exact
    product-rule derivative is returned alongside the values.
    """
    grid = np.asarray(grid, dtype=float)
    from .linalg import random_hermitian

    exp1 = _GeneratorExponential(random_hermitian(rng, dim, scale))
    exp2 = _GeneratorExponential(random_hermitian(rng, dim, scale))
    amp = rng.uniform(0.3, 0.8, size=2)
    freq = rng.uniform(0.5, 1.0, size=2)
    phase = rng.uniform(0.0, 2 * np.pi, size=2)
    values, derivatives = [], []
    for t in grid:
        t1 = amp[0] * np.sin(freq[0] * t + phase[0])
        t2 = amp[1] * np.sin(freq[1] * t + phase[1])
        dt1 = amp[0] * freq[0] * np.cos(freq[0] * t + phase[0])
        dt2 = amp[1] * freq[1] * np.cos(freq[1] * t + phase[1])
        u1, u2 = exp1.at(t1), exp2.at(t2)
        values.append(u1 @ u2)
        derivatives.append(exp1.derivative(t1, dt1) @ u2 + u1 @ exp2.derivative(t2, dt2))
    return SmoothUnitaryFamily(grid=grid, values=values, derivatives=derivatives)


def smooth_density_family(rng: np.random.Generator, dim: int, grid,
                          scale: float = 0.5) -> list:
    """Random full-rank density path ``V(t) diag(p(t)) V(t)^H``.

    Populations follow smooth positive curves normalized to unit trace, so
    the family stays strictly inside the density simplex.
    """
    grid = np.asarray(grid, dtype=float)
    unitaries = smooth_unitary_family(rng, dim, grid, scale=scale).values
    offsets = rng.uniform(-0.5, 0.5, size=dim)
    amps = rng.uniform(0.1, 0.4, size=dim)
    freqs = rng.uniform(0.5, 1.0, size=dim)
    rhos = []
    for t, v in zip(grid, unitaries):
        logits = offsets + amps * np.sin(freqs * t)
        p = np.exp(logits)
        p /= p.sum()
        rhos.append((v * p) @ dag(v))
    return rhos


def pure_gauge_potential_2d(rng: np.random.Generator, dim: int, axis1, axis2,
                            scale: float = 0.5) -> GaugePotential2D:
    """Pure-gauge two-axis potential ``A_mu = i (d_mu V) V^H`` with ``F = 0``.

    Built from a single-generator family ``V(x, y) = exp(i theta(x, y) G)``,
    giving ``A_mu = -d_mu(theta) G`` exactly.  With one generator the
    commutator term of the field strength vanishes identically and the
    continuum curl of a gradient is zero, so any numerical field strength is
    pure stencil error.  (Multi-generator families are *not* flat under the
    ``dA + [A, A]`` convention used here -- the derivative and commutator
    parts of the Maurer-Cartan identity pick up mismatched factors of ``i``
    for a hermitian potential.)
    """
    axis1 = np.asarray(axis1, dtype=float)
    axis2 = np.asarray(axis2, dtype=float)
    from .linalg import random_hermitian

    generator = random_hermitian(rng, dim, scale)
    c = rng.uniform(0.3, 0.7, size=2)
    k = rng.uniform(0.4, 1.4, size=4)

    def angle_gradient(x: float, y: float) -> tuple[float, float]:
        d1 = c[0] * k[0] * np.cos(k[0] * x + k[1] * y) \
            + c[1] * k[2] * np.cos(k[2] * x - k[3] * y)
        d2 = c[0] * k[1] * np.cos(k[0] * x + k[1] * y) \
            - c[1] * k[3] * np.cos(k[2] * x - k[3] * y)
        return d1, d2

    n1, n2 = axis1.size, axis2.size
    values1 = np.empty((n1, n2, dim, dim), dtype=complex)
    values2 = np.empty((n1, n2, dim, dim), dtype=complex)
    for i, x in enumerate(axis1):
        for j, y in enumerate(axis2):
            d1, d2 = angle_gradient(x, y)
            values1[i, j] = -d1 * generator
            values2[i, j] = -d2 * generator
    return GaugePotential2D(axis1=axis1, axis2=axis2, values1=values1, values2=values2)
