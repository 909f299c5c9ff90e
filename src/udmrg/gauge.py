"""Gauge structure carried by density-matrix families.

A density-matrix path ``rho(t)`` is purified pointwise through its principal
hermitian square root ``U = sqrt(rho)`` (the positive root fixes the otherwise
arbitrary purification gauge).  From the amplitudes one builds

* the gauge potential        ``A = (dU U^H - U dU^H) / 2i``
* the covariant derivative   ``D rho = i d(rho)/dt - [A, rho]``
* first/second categorical corrections ``A1 = A + [C, rho]/i`` and
  ``A2 = A1 + [H_op, C]/i``,

plus action functionals, the pointwise field strength of a two-axis
potential, and finite-difference charge residuals.  All derivatives are
finite differences on the caller's grid; the pointwise operations insist on
interior indices while the family-level constructors fall back to one-sided
stencils at the ends so that potentials stay aligned with their grids.

A family is an ``(n, d, d)`` stack over its ``n``-point grid, and every
function of a family also takes leading axes ``(..., n, d, d)`` that stack
families sharing a grid: one eigensolve purifies all of them, and the
potentials, covariant derivatives, coherence data, action integrands and
charge residuals are formed for every family at once.  Results keep the
leading axes; an action is a float for one family and an array for a stack.
A single family is the case without leading axes, and stacking changes no
bit of any member's result.  Every member is still validated on its own.  A
charge residual perturbs one ``A_k`` at a time, so it computes the action
integrand once and recomputes only the ``k``-th term for each perturbed
direction.

Note on hermiticity: with hermitian ``A`` and ``rho`` both terms of
``D rho`` are anti-hermitian, so the covariant derivative itself is
anti-hermitian; the quantities derived from it (``(D rho)^H (D rho)`` and the
actions) are unaffected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    commutator,
    dag,
    hermitian_basis_element,
    hermitian_part,
    max_abs,
    random_hermitian,
    require_hermitian,
    require_square,
    require_unitary,
)
from .spectral import SpectralTrack, derivative_overlaps, second_derivative_overlaps

ACTION_MODES = ("covariant", "scalar_like")


@dataclass(frozen=True)
class ActionParams:
    """Mode of the action functionals."""

    mode: str = "covariant"

    def __post_init__(self) -> None:
        if self.mode not in ACTION_MODES:
            raise ValueError(f"mode must be one of {ACTION_MODES}, got {self.mode!r}")


@dataclass
class GaugePotential:
    """Hermitian potential sampled over a one-dimensional grid.

    ``values`` holds one ``(d, d)`` matrix per grid point, behind any leading
    family axes: an ``(..., n, d, d)`` stack, built at construction from a
    sequence of matrices as well.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.values.ndim < 3 or self.values.shape[-3] != self.grid.size:
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

    def __post_init__(self) -> None:
        self.axis1 = np.asarray(self.axis1, dtype=float)
        self.axis2 = np.asarray(self.axis2, dtype=float)
        expected = (self.axis1.size, self.axis2.size)
        if self.values1.shape[:2] != expected or self.values2.shape[:2] != expected:
            raise ValueError("component arrays must be indexed by (axis1, axis2)")


@dataclass
class CoherenceMatrix:
    """Hermitian coherence operator ``C``, or a stack ``(..., d, d)`` of them;
    symmetrized at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = hermitian_part(require_square(self.entries, "coherence matrix"))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass
class CoherenceCube:
    """Rank-3 coherence data ``H[a, b, c]``, real at construction.

    A stack ``(..., d, d, d)`` holds one cube per leading index.

    The literal operator contraction ``sum_{abc} H_abc <b|c> |a><a|`` in an
    orthonormal basis collapses the middle index against the third and yields
    a real diagonal operator; see :func:`contract_coherence_cube`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries)
        if e.ndim < 3 or len(set(e.shape[-3:])) != 1:
            raise ValueError(f"coherence cube must be cubic rank-3, got shape {e.shape}")
        if np.iscomplexobj(e) and max_abs(e.imag) > 1e-12:
            raise ValueError("coherence cube entries must be real")
        self.entries = e.real.astype(float)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


# ---------------------------------------------------------------------------
# purification and potentials
# ---------------------------------------------------------------------------

def _hermitian_unit_trace(rhos, tol: float) -> np.ndarray:
    """Hermiticity and unit trace of a density matrix, or of each member of a stack."""
    r = require_hermitian(rhos, tol, "density matrix")
    traces = np.trace(r, axis1=-2, axis2=-1).real
    bad = np.flatnonzero(np.abs(traces - 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"density matrix trace is {float(traces.flat[bad[0]])!r}, expected 1")
    return r


def _require_positive(eigenvalues: np.ndarray, tol: float) -> None:
    lowest = eigenvalues[..., 0]
    bad = np.flatnonzero(lowest < -tol)
    if bad.size:
        raise ValueError(f"density matrix has negative eigenvalue {lowest.flat[bad[0]]:.3e}")


def purify(rho, tol: float = 1e-12) -> np.ndarray:
    """Principal hermitian square root ``U`` with ``U U^H = rho``.

    ``rho`` must be hermitian with unit trace.  Eigenvalues inside
    ``[-tol, 0)`` are clipped to zero; anything more negative raises an
    invalid-density error.  A stack ``(..., d, d)`` is validated member by
    member and purified by one stacked eigensolve, whose eigenvalues also
    serve the positivity check.
    """
    r = _hermitian_unit_trace(rho, tol)
    w, v = np.linalg.eigh(r)
    _require_positive(w, tol)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dag(v)


def _family(rhos) -> np.ndarray:
    """A density family as an array; its grid runs along axis ``-3``."""
    r = np.asarray(rhos)
    if r.ndim < 3:
        raise ValueError(f"a family is an (..., n, d, d) stack, got shape {r.shape}")
    return r


def _central_differences(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``(f[k+1] - f[k-1]) / (x[k+1] - x[k-1])`` at every interior ``k`` of a stack."""
    return ((values[..., 2:, :, :] - values[..., :-2, :, :])
            / (grid[2:] - grid[:-2])[:, None, None])


def uhlmann_potential(rhos, grid) -> GaugePotential:
    """Gauge potential of a density family, aligned with its full grid.

    Interior points use central differences; the two endpoints fall back to
    one-sided differences (first-order accurate) so the potential can be
    integrated against the same grid as ``rhos``.  The values are an
    ``(..., n, d, d)`` stack with the leading axes of ``rhos``.
    """
    grid = np.asarray(grid, dtype=float)
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError("density family must match the grid in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")
    amps = purify(r)
    du = np.concatenate([
        (amps[..., 1:2, :, :] - amps[..., :1, :, :]) / (grid[1] - grid[0]),
        _central_differences(amps, grid),
        (amps[..., -1:, :, :] - amps[..., -2:-1, :, :]) / (grid[-1] - grid[-2]),
    ], axis=-3)
    values = (du @ dag(amps) - amps @ dag(du)) / 2j
    return GaugePotential(grid=grid, values=values)


def _covariant_derivatives(r: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``i d(rho)/dt - [A, rho]`` at every interior point of the stack ``r``.

    ``a`` holds the potential at those interior points only.
    """
    return 1j * _central_differences(r, grid) - commutator(a, r[..., 1:-1, :, :])


def covariant_derivative(rhos, potential: GaugePotential, k: int) -> np.ndarray:
    """``i d(rho)/dt - [A_k, rho_k]`` at interior grid index ``k``.

    Anti-hermitian for hermitian inputs (see the module note); its
    conjugation behaviour under gauge transforms is what matters downstream.
    """
    grid = potential.grid
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError(
            f"mismatched grids: {r.shape[-3]} density samples vs {grid.size} potential points"
        )
    if not 0 < k < grid.size - 1:
        raise IndexError(f"covariant derivative needs an interior index, got {k}")
    window = slice(k - 1, k + 2)
    return _covariant_derivatives(r[..., window, :, :], potential.values[..., k:k + 1, :, :],
                                  grid[window])[..., 0, :, :]


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
    n = d2.shape[-1]
    entries = np.einsum("...ac,bc->...abc", d2.real, np.eye(n))
    return CoherenceCube(entries=entries)


def contract_coherence_cube(cube: CoherenceCube) -> np.ndarray:
    """Contract ``sum_{abc} H_abc <b|c> |a><a|`` to its diagonal operator.

    In an orthonormal basis ``<b|c> = delta_{bc}``, so the result is
    ``diag(sum_b H[a, b, b])`` -- real diagonal, hence hermitian.
    """
    diag = np.einsum("...abb->...a", cube.entries)
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,), dtype=complex)
    out[..., np.arange(n), np.arange(n)] = diag
    return out


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


def _traces(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each member of a stack, made contiguous.

    ``np.dot`` with a strided view takes another BLAS kernel, which rounds
    differently, so every row :func:`_integrate` sums must be contiguous.
    """
    return np.ascontiguousarray(np.trace(m, axis1=-2, axis2=-1).real)


def _integrate(weights: np.ndarray, integrand: np.ndarray):
    """Weighted sum of an integrand, or of each row of a stacked one.

    Every sum is one ``np.dot`` of two contiguous 1-D arrays: a
    matrix-vector product over the stack takes another BLAS kernel, which
    rounds differently.  A float for one row, an array for a stack.
    """
    if integrand.ndim == 1:
        return float(np.dot(weights, integrand))
    return np.array([_integrate(weights, row) for row in integrand])


def _covariant_integrand(r: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``Tr[rho (D rho)^H (D rho)]`` at every interior point of the stack ``r``.

    ``a`` holds the potential at those interior points only.
    """
    d = _covariant_derivatives(r, a, grid)
    return _traces(r[..., 1:-1, :, :] @ dag(d) @ d)


def action_functional(rhos, potential: GaugePotential, params: ActionParams):
    """Time integral of the gauge-kinetic density along the family.

    ``covariant`` mode integrates ``Tr[rho (D rho)^H (D rho)]`` (real,
    non-negative); ``scalar_like`` applies the literal operator
    ``(i d/dt - A)`` twice to ``rho`` and integrates ``Re Tr[rho (...)]`` as a
    diagnostic.  Both integrate with trapezoid weights over the interior
    nodes their stencils support.  A float for one family; an array over the
    leading axes for a stack.
    """
    grid = potential.grid
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError("density family and potential must share a grid")
    n = grid.size
    a = potential.values
    if params.mode == "covariant":
        if n < 3:
            raise ValueError("covariant action needs at least 3 grid points")
        integrand = _covariant_integrand(r, a[..., 1:-1, :, :], grid)
        return _integrate(_trapezoid_weights(grid[1:-1]), integrand)
    # scalar_like: X = i d(rho) - A rho on [1, n-2], then Y = i dX - A X
    if n < 5:
        raise ValueError("scalar-like action needs at least 5 grid points")
    xs = 1j * _central_differences(r, grid) - a[..., 1:-1, :, :] @ r[..., 1:-1, :, :]
    y = 1j * _central_differences(xs, grid[1:-1]) - a[..., 2:-2, :, :] @ xs[..., 1:-1, :, :]
    return _integrate(_trapezoid_weights(grid[2:-2]), _traces(r[..., 2:-2, :, :] @ y))


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

def gauge_charge_residual(rhos, potential: GaugePotential, k: int,
                          eps: float = 1e-5) -> np.ndarray:
    """Finite-difference functional derivative of the covariant action.

    Entry ``(a, b)`` is the central difference of the action under a
    perturbation of ``A_k`` along the Frobenius-orthonormal hermitian basis
    element indexed by ``(a, b)``; see
    :func:`udmrg.linalg.hermitian_basis_element` for the index convention.
    Real-valued because the action is real.  ``eps`` must lie in
    ``[1e-7, 1e-3]``.

    Only the ``k``-th integrand term depends on ``A_k``: the integrand and
    the trapezoid weights are computed once, and each perturbed action
    recomputes that one term in a copy of the integrand, so it equals the
    full action of the perturbed potential bit for bit.  All ``2 d^2``
    perturbed terms of every family of a stack form one stacked integrand;
    the residuals come back as ``(..., d, d)``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps!r}")
    grid = potential.grid
    if not 0 < k < grid.size - 1:
        raise IndexError(f"charge residual needs an interior index, got {k}")
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError("density family and potential must share a grid")
    a = np.asarray(potential.values[..., 1:-1, :, :], dtype=complex)
    integrand = _covariant_integrand(r, a, grid)
    dim = a.shape[-1]
    # the +eps and -eps potentials at k along every basis direction,
    # (..., 2, d^2, 1, d, d) against the window (..., 1, 1, 3, d, d)
    steps = eps * np.array([hermitian_basis_element(dim, i, j)
                            for i in range(dim) for j in range(dim)])
    a_k = a[..., None, k - 1, :, :]
    perturbed = np.stack([a_k + steps, a_k - steps], axis=-4)[..., None, :, :]
    window = slice(k - 1, k + 2)
    perturbed_terms = _covariant_integrand(r[..., None, None, window, :, :], perturbed,
                                           grid[window])[..., 0]
    terms = np.broadcast_to(integrand[..., None, None, :],
                            perturbed_terms.shape + integrand.shape[-1:]).copy()
    terms[..., k - 1] = perturbed_terms
    actions = _integrate(_trapezoid_weights(grid[1:-1]), terms)
    residual = (actions[..., 0, :] - actions[..., 1, :]) / (2.0 * eps)
    return residual.reshape(residual.shape[:-1] + (dim, dim))


# ---------------------------------------------------------------------------
# seeded smooth families (shared by diagnostics and tests)
# ---------------------------------------------------------------------------

def _per_family(rng, draw) -> tuple:
    """``draw(rng)``; for a sequence of generators, each one's draws stacked.

    Each generator makes its draws in turn, so a family draws the same
    numbers whether it is drawn alone or in a stack.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return tuple(np.stack(parts) for parts in zip(*(draw(g) for g in rng)))


def _unitary_draws(rng: np.random.Generator, dim: int, scale: float) -> tuple:
    """Two generators ``(2, d, d)`` and the amplitudes, frequencies and phases
    of their angles, in draw order."""
    generators = np.stack([random_hermitian(rng, dim, scale) for _ in range(2)])
    return (generators, rng.uniform(0.3, 0.8, size=2), rng.uniform(0.5, 1.0, size=2),
            rng.uniform(0.0, 2 * np.pi, size=2))


def _exponential_path(generator: np.ndarray, theta: np.ndarray,
                      dtheta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(i theta G)`` along stacked angles, with its exact derivative.

    ``generator`` is ``(..., d, d)`` and the angles ``(..., n)``;
    ``d/dt exp(i theta(t) G) = i theta'(t) G exp(i theta G)``.
    """
    w, v = np.linalg.eigh(generator)
    phases = np.exp(1j * theta[..., :, None] * w[..., None, :])
    u = (v[..., None, :, :] * phases[..., :, None, :]) @ dag(v)[..., None, :, :]
    du = (1j * dtheta[..., :, None, None]
          * np.asarray(generator, dtype=complex)[..., None, :, :]) @ u
    return u, du


def _unitary_path(generators: np.ndarray, amp: np.ndarray, freq: np.ndarray,
                  phase: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and exact derivatives of ``exp(i t1(t) G1) exp(i t2(t) G2)``."""
    (u1, du1), (u2, du2) = (
        _exponential_path(
            generators[..., i, :, :],
            amp[..., i, None] * np.sin(freq[..., i, None] * grid + phase[..., i, None]),
            amp[..., i, None] * freq[..., i, None]
            * np.cos(freq[..., i, None] * grid + phase[..., i, None]))
        for i in range(2))
    return u1 @ u2, du1 @ u2 + u1 @ du2


@dataclass
class SmoothUnitaryFamily:
    """Unitary path with exact analytic derivatives at every grid point."""

    grid: np.ndarray
    values: np.ndarray  # (..., n, d, d)
    derivatives: np.ndarray  # (..., n, d, d)


def smooth_unitary_family(rng, dim: int, grid, scale: float = 0.5) -> SmoothUnitaryFamily:
    """Random two-generator unitary path ``exp(i t1(t) G1) exp(i t2(t) G2)``.

    Angles are gentle sinusoids so third derivatives stay O(1); the exact
    product-rule derivative is returned alongside the values.  ``rng`` is a
    generator, or a sequence of them for a stack of families: each draws its
    own parameters, and the paths are evaluated together.
    """
    grid = np.asarray(grid, dtype=float)
    values, derivatives = _unitary_path(
        *_per_family(rng, lambda g: _unitary_draws(g, dim, scale)), grid)
    return SmoothUnitaryFamily(grid=grid, values=values, derivatives=derivatives)


def _density_draws(rng: np.random.Generator, dim: int, scale: float) -> tuple:
    """The unitary path's draws, then the populations' offsets, amplitudes
    and frequencies."""
    return (*_unitary_draws(rng, dim, scale), rng.uniform(-0.5, 0.5, size=dim),
            rng.uniform(0.1, 0.4, size=dim), rng.uniform(0.5, 1.0, size=dim))


def smooth_density_family(rng, dim: int, grid, scale: float = 0.5) -> np.ndarray:
    """Random full-rank density path ``V(t) diag(p(t)) V(t)^H``, an ``(n, d, d)`` stack.

    Populations follow smooth positive curves normalized to unit trace, so
    the family stays strictly inside the density simplex.  For a sequence of
    generators the result is ``(F, n, d, d)``, one family per generator.
    """
    grid = np.asarray(grid, dtype=float)
    *path, offsets, amps, freqs = _per_family(rng, lambda g: _density_draws(g, dim, scale))
    v, _ = _unitary_path(*path, grid)
    p = np.exp(offsets[..., None, :]
               + amps[..., None, :] * np.sin(freqs[..., None, :] * grid[:, None]))
    p /= p.sum(axis=-1, keepdims=True)
    return (v * p[..., :, None, :]) @ dag(v)


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
    generator = random_hermitian(rng, dim, scale)
    c = rng.uniform(0.3, 0.7, size=2)
    k = rng.uniform(0.4, 1.4, size=4)
    x, y = axis1[:, None], axis2[None, :]
    # the angle gradient (d theta/dx, d theta/dy) over the whole plane
    d1 = c[0] * k[0] * np.cos(k[0] * x + k[1] * y) \
        + c[1] * k[2] * np.cos(k[2] * x - k[3] * y)
    d2 = c[0] * k[1] * np.cos(k[0] * x + k[1] * y) \
        - c[1] * k[3] * np.cos(k[2] * x - k[3] * y)
    values1 = -d1[..., None, None] * generator
    values2 = -d2[..., None, None] * generator
    return GaugePotential2D(axis1=axis1, axis2=axis2, values1=values1, values2=values2)
