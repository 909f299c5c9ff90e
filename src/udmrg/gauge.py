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
direction; :func:`action_and_charge_residual` also integrates that integrand.

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
    require_unitary,
)
from .spectral import (
    SpectralTrack,
    derivative_overlaps,
    hermitian_eigensystem,
    second_derivative_overlaps,
)
from .truncation import is_integer

ACTION_MODES = ("covariant", "scalar_like")


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
        self.values1 = np.asarray(self.values1)
        self.values2 = np.asarray(self.values2)
        expected = (self.axis1.size, self.axis2.size)
        if self.values1.shape[:2] != expected or self.values2.shape[:2] != expected:
            raise ValueError("component arrays must be indexed by (axis1, axis2)")


# ---------------------------------------------------------------------------
# purification and potentials
# ---------------------------------------------------------------------------

def purify(rho, eigensystem=None) -> np.ndarray:
    """Principal hermitian square root ``U`` with ``U U^H = rho``.

    ``rho`` must be hermitian with unit trace.  Eigenvalues inside
    ``[-1e-12, 0)`` are clipped to zero; anything more negative raises an
    invalid-density error.  A stack ``(..., d, d)`` is validated member by
    member and purified by one stacked eigensolve,
    :func:`udmrg.spectral.hermitian_eigensystem`, whose eigenvalues also
    serve the positivity check.  A caller that holds that
    eigensystem of ``rho`` passes it in, and ``rho`` is not decomposed again.
    """
    if eigensystem is None:
        eigensystem = hermitian_eigensystem(rho, "density matrix")
    w, v = eigensystem
    traces = np.trace(np.asarray(rho), axis1=-2, axis2=-1).real
    bad = np.flatnonzero(np.abs(traces - 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"density matrix trace is {float(traces.flat[bad[0]])!r}, expected 1")
    bad = np.flatnonzero(w[..., 0] < -1e-12)
    if bad.size:
        raise ValueError(f"density matrix has negative eigenvalue {w[..., 0].flat[bad[0]]:.3e}")
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


def uhlmann_potential(rhos, grid, eigensystem=None) -> GaugePotential:
    """Gauge potential of a density family, aligned with its full grid.

    Interior points use central differences; the two endpoints fall back to
    one-sided differences (first-order accurate) so the potential can be
    integrated against the same grid as ``rhos``.  The values are an
    ``(..., n, d, d)`` stack with the leading axes of ``rhos``.  The
    amplitudes come from :func:`purify`, which takes ``eigensystem``.
    """
    grid = np.asarray(grid, dtype=float)
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError("density family must match the grid in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")
    amps = purify(r, eigensystem=eigensystem)
    du = np.concatenate([
        (amps[..., 1:2, :, :] - amps[..., :1, :, :]) / (grid[1] - grid[0]),
        _central_differences(amps, grid),
        (amps[..., -1:, :, :] - amps[..., -2:-1, :, :]) / (grid[-1] - grid[-2]),
    ], axis=-3)
    return GaugePotential(grid=grid, values=potential_from_amplitudes(amps, du))


def potential_from_amplitudes(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """``A = (dU U^H - U dU^H) / 2i`` from a derivative ``du`` the caller formed."""
    return (du @ dag(u) - u @ dag(du)) / 2j


def covariant_rate(rho: np.ndarray, d_rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``D rho = i d(rho) - [A, rho]`` from a derivative ``d_rho`` the caller formed."""
    return 1j * d_rho - commutator(a, rho)


def _covariant_derivatives(r: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``i d(rho)/dt - [A, rho]`` at every interior point of the stack ``r``.

    ``a`` holds the potential at those interior points only.
    """
    return covariant_rate(r[..., 1:-1, :, :], _central_differences(r, grid), a)


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
    c = np.asarray(coherence)
    a = np.asarray(a, dtype=complex)
    if a.shape != c.shape or a.shape != np.asarray(rho).shape:
        raise ValueError("potential, coherence matrix and density must share a shape")
    return a + commutator(c, np.asarray(rho, dtype=complex)) / 1j


def categorical_potential_2(a1, h_op, coherence) -> np.ndarray:
    """Second categorical correction ``A1 + [H_op, C] / i``.

    ``h_op`` is the already-contracted coherence-cube operator, e.g. from
    :func:`contract_coherence_cube`.
    """
    c = np.asarray(coherence)
    a1 = np.asarray(a1, dtype=complex)
    h_op = np.asarray(h_op, dtype=complex)
    if a1.shape != c.shape or a1.shape != h_op.shape:
        raise ValueError("potential, operator and coherence matrix must share a shape")
    return a1 + commutator(h_op, c) / 1j


def default_coherence_matrix(track: SpectralTrack, k: int) -> np.ndarray:
    """Hermitian coherence matrix ``C`` from first-derivative overlaps.

    With ``D`` split as ``D = H + iK`` (``H``, ``K`` hermitian) the default
    convention maps the track data to ``C = H + K``, i.e. the hermitian part
    plus the hermitized anti-hermitian part.  A stacked track gives the
    stack ``(..., d, d)``.
    """
    d = derivative_overlaps(track, k)
    return hermitian_part((d + dag(d)) / 2.0 + (d - dag(d)) / 2j)


def default_coherence_cube(track: SpectralTrack, k: int) -> np.ndarray:
    """Real coherence cube ``H[a, b, c] = Re(D2[a, c]) delta_{bc}`` from a track.

    A stacked track gives the stack ``(..., d, d, d)``.
    """
    d2 = second_derivative_overlaps(track, k)
    return np.einsum("...ac,bc->...abc", d2.real, np.eye(d2.shape[-1]))


def contract_coherence_cube(cube) -> np.ndarray:
    """Contract ``sum_{abc} H_abc <b|c> |a><a|`` to its diagonal operator.

    ``cube`` is a real ``(..., d, d, d)`` array, one cube per leading index.
    In an orthonormal basis ``<b|c> = delta_{bc}``, so the result is
    ``diag(sum_b H[a, b, b])`` -- real diagonal, hence hermitian.
    """
    e = np.asarray(cube)
    if e.ndim < 3 or len(set(e.shape[-3:])) != 1:
        raise ValueError(f"coherence cube must be cubic rank-3, got shape {e.shape}")
    if np.iscomplexobj(e) and max_abs(e.imag) > 1e-12:
        raise ValueError("coherence cube entries must be real")
    diag = np.einsum("...abb->...a", e.real)
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
    """Weighted sum of a C-contiguous integrand, or of each row of a stacked one.

    Every sum is one ``np.dot`` of two contiguous 1-D arrays, the rows taken
    in one flat pass over the stack: a matrix-vector product over the stack
    takes another BLAS kernel, which rounds differently.  A float for one
    row, an array over the leading axes for a stack.
    """
    if integrand.ndim == 1:
        return float(np.dot(weights, integrand))
    rows = integrand.reshape(-1, integrand.shape[-1])
    return np.array([np.dot(weights, row) for row in rows]).reshape(integrand.shape[:-1])


def _covariant_integrand(r: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``Tr[rho (D rho)^H (D rho)]`` at every interior point of the stack ``r``.

    ``a`` holds the potential at those interior points only.
    """
    d = _covariant_derivatives(r, a, grid)
    return _traces(r[..., 1:-1, :, :] @ dag(d) @ d)


def action_functional(rhos, potential: GaugePotential, mode: str = "covariant"):
    """Time integral of the gauge-kinetic density along the family.

    ``covariant`` mode integrates ``Tr[rho (D rho)^H (D rho)]`` (real,
    non-negative); ``scalar_like`` applies the literal operator
    ``(i d/dt - A)`` twice to ``rho`` and integrates ``Re Tr[rho (...)]`` as a
    diagnostic.  Both integrate with trapezoid weights over the interior
    nodes their stencils support.  A float for one family; an array over the
    leading axes for a stack.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")
    grid = potential.grid
    r = _family(rhos)
    if r.shape[-3] != grid.size:
        raise ValueError("density family and potential must share a grid")
    n = grid.size
    a = potential.values
    if mode == "covariant":
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

def action_and_charge_residual(rhos, potential: GaugePotential, k: int,
                               eps: float = 1e-5) -> tuple:
    """The covariant :func:`action_functional` and the
    :func:`gauge_charge_residual` at ``k``, from one covariant integrand.

    Each equals what its own function returns, bit for bit.
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
    weights = _trapezoid_weights(grid[1:-1])
    actions = _integrate(weights, terms)
    residual = (actions[..., 0, :] - actions[..., 1, :]) / (2.0 * eps)
    return _integrate(weights, integrand), residual.reshape(residual.shape[:-1] + (dim, dim))


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
    the residuals come back as ``(..., d, d)``.  A caller that also needs
    the covariant action takes both from :func:`action_and_charge_residual`.
    """
    return action_and_charge_residual(rhos, potential, k, eps)[1]


# ---------------------------------------------------------------------------
# seeded smooth families (shared by diagnostics and tests)
# ---------------------------------------------------------------------------

#: ``(low, high)`` of each run of uniform parameters, in draw order: a
#: unitary path's two angle amplitudes, frequencies and phases, then a
#: density path's ``d`` population offsets, amplitudes and frequencies
_UNIFORM_BOUNDS = np.array([(0.3, 0.8), (0.5, 1.0), (0.0, 2 * np.pi),
                            (-0.5, 0.5), (0.1, 0.4), (0.5, 1.0)])


def _uniform(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``low + (high - low) u`` for each ``(low, high)`` row of ``bounds``:
    what ``Generator.uniform`` computes from the same ``random`` draws."""
    return bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u


def _seeded_draws(rng, dim, grid, counts: tuple) -> tuple:
    """The validated grid, then a family's two hermitian generators
    ``(2, d, d)`` at scale 0.5 and its uniform parameters: ``counts[i]`` of
    them in the bounds ``_UNIFORM_BOUNDS[i]``, one array per count.

    ``rng`` is a generator, or a non-empty sequence of them for a stack of
    families, whose draws then gain a leading axis.  Each generator makes
    two calls: one normal draw of both generators (the stream and arithmetic
    of two :func:`udmrg.linalg.random_hermitian` calls) and one ``random``
    block of every uniform parameter (the stream and arithmetic of one
    ``Generator.uniform`` call per count), so a family draws the same
    numbers alone as in a stack.  Each transform runs once over the stack.
    """
    if not is_integer(dim) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a 1-D array of finite values")
    alone = isinstance(rng, np.random.Generator)
    generators = [rng] if alone else list(rng)
    if not generators:
        raise ValueError("rng must be a generator or a non-empty sequence of them")
    bounds = np.repeat(_UNIFORM_BOUNDS[:len(counts)], counts, axis=0)
    normals = np.array([g.normal(size=(2, 2, dim, dim)) for g in generators])
    uniforms = _uniform(np.array([g.random(len(bounds)) for g in generators]), bounds)
    draws = (0.5 * hermitian_part(normals[:, :, 0] + 1j * normals[:, :, 1]),
             *np.split(uniforms, np.cumsum(counts)[:-1], axis=-1))
    return grid, *(tuple(x[0] for x in draws) if alone else draws)


def _exponential_path(generator: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``exp(i theta G)`` along stacked angles.

    ``generator`` is ``(..., d, d)`` and the angles ``(..., n)``.
    """
    w, v = np.linalg.eigh(generator)
    phases = np.exp(1j * theta[..., :, None] * w[..., None, :])
    return (v[..., None, :, :] * phases[..., :, None, :]) @ dag(v)[..., None, :, :]


def _unitary_factors(generators: np.ndarray, amp: np.ndarray, freq: np.ndarray,
                     phase: np.ndarray, grid: np.ndarray) -> list[np.ndarray]:
    """The factors of ``exp(i t1(t) G1) exp(i t2(t) G2)``, ``t_k = a_k sin(w_k t + phi_k)``.

    Values only: a density path never needs the derivatives.
    """
    return [_exponential_path(generators[..., k, :, :],
                              amp[..., k, None]
                              * np.sin(freq[..., k, None] * grid + phase[..., k, None]))
            for k in range(2)]


@dataclass
class SmoothUnitaryFamily:
    """Unitary path with exact analytic derivatives at every grid point."""

    grid: np.ndarray
    values: np.ndarray  # (..., n, d, d)
    derivatives: np.ndarray  # (..., n, d, d)


def smooth_unitary_family(rng, dim: int, grid) -> SmoothUnitaryFamily:
    """Random two-generator unitary path ``exp(i t1(t) G1) exp(i t2(t) G2)``.

    Angles are gentle sinusoids so third derivatives stay O(1); the exact
    product-rule derivative is returned alongside the values.  ``rng`` is a
    generator, or a non-empty sequence of them for a stack of families: each
    draws its own parameters, and the paths are evaluated together.
    """
    grid, generators, amp, freq, phase = _seeded_draws(rng, dim, grid, (2, 2, 2))
    u1, u2 = _unitary_factors(generators, amp, freq, phase, grid)

    def factor_derivative(k: int, u: np.ndarray) -> np.ndarray:
        # d/dt exp(i t_k(t) G_k) = i t_k'(t) G_k exp(i t_k G_k)
        dtheta = amp[..., k, None] * freq[..., k, None] * np.cos(
            freq[..., k, None] * grid + phase[..., k, None])
        return (1j * dtheta[..., :, None, None]
                * np.asarray(generators[..., k, :, :], dtype=complex)[..., None, :, :]) @ u

    # the product rule, one factor derivative alive at a time
    derivatives = factor_derivative(0, u1) @ u2
    derivatives += u1 @ factor_derivative(1, u2)
    return SmoothUnitaryFamily(grid=grid, values=u1 @ u2, derivatives=derivatives)


def smooth_density_family(rng, dim: int, grid) -> np.ndarray:
    """Random full-rank density path ``V(t) diag(p(t)) V(t)^H``, an ``(n, d, d)`` stack.

    Populations follow smooth positive curves normalized to unit trace, so
    the family stays strictly inside the density simplex.  For a sequence of
    generators the result is ``(F, n, d, d)``, one family per generator.
    """
    grid, *path, offsets, amps, freqs = _seeded_draws(rng, dim, grid, (2, 2, 2, dim, dim, dim))
    v = np.matmul(*_unitary_factors(*path, grid))
    p = np.exp(offsets[..., None, :]
               + amps[..., None, :] * np.sin(freqs[..., None, :] * grid[:, None]))
    p /= p.sum(axis=-1, keepdims=True)
    return (v * p[..., :, None, :]) @ dag(v)


def pure_gauge_potential_2d(rng: np.random.Generator, dim: int, axis1, axis2) -> GaugePotential2D:
    """Pure-gauge two-axis potential ``A_mu = i (d_mu V) V^H`` with ``F = 0``.

    Built from a single-generator family ``V(x, y) = exp(i theta(x, y) G)``,
    ``G`` a random hermitian matrix at scale 0.5, giving
    ``A_mu = -d_mu(theta) G`` exactly.  With one generator the commutator
    term of the field strength vanishes identically and the continuum curl
    of a gradient is zero, so any numerical field strength is pure stencil
    error.  (Multi-generator families are *not* flat under the
    ``dA + [A, A]`` convention used here -- the derivative and commutator
    parts of the Maurer-Cartan identity pick up mismatched factors of ``i``
    for a hermitian potential.)
    """
    axis1 = np.asarray(axis1, dtype=float)
    axis2 = np.asarray(axis2, dtype=float)
    generator = random_hermitian(rng, dim, 0.5)
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
