import re

import numpy as np
import pytest
from scipy.optimize import minimize

from udmrg.gauge import (
    GaugePotential,
    GaugePotential2D,
    _integrate,
    _trapezoid_weights,
    action_and_charge_residual,
    action_functional,
    categorical_potential_1,
    categorical_potential_2,
    contract_coherence_cube,
    covariant_derivative,
    curvature,
    default_coherence_cube,
    default_coherence_matrix,
    gauge_charge_residual,
    gauge_transform,
    pure_gauge_potential_2d,
    purify,
    smooth_density_family,
    smooth_unitary_family,
    uhlmann_potential,
)
from udmrg.linalg import (
    dag,
    hermitian_basis_element,
    hermitian_part,
    hermiticity_residual,
    max_abs,
    random_hermitian,
    random_unitary,
)
from udmrg.models import PAULI_X, PAULI_Z
from udmrg.spectral import hermitian_eigensystem, track_hermitian_family

from helpers import PAULI_Y


def constant_potential_2d(a1, a2, axis):
    n = len(axis)
    values1 = np.broadcast_to(a1, (n, n) + a1.shape).copy()
    values2 = np.broadcast_to(a2, (n, n) + a2.shape).copy()
    return GaugePotential2D(axis1=axis, axis2=axis, values1=values1, values2=values2)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def test_purify_diagonal_density():
    rho = np.diag([0.64, 0.36]).astype(complex)
    np.testing.assert_allclose(purify(rho), np.diag([0.8, 0.6]), atol=1e-14)


def test_purify_squares_back_to_rho():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(0.05, 1.0, size=4)
        p /= p.sum()
        v = random_unitary(rng, 4)
        rho = (v * p) @ dag(v)
        u = purify(rho)
        assert hermiticity_residual(u) < 1e-12
        np.testing.assert_allclose(u @ dag(u), rho, atol=1e-12)


def test_purify_handles_rank_deficiency():
    rho = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(purify(rho), rho, atol=1e-14)


def test_density_validation():
    with pytest.raises(ValueError, match="trace"):
        purify(np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        purify(np.diag([1.1, -0.1]))
    with pytest.raises(ValueError, match="hermitian"):
        purify(np.array([[0.5, 0.3], [0.0, 0.5]]))
    # a passed eigensystem skips only the decomposition
    with pytest.raises(ValueError, match="trace"):
        purify(np.diag([0.5, 0.4]), eigensystem=np.linalg.eigh(np.diag([0.5, 0.4])))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_uhlmann_potential_rotating_density_oracle():
    """rho(t) = V diag(0.9, 0.1) V^H with V = exp(-i sx t) has A = -0.2 sx.

    The positive root is U = V S V^H with S = diag(sqrt 0.9, sqrt 0.1), so
    ``(dU U^H - U dU^H) / 2i = -(sqrt 0.9 - sqrt 0.1)^2 / 2 sx`` exactly.
    """
    h = 1e-3
    grid = np.array([-h, 0.0, h]) + 0.2
    rho0 = np.diag([0.9, 0.1]).astype(complex)
    rotations = [np.cos(t) * np.eye(2) - 1j * np.sin(t) * PAULI_X for t in grid]
    rhos = [v @ rho0 @ dag(v) for v in rotations]
    a = uhlmann_potential(rhos, grid).values[1]
    np.testing.assert_allclose(a, -0.2 * PAULI_X, atol=1e-6)
    assert hermiticity_residual(a) < 1e-14


def test_uhlmann_potential_is_hermitian_and_grid_aligned():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 9)
    rhos = smooth_density_family(rng, 3, grid)
    pot = uhlmann_potential(rhos, grid)
    assert pot.grid.size == 9
    for v in pot.values:
        assert hermiticity_residual(v) < 1e-10


def asymmetry_message(name, m, tol=1e-12):
    """The message a single non-hermitian matrix has always raised."""
    res = max_abs(m - dag(m))
    scale = max(max_abs(m), 1.0)
    return (f"{name} is not hermitian: max asymmetry {res:.3e} exceeds "
            f"tolerance {tol * scale:.3e}")


def family_with(member, index=3, n=7):
    """A smooth 2x2 density family on ``n`` points with one member replaced."""
    grid = np.linspace(0.0, 1.0, n)
    rhos = list(smooth_density_family(np.random.default_rng(21), 2, grid))
    rhos[index] = np.asarray(member, dtype=complex)
    return rhos, grid


def test_uhlmann_potential_validates_every_member():
    skew = np.array([[0.5, 0.3 + 1e-6], [0.3, 0.5]])
    rhos, grid = family_with(skew)
    with pytest.raises(ValueError, match=re.escape(asymmetry_message("density matrix", skew))):
        uhlmann_potential(rhos, grid)
    # with two faulty members the first one is quoted
    worse = np.array([[0.5, 0.3 + 1e-3], [0.3, 0.5]])
    rhos[5] = worse
    with pytest.raises(ValueError, match=re.escape(asymmetry_message("density matrix", skew))):
        uhlmann_potential(rhos, grid)

    rhos, grid = family_with(np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match=re.escape("density matrix trace is 0.9, expected 1")):
        uhlmann_potential(rhos, grid)

    rhos, grid = family_with(np.diag([1.001, -0.001]))
    with pytest.raises(ValueError, match=re.escape(
            "density matrix has negative eigenvalue -1.000e-03")):
        uhlmann_potential(rhos, grid)


def test_uhlmann_potential_clips_a_member_just_below_zero():
    """An eigenvalue inside [-tol, 0) is clipped to zero, not rejected."""
    member = np.diag([1.0 + 5e-13, -5e-13]).astype(complex)
    rhos, grid = family_with(member)
    pot = uhlmann_potential(rhos, grid)
    assert pot.values.shape[0] == grid.size
    assert np.all(np.isfinite(pot.values[3]))
    assert hermiticity_residual(pot.values[3]) < 1e-10
    amp = purify(member)
    assert amp[1, 1] == 0.0
    np.testing.assert_allclose(amp, np.diag([1.0, 0.0]), atol=1e-12)


def test_purify_of_a_stack_equals_purify_of_each_member():
    rhos = smooth_density_family(np.random.default_rng(22), 3, np.linspace(0.0, 1.0, 6))
    stacked = purify(rhos)
    for rho, amp in zip(rhos, stacked):
        np.testing.assert_array_equal(amp, purify(rho))


def test_track_validates_every_member():
    grid = np.linspace(0.0, 1.0, 5)
    mats = [np.diag([t, -t]).astype(complex) for t in grid]
    skew = np.array([[0.1, 1e-6], [0.0, -0.1]], dtype=complex)
    mats[2] = skew
    with pytest.raises(ValueError, match=re.escape(asymmetry_message("input", skew))):
        track_hermitian_family(grid, mats)


def test_uhlmann_potential_length_checks():
    with pytest.raises(ValueError, match="match the grid"):
        uhlmann_potential([np.eye(2) / 2], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="at least two"):
        uhlmann_potential([np.eye(2) / 2], np.array([0.0]))


def test_covariant_derivative_vanishes_on_transported_family():
    """rho(t) = V rho0 V^H with the exact potential herm(i dV V^H)."""
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 0.1, 11)
    fam = smooth_unitary_family(rng, 3, grid)
    p = np.array([0.5, 0.3, 0.2])
    rho0 = np.diag(p).astype(complex)
    rhos = [v @ rho0 @ dag(v) for v in fam.values]
    values = [hermitian_part(1j * dv @ dag(v))
              for v, dv in zip(fam.values, fam.derivatives)]
    pot = GaugePotential(grid=grid, values=values)
    for k in (1, 5, 9):
        assert max_abs(covariant_derivative(rhos, pot, k)) < 1e-4
    assert action_functional(rhos, pot) < 1e-8


def test_covariant_derivative_index_and_grid_checks():
    grid = np.linspace(0, 1, 5)
    rhos = [np.eye(2, dtype=complex) / 2] * 5
    pot = uhlmann_potential(rhos, grid)
    with pytest.raises(IndexError, match="interior"):
        covariant_derivative(rhos, pot, 4)
    with pytest.raises(ValueError, match="mismatched grids"):
        covariant_derivative(rhos[:4], pot, 1)


def test_gauge_transform_constant_unitary():
    rng = np.random.default_rng(3)
    rho = np.diag([0.7, 0.3]).astype(complex)
    a = hermitian_part(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    v = random_unitary(rng, 2)
    rho2, a2 = gauge_transform(rho, a, v, np.zeros((2, 2)))
    np.testing.assert_allclose(rho2, v @ rho @ dag(v), atol=1e-14)
    np.testing.assert_allclose(a2, v @ a @ dag(v), atol=1e-14)
    with pytest.raises(ValueError, match="not unitary"):
        gauge_transform(rho, a, 2.0 * v, np.zeros((2, 2)))


def test_gauge_covariance_of_covariant_derivative():
    """D rho conjugates under a smooth gauge transform up to stencil error."""
    rng = np.random.default_rng(4)
    h = 3e-5
    micro = np.array([0.5 - h, 0.5, 0.5 + h])
    rhos = smooth_density_family(rng, 3, micro)
    pot = uhlmann_potential(rhos, micro)
    d_rho = covariant_derivative(rhos, pot, 1)
    fam = smooth_unitary_family(rng, 3, micro)
    _, a_t = gauge_transform(rhos[1], pot.values[1], fam.values[1],
                             fam.derivatives[1])
    transformed = [v @ r @ dag(v) for v, r in zip(fam.values, rhos)]
    zero = np.zeros_like(a_t)
    t_pot = GaugePotential(grid=micro, values=[zero, a_t, zero])
    d_rho_t = covariant_derivative(transformed, t_pot, 1)
    conjugated = fam.values[1] @ d_rho @ dag(fam.values[1])
    assert max_abs(d_rho_t - conjugated) < 1e-8


# ---------------------------------------------------------------------------
# categorical corrections
# ---------------------------------------------------------------------------

def test_categorical_potential_1_hand_value():
    """A = 0, C = sx, rho = diag(0.9, 0.1): A1 = [C, rho]/i = -0.8 sy."""
    rho = np.diag([0.9, 0.1]).astype(complex)
    a1 = categorical_potential_1(np.zeros((2, 2)), PAULI_X, rho)
    np.testing.assert_allclose(a1, -0.8 * PAULI_Y, atol=1e-14)
    assert hermiticity_residual(a1) < 1e-14


def test_categorical_potential_2_hand_value():
    """H_op = sz, C = sx: A2 - A1 = [sz, sx]/i = 2 sy."""
    a1 = np.zeros((2, 2), dtype=complex)
    a2 = categorical_potential_2(a1, PAULI_Z, PAULI_X)
    np.testing.assert_allclose(a2, 2.0 * PAULI_Y, atol=1e-14)


def test_categorical_potentials_shape_checks():
    with pytest.raises(ValueError, match="share a shape"):
        categorical_potential_1(np.zeros((2, 2)), np.eye(3),
                                np.eye(3) / 3)
    with pytest.raises(ValueError, match="share a shape"):
        categorical_potential_2(np.zeros((2, 2)), np.eye(3), np.eye(2))


def test_default_coherence_matrix_rotating_oracle():
    """For the xz rotation the overlap matrix maps to C = (omega/2) sy."""
    omega, h = 0.3, 1e-3
    grid = 0.4 + h * np.arange(-2, 3)
    mats = [0.5 * (np.cos(omega * t) * PAULI_Z + np.sin(omega * t) * PAULI_X)
            for t in grid]
    track = track_hermitian_family(grid, mats)
    c = default_coherence_matrix(track, 2)
    np.testing.assert_allclose(c, (omega / 2) * PAULI_Y, atol=1e-8)
    assert c.shape == (2, 2)
    assert np.array_equal(c, dag(c))


def test_coherence_cube_contraction():
    h_op = contract_coherence_cube(np.arange(8, dtype=float).reshape(2, 2, 2))
    # diag entries are H[a, 0, 0] + H[a, 1, 1]
    np.testing.assert_allclose(h_op, np.diag([0.0 + 3.0, 4.0 + 7.0]), atol=1e-15)


def test_coherence_cube_validation():
    with pytest.raises(ValueError, match="cubic"):
        contract_coherence_cube(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="cubic"):
        contract_coherence_cube(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="real"):
        contract_coherence_cube(np.full((2, 2, 2), 1j))


def test_default_coherence_cube_collapses_inner_index():
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 7)
    rhos = smooth_density_family(rng, 3, grid)
    track = track_hermitian_family(grid, rhos)
    cube = default_coherence_cube(track, 3)
    assert cube.shape == (3, 3, 3) and cube.dtype == float
    # inner structure: cube[a, b, c] = Re(D2[a, c]) delta_{bc}
    assert np.all(cube[:, 0, 1] == 0.0)
    assert np.all(cube[:, 2, 1] == 0.0)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_action_params_validation():
    grid = np.linspace(0.0, 1.0, 5)
    rhos = smooth_density_family(np.random.default_rng(6), 2, grid)
    with pytest.raises(ValueError, match="mode"):
        action_functional(rhos, uhlmann_potential(rhos, grid), mode="quartic")


def test_covariant_action_nonnegative_and_zero_on_constants():
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.0, 9)
    rhos = smooth_density_family(rng, 3, grid)
    pot = uhlmann_potential(rhos, grid)
    assert action_functional(rhos, pot) >= 0.0

    const = [rhos[0]] * 9
    const_pot = uhlmann_potential(const, grid)
    assert action_functional(const, const_pot) == 0.0


def test_scalar_like_action_runs_and_differs():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 11)
    rhos = smooth_density_family(rng, 2, grid)
    pot = uhlmann_potential(rhos, grid)
    value = action_functional(rhos, pot, mode="scalar_like")
    assert isinstance(value, float)
    with pytest.raises(ValueError, match="at least 5"):
        action_functional(rhos[:4], GaugePotential(grid[:4], pot.values[:4]),
                          mode="scalar_like")
    with pytest.raises(ValueError, match="at least 3"):
        action_functional(rhos[:2], GaugePotential(grid[:2], pot.values[:2]))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_constant_pauli_oracle():
    """Constant A1 = sx, A2 = sy: F = [sx, sy] = 2i sz everywhere."""
    axis = np.array([0.0, 1.0, 2.0])
    pot = constant_potential_2d(PAULI_X, PAULI_Y, axis)
    f = curvature(pot, 1, 1)
    np.testing.assert_allclose(f, 2j * PAULI_Z, atol=1e-14)


def test_potential_2d_takes_nested_lists():
    """List components become arrays, as ``GaugePotential`` values do."""
    axis = np.array([0.0, 1.0, 2.0])
    pot = constant_potential_2d(PAULI_X, PAULI_Y, axis)
    listed = GaugePotential2D(axis1=list(axis), axis2=list(axis),
                              values1=pot.values1.tolist(), values2=pot.values2.tolist())
    assert isinstance(listed.values1, np.ndarray) and isinstance(listed.values2, np.ndarray)
    np.testing.assert_array_equal(curvature(listed, 1, 1), curvature(pot, 1, 1))
    with pytest.raises(ValueError, match="indexed by"):
        GaugePotential2D(axis1=axis, axis2=axis, values1=pot.values1[:2].tolist(),
                         values2=pot.values2.tolist())


def test_curvature_interior_and_size_checks():
    axis = np.array([0.0, 1.0, 2.0])
    pot = constant_potential_2d(PAULI_X, PAULI_Y, axis)
    with pytest.raises(IndexError, match="interior"):
        curvature(pot, 0, 1)
    with pytest.raises(IndexError, match="interior"):
        curvature(pot, 1, 2)
    small = constant_potential_2d(PAULI_X, PAULI_Y, np.array([0.0, 1.0]))
    with pytest.raises(IndexError, match="interior"):
        curvature(small, 1, 1)


def test_pure_gauge_curvature_is_stencil_error_only():
    """Flat potentials: the numerical field strength refines at O(h^2)."""
    norms = []
    for n in (9, 17, 33):
        rng = np.random.default_rng(8)
        axis = np.linspace(0.0, 1.0, n)
        pot = pure_gauge_potential_2d(rng, 3, axis, axis)
        norms.append(max_abs(curvature(pot, n // 2, n // 2)))
    assert norms[0] > norms[1] > norms[2]
    for a, b in zip(norms, norms[1:]):
        assert 3.2 < a / b < 4.8


def test_pure_gauge_potential_values_are_hermitian():
    rng = np.random.default_rng(9)
    axis = np.linspace(0.0, 1.0, 5)
    pot = pure_gauge_potential_2d(rng, 4, axis, axis)
    for i in range(5):
        for j in range(5):
            assert hermiticity_residual(pot.values1[i, j]) < 1e-12
            assert hermiticity_residual(pot.values2[i, j]) < 1e-12


# ---------------------------------------------------------------------------
# charge residuals
# ---------------------------------------------------------------------------

def test_charge_residual_zero_for_constant_family():
    grid = np.linspace(0.0, 1.0, 7)
    rho = np.diag([0.6, 0.4]).astype(complex)
    rhos = [rho] * 7
    pot = uhlmann_potential(rhos, grid)
    residual = gauge_charge_residual(rhos, pot, 3)
    np.testing.assert_allclose(residual, np.zeros((2, 2)), atol=1e-12)


def test_charge_residual_vanishes_at_action_minimum():
    """Minimizing the action over one potential entry zeroes the residual."""
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 7)
    rhos = smooth_density_family(rng, 2, grid)
    pot = uhlmann_potential(rhos, grid)
    center = 3

    def unpack(x):
        return np.array([[x[0], x[2] + 1j * x[3]],
                         [x[2] - 1j * x[3], x[1]]], dtype=complex)

    def objective(x):
        values = list(pot.values)
        values[center] = unpack(x)
        return action_functional(rhos, GaugePotential(grid, values))

    a0 = pot.values[center]
    x0 = np.array([a0[0, 0].real, a0[1, 1].real, a0[0, 1].real, a0[0, 1].imag])
    before = np.max(np.abs(gauge_charge_residual(rhos, pot, center)))
    assert before > 1e-4

    res = minimize(objective, x0, method="BFGS", tol=1e-12)
    values = list(pot.values)
    values[center] = unpack(res.x)
    after = np.max(np.abs(
        gauge_charge_residual(rhos, GaugePotential(grid, values), center)))
    assert after < 1e-6


def full_action_charge_residual(rhos, potential, k, eps):
    """The residual as two whole covariant actions per perturbed direction."""
    grid = potential.grid
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
            s_plus = action_functional(rhos, GaugePotential(grid, plus))
            s_minus = action_functional(rhos, GaugePotential(grid, minus))
            residual[a, b] = (s_plus - s_minus) / (2.0 * eps)
    return residual


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-7, 1e-3])
def test_charge_residual_equals_the_full_action_difference(dim, eps):
    """Recomputing only the k-th integrand term changes no bit of the residual."""
    n = 9
    grid = np.linspace(0.0, 1.0, n)
    rhos = smooth_density_family(np.random.default_rng(30 + dim), dim, grid)
    pot = uhlmann_potential(rhos, grid)
    for k in (1, n // 2, n - 2):
        fast = gauge_charge_residual(rhos, pot, k, eps=eps)
        assert np.array_equal(fast, full_action_charge_residual(rhos, pot, k, eps))
        assert np.max(np.abs(fast)) > 0.0


def test_charge_residual_eps_validation():
    grid = np.linspace(0.0, 1.0, 5)
    rhos = [np.eye(2, dtype=complex) / 2] * 5
    pot = uhlmann_potential(rhos, grid)
    with pytest.raises(ValueError, match="eps"):
        gauge_charge_residual(rhos, pot, 2, eps=1e-8)
    with pytest.raises(IndexError, match="interior"):
        gauge_charge_residual(rhos, pot, 0)


# ---------------------------------------------------------------------------
# smooth families
# ---------------------------------------------------------------------------

def looped_unitary_family(rng, dim, grid, scale=0.5):
    """``smooth_unitary_family`` evaluated one grid point at a time."""
    generators = [random_hermitian(rng, dim, scale) for _ in range(2)]
    amp = rng.uniform(0.3, 0.8, size=2)
    freq = rng.uniform(0.5, 1.0, size=2)
    phase = rng.uniform(0.0, 2 * np.pi, size=2)
    eigs = [np.linalg.eigh(g) for g in generators]
    values, derivatives = [], []
    for t in grid:
        us, dus = [], []
        for (w, v), g, i in zip(eigs, generators, range(2)):
            theta = amp[i] * np.sin(freq[i] * t + phase[i])
            dtheta = amp[i] * freq[i] * np.cos(freq[i] * t + phase[i])
            us.append((v * np.exp(1j * theta * w)) @ dag(v))
            dus.append(1j * dtheta * g @ us[-1])
        values.append(us[0] @ us[1])
        derivatives.append(dus[0] @ us[1] + us[0] @ dus[1])
    return values, derivatives


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [40, 41, 42])
def test_stacked_unitary_family_equals_its_pointwise_loop(dim, seed):
    """The stacked form draws both generators at once and does the
    per-point arithmetic, so every bit agrees with the loop's
    ``random_hermitian`` draws."""
    grid = np.linspace(0.0, 1.0, 11)
    fam = smooth_unitary_family(np.random.default_rng(seed), dim, grid)
    values, derivatives = looped_unitary_family(np.random.default_rng(seed), dim, grid)
    assert np.array_equal(fam.values, values)
    assert np.array_equal(fam.derivatives, derivatives)


def test_stacked_families_equal_their_pointwise_loops():
    """The stacked forms do the per-point arithmetic, so every bit agrees."""
    grid = np.linspace(0.0, 1.0, 11)
    rhos = smooth_density_family(np.random.default_rng(41), 3, grid)
    amps = [purify(rho) for rho in rhos]
    pot = uhlmann_potential(rhos, grid)
    for k in range(1, grid.size - 1):
        du = (amps[k + 1] - amps[k - 1]) / (grid[k + 1] - grid[k - 1])
        assert np.array_equal(pot.values[k], (du @ dag(amps[k]) - amps[k] @ dag(du)) / 2j)

    terms = np.empty(grid.size - 2)
    for k in range(1, grid.size - 1):
        d = covariant_derivative(rhos, pot, k)
        terms[k - 1] = float(np.trace(rhos[k] @ dag(d) @ d).real)
    weights = _trapezoid_weights(grid[1:-1])
    assert action_functional(rhos, pot) == float(np.dot(weights, terms))


def test_a_stack_integrates_row_by_row():
    """Each row of a stacked integrand is one ``np.dot`` of contiguous rows."""
    weights = _trapezoid_weights(np.linspace(0.0, 1.0, 5) ** 2)
    integrand = np.random.default_rng(43).normal(size=(2, 3, 5))
    sums = _integrate(weights, integrand)
    assert sums.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert sums[i, j] == float(np.dot(weights, integrand[i, j]))


def test_families_drawn_in_a_stack_equal_families_drawn_alone():
    """Each generator draws its own parameters in its own order, so a stack
    of families is, bit for bit, the families drawn one at a time."""
    grid = np.linspace(0.0, 1.0, 7)
    seeds = [50, 51, 52]
    stacked = smooth_density_family([np.random.default_rng(s) for s in seeds], 3, grid)
    unitaries = smooth_unitary_family([np.random.default_rng(s) for s in seeds], 3, grid)
    assert stacked.shape == (3, 7, 3, 3)
    for f, seed in enumerate(seeds):
        assert np.array_equal(stacked[f],
                              smooth_density_family(np.random.default_rng(seed), 3, grid))
        alone = smooth_unitary_family(np.random.default_rng(seed), 3, grid)
        assert np.array_equal(unitaries.values[f], alone.values)
        assert np.array_equal(unitaries.derivatives[f], alone.derivatives)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_gauge_stages_equal_their_families_one_by_one(dim):
    """Potentials, covariant derivatives, both actions and the charge
    residuals of a stack -- a constant family among random ones -- equal
    the one-family results bit for bit."""
    n = 9
    grid = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(60 + dim)
    constant = np.broadcast_to(smooth_density_family(rng, dim, grid[:1]), (n, dim, dim))
    families = np.array([smooth_density_family(rng, dim, grid) for _ in range(3)]
                        + [constant])
    potential = uhlmann_potential(families, grid)
    modes = ["covariant", "scalar_like"]
    actions = [action_functional(families, potential, mode) for mode in modes]
    residuals = gauge_charge_residual(families, potential, n // 2)
    d_rho = covariant_derivative(families, potential, 2)
    assert residuals.shape == (4, dim, dim)
    for f, rhos in enumerate(families):
        pot = uhlmann_potential(rhos, grid)
        assert np.array_equal(potential.values[f], pot.values)
        assert np.array_equal(d_rho[f], covariant_derivative(rhos, pot, 2))
        for mode, stacked in zip(modes, actions):
            assert stacked[f] == action_functional(rhos, pot, mode)
        assert np.array_equal(residuals[f], gauge_charge_residual(rhos, pot, n // 2))
    # a passed eigensystem gives the same potential, and one integrand the
    # same covariant actions and residuals
    eigensystem = hermitian_eigensystem(families)
    assert np.array_equal(uhlmann_potential(families, grid, eigensystem).values,
                          potential.values)
    action, residual = action_and_charge_residual(families, potential, n // 2)
    assert np.array_equal(action, actions[0])
    assert np.array_equal(residual, residuals)
    # two leading axes run the same arithmetic
    pairs = families.reshape((2, 2) + families.shape[1:])
    pair_potential = uhlmann_potential(pairs, grid)
    assert np.array_equal(gauge_charge_residual(pairs, pair_potential, n // 2),
                          residuals.reshape(2, 2, dim, dim))
    assert np.array_equal(action_functional(pairs, pair_potential, modes[1]),
                          actions[1].reshape(2, 2))


def test_smooth_unitary_family_derivatives_are_exact():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 9)
    fam = smooth_unitary_family(rng, 3, grid)
    h = 1e-6
    for k in (0, 4, 8):
        t = grid[k]
        fine = smooth_unitary_family(np.random.default_rng(11), 3,
                                     np.array([t - h, t, t + h]))
        fd = (fine.values[2] - fine.values[0]) / (2 * h)
        np.testing.assert_allclose(fam.derivatives[k], fd, atol=1e-8)
        assert max_abs(dag(fam.values[k]) @ fam.values[k] - np.eye(3)) < 1e-12


def test_smooth_density_family_stays_in_simplex():
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 2.0, 15)
    rhos = smooth_density_family(rng, 4, grid)
    for rho in rhos:
        w = np.linalg.eigvalsh(rho)
        assert w[0] > 0.0
        assert abs(np.trace(rho).real - 1.0) < 1e-12
