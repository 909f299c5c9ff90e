import numpy as np
import pytest

from udmrg.truncation import (
    PAIR_FLOOR,
    POLICY_KINDS,
    TruncationPolicy,
    TruncationWeights,
    charge_first_order,
    charge_second_order,
    compute_weights,
    select_states,
    standard_select,
)


class TestPolicyValidation:
    def test_defaults_are_standard(self):
        pol = TruncationPolicy()
        assert pol.kind == "standard"
        assert pol.gamma1 == 0.0 and pol.lambda2 == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            TruncationPolicy(kind="fancy")

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "lambda1", "lambda2"])
    def test_negative_coefficients(self, field):
        with pytest.raises(ValueError, match=field):
            TruncationPolicy(**{field: -0.1})

    def test_budget_and_cutoff(self):
        with pytest.raises(ValueError, match="max_kept"):
            TruncationPolicy(max_kept=0)
        with pytest.raises(ValueError, match="cutoff"):
            TruncationPolicy(cutoff=1.0)


def test_weights_validation():
    with pytest.raises(ValueError, match="descending"):
        TruncationWeights(raw=np.array([0.1, 0.9]), charges1=np.zeros(2),
                          charges2=np.zeros(2), effective=np.zeros(2))
    with pytest.raises(ValueError, match="non-negative"):
        TruncationWeights(raw=np.array([0.5, -0.1]), charges1=np.zeros(2),
                          charges2=np.zeros(2), effective=np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        TruncationWeights(raw=np.array([0.9, 0.1]), charges1=np.zeros(3),
                          charges2=np.zeros(2), effective=np.zeros(2))


# ---------------------------------------------------------------------------
# charges: hand-checked values
# ---------------------------------------------------------------------------

def test_first_order_charge_hand_value():
    """p = (0.9, 0.1) with |D_01| = 2: Q = 0.64 * 0.09 * 4 = 0.2304."""
    p = np.array([0.9, 0.1])
    d = np.array([[0.0, 2.0], [-2.0, 0.0]])
    q = charge_first_order(p, d)
    assert abs(q[0] - 0.2304) < 1e-12
    assert abs(q[1] - 0.2304) < 1e-12


def test_first_order_charge_diagonal_never_contributes():
    p = np.array([0.7, 0.3])
    d = np.diag([5.0, -3.0])
    np.testing.assert_array_equal(charge_first_order(p, d), [0.0, 0.0])


def test_first_order_charge_pair_floor():
    d = np.ones((2, 2))
    # the (0, 1) pair total is ~1 so it survives and contributes ~ p_b
    q = charge_first_order(np.array([1.0, 1e-16]), d)
    assert q[0] == pytest.approx(1e-16, rel=1e-6)
    # pairs below the floor are dropped outright
    np.testing.assert_array_equal(
        charge_first_order(np.array([0.0, 0.0]), d), [0.0, 0.0])
    assert PAIR_FLOOR == 1e-14


def test_first_order_charge_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        charge_first_order(np.array([0.5, 0.5]), np.zeros((3, 3)))


def test_second_order_charge_multiplicity():
    d2 = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(charge_second_order(d2), [10.0, 2.0])
    np.testing.assert_allclose(charge_second_order(d2, multiplicity=1), [5.0, 1.0])
    with pytest.raises(ValueError, match="multiplicity"):
        charge_second_order(d2, multiplicity=0)
    with pytest.raises(ValueError, match="square"):
        charge_second_order(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# effective weights
# ---------------------------------------------------------------------------

def test_effective_singular_value_hand_value():
    """sigma = 0.5, gamma1 = 1, Q = ln 2 damps to exactly 0.25."""
    w = compute_weights(
        np.array([0.5]), np.array([np.log(2.0)]), np.array([0.0]),
        TruncationPolicy(kind="uhlmann", gamma1=1.0))
    assert abs(w.effective[0] - 0.25) < 1e-12


def test_effective_singular_values_standard_passthrough():
    sigma = np.array([0.9, 0.4, 0.1])
    w = compute_weights(sigma, np.full(3, 7.0), np.full(3, 3.0),
                        TruncationPolicy(kind="standard"))
    np.testing.assert_array_equal(w.effective, sigma)


def test_uhlmann_ignores_second_order_charge():
    sigma = np.array([1.0, 1.0])
    q1 = np.zeros(2)
    q2 = np.array([100.0, 0.0])
    pol = TruncationPolicy(kind="uhlmann", gamma1=0.3, gamma2=5.0)
    np.testing.assert_array_equal(
        compute_weights(sigma, q1, q2, pol).effective, sigma)
    cat = TruncationPolicy(kind="categorified", gamma1=0.3, gamma2=5.0)
    damped = compute_weights(sigma, q1, q2, cat).effective
    assert damped[0] < 1e-100 and damped[1] == 1.0


def test_coherence_eigenvalues_hand_value():
    """p = 0.9 shifted by 0.5 * 0.2304 gives 1.0152."""
    p = np.array([0.9, 0.1])
    d = np.array([[0.0, 2.0], [-2.0, 0.0]])
    w = compute_weights(np.sqrt(p), charge_first_order(p, d), np.zeros(2),
                        TruncationPolicy(kind="coherence_eigenvalue", lambda1=0.5))
    assert abs(w.effective[0] - 1.0152) < 1e-12
    with pytest.raises(ValueError):
        TruncationPolicy(kind="coherence_eigenvalue", lambda1=-1.0)


def test_coherence_eigenvalues_2_adds_both_orders():
    p = np.array([0.6, 0.4])
    d2 = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = compute_weights(np.sqrt(p), np.zeros(2), charge_second_order(d2),
                        TruncationPolicy(kind="coherence_eigenvalue_2", lambda2=0.5))
    np.testing.assert_allclose(w.effective, [0.6 + 0.5 * 2.0, 0.4 + 0.5 * 8.0])


def test_compute_weights_eigenvalue_kinds_normalize():
    sigma = np.array([2.0, 1.0])
    pol = TruncationPolicy(kind="coherence_eigenvalue", lambda1=0.5)
    w = compute_weights(sigma, np.array([0.1, 0.2]), np.zeros(2), pol)
    np.testing.assert_allclose(w.raw, [0.8, 0.2])
    np.testing.assert_allclose(w.effective, [0.85, 0.3])


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def make_weights(raw, eff):
    raw = np.asarray(raw, dtype=float)
    return TruncationWeights(raw=raw, charges1=np.zeros_like(raw),
                             charges2=np.zeros_like(raw),
                             effective=np.asarray(eff, dtype=float))


def test_select_states_ranks_by_effective_weight():
    w = make_weights([0.8, 0.6], [0.8 * np.exp(-10.0), 0.6])
    kept, renorm = select_states(w, TruncationPolicy(max_kept=1))
    np.testing.assert_array_equal(kept, [1])
    np.testing.assert_allclose(renorm, [1.0])
    np.testing.assert_array_equal(w.kept, [1])


def test_select_states_tie_breaks_toward_lower_index():
    w = make_weights([0.5, 0.5, 0.2], [0.5, 0.5, 0.2])
    kept, _ = select_states(w, TruncationPolicy(max_kept=1))
    np.testing.assert_array_equal(kept, [0])


def test_select_states_cutoff_is_relative():
    w = make_weights([1.0, 0.5, 0.1], [1.0, 0.5, 0.1])
    kept, renorm = select_states(w, TruncationPolicy(max_kept=10, cutoff=0.4))
    np.testing.assert_array_equal(kept, [0, 1])
    np.testing.assert_allclose(np.linalg.norm(renorm), 1.0)


def test_select_states_renormalizes_raw_weights():
    w = make_weights([0.6, 0.8][::-1], [0.8, 0.6])
    kept, renorm = select_states(w, TruncationPolicy(max_kept=2))
    np.testing.assert_array_equal(kept, [0, 1])
    np.testing.assert_allclose(renorm, [0.8, 0.6])


def test_select_states_rejects_zero_spectrum():
    w = make_weights([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="all-zero"):
        select_states(w, TruncationPolicy())


def test_select_states_falls_back_from_zero_raw_selection():
    # effective ranking points at a zero-raw state; keep the largest raw
    # weight instead so the retained block can be normalized
    w = make_weights([0.9, 0.0], [0.0, 1.0])
    kept, renorm = select_states(w, TruncationPolicy(max_kept=1))
    np.testing.assert_array_equal(kept, [0])
    np.testing.assert_allclose(renorm, [1.0])


def test_standard_select_keeps_top_weights():
    select = standard_select(2)
    kept, renorm = select(np.array([0.9, 0.5, 0.1]))
    np.testing.assert_array_equal(kept, [0, 1])
    assert np.linalg.norm(renorm) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# zero-coefficient degeneracy
# ---------------------------------------------------------------------------

def test_all_policies_with_zero_coefficients_match_standard():
    """1000 random spectra: every kind keeps exactly the standard set."""
    rng = np.random.default_rng(42)
    standard = TruncationPolicy(kind="standard", max_kept=6, cutoff=0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        sigma = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
        sigma[-1] = max(sigma[-1], 1e-3)  # keep the spectrum normalizable
        sigma = np.sort(sigma)[::-1]
        q1 = rng.uniform(0.0, 5.0, size=n)
        q2 = rng.uniform(0.0, 5.0, size=n)
        ref_w = compute_weights(sigma, q1, q2, standard)
        ref_kept, ref_renorm = select_states(ref_w, standard)
        for kind in POLICY_KINDS:
            pol = TruncationPolicy(kind=kind, max_kept=6, cutoff=0.0)
            w = compute_weights(sigma, q1, q2, pol)
            kept, renorm = select_states(w, pol)
            np.testing.assert_array_equal(kept, ref_kept)
            if kind in ("standard", "uhlmann", "categorified"):
                # same raw currency (singular values): bitwise identical
                np.testing.assert_array_equal(renorm, ref_renorm)
            else:
                # probability currency but the same retained set
                p = sigma[kept] ** 2
                np.testing.assert_allclose(
                    renorm, p / np.linalg.norm(p), atol=1e-15)

