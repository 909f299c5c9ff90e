import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from udmrg.truncation import (
    PAIR_FLOOR,
    POLICY_KINDS,
    TruncationPolicy,
    TruncationWeights,
    charge_first_order,
    charge_second_order,
    compute_weights,
    kept_masks,
    select_states,
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

    @pytest.mark.parametrize("field, value", [
        ("max_kept", 2.5), ("max_kept", True), ("max_kept", np.float64(2.0)),
        ("gamma1", True), ("gamma1", "x"), ("lambda2", None), ("cutoff", None),
        ("cutoff", False)])
    def test_field_types(self, field, value):
        """A budget that is no ``int`` would fail mid-sweep, and a bool is no

        number; each fails here, naming its field."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TruncationPolicy(**{field: value})

    def test_coefficients_take_any_real_number(self):
        pol = TruncationPolicy(kind="categorified", gamma1=1, gamma2=np.float64(0.5),
                               cutoff=np.float32(0.25))
        assert (pol.gamma1, pol.gamma2, pol.cutoff) == (1, 0.5, 0.25)

    def test_real_fields_are_stored_as_floats(self):
        # so a policy hashes and reports the same whatever real type built it
        pol = TruncationPolicy(kind="uhlmann", gamma1=1, cutoff=np.float32(0.25))
        assert type(pol.gamma1) is float and pol.gamma1 == 1.0
        assert type(pol.cutoff) is float and type(pol.lambda2) is float
        assert pol == TruncationPolicy(kind="uhlmann", gamma1=1.0, cutoff=0.25)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        pol = TruncationPolicy(kind="uhlmann", gamma1=np.float32(0.5),
                               max_kept=np.int64(4))
        assert type(pol.gamma1) is float and type(pol.max_kept) is int
        assert pol == TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=4)


def test_weights_validation():
    """``compute_weights`` checks its singular values and charges once, for

    every kind; the weights it returns are a plain record."""
    for kind in POLICY_KINDS:
        policy = TruncationPolicy(kind=kind)
        with pytest.raises(ValueError, match="sigma must be sorted descending"):
            compute_weights(np.array([0.1, 0.9]), np.zeros(2), np.zeros(2), policy)
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            compute_weights(np.array([0.5, -0.1]), np.zeros(2), np.zeros(2), policy)
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            compute_weights(np.array([np.nan, 0.5]), np.zeros(2), np.zeros(2), policy)
        with pytest.raises(ValueError, match="sigma must be a non-empty 1-d array"):
            compute_weights(np.zeros(0), np.zeros(0), np.zeros(0), policy)
        with pytest.raises(ValueError, match="sigma must be a non-empty 1-d array"):
            compute_weights(np.float64(0.5), np.float64(0.0), np.float64(0.0), policy)
        # a stack is checked row by row: one bad row fails it
        stack = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
        with pytest.raises(ValueError, match="sigma must be sorted descending"):
            compute_weights(stack, np.zeros((3, 2)), np.zeros((3, 2)), policy)
        stack[2] = [0.3, -0.1]
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            compute_weights(stack, np.zeros((3, 2)), np.zeros((3, 2)), policy)
        with pytest.raises(ValueError, match="charges2 must match sigma in shape"):
            compute_weights(stack[:2], np.zeros((2, 2)), np.zeros(2), policy)
        with pytest.raises(ValueError, match="charges1 must match sigma in shape"):
            compute_weights(np.array([0.9, 0.1]), np.zeros(3), np.zeros(2), policy)
        with pytest.raises(ValueError, match="charges2 must match sigma in shape"):
            compute_weights(np.array([0.9, 0.1]), np.zeros(2), np.zeros(1), policy)
    weights = compute_weights(np.array([0.9, 0.1]), np.zeros(2), np.zeros(2),
                              TruncationPolicy())
    with pytest.raises(dataclasses.FrozenInstanceError):
        weights.raw = np.zeros(2)


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
    # the multiplicity is the basis dimension: 2 * (5, 1) here
    d2 = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(charge_second_order(d2), [10.0, 2.0])
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
    return TruncationWeights(raw=raw, effective=np.asarray(eff, dtype=float))


def test_select_states_ranks_by_effective_weight():
    w = make_weights([0.8, 0.6], [0.8 * np.exp(-10.0), 0.6])
    before = {name: value.copy() for name, value in vars(w).items()}
    kept, renorm = select_states(w, TruncationPolicy(max_kept=1))
    np.testing.assert_array_equal(kept, [1])
    np.testing.assert_allclose(renorm, [1.0])
    # selection leaves its argument as it was
    assert vars(w).keys() == before.keys() == {"raw", "effective"}
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(w, name), value)


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


# ---------------------------------------------------------------------------
# zero-coefficient degeneracy
# ---------------------------------------------------------------------------

#: magnitudes that force exact ties, exact zeros and squares that underflow
_TIE_VALUES = (0.0, 1e-200, 0.25, 0.5)


@st.composite
def spectra(draw, max_size=10):
    """Descending singular values with a largest value of order one."""
    lead = draw(st.floats(1e-3, 1.0))
    rest = draw(st.lists(st.one_of(st.sampled_from(_TIE_VALUES),
                                   st.floats(0.0, 1.0)),
                         max_size=max_size - 1))
    return np.sort(np.array([lead] + [min(v, lead) for v in rest]))[::-1]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), sigma=spectra(), max_kept=st.integers(1, 12))
def test_all_policies_with_zero_coefficients_match_standard(data, sigma, max_kept):
    """Random spectra and charges: every kind keeps exactly the standard set.

    This is the identity the grid search's zero-cell reuse rests on.  It
    needs cutoff 0: the eigenvalue-shift kinds threshold ``p = sigma^2``
    where the standard rule thresholds ``sigma``, so at a cutoff ``c > 0``
    they admit ``sigma >= sqrt(c) sigma_max`` instead of ``sigma >= c
    sigma_max`` (see the test below)."""
    charges = st.lists(st.floats(0.0, 1e6), min_size=sigma.size,
                       max_size=sigma.size)
    q1 = np.array(data.draw(charges))
    q2 = np.array(data.draw(charges))
    standard = TruncationPolicy(kind="standard", max_kept=max_kept, cutoff=0.0)
    ref_w = compute_weights(sigma, q1, q2, standard)
    ref_kept, ref_renorm = select_states(ref_w, standard)
    for kind in POLICY_KINDS:
        pol = TruncationPolicy(kind=kind, max_kept=max_kept, cutoff=0.0)
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


def test_a_nonzero_cutoff_breaks_the_zero_coefficient_identity():
    """sigma = (1, 0.6) at cutoff 0.5: standard admits 0.6 >= 0.5, while the

    eigenvalue-shift rule compares p = (1, 0.36) / 1.36 and drops 0.36 < 0.5."""
    sigma = np.array([1.0, 0.6])
    zeros = np.zeros(2)
    kept = {}
    for kind in ("standard", "coherence_eigenvalue"):
        pol = TruncationPolicy(kind=kind, cutoff=0.5)
        kept[kind] = select_states(compute_weights(sigma, zeros, zeros, pol), pol)[0]
    np.testing.assert_array_equal(kept["standard"], [0, 1])
    np.testing.assert_array_equal(kept["coherence_eigenvalue"], [0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), sigma=spectra(), max_kept=st.integers(1, 12),
       cutoff=st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_select_states_obeys_its_tie_break_and_cutoff_rules(
        data, sigma, max_kept, cutoff):
    """States rank by effective weight, ties toward the lower index; of the

    states reaching ``cutoff * max(effective)``, the top ``max_kept`` stay."""
    raw = np.maximum(sigma, 1e-3)  # no zero-weight fallback in play
    eff = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(_TIE_VALUES), st.floats(0.0, 1.0)),
        min_size=raw.size, max_size=raw.size)))
    weights = make_weights(raw, eff)
    policy = TruncationPolicy(max_kept=max_kept, cutoff=cutoff)
    kept, renorm = select_states(weights, policy)
    admitted = [i for i in range(eff.size) if eff[i] >= cutoff * eff.max()]
    assert list(kept) == sorted(set(kept))
    assert set(kept) <= set(admitted)
    assert kept.size == min(max_kept, len(admitted))
    for j in kept:
        for i in set(admitted) - set(kept):
            assert eff[j] > eff[i] or (eff[j] == eff[i] and j < i)
    np.testing.assert_array_equal(renorm, raw[kept] / np.linalg.norm(raw[kept]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), sigma=spectra(), kind=st.sampled_from(POLICY_KINDS),
       extra=st.integers(0, 3))
def test_a_step_within_the_budget_keeps_every_state_at_cutoff_0(data, sigma, kind, extra):
    """With ``n <= max_kept`` states and cutoff 0, every kind keeps them all,

    whatever its coefficients and the (finite, non-negative) charges: every
    effective weight is non-negative, so every state is admitted.  The DMRG
    step relies on this to skip weighing and charging such a bond."""
    coefficient = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
    charges = st.lists(st.floats(0.0, 1e6), min_size=sigma.size, max_size=sigma.size)
    pol = TruncationPolicy(kind=kind, max_kept=sigma.size + extra, cutoff=0.0,
                           **{name: data.draw(coefficient)
                              for name in ("gamma1", "gamma2", "lambda1", "lambda2")})
    q1, q2 = np.array(data.draw(charges)), np.array(data.draw(charges))
    kept = select_states(compute_weights(sigma, q1, q2, pol), pol)[0]
    np.testing.assert_array_equal(kept, np.arange(sigma.size))


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_a_cutoff_drops_a_state_within_the_budget(kind):
    """sigma = (1, 0.1) fits a budget of 4, but cutoff 0.2 drops the second

    state for every kind: 0.1 < 0.2, and p = 0.01 / 1.01 < 0.2 * 1 / 1.01."""
    pol = TruncationPolicy(kind=kind, max_kept=4, cutoff=0.2)
    zeros = np.zeros(2)
    kept = select_states(compute_weights(np.array([1.0, 0.1]), zeros, zeros, pol), pol)[0]
    np.testing.assert_array_equal(kept, [0])


# ---------------------------------------------------------------------------
# stacks: every row as a call of its own
# ---------------------------------------------------------------------------

#: probabilities that put pairs on both sides of ``PAIR_FLOOR``
_SMALL_PROBS = (0.0, 1e-16, 4e-15, 1e-14, 0.5)


@st.composite
def spectrum_stacks(draw, max_rows=5, max_size=6):
    """A ``(rows, n)`` stack of descending spectra, some rows possibly all zero."""
    rows, size = draw(st.integers(1, max_rows)), draw(st.integers(1, max_size))
    values = st.one_of(st.sampled_from(_TIE_VALUES), st.floats(0.0, 1.0))
    stack = np.array(draw(st.lists(values, min_size=rows * size, max_size=rows * size)))
    stack = -np.sort(-stack.reshape(rows, size), axis=1)
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        stack[r] = 0.0
    return stack


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sigma=spectrum_stacks(), kind=st.sampled_from(POLICY_KINDS))
def test_stacked_weights_equal_one_call_per_row(data, sigma, kind):
    """Raw and effective weights of a stack, under one or two leading axes,
    equal each row's own call bit for bit, all-zero rows included."""
    charges = st.lists(st.floats(0.0, 1e6), min_size=sigma.size, max_size=sigma.size)
    q1 = np.array(data.draw(charges)).reshape(sigma.shape)
    q2 = np.array(data.draw(charges)).reshape(sigma.shape)
    coefficient = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    pol = TruncationPolicy(kind=kind, **{name: data.draw(coefficient)
                                         for name in ("gamma1", "gamma2", "lambda1", "lambda2")})
    rows = [compute_weights(s, a, b, pol) for s, a, b in zip(sigma, q1, q2)]
    stacked = compute_weights(sigma, q1, q2, pol)
    assert np.array_equal(stacked.raw, [w.raw for w in rows])
    assert np.array_equal(stacked.effective, [w.effective for w in rows])
    split = (sigma.shape[0], 1, sigma.shape[1])
    twice = compute_weights(sigma.reshape(split), q1.reshape(split), q2.reshape(split), pol)
    assert np.array_equal(twice.effective.reshape(sigma.shape), stacked.effective)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), size=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_charges_equal_one_call_per_row(data, rows, size, seed):
    """Both charges of a stack equal each member's own call bit for bit, with
    probability pairs on both sides of ``PAIR_FLOOR``."""
    p = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(_SMALL_PROBS), st.floats(0.0, 1.0)),
        min_size=rows * size, max_size=rows * size))).reshape(rows, size)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(rows, size, size)) + 1j * rng.normal(size=(rows, size, size))
    q1 = charge_first_order(p, d)
    q2 = charge_second_order(d)
    assert q1.shape == q2.shape == (rows, size)
    for r in range(rows):
        assert np.array_equal(q1[r], charge_first_order(p[r], d[r]))
        assert np.array_equal(q2[r], charge_second_order(d[r]))
    assert np.array_equal(charge_first_order(p[None], d[None])[0], q1)
    assert np.array_equal(charge_second_order(d[None])[0], q2)


def test_stacked_charges_check_their_shapes():
    with pytest.raises(ValueError, match="does not match"):
        charge_first_order(np.full((3, 2), 0.5), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="does not match"):
        charge_first_order(np.float64(1.0), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="must be square"):
        charge_second_order(np.zeros((3, 2, 1)))


# ---------------------------------------------------------------------------
# stacked selection: every row as a selection of its own
# ---------------------------------------------------------------------------

def _reference_kept(weights, policy):
    """The selection rule on one spectrum as it was written before it took
    stacks: the reference the stacked masks are held to."""
    raw, eff = weights.raw, weights.effective
    if not np.any(raw > 0):
        raise ValueError("all-zero spectrum")
    order = np.lexsort((np.arange(eff.size), -eff))
    admitted = order[eff[order] >= policy.cutoff * float(np.max(eff))]
    kept = np.sort(admitted[: policy.max_kept])
    if float(np.linalg.norm(raw[kept])) == 0.0:
        kept = np.asarray([int(np.argmax(raw))])
    return kept


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sigma=spectrum_stacks(max_size=8), kind=st.sampled_from(POLICY_KINDS),
       extra=st.integers(-7, 2), cutoff=st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_stacked_selection_equals_one_selection_per_row(data, sigma, kind, extra, cutoff):
    """``kept_masks`` of a stack, under one or two leading axes, keeps in each
    row what ``select_states`` keeps of that row alone, and what the rule
    written for one spectrum keeps: exact ties, budgets from 1 to beyond the
    row, cutoffs above 0 and the zero-raw-weight fallback included."""
    sigma = sigma[sigma.any(axis=1)]
    assume(sigma.size)
    charges = st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1e6)),
                       min_size=sigma.size, max_size=sigma.size)
    q1 = np.array(data.draw(charges)).reshape(sigma.shape)
    q2 = np.array(data.draw(charges)).reshape(sigma.shape)
    coefficient = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    pol = TruncationPolicy(kind=kind, max_kept=max(1, sigma.shape[1] + extra), cutoff=cutoff,
                           **{name: data.draw(coefficient)
                              for name in ("gamma1", "gamma2", "lambda1", "lambda2")})
    weights = compute_weights(sigma, q1, q2, pol)
    rows = [compute_weights(s, a, b, pol) for s, a, b in zip(sigma, q1, q2)]
    try:
        expected = [_reference_kept(w, pol) for w in rows]
    except ValueError:  # a row whose probabilities underflow to zero
        with pytest.raises(ValueError, match="all-zero"):
            kept_masks(weights, pol)
        return
    masks = kept_masks(weights, pol)
    assert masks.dtype == bool and masks.shape == sigma.shape
    for mask, row, kept in zip(masks, rows, expected):
        assert np.array_equal(select_states(row, pol)[0], kept)
        assert np.array_equal(np.flatnonzero(mask), kept)
    split = (sigma.shape[0], 1, sigma.shape[1])
    twice = kept_masks(compute_weights(sigma.reshape(split), q1.reshape(split),
                                       q2.reshape(split), pol), pol)
    assert np.array_equal(twice.reshape(sigma.shape), masks)


def test_a_kept_set_whose_squares_underflow_renormalizes_to_a_unit_vector():
    """``2.2e-308 ** 2`` underflows to 0: the sigma kinds keep that state and
    renormalize it to 1 without dividing by zero (pytest turns the warning
    into an error), and the eigenvalue-shift kinds, whose probabilities are
    all zero, refuse the spectrum."""
    sigma = np.array([2.2e-308])
    for kind in ("standard", "uhlmann", "categorified"):
        policy = TruncationPolicy(kind=kind, gamma1=1.0)
        kept, renormalized = select_states(
            compute_weights(sigma, np.zeros(1), np.zeros(1), policy), policy)
        assert kept.tolist() == [0] and renormalized.tolist() == [1.0]
    for kind in ("coherence_eigenvalue", "coherence_eigenvalue_2"):
        policy = TruncationPolicy(kind=kind)
        with pytest.raises(ValueError, match="all-zero spectrum"):
            select_states(compute_weights(sigma, np.zeros(1), np.zeros(1), policy), policy)
    # squares that underflow only in part still come out of unit norm
    kept, renormalized = select_states(
        compute_weights(np.array([3e-160, 1e-160, 0.0]), np.zeros(3), np.zeros(3),
                        TruncationPolicy()), TruncationPolicy(max_kept=2))
    assert kept.tolist() == [0, 1]
    assert abs(float(renormalized @ renormalized) - 1.0) <= 1e-15


def test_a_normal_norm_renormalizes_as_it_always_has():
    """Above the underflow the weights divide by ``sqrt(w . w)`` as before,
    down to the last bit."""
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-100, 1e-150):
        sigma = np.sort(rng.uniform(size=6))[::-1] * scale
        kept, renormalized = select_states(
            compute_weights(sigma, np.zeros(6), np.zeros(6), TruncationPolicy()),
            TruncationPolicy(max_kept=4))
        raw = sigma[kept]
        assert np.array_equal(renormalized, raw / math.sqrt(raw.dot(raw)))


def test_stacked_selection_breaks_ties_and_falls_back_row_by_row():
    """Each row of one stack takes its own branch of the rule: an exact tie
    goes to the lower index, a zero-raw selection falls back to the largest
    raw weight (also when the kept weights' squares underflow), and a budget
    beyond the row keeps every state."""
    raw = np.array([[0.5, 0.5, 0.2], [0.9, 0.0, 0.0], [1e-200, 0.0, 0.0], [0.6, 0.3, 0.1]])
    eff = np.array([[0.5, 0.5, 0.2], [0.0, 1.0, 0.5], [0.0, 1.0, 0.5], [0.6, 0.3, 0.1]])
    masks = kept_masks(make_weights(raw, eff), TruncationPolicy(max_kept=1))
    assert masks.tolist() == [[True, False, False], [True, False, False],
                              [True, False, False], [True, False, False]]
    masks = kept_masks(make_weights(raw, eff), TruncationPolicy(max_kept=3, cutoff=0.4))
    assert masks.tolist() == [[True, True, True], [True, False, False],
                              [True, False, False], [True, True, False]]
    for row_raw, row_eff, mask in zip(raw, eff, masks):
        weights = make_weights(row_raw, row_eff)
        policy = TruncationPolicy(max_kept=3, cutoff=0.4)
        assert np.array_equal(np.flatnonzero(mask), _reference_kept(weights, policy))


def test_stacked_selection_rejects_an_all_zero_row():
    raw = np.array([[0.5, 0.1], [0.0, 0.0]])
    with pytest.raises(ValueError, match="all-zero"):
        kept_masks(make_weights(raw, raw), TruncationPolicy())
