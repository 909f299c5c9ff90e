"""Coherence-aware bond-truncation policies.

A :class:`TruncationPolicy` chooses which Schmidt states survive a bond
truncation.  Beyond the standard rule (keep the largest singular values), the
enhanced policies re-rank states using per-state coherence charges built from
eigenvector derivative overlaps:

* first-order charge  ``Q[a]  = sum_{b != a} (p_a - p_b)^2 p_a p_b / (p_a + p_b)^2 |D[a, b]|^2``
* second-order charge ``Q2[a] = m * sum_c |D2[a, c]|^2``, ``m`` the basis dimension

and then either damp singular values, ``sigma * exp(-g1 Q - g2 Q2)``, or shift
probabilities, ``p + L1 Q (+ L2 Q2)``.  Effective weights are *ranking scores
only*: the retained amplitudes are always the raw singular values,
renormalized.  With all coefficients zero every policy degenerates exactly to
the standard rule.

The charges and the weights take one spectrum or a stack of them with
leading axes (a scan's points, say): every row comes out as a call of its
own would give it, and :func:`kept_masks` selects from a stack alike;
:func:`select_states` picks from one spectrum.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import unit_norm, unit_sum

#: supported policy kinds, in documentation order
POLICY_KINDS = (
    "standard",
    "uhlmann",
    "categorified",
    "coherence_eigenvalue",
    "coherence_eigenvalue_2",
)

#: probability-pair floor below which a charge term is dropped
PAIR_FLOOR = 1e-14


def is_integer(value) -> bool:
    """An integer of any type, ``numpy`` scalars included, but not a ``bool``.

    With :func:`is_real` the one rule for numbers in a configuration.
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number of any type, ``numpy`` scalars included, but not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TruncationPolicy:
    """Selection rule plus its coefficients and budget.

    ``gamma1``/``gamma2`` damp singular values exponentially; ``lambda1`` /
    ``lambda2`` shift eigenvalue weights additively.  A policy only reads the
    coefficients its kind uses: ``standard`` ignores all of them, ``uhlmann``
    ignores everything but ``gamma1``, and so on.  ``max_kept`` is the bond
    budget, the most states a truncation keeps; it is an ``int`` and the
    coefficients and ``cutoff`` are real numbers (see :func:`is_integer` and
    :func:`is_real`).  Construction checks every value, raising
    :class:`ValueError` at the first problem, and stores the coefficients and
    ``cutoff`` as ``float`` and ``max_kept`` as ``int``, so ``gamma1=1``
    hashes and reports like ``gamma1=1.0`` and a ``numpy`` scalar like the
    number it holds.
    """

    kind: str = "standard"
    gamma1: float = 0.0
    gamma2: float = 0.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    max_kept: int = 64
    cutoff: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        for name in ("gamma1", "gamma2", "lambda1", "lambda2", "cutoff"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if name != "cutoff" and (not np.isfinite(value) or value < 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not is_integer(self.max_kept):
            raise ValueError(f"max_kept must be an integer, got {self.max_kept!r}")
        object.__setattr__(self, "max_kept", int(self.max_kept))
        if self.max_kept < 1:
            raise ValueError(f"max_kept must be positive, got {self.max_kept}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must lie in [0, 1), got {self.cutoff}")


@dataclass(frozen=True)
class TruncationWeights:
    """Raw weights and the policy's effective ranking scores.

    ``raw`` holds singular values for the sigma-damping kinds and
    probabilities for the eigenvalue-shift kinds, descending either way;
    ``effective`` has its shape.  The record checks nothing itself:
    :func:`compute_weights` validates its inputs before it builds one.
    """

    raw: np.ndarray
    effective: np.ndarray


def charge_first_order(p, d_overlaps) -> np.ndarray:
    """First-order coherence charge of each state.

    ``p`` are the probabilities of the tracked spectrum and ``d_overlaps`` the
    derivative-overlap matrix ``D[a, b] = <a|db/dt>``.  Pairs with
    ``p_a + p_b < 1e-14`` contribute zero.  The diagonal never contributes
    because its pair weight vanishes identically.  Leading axes stack
    spectra: ``p`` is ``(..., d)`` and ``d_overlaps`` ``(..., d, d)``, and
    each member's charges are the ones a call of its own would give.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d_overlaps)
    if p.ndim == 0 or d.shape != p.shape + p.shape[-1:]:
        raise ValueError(f"overlap matrix shape {d.shape} does not match states {p.shape}")
    pa = p[..., :, None]
    pb = p[..., None, :]
    total = pa + pb
    safe = np.where(total < PAIR_FLOOR, 1.0, total)
    weight = np.where(total < PAIR_FLOOR, 0.0, (pa - pb) ** 2 * pa * pb / safe**2)
    return np.sum(weight * np.abs(d) ** 2, axis=-1)


def charge_second_order(d2_overlaps) -> np.ndarray:
    """Second-order coherence charge ``Q2[a] = m * sum_c |D2[a, c]|^2``.

    The inner index of the rank-3 coherence data collapses to a multiplicity
    factor ``m`` in an orthonormal basis: the basis dimension.  Leading axes
    stack matrices, ``(..., m, m)``, with the charges ``(..., m)``.
    """
    d2 = np.asarray(d2_overlaps)
    if d2.ndim < 2 or d2.shape[-2] != d2.shape[-1]:
        raise ValueError(f"second-overlap matrix must be square, got {d2.shape}")
    return d2.shape[-1] * np.sum(np.abs(d2) ** 2, axis=-1)


def compute_weights(sigma, charges1, charges2, policy: TruncationPolicy) -> TruncationWeights:
    """Bundle singular values and charges into ranked weights for ``policy``.

    ``standard`` ranks by the singular values themselves; ``uhlmann`` and
    ``categorified`` damp them to ``sigma * exp(-g1 Q - g2 Q2)``, with
    ``uhlmann`` forcing ``g2 = 0``.  The eigenvalue-shift kinds operate on
    probabilities ``p = sigma^2`` (normalized) and shift them to
    ``p + L1 Q`` (``+ L2 Q2`` for ``coherence_eigenvalue_2``).  ``sigma``
    must be a non-empty 1-d array, or a stack of them with leading axes, and
    every row non-negative and sorted descending; each row is checked,
    normalized and weighed as a call of its own would be.  The charges are taken as given --
    callers are responsible for computing them from the matching probability
    vector -- but must match ``sigma`` in shape.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0 or sigma.size == 0:
        raise ValueError("sigma must be a non-empty 1-d array or a stack of them")
    if not np.all(sigma >= 0):  # NaN fails too
        raise ValueError("sigma must be non-negative")
    if np.any(np.diff(sigma, axis=-1) > 0):
        raise ValueError("sigma must be sorted descending")
    q1 = np.asarray(charges1, dtype=float)
    q2 = np.asarray(charges2, dtype=float)
    for name, q in (("charges1", q1), ("charges2", q2)):
        if q.shape != sigma.shape:
            raise ValueError(f"{name} must match sigma in shape")
    if policy.kind == "standard":
        raw = sigma
        effective = sigma.copy()
    elif policy.kind in ("uhlmann", "categorified"):
        raw = sigma
        g2 = policy.gamma2 if policy.kind == "categorified" else 0.0
        effective = sigma * np.exp(-policy.gamma1 * q1 - g2 * q2)
    elif policy.kind in ("coherence_eigenvalue", "coherence_eigenvalue_2"):
        raw = unit_sum(sigma**2)
        effective = raw + policy.lambda1 * q1
        if policy.kind == "coherence_eigenvalue_2":
            effective = effective + policy.lambda2 * q2
    else:  # pragma: no cover - guarded by TruncationPolicy.__post_init__
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    return TruncationWeights(raw=raw, effective=effective)


def kept_masks(weights: TruncationWeights, policy: TruncationPolicy) -> np.ndarray:
    """Which states ``policy`` keeps, as a boolean mask shaped like ``weights``.

    Each row of a stack ``(..., n)`` is selected as a row of its own would
    be.  States are ranked by effective weight descending (ties resolved
    toward the lower original index); of those whose effective weight
    reaches ``cutoff * max(effective)``, at most ``max_kept`` survive.  If
    those are all of zero raw weight (an eigenvalue shift can rank such a
    state first; a weight whose square underflows counts as zero), the state
    of largest raw weight is kept alone instead, so the retained block stays
    normalizable.  Raises when a row's spectrum is all zero.
    """
    raw, eff = weights.raw, weights.effective
    n = raw.shape[-1]
    # lexsort is stable, so equal weights keep their index order
    leading = np.lexsort((-eff,))[..., : policy.max_kept]
    mask = np.zeros(raw.shape, dtype=bool)
    mask.put(leading + np.arange(0, raw.size, n).reshape(leading.shape[:-1] + (1,)), True)
    # the admitted states lead the ranking, so the first max_kept hold the kept ones
    mask &= eff >= policy.cutoff * np.maximum.reduce(eff, axis=-1, keepdims=True)
    # the ufuncs' own reductions cost half of ``.any(axis=-1)`` on a few states
    normalizable = np.logical_or.reduce(mask & (raw * raw > 0), axis=-1)
    if not np.logical_and.reduce(normalizable, axis=None):
        rows = ~normalizable
        if not np.all(np.any(raw[rows] > 0, axis=-1)):
            raise ValueError("all-zero spectrum: nothing to keep at this bond")
        mask[rows] = np.arange(n) == raw[rows].argmax(axis=-1)[:, None]
    return mask


def select_states(weights: TruncationWeights, policy: TruncationPolicy):
    """Pick the retained states of one spectrum and renormalize their raw weights.

    The states are the ones :func:`kept_masks` keeps.  Returns ``(kept,
    renormalized)`` with ``kept`` ascending and the retained raw weights
    scaled to a unit vector by :func:`linalg.unit_norm`, so singular values
    like ``[2.2e-308]`` renormalize to ``[1.0]`` and not by zero;
    ``weights`` is left as it was.  The eigenvalue-shift kinds weigh
    ``sigma**2``, which is all zero for such a spectrum, so it raises there
    as an all-zero spectrum does.
    """
    kept = kept_masks(weights, policy).nonzero()[0]
    return kept, unit_norm(weights.raw[kept])
