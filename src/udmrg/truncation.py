"""Coherence-aware bond-truncation policies.

A :class:`TruncationPolicy` chooses which Schmidt states survive a bond
truncation.  Beyond the standard rule (keep the largest singular values), the
enhanced policies re-rank states using per-state coherence charges built from
eigenvector derivative overlaps:

* first-order charge  ``Q[a]  = sum_{b != a} (p_a - p_b)^2 p_a p_b / (p_a + p_b)^2 |D[a, b]|^2``
* second-order charge ``Q2[a] = m * sum_c |D2[a, c]|^2`` with multiplicity ``m``

and then either damp singular values, ``sigma * exp(-g1 Q - g2 Q2)``, or shift
probabilities, ``p + L1 Q (+ L2 Q2)``.  Effective weights are *ranking scores
only*: the retained amplitudes are always the raw singular values,
renormalized.  With all coefficients zero every policy degenerates exactly to
the standard rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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


@dataclass(frozen=True)
class TruncationPolicy:
    """Selection rule plus its coefficients and budget.

    ``gamma1``/``gamma2`` damp singular values exponentially; ``lambda1`` /
    ``lambda2`` shift eigenvalue weights additively.  A policy only reads the
    coefficients its kind uses: ``standard`` ignores all of them, ``uhlmann``
    ignores everything but ``gamma1``, and so on.
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
        for name in ("gamma1", "gamma2", "lambda1", "lambda2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.max_kept < 1:
            raise ValueError(f"max_kept must be positive, got {self.max_kept}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must lie in [0, 1), got {self.cutoff}")


@dataclass
class TruncationWeights:
    """Raw weights, their charges, and the policy's effective ranking scores.

    ``raw`` holds singular values for the sigma-damping kinds and
    probabilities for the eigenvalue-shift kinds, descending either way.
    ``kept`` is filled by :func:`select_states`.
    """

    raw: np.ndarray
    charges1: np.ndarray
    charges2: np.ndarray
    effective: np.ndarray
    kept: Optional[np.ndarray] = field(default=None)

    def __post_init__(self) -> None:
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.ndim != 1 or self.raw.size == 0:
            raise ValueError("raw weights must be a non-empty 1-d array")
        if np.any(self.raw < 0):
            raise ValueError("raw weights must be non-negative")
        if np.any(np.diff(self.raw) > 0):
            raise ValueError("raw weights must be sorted descending")
        for name in ("charges1", "charges2", "effective"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.raw.shape:
                raise ValueError(f"{name} must match raw weights in shape")
            setattr(self, name, arr)


def charge_first_order(p, d_overlaps) -> np.ndarray:
    """First-order coherence charge of each state.

    ``p`` are the probabilities of the tracked spectrum and ``d_overlaps`` the
    derivative-overlap matrix ``D[a, b] = <a|db/dt>``.  Pairs with
    ``p_a + p_b < 1e-14`` contribute zero.  The diagonal never contributes
    because its pair weight vanishes identically.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d_overlaps)
    if d.shape != (p.size, p.size):
        raise ValueError(f"overlap matrix shape {d.shape} does not match {p.size} states")
    pa = p[:, None]
    pb = p[None, :]
    total = pa + pb
    safe = np.where(total < PAIR_FLOOR, 1.0, total)
    weight = np.where(total < PAIR_FLOOR, 0.0, (pa - pb) ** 2 * pa * pb / safe**2)
    return np.sum(weight * np.abs(d) ** 2, axis=1)


def charge_second_order(d2_overlaps, multiplicity: Optional[int] = None) -> np.ndarray:
    """Second-order coherence charge ``Q2[a] = m * sum_c |D2[a, c]|^2``.

    The inner index of the rank-3 coherence data collapses to a multiplicity
    factor ``m`` in an orthonormal basis; it defaults to the basis dimension
    and can be overridden (``multiplicity=1`` disables the factor).
    """
    d2 = np.asarray(d2_overlaps)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ValueError(f"second-overlap matrix must be square, got {d2.shape}")
    m = d2.shape[0] if multiplicity is None else int(multiplicity)
    if m < 1:
        raise ValueError(f"multiplicity must be positive, got {m}")
    return m * np.sum(np.abs(d2) ** 2, axis=1)


def compute_weights(sigma, charges1, charges2, policy: TruncationPolicy) -> TruncationWeights:
    """Bundle singular values and charges into ranked weights for ``policy``.

    ``standard`` ranks by the singular values themselves; ``uhlmann`` and
    ``categorified`` damp them to ``sigma * exp(-g1 Q - g2 Q2)``, with
    ``uhlmann`` forcing ``g2 = 0``.  The eigenvalue-shift kinds operate on
    probabilities ``p = sigma^2`` (normalized) and shift them to
    ``p + L1 Q`` (``+ L2 Q2`` for ``coherence_eigenvalue_2``).  The charges
    are taken as given -- callers are responsible for computing them from
    the matching probability vector.
    """
    sigma = np.asarray(sigma, dtype=float)
    q1 = np.asarray(charges1, dtype=float)
    q2 = np.asarray(charges2, dtype=float)
    if policy.kind == "standard":
        raw = sigma
        effective = sigma.copy()
    elif policy.kind in ("uhlmann", "categorified"):
        raw = sigma
        g2 = policy.gamma2 if policy.kind == "categorified" else 0.0
        effective = sigma * np.exp(-policy.gamma1 * q1 - g2 * q2)
    elif policy.kind in ("coherence_eigenvalue", "coherence_eigenvalue_2"):
        total = float(np.sum(sigma**2))
        raw = sigma**2 / total if total > 0 else sigma**2
        effective = raw + policy.lambda1 * q1
        if policy.kind == "coherence_eigenvalue_2":
            effective = effective + policy.lambda2 * q2
    else:  # pragma: no cover - guarded by TruncationPolicy.__post_init__
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    return TruncationWeights(raw=raw, charges1=q1, charges2=q2, effective=effective)


def select_states(weights: TruncationWeights, policy: TruncationPolicy):
    """Pick the retained states and renormalize their raw weights.

    States are ranked by effective weight descending (ties resolved toward the
    lower original index); of those whose effective weight reaches
    ``cutoff * max(effective)``, at most ``max_kept`` survive.  Returns
    ``(kept, renormalized)`` with ``kept`` ascending and the retained raw
    weights scaled to a unit vector.  Raises on an all-zero spectrum.
    """
    raw = weights.raw
    eff = weights.effective
    if not np.any(raw > 0):
        raise ValueError("all-zero spectrum: nothing to keep at this bond")
    order = np.lexsort((np.arange(eff.size), -eff))
    threshold = policy.cutoff * float(np.max(eff))
    admitted = [i for i in order if eff[i] >= threshold]
    kept = np.sort(np.asarray(admitted[: policy.max_kept], dtype=int))
    if kept.size == 0:
        # max(effective) always passes its own threshold; guard anyway
        kept = np.asarray([int(order[0])])
    norm = float(np.linalg.norm(raw[kept]))
    if norm == 0.0:
        # effective ranking admitted only zero-weight states; fall back to the
        # largest raw weight so the retained block stays normalizable
        kept = np.asarray([int(np.argmax(raw))])
        norm = float(np.linalg.norm(raw[kept]))
    renormalized = raw[kept] / norm
    weights.kept = kept
    return kept, renormalized


def standard_select(max_kept: int, cutoff: float = 0.0):
    """Plain top-``max_kept`` singular-value selector for ``svd_truncate``."""
    policy = TruncationPolicy(kind="standard", max_kept=max_kept, cutoff=cutoff)

    def select(sigma, u=None):
        zeros = np.zeros_like(np.asarray(sigma, dtype=float))
        weights = compute_weights(sigma, zeros, zeros, policy)
        return select_states(weights, policy)

    return select
