"""Step-up selection filters: eBH on e-values, BH on p-values, and boosting.

The eBH filter selects the largest self-consistent set: with ``m`` e-values
and level ``alpha``, it finds the largest ``tau`` such that at least ``tau``
e-values reach ``m / (alpha * tau)`` and selects exactly those.  Dividing
each e-value by an independent uniform draw before filtering ("boosting")
enlarges the selection set without losing selective-risk control; the draws
are injected explicitly so that all randomness stays under caller control.

Infinite e-values rank above every finite threshold.  BH is included for the
binary-risk cross-check against clipped conformal p-values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScoreKitError, _check_alpha

__all__ = [
    "InvalidDraws",
    "EmptyInput",
    "SelectionResult",
    "ebh",
    "boost_hete",
    "boost_homo",
    "conformal_pvalues",
    "bh",
]


class InvalidDraws(ScoreKitError):
    pass


class EmptyInput(ScoreKitError):
    pass


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a step-up filter.

    ``selected`` is the set of selected test indices, ``tau`` its size, and
    ``threshold`` the step-up cutoff ``m / (alpha * tau)`` (``inf`` when
    nothing is selected).  ``boosted_evalues`` records the values actually
    thresholded when boosting was applied.
    """

    selected: frozenset[int]
    tau: int
    threshold: float
    boosted_evalues: tuple[float, ...] | None = None


def _checked(evalues, alpha: float) -> np.ndarray:
    """The shared prelude of the e-value filters: check ``alpha``, then the
    e-values, and return them as a float array."""
    _check_alpha(alpha)
    e = np.asarray(evalues, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise EmptyInput("need a non-empty 1-d collection of e-values")
    if np.any(np.isnan(e)) or np.any(e < 0.0):
        raise ValueError("e-values must be nonnegative (inf allowed, nan not)")
    return e


def _step_up(evalues: np.ndarray, alpha: float, boosted=None) -> SelectionResult:
    m = evalues.size
    e_sorted = np.sort(evalues)[::-1]
    taus = np.arange(1, m + 1)
    ok = np.flatnonzero(e_sorted >= m / (alpha * taus))
    tau = int(ok[-1] + 1) if ok.size else 0
    if tau == 0:
        return SelectionResult(frozenset(), 0, np.inf, boosted)
    threshold = m / (alpha * tau)
    selected = frozenset(np.flatnonzero(evalues >= threshold).tolist())
    return SelectionResult(selected, tau, float(threshold), boosted)


def ebh(evalues, alpha: float) -> SelectionResult:
    """eBH step-up filter at level ``alpha``.

    Selects ``{j : E_j >= m / (alpha * tau_hat)}`` where ``tau_hat`` is the
    largest ``tau`` with at least ``tau`` e-values above ``m / (alpha * tau)``.
    """
    return _step_up(_checked(evalues, alpha), alpha)


def boost_hete(evalues, alpha: float, draws) -> SelectionResult:
    """eBH applied to ``E_j / xi_j`` with one independent uniform draw per
    test point (``draws``: ``m`` values in ``(0, 1]``).  Always selects a
    superset of :func:`ebh` on the same inputs."""
    e = _checked(evalues, alpha)
    xis = np.asarray(draws, dtype=float)
    if xis.shape != e.shape:
        raise InvalidDraws(f"need exactly {e.size} draws, got shape {xis.shape}")
    if np.any(~(xis > 0.0)) or np.any(xis > 1.0):
        raise InvalidDraws("draws must lie in (0, 1]")
    boosted = e / xis
    return _step_up(boosted, alpha, tuple(boosted.tolist()))


def boost_homo(evalues, alpha: float, draw: float) -> SelectionResult:
    """eBH applied to ``E_j / xi`` with a single shared uniform draw."""
    e = _checked(evalues, alpha)
    if not (0.0 < draw <= 1.0):
        raise InvalidDraws(f"draw must lie in (0, 1], got {draw!r}")
    boosted = e / draw
    return _step_up(boosted, alpha, tuple(boosted.tolist()))


def conformal_pvalues(calib_scores, test_scores) -> np.ndarray:
    """Rank-based conformal p-values ``(1 + #{V_i <= v_hat_j}) / (n + 1)``.

    ``+inf`` entries in ``calib_scores`` are legal (clipped nonconformity
    scores use them to encode safe calibration points); ``nan`` is not.
    Counts come from one sort and a binary search per test score:
    O((n + m) log n) time and O(n + m) memory.
    """
    v = np.asarray(calib_scores, dtype=float)
    vhat = np.asarray(test_scores, dtype=float)
    if v.size == 0 or vhat.size == 0:
        raise EmptyInput("need non-empty calibration and test score lists")
    if np.isnan(v).any() or np.isnan(vhat).any():
        raise ValueError("conformal scores must not be nan")
    counts = np.searchsorted(np.sort(v), vhat, side="right")
    return (1.0 + counts) / (v.size + 1.0)


def bh(pvalues, alpha: float) -> SelectionResult:
    """Benjamini-Hochberg step-up filter at level ``alpha``.

    Selects the ``k*`` smallest p-values where ``k*`` is the largest ``k``
    with ``p_(k) <= alpha * k / m``: exactly the p-values at or below the
    cutoff ``alpha * k* / m``.  No tie straddles the cutoff, since every
    p-value ranked after ``k*`` exceeds ``alpha * (k* + 1) / m``.
    """
    _check_alpha(alpha)
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise EmptyInput("need a non-empty 1-d collection of p-values")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    p_sorted = np.sort(p)
    ok = np.flatnonzero(p_sorted <= alpha * np.arange(1, m + 1) / m)
    k_star = int(ok[-1] + 1) if ok.size else 0
    if k_star == 0:
        return SelectionResult(frozenset(), 0, np.inf)
    cutoff = alpha * k_star / m
    selected = frozenset(np.flatnonzero(p <= cutoff).tolist())
    return SelectionResult(selected, k_star, float(cutoff))
