"""Marginal deployment-risk (MDR) decisions and e-values.

A single test point is deployed when its risk-adjusted e-value reaches
``1 / alpha``; the e-value is the infimum over candidate risk values
``ell in [0, 1]`` of

    (n + 1) * 1{s_test <= t(ell)}
    -------------------------------------------------------------
    sum_i L_i * 1{s_i <= t(ell)} + ell * 1{s_test <= t(ell)}

with ``t(ell)`` the largest pooled score whose empirical risk estimate

    F(t; ell) = [sum_i L_i 1{s_i <= t} + ell * 1{s_test <= t}] / (n + 1)

stays below ``gamma``.  For ``gamma <= alpha`` the thresholded decision
reduces, in real arithmetic, to one comparison, with ``tol = 1e-12``
(``sdr._BOUNDARY_TOL``), the tolerance of every feasibility test,

    deploy  <=>  (1 + sum_i L_i 1{s_i <= s_test}) / (n + 1) <= gamma + tol.

At every level the decision reads both: the comparison, and the e-value
reaching ``1 / alpha``.  So a deployed point's e-value always reaches
``1 / alpha``; at ``gamma <= alpha`` the e-value only removes points whose
risk sums round (tenths, not dyadic) so that it sits an ulp below.  The
weighted variants replace every calibration term by its weighted version
and ``n + 1`` by the total weight, giving finite-sample control under
covariate shift with known (or plugged-in) weights.

One vectorized rule evaluates this for all test points at once, reading the
sums from the calibration scores' sorted prefix: :func:`deploy_mask`
returns its mask, and :func:`mdr_decide` / :func:`weighted_mdr_decide` read
its one entry, so batch and single-point decisions agree bit for bit.

An e-value is the selective-risk kernel on the point alone with the
calibration data, which the same rule reads from the same prefix for a
whole batch; :func:`mdr_evalue_oracle` / :func:`weighted_mdr_evalue_oracle`
transcribe the defining infimum by brute force for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Levels, ValidatedBatch, _check_gamma, _sorted_prefix, validate_batch
from .sdr import _BOUNDARY_TOL, _oracle_ell_candidates, _ratio_bounds, _read_at_t0, _require_unit_weights

__all__ = [
    "MdrDecision",
    "deploy_mask",
    "mdr_decide",
    "weighted_mdr_decide",
    "mdr_evalue",
    "weighted_mdr_evalue",
    "mdr_evalue_oracle",
    "weighted_mdr_evalue_oracle",
]


@dataclass(frozen=True)
class MdrDecision:
    """Deploy/abstain outcome for one test point.

    ``empirical_stat`` is the left-hand statistic of the shortcut comparison;
    ``evalue_lower_bound`` is the exact e-value: the decision at any level
    ``alpha'`` with ``1/alpha'`` below this bound would also deploy.

    ``deploy`` reads the statistic, with the 1e-12 tolerance, and the
    e-value at every level, so a deployed point's ``evalue_lower_bound``
    always reaches ``1/alpha``.
    """

    deploy: bool
    empirical_stat: float
    evalue_lower_bound: float


def _single_point_batch(calib, test) -> ValidatedBatch:
    if isinstance(calib, ValidatedBatch):
        raise ValueError("pass raw calibration samples together with one test point")
    return validate_batch(calib, [test])


def _decide(batch: ValidatedBatch, gamma: float, alpha: float = np.inf):
    """``(stats, mask, evalues)``: per test point the statistic, the decision
    at ``Levels(alpha, gamma)`` and the e-value at ``gamma``, all from one
    calibration prefix.  A point deploys where its statistic is at most
    ``gamma + tol`` and its e-value reaches ``1 / alpha``.

    The e-value is the kernel's on the point alone, whose ratios ``fl(A *
    f)`` and, from ``s_j`` on, ``fl(fl(A + w_j) * f)``, ``f = 1 / total_w``,
    are nondecreasing in the calibration prefix ``A``.  So ``t(0)``'s prefix
    ``a`` is the largest attained one (0 or a tie group's closing prefix) at
    most ``sdr._ratio_bounds(gamma + tol, f)``, ``t(1) = t(0)`` where
    ``fl(fl(a + w_j) * f) <= gamma + tol``, and ``s_j <= t(1)`` where that
    holds at ``s_j``'s own prefix.  The read is the kernel's, at m = 1.
    """
    _check_gamma(gamma)
    sorted_scores, prefix0, _ = _sorted_prefix(batch.calib_scores,
                                               batch.calib_weights * batch.calib_risks)
    own = prefix0[np.searchsorted(sorted_scores, batch.test_scores, side="right")]
    w = batch.test_weights
    total_w = np.sum(batch.calib_weights) + w
    stats = (w + own) / total_w
    bound = gamma + _BOUNDARY_TOL
    closing = sorted_scores[1:] != sorted_scores[:-1]   # tie groups that close before the last
    attained = np.concatenate(([0.0], prefix0[1:-1][closing], prefix0[-1:]))
    f = 1 / total_w
    with np.errstate(over="ignore", divide="ignore"):   # inf past the largest double, or at a = 0
        a = attained[attained.searchsorted(_ratio_bounds(bound, f), side="right") - 1]
        e = _read_at_t0(total_w, w, a, 1 / gamma, (a + w) * f <= bound)
    e = np.where((own + w) * f <= bound, e, 0.0)
    return stats, (stats <= bound) & (e >= 1 / alpha), e


def _point_decision(batch: ValidatedBatch, levels: Levels) -> MdrDecision:
    stats, mask, evalues = _decide(batch, levels.gamma, levels.alpha)
    return MdrDecision(deploy=bool(mask[0]), empirical_stat=float(stats[0]),
                       evalue_lower_bound=float(evalues[0]))


def mdr_decide(calib, test_score: float, levels: Levels) -> MdrDecision:
    """Deploy/abstain decision for one test point under exchangeability.

    Parameters
    ----------
    calib : sequence of CalibSample / (score, risk) pairs
        Labeled calibration data with unit weights.
    test_score : float
        Score of the candidate test point.
    levels : Levels
        Target level ``alpha`` and calibration level ``gamma`` (default
        ``alpha``; values below ``alpha`` only make the rule stricter).
    """
    batch = _single_point_batch(calib, test_score)
    _require_unit_weights(batch, "mdr_decide", "weighted_mdr_decide")
    return _point_decision(batch, levels)


def weighted_mdr_decide(calib, test, levels: Levels) -> MdrDecision:
    """Covariate-shift analogue of :func:`mdr_decide`; ``test`` carries the
    test point's weight.  Unit weights reproduce the unweighted decision, and
    rescaling all weights by a common factor changes nothing."""
    return _point_decision(_single_point_batch(calib, test), levels)


def mdr_evalue(calib, test_score: float, gamma: float) -> float:
    """Exact MDR e-value (the defining infimum), computed via the
    selective-risk kernel specialized to a single test point."""
    batch = _single_point_batch(calib, test_score)
    _require_unit_weights(batch, "mdr_evalue", "weighted_mdr_evalue")
    return float(_decide(batch, gamma)[2][0])


def weighted_mdr_evalue(calib, test, gamma: float) -> float:
    """Exact weighted MDR e-value for one test point."""
    return float(_decide(_single_point_batch(calib, test), gamma)[2][0])


# ---------------------------------------------------------------------------
# Brute-force oracles: direct transcription of the defining infimum, used to
# verify the shortcut decision and the kernel.
# ---------------------------------------------------------------------------

def mdr_evalue_oracle(calib, test_score: float, gamma: float,
                      ell_grid_size: int = 1001, ell_set=None) -> float:
    """Brute-force MDR e-value: minimize the defining objective over a
    uniform candidate-risk grid augmented with the closed-form breakpoints of
    the threshold map.  ``ell_set`` restricts the infimum to an explicit
    finite set of attainable risk values instead."""
    batch = _single_point_batch(calib, test_score)
    _require_unit_weights(batch, "mdr_evalue_oracle", "weighted_mdr_evalue_oracle")
    return _weighted_mdr_oracle(batch, gamma, ell_grid_size, ell_set)


def weighted_mdr_evalue_oracle(calib, test, gamma: float,
                               ell_grid_size: int = 1001, ell_set=None) -> float:
    """Weighted analogue of :func:`mdr_evalue_oracle`."""
    batch = _single_point_batch(calib, test)
    return _weighted_mdr_oracle(batch, gamma, ell_grid_size, ell_set)


def _weighted_mdr_oracle(batch: ValidatedBatch, gamma: float,
                         ell_grid_size: int, ell_set) -> float:
    _check_gamma(gamma)
    s_test = batch.test_scores[0]
    w_test = batch.test_weights[0]
    total_w = w_test + float(np.sum(batch.calib_weights))
    thresholds = np.unique(np.concatenate([batch.calib_scores, [s_test]]))
    calib_below = batch.calib_scores[None, :] <= thresholds[:, None]
    wl_sum = calib_below @ (batch.calib_weights * batch.calib_risks)
    covers = (s_test <= thresholds).astype(float)

    best = np.inf
    with np.errstate(over="ignore"):             # an overflowing breakpoint or e-value reads inf
        breakpoints = (gamma * total_w - wl_sum) / w_test
        for ell in _oracle_ell_candidates(ell_grid_size, breakpoints, ell_set):
            f = (wl_sum + w_test * ell * covers) / total_w
            feasible = np.flatnonzero(f <= gamma + _BOUNDARY_TOL)
            if feasible.size == 0:
                return 0.0
            t = thresholds[feasible[-1]]
            if s_test > t:
                return 0.0
            denom = wl_sum[feasible[-1]] + w_test * ell
            best = min(best, total_w / denom if denom > 0.0 else np.inf)
    return float(best)


# ---------------------------------------------------------------------------
# Vectorized batch decisions, used by the CLI and the simulation harness.
# Each test point forms its own pooled score set with the calibration data.
# ---------------------------------------------------------------------------

def deploy_mask(batch: ValidatedBatch, levels: Levels) -> np.ndarray:
    """Deploy decisions for every test point in the batch at once."""
    return _decide(batch, levels.gamma, levels.alpha)[1]
