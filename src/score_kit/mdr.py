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
reduces exactly to one comparison, with ``tol = 1e-12``
(``sdr._BOUNDARY_TOL``), the tolerance of every feasibility test,

    deploy  <=>  (1 + sum_i L_i 1{s_i <= s_test}) / (n + 1) <= gamma + tol.

For ``gamma > alpha`` the decision also reads the e-value: it must reach
``1 / alpha``.  The weighted variants replace every calibration term by its
weighted version and ``n + 1`` by the total weight, giving finite-sample
control under covariate shift with known (or plugged-in) weights.

One vectorized rule evaluates this for all test points at once, reading the
sums from the shared sorted prefix: :func:`deploy_mask` returns its mask,
and :func:`mdr_decide` / :func:`weighted_mdr_decide` read its one entry, so
batch and single-point decisions agree bit for bit.

An e-value is the selective-risk kernel on the point alone with the
calibration data, which ``sdr._mdr_evalues`` runs for a whole batch in one
pass; :func:`mdr_evalue_oracle` / :func:`weighted_mdr_evalue_oracle`
transcribe the defining infimum by brute force for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Levels, ValidatedBatch, _check_gamma, _sorted_prefix, validate_batch
from .sdr import _BOUNDARY_TOL, _mdr_evalues, _oracle_ell_candidates, _require_unit_weights

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
    ``evalue_lower_bound`` is the exact e-value (diagnostic only): the
    decision at any level ``alpha'`` with ``1/alpha'`` below this bound would
    also deploy.

    ``deploy`` reads the statistic, with the 1e-12 tolerance, and at ``gamma
    > alpha`` also the e-value.  So at ``gamma <= alpha``, where risk sums
    round (tenths, not dyadic), the e-value can sit an ulp below ``1/alpha``.
    """

    deploy: bool
    empirical_stat: float
    evalue_lower_bound: float


def _single_point_batch(calib, test) -> ValidatedBatch:
    if isinstance(calib, ValidatedBatch):
        raise ValueError("pass raw calibration samples together with one test point")
    return validate_batch(calib, [test])


def _decide(batch: ValidatedBatch, levels: Levels, evalues=None) -> tuple[np.ndarray, np.ndarray]:
    """The MDR statistic and the deploy decision for every test point: the
    one rule behind :func:`deploy_mask`, :func:`mdr_decide` and
    :func:`weighted_mdr_decide`; ``evalues``, at ``gamma``, if already known."""
    sorted_scores, prefix0, _ = _sorted_prefix(batch.calib_scores,
                                               batch.calib_weights * batch.calib_risks)
    k = np.searchsorted(sorted_scores, batch.test_scores, side="right")
    total_w = np.sum(batch.calib_weights) + batch.test_weights
    stats = (batch.test_weights + prefix0[k]) / total_w
    mask = stats <= levels.gamma + _BOUNDARY_TOL
    if levels.gamma > levels.alpha:
        if evalues is None:
            evalues = _mdr_evalues(batch, levels.gamma)
        mask &= evalues >= 1 / levels.alpha
    return stats, mask


def _point_decision(batch: ValidatedBatch, levels: Levels) -> MdrDecision:
    evalues = _mdr_evalues(batch, levels.gamma)
    stats, mask = _decide(batch, levels, evalues)
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
    return float(_mdr_evalues(batch, gamma)[0])


def weighted_mdr_evalue(calib, test, gamma: float) -> float:
    """Exact weighted MDR e-value for one test point."""
    return float(_mdr_evalues(_single_point_batch(calib, test), gamma)[0])


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
    return _decide(batch, levels)[1]
