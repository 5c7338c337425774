"""E-values for selective deployment-risk (SDR) control.

Each test point ``j`` receives a risk-adjusted e-value built from the pooled
calibration/test scores: a score cutoff is calibrated so that a plug-in
estimate of the selective risk stays below ``gamma``, and the e-value is the
infimum over candidate risk values ``ell in [0, 1]`` of

    (n + 1) * 1{s_j <= t_j(ell)}
    ---------------------------------------------------------
    ell * 1{s_j <= t_j(ell)} + sum_i L_i * 1{s_i <= t_j(ell)}

where ``t_j(ell)`` is the largest pooled score whose estimated selective risk

    FR_j(t; ell) = [ell * 1{s_j <= t} + sum_i L_i 1{s_i <= t}]
                   / (1 + #{other test points <= t}) * m / (n + 1)

does not exceed ``gamma``.  Feeding these e-values to the eBH filter (see
:mod:`score_kit.selection`) controls the SDR at the target level in finite
samples, for any score function.

Under covariate shift with weights ``w``, the same construction applies with
every calibration term weighted by ``w_i``, ``n + 1`` replaced by
``w_j + sum_i w_i``, and the ``ell`` term weighted by ``w_j``.

Three readers of one pooled prefix over the score-sorted data, each in
``O(n+m)`` memory: :func:`sdr_evalues` / :func:`weighted_sdr_evalues`
compute the infimum exactly in ``O((n+m) m + (n+m) log(n+m))`` time as a
minimum over the pooled thresholds between ``t_j(1)`` and ``t_j(0)`` that
are feasible at ``ell = 0`` (exact in floating point; see
``_sdr_kernel_grid``); :func:`sdr_evalues_at` evaluates the objective at one
fixed ``ell`` and :func:`sdr_evalues_conservative` (simpler, slightly
conservative) avoids the infimum, both in ``O((n+m) log(n+m))`` time and for
unit weights only.  The brute-force oracles :func:`sdr_evalues_oracle` /
:func:`weighted_sdr_evalues_oracle` are deliberately separate; they build
threshold-by-n comparison matrices and are meant for small instances.

The exact kernel takes a grid of levels.  Per test point it makes one
``O(n+m)`` pass for the level-free ratios ``FR_j(t; 0)`` and ``FR_j(t; 1)``,
then ``O(n+m)`` comparisons per level, so a sweep over ``k`` levels costs
well under ``k`` single-level calls.  The single-level call is that grid at
one level and keeps its per-point pass.  A loop-free unit-weight form would
make it several times cheaper, but the benchmark's select-sdr workload
keeps state per completed operation, so until that workload bounds its
state a faster op reads as a peak-memory regression (see ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidatedBatch, _sorted_prefix, validate_batch

__all__ = [
    "SdrEvalueSet",
    "sdr_evalues",
    "weighted_sdr_evalues",
    "sdr_evalues_oracle",
    "weighted_sdr_evalues_oracle",
    "sdr_evalues_conservative",
    "sdr_evalues_at",
]


@dataclass(frozen=True)
class SdrEvalueSet:
    """Per-test-point e-values plus threshold diagnostics.

    ``thresholds_at_0[j]`` / ``thresholds_at_1[j]`` are the score cutoffs
    ``t_j(0)`` / ``t_j(1)`` at the endpoints of the candidate-risk interval;
    ``nan`` means no pooled score was feasible.  ``evalues[j]`` is zero
    whenever the test score exceeds ``thresholds_at_1[j]``.
    """

    evalues: np.ndarray
    thresholds_at_0: np.ndarray
    thresholds_at_1: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.evalues, self.thresholds_at_0, self.thresholds_at_1):
            a.flags.writeable = False


def _require_unit_weights(batch: ValidatedBatch, name: str, weighted: str | None = None) -> None:
    """Reject non-unit weights on a unit-weight path; ``weighted`` names the
    variant that takes them, where one exists."""
    if not batch.has_unit_weights:
        if weighted is None:
            raise ValueError(f"{name} takes unit weights only; its construction has no weighted variant")
        raise ValueError(f"{name} is the unweighted path; use {weighted} for non-unit weights")


def _pooled_prefix(batch: ValidatedBatch):
    """``(vals, A, ntest)``: the pooled scores in ascending order, the weighted
    calibration risk over scores ``<= vals[i]`` and the (float) count of test
    scores ``<= vals[i]``.  Ties share ``A`` and ``ntest``."""
    vals, prefix0 = _sorted_prefix(np.concatenate([batch.calib_scores, batch.test_scores]),
                                   np.concatenate([batch.calib_weights * batch.calib_risks,
                                                   np.zeros(batch.m)]))
    A = prefix0[np.searchsorted(vals, vals, side="right")]
    ntest = np.searchsorted(np.sort(batch.test_scores), vals, side="right").astype(float)
    return vals, A, ntest


def _sdr_kernel_grid(batch: ValidatedBatch, gammas):
    """Exact e-values at every level of ``gammas``, shared by the unweighted
    and weighted paths (unit weights recover the exchangeable formulas).

    Per test point, ``t(0) >= t(1)`` are the largest thresholds feasible at
    ``ell = 0`` and ``ell = 1``.  The e-value is ``total_w / largest`` with
    ``largest = max(w_j * clip(ell_bar, 0, 1) + A)`` over the ``ell = 0``
    feasible thresholds from ``t(1)``'s tie group to ``t(0)``, where
    ``ell_bar`` solves ``FR_j(t; ell) = gamma``.  Thresholds that no ``ell``
    attains are harmless: each has a larger feasible one with a larger
    ``ell_bar``, and clip, ``w_j * x``, ``+ A`` and ``total_w / x`` are
    monotone under rounding.  The ``t(0) == t(1)`` shortcut is kept on
    purpose: it uses ``ell = 1`` exactly, not a rounded ``ell_bar``.

    The ratios ``FR_j(t; 0)`` and ``FR_j(t; 1)`` do not depend on the level,
    so each point computes them once, in ``O(n+m)``, on descending copies of
    the pooled prefix.  Each level then costs ``O(n+m)`` comparisons per
    point: on the descending copy the first True of a feasibility mask is the
    largest feasible threshold, which ``argmax`` returns (and a False there
    means no threshold is feasible).  Rounding keeps ``FR_j(t; 1) >=
    FR_j(t; 0)``, so ``t(1)`` is searched from ``t(0)`` down, and the
    breakpoint window is a slice of the ``ell = 0`` mask.  Every value is the
    same float expression as in a one-level pass, so a grid gives the bits of
    one call per level.

    Returns ``(evalues, t0, t1)``, each of shape ``(len(gammas), m)``, with
    ``nan`` marking absent thresholds.
    """
    gammas = tuple(gammas)
    for gamma in gammas:
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
    m, size = batch.m, batch.n + batch.m
    vals, A, ntest = _pooled_prefix(batch)
    desc_vals, desc_A, desc_den = vals[::-1].copy(), A[::-1].copy(), (1.0 + ntest)[::-1].copy()
    calib_wsum = float(np.sum(batch.calib_weights))

    evalues = np.zeros((len(gammas), m))
    t0_arr = np.full((len(gammas), m), np.nan)
    t1_arr = np.full((len(gammas), m), np.nan)

    for j in range(m):
        sj = batch.test_scores[j]
        wj = batch.test_weights[j]
        total_w = calib_wsum + wj
        covers = desc_vals >= sj                 # 1{s_j <= t}
        denom = desc_den - covers                # 1 + #{other tests <= t}, always >= 1
        factor = m / total_w
        fr0 = desc_A / denom * factor
        fr1 = (desc_A + wj * covers) / denom * factor

        for g, gamma in enumerate(gammas):
            feas0 = fr0 <= gamma
            i0 = int(np.argmax(feas0))
            if not feas0[i0]:
                continue           # nothing feasible at ell = 0, so none at ell = 1
            t0_arr[g, j] = desc_vals[i0]
            feas1 = fr1[i0:] <= gamma
            i1 = int(np.argmax(feas1))
            if not feas1[i1]:
                continue           # no threshold at ell = 1 -> e-value 0
            i1 += i0
            t1 = desc_vals[i1]
            t1_arr[g, j] = t1
            if sj > t1:
                continue           # test score never covered -> e-value 0
            if desc_vals[i0] == t1:
                evalues[g, j] = total_w / (wj + desc_A[i1])
                continue

            # The feasible positions from t(0) down to t(1)'s tie group; the
            # window holds i1 and is never empty.
            win = np.flatnonzero(feas0[:size - np.searchsorted(vals, t1, side="left")])
            ell_bar = (gamma * total_w * denom[win] / m - desc_A[win]) / wj
            largest = np.max(wj * np.clip(ell_bar, 0.0, 1.0) + desc_A[win])
            evalues[g, j] = total_w / largest if largest > 0.0 else np.inf

    return evalues, t0_arr, t1_arr


def _sdr_kernel(batch: ValidatedBatch, gamma: float):
    """:func:`_sdr_kernel_grid` at the one level ``gamma``: ``(evalues, t0,
    t1)``, each of shape ``(m,)``."""
    evalues, t0_arr, t1_arr = _sdr_kernel_grid(batch, (gamma,))
    return evalues[0], t0_arr[0], t1_arr[0]


def sdr_evalues(calib, tests, gamma: float) -> SdrEvalueSet:
    """Exact SDR e-values for exchangeable data (unit weights).

    Parameters
    ----------
    calib : sequence of CalibSample / (score, risk) pairs, or ValidatedBatch
    tests : sequence of TestPoint / bare scores
    gamma : float
        Internal calibration level; set equal to the eBH target level for
        maximum power.

    Returns
    -------
    SdrEvalueSet
        One e-value per test point, exactly equal to the defining infimum.
    """
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues", "weighted_sdr_evalues")
    return weighted_sdr_evalues(batch, None, gamma)


def weighted_sdr_evalues(calib, tests, gamma: float) -> SdrEvalueSet:
    """Exact SDR e-values under covariate shift, using the weights carried by
    the calibration samples and test points.  With unit weights this reduces
    to :func:`sdr_evalues` exactly."""
    return SdrEvalueSet(*_sdr_kernel(validate_batch(calib, tests), gamma))


# ---------------------------------------------------------------------------
# Brute-force oracles.  These transcribe the defining infimum directly:
# for every candidate ell, scan all pooled thresholds for the largest
# feasible one and evaluate the objective.  They share no code with the
# kernel above and exist to verify it.
# ---------------------------------------------------------------------------

# Feasibility guard: the infimum is attained at breakpoints where the
# estimated risk equals gamma exactly in real arithmetic; the guard keeps
# those boundary thresholds feasible under floating-point rounding.
# sdr_evalues_at shares it, so it equals the oracle at ell_set=(ell,).
_BOUNDARY_TOL = 1e-12


def _oracle_ell_candidates(grid_size: int, breakpoints: np.ndarray, ell_set) -> np.ndarray:
    if ell_set is not None:
        ells = np.asarray(sorted(set(float(x) for x in ell_set)), dtype=float)
        if ells.size == 0:
            raise ValueError("ell_set must be non-empty")
        return ells
    if grid_size < 2:
        raise ValueError(f"ell_grid_size must be >= 2, got {grid_size!r}")
    grid = np.linspace(0.0, 1.0, grid_size)
    bp = breakpoints[np.isfinite(breakpoints)]
    bp = np.clip(bp, 0.0, 1.0)
    return np.unique(np.concatenate([grid, [0.0, 1.0], bp]))


def _oracle_sums(batch: ValidatedBatch, j: int):
    """Point ``j``'s sums at every distinct pooled threshold, by direct
    comparison (no prefix machinery)."""
    thresholds = np.unique(np.concatenate([batch.calib_scores, batch.test_scores]))
    calib_below = batch.calib_scores[None, :] <= thresholds[:, None]
    wl_sum = calib_below @ (batch.calib_weights * batch.calib_risks)
    others = np.delete(batch.test_scores, j)
    n_other = np.sum(others[None, :] <= thresholds[:, None], axis=1)
    covers = (batch.test_scores[j] <= thresholds).astype(float)
    total_w = batch.test_weights[j] + float(np.sum(batch.calib_weights))
    return thresholds, wl_sum, n_other, covers, total_w


def _weighted_sdr_evalue_oracle_one(batch: ValidatedBatch, j: int, gamma: float,
                                    ell_grid_size: int, ell_set) -> float:
    m = batch.m
    sj = batch.test_scores[j]
    wj = batch.test_weights[j]
    thresholds, wl_sum, n_other, covers, total_w = _oracle_sums(batch, j)

    breakpoints = (gamma * total_w * (1.0 + n_other) / m - wl_sum) / wj
    ells = _oracle_ell_candidates(ell_grid_size, breakpoints, ell_set)

    best = np.inf
    for ell in ells:
        fr = (wj * ell * covers + wl_sum) / (1.0 + n_other) * (m / total_w)
        feasible = np.flatnonzero(fr <= gamma + _BOUNDARY_TOL)
        if feasible.size == 0:
            return 0.0
        t = thresholds[feasible[-1]]
        if sj > t:
            return 0.0
        denom = wj * ell + wl_sum[feasible[-1]]
        value = total_w / denom if denom > 0.0 else np.inf
        best = min(best, value)
    return float(best)


def sdr_evalues_oracle(calib, tests, gamma: float, ell_grid_size: int = 1001,
                       ell_set=None) -> SdrEvalueSet:
    """Brute-force SDR e-values: per test point, minimize the defining
    objective over a uniform candidate-risk grid augmented with the
    closed-form breakpoints of the threshold map (so the infimum over the
    whole interval is attained exactly).

    ``ell_set`` restricts the infimum to an explicit finite set of attainable
    risk values instead (e.g. ``{0, 1}`` for binary risks), in which case the
    grid is not used.
    """
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_oracle", "weighted_sdr_evalues_oracle")
    return weighted_sdr_evalues_oracle(batch, None, gamma, ell_grid_size, ell_set)


def weighted_sdr_evalues_oracle(calib, tests, gamma: float, ell_grid_size: int = 1001,
                                ell_set=None) -> SdrEvalueSet:
    """Weighted analogue of :func:`sdr_evalues_oracle`."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    batch = validate_batch(calib, tests)
    ev = np.array([
        _weighted_sdr_evalue_oracle_one(batch, j, gamma, ell_grid_size, ell_set)
        for j in range(batch.m)
    ])
    t0 = np.array([_oracle_threshold(batch, j, gamma, 0.0) for j in range(batch.m)])
    t1 = np.array([_oracle_threshold(batch, j, gamma, 1.0) for j in range(batch.m)])
    return SdrEvalueSet(ev, t0, t1)


def _oracle_threshold(batch: ValidatedBatch, j: int, gamma: float, ell: float) -> float:
    thresholds, wl_sum, n_other, covers, total_w = _oracle_sums(batch, j)
    fr = (batch.test_weights[j] * ell * covers + wl_sum) / (1.0 + n_other) * (batch.m / total_w)
    feasible = np.flatnonzero(fr <= gamma + _BOUNDARY_TOL)
    return float(thresholds[feasible[-1]]) if feasible.size else np.nan


# ---------------------------------------------------------------------------
# Fixed-ell and conservative e-values: one threshold per point, from the prefix.
# ---------------------------------------------------------------------------

def _own_term_threshold(vals: np.ndarray, test_scores: np.ndarray,
                        plain: np.ndarray, plus: np.ndarray):
    """``(hat, covered)``: per test point, the index of its last feasible
    pooled threshold (-1 if none) and whether that lies at or above its score.
    ``plain`` / ``plus`` mark feasibility without / with the point's own term,
    which enters from ``first[j]``, the first threshold ``>= s_j``; so the
    last ``plus`` index counts when it is ``>= first[j]``."""
    last_plain = np.maximum.accumulate(np.concatenate(([-1], np.where(plain, np.arange(plain.size), -1))))
    last_plus = np.max(np.flatnonzero(plus), initial=-1)
    first = np.searchsorted(vals, test_scores, side="left")
    covered = last_plus >= first
    return np.where(covered, last_plus, last_plain[first]), covered


def sdr_evalues_at(calib, tests, gamma: float, ell: float) -> np.ndarray:
    """Evaluate the SDR e-value objective at a single fixed candidate risk
    ``ell`` (no infimum), for unit weights.  ``ell = 1`` gives the variant
    that, for binary risks with ``gamma`` equal to the eBH level, makes eBH
    selection coincide with BH on clipped conformal p-values."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if not (0.0 <= ell <= 1.0):
        raise ValueError(f"ell must lie in [0, 1], got {ell!r}")
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_at")
    vals, A, ntest = _pooled_prefix(batch)
    factor = batch.m / (batch.n + 1.0)
    # 1 + #{other tests <= t} is 1 + ntest below s_j and ntest (>= 1) from s_j on.
    with np.errstate(divide="ignore", invalid="ignore"):
        hat, covered = _own_term_threshold(vals, batch.test_scores,
                                           A / (1.0 + ntest) * factor <= gamma + _BOUNDARY_TOL,
                                           (ell + A) / ntest * factor <= gamma + _BOUNDARY_TOL)
        return np.where(covered, (batch.n + 1.0) / (ell + A[hat]), 0.0)


def sdr_evalues_conservative(calib, tests, alpha: float) -> SdrEvalueSet:
    """Simpler, slightly conservative SDR e-values.

    For each test point ``j``,

        e_j = 1{s_j <= t_hat_j} / #{test scores <= t_tilde} * m / alpha,

    where ``t_hat_j`` is the largest pooled score whose estimated selective
    risk (counting the test point's own risk as 1) stays below ``alpha`` and
    ``t_tilde`` is its analogue without the test term.  The e-value is zero
    when ``t_hat_j`` does not exist or no test score falls below ``t_tilde``.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_conservative")
    n, m = batch.n, batch.m
    # Ties share risk_sum and test_count, so no rule below splits a group.
    thresholds, risk_sum, test_count = _pooled_prefix(batch)

    def feasible(numerator: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(test_count > 0, numerator / np.maximum(test_count, 1),
                             np.where(numerator > 0, np.inf, 0.0))
        return ratio * (m / (n + 1.0)) <= alpha

    plain = feasible(risk_sum)
    hat, covered = _own_term_threshold(thresholds, batch.test_scores, plain, feasible(risk_sum + 1.0))
    tilde = np.max(np.flatnonzero(plain), initial=-1)
    t_tilde = thresholds[tilde] if tilde >= 0 else np.nan
    denom_count = test_count[tilde] if tilde >= 0 else 0
    t_hat = np.where(hat >= 0, thresholds[hat], np.nan)
    evalues = np.zeros(m)
    if denom_count:
        evalues[covered] = (m / alpha) / denom_count
    return SdrEvalueSet(evalues, np.full(m, t_tilde), t_hat)
