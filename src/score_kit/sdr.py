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
compute the infimum exactly as a minimum over the pooled thresholds between
``t_j(1)`` and ``t_j(0)`` that are feasible at ``ell = 0`` (exact in floating
point; see ``_sdr_kernel_grid``); :func:`sdr_evalues_at` evaluates the
objective at one fixed ``ell`` and :func:`sdr_evalues_conservative`
(simpler, slightly conservative) avoids the infimum, both in ``O((n+m)
log(n+m))`` time and for unit weights only.  The brute-force oracles
:func:`sdr_evalues_oracle` / :func:`weighted_sdr_evalues_oracle` are
deliberately separate; they build threshold-by-n comparison matrices and are
meant for small instances.

The exact kernel takes a grid of levels and has two paths with the same
bits.  Non-unit weights find every point's ``t_j(0)`` at once: on thresholds
at or above ``s_j`` the ``ell = 0`` ratio is ``fl(r * f_j)``, with a key
``r`` that does not depend on ``j`` and ``f_j = m / (w_j + sum_i w_i)``, and
``fl(x * f)`` is monotone in ``x``, so one ``searchsorted`` over the running
minimum of ``r`` serves all points.  Only the points whose ``t_j(1)`` lies
below ``t_j(0)`` scan a slice, from ``t_j(0)`` down to ``s_j``, so a level
costs ``O((n+m) log(n+m))`` plus those slices.  Unit weights keep one
``O(n+m)`` pass per point, which computes the level-free ratios once and
then makes ``O(n+m)`` comparisons per level (see ``_sdr_kernel_grid`` for
why).
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
    :func:`sdr_evalues_conservative` fills them with its own cutoffs
    instead: ``t_tilde`` (shared by every point) and ``t_hat_j``.
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
    contrib = np.zeros(batch.n + batch.m)       # tests add no calibration risk
    np.multiply(batch.calib_weights, batch.calib_risks, out=contrib[:batch.n])
    vals, prefix0 = _sorted_prefix(np.concatenate((batch.calib_scores, batch.test_scores)), contrib)
    A = prefix0[vals.searchsorted(vals, side="right")]
    ntest = np.sort(batch.test_scores).searchsorted(vals, side="right").astype(float)
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

    Both paths evaluate every ratio with the same float expressions, so they
    give the same bits, and a grid gives the bits of one call per level.
    Non-unit weights take :func:`_keyed_grid`: ``O((n+m) log(n+m))`` per
    level, plus a slice for each point whose ``t(1)`` lies below ``t(0)``.
    Unit weights, and any grid with a subnormal level, take
    :func:`_pointwise_grid`, ``O(n+m)`` per point and level.  With unit
    weights every point shares the factor ``m / (n + 1)``, so the thresholds
    collapse further, onto the rule of :func:`_own_term_threshold`; a
    loop-free kernel built on that rule would replace the loop, which
    meanwhile is the reference the keyed path is tested against.

    Returns ``(evalues, t0, t1)``, each of shape ``(len(gammas), m)``, with
    ``nan`` marking absent thresholds.
    """
    gammas = tuple(gammas)
    for gamma in gammas:
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
    # A subnormal level's rounding gap spans many ulps of gamma / f_j, which
    # _ratio_bounds does not search.
    keyed = not batch.has_unit_weights and all(gamma >= _SMALLEST_NORMAL for gamma in gammas)
    return (_keyed_grid if keyed else _pointwise_grid)(batch, gammas)


def _descending_prefix(batch: ValidatedBatch):
    """``(vals, desc_vals, desc_A, desc_ntest)``: the pooled prefix, the last
    three in descending score order, where the first True of a feasibility
    mask is the largest feasible threshold."""
    vals, A, ntest = _pooled_prefix(batch)
    return vals, vals[::-1].copy(), A[::-1].copy(), ntest[::-1].copy()


def _grid_outputs(levels: int, m: int):
    """``(evalues, t0, t1)`` of shape ``(levels, m)``: zero e-values, and
    ``nan`` thresholds until a feasible one is found."""
    thresholds = np.empty((2, levels, m))
    thresholds.fill(np.nan)
    return np.zeros((levels, m)), thresholds[0], thresholds[1]


def _pointwise_grid(batch: ValidatedBatch, gammas: tuple):
    """The kernel as one ``O(n+m)`` pass per test point.

    The ratios ``FR_j(t; 0)`` and ``FR_j(t; 1)`` do not depend on the level,
    so each point computes them once.  Each level then costs ``O(n+m)``
    comparisons per point: ``argmax`` returns the first True of a mask (and a
    False there means no threshold is feasible).  Rounding keeps ``FR_j(t; 1)
    >= FR_j(t; 0)``, so ``t(1)`` is searched from ``t(0)`` down, and the
    breakpoint window is a slice of the ``ell = 0`` mask.
    """
    m, size = batch.m, batch.n + batch.m
    vals, desc_vals, desc_A, desc_ntest = _descending_prefix(batch)
    desc_den = 1.0 + desc_ntest
    calib_wsum = float(np.sum(batch.calib_weights))

    evalues, t0_arr, t1_arr = _grid_outputs(len(gammas), m)

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


_SMALLEST_NORMAL = np.finfo(float).smallest_normal


def _ratio_bounds(gamma: float, factor: np.ndarray) -> np.ndarray:
    """Per ``f`` in ``factor``, the largest double ``x`` with ``fl(x * f) <=
    gamma``, for a normal ``gamma``.  Rounding keeps ``fl(x * f)`` monotone in
    ``x``, so ``fl(x * f) <= gamma`` exactly when ``x`` is at most this
    bound.  ``gamma / f`` rounds to one of the two doubles around the real
    quotient: the one below always fits, and the rounding gap above ``gamma``
    is under one ulp of the quotient, so no double beyond the one above
    does."""
    x = gamma / factor
    # Positive doubles order like their int64 bit patterns, so -1 / +1 on the
    # bits steps to the neighbouring double.
    bits = x.view(np.int64) - (x * factor > gamma)
    return (bits + ((bits + 1).view(np.float64) * factor <= gamma)).view(np.float64)


def _first_at_most(q: np.ndarray, start: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per point, the first position ``>= start[j]`` with ``q <= bound[j]``;
    ``q`` ends in a ``-inf`` sentinel, which stands for "none".  The answer
    lies between the first such position for ``max(bound)`` and the first for
    ``min(bound)``, so only a point whose bracket stays open is scanned."""
    def first(level):
        at = (q <= level).nonzero()[0]
        return at[at.searchsorted(start)]

    found = first(bound.max())
    open_ = (q[found] > bound).nonzero()[0]
    if open_.size:
        last = first(bound.min())
        for j, a, b in zip(open_.tolist(), found[open_].tolist(), last[open_].tolist()):
            inside = (q[a + 1:b] <= bound[j]).nonzero()[0]
            found[j] = a + 1 + inside[0] if inside.size else b
    return found


def _keyed_grid(batch: ValidatedBatch, gammas: tuple):
    """The kernel with ``t(0)`` found for every point from keys free of j.

    Point ``j`` covers the first ``K_j = size - first_j`` descending
    positions, where ``FR_j(t; 0)`` is ``fl(r * f_j)`` with ``r = A / (den -
    1)`` and ``f_j = m / total_w``; below ``s_j`` both ratios are ``fl(q *
    f_j)`` with ``q = A / den``.  Neither ``r`` nor ``q`` depends on ``j``,
    and ``fl(x * f_j)`` is monotone in ``x``, so a position is feasible at
    ``ell = 0`` exactly when its key is at most ``R_j``, the largest double
    with ``fl(R_j * f_j) <= gamma`` (:func:`_ratio_bounds`).  Per level:

    * ``t(0)``'s position ``i0`` is one ``searchsorted`` of ``R`` on the
      running minimum of ``r``, kept when it lies below ``K_j``;
    * where ``ell = 1`` is feasible at ``i0`` too, ``t(1) = t(0)`` and the
      e-value is ``total_w / (w_j + A[i0])``, for all such points at once;
    * every other covered point scans ``[i0, K_j)`` for ``t(1)`` and takes
      the window max from that slice;
    * a point with no feasible covered threshold at ``ell = 0`` or ``1``
      gets e-value 0 and takes the first position from ``K_j`` on with ``q <=
      R_j`` (:func:`_first_at_most`), where both ratios agree.

    Every ratio is the float expression of :func:`_pointwise_grid`, so the
    bits are the same, in ``O((n+m) log(n+m))`` per level plus the scans.
    Memory is ``O(n+m)``.
    """
    m, size = batch.m, batch.n + batch.m
    evalues, t0_arr, t1_arr = _grid_outputs(len(gammas), m)
    if m == 0:
        return evalues, t0_arr, t1_arr

    vals, desc_vals, desc_A, cden = _descending_prefix(batch)   # cden: den - 1 = ntest
    w = batch.test_weights
    total_w = float(batch.calib_weights.sum()) + w
    factor = m / total_w
    K = size - vals.searchsorted(batch.test_scores, side="left")
    last = K - 1                                 # the last position point j covers
    kmax = int(K.max())                          # positions no point covers are left out
    r = desc_A[:kmax] / cden[:kmax]
    neg_min_r = -np.minimum.accumulate(r)        # nondecreasing

    for g, gamma in enumerate(gammas):
        R = _ratio_bounds(gamma, factor)
        i0 = neg_min_r.searchsorted(-R)          # the first r <= R
        hit = i0 < K
        late = ~hit                              # t(1) lies below s_j
        if hit.any():
            p = np.minimum(i0, last)             # i0 where hit, a covered stand-in elsewhere
            A0 = desc_A[p]
            one = hit & ((A0 + w) / cden[p] * factor <= gamma)
            np.copyto(t0_arr[g], desc_vals[p], where=hit)
            np.copyto(t1_arr[g], t0_arr[g], where=one)
            np.copyto(evalues[g], total_w / (w + A0), where=one)
            for j in (hit > one).nonzero()[0].tolist():
                i0j, kj, wj, total = p.item(j), K.item(j), w.item(j), total_w.item(j)
                feas1 = (desc_A[i0j:kj] + wj) / cden[i0j:kj] * factor.item(j) <= gamma
                i1 = feas1.argmax()
                if not feas1[i1]:
                    late[j] = True
                    continue
                # i1 > 0 here, so t(1) < t(0): tied positions share every ratio.
                t1 = t1_arr[g, j] = desc_vals[i0j + i1]
                end = size - vals.searchsorted(t1, side="left")   # past t(1)'s tie group
                win = i0j + (r[i0j:end] <= R.item(j)).nonzero()[0]
                ell_bar = (gamma * total * cden[win] / m - desc_A[win]) / wj
                largest = (wj * ell_bar.clip(0.0, 1.0) + desc_A[win]).max()
                evalues[g, j] = total / largest if largest > 0.0 else np.inf

        if late.any():
            # Below s_j both ratios are fl(q * f_j); the sentinel means none.
            late = late.nonzero()[0]
            q = np.concatenate((desc_A / (1.0 + cden), (-np.inf,)))
            below = _first_at_most(q, K[late], R[late])
            t1_arr[g, late] = np.concatenate((desc_vals, (np.nan,)))[below]
            np.copyto(t0_arr[g], t1_arr[g], where=~hit)

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


def _weighted_sdr_oracle_one(batch: ValidatedBatch, j: int, gamma: float,
                             ell_grid_size: int, ell_set):
    """Point ``j``'s ``(e-value, t(0), t(1))`` from its sums at every distinct
    pooled threshold, taken by direct comparison (no prefix machinery)."""
    m = batch.m
    sj = batch.test_scores[j]
    wj = batch.test_weights[j]
    thresholds = np.unique(np.concatenate([batch.calib_scores, batch.test_scores]))
    calib_below = batch.calib_scores[None, :] <= thresholds[:, None]
    wl_sum = calib_below @ (batch.calib_weights * batch.calib_risks)
    n_other = np.sum(np.delete(batch.test_scores, j)[None, :] <= thresholds[:, None], axis=1)
    covers = (sj <= thresholds).astype(float)
    total_w = wj + float(np.sum(batch.calib_weights))

    def last_feasible(ell) -> int:
        fr = (wj * ell * covers + wl_sum) / (1.0 + n_other) * (m / total_w)
        feasible = np.flatnonzero(fr <= gamma + _BOUNDARY_TOL)
        return int(feasible[-1]) if feasible.size else -1

    t0, t1 = (float(thresholds[i]) if i >= 0 else np.nan
              for i in (last_feasible(0.0), last_feasible(1.0)))
    breakpoints = (gamma * total_w * (1.0 + n_other) / m - wl_sum) / wj
    best = np.inf
    for ell in _oracle_ell_candidates(ell_grid_size, breakpoints, ell_set):
        i = last_feasible(ell)
        if i < 0 or sj > thresholds[i]:
            return 0.0, t0, t1
        denom = wj * ell + wl_sum[i]
        best = min(best, total_w / denom if denom > 0.0 else np.inf)
    return float(best), t0, t1


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
    rows = [_weighted_sdr_oracle_one(batch, j, gamma, ell_grid_size, ell_set) for j in range(batch.m)]
    # The reshape keeps three columns when there are no test points.
    return SdrEvalueSet(*np.array(rows, dtype=float).reshape(batch.m, 3).T.copy())


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
        # With no test points the factor is 0 and inf * 0 is nan: infeasible.
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
