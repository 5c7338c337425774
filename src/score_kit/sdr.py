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

The exact kernel, ``_sdr_kernel_grid``, takes a grid of levels and returns
the e-values, ``t_j(0)`` and ``t_j(1)`` with shape ``(levels, m)``, ``nan``
marking an absent threshold; a grid gives the bits of one call per level.
It locates the two thresholds for every point and level, then finishes
every path with one rule, in ``O(n+m)`` memory.  Non-unit weights locate
them in ``O((n+m) log(n+m))`` per level; unit weights take one ``O(n+m)``
pass per point, the only Python loop that visits every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidatedBatch, _freeze_views, _sorted_prefix, validate_batch

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
        _freeze_views(self, ("evalues", "thresholds_at_0", "thresholds_at_1"))


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
    vals, prefix0, _ = _sorted_prefix(np.concatenate((batch.calib_scores, batch.test_scores)), contrib)
    A = prefix0[vals.searchsorted(vals, side="right")]
    ntest = np.sort(batch.test_scores).searchsorted(vals, side="right").astype(float)
    return vals, A, ntest


def _sdr_kernel_grid(batch: ValidatedBatch, gammas):
    """Exact e-values at every level of ``gammas``, shared by the unweighted
    and weighted paths (unit weights recover the exchangeable formulas).

    Per test point, ``t(0) >= t(1)`` are the largest thresholds feasible at
    ``ell = 0`` and ``ell = 1``.  A locator finds them; one finishing step
    then turns them into e-values, whatever the weights.  A point whose score
    exceeds ``t(1)`` gets 0.  Otherwise the e-value is ``total_w / largest``
    with ``largest = max(w_j * clip(ell_bar, 0, 1) + A)`` over the ``ell =
    0`` feasible thresholds from ``t(1)``'s tie group to ``t(0)``, where
    ``ell_bar`` solves ``FR_j(t; ell) = gamma``.  :func:`_window_evalues`
    takes these maxima for every windowed (level, point) pair in one array
    pass.  Thresholds that no ``ell`` attains are harmless: each has a
    larger feasible one with a larger ``ell_bar``, and clip, ``w_j * x``,
    ``+ A`` and ``total_w / x`` are monotone under rounding.  The ``t(0) ==
    t(1)`` shortcut is kept on purpose: it uses ``ell = 1`` exactly, not a
    rounded ``ell_bar``.

    Point ``j`` covers the first ``K_j = size - first_j`` descending
    positions, where ``FR_j(t; 0) = fl(A / ntest * f_j)`` and ``FR_j(t; 1) =
    fl((A + w_j) / ntest * f_j)``, with ``f_j = m / total_w``; below ``s_j``
    both are ``fl(A / (1 + ntest) * f_j)``.  A locator returns the descending
    positions of ``t(0)`` and ``t(1)`` per level and point, ``size`` meaning
    none.  Both locators decide exactly these comparisons, so they give the
    same positions, and a grid gives the bits of one call per level.  Non-unit
    weights take :func:`_keyed_positions`: ``O((n+m) log(n+m))`` per level,
    plus a slice for each point whose ``t(1)`` lies more than 64 positions
    below ``t(0)``.  Unit weights, and any grid with a subnormal level, take
    :func:`_pointwise_positions`, ``O(n+m)`` per point and level, which the
    keyed locator's tests also take as their reference.

    Unit weights keep the loop for one reason.  Faster locators with the same
    bits exist: a slice form of the loop, or, since every point then shares
    the factor ``m / (n + 1)``, a loop-free one on the rule of
    :func:`_own_term_threshold`.  But the benchmark's select-sdr workload
    keeps state for every operation it completes, so a faster kernel raises
    its ``peak_rss_mb`` past that metric's bound.  The loop goes once the
    benchmark bounds that state (item 1 of ROADMAP.md).

    Returns ``(evalues, t0, t1)``, each of shape ``(len(gammas), m)``, with
    ``nan`` marking absent thresholds.
    """
    gammas = tuple(gammas)
    for gamma in gammas:
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
    m, size = batch.m, batch.n + batch.m
    vals, desc_vals, desc_A, ntest = _descending_prefix(batch)
    w = batch.test_weights
    total_w = float(batch.calib_weights.sum()) + w
    factor = m / total_w
    K = size - vals.searchsorted(batch.test_scores, side="left")
    # A subnormal level's rounding gap spans many ulps of gamma / f_j, which
    # _ratio_bounds does not search.
    keyed = not batch.has_unit_weights and all(gamma >= _SMALLEST_NORMAL for gamma in gammas)
    locate = _keyed_positions if keyed else _pointwise_positions
    i0, i1 = locate(gammas, desc_A, ntest, w, factor, K)

    covered = i1 < K                             # s_j <= t(1); the sentinel is never covered
    one = covered & (i0 == i1)
    evalues = np.where(one, total_w / (w + desc_A[i0]), 0.0)
    g_win, j_win = (covered > one).nonzero()
    if g_win.size:
        # The window runs from t(0) down to the end of t(1)'s tie group; it
        # holds t(1), so it is never empty.
        starts = i0[g_win, j_win]
        stops = size - vals.searchsorted(desc_vals[i1[g_win, j_win]], side="left")
        per_pair = np.array((np.asarray(gammas, dtype=float)[g_win], factor[j_win], w[j_win],
                             total_w[j_win]))
        evalues[g_win, j_win] = _window_evalues(desc_A, ntest, m, starts, stops, per_pair)
    return evalues, desc_vals[i0], desc_vals[i1]


def _window_evalues(A, ntest, m: int, starts, stops, per_pair):
    """Each window's e-value ``total_w / largest``, ``inf`` when ``largest``
    is not positive, with ``largest = max(w_j * clip(ell_bar, 0, 1) + A)``
    over the window's ``ell = 0`` feasible positions.

    Window ``p`` holds the descending positions ``starts[p]`` to
    ``stops[p]``; ``per_pair`` stacks its ``(gamma, f_j, w_j, total_w)``.
    The windows are laid end to end and every position takes the per-window
    float expressions element by element; infeasible positions drop out as
    ``-inf`` and ``np.maximum.reduceat`` takes each window's maximum, which
    is exact whatever the order.  The work is proportional to the total
    window length, in consecutive groups of at most ``A.size`` positions, so
    memory stays ``O(n+m)``.  A window that forms a group alone (one longer
    than that, or the only one) is read as a slice with its pair's values as
    scalars, which spares a call with a single window the repeats.
    """
    lengths = stops - starts
    ends = lengths.cumsum()
    evalues = np.empty(lengths.size)
    lo = 0
    while lo < ends.size:
        head = ends[lo] - lengths[lo]
        hi = max(lo + 1, ends.searchsorted(head + A.size, side="right"))
        if hi == lo + 1:                         # a slice, its pair's values as scalars
            at = slice(starts[lo], stops[lo])
            gamma, f, wj, total = per_pair[:, lo].tolist()
            feasible, value = _window_terms(A[at], ntest[at], m, gamma, f, wj, total)
            largest = value[feasible].max()
            evalues[lo] = total / largest if largest > 0.0 else np.inf
        else:
            marks = ends[lo:hi] - lengths[lo:hi] - head      # where each window starts
            at = np.repeat(starts[lo:hi] - marks, lengths[lo:hi])
            at += np.arange(at.size)
            feasible, value = _window_terms(A[at], ntest[at], m,
                                            *np.repeat(per_pair[:, lo:hi], lengths[lo:hi], axis=1))
            largest = np.maximum.reduceat(np.where(feasible, value, -np.inf), marks)
            e = evalues[lo:hi]
            e.fill(np.inf)
            np.divide(per_pair[3, lo:hi], largest, out=e, where=largest > 0.0)
        lo = hi
    return evalues


def _window_terms(a, nt, m: int, gamma, f, wj, total):
    """``(feasible, value)`` at window positions with prefix ``a`` and test
    count ``nt``: ``fl(a / nt * f_j) <= gamma`` and ``w_j * clip(ell_bar, 0,
    1) + a``, where ``ell_bar`` solves ``FR_j(t; ell) = gamma``."""
    value = (gamma * total * nt / m - a) / wj    # ell_bar
    value.clip(0.0, 1.0, out=value)
    value *= wj
    value += a
    return a / nt * f <= gamma, value


def _descending_prefix(batch: ValidatedBatch):
    """``(vals, desc_vals, desc_A, desc_ntest)``: the pooled prefix, the last
    three in descending score order, where the first True of a feasibility
    mask is the largest feasible threshold.  They end in a sentinel position,
    ``size``: score ``nan``, no risk and no test, so every ratio there is 0
    and feasible at every level, and a search that finds nothing before it
    stops there."""
    vals, A, ntest = _pooled_prefix(batch)
    desc = np.zeros((3, vals.size + 1))
    desc[0, -1] = np.nan
    desc[0, -2::-1], desc[1, -2::-1], desc[2, -2::-1] = vals, A, ntest
    return vals, *desc


def _pointwise_positions(gammas: tuple, A, ntest, w, factor, K):
    """The locator as one ``O(n+m)`` pass per test point.

    The ratios ``FR_j(t; 0)`` and ``FR_j(t; 1)`` do not depend on the level,
    so each point computes them once.  Each level then costs ``O(n+m)``
    comparisons per point: ``argmax`` returns the first True of a mask, and
    the sentinel makes that ``size`` when nothing else is feasible.  Rounding
    keeps ``FR_j(t; 1) >= FR_j(t; 0)``, so ``t(1)`` is searched from ``t(0)``
    down.
    """
    i0 = np.empty((len(gammas), K.size), dtype=np.intp)
    i1 = np.empty_like(i0)
    den = 1.0 + ntest                            # 1 + #{tests <= t}
    for j, (k, wj, f) in enumerate(zip(K.tolist(), w.tolist(), factor.tolist())):
        covers = np.zeros(A.size, dtype=bool)
        covers[:k] = True                        # 1{s_j <= t}
        denom = den - covers                     # 1 + #{other tests <= t}, always >= 1
        fr0 = A / denom * f
        fr1 = wj * covers                        # (A + w_j 1{s_j <= t}) / denom * f, in place
        fr1 += A
        fr1 /= denom
        fr1 *= f
        for g, gamma in enumerate(gammas):
            a = i0[g, j] = (fr0 <= gamma).argmax()
            i1[g, j] = a + (fr1[a:] <= gamma).argmax()
    return i0, i1


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
    ``q`` ends in a sentinel that every bound admits.  The answer lies
    between the first such position for ``max(bound)`` and the first for
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


_BLOCK = np.arange(64)


def _first_feasible_at_one(gamma: float, A, ntest, w, factor, lo, K):
    """``(position, found)``: per point, the first position in ``[lo, K)``
    where ``ell = 1`` is feasible, ``fl((A + w_j) / ntest * f_j) <= gamma``,
    and whether there is one (``lo`` where not).

    ``t(1)`` sits a few positions below ``t(0)``, so the first ``64``
    positions of every point are scanned as one ``(points, 64)`` block,
    with positions past ``K_j - 1`` read as ``K_j - 1`` (a repeat cannot
    come first).  Only a point whose block holds no feasible position and
    stops short of ``K_j`` scans the rest of its slice; a lone point scans
    its slice at once.
    """
    position, found, rest = lo.copy(), np.zeros(lo.size, dtype=bool), lo
    if lo.size > 1:
        at = np.minimum(lo[:, None] + _BLOCK, K[:, None] - 1)
        feasible = (A[at] + w[:, None]) / ntest[at] * factor[:, None] <= gamma
        first = feasible.argmax(axis=1)
        rows = np.arange(lo.size)
        position, found, rest = at[rows, first], feasible[rows, first], lo + _BLOCK.size
    for p in ((rest < K) > found).nonzero()[0].tolist():
        start, k = rest.item(p), K.item(p)
        feasible = (A[start:k] + w.item(p)) / ntest[start:k] * factor.item(p) <= gamma
        d = feasible.argmax()
        if feasible[d]:
            position[p], found[p] = start + d, True
    return position, found


def _keyed_positions(gammas: tuple, A, ntest, w, factor, K):
    """The locator with ``t(0)`` found for every point from keys free of j.

    On covered positions ``FR_j(t; 0)`` is ``fl(r * f_j)`` with ``r = A /
    ntest``, and below ``s_j`` both ratios are ``fl(q * f_j)`` with ``q = A /
    (1 + ntest)``.  Neither key depends on ``j``, and ``fl(x * f_j)`` is
    monotone in ``x``, so a position is feasible at ``ell = 0`` exactly when
    its key is at most ``R_j``, the largest double with ``fl(R_j * f_j) <=
    gamma`` (:func:`_ratio_bounds`).  Per level:

    * ``t(0)``'s position is one ``searchsorted`` of ``R`` on the running
      minimum of ``r``, kept when it lies below ``K_j``;
    * where ``ell = 1`` is feasible there too, ``t(1) = t(0)``, for all such
      points at once;
    * every other covered point seeks ``t(1)`` in ``[t(0), K_j)``: the first
      64 positions of all of them as one block, then the rest of the slice
      only for the points whose block holds none
      (:func:`_first_feasible_at_one`);
    * a point with no feasible covered threshold at ``ell = 0`` or ``1``
      takes the first position from ``K_j`` on with ``q <= R_j``
      (:func:`_first_at_most`), where both ratios agree.

    Memory is ``O(n+m)``: the blocks run over at most ``(n+m+1) / 64``
    points at a time.
    """
    i0 = np.empty((len(gammas), K.size), dtype=np.intp)
    i1 = np.empty_like(i0)
    kmax = K.max(initial=0)                      # positions no point covers are left out
    neg_min_r = -np.minimum.accumulate(A[:kmax] / ntest[:kmax])   # nondecreasing
    per_block = max(1, A.size // _BLOCK.size)    # points per block: about A.size positions
    for g, gamma in enumerate(gammas):
        R = _ratio_bounds(gamma, factor)
        a = neg_min_r.searchsorted(-R)           # the first r <= R
        hit = a < K
        b = np.minimum(a, K - 1)                 # a where hit, a covered stand-in elsewhere
        late = ~hit                              # t(1) lies below s_j
        scan = (hit & ~((A[b] + w) / ntest[b] * factor <= gamma)).nonzero()[0]
        for c in range(0, scan.size, per_block):
            part = scan[c:c + per_block]
            b[part], found = _first_feasible_at_one(gamma, A, ntest, w[part], factor[part],
                                                    b[part], K[part])
            late[part] = ~found
        late = late.nonzero()[0]
        if late.size:
            b[late] = _first_at_most(A / (1.0 + ntest), K[late], R[late])
        i0[g] = np.where(hit, a, b)
        i1[g] = b
    return i0, i1


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
