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
compute the infimum exactly; :func:`sdr_evalues_at` evaluates the objective
at one fixed ``ell`` and :func:`sdr_evalues_conservative` (simpler, slightly
conservative) avoids the infimum, both in ``O((n+m) log(n+m))`` time and for
unit weights only.  The brute-force oracles :func:`sdr_evalues_oracle` /
:func:`weighted_sdr_evalues_oracle` are deliberately separate; they build
threshold-by-n comparison matrices and are meant for small instances.

The exact kernel, ``_sdr_kernel_grid``, takes a grid of levels and returns
the e-values, ``t_j(0)`` and ``t_j(1)`` with shape ``(levels, m)``, ``nan``
marking an absent threshold; a grid gives the bits of one call per level.
It locates the two thresholds for every point and level, then reads each
e-value at ``t_j(0)`` in closed form, exact in floating point.  Non-unit
weights locate them in ``O((n+m) log(n+m))`` per level; unit weights take
one ``O(n+m)`` pass per point, the only Python loop that visits every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidatedBatch, _check_alpha, _check_gamma, _freeze_views, _sorted_prefix, validate_batch

__all__ = [
    "SdrEvalueSet",
    "sdr_evalues",
    "weighted_sdr_evalues",
    "sdr_evalues_oracle",
    "weighted_sdr_evalues_oracle",
    "sdr_evalues_conservative",
    "sdr_evalues_at",
]

# The library's one feasibility rule: a risk estimate is feasible at level
# gamma when it is at most gamma + _BOUNDARY_TOL.  The infimum is attained at
# breakpoints where the estimate equals gamma in real arithmetic, and the
# tolerance keeps them feasible when rounding lifts the estimate above gamma.
_BOUNDARY_TOL = 1e-12


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
    ``ell = 0`` and ``ell = 1``.  A locator finds them, and the e-value is
    read at ``t(0)`` alone, whatever the weights.  A point whose score
    exceeds ``t(1)`` gets 0.  Otherwise, with ``a`` and ``nt`` the ``A`` and
    ``ntest`` at ``t(0)``, it is ``total_w / (w_j + a)`` where ``t(0) ==
    t(1)`` (``ell = 1`` is feasible there), else ``max(min(total_w / a, m /
    (gamma * nt)), total_w / (a + w_j))``.

    The infimum is the least objective over the ``ell = 0`` feasible
    thresholds ``t`` from ``t(1)`` to ``t(0)``, each at the ``ell`` in [0, 1]
    nearest to ``FR_j(t; ell) = gamma``, where ``w_j * ell + A = gamma *
    total_w * nt / m``: ``m / (gamma * nt)`` clipped to ``[total_w / (A +
    w_j), total_w / A]``.  All three terms are nonincreasing in ``t``, and
    division, min and max are monotone under rounding, so the least sits at
    ``t(0)``, bit for bit.  At ``gamma = alpha`` the middle term is eBH's
    cutoff ``m / (alpha * tau)`` at ``tau = nt``, in the same expression, so
    an e-value that meets the cutoff in real arithmetic meets it in floating
    point too.  The shortcut takes ``ell = 1`` exactly, where the rounded
    clip can sit an ulp above it.

    Point ``j`` covers the first ``K_j = size - first_j`` descending
    positions, where ``FR_j(t; 0) = fl(A / ntest * f_j)`` and ``FR_j(t; 1) =
    fl((A + w_j) / ntest * f_j)``, with ``f_j = m / total_w``; below ``s_j``
    both are ``fl(A / (1 + ntest) * f_j)``.  A locator returns the descending
    positions of ``t(0)`` and ``t(1)`` per level and point, ``size`` meaning
    none.  Both locators compare exactly these ratios with the level's bound
    ``gamma + _BOUNDARY_TOL``, so they give the same positions, and a grid
    gives the bits of one call per level.  Non-unit weights take
    :func:`_keyed_positions`: ``O((n+m) log(n+m))`` per level, plus a slice
    for each point whose ``t(1)`` lies more than 64 positions below ``t(0)``.
    Unit weights take :func:`_pointwise_positions`, ``O(n+m)`` per point and
    level, which the keyed locator's tests also take as their reference.

    Unit weights keep the loop for one reason.  Faster locators with the same
    bits exist: the loop without per-point temporaries, or a loop-free one on
    the rule of :func:`_own_term_threshold`, since every point then shares
    ``m / (n + 1)``.  But the select-sdr benchmark keeps state per completed
    operation: without temporaries, 55-75% more ``points_per_s`` put its
    ``peak_rss_mb`` at 98-105 MB against 76 MB, past the 0.1 bound.  The loop
    goes once the benchmark bounds that state (ROADMAP.md item 1).

    Returns ``(evalues, t0, t1)``, each of shape ``(len(gammas), m)``, with
    ``nan`` marking absent thresholds.
    """
    gammas = tuple(gammas)
    for gamma in gammas:
        _check_gamma(gamma)
    vals, desc_vals, desc_A, ntest = _descending_prefix(batch)
    locate = _pointwise_positions if batch.has_unit_weights else _keyed_positions
    evalues, i0, i1 = _located_evalues(batch, gammas, locate, batch.m, vals, desc_A, ntest,
                                       desc_A / (1.0 + ntest))
    return evalues, desc_vals[i0], desc_vals[i1]


def _mdr_evalues(batch: ValidatedBatch, gamma: float) -> np.ndarray:
    """Every test point's MDR e-value at ``gamma``: the kernel's on the point
    alone (``m = 1``), whose covered count is 1 and key below ``s_j`` is
    ``A``, so one pass serves the batch.  Other test scores add positions with
    the ``A`` and coverage of the one below, so no e-value changes a bit."""
    _check_gamma(gamma)
    vals, _, desc_A, _ = _descending_prefix(batch)
    one = np.ones(desc_A.size)
    return _located_evalues(batch, (gamma,), _keyed_positions, 1, vals, desc_A, one, desc_A)[0][0]


def _located_evalues(batch: ValidatedBatch, gammas: tuple, locate, m: int, vals, A, count, below):
    """``(evalues, i0, i1)``: ``locate`` finds the descending positions of
    ``t(0)`` / ``t(1)`` from the keys, and each e-value is read at ``t(0)``
    as :func:`_sdr_kernel_grid` says, with ``m`` points in the estimate."""
    bounds = tuple(gamma + _BOUNDARY_TOL for gamma in gammas)
    w = batch.test_weights
    total_w = float(batch.calib_weights.sum()) + w
    K = vals.size - vals.searchsorted(batch.test_scores, side="left")
    # An e-value or a ratio bound beyond the largest double reads inf, as does
    # total_w / a at a zero prefix; a ratio bound then steps down to the
    # largest double.
    with np.errstate(over="ignore", divide="ignore"):
        i0, i1 = locate(bounds, A, count, below, w, m / total_w, K)
        a, nt = A[i0], count[i0]
        level = np.asarray(gammas, dtype=float)[:, None]
        read = np.maximum(np.minimum(total_w / a, m / (level * nt)), total_w / (a + w))
        read = np.where(i0 == i1, total_w / (w + a), read)
    covered = i1 < K                             # s_j <= t(1); the sentinel is never covered
    return np.where(covered, read, 0.0), i0, i1


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


def _pointwise_positions(bounds: tuple, A, count, below, w, factor, K):
    """The locator as one ``O(n+m)`` pass per test point.

    The ratios ``FR_j(t; 0)`` and ``FR_j(t; 1)`` do not depend on the level,
    so each point computes them once, from the keys of
    :func:`_keyed_positions`.  Each level then costs ``O(n+m)`` comparisons
    per point: ``argmax`` returns the first True of a mask, and the sentinel
    makes that ``size`` when nothing else is feasible.  Rounding keeps
    ``FR_j(t; 1) >= FR_j(t; 0)``, so ``t(1)`` is searched from ``t(0)`` down.
    """
    i0 = np.empty((len(bounds), K.size), dtype=np.intp)
    i1 = np.empty_like(i0)
    with np.errstate(divide="ignore", invalid="ignore"):   # count may be 0 where uncovered
        r = A / count
        for j, (k, wj, f) in enumerate(zip(K.tolist(), w.tolist(), factor.tolist())):
            covers = np.zeros(A.size, dtype=bool)
            covers[:k] = True                    # 1{s_j <= t}
            fr0 = np.where(covers, r, below)
            fr0 *= f
            fr1 = np.where(covers, (A + wj) / count, below)
            fr1 *= f
            for g, bound in enumerate(bounds):
                a = i0[g, j] = (fr0 <= bound).argmax()
                i1[g, j] = a + (fr1[a:] <= bound).argmax()
    return i0, i1


def _ratio_bounds(bound: float, factor: np.ndarray) -> np.ndarray:
    """Per ``f`` in ``factor``, the largest double ``x`` with ``fl(x * f) <=
    bound``, for a normal ``bound``: the kernel's is never below 1e-12.
    Rounding keeps ``fl(x * f)`` monotone in ``x``, so ``fl(x * f) <= bound``
    exactly when ``x`` is at most the result.  ``bound / f`` rounds to one of
    the two doubles around the real quotient: the one below always fits, and
    the rounding gap above ``bound`` is under one ulp of the quotient, so no
    double beyond the one above does.  A quotient beyond the largest double
    reads ``inf`` and steps down to the largest double, which is right: every
    finite ``x`` then fits."""
    x = bound / factor
    # Positive doubles order like their int64 bit patterns, so -1 / +1 on the
    # bits steps to the neighbouring double.
    bits = x.view(np.int64) - (x * factor > bound)
    return (bits + ((bits + 1).view(np.float64) * factor <= bound)).view(np.float64)


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


def _first_feasible_at_one(bound: float, A, count, w, factor, lo, K):
    """``(position, found)``: per point, the first position in ``[lo, K)``
    where ``ell = 1`` is feasible, ``fl((A + w_j) / count * f_j) <= bound``,
    and whether there is one (``lo`` where not).

    ``t(1)`` sits a few positions below ``t(0)``, so the first ``64``
    positions of every point are scanned as one ``(points, 64)`` block,
    with positions past ``K_j - 1`` read as ``K_j - 1`` (a repeat cannot
    come first), however few the points.  Only a point whose block holds no
    feasible position and stops short of ``K_j`` scans the rest of its slice.
    """
    at = np.minimum(lo[:, None] + _BLOCK, K[:, None] - 1)
    feasible = (A[at] + w[:, None]) / count[at] * factor[:, None] <= bound
    first = feasible.argmax(axis=1)
    rows = np.arange(lo.size)
    position, found, rest = at[rows, first], feasible[rows, first], lo + _BLOCK.size
    for p in ((rest < K) > found).nonzero()[0].tolist():
        start, k = rest.item(p), K.item(p)
        feasible = (A[start:k] + w.item(p)) / count[start:k] * factor.item(p) <= bound
        d = feasible.argmax()
        if feasible[d]:
            position[p], found[p] = start + d, True
    return position, found


def _keyed_positions(bounds: tuple, A, count, below, w, factor, K):
    """The locator with ``t(0)`` found for every point from keys free of j.

    The caller gives the covered count and the key ``q`` below ``s_j``:
    ``ntest`` and ``A / (1 + ntest)`` for SDR, 1 and ``A`` for MDR.  Where
    covered, ``FR_j(t; 0) = fl(r * f_j)`` with ``r = A / count``; below
    ``s_j`` both ratios are ``fl(q * f_j)``.  Neither key depends on ``j``,
    and ``fl(x * f_j)`` is monotone in ``x``, so a position is feasible at
    ``ell = 0`` exactly when its key is at most ``R_j``, the largest double
    with ``fl(R_j * f_j) <= bound`` (:func:`_ratio_bounds`).  Per level:

    * ``t(0)``'s position is one ``searchsorted`` of ``R`` on the running
      minimum of ``r``, kept when it lies below ``K_j``;
    * where ``ell = 1`` is feasible there too, ``t(1) = t(0)``, for all such
      points at once;
    * every other covered point seeks ``t(1)`` in ``[t(0), K_j)``: the first
      64 positions of all of them, a lone point too, as one block, then the
      rest of the slice only for the points whose block holds none
      (:func:`_first_feasible_at_one`);
    * a point with no feasible covered threshold at ``ell = 0`` or ``1``
      takes the first position from ``K_j`` on with ``q <= R_j``
      (:func:`_first_at_most`), where both ratios agree.

    Memory is ``O(n+m)``: the blocks run over at most ``(n+m+1) / 64``
    points at a time.
    """
    i0 = np.empty((len(bounds), K.size), dtype=np.intp)
    i1 = np.empty_like(i0)
    kmax = K.max(initial=0)                      # positions no point covers are left out
    neg_min_r = -np.minimum.accumulate(A[:kmax] / count[:kmax])   # nondecreasing
    per_block = max(1, A.size // _BLOCK.size)    # points per block: about A.size positions
    for g, bound in enumerate(bounds):
        R = _ratio_bounds(bound, factor)
        a = neg_min_r.searchsorted(-R)           # the first r <= R
        hit = a < K
        b = np.minimum(a, K - 1)                 # a where hit, a covered stand-in elsewhere
        late = ~hit                              # t(1) lies below s_j
        scan = (hit & ~((A[b] + w) / count[b] * factor <= bound)).nonzero()[0]
        for c in range(0, scan.size, per_block):
            part = scan[c:c + per_block]
            b[part], found = _first_feasible_at_one(bound, A, count, w[part], factor[part],
                                                    b[part], K[part])
            late[part] = ~found
        late = late.nonzero()[0]
        if late.size:
            b[late] = _first_at_most(below, K[late], R[late])
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
    best = np.inf
    with np.errstate(over="ignore"):             # an overflowing breakpoint or e-value reads inf
        breakpoints = (gamma * total_w * (1.0 + n_other) / m - wl_sum) / wj
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
    _check_gamma(gamma)
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
    _check_gamma(gamma)
    if not (0.0 <= ell <= 1.0):
        raise ValueError(f"ell must lie in [0, 1], got {ell!r}")
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_at")
    vals, A, ntest = _pooled_prefix(batch)
    factor = batch.m / (batch.n + 1.0)
    bound = gamma + _BOUNDARY_TOL
    # 1 + #{other tests <= t} is 1 + ntest below s_j and ntest (>= 1) from s_j on.
    with np.errstate(divide="ignore", invalid="ignore"):
        hat, covered = _own_term_threshold(vals, batch.test_scores, A / (1.0 + ntest) * factor <= bound,
                                           (ell + A) / ntest * factor <= bound)
        return np.where(covered, (batch.n + 1.0) / (ell + A[hat]), 0.0)


def sdr_evalues_conservative(calib, tests, alpha: float) -> SdrEvalueSet:
    """Simpler, slightly conservative SDR e-values.

    For each test point ``j``,

        e_j = 1{s_j <= t_hat_j} * m / (alpha * #{test scores <= t_tilde}),

    where ``t_hat_j`` is the largest pooled score whose estimated selective
    risk (with the test point's own risk as 1) is at most ``alpha + 1e-12``
    and ``t_tilde`` is its analogue without the test term.  The e-value is zero
    when ``t_hat_j`` does not exist or no test score falls below ``t_tilde``.
    """
    _check_alpha(alpha)
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_conservative")
    n, m = batch.n, batch.m
    # Ties share risk_sum and test_count, so no rule below splits a group.
    thresholds, risk_sum, test_count = _pooled_prefix(batch)
    bound = alpha + _BOUNDARY_TOL

    def feasible(numerator: np.ndarray) -> np.ndarray:
        # With no test points the factor is 0 and inf * 0 is nan: infeasible.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(test_count > 0, numerator / np.maximum(test_count, 1),
                             np.where(numerator > 0, np.inf, 0.0))
            return ratio * (m / (n + 1.0)) <= bound

    plain = feasible(risk_sum)
    hat, covered = _own_term_threshold(thresholds, batch.test_scores, plain, feasible(risk_sum + 1.0))
    tilde = np.max(np.flatnonzero(plain), initial=-1)
    t_tilde = thresholds[tilde] if tilde >= 0 else np.nan
    denom_count = test_count[tilde] if tilde >= 0 else 0
    t_hat = np.where(hat >= 0, thresholds[hat], np.nan)
    evalues = np.zeros(m)
    if denom_count:
        evalues[covered] = m / (alpha * denom_count)   # eBH's own cutoff at tau = denom_count
    return SdrEvalueSet(evalues, np.full(m, t_tilde), t_hat)
