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

Every reader takes its thresholds from one locator over the score-sorted
pooled prefix, in ``O(n+m)`` memory and, where the test weights are equal,
``O((n+m) log(n+m))`` time per level; where they differ, a point whose
``t_j(1)`` lies far below ``t_j(0)`` adds a scan of up to ``O(n+m)``:
:func:`sdr_evalues` / :func:`weighted_sdr_evalues` compute the
infimum exactly; :func:`sdr_evalues_at` evaluates the objective at one fixed
``ell``, weighted or not, and :func:`sdr_evalues_conservative` (simpler,
slightly conservative, unit weights) avoids the infimum, both from the
locator's ``t_j(1)`` at their one level.  The brute-force oracles
:func:`sdr_evalues_oracle` / :func:`weighted_sdr_evalues_oracle` are
deliberately separate; they build threshold-by-n comparison matrices and
are meant for small instances.  The MDR oracles are these on a point alone.

The exact kernel, ``_sdr_kernel_grid``, takes a grid of levels and returns
the e-values, ``t_j(0)`` and ``t_j(1)`` with shape ``(levels, m)``, ``nan``
marking an absent threshold; a grid gives the bits of one call per level.
It locates the two thresholds for every point and level, then reads each
e-value at ``t_j(0)`` in closed form, exact in floating point.  With unit
weights it still locates them by one ``O(n+m)`` pass per point, which gives
the locator's positions and is the only Python loop that visits every
point, until the select-sdr benchmark bounds the state it keeps per
operation (see ``_sdr_kernel_grid``).
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
# It decides feasibility only, never a value: the infimum over ell in [0, 1]
# reads a threshold where its ratio reaches gamma, that is m / (gamma * nt)
# clipped to [total_w / (A + w_j), total_w / A], the term _read_at_t0 uses.
# The grid oracles read each candidate ell's threshold the same way, so an
# ell whose ratio lies in (gamma, gamma + tol] lowers no e-value.
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class SdrEvalueSet:
    """Per-test-point e-values plus threshold diagnostics.

    ``thresholds_at_0[j]`` / ``thresholds_at_1[j]`` are the score cutoffs
    ``t_j(0)`` / ``t_j(1)`` at the endpoints of the candidate-risk interval;
    ``nan`` means no pooled score was feasible.  ``evalues[j]`` is zero
    whenever the test score exceeds ``thresholds_at_1[j]``.
    :func:`sdr_evalues_conservative` fills ``thresholds_at_0`` with its own
    cutoff ``t_tilde``, shared by every point, and ``thresholds_at_1`` with
    ``t_hat_j``, the kernel's ``t_j(1)`` at ``gamma = alpha``.
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


def _sdr_kernel_grid(batch: ValidatedBatch, gammas):
    """Exact e-values at every level of ``gammas``, shared by the unweighted
    and weighted paths (unit weights recover the exchangeable formulas).

    Per test point, ``t(0) >= t(1)`` are the largest thresholds feasible at
    ``ell = 0`` and ``ell = 1``.  A locator finds them, and a point whose
    score exceeds ``t(1)`` gets 0; any other point's e-value is read at
    ``t(0)`` alone, whatever the weights (:func:`_read_at_t0`).

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
    :func:`_keyed_positions`: ``O((n+m) log(n+m))`` per level, plus, where
    the test weights differ, a slice for each point whose ``t(1)`` lies more
    than 64 positions below ``t(0)``.
    Unit weights take :func:`_pointwise_positions`, ``O(n+m)`` per point and
    level, which the keyed locator's tests also take as their reference.

    Unit weights keep the loop for one reason.  Faster locators with the same
    bits exist: the loop without per-point temporaries, or the keyed locator
    that every other reader already takes.  But the select-sdr benchmark
    keeps state per completed operation: without temporaries, 55-75% more
    ``points_per_s`` put its ``peak_rss_mb`` at 98-105 MB against 76 MB,
    past the 0.1 bound.  The loop goes once the benchmark bounds that state
    (ROADMAP.md item 1).

    Returns ``(evalues, t0, t1)``, each of shape ``(len(gammas), m)``, with
    ``nan`` marking absent thresholds.
    """
    gammas = tuple(gammas)
    for gamma in gammas:
        _check_gamma(gamma)
    desc_vals, desc_A, ntest, K = _descending_prefix(batch)
    bounds = tuple(gamma + _BOUNDARY_TOL for gamma in gammas)
    w = batch.test_weights
    total_w = float(batch.calib_weights.sum()) + w
    locate = _pointwise_positions if batch.has_unit_weights else _keyed_positions
    # An e-value or a ratio bound past the largest double reads inf (a ratio
    # bound then steps down to it), as does total_w / a at a zero prefix.
    with np.errstate(over="ignore", divide="ignore"):
        i0, i1 = locate(bounds, desc_A, ntest, w, batch.m / total_w, K)
        level = np.asarray(gammas, dtype=float)[:, None]
        read = _read_at_t0(total_w, w, desc_A[i0], batch.m / (level * ntest[i0]), i0 == i1)
    covered = i1 < K                             # s_j <= t(1); the sentinel is never covered
    return np.where(covered, read, 0.0), desc_vals[i0], desc_vals[i1]


def _read_at_t0(total_w, w, a, cutoff, same):
    """A covered point's e-value at ``t(0)``, whose ``A`` and ``ntest`` are
    ``a`` and ``nt``: ``total_w / (a + w_j)`` where ``same`` (``t(0) ==
    t(1)``), else ``max(min(total_w / a, cutoff), total_w / (a + w_j))``,
    with ``cutoff = m / (gamma * nt)``: ``1 / gamma`` for MDR."""
    own = total_w / (a + w)
    return np.where(same, own, np.maximum(np.minimum(total_w / a, cutoff), own))


def _descending_prefix(batch: ValidatedBatch):
    """``(desc_vals, desc_A, desc_ntest, K)``: the pooled scores, the
    weighted calibration risk over scores ``<=`` each and the (float) count
    of test scores ``<=`` each, in descending score order, where the first
    True of a feasibility mask is the largest feasible threshold; ties share
    ``A`` and ``ntest``.  ``K_j`` counts the positions at or above test score
    ``j``, the ones it covers.  The three arrays end in a sentinel position,
    ``size``: score ``nan``, no risk and no test, so every ratio there is 0
    and feasible at every level, and a search that finds nothing before it
    stops there."""
    contrib = np.zeros(batch.n + batch.m)       # tests add no calibration risk
    np.multiply(batch.calib_weights, batch.calib_risks, out=contrib[:batch.n])
    vals, prefix0, _ = _sorted_prefix(np.concatenate((batch.calib_scores, batch.test_scores)), contrib)
    desc = np.zeros((3, vals.size + 1))
    desc[0, -1] = np.nan
    desc[0, -2::-1] = vals
    desc[1, -2::-1] = prefix0[vals.searchsorted(vals, side="right")]
    desc[2, -2::-1] = np.sort(batch.test_scores).searchsorted(vals, side="right")
    return *desc, vals.size - vals.searchsorted(batch.test_scores, side="left")


def _pointwise_positions(bounds: tuple, A, ntest, w, factor, K):
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
    below = A / (1.0 + ntest)
    with np.errstate(divide="ignore", invalid="ignore"):   # ntest may be 0 where uncovered
        r = A / ntest
        for j, (k, wj, f) in enumerate(zip(K.tolist(), w.tolist(), factor.tolist())):
            covers = np.zeros(A.size, dtype=bool)
            covers[:k] = True                    # 1{s_j <= t}
            fr0 = np.where(covers, r, below)
            fr0 *= f
            fr1 = np.where(covers, (A + wj) / ntest, below)
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


def _first_feasible_at_one(bound: float, A, ntest, w, factor, lo, K):
    """``(position, found)``: per point, the first position in ``[lo, K)``
    where ``ell = 1`` is feasible, ``fl((A + w_j) / ntest * f_j) <= bound``,
    and whether there is one (``lo`` where not).

    ``t(1)`` sits a few positions below ``t(0)``, so the first ``64``
    positions of every point are scanned as one ``(points, 64)`` block,
    with positions past ``K_j - 1`` read as ``K_j - 1`` (a repeat cannot
    come first), however few the points.  Only a point whose block holds no
    feasible position and stops short of ``K_j`` scans the rest of its slice.
    """
    at = np.minimum(lo[:, None] + _BLOCK, K[:, None] - 1)
    feasible = (A[at] + w[:, None]) / ntest[at] * factor[:, None] <= bound
    first = feasible.argmax(axis=1)
    rows = np.arange(lo.size)
    position, found, rest = at[rows, first], feasible[rows, first], lo + _BLOCK.size
    for p in ((rest < K) > found).nonzero()[0].tolist():
        start, k = rest.item(p), K.item(p)
        feasible = (A[start:k] + w.item(p)) / ntest[start:k] * factor.item(p) <= bound
        d = feasible.argmax()
        if feasible[d]:
            position[p], found[p] = start + d, True
    return position, found


def _keyed_positions(bounds: tuple, A, ntest, w, factor, K):
    """The locator with ``t(0)`` found for every point from keys free of j.

    On covered positions ``FR_j(t; 0)`` is ``fl(r * f_j)`` with ``r = A /
    ntest``, and below ``s_j`` both ratios are ``fl(q * f_j)`` with ``q = A /
    (1 + ntest)``.  Neither key depends on ``j``, and ``fl(x * f_j)`` is
    monotone in ``x``, so a position is feasible at ``ell = 0`` exactly when
    its key is at most ``R_j``, the largest double with ``fl(R_j * f_j) <=
    bound`` (:func:`_ratio_bounds`).  Per level:

    * ``t(0)``'s position is one ``searchsorted`` of ``R`` on the running
      minimum of ``r``, kept when it lies below ``K_j``;
    * where every ``w_j`` and ``f_j`` is equal, as with unit weights or a
      lone point, all points share one ``ell = 1`` mask, so ``t(1)`` is its
      first feasible position at or after ``t(0)``, kept when it lies below
      ``K_j``: one ``nonzero`` and one ``searchsorted``;
    * otherwise, where ``ell = 1`` is feasible at ``t(0)`` too, ``t(1) =
      t(0)``, for all such points at once, and every other covered point
      seeks ``t(1)`` in ``[t(0), K_j)``: the first 64 positions of all of
      them as one block, then the rest of the slice only for the points
      whose block holds none (:func:`_first_feasible_at_one`);
    * a point with no feasible covered threshold at ``ell = 0`` or ``1``
      takes the first position from ``K_j`` on with ``q <= R_j``
      (:func:`_first_at_most`), where both ratios agree.

    Memory is ``O(n+m)``: the blocks run over at most ``(n+m+1) / 64``
    points at a time.
    """
    i0 = np.empty((len(bounds), K.size), dtype=np.intp)
    i1 = np.empty_like(i0)
    kmax = K.max(initial=0)                      # positions no point covers are left out
    neg_min_r = -np.minimum.accumulate(A[:kmax] / ntest[:kmax])   # nondecreasing
    per_block = max(1, A.size // _BLOCK.size)    # points per block: about A.size positions
    shared = K.size > 0 and bool(np.all(w == w[0]) and np.all(factor == factor[0]))
    for g, bound in enumerate(bounds):
        R = _ratio_bounds(bound, factor)
        a = neg_min_r.searchsorted(-R)           # the first r <= R
        hit = a < K
        b = np.minimum(a, K - 1)                 # a where hit, a covered stand-in elsewhere
        late = ~hit                              # t(1) lies below s_j
        if shared:                               # one ell = 1 mask serves every point
            ones = ((A[:kmax] + w[0]) / ntest[:kmax] * factor[0] <= bound).nonzero()[0]
            first = np.append(ones, kmax)[ones.searchsorted(b)]
            late |= first >= K
            b = np.where(late, b, first)
        else:
            scan = (hit & ~((A[b] + w) / ntest[b] * factor <= bound)).nonzero()[0]
            for c in range(0, scan.size, per_block):
                part = scan[c:c + per_block]
                b[part], found = _first_feasible_at_one(bound, A, ntest, w[part], factor[part],
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
# kernel above and exist to verify it; the MDR oracles are these on a
# point alone.
# ---------------------------------------------------------------------------


def _oracle_ell_candidates(grid_size: int, breakpoints: np.ndarray, ell_set) -> np.ndarray:
    if ell_set is not None:
        ells = np.asarray(sorted(set(float(x) for x in ell_set)), dtype=float)
        if ells.size == 0:
            raise ValueError("ell_set must be non-empty")
        bad = [ell for ell in ells.tolist() if not 0.0 <= ell <= 1.0]
        if bad:
            raise ValueError(f"ell must lie in [0, 1], got {bad[0]!r}")
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
    # 1 + #{other test scores <= t}
    nt = 1.0 + np.sum(np.delete(batch.test_scores, j)[None, :] <= thresholds[:, None], axis=1)
    covers = (sj <= thresholds).astype(float)
    total_w = wj + float(np.sum(batch.calib_weights))

    def last_feasible(ell) -> int:
        fr = (wj * ell * covers + wl_sum) / nt * (m / total_w)
        feasible = (fr <= gamma + _BOUNDARY_TOL).nonzero()[0]
        return int(feasible[-1]) if feasible.size else -1

    t0, t1 = (float(thresholds[i]) if i >= 0 else np.nan
              for i in (last_feasible(0.0), last_feasible(1.0)))
    best = np.inf
    with np.errstate(over="ignore", divide="ignore"):   # an overflow, or total_w / 0, reads inf
        breakpoints = (gamma * total_w * nt / m - wl_sum) / wj
        # Without ell_set no candidate reads below its threshold's value where
        # the ratio reaches gamma (see _BOUNDARY_TOL); with it, each reads its
        # own objective.
        floor = np.minimum(total_w / wl_sum, m / (gamma * nt)) if ell_set is None else np.zeros_like(nt)
        for ell in _oracle_ell_candidates(ell_grid_size, breakpoints, ell_set):
            i = last_feasible(ell)
            if i < 0 or sj > thresholds[i]:
                return 0.0, t0, t1
            best = min(best, max(total_w / (wj * ell + wl_sum[i]), floor[i]))
    return float(best), t0, t1


def sdr_evalues_oracle(calib, tests, gamma: float, ell_grid_size: int = 1001,
                       ell_set=None) -> SdrEvalueSet:
    """Brute-force SDR e-values: per test point, minimize the defining
    objective over a uniform candidate-risk grid augmented with the
    closed-form breakpoints of the threshold map (so the infimum over the
    whole interval is attained exactly), each candidate read no lower than
    where its threshold's ratio reaches ``gamma``, as the kernel reads.

    ``ell_set`` restricts the infimum to an explicit finite set of attainable
    risk values in [0, 1] instead (e.g. ``{0, 1}`` for binary risks), in
    which case the grid is not used and the objective is read at exactly
    those values, as :func:`sdr_evalues_at` reads it.
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
# Fixed-ell and conservative e-values: one threshold per point, the kernel's
# t(1) read from the keyed locator at one level.
# ---------------------------------------------------------------------------

def sdr_evalues_at(calib, tests, gamma: float, ell: float) -> np.ndarray:
    """Evaluate the SDR e-value objective at a single fixed candidate risk
    ``ell`` (no infimum), using the weights carried by the calibration
    samples and test points.  ``ell = 1`` gives the variant that, for binary
    risks with ``gamma`` equal to the eBH level, makes eBH selection coincide
    with BH on clipped conformal p-values.

    This is the kernel's ``t_j(1)`` with ``ell * w_j`` in place of ``w_j``:
    ``total_w / (A + ell * w_j)`` at that threshold where it lies at or above
    ``s_j``, else 0."""
    _check_gamma(gamma)
    if not (0.0 <= ell <= 1.0):
        raise ValueError(f"ell must lie in [0, 1], got {ell!r}")
    batch = validate_batch(calib, tests)
    _, A, ntest, K = _descending_prefix(batch)
    w = ell * batch.test_weights
    total_w = float(batch.calib_weights.sum()) + batch.test_weights
    # As in the kernel: a ratio bound or an e-value past the largest double,
    # or total_w / 0 at ell = 0, reads inf.
    with np.errstate(over="ignore", divide="ignore"):
        i1 = _keyed_positions((gamma + _BOUNDARY_TOL,), A, ntest, w, batch.m / total_w, K)[1][0]
        return np.where(i1 < K, total_w / (A[i1] + w), 0.0)


def sdr_evalues_conservative(calib, tests, alpha: float) -> SdrEvalueSet:
    """Simpler, slightly conservative SDR e-values.

    For each test point ``j``,

        e_j = 1{s_j <= t_hat_j} * m / (alpha * #{test scores <= t_tilde}),

    where ``t_hat_j`` is the kernel's ``t_j(1)`` at ``gamma = alpha``: the
    largest pooled score whose estimated selective risk ``FR_j(t; 1)``, with
    the test point's own risk as 1, is at most ``alpha + 1e-12``.
    ``t_tilde`` is the largest pooled score at which the calibration risk up
    to it, over the count of test scores up to it, times ``m / (n + 1)``, is
    at most ``alpha + 1e-12``.  The e-value is zero when ``t_hat_j`` lies
    below ``s_j`` or no test score falls below ``t_tilde``.
    """
    _check_alpha(alpha)
    batch = validate_batch(calib, tests)
    _require_unit_weights(batch, "sdr_evalues_conservative")
    m = batch.m
    # Ties share A and ntest, so no rule below splits a group.
    vals, A, ntest, K = _descending_prefix(batch)
    factor = m / (batch.n + 1.0)
    bound = alpha + _BOUNDARY_TOL
    # Risk over no test point reads inf; with m = 0, inf * 0 is nan: infeasible.
    # The sentinel is always feasible: where nothing else is, t_tilde is nan
    # and counts no test score.
    with np.errstate(divide="ignore", invalid="ignore"):
        tilde = (np.where(A > 0, A / ntest, 0.0) * factor <= bound).argmax()
    i1 = _keyed_positions((bound,), A, ntest, batch.test_weights, np.full(m, factor), K)[1][0]
    evalues = np.zeros(m)
    if ntest[tilde]:
        evalues[i1 < K] = m / (alpha * ntest[tilde])   # eBH's own cutoff at tau = ntest[tilde]
    return SdrEvalueSet(evalues, np.full(m, vals[tilde]), vals[i1])
