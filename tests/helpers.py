"""Shared generators and comparison helpers for the test suite."""

import csv
import math
from fractions import Fraction
from operator import itemgetter

import numpy as np

from score_kit import DivergedFit, validate_batch
from score_kit import sdr

# Deployed e-values sit mathematically at exactly 1/level on the decision
# boundary (the construction is one-hot there), so thresholded comparisons
# of independently computed values need a one-sided relative guard.
REL_GUARD = 1e-9


def thresholded(evalue: float, alpha: float) -> bool:
    """Guarded version of ``evalue >= 1/alpha``."""
    return bool(evalue * alpha >= 1.0 - REL_GUARD)


def random_mdr_instance(rng, max_n=40, tied=False):
    """Random (calib, test_score) pair; ``tied`` draws integer scores."""
    n = int(rng.integers(1, max_n + 1))
    if tied:
        scores = rng.integers(0, 5, size=n).astype(float)
        test_score = float(rng.integers(0, 5))
    else:
        scores = rng.normal(size=n)
        test_score = float(rng.normal())
    risks = rng.uniform(size=n)
    return list(zip(scores, risks)), test_score


def random_sdr_instance(rng, max_n=12, max_m=12, tied=False, weighted=False,
                        binary_risks=False):
    """Random (calib, tests) instance for the selective procedures."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    if tied:
        cs = rng.integers(0, 5, size=n).astype(float)
        ts = rng.integers(0, 5, size=m).astype(float)
    else:
        cs = rng.normal(size=n)
        ts = rng.normal(size=m)
    if binary_risks:
        risks = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
    else:
        risks = rng.uniform(size=n)
    if weighted:
        wc = rng.uniform(0.2, 5.0, size=n)
        wt = rng.uniform(0.2, 5.0, size=m)
        return list(zip(cs, risks, wc)), list(zip(ts, wt))
    return list(zip(cs, risks)), list(ts)


BOUNDARY_GAMMAS = (0.1, 0.2, 0.25, 0.3, 0.5)


def boundary_instance(rng, weighted):
    """``(calib, tests, gamma)`` where risk estimates often equal a level in
    real arithmetic but round a few ulps off it: 0.1-grid scores, risks in
    quarters, half-integer weights when ``weighted``.  Unit instances come as
    (score, risk) pairs and bare scores."""
    n, m = int(rng.integers(1, 16)), int(rng.integers(1, 7))
    cs, ts = rng.integers(0, 11, size=n) / 10, rng.integers(0, 11, size=m) / 10
    risks = rng.integers(0, 5, size=n) / 4
    gamma = float(rng.choice(BOUNDARY_GAMMAS))
    if weighted:
        wc, wt = rng.integers(1, 5, size=n) / 2, rng.integers(1, 5, size=m) / 2
        return list(zip(cs, risks, wc)), list(zip(ts, wt)), gamma
    return list(zip(cs, risks)), list(ts), gamma


def exchangeable_pairs(rng, n, m, kind="smooth"):
    """Draw n+m exchangeable (score, risk) pairs with risk tied to score.

    ``smooth`` risks are continuous in (0, 1); ``excess``-style risks carry a
    point mass at zero; ``binary`` risks live on {0, 1}.
    """
    s = rng.normal(size=n + m)
    if kind == "smooth":
        base = 1.0 / (1.0 + np.exp(-1.5 * s))
        risk = np.clip(base + 0.25 * rng.normal(size=n + m), 0.0, 1.0)
    elif kind == "excess":
        raw = s + 0.5 * rng.normal(size=n + m)
        risk = np.clip(np.where(raw > 0.3, raw / 3.0, 0.0), 0.0, 1.0)
    elif kind == "binary":
        p = 1.0 / (1.0 + np.exp(-1.5 * s))
        risk = (rng.uniform(size=n + m) < p).astype(float)
    else:
        raise ValueError(kind)
    return s[:n], risk[:n], s[n:], risk[n:]


def risk_evalue_products(test_risks, evalues):
    """L * E with the measure-theoretic 0 * inf = 0 convention."""
    test_risks = np.asarray(test_risks, dtype=float)
    evalues = np.asarray(evalues, dtype=float)
    return np.where(test_risks == 0.0, 0.0, test_risks * evalues)


def mc_bound_ok(per_rep_means, bound=1.0, k_se=3.0):
    """True when mean(per_rep_means) <= bound + k_se * SE."""
    arr = np.asarray(per_rep_means, dtype=float)
    se = arr.std(ddof=1) / np.sqrt(arr.size)
    return arr.mean() <= bound + k_se * se, float(arr.mean()), float(se)


# ---------------------------------------------------------------------------
# Dense references: straight transcriptions that compare every threshold with
# every score (a threshold-by-n matrix).  The library computes the same sums
# as sorted prefixes; on dyadic data both are exact, so results must be equal.
# ---------------------------------------------------------------------------

def dense_sdr_evalues_conservative(calib, tests, alpha):
    """``(evalues, t_tilde, t_hat)`` of ``sdr_evalues_conservative``, one
    per-point scan over the pooled thresholds."""
    batch = validate_batch(calib, tests)
    n, m = batch.n, batch.m
    thresholds = np.unique(np.concatenate([batch.calib_scores, batch.test_scores]))
    calib_below = batch.calib_scores[None, :] <= thresholds[:, None]
    risk_sum = calib_below @ batch.calib_risks
    test_count = np.sum(batch.test_scores[None, :] <= thresholds[:, None], axis=1)

    def largest_feasible(numerator):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(test_count > 0, numerator / np.maximum(test_count, 1),
                             np.where(numerator > 0, np.inf, 0.0))
        feasible = np.flatnonzero(ratio * (m / (n + 1.0)) <= alpha + sdr._BOUNDARY_TOL)
        return float(thresholds[feasible[-1]]) if feasible.size else np.nan

    t_tilde = largest_feasible(risk_sum)
    denom_count = int(np.sum(batch.test_scores <= t_tilde)) if not np.isnan(t_tilde) else 0
    evalues = np.zeros(m)
    t_hat = np.full(m, np.nan)
    for j in range(m):
        sj = batch.test_scores[j]
        t_hat[j] = largest_feasible(risk_sum + (sj <= thresholds))
        if np.isnan(t_hat[j]) or sj > t_hat[j] or denom_count == 0:
            continue
        evalues[j] = m / (alpha * denom_count)
    return evalues, np.full(m, t_tilde), t_hat


def dense_empirical_rademacher(scores, values, signs):
    """The baselines' Rademacher term: the mean over sign draws of the largest
    of 0 (a threshold below every score) and, over every distinct score t,
    (1/n) sum_i sign_i * values_i * 1{s_i <= t}, by direct comparison."""
    below = scores[None, :] <= np.unique(scores)[:, None]      # distinct-score-by-n
    sups = [max(0.0, np.max(np.sum(draw * values * below, axis=1))) for draw in signs]
    return float(np.mean(sups)) / scores.size


def dense_concentration_mdr_threshold(calib, config, alpha, rng_draws=None):
    """``concentration_mdr_threshold`` from a grid-by-n comparison matrix."""
    batch = validate_batch(calib)
    n, scores, risks = batch.n, batch.calib_scores, batch.calib_risks
    if config.kind == "hoeffding":
        grid = np.linspace(0.0, 1.0, config.grid_size)
        slack = np.sqrt(np.log(2.0 * config.grid_size / config.delta) / (2.0 * n))
    else:
        grid = np.unique(scores)
        signs = np.asarray(rng_draws, dtype=float).reshape(config.rademacher_draws, n)
        rad = dense_empirical_rademacher(scores, risks, signs)
        slack = 2.0 * rad + 3.0 * np.sqrt(np.log(2.0 / config.delta) / (2.0 * n))
    mdr_hat = np.sum(risks[None, :] * (scores[None, :] <= grid[:, None]), axis=1) / n
    ok = np.flatnonzero(mdr_hat + slack <= alpha)
    return float(grid[ok[-1]]) if ok.size else None


def dense_concentration_sdr_threshold(calib, config, alpha, rng_draws=None):
    """``concentration_sdr_threshold`` from a grid-by-n comparison matrix."""
    batch = validate_batch(calib)
    n, scores, risks = batch.n, batch.calib_scores, batch.calib_risks
    if config.kind == "hoeffding":
        grid = np.linspace(0.0, 1.0, config.grid_size)
        num_slack = den_slack = np.sqrt(np.log(4.0 * config.grid_size / config.delta) / (2.0 * n))
    else:
        grid = np.unique(scores)
        k = config.rademacher_draws
        signs = np.asarray(rng_draws, dtype=float).reshape(2 * k, n)
        tail = 3.0 * np.sqrt(np.log(4.0 / config.delta) / (2.0 * n))
        num_slack = 2.0 * dense_empirical_rademacher(scores, risks, signs[:k]) + tail
        den_slack = 2.0 * dense_empirical_rademacher(scores, np.ones(n), signs[k:]) + tail
    below = scores[None, :] <= grid[:, None]
    a = np.sum(risks[None, :] * below, axis=1) / n + num_slack
    b = np.sum(below, axis=1) / n - den_slack
    with np.errstate(divide="ignore", invalid="ignore"):
        sdr_plus = np.where(b > 0.0, a / np.maximum(b, 1e-300), np.inf)
    ok = np.flatnonzero(sdr_plus <= alpha)
    return float(grid[ok[-1]]) if ok.size else None


def three_temporary_rademacher_curve(calib, config, rng_draws, selective):
    """``(grid, bound)``: the Rademacher variant's thresholds and bounded risk
    curve for distinct scores, each class's term from three temporaries (the
    gathered product, its cumsum and each draw's maximum).  Every score is
    its own tie group, so the running sums are the curve and every position
    is a threshold.  The baselines pick the last grid point whose bound is at
    most ``alpha``."""
    batch = validate_batch(calib)
    n, scores, risks = batch.n, batch.calib_scores, batch.calib_risks
    curves = 2 if selective else 1
    order = np.argsort(scores, kind="stable")
    signs = np.asarray(rng_draws, dtype=float).reshape(curves, config.rademacher_draws, n)
    tail = 3.0 * np.sqrt(np.log(2.0 * curves / config.delta) / (2.0 * n))
    slack = []
    for values, draws in zip((risks, np.ones(n)), signs):
        partial = np.cumsum(draws[:, order] * values[order], axis=1)
        slack.append(2.0 * (float(np.mean(np.maximum(np.max(partial, axis=1), 0.0))) / n) + tail)
    bound = np.cumsum(risks[order]) / n + slack[0]
    if selective:
        den = np.arange(1, n + 1) / n - slack[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(den > 0.0, bound / np.maximum(den, 1e-300), np.inf)
    return scores[order], bound


# ---------------------------------------------------------------------------
# Per-step-loss reference for the logistic weight fit, which evaluates the
# loss once after its last step; coefficients and loss must match bit for bit.
# ---------------------------------------------------------------------------

def per_step_loss_logistic_fit(source_x, target_x, lr=0.1, iters=500):
    """``(coef, intercept, final_loss)`` of ``logistic_fit_weights`` as a
    straight transcription that evaluates the loss after every gradient step
    and raises ``DivergedFit`` at the first non-finite one."""
    xs = np.atleast_2d(np.asarray(source_x, dtype=float))
    xt = np.atleast_2d(np.asarray(target_x, dtype=float))
    x = np.vstack([xs, xt])
    y = np.concatenate([np.zeros(xs.shape[0]), np.ones(xt.shape[0])])
    with np.errstate(invalid="ignore", over="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        z = (x - mean) / std
    coef = np.zeros(z.shape[1])
    intercept = 0.0
    loss = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(iters):
            p = np.exp(-np.logaddexp(0.0, -(z @ coef + intercept)))
            grad_logit = (p - y) / y.size
            coef -= lr * (z.T @ grad_logit)
            intercept -= lr * float(np.sum(grad_logit))
            eps = 1e-12
            loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
            if not np.isfinite(loss):
                raise DivergedFit(f"logistic loss became non-finite ({loss!r})")
    return coef, float(intercept), loss


# ---------------------------------------------------------------------------
# Attained-breakpoint reference for the exact SDR kernel: a straight
# transcription of the per-point loop that keeps only thresholds some ell
# attains (a suffix-max filter) and takes the minimum of the closed form
# max(min(total_w / A, m / (gamma * ntest)), total_w / (A + w_j)) over them.
# The library reads that form at t(0) alone; the outputs must match bit for
# bit.
# ---------------------------------------------------------------------------

def attained_breakpoint_sdr_kernel(calib, tests, gamma):
    """``(evalues, t0, t1)`` of ``weighted_sdr_evalues`` with ``nan`` marking
    absent thresholds."""
    batch = validate_batch(calib, tests)
    n, m = batch.n, batch.m
    keys = np.concatenate([batch.calib_scores, batch.test_scores])
    order = np.argsort(keys, kind="stable")
    vals = keys[order]
    prefix0 = np.concatenate([[0.0], np.cumsum(
        np.concatenate([batch.calib_weights * batch.calib_risks, np.zeros(m)])[order])])
    nxt = np.searchsorted(vals, vals, side="right")
    A = prefix0[nxt]
    ntest = np.searchsorted(np.sort(batch.test_scores), vals, side="right").astype(float)
    calib_wsum = float(np.sum(batch.calib_weights))

    evalues = np.zeros(m)
    t0_arr = np.full(m, np.nan)
    t1_arr = np.full(m, np.nan)

    for j in range(m):
        sj = batch.test_scores[j]
        wj = batch.test_weights[j]
        total_w = calib_wsum + wj
        covers = vals >= sj
        denom = 1.0 + ntest - covers
        factor = m / total_w
        fr0 = A / denom * factor
        fr1 = (A + wj * covers) / denom * factor
        feas0 = fr0 <= gamma + sdr._BOUNDARY_TOL
        feas1 = fr1 <= gamma + sdr._BOUNDARY_TOL

        idx0 = np.flatnonzero(feas0)
        if idx0.size:
            t0_arr[j] = vals[idx0[-1]]
        idx1 = np.flatnonzero(feas1)
        if idx1.size == 0:
            continue
        i1 = idx1[-1]
        t1 = vals[i1]
        t1_arr[j] = t1
        if sj > t1:
            continue
        if t0_arr[j] == t1:
            evalues[j] = total_w / (wj + A[i1])
            continue

        ell_bar = (gamma * total_w * denom / m - A) / wj
        cand = np.where(feas0, ell_bar, -np.inf)
        suffix = np.maximum.accumulate(cand[::-1])[::-1]
        larger_best = np.where(nxt < n + m, suffix[np.minimum(nxt, n + m - 1)], -np.inf)
        keep = feas0 & (vals >= t1) & (vals <= t0_arr[j]) & (ell_bar >= larger_best)
        keep |= (vals == t1) & feas0
        a, nt = A[keep], denom[keep]
        with np.errstate(divide="ignore"):
            closed = np.maximum(np.minimum(total_w / a, m / (gamma * nt)), total_w / (a + wj))
        evalues[j] = float(np.min(closed))

    return evalues, t0_arr, t1_arr


# ---------------------------------------------------------------------------
# Exact-arithmetic reference for unit-weight SDR e-values and eBH.  Levels are
# read as the decimals they print as (0.3 is 3/10), as a user writes them; on
# small dyadic instances no e-value then lies within rounding distance of a
# cutoff without equalling it, so the float selection must be the exact one.
# ---------------------------------------------------------------------------

def exact_sdr_evalues(calib, tests, gamma):
    """Unit-weight SDR e-values as ``Fraction`` (``inf`` where unbounded):
    a threshold is feasible when ``FR_j(t; ell) <= gamma + 1e-12``, and the
    e-value is 0 where ``s_j > t(1)``, ``(n + 1) / (1 + A(t(0)))`` where
    ``t(0) == t(1)``, else the least ``(n + 1) / (clip(ell_bar, 0, 1) + A(t))``
    over the ``ell = 0`` feasible thresholds from ``t(1)`` to ``t(0)``, with
    ``ell_bar`` solving ``FR_j(t; ell) = gamma``."""
    batch = validate_batch(calib, tests)
    n, m = batch.n, batch.m
    cs, ts = batch.calib_scores.tolist(), batch.test_scores.tolist()
    risks = [Fraction(r) for r in batch.calib_risks.tolist()]
    thresholds = sorted(set(cs + ts))
    A = [sum((r for s, r in zip(cs, risks) if s <= t), Fraction(0)) for t in thresholds]
    level = Fraction(repr(gamma))
    bound, total = level + Fraction(repr(sdr._BOUNDARY_TOL)), n + 1
    evalues = []
    for j, sj in enumerate(ts):
        den = [1 + sum(s <= t for s in ts[:j] + ts[j + 1:]) for t in thresholds]

        def last_feasible(ell):
            return max((i for i, t in enumerate(thresholds)
                        if (ell * (sj <= t) + A[i]) * m <= bound * den[i] * total), default=-1)

        i0, i1 = last_feasible(0), last_feasible(1)
        if i1 < 0 or sj > thresholds[i1]:
            evalues.append(Fraction(0))
        elif i0 == i1:
            evalues.append(Fraction(total) / (1 + A[i0]))
        else:
            best = math.inf
            for i in range(i1, i0 + 1):
                if A[i] * m <= bound * den[i] * total:
                    ell = min(max(level * total * den[i] / m - A[i], Fraction(0)), Fraction(1))
                    best = min(best, Fraction(total) / (ell + A[i]) if ell + A[i] else math.inf)
            evalues.append(best)
    return evalues


def exact_ebh(evalues, alpha):
    """The eBH selection at level ``alpha`` in exact arithmetic."""
    m, level = len(evalues), Fraction(repr(alpha))
    for tau in range(m, 0, -1):
        cutoff = m / (level * tau)
        if sum(e >= cutoff for e in evalues) >= tau:
            return frozenset(j for j, e in enumerate(evalues) if e >= cutoff)
    return frozenset()


# ---------------------------------------------------------------------------
# CSV references: the cell-by-cell reader and writer the package used before
# it parsed data rows with numpy's text parser and wrote them through one
# ``%`` row format.  Reads must equal these bit for bit, writes byte for byte.
# ---------------------------------------------------------------------------

def csv_reference_columns(path, names):
    """The float columns ``names`` of a CSV file, parsed cell by cell with
    :mod:`csv` and Python's ``float``; blank lines are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        position = {col: header.index(col) for col in names}
        rows = [row for row in reader if row]
    out = np.empty(len(rows), dtype=[(col, float) for col in names])
    for col in names:
        out[col] = np.fromiter(map(float, map(itemgetter(position[col]), rows)),
                               dtype=float, count=len(rows))
    return out


def csv_reference_write(out, header, columns):
    """Write ``header`` and one row per position of ``columns`` to the text
    stream ``out`` with :mod:`csv`; float arrays are formatted with
    ``"{:.17g}".format``, other columns are written as they are."""
    fmt = "{:.17g}".format

    def cells(col):
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            return [fmt(v) for v in col.tolist()]
        return col

    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))


# ---------------------------------------------------------------------------
# One-shot reference for k-NN prediction: the whole q-by-n distance matrix in
# one product, one partial selection and a q-by-n tie mask.  The library takes
# the queries in bounded row blocks and reads ties from the (k+1)-th
# neighbour; the predictions must match bit for bit.
# ---------------------------------------------------------------------------

def one_shot_knn_predict(model, x):
    """``knn_predict`` computed from the full distance matrix at once."""
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    k = model.k
    d2 = 2.0 * q @ model.train_x.T
    np.subtract(np.sum(q * q, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(model.train_x * model.train_x, axis=1)
    chosen = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    chosen_d2 = np.take_along_axis(d2, chosen, axis=1)
    nearest = np.take_along_axis(chosen, np.argsort(chosen_d2, axis=1, kind="stable"), axis=1)
    kth = np.max(chosen_d2, axis=1, keepdims=True)
    tied = np.count_nonzero(d2 <= kth, axis=1) != k
    nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    preds = model.train_y[nearest].mean(axis=1)
    return float(preds[0]) if single else preds
