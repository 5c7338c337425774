"""Lightweight learners: a k-NN regressor for risk/reward prediction and a
logistic density-ratio estimator for covariate-shift weights.

Deployment-risk control holds for any score function, so the learner choice
only affects power; these dependency-free implementations keep the package
self-contained and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScoreKitError, _freeze_views

__all__ = [
    "KTooLarge",
    "DivergedFit",
    "KnnRegressor",
    "knn_fit",
    "knn_predict",
    "LogisticWeightModel",
    "logistic_fit_weights",
    "weight_predict",
    "ratio_scores",
]


# Bytes of squared distances per query block in knn_predict.
_KNN_BLOCK_BYTES = 2**20


class KTooLarge(ScoreKitError):
    def __init__(self, k: int, n: int) -> None:
        super().__init__(f"k={k} exceeds the {n} available training points")


class DivergedFit(ScoreKitError):
    pass


@dataclass(frozen=True)
class KnnRegressor:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int

    def __post_init__(self) -> None:
        _freeze_views(self, ("train_x", "train_y"))


def knn_fit(train_x, train_y, k: int) -> KnnRegressor:
    """Store the training set for k-nearest-neighbor regression (squared
    Euclidean metric, distance ties broken by lowest training index)."""
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float)
    if x.shape[0] != y.shape[0] or y.size == 0:
        raise ValueError("train_x and train_y must be non-empty with matching lengths")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if k > y.size:
        raise KTooLarge(k, y.size)
    return KnnRegressor(x, y, int(k))


def _knn_block(model: KnnRegressor, q: np.ndarray, train_sq: np.ndarray,
               d2: np.ndarray) -> np.ndarray:
    """``knn_predict`` for one block of query rows; ``train_sq`` holds the
    training points' squared norms, and the block's squared distances are
    built in ``d2``, a ``(len(q), n)`` buffer that every block reuses: an
    array freed and allocated again per block costs fresh page faults."""
    k, n = model.k, model.train_x.shape[0]
    # Squared distances via the expansion, |q|^2 - 2 q.x + |x|^2, built in
    # place; the |q|^2 term is rank-preserving but kept so that ties match
    # the literal metric.
    np.matmul(2.0 * q, model.train_x.T, out=d2)
    np.subtract(np.sum(q * q, axis=1)[:, None], d2, out=d2)
    d2 += train_sq
    # Partitioning at k also places the (k+1)-th distance, at column k.
    part = np.argpartition(d2, min(k, n - 1), axis=1)
    chosen = np.sort(part[:, :k], axis=1)
    chosen_d2 = np.take_along_axis(d2, chosen, axis=1)
    nearest = np.take_along_axis(chosen, np.argsort(chosen_d2, axis=1, kind="stable"), axis=1)
    # The chosen k are the stable-sort prefix unless the (k+1)-th distance
    # reaches the k-th one (or that is nan); re-sort exactly those rows.
    kth = np.max(chosen_d2, axis=1)
    tied = np.isnan(kth)
    if k < n:
        tied |= np.take_along_axis(d2, part[:, k:k + 1], axis=1)[:, 0] <= kth
    nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return model.train_y[nearest].mean(axis=1)


def knn_predict(model: KnnRegressor, x) -> np.ndarray | float:
    """Mean of the k nearest training targets; accepts one point or a matrix.

    Neighbours are ranked by (squared distance, training index), so a
    distance tie at the k-th neighbour goes to the lowest training index and
    the targets are averaged in that order.  Queries are taken in blocks of
    ``max(2, 2**20 // (8*n))`` rows (about 1 MiB of distances each), so for q
    queries against n training points the cost is O(q*n) time, for the
    partial selection, plus an O(q*k log k) sort of the k chosen, and
    O(rows*n + q) memory.  Only rows with a tie at the k-th distance are
    fully sorted.  A lone query keeps the matrix-vector product: BLAS may
    round a one-row product differently from the same row of a larger one,
    so a trailing single row joins the block before it.

    Raises
    ------
    ValueError
        If the query's feature count differs from the training set's.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    n, dim = model.train_x.shape
    if q.shape[1] != dim:
        raise ValueError(f"query has {q.shape[1]} features, the model was fit on {dim}")
    rows = max(2, _KNN_BLOCK_BYTES // (8 * n))
    edges = list(range(0, q.shape[0], rows)) + [q.shape[0]]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    train_sq = np.sum(model.train_x * model.train_x, axis=1)
    preds = np.empty(q.shape[0])
    d2 = np.empty((min(q.shape[0], rows + 1), n))
    for lo, hi in zip(edges, edges[1:]):
        preds[lo:hi] = _knn_block(model, q[lo:hi], train_sq, d2[:hi - lo])
    return float(preds[0]) if single else preds


@dataclass(frozen=True)
class LogisticWeightModel:
    """Density-ratio model ``w(x) = clip(prior_ratio * p/(1-p), lo, hi)``
    where ``p`` is the fitted probability that ``x`` comes from the target
    population.  Features are standardized with the training statistics."""

    coef: np.ndarray
    intercept: float
    prior_ratio: float
    clip: tuple[float, float]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    final_loss: float

    def __post_init__(self) -> None:
        _freeze_views(self, ("coef", "feat_mean", "feat_std"))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


def logistic_fit_weights(source_x, target_x, lr: float = 0.1, iters: int = 500,
                         clip: tuple[float, float] = (0.05, 20.0)) -> LogisticWeightModel:
    """Fit covariate-shift weights by probabilistic classification.

    Full-batch gradient descent on the logistic loss separating source
    (label 0) from target (label 1) samples; deterministic given the inputs.
    The loss is evaluated once, after the last step, from that step's
    probabilities; it is ``final_loss`` (``inf`` when ``iters=0``).

    Raises
    ------
    DivergedFit
        If that final loss is non-finite.  The loss is finite unless a
        probability is nan, and a nan probability makes every later one nan,
        so this is exactly when some step produced a nan probability (for
        example from an infinite feature).
    """
    xs = np.atleast_2d(np.asarray(source_x, dtype=float))
    xt = np.atleast_2d(np.asarray(target_x, dtype=float))
    if xs.shape[0] == 0 or xt.shape[0] == 0:
        raise ValueError("source and target samples must be non-empty")
    if xs.shape[1] != xt.shape[1]:
        raise ValueError(f"feature dimensions differ: {xs.shape[1]} vs {xt.shape[1]}")
    if not (0.0 < clip[0] < clip[1]):
        raise ValueError(f"clip bounds must satisfy 0 < lo < hi, got {clip!r}")

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
            p = _sigmoid(z @ coef + intercept)
            grad_logit = (p - y) / y.size
            coef -= lr * (z.T @ grad_logit)
            intercept -= lr * float(np.sum(grad_logit))
        if iters > 0:
            eps = 1e-12
            loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
            if not np.isfinite(loss):
                raise DivergedFit(f"logistic loss became non-finite ({loss!r})")

    prior_ratio = xs.shape[0] / xt.shape[0]
    return LogisticWeightModel(coef, float(intercept), float(prior_ratio),
                               (float(clip[0]), float(clip[1])), mean, std, loss)


def weight_predict(model: LogisticWeightModel, x) -> np.ndarray | float:
    """Estimated density ratio at ``x``, clipped into the model's bounds."""
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    z = (q - model.feat_mean) / model.feat_std
    p = _sigmoid(z @ model.coef + model.intercept)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    w = np.clip(model.prior_ratio * p / (1.0 - p), model.clip[0], model.clip[1])
    return float(w[0]) if single else w


def ratio_scores(l_values, r_values, alpha: float, method: str) -> np.ndarray:
    """Risk-per-reward scores from predicted risk/reward values:
    ``l/r`` for marginal control, ``(l - alpha)/r`` for selective control,
    with the reward clamped below at 1e-6."""
    if method not in ("mdr", "sdr"):
        raise ValueError(f"unknown method {method!r}")
    l = np.asarray(l_values, dtype=float)
    r = np.maximum(np.asarray(r_values, dtype=float), 1e-6)
    return (l - alpha) / r if method == "sdr" else l / r

