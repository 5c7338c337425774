"""Lightweight learners: a k-NN regressor for risk/reward prediction and a
logistic density-ratio estimator for covariate-shift weights.

Deployment-risk control holds for any score function, so the learner choice
only affects power; these dependency-free implementations keep the package
self-contained and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScoreKitError

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
    "build_score",
]


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
        # Freeze private views: the caller's own arrays stay writeable.
        for name in ("train_x", "train_y"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


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


def knn_predict(model: KnnRegressor, x) -> np.ndarray | float:
    """Mean of the k nearest training targets; accepts one point or a matrix.

    Neighbours are ranked by (squared distance, training index), so a
    distance tie at the k-th neighbour goes to the lowest training index and
    the targets are averaged in that order.  Cost: an O(q*n) partial
    selection plus an O(q*k log k) sort of the k chosen, for q queries
    against n training points; only rows with a tie at the k-th distance are
    fully sorted.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    k = model.k
    # Squared distances via the expansion; the |q|^2 term is rank-preserving
    # but kept so that ties match the literal metric.
    d2 = (np.sum(q * q, axis=1)[:, None]
          - 2.0 * q @ model.train_x.T
          + np.sum(model.train_x * model.train_x, axis=1)[None, :])
    chosen = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    chosen_d2 = np.take_along_axis(d2, chosen, axis=1)
    nearest = np.take_along_axis(chosen, np.argsort(chosen_d2, axis=1, kind="stable"), axis=1)
    # The chosen k are the stable-sort prefix unless more than k distances
    # reach the k-th one (or it is nan); re-sort exactly those rows.
    kth = np.max(chosen_d2, axis=1, keepdims=True)
    tied = np.count_nonzero(d2 <= kth, axis=1) != k
    nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    preds = model.train_y[nearest].mean(axis=1)
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
        for a in (self.coef, self.feat_mean, self.feat_std):
            a.flags.writeable = False


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


def logistic_fit_weights(source_x, target_x, lr: float = 0.1, iters: int = 500,
                         clip: tuple[float, float] = (0.05, 20.0)) -> LogisticWeightModel:
    """Fit covariate-shift weights by probabilistic classification.

    Full-batch gradient descent on the logistic loss separating source
    (label 0) from target (label 1) samples; deterministic given the inputs.

    Raises
    ------
    DivergedFit
        If the loss becomes non-finite.
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


def build_score(mode: str, l_hat, r_hat, alpha: float, method: str):
    """Build a score function from risk/reward predictors.

    ``mode="risk_prediction"`` scores by predicted risk alone;
    ``mode="risk_reward_ratio"`` scores by predicted risk per unit predicted
    reward (see :func:`ratio_scores`).
    """
    if mode not in ("risk_prediction", "risk_reward_ratio"):
        raise ValueError(f"unknown score mode {mode!r}")
    if method not in ("mdr", "sdr"):
        raise ValueError(f"unknown method {method!r}")

    if mode == "risk_prediction":
        return lambda x: np.asarray(l_hat(x), dtype=float)
    return lambda x: ratio_scores(l_hat(x), r_hat(x), alpha, method)
