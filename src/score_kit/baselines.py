"""Concentration-inequality baselines for marginal and selective risk.

These pick a score threshold so that a uniform high-probability upper bound
on the empirical risk curve stays below the target level.  The Hoeffding
variant bounds the curve on a fixed grid; the Rademacher variant bounds it
uniformly over all thresholds via the empirical Rademacher complexity of the
indicator class, estimated from injected sign draws.  Both give
high-probability (not exact) control and serve as power comparators.

The empirical risk curve is a prefix sum over the score-sorted calibration
data read at each grid point, so a threshold costs O((n + g) log n) time and
O(n + g) memory for a grid of g points, plus the k-by-n sign draws the
Rademacher variant consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScoreKitError, _sorted_prefix, validate_batch

__all__ = [
    "InvalidConfig",
    "BaselineConfig",
    "rademacher_signs",
    "concentration_mdr_threshold",
    "concentration_sdr_threshold",
]


class InvalidConfig(ScoreKitError):
    pass


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline flavor and its confidence parameters.

    ``delta`` is the allowed failure probability of the uniform bound;
    ``grid_size`` the number of evenly spaced thresholds for the Hoeffding
    variant (the Rademacher variant searches the calibration scores);
    ``rademacher_draws`` the number of sampled sign vectors.
    """

    kind: str
    delta: float = 0.1
    grid_size: int = 101
    rademacher_draws: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("hoeffding", "rademacher"):
            raise InvalidConfig(f"kind must be 'hoeffding' or 'rademacher', got {self.kind!r}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidConfig(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.grid_size < 2:
            raise InvalidConfig(f"grid_size must be >= 2, got {self.grid_size!r}")
        if self.rademacher_draws < 1:
            raise InvalidConfig(f"rademacher_draws must be >= 1, got {self.rademacher_draws!r}")


def rademacher_signs(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Draw a (k, n) array of independent signs in {-1, +1}."""
    return rng.choice(np.array([-1.0, 1.0]), size=(k, n))


def _empirical_rademacher(scores: np.ndarray, values: np.ndarray, signs: np.ndarray) -> float:
    """Average over sign draws of sup_t (1/n) sum_i sign_i * values_i * 1{s_i <= t},
    the supremum running over all real thresholds (including one below every
    score, so each term is at least zero)."""
    order = np.argsort(scores, kind="stable")
    partial = signs[:, order]                    # the one (k, n) array, worked in place
    partial *= values[order]
    np.cumsum(partial, axis=1, out=partial)
    sups = np.maximum(np.max(partial, axis=1), 0.0)
    return float(np.mean(sups)) / scores.size


def _as_signs(rng_draws, k: int, n: int) -> np.ndarray:
    signs = np.asarray(rng_draws, dtype=float).reshape(k, n)
    if not np.all(np.abs(signs) == 1.0):
        raise InvalidConfig("rng_draws must contain only -1 and +1 signs")
    return signs


def concentration_mdr_threshold(calib, config: BaselineConfig, alpha: float,
                                rng_draws=None) -> float | None:
    """Largest threshold whose bounded marginal-risk estimate stays below
    ``alpha``; ``None`` when no grid point qualifies.

    ``calib`` holds CalibSample / ``(score, risk[, weight])`` items or is a
    :class:`ValidatedBatch`; weights and test points are not used.
    ``rng_draws`` must supply ``rademacher_draws * n`` signs in {-1, +1} for
    the Rademacher variant (unused for Hoeffding).
    """
    batch = validate_batch(calib)
    n = batch.n
    scores, risks = batch.calib_scores, batch.calib_risks

    if config.kind == "hoeffding":
        grid = np.linspace(0.0, 1.0, config.grid_size)
        eps = np.sqrt(np.log(2.0 * config.grid_size / config.delta) / (2.0 * n))
        slack = np.full(grid.size, eps)
    else:
        grid = np.unique(scores)
        signs = _as_signs(rng_draws, config.rademacher_draws, n)
        rad = _empirical_rademacher(scores, risks, signs)
        slack = np.full(grid.size, 2.0 * rad + 3.0 * np.sqrt(np.log(2.0 / config.delta) / (2.0 * n)))

    sorted_scores, prefix0 = _sorted_prefix(scores, risks)
    mdr_hat = prefix0[np.searchsorted(sorted_scores, grid, side="right")] / n
    ok = np.flatnonzero(mdr_hat + slack <= alpha)
    return float(grid[ok[-1]]) if ok.size else None


def concentration_sdr_threshold(calib, config: BaselineConfig, alpha: float,
                                rng_draws=None) -> float | None:
    """Largest threshold whose bounded selective-risk estimate stays below
    ``alpha``; ``None`` when no grid point qualifies.  ``calib`` is read as
    in :func:`concentration_mdr_threshold`.

    The numerator (risk mass below t) is bounded from above and the
    denominator (score mass below t) from below; their ratio is ``inf``
    whenever the denominator bound is not positive.  The Rademacher variant
    consumes ``2 * rademacher_draws * n`` signs: one block for the
    risk-weighted class, one for the indicator class.
    """
    batch = validate_batch(calib)
    n = batch.n
    scores, risks = batch.calib_scores, batch.calib_risks

    if config.kind == "hoeffding":
        grid = np.linspace(0.0, 1.0, config.grid_size)
        eps = np.sqrt(np.log(4.0 * config.grid_size / config.delta) / (2.0 * n))
        num_slack = eps
        den_slack = eps
    else:
        grid = np.unique(scores)
        signs = _as_signs(rng_draws, 2 * config.rademacher_draws, n)
        rad_risk = _empirical_rademacher(scores, risks, signs[:config.rademacher_draws])
        rad_ind = _empirical_rademacher(scores, np.ones(n), signs[config.rademacher_draws:])
        tail = 3.0 * np.sqrt(np.log(4.0 / config.delta) / (2.0 * n))
        num_slack = 2.0 * rad_risk + tail
        den_slack = 2.0 * rad_ind + tail

    sorted_scores, prefix0 = _sorted_prefix(scores, risks)
    below = np.searchsorted(sorted_scores, grid, side="right")   # scores <= each grid point
    a = prefix0[below] / n + num_slack
    b = below / n - den_slack
    with np.errstate(divide="ignore", invalid="ignore"):
        sdr_plus = np.where(b > 0.0, a / np.maximum(b, 1e-300), np.inf)
    ok = np.flatnonzero(sdr_plus <= alpha)
    return float(grid[ok[-1]]) if ok.size else None
