"""Concentration-inequality baselines for marginal and selective risk.

These pick a score threshold so that a uniform high-probability upper bound
on the empirical risk curve stays below the target level.  The Hoeffding
variant bounds the curve on a fixed grid; the Rademacher variant bounds it
uniformly over all thresholds via the empirical Rademacher complexity of the
indicator class, estimated from injected sign draws.  Both give
high-probability (not exact) control and serve as power comparators.

The empirical risk curve is a prefix sum over the score-sorted calibration
data read at each grid point.  A threshold call makes one stable sort of the
calibration scores and costs O((n + g) log n) time and O(n + g) memory for a
grid of g points, plus O(k * n) time and memory for the k-by-n sign draws
the Rademacher variant consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScoreKitError, _check_alpha, _sorted_prefix, validate_batch

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


def _as_signs(rng_draws, k: int, n: int) -> np.ndarray:
    size = None if rng_draws is None else np.size(rng_draws)
    if size != k * n:
        raise InvalidConfig(f"the Rademacher variant needs rng_draws of {k * n} signs "
                            f"({k} draws of {n}), got {size}")
    signs = np.asarray(rng_draws, dtype=float).reshape(k, n)
    if not np.all(np.abs(signs) == 1.0):
        raise InvalidConfig("rng_draws must contain only -1 and +1 signs")
    return signs


def _concentration_threshold(calib, config: BaselineConfig, alpha: float, rng_draws,
                             selective: bool) -> float | None:
    """The largest grid point whose bounded risk curve stays below ``alpha``.

    The curve is the risk mass below t over n, plus its slack; ``selective``
    divides it by a lower bound on the score mass below t (``inf`` where that
    bound is not positive).  One stable order of the scores gives the risk
    prefix, the Rademacher grid (the last score of each tie group), the counts
    below each grid point and both Rademacher classes.

    A class's Rademacher term is the mean over its sign draws of sup_t (1/n)
    sum_i sign_i * value_i * 1{s_i <= t}, the supremum running over all real
    t (one below every score gives 0); the risk class takes the risks as
    values, the score-mass class ones.  As in :func:`core._sorted_prefix`, a
    sum over "score <= t" is read at the end of t's tie group: the running
    sums at ``inner`` positions belong to no threshold and are left out.
    """
    _check_alpha(alpha)
    batch = validate_batch(calib)
    n, risks = batch.n, batch.calib_risks
    curves = 2 if selective else 1               # risk mass, then score mass
    sorted_scores, prefix0, order = _sorted_prefix(batch.calib_scores, risks)

    if config.kind == "hoeffding":
        grid = np.linspace(0.0, 1.0, config.grid_size)
        below = sorted_scores.searchsorted(grid, side="right")   # scores <= each grid point
        eps = np.sqrt(np.log(2.0 * curves * config.grid_size / config.delta) / (2.0 * n))
        slack = (eps, eps)
    else:
        inner = np.append(sorted_scores[1:] == sorted_scores[:-1], False)
        below = np.flatnonzero(~inner) + 1      # the count of scores <= each tie group's last score
        grid = sorted_scores[below - 1]
        k = config.rademacher_draws
        partial = _as_signs(rng_draws, curves * k, n)[:, order]   # the one array, worked in place
        partial[:k] *= risks[order]
        np.cumsum(partial, axis=1, out=partial)
        partial[:, inner] = -np.inf
        sups = np.maximum(np.max(partial, axis=1), 0.0).reshape(curves, k)
        tail = 3.0 * np.sqrt(np.log(2.0 * curves / config.delta) / (2.0 * n))
        slack = [2.0 * (float(np.mean(row)) / n) + tail for row in sups]

    bound = prefix0[below] / n + slack[0]
    if selective:
        den = below / n - slack[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(den > 0.0, bound / np.maximum(den, 1e-300), np.inf)
    ok = (bound <= alpha).nonzero()[0]
    return float(grid[ok[-1]]) if ok.size else None


def concentration_mdr_threshold(calib, config: BaselineConfig, alpha: float,
                                rng_draws=None) -> float | None:
    """Largest threshold whose bounded marginal-risk estimate stays below
    ``alpha``; ``None`` when no grid point qualifies.

    ``calib`` holds CalibSample / ``(score, risk[, weight])`` items or is a
    :class:`ValidatedBatch`; weights and test points are not used.
    ``rng_draws`` must supply ``rademacher_draws * n`` signs in {-1, +1} for
    the Rademacher variant (unused for Hoeffding).
    """
    return _concentration_threshold(calib, config, alpha, rng_draws, selective=False)


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
    return _concentration_threshold(calib, config, alpha, rng_draws, selective=True)
