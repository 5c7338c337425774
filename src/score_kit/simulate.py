"""Synthetic benchmark harness: data generation, risk/reward functions,
covariate-shift rejection sampling, and experiment orchestration.

Six data generating processes pair two nonlinear regression surfaces with
three risk families (excess, squared-error, sigmoid), all with covariates
uniform on ``[-1, 1]^d`` and heteroscedastic Gaussian noise.  Experiments
replicate the full pipeline (fit predictors on a fresh training split,
calibrate, decide, score the realized outcome) and aggregate realized
marginal/selective risk, reward, and selection counts per target level.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable

import numpy as np

from .baselines import BaselineConfig, concentration_mdr_threshold, concentration_sdr_threshold, rademacher_signs
from .core import Levels, ScoreKitError, ValidatedBatch, _write_csv
from .mdr import deploy_mask
from .models import _sigmoid, knn_fit, knn_predict, logistic_fit_weights, ratio_scores, weight_predict
from .sdr import _sdr_kernel, _sdr_kernel_grid
from .selection import SelectionResult, boost_hete, boost_homo, ebh

__all__ = [
    "UnknownSetting",
    "SamplingStalled",
    "LengthMismatch",
    "DimensionMismatch",
    "DgpSetting",
    "RiskKind",
    "RewardKind",
    "ShiftModel",
    "ExperimentConfig",
    "MetricsRow",
    "canonical_risk",
    "generate_dataset",
    "risk_of",
    "reward_of",
    "shift_weight",
    "rejection_sample_shifted",
    "compute_metrics",
    "run_experiment",
    "write_metrics_csv",
]


class UnknownSetting(ScoreKitError):
    def __init__(self, setting_id) -> None:
        super().__init__(f"unknown setting id {setting_id!r}, expected 1..6")


class SamplingStalled(ScoreKitError):
    pass


class LengthMismatch(ScoreKitError):
    pass


class DimensionMismatch(ScoreKitError):
    pass


@dataclass(frozen=True)
class DgpSetting:
    """One of the six synthetic data generating processes: covariates in
    ``dim`` dimensions, noise scale ``sigma``."""

    id: int
    sigma: ClassVar[float] = 0.1
    dim: ClassVar[int] = 20

    def __post_init__(self) -> None:
        if self.id not in (1, 2, 3, 4, 5, 6):
            raise UnknownSetting(self.id)


@dataclass(frozen=True)
class RiskKind:
    """Risk family applied to a realized outcome.

    ``excess``  : y * 1{y > c} / 6, clipped into [0, 1]
    ``l2``      : clip((y - f(x))^2, 0, c) / c
    ``sigmoid`` : 1 / (1 + exp(tau * y))
    ``binary``  : 1{y <= c}
    ``zero`` / ``one`` : diagnostic stubs with constant risk
    """

    kind: str
    c: float = 2.0
    tau: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("excess", "l2", "sigmoid", "binary", "zero", "one"):
            raise ValueError(f"unknown risk kind {self.kind!r}")

    @property
    def needs_predictor(self) -> bool:
        return self.kind == "l2"


@dataclass(frozen=True)
class RewardKind:
    """``constant`` rewards every deployment with 1; ``squared`` with y^2."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "squared"):
            raise ValueError(f"unknown reward kind {self.kind!r}")


@dataclass(frozen=True)
class ShiftModel:
    """Covariate-shift weight function: ``none``, a logistic index model
    (``w1``), a nonlinear interaction model (``w2``), or a multi-modal bump
    model (``w3``).  All three produce weights in (0, 1)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("none", "w1", "w2", "w3"):
            raise ValueError(f"unknown shift kind {self.kind!r}")


def canonical_risk(setting_id: int) -> RiskKind:
    """The risk family conventionally paired with each setting."""
    table = {
        1: RiskKind("excess", c=2.0),
        2: RiskKind("excess", c=2.0),
        3: RiskKind("l2", c=0.6),
        4: RiskKind("l2", c=0.4),
        5: RiskKind("sigmoid", tau=10.0),
        6: RiskKind("sigmoid", tau=10.0),
    }
    if setting_id not in table:
        raise UnknownSetting(setting_id)
    return table[setting_id]


def _mu(setting_id: int, x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    if setting_id in (1, 3):
        up = (x1 * x2 > 0) & (x4 > 0.5)
        down = (x1 * x2 <= 0) & (x4 < -0.5)
        return 3.0 + up * (x4 + 0.5) + down * (x4 - 0.5)
    if setting_id in (2, 4):
        return 2.0 + x1 * x2 + x3 ** 2 + np.exp(x4 - 1.0)
    if setting_id == 5:
        up = (x1 * x2 > 0) & (x4 > 0.5)
        down = (x1 * x2 <= 0) & (x4 < -0.5)
        return up * (x4 + 0.25) + down * (x4 - 0.25)
    if setting_id == 6:
        return x1 * x2 + x3 ** 2 + np.exp(x4 - 1.0)
    raise UnknownSetting(setting_id)


def generate_dataset(setting: DgpSetting, count: int, rng: np.random.Generator):
    """Draw ``count`` pairs ``(x, y)`` from the chosen process.

    Covariates are uniform on ``[-1, 1]^dim``; the noise is heteroscedastic
    Gaussian with scale proportional to the distance of the surface from a
    reference height, clipped symmetrically so that the paired risk stays in
    ``[0, 1]``.  Deterministic given the generator state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    x = rng.uniform(-1.0, 1.0, size=(count, setting.dim))
    mu = _mu(setting.id, x)
    z = rng.standard_normal(count)
    if setting.id in (1, 3):
        eps = np.clip(setting.sigma * (5.5 - mu) * z, -1.5, 1.5)
    elif setting.id in (2, 4):
        eps = np.clip(setting.sigma * (6.0 - mu) * z, -1.0, 1.0)
    else:
        eps = np.clip(setting.sigma * (5.5 - mu) / 2.0 * z, -1.5, 1.5)
    return x, mu + eps


def risk_of(risk: RiskKind, f_pred, y):
    """Realized risk of deploying the prediction ``f_pred`` on outcome ``y``."""
    y = np.asarray(y, dtype=float)
    if risk.kind == "excess":
        return np.clip(y * (y > risk.c) / 6.0, 0.0, 1.0)
    if risk.kind == "l2":
        f = np.asarray(f_pred, dtype=float)
        return np.clip((y - f) ** 2, 0.0, risk.c) / risk.c
    if risk.kind == "sigmoid":
        return np.exp(-np.logaddexp(0.0, risk.tau * y))
    if risk.kind == "binary":
        return (y <= risk.c).astype(float)
    if risk.kind == "zero":
        return np.zeros_like(y)
    return np.ones_like(y)


def reward_of(reward: RewardKind, y):
    """Reward collected when deploying on outcome ``y``."""
    y = np.asarray(y, dtype=float)
    return np.ones_like(y) if reward.kind == "constant" else y ** 2


_W3_A1 = np.array([2.0, -1.0, 1.0])
_W3_A2 = np.array([-2.0, 1.0, -1.0])


def shift_weight(model: ShiftModel, x) -> np.ndarray | float:
    """True covariate-shift weight ``w(x)`` in (0, 1) under the given model."""
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    needed = {"w1": 5, "w2": 4, "w3": 3}
    if model.kind == "none":
        raise ValueError("shift model 'none' has no weight function")
    if q.shape[1] < needed[model.kind]:
        raise DimensionMismatch(
            f"shift {model.kind!r} needs at least {needed[model.kind]} features, got {q.shape[1]}")
    if model.kind == "w1":
        w = _sigmoid(0.1 * np.sum(q[:, :5], axis=1))
    elif model.kind == "w2":
        x1, x2, x3, x4 = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        w = _sigmoid(0.5 * (x1 * x2 + x2 * x3 + x3 * x4) + 0.3 * np.sin(x1 + x2))
    else:
        xp = q[:, :3]
        d1 = np.sum((xp - _W3_A1) ** 2, axis=1)
        d2 = np.sum((xp - _W3_A2) ** 2, axis=1)
        w = _sigmoid(3.0 * np.exp(-d1) + 2.1 * np.exp(-d2) - 2.0)
    return float(w[0]) if single else w


def rejection_sample_shifted(generate: Callable[[int, np.random.Generator], tuple],
                             model, count: int, rng: np.random.Generator,
                             max_draws: int | None = None):
    """Draw ``count`` points from the weight-tilted distribution by rejection.

    ``generate(batch_size, rng)`` must return a ``(x, y)`` batch from the
    base distribution.  A base draw ``x`` is accepted with probability
    ``w(x)`` (all shift models are bounded by 1).  ``model`` is a
    :class:`ShiftModel` or any callable mapping a feature matrix to
    acceptance probabilities in (0, 1].  Deterministic given the generator
    state; raises :class:`SamplingStalled` if ``max_draws`` base draws
    (default ``max(10_000, 100 * count)``) are exhausted first.
    """
    if isinstance(model, ShiftModel):
        if model.kind == "none":
            raise ValueError("rejection sampling requires a non-trivial shift model")
        weight_fn = lambda x: shift_weight(model, x)
    else:
        weight_fn = model
    if max_draws is None:
        max_draws = max(10_000, 100 * count)
    xs, ys = [], []
    accepted = 0
    drawn = 0
    while accepted < count:
        batch = min(max(count, 256), max_draws - drawn)
        if batch <= 0:
            raise SamplingStalled(
                f"accepted only {accepted}/{count} points after {drawn} base draws")
        x, y = generate(batch, rng)
        drawn += batch
        keep = rng.uniform(size=batch) < weight_fn(np.atleast_2d(x))
        xs.append(np.atleast_2d(x)[keep])
        ys.append(np.asarray(y)[keep])
        accepted += int(np.sum(keep))
    x_all = np.concatenate(xs, axis=0)[:count]
    y_all = np.concatenate(ys, axis=0)[:count]
    return x_all, y_all


def compute_metrics(selection, risks, rewards) -> tuple[float, float, float]:
    """Realized metrics of a selection: ``(selective_risk, total_risk,
    total_reward)`` where the selective risk uses the ``1 v |selected|``
    convention.  ``selection`` may be a :class:`SelectionResult` or any
    iterable of selected indices."""
    risks = np.asarray(risks, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if risks.shape != rewards.shape:
        raise LengthMismatch(f"risks and rewards lengths differ: {risks.shape} vs {rewards.shape}")
    idx = sorted(selection.selected) if isinstance(selection, SelectionResult) else sorted(selection)
    if idx and (idx[0] < 0 or idx[-1] >= risks.size):
        raise LengthMismatch(f"selected index out of range for {risks.size} test points")
    sel = np.asarray(idx, dtype=int)
    total_risk = float(np.sum(risks[sel])) if sel.size else 0.0
    total_reward = float(np.sum(rewards[sel])) if sel.size else 0.0
    sdr_realized = total_risk / max(1, sel.size)
    return sdr_realized, total_risk, total_reward


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation experiment."""

    setting: DgpSetting
    risk: RiskKind
    reward: RewardKind
    shift: ShiftModel
    n: int
    m: int
    reps: int
    alpha_grid: tuple[float, ...]
    method: str
    boost: str = "none"
    score_mode: str = "risk_prediction"
    seed: int = 0
    weighted: str = "estimated"     # how weights enter when shift != none
    baselines: tuple[str, ...] = ()  # e.g. ("hoeffding", "rademacher")
    train_size: int = 1000
    knn_k: int = 25

    def __post_init__(self) -> None:
        if self.method not in ("mdr", "sdr"):
            raise ValueError(f"method must be 'mdr' or 'sdr', got {self.method!r}")
        if self.boost not in ("none", "hete", "homo"):
            raise ValueError(f"boost must be 'none', 'hete' or 'homo', got {self.boost!r}")
        if self.score_mode not in ("risk_prediction", "risk_reward_ratio"):
            raise ValueError(f"unknown score_mode {self.score_mode!r}")
        if self.weighted not in ("estimated", "true"):
            raise ValueError(f"weighted must be 'estimated' or 'true', got {self.weighted!r}")
        if self.reps < 1 or self.n < 1 or self.m < 1:
            raise ValueError("n, m, and reps must all be >= 1")
        if not all(0.0 < a < 1.0 for a in self.alpha_grid) or not self.alpha_grid:
            raise ValueError("alpha_grid must be a non-empty subset of (0, 1)")
        for b in self.baselines:
            if b not in ("hoeffding", "rademacher"):
                raise ValueError(f"unknown baseline {b!r}")


@dataclass(frozen=True)
class MetricsRow:
    """One aggregated output row: realized risk (MDR or SDR flavor per the
    method), its standard error over replicates, mean per-point reward of the
    selected set, mean selection count, and the mean total deployed risk."""

    alpha: float
    method: str
    boost: str
    score_mode: str
    setting: int
    risk: str
    shift: str
    realized_risk: float
    se_risk: float
    mean_reward: float
    mean_nsel: float
    tdr: float


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def _replicate(config: ExperimentConfig, rng: np.random.Generator):
    """Generate one replicate: scores-by-alpha inputs plus realized test
    risks/rewards and calibration data for baselines."""
    setting, risk = config.setting, config.risk
    gen = lambda count, r: generate_dataset(setting, count, r)

    f_model = None
    if risk.needs_predictor:
        hold_x, hold_y = gen(config.train_size, rng)
        f_model = knn_fit(hold_x, hold_y, config.knn_k)
    train_x, train_y = gen(config.train_size, rng)
    calib_x, calib_y = gen(config.n, rng)
    if config.shift.kind == "none":
        test_x, test_y = gen(config.m, rng)
    else:
        test_x, test_y = rejection_sample_shifted(gen, config.shift, config.m, rng)

    if config.shift.kind == "none":
        w_calib = np.ones(config.n)
        w_test = np.ones(config.m)
    elif config.weighted == "true":
        w_calib = shift_weight(config.shift, calib_x)
        w_test = shift_weight(config.shift, test_x)
    else:
        src_x, _ = gen(1000, rng)
        tgt_x, _ = rejection_sample_shifted(gen, config.shift, 1000, rng)
        w_model = logistic_fit_weights(src_x, tgt_x)
        w_calib = np.asarray(weight_predict(w_model, calib_x))
        w_test = np.asarray(weight_predict(w_model, test_x))

    def f_pred(x):
        return knn_predict(f_model, x) if f_model is not None else np.zeros(x.shape[0])

    train_risks = risk_of(risk, f_pred(train_x), train_y)
    calib_risks = risk_of(risk, f_pred(calib_x), calib_y)
    test_risks = risk_of(risk, f_pred(test_x), test_y)
    test_rewards = reward_of(config.reward, test_y)

    l_model = knn_fit(train_x, train_risks, config.knn_k)
    l_calib = knn_predict(l_model, calib_x)
    l_test = knn_predict(l_model, test_x)
    if config.score_mode == "risk_reward_ratio" and config.reward.kind == "squared":
        r_model = knn_fit(train_x, reward_of(config.reward, train_y), config.knn_k)
        r_calib = knn_predict(r_model, calib_x)
        r_test = knn_predict(r_model, test_x)
    else:
        r_calib = np.ones(config.n)
        r_test = np.ones(config.m)

    return {
        "l_calib": l_calib, "l_test": l_test,
        "r_calib": r_calib, "r_test": r_test,
        "w_calib": w_calib, "w_test": w_test,
        "calib_risks": calib_risks, "test_risks": test_risks,
        "test_rewards": test_rewards,
    }


def _batch(config: ExperimentConfig, rep: dict, alpha: float | None) -> ValidatedBatch:
    """The replicate's batch at level alpha; risk-prediction scores ignore it."""
    if config.score_mode == "risk_prediction":
        scores_calib, scores_test = rep["l_calib"], rep["l_test"]
    else:
        scores_calib = ratio_scores(rep["l_calib"], rep["r_calib"], alpha, config.method)
        scores_test = ratio_scores(rep["l_test"], rep["r_test"], alpha, config.method)
    return ValidatedBatch(scores_calib, rep["calib_risks"], np.asarray(rep["w_calib"]),
                          scores_test, np.asarray(rep["w_test"]))


def _select(config: ExperimentConfig, batch: ValidatedBatch, alpha: float,
            rng: np.random.Generator, evalues: np.ndarray | None = None) -> np.ndarray:
    """Indices selected by the configured method at level alpha; an SDR
    method uses ``evalues`` when given, else runs the kernel at alpha."""
    if config.method == "mdr":
        return np.flatnonzero(deploy_mask(batch, Levels(alpha)))
    if evalues is None:
        evalues = _sdr_kernel(batch, gamma=alpha)[0]
    if config.boost == "none":
        res = ebh(evalues, alpha)
    elif config.boost == "hete":
        res = boost_hete(evalues, alpha, 1.0 - rng.uniform(size=config.m))
    else:
        res = boost_homo(evalues, alpha, 1.0 - float(rng.uniform()))
    return np.asarray(sorted(res.selected), dtype=int)


def _baseline_select(kind: str, config: ExperimentConfig, batch: ValidatedBatch, alpha: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Indices selected by a concentration baseline at level alpha; the
    baselines read only the batch's scores and calibration risks."""
    bconf = BaselineConfig(kind=kind)
    if config.method == "mdr":
        draws = rademacher_signs(rng, bconf.rademacher_draws, batch.n) if kind == "rademacher" else None
        t_hat = concentration_mdr_threshold(batch, bconf, alpha, draws)
    else:
        draws = rademacher_signs(rng, 2 * bconf.rademacher_draws, batch.n) if kind == "rademacher" else None
        t_hat = concentration_sdr_threshold(batch, bconf, alpha, draws)
    if t_hat is None:
        return np.empty(0, dtype=int)
    return np.flatnonzero(batch.test_scores <= t_hat)


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the configured experiment and aggregate one row per target level
    (plus one row per requested baseline per level).

    Replicates draw fresh train/calibration/test splits from independent
    per-replicate streams spawned from the seed, so output is bit-reproducible
    and independent of evaluation order.  The realized risk is the mean over
    test points and replicates of deployed risk (marginal method) or the mean
    over replicates of the per-replicate selective risk (selective method).

    With ``score_mode == "risk_prediction"`` the scores, and so the batch, do
    not depend on the level: an SDR experiment then runs the kernel once per
    replicate over the whole ``alpha_grid`` (:func:`sdr._sdr_kernel_grid`,
    the same bits as one call per level) and only eBH, boosting and the
    baselines run per level, drawing from the generator in the same order.
    Ratio scores change with the level, so ``risk_reward_ratio`` keeps one
    kernel call per level.
    """
    methods = [config.method] + [f"{config.method}_{b}" for b in config.baselines]
    # One cell per grid position, so a repeated level keeps its own row.
    acc = {name: [{"risk": [], "reward": [], "nsel": [], "tdr": []} for _ in config.alpha_grid]
           for name in methods}

    children = np.random.SeedSequence(config.seed).spawn(config.reps)
    for child in children:
        rng = np.random.default_rng(child)
        rep = _replicate(config, rng)
        grid_evalues = [None] * len(config.alpha_grid)
        if config.method == "sdr" and config.score_mode == "risk_prediction":
            grid_evalues = _sdr_kernel_grid(_batch(config, rep, None), config.alpha_grid)[0]
        for a_i, (alpha, evalues) in enumerate(zip(config.alpha_grid, grid_evalues)):
            batch = _batch(config, rep, alpha)
            selections = {config.method: _select(config, batch, alpha, rng, evalues)}
            for b in config.baselines:
                selections[f"{config.method}_{b}"] = _baseline_select(b, config, batch, alpha, rng)
            for name, sel in selections.items():
                sdr_realized, total_risk, total_reward = compute_metrics(
                    sel, rep["test_risks"], rep["test_rewards"])
                cell = acc[name][a_i]
                cell["risk"].append(total_risk / config.m if config.method == "mdr" else sdr_realized)
                cell["reward"].append(total_reward / config.m)
                cell["nsel"].append(sel.size)
                cell["tdr"].append(total_risk)

    rows = []
    for name in methods:
        for alpha, cell in zip(config.alpha_grid, acc[name]):
            risk_arr = np.asarray(cell["risk"])
            se = float(np.std(risk_arr, ddof=1) / np.sqrt(risk_arr.size)) if risk_arr.size > 1 else 0.0
            rows.append(MetricsRow(
                alpha=float(alpha),
                method=name,
                boost=config.boost if name == config.method else "none",
                score_mode=config.score_mode,
                setting=config.setting.id,
                risk=config.risk.kind,
                shift=config.shift.kind,
                realized_risk=float(np.mean(risk_arr)),
                se_risk=se,
                mean_reward=float(np.mean(cell["reward"])),
                mean_nsel=float(np.mean(cell["nsel"])),
                tdr=float(np.mean(cell["tdr"])),
            ))
    return rows


def write_metrics_csv(rows: Iterable[MetricsRow], out) -> None:
    """Write metrics rows as CSV to a path or an open text stream (floats as
    C ``%.17g``)."""
    rows = list(rows)
    _write_csv(out, METRICS_COLUMNS,
               [np.array([getattr(r, name) for r in rows]) for name in METRICS_COLUMNS])
