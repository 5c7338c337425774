"""Tests for the concentration-inequality baselines."""

import numpy as np
import pytest

from score_kit import (BaselineConfig, InvalidAlpha, InvalidConfig, concentration_mdr_threshold,
                       concentration_sdr_threshold, validate_batch)
from helpers import (dense_concentration_mdr_threshold, dense_concentration_sdr_threshold,
                     three_temporary_rademacher_curve)


def _hoeffding_eps(n, grid_size, delta):
    return np.sqrt(np.log(2 * grid_size / delta) / (2 * n))


def _twin_signs(seed, rows, n):
    """The signs a Rademacher call draws from ``np.random.default_rng(seed)``:
    ``rademacher_draws`` rows for the marginal risk, twice that for the
    selective risk."""
    return np.random.default_rng(seed).choice(np.array([-1.0, 1.0]), size=(rows, n))


class _FixedDraw:
    """A generator stand-in whose one draw is a given sign pattern."""

    def __init__(self, signs):
        self.signs = np.asarray(signs, dtype=float)

    def choice(self, a, size):
        return self.signs.reshape(size)


def test_slack_formula_example():
    # n=1000, |G|=101, delta=0.1
    assert _hoeffding_eps(1000, 101, 0.1) == pytest.approx(0.0617, abs=5e-4)


@pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, 5.0, float("inf")])
@pytest.mark.parametrize("kind", ["hoeffding", "rademacher"])
def test_both_baselines_reject_a_level_outside_the_unit_interval(kind, alpha):
    # A mistyped level must not read as "no threshold" (None) or "deploy
    # everything" (1.0).
    calib = [(0.1, 0.2), (0.4, 0.1), (0.7, 0.3)]
    config = BaselineConfig(kind, rademacher_draws=2)
    for threshold in (concentration_mdr_threshold, concentration_sdr_threshold):
        with pytest.raises(InvalidAlpha, match="alpha must lie in"):
            threshold(calib, config, alpha, np.random.default_rng(0))


def test_mdr_hoeffding_zero_risks_selects_top():
    rng = np.random.default_rng(61)
    n = 1000
    calib = list(zip(rng.uniform(size=n), np.zeros(n)))
    config = BaselineConfig("hoeffding", delta=0.1)
    eps = _hoeffding_eps(n, config.grid_size, config.delta)
    t = concentration_mdr_threshold(calib, config, alpha=eps + 0.01)
    assert t == 1.0  # max grid point


def test_mdr_hoeffding_none_when_budget_below_slack():
    rng = np.random.default_rng(62)
    n = 200
    calib = list(zip(rng.uniform(size=n), np.zeros(n)))
    config = BaselineConfig("hoeffding", delta=0.1)
    eps = _hoeffding_eps(n, config.grid_size, config.delta)
    assert concentration_mdr_threshold(calib, config, alpha=eps * 0.5) is None


def test_mdr_rademacher_runs_and_bounds():
    rng = np.random.default_rng(63)
    n = 400
    calib = list(zip(rng.uniform(size=n), rng.uniform(0.0, 0.2, size=n)))
    config = BaselineConfig("rademacher", delta=0.1)
    t = concentration_mdr_threshold(calib, config, alpha=0.5, rng=rng)
    assert t is None or 0.0 <= t <= 1.0


def test_sdr_zero_risks_selects_top():
    rng = np.random.default_rng(64)
    n = 2000
    calib = list(zip(rng.uniform(size=n), np.zeros(n)))
    config = BaselineConfig("hoeffding", delta=0.1)
    t = concentration_sdr_threshold(calib, config, alpha=0.3)
    assert t == 1.0


def test_sdr_none_when_denominator_never_positive():
    rng = np.random.default_rng(65)
    n = 5  # slack exceeds any empirical frequency
    calib = list(zip(rng.uniform(size=n), np.zeros(n)))
    config = BaselineConfig("hoeffding", delta=0.1)
    assert concentration_sdr_threshold(calib, config, alpha=0.3) is None


def test_sdr_hoeffding_against_straight_line_reimplementation():
    rng = np.random.default_rng(66)
    n, delta, alpha = 1000, 0.1, 0.3
    scores = rng.uniform(size=n)
    risks = np.full(n, 0.05)
    config = BaselineConfig("hoeffding", delta=delta, grid_size=100)
    t = concentration_sdr_threshold(list(zip(scores, risks)), config, alpha=alpha)

    # independent re-evaluation of the bound on the same grid
    grid = np.linspace(0.0, 1.0, 100)
    eps = np.sqrt(np.log(4 * 100 / delta) / (2 * n))
    best = None
    for g in grid:
        below = scores <= g
        a = risks[below].sum() / n + eps
        b = below.mean() - eps
        if b > 0 and a / b <= alpha:
            best = g
    assert t == pytest.approx(best)


def test_slack_decreases_in_n():
    eps = [_hoeffding_eps(n, 101, 0.1) for n in (100, 400, 1600, 6400)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_threshold_nondecreasing_in_n_on_average():
    rng = np.random.default_rng(67)
    config = BaselineConfig("hoeffding", delta=0.1)

    def mean_threshold(n, reps=60):
        vals = []
        for _ in range(reps):
            scores = rng.uniform(size=n)
            risks = np.clip(scores * 0.4 + rng.uniform(-0.05, 0.05, size=n), 0.0, 1.0)
            t = concentration_mdr_threshold(list(zip(scores, risks)), config, alpha=0.2)
            vals.append(-1.0 if t is None else t)
        return np.mean(vals)

    assert mean_threshold(200) <= mean_threshold(2000) + 1e-9


def test_high_probability_control():
    # fraction of replicates whose true deployed risk exceeds alpha stays
    # below delta (up to 3 SE); truth evaluated on a large fresh holdout
    rng = np.random.default_rng(68)
    delta, alpha, n = 0.1, 0.25, 300
    config = BaselineConfig("hoeffding", delta=delta)
    failures = []
    hold_scores = rng.uniform(size=40_000)
    hold_risks = np.clip(hold_scores + 0.2 * rng.normal(size=40_000), 0.0, 1.0)
    for _ in range(500):
        scores = rng.uniform(size=n)
        risks = np.clip(scores + 0.2 * rng.normal(size=n), 0.0, 1.0)
        t = concentration_mdr_threshold(list(zip(scores, risks)), config, alpha=alpha)
        if t is None:
            failures.append(0.0)
            continue
        true_mdr = np.mean(hold_risks * (hold_scores <= t))
        failures.append(float(true_mdr > alpha))
    rate = np.mean(failures)
    se = np.std(failures, ddof=1) / np.sqrt(len(failures))
    assert rate <= delta + 3 * se, (rate, delta, se)


def test_invalid_config():
    with pytest.raises(InvalidConfig):
        BaselineConfig("nonsense")
    with pytest.raises(InvalidConfig):
        BaselineConfig("hoeffding", delta=1.2)
    with pytest.raises(InvalidConfig):
        BaselineConfig("hoeffding", grid_size=1)


def test_batch_and_pairs_give_same_threshold():
    rng = np.random.default_rng(69)
    n = 1000
    scores = np.round(rng.uniform(size=n), 2)
    risks = scores * rng.uniform(size=n)
    batch = validate_batch(list(zip(scores, risks, rng.uniform(0.5, 2.0, size=n))),
                           list(rng.uniform(size=20)))
    found = []
    for kind in ("hoeffding", "rademacher"):
        config = BaselineConfig(kind)
        for fn in (concentration_mdr_threshold, concentration_sdr_threshold):
            for seed, alpha in enumerate((0.1, 0.2, 0.4)):
                from_pairs = fn(list(zip(scores, risks)), config, alpha, np.random.default_rng(seed))
                assert fn(batch, config, alpha, np.random.default_rng(seed)) == from_pairs
                found.append(from_pairs)
    assert sum(t is not None and t < 1.0 for t in found) >= 3


def test_thresholds_equal_dense_reference():
    # 0.1-grid tied scores and quarter risks keep every sum exact, so the
    # sorted-prefix curves must pick the same thresholds as the dense matrix,
    # which reads the signs a twin generator draws
    rng = np.random.default_rng(70)
    alphas = (0.1, 0.2, 0.25, 0.3, 0.5)
    found = 0
    for i in range(2000):
        n = int(rng.integers(50, 800))
        scores = rng.integers(0, 11, size=n) / 10
        risks = np.round(4.0 * np.clip(scores * rng.uniform(0.0, 0.6, size=n), 0.0, 1.0)) / 4.0
        config = BaselineConfig(("hoeffding", "rademacher")[i % 2], delta=0.2,
                                grid_size=int(rng.integers(2, 60)), rademacher_draws=8)
        k = config.rademacher_draws
        alpha = alphas[i % 5]
        calib = list(zip(scores, risks))
        t_mdr = concentration_mdr_threshold(calib, config, alpha, np.random.default_rng(i))
        assert t_mdr == dense_concentration_mdr_threshold(calib, config, alpha, _twin_signs(i, k, n))
        t_sdr = concentration_sdr_threshold(calib, config, alpha, np.random.default_rng(i))
        assert t_sdr == dense_concentration_sdr_threshold(calib, config, alpha, _twin_signs(i, 2 * k, n))
        found += (t_mdr is not None) + (t_sdr is not None)
    assert found >= 1000


def test_rademacher_thresholds_equal_the_three_temporary_expression():
    # Both classes are gathered, multiplied and summed in place: the same
    # per-element operations as a separate product and cumsum, so the same
    # bits on distinct scores.  Each instance also takes levels equal to a
    # point's bound, where one ulp of slack would move the threshold.
    rng = np.random.default_rng(66)
    boundary = 0
    for k in range(200):
        n, draws = int(rng.integers(1, 300)), int(rng.integers(1, 40))
        calib = list(zip(rng.uniform(size=n), rng.uniform(size=n)))
        config = BaselineConfig("rademacher", delta=float(rng.uniform(0.01, 0.5)), rademacher_draws=draws)
        for threshold, blocks in ((concentration_mdr_threshold, 1), (concentration_sdr_threshold, 2)):
            selective = blocks == 2
            grid, bound = three_temporary_rademacher_curve(calib, config, _twin_signs(k, blocks * draws, n),
                                                           selective)
            levels = bound[(bound > 0.0) & (bound < 1.0)]
            for alpha in (*rng.choice(levels, size=min(2, levels.size)), float(rng.uniform(0.05, 0.95))):
                ok = np.flatnonzero(bound <= alpha)
                want = float(grid[ok[-1]]) if ok.size else None
                assert threshold(calib, config, alpha, np.random.default_rng(k)) == want, (k, selective, alpha)
            boundary += min(2, levels.size)
    assert boundary >= 300, boundary
    # Sixteen tied scores admit no threshold between them, so the alternating
    # draw gives a Rademacher term of 0, not the 0.0625 of the sum after the
    # first: the bound at 0.5 is then exactly 0.0625 + tail, a level below 1.
    config = BaselineConfig("rademacher", rademacher_draws=1)
    tail = 3.0 * np.sqrt(np.log(2.0 / config.delta) / (2.0 * 16))
    draw = _FixedDraw([1.0, -1.0] * 8)
    assert concentration_mdr_threshold([(0.5, 0.0625)] * 16, config, 0.0625 + tail, draw) == 0.5


@pytest.mark.parametrize("threshold, blocks", [(concentration_mdr_threshold, 1),
                                               (concentration_sdr_threshold, 2)], ids=["mdr", "sdr"])
def test_a_rademacher_call_draws_its_signs_in_one_choice(threshold, blocks):
    # The call leaves its generator where a twin sits after one
    # choice([-1, 1], size=(blocks * k, n)), and its threshold is the dense
    # reference's on the twin's signs; Hoeffding draws nothing.
    rng = np.random.default_rng(72)
    dense = dense_concentration_mdr_threshold if blocks == 1 else dense_concentration_sdr_threshold
    k, found = 6, 0
    for seed in range(40):
        n = int(rng.integers(200, 600))
        scores = rng.integers(0, 11, size=n) / 10
        risks = np.round(4.0 * np.clip(scores * rng.uniform(0.0, 0.6, size=n), 0.0, 1.0)) / 4.0
        calib, alpha = list(zip(scores, risks)), float(rng.choice([0.5, 0.8]))
        config = BaselineConfig("rademacher", delta=0.2, rademacher_draws=k)
        drawn, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        signs = twin.choice(np.array([-1.0, 1.0]), size=(blocks * k, n))
        t = threshold(calib, config, alpha, drawn)
        assert t == dense(calib, config, alpha, signs), seed
        assert drawn.uniform() == twin.uniform(), seed
        found += t is not None
        untouched = np.random.default_rng(seed)
        threshold(calib, BaselineConfig("hoeffding"), alpha, untouched)
        assert untouched.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    assert found >= 20, found


@pytest.mark.parametrize("threshold", [concentration_mdr_threshold, concentration_sdr_threshold],
                         ids=["mdr", "sdr"])
def test_a_rademacher_call_without_a_generator_raises_invalid_config(threshold):
    calib = [(0.1, 0.2), (0.4, 0.1), (0.7, 0.3)]
    with pytest.raises(InvalidConfig, match="draws its signs from rng, got None$"):
        threshold(calib, BaselineConfig("rademacher", rademacher_draws=5), 0.3)
