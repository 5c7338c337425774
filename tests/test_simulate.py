"""Tests for data generation, risk/reward functions, shifts, and experiments."""

import io

import numpy as np
import pytest

from score_kit import (DgpSetting, DimensionMismatch, ExperimentConfig, LengthMismatch,
                       RewardKind, RiskKind, SamplingStalled, SelectionResult, ShiftModel,
                       UnknownSetting, canonical_risk, compute_metrics, generate_dataset,
                       rejection_sample_shifted, reward_of, risk_of, run_experiment,
                       shift_weight, write_metrics_csv)
from score_kit.simulate import METRICS_COLUMNS, MetricsRow, _mu
from helpers import csv_reference_write


def test_mu_setting2_at_origin():
    x = np.zeros((1, 20))
    assert _mu(2, x)[0] == pytest.approx(2.0 + np.exp(-1.0))


def test_mu_setting5_indicators_off():
    x = np.zeros((1, 20))
    x[0, 0], x[0, 1], x[0, 3] = 0.5, -0.5, -0.2   # x1*x2 <= 0 and x4 >= -0.5
    assert _mu(5, x)[0] == 0.0


def test_generate_dataset_deterministic():
    setting = DgpSetting(3)
    x1, y1 = generate_dataset(setting, 50, np.random.default_rng(99))
    x2, y2 = generate_dataset(setting, 50, np.random.default_rng(99))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_generate_dataset_unknown_setting():
    with pytest.raises(UnknownSetting):
        DgpSetting(7)


def test_risk_examples():
    assert risk_of(RiskKind("excess", c=2.0), 0.0, 3.0) == pytest.approx(0.5)
    assert risk_of(RiskKind("l2", c=0.6), 1.3, 1.3) == 0.0
    assert risk_of(RiskKind("sigmoid", tau=10.0), 0.0, 0.0) == pytest.approx(0.5)
    assert risk_of(RiskKind("binary", c=1.0), 0.0, 0.5) == 1.0
    assert risk_of(RiskKind("zero"), 0.0, 5.0) == 0.0
    assert risk_of(RiskKind("one"), 0.0, 5.0) == 1.0


def test_risk_always_in_unit_interval():
    rng = np.random.default_rng(71)
    kinds = [RiskKind("excess", c=2.0), RiskKind("l2", c=0.6),
             RiskKind("sigmoid", tau=10.0), RiskKind("binary", c=0.0)]
    f = rng.normal(scale=5.0, size=5000)
    y = rng.normal(scale=5.0, size=5000)
    for kind in kinds:
        r = risk_of(kind, f, y)
        assert np.all((r >= 0.0) & (r <= 1.0))


def test_reward_examples():
    assert reward_of(RewardKind("constant"), 123.0) == 1.0
    assert reward_of(RewardKind("squared"), 2.0) == 4.0
    assert reward_of(RewardKind("squared"), 0.0) == 0.0


def test_shift_weight_examples():
    zeros = np.zeros(20)
    assert shift_weight(ShiftModel("w1"), zeros) == pytest.approx(0.5)
    assert shift_weight(ShiftModel("w2"), zeros) == pytest.approx(0.5)
    x = np.zeros(20)
    x[:3] = [2.0, -1.0, 1.0]   # first mode center
    expected = 1.0 / (1.0 + np.exp(-(3.0 + 2.1 * np.exp(-24.0) - 2.0)))
    assert shift_weight(ShiftModel("w3"), x) == pytest.approx(expected)
    assert shift_weight(ShiftModel("w3"), x) == pytest.approx(0.7311, abs=1e-3)


def test_shift_weight_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        shift_weight(ShiftModel("w1"), np.zeros(3))


def test_rejection_sampling_constant_stub_keeps_distribution():
    gen = lambda count, rng: (rng.normal(size=(count, 2)), np.zeros(count))
    stub = lambda x: np.full(x.shape[0], 0.5)
    rng = np.random.default_rng(72)
    x, _ = rejection_sample_shifted(gen, stub, 10_000, rng)
    base, _ = gen(10_000, np.random.default_rng(73))
    # two-sample mean comparison: both means are ~N(0, 1/10000)
    diff = abs(x[:, 0].mean() - base[:, 0].mean())
    assert diff < 4.0 / np.sqrt(10_000)


def test_rejection_sampling_deterministic():
    setting = DgpSetting(1)
    gen = lambda count, rng: generate_dataset(setting, count, rng)
    x1, y1 = rejection_sample_shifted(gen, ShiftModel("w1"), 200, np.random.default_rng(5))
    x2, y2 = rejection_sample_shifted(gen, ShiftModel("w1"), 200, np.random.default_rng(5))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_rejection_sampling_stalls():
    gen = lambda count, rng: (rng.normal(size=(count, 2)), np.zeros(count))
    stub = lambda x: np.full(x.shape[0], 1e-6)
    with pytest.raises(SamplingStalled):
        rejection_sample_shifted(gen, stub, 1000, np.random.default_rng(7), max_draws=2000)


def test_compute_metrics_examples():
    risks = [0.2, 0.4, 1.0]
    rewards = [1.0, 1.0, 1.0]
    sdr, total, reward = compute_metrics({0, 1}, risks, rewards)
    assert sdr == pytest.approx(0.3)
    assert total == pytest.approx(0.6)
    assert reward == pytest.approx(2.0)

    sdr, total, _ = compute_metrics(set(), risks, rewards)
    assert sdr == 0.0 and total == 0.0

    sdr, _, _ = compute_metrics({0, 1, 2}, [0.4, 0.4, 0.4], rewards)
    assert sdr == pytest.approx(0.4)

    res = SelectionResult(frozenset({2}), 1, 3.0)
    assert compute_metrics(res, risks, rewards)[1] == pytest.approx(1.0)


def test_compute_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        compute_metrics({0}, [0.1, 0.2], [1.0])
    with pytest.raises(LengthMismatch):
        compute_metrics({5}, [0.1, 0.2], [1.0, 1.0])


def _tiny_config(**overrides):
    base = dict(
        setting=DgpSetting(1), risk=canonical_risk(1), reward=RewardKind("constant"),
        shift=ShiftModel("none"), n=60, m=12, reps=3,
        alpha_grid=(0.1, 0.3), method="mdr", seed=42, train_size=80, knn_k=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_zero_risk_stub():
    rows = run_experiment(_tiny_config(risk=RiskKind("zero"), method="sdr"))
    for r in rows:
        assert r.realized_risk == 0.0
        assert r.mean_nsel == 12.0


def test_run_experiment_all_one_risk_stub():
    rows = run_experiment(_tiny_config(risk=RiskKind("one"), method="sdr",
                                       alpha_grid=(0.2,), m=20, reps=4))
    assert all(r.mean_nsel == 0.0 for r in rows)


def test_run_experiment_keeps_a_repeated_level_apart():
    # each grid position has its own cell: a repeated level gives the
    # one-level row twice, not one row pooled over both
    cfg = dict(n=100, m=20, reps=3, seed=5, method="sdr")
    once = run_experiment(_tiny_config(alpha_grid=(0.3,), **cfg))
    assert run_experiment(_tiny_config(alpha_grid=(0.3, 0.3), **cfg)) == once * 2


def test_run_experiment_deterministic():
    cfg = _tiny_config(method="sdr", boost="homo")
    assert run_experiment(cfg) == run_experiment(cfg)


def test_run_experiment_boosted_no_fewer_selections():
    base = run_experiment(_tiny_config(method="sdr", boost="none", reps=6))
    for boost in ("hete", "homo"):
        boosted = run_experiment(_tiny_config(method="sdr", boost=boost, reps=6))
        for rb, rn in zip(boosted, base):
            assert rb.mean_nsel >= rn.mean_nsel


def test_run_experiment_mdr_control_smoke():
    rows = run_experiment(_tiny_config(n=300, m=60, reps=25, train_size=400, knn_k=15))
    for r in rows:
        assert r.realized_risk <= r.alpha + 3.0 * r.se_risk + 1e-12
        assert r.tdr == pytest.approx(r.realized_risk * 60.0, rel=1e-9)


def test_score_mode_ordering_on_sigmoid_setting():
    # reward-aware scores trade selections for reward on the sigmoid risk
    common = dict(setting=DgpSetting(5), risk=canonical_risk(5),
                  reward=RewardKind("squared"), shift=ShiftModel("none"),
                  n=300, m=60, reps=30, alpha_grid=(0.3,), method="mdr",
                  seed=7, train_size=500, knn_k=15)
    pred = run_experiment(ExperimentConfig(score_mode="risk_prediction", **common))[0]
    ratio = run_experiment(ExperimentConfig(score_mode="risk_reward_ratio", **common))[0]
    se = 3.0 * np.hypot(pred.se_risk, ratio.se_risk)  # generous paired slack
    assert ratio.mean_reward >= pred.mean_reward - se - 0.05 * abs(pred.mean_reward)
    assert pred.mean_nsel >= ratio.mean_nsel - 3.0


def test_metrics_csv_format():
    rows = run_experiment(_tiny_config(alpha_grid=(0.3,), reps=2))
    buf = io.StringIO()
    write_metrics_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[1] == "mdr" and cells[4] == "1"
    float(cells[7])  # realized_risk parses


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stream"])
def test_metrics_csv_matches_csv_module_reference(tmp_path, to_path):
    rows = run_experiment(_tiny_config(alpha_grid=(0.1, 0.3), baselines=("hoeffding",)))
    rows.append(MetricsRow(1e-5, "sdr", "hete", "risk_reward_ratio", 6, "l2", "w3",
                           np.inf, -0.0, 5e-324, 1e16, -np.inf))
    columns = [[getattr(r, col) for r in rows] for col in METRICS_COLUMNS]
    expected = io.StringIO()
    csv_reference_write(expected, METRICS_COLUMNS, [
        np.array(col) if isinstance(col[0], float) else col for col in columns])
    if to_path:
        write_metrics_csv(rows, tmp_path / "metrics.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == expected.getvalue().encode("utf-8")
    else:
        buf = io.StringIO()
        write_metrics_csv(rows, buf)
        assert buf.getvalue() == expected.getvalue()


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(method="other")
    with pytest.raises(ValueError):
        _tiny_config(alpha_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        _tiny_config(boost="always")


def _kernel_spies(monkeypatch):
    """Wrap the names ``run_experiment`` looks up: every grid call is checked
    row by row against fresh single-level calls, the row each level's
    selection receives is checked against a fresh call at that level, and
    the kernel calls of both forms are counted."""
    from score_kit import simulate, sdr

    calls = {"grid": 0, "level": 0, "rows": 0, "nonzero": 0}
    select = simulate._select

    def grid(batch, gammas):
        calls["grid"] += 1
        out = sdr._sdr_kernel_grid(batch, gammas)
        for g, gamma in enumerate(gammas):
            for got, want in zip((a[g] for a in out), sdr._sdr_kernel(batch, gamma)):
                assert np.array_equal(got, want, equal_nan=True), gamma
        return out

    def level(batch, gamma):
        calls["level"] += 1
        return sdr._sdr_kernel(batch, gamma)

    def checked_select(config, batch, alpha, rng, evalues=None):
        if evalues is not None:
            calls["rows"] += 1
            assert np.array_equal(evalues, sdr._sdr_kernel(batch, alpha)[0]), alpha
            calls["nonzero"] += int(np.sum(evalues > 0.0))
        return select(config, batch, alpha, rng, evalues)

    monkeypatch.setattr(simulate, "_sdr_kernel_grid", grid)
    monkeypatch.setattr(simulate, "_sdr_kernel", level)
    monkeypatch.setattr(simulate, "_select", checked_select)
    return calls


@pytest.mark.parametrize("boost, shift", [("hete", "none"), ("homo", "w2"), ("none", "none")])
def test_run_experiment_runs_one_grid_kernel_per_replicate(monkeypatch, boost, shift):
    # unit weights (no shift) and estimated weights (w2): the level-free
    # scores take the grid form once per replicate, never the per-level call
    calls = _kernel_spies(monkeypatch)
    cfg = _tiny_config(method="sdr", boost=boost, shift=ShiftModel(shift), n=200, m=30,
                       alpha_grid=(0.3, 0.1, 0.2), setting=DgpSetting(2), risk=canonical_risk(2))
    run_experiment(cfg)
    assert calls["grid"] == cfg.reps and calls["level"] == 0
    assert calls["rows"] == cfg.reps * len(cfg.alpha_grid) and calls["nonzero"] > 0


def test_run_experiment_ratio_scores_keep_one_kernel_call_per_level(monkeypatch):
    calls = _kernel_spies(monkeypatch)
    cfg = _tiny_config(method="sdr", score_mode="risk_reward_ratio", reward=RewardKind("squared"),
                       setting=DgpSetting(5), risk=canonical_risk(5), alpha_grid=(0.3, 0.1, 0.2))
    run_experiment(cfg)
    assert calls["grid"] == 0 and calls["rows"] == 0
    assert calls["level"] == cfg.reps * len(cfg.alpha_grid)
