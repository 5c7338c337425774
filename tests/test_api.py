"""Tests for the package's public surface."""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import score_kit
from score_kit import baselines, core, mdr, models, sdr, selection, simulate

MODULES = (baselines, core, mdr, models, sdr, selection, simulate)

PUBLIC = {
    "BaselineConfig", "InvalidConfig", "concentration_mdr_threshold",
    "concentration_sdr_threshold", "rademacher_signs",
    "CalibSample", "EmptyCalibration", "Levels", "NonFiniteScore", "NonPositiveWeight",
    "OutOfRange", "RiskOutOfRange", "RiskRescaler", "SchemaError", "ScoreKitError",
    "TestPoint", "ValidatedBatch", "read_calibration_csv", "read_test_csv",
    "rescale_risk", "unrescale", "validate_batch",
    "MdrDecision", "deploy_mask", "mdr_decide", "mdr_evalue", "mdr_evalue_oracle",
    "weighted_mdr_decide", "weighted_mdr_evalue", "weighted_mdr_evalue_oracle",
    "DivergedFit", "KnnRegressor", "KTooLarge", "LogisticWeightModel",
    "knn_fit", "knn_predict", "logistic_fit_weights", "ratio_scores", "weight_predict",
    "SdrEvalueSet", "sdr_evalues", "sdr_evalues_at", "sdr_evalues_conservative",
    "sdr_evalues_oracle", "weighted_sdr_evalues", "weighted_sdr_evalues_oracle",
    "EmptyInput", "InvalidAlpha", "InvalidDraws", "SelectionResult",
    "bh", "boost_hete", "boost_homo", "conformal_pvalues", "ebh",
    "DgpSetting", "DimensionMismatch", "ExperimentConfig", "LengthMismatch",
    "MetricsRow", "RewardKind", "RiskKind", "SamplingStalled", "ShiftModel",
    "UnknownSetting", "canonical_risk", "compute_metrics", "generate_dataset",
    "rejection_sample_shifted", "reward_of", "risk_of", "run_experiment",
    "shift_weight", "write_metrics_csv",
}


def test_package_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert score_kit.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(score_kit, name) is getattr(module, name)
    assert set(names) == PUBLIC


def test_dgp_setting_has_the_one_field_id():
    setting = simulate.DgpSetting(4)
    assert [f.name for f in fields(setting)] == ["id"]
    assert (setting.dim, setting.sigma) == (20, 0.1)


def test_benchmark_span_names_resolve():
    # perfbench/spans.py wraps each named function where its callers look it
    # up; a renamed one would otherwise fail only inside a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, callers in spans.SPANS.items():
        home, attr = name.split(".", 1)
        defined = getattr(importlib.import_module(f"score_kit.{home}"), attr)
        for module in callers:
            assert getattr(module, attr, None) is defined, (name, module.__name__)
