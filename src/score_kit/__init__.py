"""score_kit: finite-sample deployment-risk control for black-box predictors.

Given labeled calibration data reduced to (score, realized risk) pairs and
unlabeled test points reduced to scores, this package decides which test
points to deploy so that either the marginal deployment risk (expected risk
per candidate) or the selective deployment risk (expected average risk per
deployed point) stays below a user target, in finite samples, for any score
function.  Risk-adjusted e-values carry the evidence; an eBH step-up filter
turns them into selections; optional uniform "boosting" enlarges selections
without losing control; weighted variants handle covariate shift.
"""

from .baselines import (BaselineConfig, InvalidConfig, concentration_mdr_threshold,
                        concentration_sdr_threshold, rademacher_signs)
from .core import (CalibSample, EmptyCalibration, Levels, NonFiniteScore, NonPositiveWeight,
                   OutOfRange, RiskOutOfRange, RiskRescaler, SchemaError, ScoreKitError,
                   TestPoint, ValidatedBatch, read_calibration_csv, read_test_csv,
                   rescale_risk, unrescale, validate_batch)
from .mdr import (MdrDecision, deploy_mask, mdr_decide, mdr_evalue, mdr_evalue_oracle,
                  weighted_mdr_decide, weighted_mdr_evalue, weighted_mdr_evalue_oracle)
from .models import (DivergedFit, KnnRegressor, KTooLarge, LogisticWeightModel, knn_fit,
                     knn_predict, logistic_fit_weights, ratio_scores, weight_predict)
from .sdr import (SdrEvalueSet, sdr_evalues, sdr_evalues_at, sdr_evalues_conservative,
                  sdr_evalues_oracle, weighted_sdr_evalues, weighted_sdr_evalues_oracle)
from .selection import (BoostDraws, EmptyInput, InvalidAlpha, InvalidDraws, SelectionResult,
                        bh, boost_hete, boost_homo, conformal_pvalues, ebh)
from .simulate import (DgpSetting, DimensionMismatch, ExperimentConfig, LengthMismatch,
                       MetricsRow, RewardKind, RiskKind, SamplingStalled, ShiftModel,
                       UnknownSetting, canonical_risk, compute_metrics, generate_dataset,
                       rejection_sample_shifted, reward_of, risk_of, run_experiment,
                       shift_weight, write_metrics_csv)

__version__ = "0.1.0"

__all__ = [
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
    "BoostDraws", "EmptyInput", "InvalidAlpha", "InvalidDraws", "SelectionResult",
    "bh", "boost_hete", "boost_homo", "conformal_pvalues", "ebh",
    "DgpSetting", "DimensionMismatch", "ExperimentConfig", "LengthMismatch",
    "MetricsRow", "RewardKind", "RiskKind", "SamplingStalled", "ShiftModel",
    "UnknownSetting", "canonical_risk", "compute_metrics", "generate_dataset",
    "rejection_sample_shifted", "reward_of", "risk_of", "run_experiment",
    "shift_weight", "write_metrics_csv",
]
