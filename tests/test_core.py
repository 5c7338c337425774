"""Tests for domain types, validation, and CSV schemas."""

import numpy as np
import pytest

from score_kit import (CalibSample, EmptyCalibration, Levels, NonFiniteScore,
                       NonPositiveWeight, OutOfRange, RiskOutOfRange, RiskRescaler,
                       SchemaError, TestPoint, ValidatedBatch, read_calibration_csv, read_test_csv,
                       rescale_risk, unrescale, validate_batch)


def test_validate_batch_well_formed():
    batch = validate_batch([(0.1, 0.2)], [0.3])
    assert batch.n == 1 and batch.m == 1
    assert batch.calib_weights[0] == 1.0 and batch.test_weights[0] == 1.0


def test_validate_batch_accepts_dataclasses():
    batch = validate_batch([CalibSample(0.1, 0.2, 2.0)], [TestPoint(0.3, 0.5)])
    assert batch.calib_weights[0] == 2.0
    assert batch.test_weights[0] == 0.5


def test_validate_batch_idempotent():
    batch = validate_batch([(0.1, 0.2), (0.4, 0.9)], [0.3, 0.5])
    assert validate_batch(batch) is batch


def test_validate_batch_risk_out_of_range():
    with pytest.raises(RiskOutOfRange) as err:
        validate_batch([(0.1, 1.3)], [])
    assert err.value.index == 0


def test_validate_batch_nonpositive_weight():
    with pytest.raises(NonPositiveWeight) as err:
        validate_batch([(0.1, 0.2, -1.0)], [])
    assert err.value.index == 0
    with pytest.raises(NonPositiveWeight):
        validate_batch([(0.1, 0.2)], [(0.3, 0.0)])


def test_validate_batch_empty_calibration():
    with pytest.raises(EmptyCalibration):
        validate_batch([], [0.3])


def test_validate_batch_nonfinite_score():
    with pytest.raises(NonFiniteScore):
        validate_batch([(np.inf, 0.2)], [])
    with pytest.raises(NonFiniteScore):
        validate_batch([(0.1, 0.2)], [np.nan])


def test_batch_arrays_are_read_only():
    batch = validate_batch([(0.1, 0.2)], [0.3])
    with pytest.raises(ValueError):
        batch.calib_risks[0] = 0.5


def test_batch_leaves_caller_arrays_writeable():
    arrays = [np.array([0.1, 0.4]), np.array([0.2, 0.3]), np.ones(2),
              np.array([0.3]), np.ones(1)]
    batch = ValidatedBatch(*arrays)
    assert all(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        batch.calib_scores[0] = 0.5


def test_rescale_identity_and_endpoints():
    r = RiskRescaler(0.0, 1.0)
    assert rescale_risk(0.5, r) == 0.5
    r2 = RiskRescaler(-3.0, 7.0)
    assert rescale_risk(-3.0, r2) == 0.0
    assert rescale_risk(7.0, r2) == 1.0


def test_rescale_round_trip():
    r = RiskRescaler(2.0, 3.0)
    assert abs(unrescale(rescale_risk(2.7, r), r) - 2.7) < 1e-12


def test_rescale_round_trip_random_grid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lo = rng.normal() * 10
        hi = lo + rng.uniform(0.5, 20.0)
        x = rng.uniform(lo, hi)
        r = RiskRescaler(lo, hi)
        assert abs(unrescale(rescale_risk(x, r), r) - x) < 1e-10


def test_rescale_out_of_range():
    with pytest.raises(OutOfRange):
        rescale_risk(1.5, RiskRescaler(0.0, 1.0))
    with pytest.raises(ValueError):
        RiskRescaler(1.0, 1.0)


def test_levels():
    lv = Levels(0.3)
    assert lv.gamma == 0.3
    assert Levels(0.3, 0.1).gamma == 0.1
    with pytest.raises(ValueError):
        Levels(1.5)
    with pytest.raises(ValueError):
        Levels(0.3, -0.1)


def test_read_calibration_csv(tmp_path):
    p = tmp_path / "calib.csv"
    p.write_text("score,risk\n0.1,0.2\n0.4,0.9\n")
    samples = read_calibration_csv(p)
    assert samples == [CalibSample(0.1, 0.2), CalibSample(0.4, 0.9)]

    p2 = tmp_path / "calib_w.csv"
    p2.write_text("score,risk,weight\n0.1,0.2,2.5\n")
    assert read_calibration_csv(p2)[0].weight == 2.5


def test_read_test_csv(tmp_path):
    p = tmp_path / "test.csv"
    p.write_text("score\n0.3\n0.7\n")
    points = read_test_csv(p)
    assert [t.score for t in points] == [0.3, 0.7]


def test_csv_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("score\n0.1\n")
    with pytest.raises(SchemaError) as err:
        read_calibration_csv(p)
    assert "risk" in str(err.value)


def test_csv_non_numeric_cell_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("score,risk\n0.1,0.2\n0.4,oops\n")
    with pytest.raises(SchemaError) as err:
        read_calibration_csv(p)
    assert err.value.line == 3


def test_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(SchemaError):
        read_test_csv(p)
