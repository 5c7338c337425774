"""Tests for domain types, validation, and CSV schemas."""

import io
import os
import sys
import threading

import numpy as np
import pytest

from score_kit import (CalibSample, EmptyCalibration, Levels, NonFiniteScore,
                       NonPositiveWeight, OutOfRange, RiskOutOfRange, RiskRescaler,
                       SchemaError, TestPoint, ValidatedBatch, read_calibration_csv, read_test_csv,
                       rescale_risk, unrescale, validate_batch)
from score_kit.core import _write_csv
from helpers import csv_reference_columns, csv_reference_write


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
    assert len(samples) == 2 and samples.dtype.names == ("score", "risk")
    assert samples["score"].tolist() == [0.1, 0.4]
    assert samples["risk"].tolist() == [0.2, 0.9]

    p2 = tmp_path / "calib_w.csv"
    p2.write_text("score,risk,weight\n0.1,0.2,2.5\n")
    assert read_calibration_csv(p2)["weight"][0] == 2.5


def test_read_test_csv(tmp_path):
    p = tmp_path / "test.csv"
    p.write_text("score\n0.3\n0.7\n")
    points = read_test_csv(p)
    assert points.dtype.names == ("score",)
    assert points["score"].tolist() == [0.3, 0.7]


def test_read_csv_arrays_validate_column_wise(tmp_path):
    calib = tmp_path / "calib.csv"
    calib.write_text("risk,extra,score,weight\n0.2,x,0.1,2.0\n\n0.9,y,0.4,1.5\n")
    test = tmp_path / "test.csv"
    test.write_text("score\n0.3\n")
    batch = validate_batch(read_calibration_csv(calib), read_test_csv(test))
    assert batch.calib_scores.tolist() == [0.1, 0.4]
    assert batch.calib_risks.tolist() == [0.2, 0.9]
    assert batch.calib_weights.tolist() == [2.0, 1.5]
    assert batch.test_weights.tolist() == [1.0]


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


def test_csv_error_names_file_and_line(tmp_path):
    p = tmp_path / "test.csv"
    p.write_text("score\n0.1\nx\n")
    with pytest.raises(SchemaError) as err:
        read_test_csv(p)
    assert err.value.path == p
    assert str(err.value) == f"{p}: line 3: non-numeric value 'x' in column 'score'"


# Python's float() also reads "1_0" and non-ASCII digits; numpy's parser and
# the error rescan both reject them.
@pytest.mark.parametrize("cell", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
def test_csv_spellings_only_python_float_reads_are_non_numeric(tmp_path, cell):
    p = tmp_path / "calib.csv"
    p.write_text(f"score,risk\n0.1,0.2\n0.3,{cell}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_calibration_csv(p)
    assert str(err.value) == f"{p}: line 3: non-numeric value {cell!r} in column 'risk'"


@pytest.mark.parametrize("reader,header", [
    (read_calibration_csv, "score,risk,score"),
    (read_calibration_csv, "risk,score,risk"),
    (read_calibration_csv, "score,risk,weight,weight"),
    (read_test_csv, "score,score"),
    (read_test_csv, "weight,score,weight"),
])
def test_csv_repeated_schema_column_rejected(tmp_path, reader, header):
    p = tmp_path / "dup.csv"
    p.write_text(f"{header}\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
    with pytest.raises(SchemaError, match="repeated name") as err:
        reader(p)
    assert err.value.line == 1 and err.value.path == p


def test_csv_repeated_extra_column_ignored(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("note,score,risk,note,\nx,0.1,0.2,y,z\n")
    rows = read_calibration_csv(p)
    assert rows.dtype.names == ("score", "risk")
    assert rows.tolist() == [(0.1, 0.2)]


def test_csv_error_line_counts_blank_lines(tmp_path):
    # blank lines are skipped as rows but still count as physical lines
    p = tmp_path / "bad.csv"
    p.write_text("score,risk\n0.1,0.2\n\n\n0.4,oops\n")
    with pytest.raises(SchemaError) as err:
        read_calibration_csv(p)
    assert err.value.line == 5


def test_csv_short_row_reports_missing_value(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("score,risk\n0.1,0.2\n0.4\n")
    with pytest.raises(SchemaError, match="missing value for column 'risk'") as err:
        read_calibration_csv(p)
    assert err.value.line == 3


def test_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(SchemaError):
        read_test_csv(p)


_SPELLINGS = (repr, "%.17g".__mod__, "%.3f".__mod__, "%.6e".__mod__, "%+.25g".__mod__,
              lambda v: f" \t{v!r}  ", lambda v: f'"{v!r}"', lambda v: "000" + "%.5f" % abs(v))


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csv_reader_matches_float_reference(tmp_path, seed, eol):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((400, 3)) * 10.0 ** rng.integers(-12, 13, (400, 3))
    # Each row starts with a '#' note cell, which must not read as a comment.
    lines = ["note,score,risk,weight"]
    for i, row in enumerate(values.tolist()):
        if rng.uniform() < 0.05:
            lines.append("")
        cells = [_SPELLINGS[k](v) for k, v in zip(rng.integers(0, len(_SPELLINGS), 3), row)]
        lines.append(",".join([f"#{i}", *cells, *["extra"] * int(rng.integers(0, 3))]))
    p = tmp_path / "calib.csv"
    p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    rows = read_calibration_csv(p)
    expected = csv_reference_columns(p, ("score", "risk", "weight"))
    assert len(rows) == 400
    assert rows.dtype == expected.dtype and rows.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
def test_csv_header_only_reads_empty_without_warning(tmp_path):
    p = tmp_path / "calib.csv"
    p.write_text("score,risk,weight\n\n\r\n")
    rows = read_calibration_csv(p)
    assert rows.shape == (0,) and rows.dtype.names == ("score", "risk", "weight")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_csv_read_from_a_pipe(tmp_path):
    # The file is opened once, so a pipe is read whole and in order.
    rng = np.random.default_rng(5)
    text = "score,risk\n" + "".join(f"{a!r},{b!r}\n" for a, b in rng.uniform(size=(4000, 2)).tolist())
    regular = tmp_path / "calib.csv"
    regular.write_text(text)
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    rows = read_calibration_csv(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert rows.tobytes() == read_calibration_csv(regular).tobytes()


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stdout"])
def test_csv_writer_matches_csv_module_reference(tmp_path, capsys, to_path):
    rng = np.random.default_rng(9)
    floats = np.concatenate([[np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3],
                             rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
    flags = (rng.uniform(size=floats.size) < 0.5).astype(int).tolist()
    header = ["index", "value", "flag"]
    expected = io.StringIO()
    csv_reference_write(expected, header, (range(floats.size), floats, flags))
    rows = zip(range(floats.size), floats.tolist(), flags)
    if to_path:
        _write_csv(tmp_path / "out.csv", header, "%d,%.17g,%d", rows)
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode("utf-8")
    else:
        _write_csv(sys.stdout, header, "%d,%.17g,%d", rows)
        assert capsys.readouterr().out == expected.getvalue()
