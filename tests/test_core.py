"""Tests for domain types, validation, and CSV schemas."""

import io
import os
import re
import sys
import threading

import numpy as np
import pytest

import score_kit
from score_kit import (CalibSample, EmptyCalibration, InvalidAlpha, Levels, NonFiniteScore,
                       NonPositiveWeight, OutOfRange, RiskOutOfRange, RiskRescaler, SchemaError,
                       ScoreKitError, TestPoint, ValidatedBatch, bh, boost_hete, boost_homo, core, ebh,
                       read_calibration_csv, read_test_csv, rescale_risk, sdr_evalues_conservative,
                       unrescale, validate_batch, weighted_mdr_decide, weighted_sdr_evalues)
from score_kit.core import _CSV_BLOCK, _write_csv
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


def _seeded_sides(unit):
    """Seeded (scores, risks, weights) and (scores, weights); non-unit
    weights are 1 at every odd index, where a short form may leave them out."""
    rng = np.random.default_rng(2026)
    cs, cr, ts = rng.normal(size=37), rng.uniform(size=37), rng.normal(size=11)
    cw, tw = (np.where((np.arange(k) % 2 == 1) | unit, 1.0, rng.uniform(0.1, 5.0, k)) for k in (37, 11))
    return (cs, cr, cw), (ts, tw)


def _records(calib, tests, tmp_path):
    return ([CalibSample(*row) for row in zip(*(a.tolist() for a in calib))],
            [TestPoint(*row) for row in zip(*(a.tolist() for a in tests))])


def _mixed_tuples(calib, tests, tmp_path):
    """3-field calibration tuples where the weight is not 1, 2-field lists
    elsewhere; test points as (score, weight), (score,) or a bare float."""
    short = (lambda s, w: (s, w), lambda s, w: (s,), lambda s, w: s)
    return ([(s, r, w) if w != 1.0 else [s, r] for s, r, w in zip(*(a.tolist() for a in calib))],
            [(s, w) if w != 1.0 else short[i % 3](s, w)
             for i, (s, w) in enumerate(zip(*(a.tolist() for a in tests)))])


def _numpy_arrays(calib, tests, tmp_path):
    """(n, 2) / (n, 3) arrays, and a 1-d array of test scores for unit weights."""
    unit = (calib[2] == 1.0).all() and (tests[1] == 1.0).all()
    return ((np.column_stack(calib[:2]), tests[0]) if unit
            else (np.column_stack(calib), np.column_stack(tests)))


def _numpy_scalars(calib, tests, tmp_path):
    """Rows of a 2-d array, and test points as NumPy scalars and 0-d arrays
    where the weight is 1, 1-d arrays elsewhere."""
    ts, tw = tests
    return (list(np.column_stack(calib)),
            [np.array([s, w]) if w != 1.0 else np.array(s) if i % 2 else s
             for i, (s, w) in enumerate(zip(ts, tw))])


def _csv_files(calib, tests, tmp_path):
    """The structured arrays of the CSV readers, with a weight column only
    for non-unit weights."""
    unit = (calib[2] == 1.0).all() and (tests[1] == 1.0).all()
    headers = (["score", "risk"], ["score"]) if unit else (["score", "risk", "weight"], ["score", "weight"])
    paths = tmp_path / "calib.csv", tmp_path / "test.csv"
    for path, header, columns in zip(paths, headers, (calib, tests)):
        _write_csv(path, header, columns[:len(header)])
    return read_calibration_csv(paths[0]), read_test_csv(paths[1])


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("form", [_records, _mixed_tuples, _numpy_arrays, _numpy_scalars, _csv_files])
def test_every_input_form_gives_the_same_batch(tmp_path, form, unit):
    calib, tests = _seeded_sides(unit)
    batch = validate_batch(*form(calib, tests, tmp_path))
    arrays = (batch.calib_scores, batch.calib_risks, batch.calib_weights,
              batch.test_scores, batch.test_weights)
    for got, expected in zip(arrays, (*calib, *tests)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("calib, tests, message", [
    ([(0.1, 0.2), (0.5,)], [], "calibration item at index 1 has 1 field(s), expected (score, risk[, weight])"),
    ([0.5], [], "calibration item at index 0 has 1 field(s), expected (score, risk[, weight])"),
    ([(0.1, 0.2)], [0.3, ()], "test item at index 1 has 0 field(s), expected (score[, weight])"),
], ids=["short-calibration-tuple", "bare-calibration-score", "empty-test-tuple"])
def test_short_item_is_a_schema_error_naming_its_index(calib, tests, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        validate_batch(calib, tests)


def test_extra_trailing_fields_are_ignored():
    batch = validate_batch([(0.1, 0.2, 2.0, "id-7")], [(0.3, 0.5, "id-8")])
    assert batch.calib_weights.tolist() == [2.0] and batch.test_weights.tolist() == [0.5]


OVERFLOW_CALIB = [(0.1, 0.2, 1e308), (0.5, 0.9, 1e308), (0.2, 0.1, 1e308)]


def test_weights_whose_total_overflows_are_rejected():
    for call in (lambda: validate_batch(OVERFLOW_CALIB, [(0.3, 1e308)]),
                 lambda: weighted_mdr_decide(OVERFLOW_CALIB, (0.3, 1e308), Levels(0.2)),
                 lambda: weighted_sdr_evalues(OVERFLOW_CALIB, [(0.3, 1e308)], 0.2)):
        with pytest.raises(OutOfRange, match="too large.*rescale"):
            call()
    # Divided by 4 the total times n + m + 1 = 5 is 5e308, still too large;
    # divided by 16 it passes and gives the decision of unit weights.
    scaled = [(s, r, w / 16) for s, r, w in OVERFLOW_CALIB]
    decision = weighted_mdr_decide(scaled, (0.3, 1e308 / 16), Levels(0.2))
    assert not decision.deploy and decision.empirical_stat == pytest.approx(0.325)


def test_weights_too_small_to_divide_by_are_rejected():
    with pytest.raises(OutOfRange, match="too small.*rescale"):
        validate_batch([(0.1, 0.0, 1e-310), (0.1, 0.0, 1e-310)], [(0.3, 1e-310)])
    # A subnormal test weight beside a normal total passes.
    validate_batch([(0.1, 0.0, 1e-310), (0.1, 0.0, 1.0)], [(0.3, 1e-310)])


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
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        Levels(0.3, float("inf"))


@pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, 1.0, 5.0, float("inf")])
def test_every_level_check_raises_the_one_alpha_error(alpha):
    # One check, one error: a ScoreKitError that is also a ValueError
    calib, tests = [(0.1, 0.2), (0.4, 0.1)], [0.2, 0.3]
    calls = (lambda: Levels(alpha), lambda: sdr_evalues_conservative(calib, tests, alpha),
             lambda: ebh([1.0], alpha), lambda: boost_hete([1.0], alpha, [0.5]),
             lambda: boost_homo([1.0], alpha, 0.5), lambda: bh([0.5], alpha))
    for call in calls:
        with pytest.raises(InvalidAlpha, match=r"alpha must lie in \(0, 1\)") as info:
            call()
        assert isinstance(info.value, ScoreKitError) and isinstance(info.value, ValueError)
    assert score_kit.InvalidAlpha is core.InvalidAlpha


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cell, problem", [("x", "non-numeric"), ("nan", "non-finite")])
def test_csv_bad_cell_in_a_pipe_names_the_physical_line(tmp_path, cell, problem):
    # The bad cell is looked for in the lines already read: a second open of
    # the pipe would wait for a writer forever, so a timer releases one.
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(f"score,risk\n0.1,0.2\n\n0.3,{cell}\n",),
                              daemon=True)
    release = threading.Timer(10, lambda: os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK)))
    writer.start()
    release.start()
    try:
        with pytest.raises(SchemaError) as err:
            read_calibration_csv(pipe)
    finally:
        release.cancel()
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert err.value.line == 4 and err.value.path == pipe
    assert str(err.value) == f"{pipe}: line 4: {problem} value '{cell}' in column 'risk'"


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stdout"])
def test_csv_writer_matches_csv_module_reference(tmp_path, capsys, to_path):
    rng = np.random.default_rng(9)
    floats = np.concatenate([[np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3],
                             rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
    flags = (rng.uniform(size=floats.size) < 0.5).astype(int).tolist()
    header = ["index", "value", "flag"]
    expected = io.StringIO()
    csv_reference_write(expected, header, (range(floats.size), floats, flags))
    columns = (np.arange(floats.size), floats, flags)
    if to_path:
        _write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode("utf-8")
    else:
        _write_csv(sys.stdout, header, columns)
        assert capsys.readouterr().out == expected.getvalue()


def _written(columns):
    buf = io.StringIO()
    _write_csv(buf, ["v"] * len(columns), columns)
    return buf.getvalue()


def _percent_rows(fmt, columns):
    return "".join(f"{fmt}\r\n" % row for row in zip(*(col.tolist() for col in columns)))


def test_csv_writer_edge_values_match_percent_formatting():
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # k / 2**j with k odd and k * 5**j of 18 digits: the 18th significant
    # digit is a 5 with nothing after it, a tie that %.17g rounds to even.
    rng = np.random.default_rng(17)
    ties = []
    for j in range(2, 22):
        for k in rng.integers(-(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53), 40).tolist():
            k |= 1
            assert len(str(k * 5 ** j)) == 18
            ties.append(k / 2 ** j)
    # The double nearest 1e-305 lies below it and still prints as 1e-305:
    # its 17 digits round up to the next power of ten.
    special = [1e-305, 1e-243, 5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0, np.inf, -np.inf, np.nan,
               1e-4, 9.9999999999999991e-05, 1e17, 99999999999999984.0, 0.5, 0.25, 1.0, 20.0]
    floats = np.concatenate([near, -near, ties, np.negative(ties), special])
    assert _written([floats]) == "v\r\n" + _percent_rows("%.17g", [floats])
    ints = np.array([0, 1, -1, 9, -10, 10 ** 9, -(10 ** 9) - 1, 10 ** 18, -(10 ** 18),
                     np.iinfo(np.int64).max, np.iinfo(np.int64).min], dtype=np.int64)
    assert _written([ints]) == "v\r\n" + _percent_rows("%d", [ints])


@pytest.mark.parametrize("rows", [0, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_csv_writer_block_edges(rows):
    rng = np.random.default_rng(rows)
    columns = (np.arange(rows), rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows),
               rng.uniform(size=rows) < 0.5, rng.integers(-50, 50, rows))
    assert _written(columns) == "v,v,v,v\r\n" + _percent_rows("%d,%.17g,%d,%d", columns)
