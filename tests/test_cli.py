"""Tests for the command-line interface (exit codes, schemas, round trips)."""

import csv
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from score_kit import (Levels, deploy_mask, ebh, logistic_fit_weights, sdr_evalues,
                       validate_batch, weight_predict)
from score_kit.cli import main
from helpers import csv_reference_write


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def fixture_files(tmp_path):
    calib = _write(tmp_path / "calib.csv",
                   "score,risk\n0.1,0.0\n0.3,0.0\n0.9,0.5\n")
    test = _write(tmp_path / "test.csv", "score\n0.2\n0.4\n0.8\n")
    return calib, test


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_select_sdr_worked_fixture(fixture_files, tmp_path):
    calib, test = fixture_files
    out = str(tmp_path / "out.csv")
    code = main(["select", calib, test, "--method", "sdr", "--alpha", "0.5",
                 "--gamma", "0.5", "--seed", "1", "--out", out])
    assert code == 0
    rows = _read_rows(out)
    assert [r["selected"] for r in rows] == ["1", "1", "1"]
    for r in rows:
        assert float(r["evalue"]) == pytest.approx(2.6667, abs=5e-5)


def test_select_mdr_worked_fixture(tmp_path):
    calib = _write(tmp_path / "calib.csv",
                   "score,risk\n0.1,0.2\n0.2,0.4\n0.9,1.0\n")
    test = _write(tmp_path / "test.csv", "score\n0.3\n")
    out = str(tmp_path / "out.csv")
    code = main(["select", calib, test, "--method", "mdr", "--alpha", "0.5",
                 "--seed", "1", "--out", out])
    assert code == 0
    assert _read_rows(out)[0]["deploy"] == "1"


def test_select_missing_risk_column_exits_2(tmp_path, capsys):
    calib = _write(tmp_path / "calib.csv", "score\n0.1\n")
    test = _write(tmp_path / "test.csv", "score\n0.2\n")
    code = main(["select", calib, test, "--method", "mdr", "--alpha", "0.3"])
    assert code == 2
    assert "risk" in capsys.readouterr().err


def test_select_bad_alpha_exits_1(fixture_files):
    calib, test = fixture_files
    assert main(["select", calib, test, "--method", "mdr", "--alpha", "1.5"]) == 1


def test_select_unknown_flag_exits_1(fixture_files):
    calib, test = fixture_files
    assert main(["select", calib, test, "--method", "mdr", "--alpha", "0.3",
                 "--bogus"]) == 1


def test_select_weighted_requires_weight_column(fixture_files, capsys):
    calib, test = fixture_files
    code = main(["select", calib, test, "--method", "sdr", "--alpha", "0.5",
                 "--weighted", "--seed", "1"])
    assert code == 2
    assert "weight" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mdr", "sdr"])
def test_select_weights_whose_total_overflows_exit_2(tmp_path, capsys, method):
    calib = _write(tmp_path / "calib.csv",
                   "score,risk,weight\n0.1,0.2,1e308\n0.5,0.9,1e308\n0.2,0.1,1e308\n")
    test = _write(tmp_path / "test.csv", "score,weight\n0.3,1e308\n")
    assert main(["select", calib, test, "--method", method, "--alpha", "0.2", "--weighted"]) == 2
    assert "rescale" in capsys.readouterr().err


def test_evalue_beyond_the_largest_double_prints_inf(tmp_path, capsys):
    calib = _write(tmp_path / "calib.csv", "score,risk,weight\n0.1,0,1e-310\n0.1,0,1\n")
    test = _write(tmp_path / "test.csv", "score,weight\n0.3,1e-310\n")
    assert main(["evalues", calib, test, "--gamma", "0.1", "--weighted"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "index,score,evalue\r\n0,0.29999999999999999,inf\r\n"
    assert captured.err == ""


def test_evalue_at_a_huge_level_prints_no_warning(tmp_path, capsys):
    # The ratio bound overflows and steps down to the largest double, where
    # every finite ratio is feasible.
    calib = _write(tmp_path / "calib.csv", "score,risk,weight\n0.0,0.5,1e300\n")
    test = _write(tmp_path / "test.csv", "score,weight\n0.5,0.5\n")
    assert main(["evalues", calib, test, "--gamma", "1e300", "--weighted"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "index,score,evalue\r\n0,0.5,2\r\n"
    assert captured.err == ""


def test_select_without_random_draws_prints_no_seed(fixture_files, tmp_path, capsys):
    calib, test = fixture_files
    out = str(tmp_path / "out.csv")
    assert main(["select", calib, test, "--method", "mdr", "--alpha", "0.3", "--out", out]) == 0
    assert main(["select", calib, test, "--method", "sdr", "--alpha", "0.3", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert main(["select", calib, test, "--method", "sdr", "--alpha", "0.3", "--boost", "homo",
                 "--out", out]) == 0
    assert "seed" in capsys.readouterr().err


def test_select_round_trip_matches_library(tmp_path):
    rng = np.random.default_rng(80)
    n, m = 40, 12
    cs, ts = rng.normal(size=n), rng.normal(size=m)
    risks = rng.uniform(size=n)
    calib = _write(tmp_path / "calib.csv", "score,risk\n" +
                   "".join(f"{float(s)!r},{float(r)!r}\n" for s, r in zip(cs, risks)))
    test = _write(tmp_path / "test.csv", "score\n" + "".join(f"{float(t)!r}\n" for t in ts))
    out = str(tmp_path / "out.csv")

    assert main(["select", calib, test, "--method", "sdr", "--alpha", "0.3",
                 "--seed", "3", "--out", out]) == 0
    cli_sel = {int(r["index"]) for r in _read_rows(out) if r["selected"] == "1"}
    ev = sdr_evalues(list(zip(cs, risks)), list(ts), gamma=0.3).evalues
    assert cli_sel == ebh(ev, alpha=0.3).selected

    assert main(["select", calib, test, "--method", "mdr", "--alpha", "0.3",
                 "--seed", "3", "--out", out]) == 0
    cli_deploy = [r["deploy"] == "1" for r in _read_rows(out)]
    batch = validate_batch(list(zip(cs, risks)), list(ts))
    assert cli_deploy == list(deploy_mask(batch, Levels(0.3)))


def test_evalues_subcommand(fixture_files, tmp_path):
    calib, test = fixture_files
    out = str(tmp_path / "ev.csv")
    assert main(["evalues", calib, test, "--gamma", "0.5", "--out", out]) == 0
    vals = [float(r["evalue"]) for r in _read_rows(out)]
    assert vals == pytest.approx([8 / 3] * 3)

    assert main(["evalues", calib, test, "--conservative", "--alpha", "0.5",
                 "--out", out]) == 0
    vals = [float(r["evalue"]) for r in _read_rows(out)]
    assert vals == pytest.approx([2.0] * 3)


def _expected_output(command, calib, test, batch):
    """argv and the bytes the csv-module writer gave for one CLI command."""
    m, scores = batch.m, batch.test_scores
    if command == "mdr":
        mask = deploy_mask(batch, Levels(0.5))
        argv = ["select", calib, test, "--method", "mdr", "--alpha", "0.5"]
        table = ["index", "score", "deploy"], (range(m), scores, mask.astype(int).tolist())
    elif command == "sdr":
        ev = sdr_evalues(batch, None, gamma=0.5).evalues
        selected = np.zeros(m, dtype=int)
        selected[list(ebh(ev, 0.5).selected)] = 1
        argv = ["select", calib, test, "--method", "sdr", "--alpha", "0.5"]
        table = ["index", "score", "evalue", "selected"], (range(m), scores, ev, selected.tolist())
    elif command == "evalues":
        ev = sdr_evalues(batch, None, gamma=0.4).evalues
        argv = ["evalues", calib, test, "--gamma", "0.4"]
        table = ["index", "score", "evalue"], (range(m), scores, ev)
    else:
        x = np.column_stack([batch.calib_scores, batch.calib_risks])
        weights = weight_predict(logistic_fit_weights(x, x * x, clip=(0.05, 20.0)), x * x)
        argv = ["estimate-weights", calib, test]
        table = ["index", "weight"], (range(weights.size), weights)
    out = io.StringIO()
    csv_reference_write(out, *table)
    return argv, out.getvalue()


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stdout"])
@pytest.mark.parametrize("command", ["mdr", "sdr", "evalues", "estimate-weights"])
def test_cli_output_bytes_match_csv_module_reference(tmp_path, capsys, command, to_path):
    rng = np.random.default_rng(84)
    cs = np.concatenate([[-0.0, 5e-324, 1e-5, 1e16], rng.normal(size=56)])
    risks = np.where(rng.uniform(size=cs.size) < 0.3, 0.0, rng.uniform(size=cs.size))
    ts = np.concatenate([[-0.0, 5e-324, 1e-5, 1e16, -1e16], rng.normal(size=20)])
    calib = _write(tmp_path / "calib.csv", "score,risk\n" + "".join(
        f"{s!r},{r!r}\n" for s, r in zip(cs.tolist(), risks.tolist())))
    test = _write(tmp_path / "test.csv", "score\n" + "".join(f"{t!r}\n" for t in ts.tolist()))
    if command == "estimate-weights":
        # source: the calibration file; target: its cells squared
        test = _write(tmp_path / "target.csv", "score,risk\n" + "".join(
            f"{s * s!r},{r * r!r}\n" for s, r in zip(cs.tolist(), risks.tolist())))
    argv, expected = _expected_output(command, calib, test, validate_batch(list(zip(cs, risks)), list(ts)))
    if to_path:
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
    else:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_main_runs_repeatedly_in_one_process(fixture_files, capsys):
    # The parser is built once per process; every call must still read as a
    # fresh run of the command.
    calib, test = fixture_files
    runs = [["select", calib, test, "--method", "sdr", "--alpha", "0.5", "--boost", "hete", "--seed", "3"],
            ["select", calib, test, "--method", "mdr", "--alpha", "2"],
            ["evalues", calib, test, "--gamma", "0.4"],
            ["select", calib, test, "--method", "mdr", "--alpha", "0.5"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    for argv, code in zip(runs, (0, 1, 0, 0)):
        assert main(argv) == code
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "score_kit.cli", *argv], env=env,
                               capture_output=True, timeout=120)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, out.encode(), err.encode())


def test_evalues_requires_gamma(fixture_files):
    calib, test = fixture_files
    assert main(["evalues", calib, test]) == 1


def test_simulate_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["simulate", "--setting", "1", "--risk", "excess", "--method", "mdr",
            "--alphas", "0.1,0.3", "--n", "60", "--m", "10", "--reps", "3",
            "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_simulate_all_one_risk_selects_nothing(tmp_path):
    out = str(tmp_path / "m.csv")
    assert main(["simulate", "--setting", "1", "--risk", "binary-all-one",
                 "--method", "sdr", "--alphas", "0.2", "--n", "60", "--m", "15",
                 "--reps", "3", "--seed", "5", "--out", out]) == 0
    assert all(float(r["mean_nsel"]) == 0.0 for r in _read_rows(out))


def test_simulate_seed_printed_when_omitted(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert main(["simulate", "--setting", "1", "--method", "mdr",
                 "--alphas", "0.3", "--n", "50", "--m", "8", "--reps", "2",
                 "--out", out]) == 0
    assert "seed" in capsys.readouterr().err


def test_simulate_shift_with_estimated_weights_smoke(tmp_path):
    out = str(tmp_path / "m.csv")
    assert main(["simulate", "--setting", "2", "--shift", "w1", "--weighted",
                 "estimated", "--method", "mdr", "--alphas", "0.2", "--n", "80",
                 "--m", "15", "--reps", "2", "--seed", "6", "--out", out]) == 0
    rows = _read_rows(out)
    assert rows[0]["shift"] == "w1"
    assert 0.0 <= float(rows[0]["realized_risk"]) <= 1.0


def _feature_csv(path, rows):
    header = ",".join(f"x{i+1}" for i in range(len(rows[0])))
    lines = (",".join(repr(float(v)) for v in r) for r in rows)
    return _write(path, header + "\n" + "\n".join(lines))


def test_estimate_weights_identical_populations(tmp_path):
    rng = np.random.default_rng(81)
    data = rng.uniform(-1, 1, size=(400, 4))
    src = _feature_csv(tmp_path / "src.csv", data.tolist())
    tgt = _feature_csv(tmp_path / "tgt.csv", data.tolist())
    out = str(tmp_path / "w.csv")
    assert main(["estimate-weights", src, tgt, "--out", out]) == 0
    weights = [float(r["weight"]) for r in _read_rows(out)]
    assert all(0.7 <= w <= 1.4 for w in weights)


def test_estimate_weights_clip_respected(tmp_path):
    rng = np.random.default_rng(82)
    src = _feature_csv(tmp_path / "src.csv", rng.normal(0, 1, size=(200, 2)).tolist())
    tgt = _feature_csv(tmp_path / "tgt.csv", rng.normal(2, 1, size=(200, 2)).tolist())
    out = str(tmp_path / "w.csv")
    assert main(["estimate-weights", src, tgt, "--clip", "0.5,2", "--out", out]) == 0
    weights = [float(r["weight"]) for r in _read_rows(out)]
    assert all(0.5 <= w <= 2.0 for w in weights)


def test_estimate_weights_non_numeric_cell(tmp_path, capsys):
    src = _write(tmp_path / "src.csv", "x1,x2\n0.5,oops\n")
    tgt = _write(tmp_path / "tgt.csv", "x1,x2\n0.1,0.2\n")
    code = main(["estimate-weights", src, tgt])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "x2" in err


def test_select_bad_cell_in_test_file_names_that_file(tmp_path, capsys):
    calib = _write(tmp_path / "calib.csv", "score,risk\n0.1,0.0\n0.3,0.5\n")
    test = _write(tmp_path / "test.csv", "score\n0.2\nx\n")
    assert main(["select", calib, test, "--method", "mdr", "--alpha", "0.3"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {test}: line 3: non-numeric value 'x' in column 'score'" in err
    assert calib not in err


def test_select_repeated_schema_column_is_data_error(tmp_path, capsys):
    calib = _write(tmp_path / "calib.csv", "score,risk,score\n0.1,0.0,0.9\n0.3,0.5,0.2\n")
    test = _write(tmp_path / "test.csv", "score\n0.2\n")
    assert main(["select", calib, test, "--method", "sdr", "--alpha", "0.3"]) == 2
    assert f"data error: {calib}: line 1: column 3 has" in capsys.readouterr().err


def test_estimate_weights_repeated_name_in_source_names_source(tmp_path, capsys):
    src = _write(tmp_path / "src.csv", "x1,x1\n0.5,0.1\n0.2,0.3\n")
    tgt = _write(tmp_path / "tgt.csv", "x1,x2\n0.1,0.2\n0.4,0.6\n")
    assert main(["estimate-weights", src, tgt]) == 2
    err = capsys.readouterr().err
    assert f"data error: {src}: line 1:" in err and tgt not in err


def test_estimate_weights_header_mismatch(tmp_path):
    src = _write(tmp_path / "src.csv", "x1,x2\n0.5,0.1\n")
    tgt = _write(tmp_path / "tgt.csv", "a,b\n0.1,0.2\n")
    assert main(["estimate-weights", src, tgt]) == 2


def test_select_mdr_deploys_at_exact_boundary(tmp_path):
    # The same instance as the library's boundary test: mdr_decide deploys too.
    calib = _write(tmp_path / "calib.csv", "score,risk\n1.0,0.1\n1.0,1.0\n0.0,0.3\n")
    test = _write(tmp_path / "test.csv", "score\n1.0\n")
    out = str(tmp_path / "out.csv")
    assert main(["select", calib, test, "--method", "mdr", "--alpha", "0.6", "--out", out]) == 0
    assert [r["deploy"] for r in _read_rows(out)] == ["1"]


def test_estimate_weights_skips_blank_lines(tmp_path):
    src = _write(tmp_path / "src.csv", "x1,x2\n0.1,0.2\n\n0.3,0.4\n")
    tgt = _write(tmp_path / "tgt.csv", "x1,x2\n0.5,0.7\n0.1,0.9\n")
    out = str(tmp_path / "w.csv")
    assert main(["estimate-weights", src, tgt, "--query", src, "--out", out]) == 0
    assert len(_read_rows(out)) == 2


def test_utf8_bom_led_inputs_read_like_plain_ones(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    calib_text = b"score,risk\n0.1,0.0\n0.3,0.0\n0.9,0.5\n"
    features = b"x1,x2\n0.1,0.2\n0.3,0.4\n0.5,0.1\n"
    test = _write(tmp_path / "test.csv", "score\n0.2\n0.4\n0.8\n")
    outputs = {}
    for tag, lead in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        calib, src = tmp_path / f"calib_{tag}.csv", tmp_path / f"src_{tag}.csv"
        calib.write_bytes(lead + calib_text)
        src.write_bytes(lead + features)
        sel, w = str(tmp_path / f"sel_{tag}.csv"), str(tmp_path / f"w_{tag}.csv")
        assert main(["select", str(calib), test, "--method", "sdr", "--alpha", "0.5",
                     "--out", sel]) == 0
        assert main(["estimate-weights", str(src), str(src), "--out", w]) == 0
        outputs[tag] = Path(sel).read_bytes(), Path(w).read_bytes()
    assert outputs["bom"] == outputs["plain"]


def test_estimate_weights_header_only_is_data_error(tmp_path, capsys):
    src = _write(tmp_path / "src.csv", "x1,x2\n")
    tgt = _write(tmp_path / "tgt.csv", "x1,x2\n0.1,0.2\n")
    assert main(["estimate-weights", src, tgt]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["x1,x1", "x1,"])
def test_estimate_weights_repeated_or_empty_feature_name(tmp_path, capsys, header):
    src = _write(tmp_path / "src.csv", f"{header}\n0.5,0.1\n0.2,0.3\n")
    tgt = _write(tmp_path / "tgt.csv", f"{header}\n0.1,0.2\n0.4,0.6\n")
    assert main(["estimate-weights", src, tgt]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_estimate_weights_non_finite_feature_cell_is_data_error(tmp_path, capsys, cell):
    src = _write(tmp_path / "src.csv", f"x1,x2\n0.5,0.1\n0.2,{cell}\n")
    tgt = _write(tmp_path / "tgt.csv", "x1,x2\n0.1,0.2\n0.4,0.6\n")
    assert main(["estimate-weights", src, tgt]) == 2
    err = capsys.readouterr().err
    assert f"data error: {src}: line 3: non-finite value '{cell}' in column 'x2'" in err


def test_select_nan_score_names_file_and_line(tmp_path, capsys):
    calib = _write(tmp_path / "calib.csv", "score,risk\n0.1,0.0\nnan,0.5\n")
    test = _write(tmp_path / "test.csv", "score\n0.2\n")
    assert main(["select", calib, test, "--method", "sdr", "--alpha", "0.3"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {calib}: line 3: non-finite value 'nan' in column 'score'" in err


@pytest.mark.parametrize("argv", [
    ["select", "--method", "mdr", "--alpha", "0.3", "--conservative"],
    ["select", "--method", "mdr", "--alpha", "0.3", "--boost", "hete"],
    ["select", "--method", "mdr", "--alpha", "0.3", "--boost", "homo"],
    ["select", "--method", "sdr", "--alpha", "0.3", "--conservative", "--gamma", "0.3"],
    ["evalues", "--conservative", "--alpha", "0.3", "--gamma", "0.3"],
    ["evalues", "--conservative", "--alpha", "0.3", "--weighted"],
    ["evalues", "--gamma", "0.2", "--alpha", "0.9"],
], ids=["mdr-conservative", "mdr-boost-hete", "mdr-boost-homo", "select-conservative-gamma",
        "evalues-conservative-gamma", "evalues-conservative-weighted", "evalues-alpha-without-conservative"])
def test_flags_the_command_would_ignore_are_usage_errors(fixture_files, capsys, argv):
    calib, test = fixture_files
    assert main([argv[0], calib, test, *argv[1:]]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["select", "{calib}", "{test}", "--method", "sdr", "--alpha", "0.3", "--boost", "homo", "--seed", "-1"],
    ["evalues", "{calib}", "{test}", "--conservative", "--alpha", "1.5"],
    ["simulate", "--setting", "1", "--method", "mdr", "--seed", "-1"],
    ["simulate", "--setting", "1", "--method", "mdr", "--n", "0"],
    ["simulate", "--setting", "1", "--method", "mdr", "--reps", "0"],
    ["simulate", "--setting", "1", "--method", "mdr", "--alphas", "0.2,1.5"],
    ["estimate-weights", "{calib}", "{calib}", "--clip", "5,1"],
    ["estimate-weights", "{calib}", "{calib}", "--iters", "-3"],
    ["estimate-weights", "{calib}", "{calib}", "--lr", "-1"],
    ["select", "{calib}", "{test}", "--method", "mdr", "--alpha", "0.3", "--gamma", "inf"],
    ["evalues", "{calib}", "{test}", "--weighted", "--gamma", "inf"],
], ids=["select-seed", "evalues-conservative-alpha", "simulate-seed", "simulate-n", "simulate-reps",
        "simulate-alphas", "estimate-weights-clip", "estimate-weights-iters", "estimate-weights-lr",
        "select-gamma-inf", "evalues-weighted-gamma-inf"])
def test_out_of_range_option_values_are_usage_errors(fixture_files, capsys, argv):
    calib, test = fixture_files
    assert main([a.format(calib=calib, test=test) for a in argv]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bad_cell_in_a_pipe_is_a_data_error(fixture_files, tmp_path):
    # Run in a subprocess with a timeout: a reader that opens the pipe a
    # second time would wait forever.
    _, test = fixture_files
    pipe = tmp_path / "calib.csv.fifo"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=("score,risk\n0.1,0.2\n\n0.3,x\n",),
                              daemon=True)
    writer.start()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "score_kit.cli", "select", str(pipe), test,
                           "--method", "mdr", "--alpha", "0.3"],
                          env=env, capture_output=True, text=True, timeout=60)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert proc.returncode == 2, proc.stderr
    assert f"data error: {pipe}: line 4: non-numeric value 'x' in column 'risk'" in proc.stderr


def test_perfbench_spans_resolve():
    # perfbench/spans.py wraps these module globals by name under --trace 1.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    for name, modules in spans.SPANS.items():
        attr = name.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("argv, header", [
    (["evalues", "--gamma", "0.2", "--weighted"], "index,score,evalue"),
    (["evalues", "--gamma", "0.2"], "index,score,evalue"),
    (["evalues", "--conservative", "--alpha", "0.2"], "index,score,evalue"),
    (["select", "--method", "mdr", "--alpha", "0.2", "--weighted"], "index,score,deploy"),
    (["select", "--method", "sdr", "--alpha", "0.2"], "index,score,evalue,selected"),
    (["select", "--method", "sdr", "--alpha", "0.2", "--weighted"], "index,score,evalue,selected"),
    (["select", "--method", "sdr", "--alpha", "0.2", "--boost", "hete"], "index,score,evalue,selected"),
    (["select", "--method", "sdr", "--alpha", "0.2", "--weighted", "--boost", "homo"],
     "index,score,evalue,selected"),
    (["select", "--method", "sdr", "--alpha", "0.2", "--conservative"], "index,score,evalue,selected"),
], ids=["evalues-weighted", "evalues", "evalues-conservative", "mdr-weighted", "sdr", "sdr-weighted",
        "sdr-hete", "sdr-weighted-homo", "sdr-conservative"])
def test_header_only_test_file_gives_a_header_only_csv(tmp_path, capsys, argv, header):
    # no test points: exit 0, the header alone, nothing on stderr (no
    # warning, and no seed, since no draw is made)
    calib = _write(tmp_path / "calib.csv", "score,risk,weight\n0.1,0.2,2.0\n0.5,0.5,1.0\n")
    test = _write(tmp_path / "test.csv", "score,weight\n")
    assert main([argv[0], calib, test, *argv[1:]]) == 0
    captured = capsys.readouterr()
    assert captured.out == header + "\r\n"
    assert captured.err == ""
