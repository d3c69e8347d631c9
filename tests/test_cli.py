"""End-to-end checks of the command-line front end.

Everything runs in-process through run() so exit codes and outputs are
cheap to assert; one test exercises the console script declared in
pyproject.toml, through the same wrapper an installer writes for it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rangevar
from rangevar import calibrate, fit, ingest, preprocess
from rangevar.cli import _build_parser, _write_atomic, run

SIM_CONFIG = """\
# three-level synthetic wall
seed = 11
k_system = 1e7
truth_a = 29853
truth_b = -1.02
truth_c = 0.08
board = 0.9 10 0 2 150
board = 0.9 20 0 2 150
board = 0.9 40 0 2 150
"""

SCALED_CONFIG = SIM_CONFIG + """\
scaling = inverse_square
r_ref = 10
"""


@pytest.fixture
def sim_cfg(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(SIM_CONFIG)
    return path


@pytest.fixture
def scaled_cfg(tmp_path):
    path = tmp_path / "sim_scaled.cfg"
    path.write_text(SCALED_CONFIG)
    return path


def test_simulate_writes_scan_and_truth(sim_cfg, tmp_path, capsys):
    out = tmp_path / "sim"
    assert run(["simulate", "--config", str(sim_cfg), "--out", str(out)]) == 0
    assert (out / "scan.csv").exists()
    assert (out / "ground_truth.csv").exists()
    ds = ingest.parse_profile_csv(out / "scan.csv")
    assert len(ds) == 3 * 2 * 150
    assert "simulated 900 observations over 6 ticks" in capsys.readouterr().out


def test_simulate_seed_flag_overrides_config(sim_cfg, tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    run(["simulate", "--config", str(sim_cfg), "--out", str(out_a)])
    run(["simulate", "--config", str(sim_cfg), "--out", str(out_b), "--seed", "99"])
    run(["simulate", "--config", str(sim_cfg), "--out", str(out_c), "--seed", "11"])
    base = (out_a / "scan.csv").read_bytes()
    assert (out_b / "scan.csv").read_bytes() != base
    assert (out_c / "scan.csv").read_bytes() == base


def test_validate_reports_clean_scan(sim_cfg, tmp_path, capsys):
    out = tmp_path / "sim"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    capsys.readouterr()
    assert run(["validate", "--input", str(out / "scan.csv")]) == 0
    text = capsys.readouterr().out
    assert "observations : 900" in text
    assert "violations   : 0" in text


def test_preprocess_then_fit_recovers_model(sim_cfg, tmp_path, capsys):
    out = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    assert run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)]) == 0
    ticks = preprocess.read_tick_stats_csv((out / "ticks.csv").read_text())
    assert len(ticks) == 6
    assert run(["fit", "--input", str(out / "ticks.csv"), "--out", str(out)]) == 0
    report = fit.read_fit_report_json((out / "model.json").read_text())
    assert report.converged
    assert report.model.b == pytest.approx(-1.02, abs=0.15)
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "intensity,predicted_std_mm"
    assert len(curve) == 1 + 256
    assert "converged = True" in capsys.readouterr().out


def test_preprocess_flag_validation(sim_cfg, tmp_path):
    out = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    scan = str(out / "scan.csv")
    assert run(["preprocess", "--input", scan, "--out", str(out),
                "--tick-mode", "explicit", "--tick-step", "0.001"]) == 2
    assert run(["preprocess", "--input", scan, "--out", str(out),
                "--sigma-multiplier", "-1"]) == 2
    assert run(["preprocess", "--input", scan, "--out", str(out),
                "--max-passes", "-2"]) == 2


def test_tick_step_that_is_not_finite_is_a_usage_error(sim_cfg, tmp_path, capsys):
    work = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(work)])
    capsys.readouterr()
    out = tmp_path / "o"
    for command in (["preprocess", "--input", str(work / "scan.csv")],
                    ["pipeline", "--simulate", str(sim_cfg)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*command, "--out", str(out), "--tick-step", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: tick_step must be finite and > 0, got inf\n"
        assert captured.out == ""
        assert not out.exists()


def test_tick_step_whose_keys_leave_int64_exits_one(sim_cfg, tmp_path, capsys):
    work = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(work)])
    capsys.readouterr()
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["preprocess", "--input", str(work / "scan.csv"), "--out", str(out),
                    "--tick-step", "1e-320"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: tick step 1e-320 rad: the largest |angle| / step overflows int64\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_estimated_tick_step_that_is_not_finite_exits_one(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text("profile,vertical_angle,horizontal_angle,range,intensity\n" + "".join(
        f"{p},{angle},0.0,10.0,1500.0\n" for p in range(40) for angle in ("-1e308", "0.5", "1e308")
    ))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["preprocess", "--input", str(scan), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot estimate tick step: the median angle gap is inf\n"
    assert captured.out == ""
    assert not (out / "ticks.csv").exists()


@pytest.mark.parametrize("command", ["fit", "pipeline"])
def test_negative_max_iterations_is_a_usage_error_before_any_output(sim_cfg, tmp_path, capsys,
                                                                    command):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n" + TICK_ROWS)
    source = ["--input", str(ticks)] if command == "fit" else ["--simulate", str(sim_cfg)]
    out = tmp_path / "o"
    assert run([command, *source, "--out", str(out), "--max-iterations", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --max-iterations must be >= 0, got -3\n"
    assert captured.out == ""
    assert not out.exists()


def test_flag_defaults_come_from_the_stage_options():
    args = _build_parser().parse_args(["pipeline", "--simulate", "c", "--out", "o"])
    defaults = preprocess.PreprocessConfig()
    assert (args.sigma_multiplier, args.min_tick_count, args.max_passes) == (
        defaults.sigma_multiplier, defaults.min_tick_count, defaults.max_passes)
    assert preprocess.TickMode(args.tick_mode) is defaults.tick_mode
    assert args.max_iterations == fit.FitOptions().max_iterations


def test_degenerate_inputs_exit_one(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert run(["fit", "--input", missing, "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,tick,stats,file\n")
    assert run(["fit", "--input", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("calibrated_header", [False, True])
def test_header_only_tick_table_has_too_few_points(tmp_path, capsys, calibrated_header):
    header = preprocess.CALIBRATED_HEADER if calibrated_header else preprocess.TICK_STATS_HEADER
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(header + "\n")
    assert run(["fit", "--input", str(ticks), "--out", str(tmp_path / "o")]) == 1
    assert "need >= 3 points, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("r_ref", [[], ["--r-ref", "10"]], ids=["mean-range", "r-ref"])
def test_calibrate_header_only_tick_table_names_the_empty_table(tmp_path, capsys, r_ref):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n")
    assert run(["calibrate", "--input", str(ticks), "--out", str(tmp_path / "o"), *r_ref]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {ticks}: the tick table has no ticks\n"
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""


def test_calibrate_refuses_a_mean_range_that_overflows(tmp_path, capsys):
    # three finite ranges of 1e308 m sum past the largest float
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n" + "".join(
        f"{i},0.00{i + 1},1500.0,1e308,1.5,300\n" for i in range(3)
    ))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["calibrate", "--input", str(ticks), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the mean of the tick mean ranges is inf m; pass --r-ref\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "row, r_ref, value",
    [("1500.0,1e308", ["--r-ref", "10"], "intensity 1500.0 at 1e+308 m"),
     ("1500.0,1e-200", ["--r-ref", "10"], "intensity 1500.0 at 1e-200 m"),
     ("1500.0,1e-200", [], "intensity 1500.0 at 1e-200 m"),
     ("1e300,1e-10", [], "intensity 1e+300 at 1e-10 m")],
    ids=["range-squared-overflows", "range-squared-underflows", "underflows-mean-range",
         "result-overflows"],
)
def test_calibrate_refuses_a_result_outside_the_float_range(tmp_path, capsys, row, r_ref, value):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n" + "".join(
        f"{i},0.00{i + 1},{row},1.5,300\n" for i in range(3)
    ))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["calibrate", "--input", str(ticks), "--out", str(out), *r_ref]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: tick 0: calibrating {value} leaves the float range\n"
    assert captured.out == ""
    assert not out.exists()


TICK_ROWS = "0,0.001,1500.0,10.0,1.5,300\n1,0.002,800.0,20.0,3.5,300\n2,0.003,400.0,40.0,7.0,300\n"


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("3,0.004,200.0,30.0,nan,300", "non-finite value in column 'std_range_mm'"),
        ("3,0.004,inf,30.0,9.0,300", "non-finite value in column 'mean_intensity'"),
        ("3,0.004,200.0,30.0,-0.5,300", "std_range_mm must be >= 0, got -0.5"),
        ("3,0.004,200.0,30.0,9.0,-3", "count must be >= 1, got -3"),
        ("3,0.004,200.0,30.0,9.0,0", "count must be >= 1, got 0"),
        ("3,0.004,200.0,-15.0,9.0,300", "mean_range_m must be > 0, got -15.0"),
        ("3,0.004,200.0,0.0,9.0,300", "mean_range_m must be > 0, got 0.0"),
        (f"3,0.004,200.0,30.0,9.0,{10**400}", f"count must be < 2**63, got {10**400}"),
        (f"{10**20},0.004,200.0,30.0,9.0,300", f"tick_id must be < 2**63, got {10**20}"),
    ],
    ids=["nan-std", "inf-intensity", "negative-std", "negative-count", "zero-count",
         "negative-range", "zero-range", "count-past-int64", "tick-id-past-int64"],
)
@pytest.mark.parametrize(
    "command", [["calibrate"], ["fit"], ["fit", "--weight-by-count"]],
    ids=["calibrate", "fit", "fit-weighted"],
)
def test_bad_tick_row_names_its_line_and_writes_nothing(tmp_path, capsys, bad_row, message,
                                                        command):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(f"{preprocess.TICK_STATS_HEADER}\n{TICK_ROWS}{bad_row}\n")
    out = tmp_path / "o"
    assert run([*command, "--input", str(ticks), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 5: {message}\n"
    assert captured.out == ""
    assert not out.exists()


GOOD_MODEL = {
    "a_mm_per_unit_pow_b": 29853.0, "b": -1.02, "c_mm": 0.08,
    "intensity_domain": [100.0, 5000.0], "intensity_kind": "raw",
}
GOOD_REPORT = {
    "model": GOOD_MODEL, "iterations": 7, "final_cost_mm2": 0.5, "converged": True,
    "parameter_stddevs": [1.0, None, 0.01],
}


@pytest.mark.parametrize(
    "record, message",
    [
        ({}, "missing key 'model'"),
        ([], "the record is not a JSON object"),
        ({**GOOD_REPORT, "model": []}, "bad value for 'model': []"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "intensity_domain": [100.0]}},
         "bad value for 'model.intensity_domain': [100.0]"),
        ({**GOOD_REPORT, "model": {k: v for k, v in GOOD_MODEL.items() if k != "a_mm_per_unit_pow_b"}},
         "missing key 'model.a_mm_per_unit_pow_b'"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "b": "steep"}}, "bad value for 'model.b': 'steep'"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "intensity_kind": "loud"}},
         "bad value for 'model.intensity_kind': 'loud'"),
        ({k: v for k, v in GOOD_REPORT.items() if k != "iterations"}, "missing key 'iterations'"),
        ({**GOOD_REPORT, "parameter_stddevs": 3}, "bad value for 'parameter_stddevs': 3"),
        ({**GOOD_REPORT, "converged": "false"}, "bad value for 'converged': 'false'"),
        ({**GOOD_REPORT, "iterations": 7.5}, "bad value for 'iterations': 7.5"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "c_mm": True}}, "bad value for 'model.c_mm': True"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "intensity_domain": [5000.0, 100.0]}},
         "bad value for 'model.intensity_domain': [5000.0, 100.0]"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "intensity_domain": [0.0, 100.0]}},
         "bad value for 'model.intensity_domain': [0.0, 100.0]"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "b": math.nan}}, "bad value for 'model.b': nan"),
        ({**GOOD_REPORT, "model": {**GOOD_MODEL, "a_mm_per_unit_pow_b": -math.inf}},
         "bad value for 'model.a_mm_per_unit_pow_b': -inf"),
    ],
    ids=["empty-object", "array", "model-array", "short-domain", "missing-a", "string-b",
         "bad-kind", "missing-iterations", "scalar-stddevs", "string-converged",
         "float-iterations", "boolean-c", "reversed-domain", "zero-domain", "nan-b",
         "infinite-a"],
)
@pytest.mark.parametrize("command", ["evaluate", "compare", "vcm"])
def test_malformed_model_record_exits_one_naming_the_key(tmp_path, capsys, record, message,
                                                         command):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(GOOD_REPORT))
    bad.write_text(json.dumps(record))
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n0,0.001,1500.0,10.0,1.5,300\n")
    scan = tmp_path / "scan.csv"
    scan.write_text("profile,vertical_angle,horizontal_angle,range,intensity\n0,0.001,0.0,10.0,1500.0\n")
    out = str(tmp_path / "o")
    argv = {
        "evaluate": ["evaluate", "--model", str(bad), "--ticks", str(ticks), "--out", out],
        "compare": ["compare", "--model1", str(good), "--model2", str(bad),
                    "--grid-min", "100", "--grid-max", "1000", "--out", out],
        "vcm": ["vcm", "--input", str(scan), "--model", str(bad), "--sigma-vertical", "1e-4",
                "--sigma-horizontal", "1e-4", "--out", out],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: fit report: {message}\n"
    # the well-formed record passes in the same place
    argv[argv.index(str(bad))] = str(good)
    assert run(argv) == 0


def test_model_file_that_is_not_json_names_line_and_column(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{\n  "model": {,\n}\n')
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n" + TICK_ROWS)
    assert run(["evaluate", "--model", str(model), "--ticks", str(ticks),
                "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: fit report: line 2 column 13: Expecting property name enclosed in double quotes\n"
    )


def test_inputs_ignore_a_byte_order_mark_and_name_a_bad_byte_line(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    config = SIM_CONFIG.split("\n", 1)[1].encode()  # starts with "seed = 11"
    for out, prefix in ((plain, b""), (marked, bom)):
        out.mkdir()
        (out / "sim.cfg").write_bytes(prefix + config)
        assert run(["simulate", "--config", str(out / "sim.cfg"), "--out", str(out)]) == 0
        run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
        ticks = out / "ticks.csv"
        ticks.write_bytes(prefix + ticks.read_bytes())
        assert run(["fit", "--input", str(ticks), "--out", str(out)]) == 0
        model = out / "model.json"
        model.write_bytes(prefix + model.read_bytes())
        assert run(["evaluate", "--model", str(model), "--ticks", str(ticks), "--out", str(out)]) == 0
    for name in ("scan.csv", "evaluation.csv", "curve.csv"):
        assert (plain / name).read_bytes() == (marked / name).read_bytes(), name

    head, rest = (plain / "ticks.csv").read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(head + b"\n0\xff" + rest)
    capsys.readouterr()
    assert run(["fit", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "line 2: invalid UTF-8 byte 0xff" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["fit", "--no-such-flag"]) == 2
    assert run(["--help"]) == 0


def test_calibrate_defaults_to_mean_range(scaled_cfg, tmp_path, capsys):
    out = tmp_path / "s"
    run(["simulate", "--config", str(scaled_cfg), "--out", str(out)])
    run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
    capsys.readouterr()
    assert run(["calibrate", "--input", str(out / "ticks.csv"), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "(mean of tick mean ranges)" in text
    cal = calibrate.read_calibrated_ticks_csv((out / "ticks_calibrated.csv").read_text())
    assert len(cal) == 6


def test_calibrated_fit_and_evaluate_round(scaled_cfg, tmp_path, capsys):
    out = tmp_path / "s"
    run(["simulate", "--config", str(scaled_cfg), "--out", str(out)])
    run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
    run(["calibrate", "--input", str(out / "ticks.csv"), "--out", str(out),
         "--r-ref", "10"])
    assert run(["fit", "--input", str(out / "ticks_calibrated.csv"), "--out", str(out)]) == 0
    report = fit.read_fit_report_json((out / "model.json").read_text())
    assert report.model.intensity_kind is ingest.IntensityKind.CALIBRATED
    capsys.readouterr()
    assert run(["evaluate", "--model", str(out / "model.json"),
                "--ticks", str(out / "ticks_calibrated.csv"), "--out", str(out)]) == 0
    assert (out / "evaluation.csv").exists()
    assert "rmse = " in capsys.readouterr().out


@pytest.mark.parametrize("calibrated", [False, True], ids=["plain", "calibrated"])
@pytest.mark.parametrize("kind_flag", [[], ["--intensity-kind", "scaled"]], ids=["default", "scaled"])
def test_fit_reads_the_intensity_kind_from_the_tick_table(tmp_path, calibrated, kind_flag):
    rows = TICK_ROWS + "3,0.004,200.0,30.0,14.0,300\n"
    if calibrated:  # calibrated intensities are twice the recorded ones
        header = preprocess.CALIBRATED_HEADER
        rows = "".join(f"{r},{2 * float(r.split(',')[2])!r}\n" for r in rows.splitlines())
    else:
        header = preprocess.TICK_STATS_HEADER
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(f"{header}\n{rows}")
    assert run(["fit", "--input", str(ticks), "--out", str(tmp_path), *kind_flag]) == 0
    model = fit.read_fit_report_json((tmp_path / "model.json").read_text()).model
    expected = "calibrated" if calibrated else "scaled" if kind_flag else "raw"
    assert model.intensity_kind is ingest.IntensityKind(expected)
    assert model.intensity_domain == ((400.0, 3000.0) if calibrated else (200.0, 1500.0))


def test_fit_that_overflows_exits_one_without_numpy_warnings(tmp_path, capsys):
    # a scaled export whose intensities barely vary: the log-log start
    # gives b = 21,500 and a = 0, from which I**b would overflow at every step
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(preprocess.TICK_STATS_HEADER + "\n" + "".join(
        f"{i},0.00{i + 1},{intensity!r},10.0,{std!r},150\n" for i, (intensity, std) in enumerate([
            (900000.0124404618, 0.32762890878839146), (900001.1532629032, 0.2891615925873693),
            (899998.0437935555, 1.0125684981462886), (900000.4327355835, 1.1112229405037544),
            (899986.9356885648, 4.260295176903639), (900029.7078261233, 4.26353100996704),
        ])
    ))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", "--input", str(ticks), "--out", str(out),
                    "--intensity-kind", "scaled"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: start exponent b0 = 21500.9 underflows a0; "
        "the intensities [899987, 900030] barely vary\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_compare_subcommand(sim_cfg, tmp_path, capsys):
    out = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
    run(["fit", "--input", str(out / "ticks.csv"), "--out", str(out)])
    model = str(out / "model.json")
    capsys.readouterr()
    assert run(["compare", "--model1", model, "--model2", model,
                "--grid-min", "1e3", "--grid-max", "1e5", "--out", str(out)]) == 0
    assert "max |difference| = 0 mm" in capsys.readouterr().out
    assert (out / "comparison.csv").exists()
    assert run(["compare", "--model1", model, "--model2", model,
                "--grid-min", "10", "--grid-max", "5", "--out", str(out)]) == 2
    assert run(["compare", "--model1", model, "--model2", model,
                "--grid-min", "1", "--grid-max", "5", "--grid-points", "1",
                "--out", str(out)]) == 2


def test_vcm_subcommand(sim_cfg, tmp_path):
    out = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
    run(["fit", "--input", str(out / "ticks.csv"), "--out", str(out)])
    assert run(["vcm", "--input", str(out / "scan.csv"),
                "--model", str(out / "model.json"),
                "--sigma-vertical", "1e-5", "--sigma-horizontal", "1e-5",
                "--out", str(out)]) == 0
    lines = (out / "vcm.csv").read_text().splitlines()
    assert len(lines) == 1 + 900
    assert run(["vcm", "--input", str(out / "scan.csv"),
                "--model", str(out / "model.json"),
                "--sigma-vertical", "-1", "--sigma-horizontal", "1e-5",
                "--out", str(out)]) == 2


def test_pipeline_raw(sim_cfg, tmp_path):
    out = tmp_path / "p"
    assert run(["pipeline", "--simulate", str(sim_cfg), "--out", str(out)]) == 0
    for name in ("scan.csv", "ground_truth.csv", "ticks.csv", "model.json",
                 "curve.csv", "evaluation.csv"):
        assert (out / name).exists(), name
    assert not (out / "ticks_calibrated.csv").exists()
    assert not (out / "vcm.csv").exists()


def test_pipeline_scaled_calibrates_and_builds_vcm(scaled_cfg, tmp_path):
    out = tmp_path / "p"
    code = run(["pipeline", "--simulate", str(scaled_cfg), "--out", str(out),
                "--sigma-vertical", "1e-5", "--sigma-horizontal", "2e-5"])
    assert code == 0
    assert (out / "ticks_calibrated.csv").exists()
    assert (out / "vcm.csv").exists()
    report = fit.read_fit_report_json((out / "model.json").read_text())
    assert report.model.intensity_kind is ingest.IntensityKind.CALIBRATED
    assert report.model.b == pytest.approx(-1.02, abs=0.15)


def test_pipeline_sigma_flags_must_pair(sim_cfg, tmp_path):
    assert run(["pipeline", "--simulate", str(sim_cfg), "--out", str(tmp_path / "x"),
                "--sigma-vertical", "1e-5"]) == 2


def test_pipeline_reruns_byte_identical(sim_cfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["pipeline", "--simulate", str(sim_cfg), "--out", str(out1)]) == 0
    assert run(["pipeline", "--simulate", str(sim_cfg), "--out", str(out2)]) == 0
    names = ["scan.csv", "ground_truth.csv", "ticks.csv", "model.json",
             "curve.csv", "evaluation.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("config", [SIM_CONFIG, SCALED_CONFIG], ids=["raw", "scaled"])
def test_pipeline_composes_the_subcommands(tmp_path, capsys, config):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config)
    scaled = config is SCALED_CONFIG
    sigmas = ["--sigma-vertical", "1e-5", "--sigma-horizontal", "2e-5"]
    piped, chained = tmp_path / "pipeline", tmp_path / "chain"
    capsys.readouterr()
    assert run(["pipeline", "--simulate", str(cfg), "--out", str(piped),
                "--weight-by-count", "--max-passes", "3", *sigmas]) == 0
    piped_stdout = capsys.readouterr().out

    ticks = chained / "ticks.csv"
    steps = [
        ["simulate", "--config", str(cfg), "--out", str(chained)],
        ["preprocess", "--input", str(chained / "scan.csv"), "--out", str(chained),
         "--max-passes", "3"],
    ]
    if scaled:
        steps.append(["calibrate", "--input", str(ticks), "--out", str(chained), "--r-ref", "10"])
        ticks = chained / "ticks_calibrated.csv"
    steps += [
        ["fit", "--input", str(ticks), "--out", str(chained), "--weight-by-count"],
        ["evaluate", "--model", str(chained / "model.json"), "--ticks", str(ticks),
         "--out", str(chained)],
        ["vcm", "--input", str(chained / "scan.csv"), "--model", str(chained / "model.json"),
         *sigmas, "--out", str(chained)],
    ]
    for argv in steps:
        assert run(argv) == 0, argv[0]
    assert piped_stdout.replace(str(piped), str(chained)) == capsys.readouterr().out

    names = sorted(p.name for p in piped.iterdir())
    assert names == sorted(p.name for p in chained.iterdir())
    assert ("ticks_calibrated.csv" in names) is scaled
    for name in names:
        assert (piped / name).read_bytes() == (chained / name).read_bytes(), name


def test_write_atomic_uses_its_own_temporary_file(sim_cfg, tmp_path):
    # A directory squatting on the old fixed temporary name "<name>.tmp"
    # (or another run's temporary file) must not break the write.
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run(["simulate", "--config", str(sim_cfg), "--out", str(ref)]) == 0
    (out / "scan.csv.tmp").mkdir(parents=True)
    assert run(["simulate", "--config", str(sim_cfg), "--out", str(out)]) == 0
    assert (out / "scan.csv").read_bytes() == (ref / "scan.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["ground_truth.csv", "scan.csv", "scan.csv.tmp"]


def test_write_atomic_encodes_long_text_slice_by_slice(tmp_path):
    # 1 MiB slices of this text start and end inside runs of 2- and 4-byte characters
    text = "é" * 700_001 + "\U0001f600" * 500_000 + "\n"
    _write_atomic(tmp_path / "long.txt", text)
    assert (tmp_path / "long.txt").read_bytes() == text.encode("utf-8")


def test_write_atomic_gives_open_mode_and_cleans_up(tmp_path, monkeypatch):
    umask = os.umask(0o022)
    try:
        _write_atomic(tmp_path / "a.csv", "x\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "a.csv").read_bytes() == b"x\n"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        _write_atomic(tmp_path / "b.csv", "y\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


def test_sim_config_parse_errors(tmp_path, capsys):
    def code_for(text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return run(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])

    assert code_for("k_system 1e7\n") == 1                       # no '='
    assert capsys.readouterr().err == "error: config line 1: expected 'key = value', got 'k_system 1e7'\n"
    assert code_for("k_system = 1e7\nboard = 0.5 10 0 1 50\n") == 1  # missing truth_*
    assert code_for(SIM_CONFIG + "board = 0.5 10\n") == 1        # short board line
    assert code_for(SIM_CONFIG + "scaling = exotic\n") == 1
    assert code_for(SIM_CONFIG + "scaling = inverse_square\n") == 1  # r_ref missing
    assert code_for(SIM_CONFIG + "scaling = custom_monotone\n") == 1
    capsys.readouterr()

    # every number converts on its own line
    for text, message in [
        (SIM_CONFIG + "board = x 10 0 5 100\n", "line 10: cannot parse 'x' in column 'board'"),
        (SIM_CONFIG + "board = 0.9 10 0 5 1e2\n", "line 10: cannot parse '1e2' in column 'board'"),
        (SIM_CONFIG.replace("k_system = 1e7", "k_system = abc"),
         "line 3: cannot parse 'abc' in column 'k_system'"),
        (SIM_CONFIG.replace("seed = 11", "seed = 1.5"), "line 2: cannot parse '1.5' in column 'seed'"),
        (SIM_CONFIG.replace("seed = 11", "seed = -1"), "config line 2: seed must be >= 0, got -1"),
        (SIM_CONFIG.replace("truth_c = 0.08", "truth_c = nan"),
         "line 6: non-finite value in column 'truth_c'"),
        (SIM_CONFIG + "scaling = inverse_square\n", "config is missing required key 'r_ref'"),
        (SIM_CONFIG + "scaling = custom_monotone\nscaling_true = 1 2\n",
         "config is missing required key 'scaling_recorded'"),
        (SIM_CONFIG + "scaling = custom_monotone\nscaling_true = 1 x\nscaling_recorded = 1 2\n",
         "line 11: cannot parse 'x' in column 'scaling_true'"),
    ]:
        assert code_for(text) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize(
    "config, message",
    [
        (SIM_CONFIG + "board = 0.001 1000 0 1 150\n",  # sigma 3.3 km at 1 km
         "board 3: drawn range -4573.257756197149 m is not finite and > 0 "
         "(truth sigma = 3.27332e+06 mm at 1000 m)"),
        (SIM_CONFIG + "scaling = custom_monotone\nscaling_true = 1 1e9\nscaling_recorded = -5 -1\n",
         "board 0: recorded intensity -4.99964000399964 is not finite and >= 0"),
        (SIM_CONFIG.replace("k_system = 1e7", "k_system = 1e308").replace(
            "board = 0.9 10 0 2 150", "board = 0.9 1e-3 0 2 150"),
         "board 0: recorded intensity inf is not finite and >= 0"),
    ],
    ids=["negative-range", "negative-intensity", "overflowing-intensity"],
)
def test_simulate_refuses_boards_its_parser_would_refuse(tmp_path, capsys, command, config,
                                                          message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    flag = "--config" if command == "simulate" else "--simulate"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one-line error is all that is printed
        assert run([command, flag, str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_negative_seed_flag_exits_one_with_one_line(sim_cfg, tmp_path, capsys, command):
    flag = "--config" if command == "simulate" else "--simulate"
    out = tmp_path / "o"
    assert run([command, flag, str(sim_cfg), "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


def test_every_exported_name_resolves():
    assert len(set(rangevar.__all__)) == len(rangevar.__all__)
    missing = [name for name in rangevar.__all__ if not hasattr(rangevar, name)]
    assert missing == []


def test_console_script_installed(tmp_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["rangevar"]
    module, _, attr = entry.partition(":")
    assert (module, attr) == ("rangevar.cli", "main")

    # The wrapper pip writes for a console script, so the test needs no install.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "rangevar"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)

    exe = shutil.which("rangevar", path=str(bin_dir))
    assert exe is not None
    # Import the checkout under test, whether it runs from src/ or an install.
    src_dir = str(Path(rangevar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rangevar")
    assert "pipeline" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["calibrate", "--input", "{w}/ticks.csv", "--r-ref", "-1"],
         "--r-ref must be finite and > 0, got -1.0"),
        (["calibrate", "--input", "{w}/ticks.csv", "--r-ref", "0"],
         "--r-ref must be finite and > 0, got 0.0"),
        (["calibrate", "--input", "{w}/ticks.csv", "--r-ref", "inf"],
         "--r-ref must be finite and > 0, got inf"),
        (["pipeline", "--simulate", "{cfg}", "--r-ref", "nan"],
         "--r-ref must be finite and > 0, got nan"),
        (["vcm", "--input", "{w}/scan.csv", "--model", "{w}/model.json",
          "--sigma-vertical", "0", "--sigma-horizontal", "1e-5"],
         "--sigma-vertical must be finite and > 0, got 0.0"),
        (["vcm", "--input", "{w}/scan.csv", "--model", "{w}/model.json",
          "--sigma-vertical", "1e-5", "--sigma-horizontal=-1e-5"],
         "--sigma-horizontal must be finite and > 0, got -1e-05"),
        (["pipeline", "--simulate", "{cfg}", "--sigma-vertical", "1e-5", "--sigma-horizontal", "0"],
         "--sigma-horizontal must be finite and > 0, got 0.0"),
    ],
    ids=["calibrate-negative", "calibrate-zero", "calibrate-inf", "pipeline-nan",
         "vcm-vertical", "vcm-horizontal", "pipeline-horizontal"],
)
def test_non_positive_flag_is_a_usage_error_before_any_output(scaled_cfg, tmp_path, capsys, argv,
                                                              message):
    work = tmp_path / "w"
    assert run(["pipeline", "--simulate", str(scaled_cfg), "--out", str(work)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [arg.format(w=work, cfg=scaled_cfg) for arg in argv]
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_vcm_refuses_an_angular_sigma_whose_square_overflows(scaled_cfg, tmp_path, capsys):
    work = tmp_path / "w"
    assert run(["pipeline", "--simulate", str(scaled_cfg), "--out", str(work)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["vcm", "--input", str(work / "scan.csv"), "--model", str(work / "model.json"),
                "--sigma-vertical", "1e200", "--sigma-horizontal", "1e-5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: angular sigmas must be > 0 with a finite square, got 1e+200\n"
    assert captured.out == ""
    assert not out.exists()


def test_calibrated_model_on_an_uncalibrated_table_names_the_column(scaled_cfg, tmp_path, capsys):
    work = tmp_path / "w"
    assert run(["pipeline", "--simulate", str(scaled_cfg), "--out", str(work)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["evaluate", "--model", str(work / "model.json"),
                "--ticks", str(work / "ticks.csv"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: a calibrated model needs the tick table's calibrated_intensity column\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code, stream, start",
    [(["--help"], 0, "stdout", "usage: rangevar"),
     (["validate", "--input", "missing.csv"], 1, "stderr", "error: ")],
    ids=["help", "missing-input"],
)
def test_module_runs_as_a_script(tmp_path, args, code, stream, start):
    src_dir = str(Path(rangevar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rangevar.cli", *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith(start)
