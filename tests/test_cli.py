"""End-to-end checks of the command-line front end.

Everything runs in-process through run() so exit codes and outputs are
cheap to assert; one test exercises the console script declared in
pyproject.toml, through the same wrapper an installer writes for it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rangevar
from rangevar import calibrate, fit, ingest, preprocess
from rangevar.cli import _write_atomic, run

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


def test_degenerate_inputs_exit_one(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert run(["fit", "--input", missing, "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,tick,stats,file\n")
    assert run(["fit", "--input", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("calibrated_header", [False, True])
@pytest.mark.parametrize("use_calibrated", [False, True])
def test_header_only_tick_table_has_too_few_points(tmp_path, capsys, calibrated_header,
                                                   use_calibrated):
    header = preprocess.CALIBRATED_HEADER if calibrated_header else preprocess.TICK_STATS_HEADER
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(header + "\n")
    flags = ["--use-calibrated"] if use_calibrated else []
    assert run(["fit", "--input", str(ticks), "--out", str(tmp_path / "o"), *flags]) == 1
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
    ],
    ids=["empty-object", "array", "model-array", "short-domain", "missing-a", "string-b",
         "bad-kind", "missing-iterations", "scalar-stddevs", "string-converged",
         "float-iterations", "boolean-c"],
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


def test_fit_use_calibrated_requires_calibrated_input(sim_cfg, tmp_path):
    out = tmp_path / "w"
    run(["simulate", "--config", str(sim_cfg), "--out", str(out)])
    run(["preprocess", "--input", str(out / "scan.csv"), "--out", str(out)])
    code = run(["fit", "--input", str(out / "ticks.csv"), "--out", str(out),
                "--use-calibrated"])
    assert code == 2


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
    assert run(["fit", "--input", str(out / "ticks_calibrated.csv"), "--out", str(out),
                "--use-calibrated"]) == 0
    report = fit.read_fit_report_json((out / "model.json").read_text())
    assert report.model.intensity_kind is ingest.IntensityKind.CALIBRATED
    capsys.readouterr()
    assert run(["evaluate", "--model", str(out / "model.json"),
                "--ticks", str(out / "ticks_calibrated.csv"), "--out", str(out)]) == 0
    assert (out / "evaluation.csv").exists()
    assert "rmse = " in capsys.readouterr().out


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
                "--out", str(out)]) == 1


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
        ["fit", "--input", str(ticks), "--out", str(chained), "--weight-by-count",
         *(["--use-calibrated"] if scaled else [])],
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


def test_sim_config_parse_errors(tmp_path):
    def code_for(text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return run(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])

    assert code_for("k_system 1e7\n") == 1                       # no '='
    assert code_for("k_system = 1e7\nboard = 0.5 10 0 1 50\n") == 1  # missing truth_*
    assert code_for(SIM_CONFIG + "board = 0.5 10\n") == 1        # short board line
    assert code_for(SIM_CONFIG + "scaling = exotic\n") == 1
    assert code_for(SIM_CONFIG + "scaling = inverse_square\n") == 1  # r_ref missing
    assert code_for(SIM_CONFIG + "scaling = custom_monotone\n") == 1


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
