"""Command-line front end.

Subcommands: simulate | validate | preprocess | calibrate | fit |
evaluate | compare | vcm | pipeline. Exit codes: 0 success, 1 domain
error (bad data, degenerate fit, missing file), 2 usage error.

Each stage (simulate, preprocess, calibrate, fit, evaluate, vcm) is one
helper that writes its artifacts and prints its line; the subcommands
and pipeline are compositions of these helpers.

All machine-readable outputs land under --out and are written atomically
(write to a temporary file, then rename). Identical inputs and flags
produce byte-identical outputs; nothing timestamped or random enters a
file. fit and evaluate additionally emit curve.csv, a 256-point
log-spaced (intensity, predicted std) sample over the model domain for
external plotting.

The simulate config file is plain text, one ``key = value`` per line,
``#`` comments allowed. Recognized keys:

    seed, k_system, truth_a, truth_b, truth_c,
    scaling (none | inverse_square | custom_monotone), r_ref,
    scaling_true, scaling_recorded (space-separated tables),
    outlier_fraction, outlier_magnitude_sigma,
    board = <reflectivity> <distance_m> <incidence_rad> <ticks> <profiles>

``board`` may repeat; boards are generated in file order. Command-line
flags override file values where both exist (currently --seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import calibrate as calibrate_mod
from . import evaluate as evaluate_mod
from . import fit as fit_mod
from . import ingest, preprocess, simulate
from .errors import EmptyStats, InvalidConfig, RangevarError, decode_utf8

CURVE_HEADER = "intensity,predicted_std_mm"
CURVE_POINTS = 256


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file of its own in the target directory.

    Concurrent writers into one directory never share a temporary file,
    a failed write leaves none behind, and the result gets the mode a
    plain open() would give it rather than mkstemp's 0600.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    return decode_utf8(Path(path).read_bytes())


def _curve_csv(model: fit_mod.RangeVarianceModel) -> str:
    lo, hi = model.intensity_domain
    grid = np.geomspace(lo, hi, CURVE_POINTS)
    values = fit_mod.evaluate_model(model, grid)
    lines = [CURVE_HEADER]
    for intensity, value in zip(grid, values):
        lines.append(f"{float(intensity)!r},{float(value)!r}")
    lines.append("")
    return "\n".join(lines)


def read_sim_config(text: str) -> simulate.SimulationConfig:
    """Parse the key-value simulate config format."""
    values: dict[str, str] = {}
    boards: list[simulate.Board] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfig(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "board":
            parts = value.split()
            if len(parts) != 5:
                raise InvalidConfig(
                    f"config line {lineno}: board needs 5 fields "
                    "(reflectivity distance incidence ticks profiles)"
                )
            boards.append(
                simulate.Board(
                    reflectivity=float(parts[0]),
                    distance=float(parts[1]),
                    incidence_angle=float(parts[2]),
                    tick_count=int(parts[3]),
                    profile_count=int(parts[4]),
                )
            )
        else:
            values[key] = value

    required = ("k_system", "truth_a", "truth_b", "truth_c")
    for key in required:
        if key not in values:
            raise InvalidConfig(f"config is missing required key '{key}'")
    if not boards:
        raise InvalidConfig("config defines no boards")

    scaling_name = values.get("scaling", "none").lower()
    scaling: simulate.InverseSquareScaling | simulate.CustomMonotoneScaling | None
    if scaling_name == "none":
        scaling = None
    elif scaling_name == "inverse_square":
        if "r_ref" not in values:
            raise InvalidConfig("scaling = inverse_square requires r_ref")
        scaling = simulate.InverseSquareScaling(float(values["r_ref"]))
    elif scaling_name == "custom_monotone":
        if "scaling_true" not in values or "scaling_recorded" not in values:
            raise InvalidConfig(
                "scaling = custom_monotone requires scaling_true and scaling_recorded"
            )
        scaling = simulate.CustomMonotoneScaling(
            [float(v) for v in values["scaling_true"].split()],
            [float(v) for v in values["scaling_recorded"].split()],
        )
    else:
        raise InvalidConfig(f"unknown scaling '{scaling_name}'")

    return simulate.SimulationConfig(
        k_system=float(values["k_system"]),
        boards=tuple(boards),
        truth_model=(float(values["truth_a"]), float(values["truth_b"]), float(values["truth_c"])),
        scaling=scaling,
        outlier_injection=simulate.OutlierInjection(
            fraction=float(values.get("outlier_fraction", "0")),
            magnitude_sigma=float(values.get("outlier_magnitude_sigma", "0")),
        ),
        seed=int(values.get("seed", "0")),
    )


def _sim_config(path: str, seed: int | None) -> simulate.SimulationConfig:
    cfg = read_sim_config(_read_text(path))
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


# ---- argument parsing ----------------------------------------------------------


class _UsageError(Exception):
    """Raised for flag combinations argparse cannot express."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangevar",
        description="Estimate intensity-based range variance models for laser scanners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scan from a config file")
    p.add_argument("--config", required=True, help="key-value simulation config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("validate", help="parse a scan and report invariant violations")
    p.add_argument("--input", required=True, help="scan CSV")

    p = sub.add_parser("preprocess", help="reduce a scan to per-tick statistics")
    p.add_argument("--input", required=True, help="scan CSV")
    p.add_argument("--out", required=True)
    _add_preprocess_flags(p)

    p = sub.add_parser("calibrate", help="calibrate scaled tick intensities to a reference range")
    p.add_argument("--input", required=True, help="tick statistics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--r-ref", type=float, default=None,
                   help="reference range in meters (default: mean of tick mean ranges)")

    p = sub.add_parser("fit", help="fit the variance model to tick statistics")
    p.add_argument("--input", required=True, help="tick statistics CSV (plain or calibrated)")
    p.add_argument("--out", required=True)
    _add_fit_flags(p)

    p = sub.add_parser("evaluate", help="residual metrics of a model against tick statistics")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--ticks", required=True, help="tick statistics CSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="difference of two models over an intensity grid")
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--grid-min", type=float, required=True)
    p.add_argument("--grid-max", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=CURVE_POINTS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("vcm", help="per-point variance blocks for a scan")
    p.add_argument("--input", required=True, help="scan CSV")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--sigma-vertical", type=float, required=True, help="rad")
    p.add_argument("--sigma-horizontal", type=float, required=True, help="rad")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="simulate, preprocess, calibrate, fit, evaluate in one run")
    p.add_argument("--simulate", required=True, metavar="CONFIG", help="simulation config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--r-ref", type=float, default=None,
                   help="calibration reference range (default: the simulation's, if scaled)")
    p.add_argument("--sigma-vertical", type=float, default=None, help="rad; enables vcm.csv")
    p.add_argument("--sigma-horizontal", type=float, default=None, help="rad; enables vcm.csv")
    _add_preprocess_flags(p)
    _add_fit_flags(p, include_kind=False)

    return parser


def _add_preprocess_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-multiplier", type=float, default=3.0)
    p.add_argument("--min-tick-count", type=int, default=30)
    p.add_argument("--tick-mode", choices=("explicit", "quantize"), default="quantize")
    p.add_argument("--tick-step", type=float, default=None, help="rad; only with --tick-mode quantize")
    p.add_argument("--max-passes", type=int, default=1, help="outlier screening passes (0 disables)")


def _add_fit_flags(p: argparse.ArgumentParser, include_kind: bool = True) -> None:
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--weight-by-count", action="store_true",
                   help="weight each tick by its member count")
    if include_kind:
        p.add_argument("--use-calibrated", action="store_true",
                       help="fit on the calibrated_intensity column")
        p.add_argument("--intensity-kind", choices=("raw", "scaled"), default="raw",
                       help="abscissa tag when not fitting calibrated values")


def _preprocess_config(args) -> preprocess.PreprocessConfig:
    mode = (
        preprocess.TickMode.EXPLICIT_COLUMN
        if args.tick_mode == "explicit"
        else preprocess.TickMode.QUANTIZE_BY_STEP
    )
    if args.tick_step is not None and args.tick_mode == "explicit":
        raise _UsageError("--tick-step only applies with --tick-mode quantize")
    try:
        return preprocess.PreprocessConfig(
            sigma_multiplier=args.sigma_multiplier,
            min_tick_count=args.min_tick_count,
            tick_mode=mode,
            tick_step=args.tick_step,
            max_passes=args.max_passes,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# ---- stages: each writes its artifacts under out and prints its line ------------


def _simulate(cfg: simulate.SimulationConfig, out: Path) -> ingest.ScanDataset:
    ds, truth = simulate.simulate_profiles(cfg)
    _write_atomic(out / "scan.csv", ingest.serialize_dataset(ds))
    _write_atomic(out / "ground_truth.csv", simulate.ground_truth_to_csv(truth))
    print(
        f"simulated {len(ds)} observations over {len(truth.ticks)} ticks "
        f"({ds.meta.intensity_kind.value} intensities) -> {out}"
    )
    return ds


def _preprocess(ds: ingest.ScanDataset, cfg: preprocess.PreprocessConfig, out: Path) -> list:
    stats = preprocess.preprocess(ds, cfg)
    _write_atomic(out / "ticks.csv", preprocess.tick_stats_to_csv(stats))
    removed = len(ds) - sum(s.count for s in stats)
    print(f"{len(stats)} ticks kept, {removed} observations screened or under threshold -> {out / 'ticks.csv'}")
    return stats


def _calibrate(stats: list, r_ref: float | None, out: Path) -> list:
    if r_ref is None:
        r_ref = float(np.mean([s.mean_range for s in stats]))
        print(f"r_ref = {r_ref!r} m (mean of tick mean ranges)")
    else:
        print(f"r_ref = {r_ref!r} m")
    calibrated = calibrate_mod.calibrate_ticks(stats, calibrate_mod.CalibrationConfig(r_ref))
    _write_atomic(out / "ticks_calibrated.csv", preprocess.tick_stats_to_csv(calibrated))
    print(f"{len(calibrated)} ticks calibrated -> {out / 'ticks_calibrated.csv'}")
    return calibrated


def _fit(ticks: list, args, kind: ingest.IntensityKind, out: Path) -> fit_mod.RangeVarianceModel:
    """Kind CALIBRATED fits the calibrated intensities, any other the recorded ones."""
    opts = fit_mod.FitOptions(
        max_iterations=args.max_iterations,
        weights=tuple(float(t.count) for t in ticks) if args.weight_by_count else None,
        intensity_kind=kind,
    )
    if kind is ingest.IntensityKind.CALIBRATED:
        report = fit_mod.fit_general_model(ticks, opts)
    else:
        report = fit_mod.fit_model([(t.mean_intensity, t.std_range) for t in ticks], opts)
    m = report.model
    _write_atomic(out / "model.json", fit_mod.fit_report_to_json(report))
    _write_atomic(out / "curve.csv", _curve_csv(m))
    print(
        f"a = {m.a:.6g}, b = {m.b:.6g}, c = {m.c:.6g} mm "
        f"({m.intensity_kind.value} intensities)"
    )
    print(
        f"converged = {report.converged} after {report.iterations} iterations, "
        f"cost = {report.final_cost:.6g} mm^2, "
        f"domain = [{m.intensity_domain[0]:.6g}, {m.intensity_domain[1]:.6g}]"
    )
    return m


def _evaluate(model: fit_mod.RangeVarianceModel, ticks: list, out: Path) -> None:
    report = evaluate_mod.evaluate_against_ticks(model, ticks)
    _write_atomic(out / "evaluation.csv", evaluate_mod.evaluation_report_to_csv(report))
    print(
        f"rmse = {report.rmse:.6g} mm, max |residual| = {report.max_abs_residual:.6g} mm, "
        f"{report.extrapolated_count} extrapolated ticks"
    )


def _vcm(ds: ingest.ScanDataset, model: fit_mod.RangeVarianceModel, args, out: Path) -> None:
    ang = evaluate_mod.AngularSigmas(args.sigma_vertical, args.sigma_horizontal)
    blocks = evaluate_mod.build_vcm(ds, model, ang)
    _write_atomic(out / "vcm.csv", evaluate_mod.vcm_to_csv(blocks))
    print(f"{len(blocks)} blocks -> {out / 'vcm.csv'}")


# ---- subcommand handlers ---------------------------------------------------------


def _cmd_simulate(args) -> int:
    _simulate(_sim_config(args.config, args.seed), Path(args.out))
    return 0


def _cmd_validate(args) -> int:
    ds = ingest.parse_profile_csv(Path(args.input))
    report = ingest.validate_dataset(ds)
    print(f"observations : {report.observation_count}")
    print(f"profiles     : {report.profile_count}")
    print(f"vertical span: [{report.vertical_angle_span[0]:.6g}, {report.vertical_angle_span[1]:.6g}] rad")
    print(f"intensity    : [{report.intensity_span[0]:.6g}, {report.intensity_span[1]:.6g}]")
    print(f"violations   : {report.violation_count}")
    for v in report.violations:
        print(f"  {v}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = _preprocess_config(args)
    _preprocess(ingest.parse_profile_csv(Path(args.input)), cfg, Path(args.out))
    return 0


def _cmd_calibrate(args) -> int:
    stats = preprocess.read_tick_stats_csv(_read_text(args.input))
    if not stats:
        raise EmptyStats(f"{args.input}: the tick table has no ticks")
    _calibrate(stats, args.r_ref, Path(args.out))
    return 0


def _cmd_fit(args) -> int:
    ticks = preprocess.read_tick_stats_csv(_read_text(args.input))
    if args.use_calibrated and not all(t.calibrated_intensity is not None for t in ticks):
        raise _UsageError("--use-calibrated needs a calibrated tick CSV as --input")
    kind = ingest.IntensityKind("calibrated" if args.use_calibrated else args.intensity_kind)
    _fit(ticks, args, kind, Path(args.out))
    return 0


def _cmd_evaluate(args) -> int:
    model = fit_mod.read_fit_report_json(_read_text(args.model)).model
    ticks = preprocess.read_tick_stats_csv(_read_text(args.ticks))
    out = Path(args.out)
    _evaluate(model, ticks, out)
    _write_atomic(out / "curve.csv", _curve_csv(model))
    return 0


def _cmd_compare(args) -> int:
    m1 = fit_mod.read_fit_report_json(_read_text(args.model1)).model
    m2 = fit_mod.read_fit_report_json(_read_text(args.model2)).model
    if not (0 < args.grid_min < args.grid_max):
        raise _UsageError("--grid-min and --grid-max must satisfy 0 < min < max")
    if args.grid_points < 2:
        raise _UsageError("--grid-points must be >= 2")
    grid = np.geomspace(args.grid_min, args.grid_max, args.grid_points)
    report = evaluate_mod.compare_models(m1, m2, grid)
    out = Path(args.out)
    _write_atomic(out / "comparison.csv", evaluate_mod.evaluation_report_to_csv(report))
    print(f"rmse = {report.rmse:.6g} mm, max |difference| = {report.max_abs_residual:.6g} mm")
    return 0


def _cmd_vcm(args) -> int:
    ds = ingest.parse_profile_csv(Path(args.input))
    model = fit_mod.read_fit_report_json(_read_text(args.model)).model
    _vcm(ds, model, args, Path(args.out))
    return 0


def _cmd_pipeline(args) -> int:
    if (args.sigma_vertical is None) != (args.sigma_horizontal is None):
        raise _UsageError("--sigma-vertical and --sigma-horizontal must be given together")
    pre_cfg = _preprocess_config(args)
    cfg = _sim_config(args.simulate, args.seed)
    out = Path(args.out)

    ds = _simulate(cfg, out)
    ticks = _preprocess(ds, pre_cfg, out)
    kind = ds.meta.intensity_kind
    if kind is ingest.IntensityKind.SCALED:
        r_ref = args.r_ref
        if r_ref is None and isinstance(cfg.scaling, simulate.InverseSquareScaling):
            r_ref = cfg.scaling.r_ref
        ticks = _calibrate(ticks, r_ref, out)
        kind = ingest.IntensityKind.CALIBRATED
    model = _fit(ticks, args, kind, out)
    _evaluate(model, ticks, out)
    if args.sigma_vertical is not None:
        _vcm(ds, model, args, out)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "preprocess": _cmd_preprocess,
    "calibrate": _cmd_calibrate,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "vcm": _cmd_vcm,
    "pipeline": _cmd_pipeline,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RangevarError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
