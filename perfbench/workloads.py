"""The benchmark's workloads: seeded inputs, one timed call, and its checks.

Each workload builds its input from the seed during set-up, runs one
closed-loop iteration per call to ``iterate`` and checks every iteration's
outputs in ``check``. rangevar sees only the generated inputs. Calls go
through module attributes (``preprocess.preprocess``, ``cli.run``, ...) so
the tracer's wrappers see them.

Why these three (the same text is in BENCHMARK.json):

* pipeline_scaled: the write path users run end to end. Few ticks with
  many members and no scan parsing, so it is the no-change control for
  parser and per-tick screening changes.
* scan_files: the read path on an existing file. It parses the same text
  three times and writes the VCM with no simulation, so a parsing gain
  that costs serialization (or the reverse) shows against pipeline_scaled.
* many_ticks: per-tick Python overhead dominates: thousands of
  detect_outliers and scalar evaluate_model calls and no scan text I/O,
  so vectorized grouping, screening and evaluation pays off here.

Sizes. ``full`` is the size the workloads were specified at: 500k
observations for the first two, 800k for many_ticks. One full iteration
takes 5-12 s, too few samples for a steady timing in the run time the
benchmark has, so the timed and traced loops use ``timed``: a
twenty-fifth of the ticks per board, hence of the observations, with the
shape kept (members per tick, 2,000 and 40; the 80:1 tick-count ratio
between many_ticks and the other two; the mix of layers). peak_rss_mb
comes from one ``full`` iteration, where memory that grows with the
observation count is most of the process's resident set (about 280 MB
against some 50 MB at the timed size). ``smoke`` is for the benchmark's
own test.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

from rangevar import calibrate, cli, evaluate, fit, ingest, preprocess, simulate

K_SYSTEM = 1e7
TRUTH = (29853.0, -1.02, 0.08)  # sigma_r = a * I**b + c, mm
R_REF = 10.0
SIGMA_ANGULAR = "1e-5"  # rad, both angles

# Screening at 3 sigma trims the spread it keeps by up to this share.
SCREENING_BIAS = 0.04
# The smoke test checks that the tolerance trips when the truth is off by this factor.
PERTURBED_A_FACTOR = 1.25


@dataclass(frozen=True)
class Shape:
    boards: int
    ticks: int      # per board
    profiles: int   # members per tick
    outlier_fraction: float
    scaled: bool


FULL = {
    "pipeline_scaled": Shape(5, 50, 2000, 0.01, True),
    "scan_files": Shape(5, 50, 2000, 0.01, False),
    "many_ticks": Shape(40, 500, 40, 0.05, True),
}
TIMED_DIVISOR = 25  # timed ticks per board = full ticks per board / this
SMOKE = {
    "pipeline_scaled": Shape(5, 2, 1000, 0.01, True),
    "scan_files": Shape(5, 2, 1000, 0.01, False),
    "many_ticks": Shape(20, 20, 40, 0.05, True),
}
SIZES = ("full", "timed", "smoke")


def shape_of(workload: str, size: str) -> Shape:
    if size == "smoke":
        return SMOKE[workload]
    full = FULL[workload]
    return full if size == "full" else replace(full, ticks=full.ticks // TIMED_DIVISOR)


OUTLIER_MAGNITUDE_SIGMA = 8.0


def board_geometry(n: int) -> list[tuple[float, float]]:
    """(reflectivity, distance m) per board: distances 8-50 m, shuffled reflectivities."""
    span = max(n - 1, 1)
    return [
        (0.2 + 0.7 * ((3 * i) % n) / span, 8.0 * (50.0 / 8.0) ** (i / span)) for i in range(n)
    ]


def true_sigmas(shape: Shape, a_factor: float = 1.0) -> list[tuple[float, float]]:
    """(true intensity, true sigma mm) per board, computed here, not by rangevar."""
    a, b, c = TRUTH
    return [
        (K_SYSTEM * rho / d**2, a_factor * a * (K_SYSTEM * rho / d**2) ** b + c)
        for rho, d in board_geometry(shape.boards)
    ]


def sim_config(shape: Shape, seed: int) -> simulate.SimulationConfig:
    return simulate.SimulationConfig(
        k_system=K_SYSTEM,
        boards=tuple(
            simulate.Board(rho, d, 0.0, shape.ticks, shape.profiles)
            for rho, d in board_geometry(shape.boards)
        ),
        truth_model=TRUTH,
        scaling=simulate.InverseSquareScaling(R_REF) if shape.scaled else None,
        outlier_injection=simulate.OutlierInjection(shape.outlier_fraction, OUTLIER_MAGNITUDE_SIGMA),
        seed=seed,
    )


def sim_config_text(shape: Shape, seed: int) -> str:
    lines = [
        f"seed = {seed}",
        f"k_system = {K_SYSTEM!r}",
        f"truth_a = {TRUTH[0]!r}",
        f"truth_b = {TRUTH[1]!r}",
        f"truth_c = {TRUTH[2]!r}",
        f"scaling = {'inverse_square' if shape.scaled else 'none'}",
        f"r_ref = {R_REF!r}",
        f"outlier_fraction = {shape.outlier_fraction!r}",
        f"outlier_magnitude_sigma = {OUTLIER_MAGNITUDE_SIGMA!r}",
    ]
    for rho, d in board_geometry(shape.boards):
        lines.append(f"board = {rho!r} {d!r} 0.0 {shape.ticks} {shape.profiles}")
    return "\n".join(lines) + "\n"


def sigma_rtol(shape: Shape) -> float:
    """Allowed relative error of the fitted sigma at a board's true intensity.

    The screening bias plus four standard errors of a board's sample std,
    pooled over its ticks: 1 / sqrt(2 * ticks * (profiles - 1)).
    """
    return SCREENING_BIAS + 4.0 / math.sqrt(2 * shape.ticks * (shape.profiles - 1))


def model_problems(model: dict, shape: Shape, a_factor: float) -> list[str]:
    """Fitted sigma against the true sigma at each board's true intensity."""
    problems = []
    rtol = sigma_rtol(shape)
    for intensity, sigma in true_sigmas(shape, a_factor):
        fitted = model["a_mm_per_unit_pow_b"] * intensity ** model["b"] + model["c_mm"]
        if not abs(fitted - sigma) <= rtol * sigma:
            problems.append(
                f"sigma at I={intensity:.6g}: fitted {fitted:.6g} mm, true {sigma:.6g} mm"
            )
    return problems


def vcm_problems(vcm: bytes, n_obs: int) -> list[str]:
    rows = vcm.count(b"\n") - 1
    return [] if rows == n_obs else [f"vcm.csv has {rows} rows for {n_obs} observations"]


def read_dir(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run_cli(argv: list[str]) -> str:
    """cli.run with its stdout captured; a nonzero exit code is a failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"rangevar {argv[0]} exited with {code}")
    return buf.getvalue()


def dataset_bytes_per_obs(build) -> float:
    """Bytes the dataset returned by build() keeps alive, per observation."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return retained / len(ds)


class Workload:
    """Set-up happens in __init__; iterate() is the timed call."""

    def __init__(self, shape: Shape, seed: int, workdir: Path, a_factor: float = 1.0):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.a_factor = a_factor
        self.out = workdir / "out"
        self.n_obs = shape.boards * shape.ticks * shape.profiles

    def prepare(self) -> None:
        """Untimed: remove the previous iteration's outputs."""
        shutil.rmtree(self.out, ignore_errors=True)

    def iterate(self):
        raise NotImplementedError

    def artifacts(self, result) -> dict[str, bytes]:
        raise NotImplementedError

    def check(self, result, artifacts: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def bytes_written(self) -> int:
        """Bytes the CLI wrote into the output directory (0 when it is not used)."""
        return sum(p.stat().st_size for p in self.out.iterdir()) if self.out.is_dir() else 0

    def memory_dataset(self):
        """A fresh dataset as this workload's input path creates it."""
        return simulate.simulate_profiles(sim_config(self.shape, self.seed))[0]


class PipelineScaled(Workload):
    OUTPUTS = (
        "curve.csv", "evaluation.csv", "ground_truth.csv", "model.json",
        "scan.csv", "ticks.csv", "ticks_calibrated.csv", "vcm.csv",
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config = self.workdir / "sim.cfg"
        self.config.write_text(sim_config_text(self.shape, self.seed))

    def iterate(self):
        return run_cli([
            "pipeline", "--simulate", str(self.config), "--out", str(self.out),
            "--sigma-vertical", SIGMA_ANGULAR, "--sigma-horizontal", SIGMA_ANGULAR,
        ])

    def artifacts(self, result):
        return read_dir(self.out)

    def check(self, result, artifacts):
        if tuple(artifacts) != self.OUTPUTS:
            return [f"outputs {sorted(artifacts)} != {list(self.OUTPUTS)}"]
        model = json.loads(artifacts["model.json"])["model"]
        problems = model_problems(model, self.shape, self.a_factor)
        if model["intensity_kind"] != "calibrated":
            problems.append(f"model intensity_kind {model['intensity_kind']!r}")
        return problems + vcm_problems(artifacts["vcm.csv"], self.n_obs)


class ScanFiles(Workload):
    OUTPUTS = ("curve.csv", "model.json", "ticks.csv", "vcm.csv")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scan = self.workdir / "scan.csv"
        if not self.scan.exists():  # else written by an earlier process (run.py's full-size step)
            ds, _ = simulate.simulate_profiles(sim_config(self.shape, self.seed))
            self.scan.write_text(ingest.serialize_dataset(ds))

    def iterate(self):
        scan, out = str(self.scan), str(self.out)
        validation = run_cli(["validate", "--input", scan])
        run_cli(["preprocess", "--input", scan, "--out", out])
        run_cli(["fit", "--input", str(self.out / "ticks.csv"), "--out", out])
        run_cli([
            "vcm", "--input", scan, "--model", str(self.out / "model.json"),
            "--sigma-vertical", SIGMA_ANGULAR, "--sigma-horizontal", SIGMA_ANGULAR, "--out", out,
        ])
        return validation

    def artifacts(self, result):
        files = read_dir(self.out)
        files["validate.txt"] = result.encode()
        return files

    def check(self, result, artifacts):
        written = tuple(name for name in artifacts if name != "validate.txt")
        if written != self.OUTPUTS:
            return [f"outputs {sorted(written)} != {list(self.OUTPUTS)}"]
        problems = []
        for expected in (f"observations : {self.n_obs}\n", "violations   : 0\n"):
            if expected not in result:
                problems.append(f"validate output lacks {expected.strip()!r}")
        model = json.loads(artifacts["model.json"])["model"]
        problems += model_problems(model, self.shape, self.a_factor)
        return problems + vcm_problems(artifacts["vcm.csv"], self.n_obs)

    def memory_dataset(self):
        return ingest.parse_profile_csv(self.scan)


class ManyTicks(Workload):
    CONFIG = preprocess.PreprocessConfig(max_passes=3)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dataset, _ = simulate.simulate_profiles(sim_config(self.shape, self.seed))
        self.ticks_file = self.workdir / "ticks_calibrated.csv"

    def prepare(self):
        self.ticks_file.unlink(missing_ok=True)

    def iterate(self):
        stats = preprocess.preprocess(self.dataset, self.CONFIG)
        calibrated = calibrate.calibrate_ticks(stats, calibrate.CalibrationConfig(R_REF))
        report = fit.fit_general_model(calibrated)
        evaluation = evaluate.evaluate_against_ticks(report.model, calibrated)
        self.ticks_file.write_text(calibrate.calibrated_ticks_to_csv(calibrated))
        read_back = calibrate.read_calibrated_ticks_csv(self.ticks_file.read_text())
        return calibrated, report, evaluation, read_back

    def artifacts(self, result):
        _, report, evaluation, _ = result
        return {
            "evaluation.csv": evaluate.evaluation_report_to_csv(evaluation).encode(),
            "model.json": fit.fit_report_to_json(report).encode(),
            "ticks_calibrated.csv": self.ticks_file.read_bytes(),
        }

    def check(self, result, artifacts):
        calibrated, report, evaluation, read_back = result
        problems = []
        if read_back != calibrated:
            problems.append("calibrated tick CSV does not read back to the same ticks")
        if len(evaluation.residuals) != len(calibrated) or not math.isfinite(evaluation.rmse):
            problems.append("evaluation does not cover every tick with a finite rmse")
        model = json.loads(artifacts["model.json"])["model"]
        return problems + model_problems(model, self.shape, self.a_factor)


WORKLOADS = {
    "pipeline_scaled": PipelineScaled,
    "scan_files": ScanFiles,
    "many_ticks": ManyTicks,
}

# Modules the tracer wraps, by the names spans.TIMED uses.
MODULES = {
    "simulate": simulate,
    "ingest": ingest,
    "preprocess": preprocess,
    "calibrate": calibrate,
    "fit": fit,
    "evaluate": evaluate,
    "cli": cli,
}
