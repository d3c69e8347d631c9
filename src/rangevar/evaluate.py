"""Residual metrics, model comparison, and VCM assembly.

Residuals are predicted minus observed throughout. Ticks whose abscissa
falls outside a model's fitted intensity domain are evaluated anyway but
flagged as extrapolated, since variance models diverge quickly below
their observed intensity span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, EmptyStats, MissingColumn, NonPositiveIntensity
from .fit import RangeVarianceModel, evaluate_model
from .ingest import IntensityKind, ScanDataset, csv_text
from .preprocess import TickTable


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-tick residual columns plus the two summary metrics (mm).

    Row i of every column is one evaluated tick (or grid point, for model
    comparisons): tick_id (int64), intensity, observed_std and
    predicted_std (mm), residuals (mm, predicted - observed) and
    extrapolated (bool). Equality is identity; compare columns with numpy.
    """

    tick_id: np.ndarray
    intensity: np.ndarray
    observed_std: np.ndarray
    predicted_std: np.ndarray
    residuals: np.ndarray
    extrapolated: np.ndarray
    rmse: float
    max_abs_residual: float

    @property
    def extrapolated_count(self) -> int:
        return int(np.count_nonzero(self.extrapolated))


@dataclass(frozen=True)
class AngularSigmas:
    """Manufacturer-specified angular standard deviations, radians."""

    sigma_vertical: float
    sigma_horizontal: float

    def __post_init__(self):
        for sigma in (self.sigma_vertical, self.sigma_horizontal):
            if not (sigma > 0 and math.isfinite(sigma * sigma)):  # the VCM holds sigma**2
                raise ValueError(f"angular sigmas must be > 0 with a finite square, got {sigma!r}")


@dataclass(frozen=True)
class VcmBlocks:
    """Per-point diagonal 3x3 blocks over (range, vertical, horizontal).

    Range variances vary per point (mm**2, from the model); the angular
    variances (rad**2) are constant across the dataset. Off-diagonal
    terms are identically zero by construction.
    """

    var_range_mm2: np.ndarray
    var_vertical_rad2: float
    var_horizontal_rad2: float

    def __len__(self) -> int:
        return len(self.var_range_mm2)


def rmse(residuals) -> float:
    """Root mean square of a residual vector."""
    arr = np.asarray(residuals, dtype=float)
    if arr.size == 0:
        raise EmptyStats("no residuals")
    return float(np.sqrt(np.mean(arr**2)))


def max_abs_residual(residuals) -> float:
    """Largest absolute residual."""
    arr = np.asarray(residuals, dtype=float)
    if arr.size == 0:
        raise EmptyStats("no residuals")
    return float(np.max(np.abs(arr)))


def _report(tick_id, intensity, observed, predicted, inside) -> EvaluationReport:
    """The report of predicted minus observed; every argument is a numpy column."""
    residuals = predicted - observed
    return EvaluationReport(
        tick_id, intensity, observed, predicted, residuals, ~inside,
        rmse(residuals), max_abs_residual(residuals),
    )


def evaluate_against_ticks(m: RangeVarianceModel, ticks: TickTable) -> EvaluationReport:
    """Model-vs-observation residuals over tick statistics.

    Calibrated models are evaluated at calibrated intensities, all others
    at the recorded mean intensity; a calibrated model on an uncalibrated
    table raises MissingColumn. Out-of-domain ticks are kept and flagged
    extrapolated.
    """
    if not ticks:
        raise EmptyStats("no tick statistics to evaluate against")
    if m.intensity_kind is not IntensityKind.CALIBRATED:
        intensity = ticks.mean_intensity
    elif ticks.calibrated_intensity is None:
        raise MissingColumn("a calibrated model needs the tick table's calibrated_intensity column")
    else:
        intensity = ticks.calibrated_intensity
    bad = np.flatnonzero(~(intensity > 0))
    if bad.size:
        i = bad[0]
        raise NonPositiveIntensity(f"tick {int(ticks.tick_id[i])}: intensity {float(intensity[i])!r}")
    lo, hi = m.intensity_domain
    return _report(
        ticks.tick_id, intensity, ticks.std_range,
        evaluate_model(m, intensity), (lo <= intensity) & (intensity <= hi),
    )


def compare_models(
    m1: RangeVarianceModel, m2: RangeVarianceModel, grid
) -> EvaluationReport:
    """Pointwise model difference m1(I) - m2(I) over an intensity grid.

    The report's columns are reused: predicted_std holds m1, observed_std
    holds m2, tick_id is the grid index. A point is flagged extrapolated
    unless it lies inside both models' domains.
    """
    arr = np.array(grid, dtype=float)  # a copy: the report keeps it as its intensity column
    if arr.size == 0:
        raise EmptyGrid("empty intensity grid")
    (lo1, hi1), (lo2, hi2) = m1.intensity_domain, m2.intensity_domain
    inside = (lo1 <= arr) & (arr <= hi1) & (lo2 <= arr) & (arr <= hi2)
    return _report(
        np.arange(arr.size, dtype=np.int64), arr,
        evaluate_model(m2, arr), evaluate_model(m1, arr), inside,
    )


def build_vcm(ds: ScanDataset, m: RangeVarianceModel, ang: AngularSigmas) -> VcmBlocks:
    """One diagonal 3x3 block per observation, in dataset order.

    Range variance comes from the model at the observation's intensity
    (mm**2); angular variances are the squared manufacturer sigmas.
    """
    intensities = ds.intensity
    bad = np.nonzero(intensities <= 0)[0]
    if bad.size:
        raise NonPositiveIntensity(
            f"observation {bad[0]}: intensity {float(intensities[bad[0]])!r} must be > 0"
        )
    sigma = evaluate_model(m, intensities)
    return VcmBlocks(
        var_range_mm2=np.asarray(sigma, dtype=float) ** 2,
        var_vertical_rad2=ang.sigma_vertical**2,
        var_horizontal_rad2=ang.sigma_horizontal**2,
    )


# ---- CSV interfaces ----------------------------------------------------------

EVALUATION_HEADER = "tick_id,intensity,observed_std_mm,predicted_std_mm,residual_mm,extrapolated"
VCM_HEADER = "index,var_range_mm2,var_vert_rad2,var_horiz_rad2"


def evaluation_report_to_csv(report: EvaluationReport) -> str:
    """Per-tick rows plus a summary footer (as comment lines)."""
    columns = [report.tick_id, report.intensity, report.observed_std, report.predicted_std,
               report.residuals, report.extrapolated.astype(np.int64)]
    return csv_text([EVALUATION_HEADER], columns, [
        f"#rmse_mm={report.rmse!r}",
        f"#max_abs_residual_mm={report.max_abs_residual!r}",
        f"#extrapolated_count={report.extrapolated_count}",
    ])


def vcm_to_csv(blocks: VcmBlocks) -> str:
    """Per-point variance rows; the constant angular terms repeat."""
    variances = [blocks.var_range_mm2, blocks.var_vertical_rad2, blocks.var_horizontal_rad2]
    return csv_text([VCM_HEADER], [range(len(blocks)), *variances])
