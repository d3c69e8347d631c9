"""Intensity-based range variance models for terrestrial laser scanners.

The pipeline: parse profile scans (ingest), reduce them to per-tick
statistics with outlier screening (preprocess), optionally calibrate
scaled intensities to a reference range (calibrate), estimate
sigma_r = a * I**b + c by damped least squares (fit), compute residual
metrics and per-point variance blocks (evaluate), and generate synthetic
scans with known truth for end-to-end verification (simulate). The cli
module wires everything into subcommands.
"""

from .calibrate import CalibrationConfig, calibrate_intensity, calibrate_ticks
from .errors import RangevarError
from .evaluate import (
    AngularSigmas,
    EvaluationReport,
    VcmBlocks,
    build_vcm,
    compare_models,
    evaluate_against_ticks,
    max_abs_residual,
    rmse,
)
from .fit import (
    FitOptions,
    FitReport,
    RangeVarianceModel,
    evaluate_model,
    fit_general_model,
    fit_model,
    initial_guess,
    model_jacobian,
)
from .ingest import (
    IntensityKind,
    ScanDataset,
    ScanMeta,
    ValidationReport,
    parse_profile_csv,
    serialize_dataset,
    validate_dataset,
)
# The preprocess() entry point stays under its module
# (rangevar.preprocess.preprocess) so the submodule name is not shadowed.
from .preprocess import (
    PreprocessConfig,
    TickGrouping,
    TickMode,
    TickStats,
    TickTable,
    detect_outliers,
    group_by_vertical_tick,
    std_about_mean,
    std_about_median,
)
from .simulate import (
    Board,
    CustomMonotoneScaling,
    GroundTruth,
    InverseSquareScaling,
    OutlierInjection,
    SimulationConfig,
    radar_intensity,
    simulate_profiles,
)

__version__ = "0.1.0"

__all__ = [
    "AngularSigmas",
    "Board",
    "CalibrationConfig",
    "CustomMonotoneScaling",
    "EvaluationReport",
    "FitOptions",
    "FitReport",
    "GroundTruth",
    "IntensityKind",
    "InverseSquareScaling",
    "OutlierInjection",
    "PreprocessConfig",
    "RangeVarianceModel",
    "RangevarError",
    "ScanDataset",
    "ScanMeta",
    "SimulationConfig",
    "TickGrouping",
    "TickMode",
    "TickStats",
    "TickTable",
    "ValidationReport",
    "VcmBlocks",
    "build_vcm",
    "calibrate_intensity",
    "calibrate_ticks",
    "compare_models",
    "detect_outliers",
    "evaluate_against_ticks",
    "evaluate_model",
    "fit_general_model",
    "fit_model",
    "group_by_vertical_tick",
    "initial_guess",
    "max_abs_residual",
    "model_jacobian",
    "parse_profile_csv",
    "radar_intensity",
    "rmse",
    "serialize_dataset",
    "simulate_profiles",
    "std_about_mean",
    "std_about_median",
    "validate_dataset",
]
