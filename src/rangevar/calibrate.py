"""Reference-range calibration of scaled intensities.

Scanners that export scaled intensities bake a distance dependence into
the values, so one variance model cannot span several distances. The
calibration maps each tick's mean scaled intensity to a common reference
range r_ref:

    calibrated = mean_intensity * r_ref / mean_range**2

The formula is applied exactly as written. Note that it is dimensionally
inhomogeneous (r_ref enters to the first power over squared range, so
the output carries units of intensity per meter); a squared r_ref would
be unit-free, but the transform as defined is what the rest of the
pipeline inverts and expects.

A calibrated tick is a TickStats with calibrated_intensity set; the tick
table codec in preprocess writes and reads that column. Raw-intensity
datasets never pass through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveRange, RangevarError
from .preprocess import TickStats, read_tick_stats_csv, tick_stats_to_csv

# The tick table has one codec; these names read and write calibrated tables.
calibrated_ticks_to_csv = tick_stats_to_csv
read_calibrated_ticks_csv = read_tick_stats_csv


@dataclass(frozen=True)
class CalibrationConfig:
    """Reference range for the calibration, meters, > 0."""

    r_ref: float

    def __post_init__(self):
        if not (math.isfinite(self.r_ref) and self.r_ref > 0):
            raise ValueError(f"r_ref must be positive and finite, got {self.r_ref!r}")


def calibrate_intensity(mean_intensity: float, mean_range: float, cfg: CalibrationConfig) -> float:
    """Map one mean scaled intensity to the reference range.

    A mean_range that is not > 0 raises NonPositiveRange; a squared range
    or a result outside the float range raises RangevarError.
    """
    if not mean_range > 0:
        raise NonPositiveRange(f"mean_range must be > 0, got {mean_range!r}")
    try:
        calibrated = mean_intensity * cfg.r_ref / mean_range**2
    except (OverflowError, ZeroDivisionError):
        calibrated = math.inf
    if not math.isfinite(calibrated):
        raise RangevarError(
            f"calibrating intensity {mean_intensity!r} at {mean_range!r} m leaves the float range"
        )
    return calibrated


def calibrate_ticks(stats: list[TickStats], cfg: CalibrationConfig) -> list[TickStats]:
    """Set every tick's calibrated_intensity, preserving order.

    All other fields are passed through untouched; an error names its tick.
    """
    out: list[TickStats] = []
    for s in stats:
        try:
            calibrated = calibrate_intensity(s.mean_intensity, s.mean_range, cfg)
        except RangevarError as exc:
            raise type(exc)(f"tick {s.tick_id}: {exc}") from None
        out.append(TickStats(s.tick_id, s.vertical_angle_center, s.mean_intensity, s.mean_range,
                             s.std_range, s.count, calibrated))
    return out
