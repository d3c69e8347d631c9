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

A calibrated table is a TickTable with the calibrated_intensity column,
which calibrate_ticks computes as one array expression; the tick table
codec in preprocess writes and reads that column. Raw-intensity datasets
never pass through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositiveRange, RangevarError
from .preprocess import TickTable, read_tick_stats_csv, tick_stats_to_csv

# The tick table has one codec; these names read and write calibrated tables.
calibrated_ticks_to_csv = tick_stats_to_csv
read_calibrated_ticks_csv = read_tick_stats_csv

# Python's float ** (libm pow), elementwise: it rounds some squares unlike x*x and
# np.square, and calibrate_intensity squares with it.
_square = np.frompyfunc(lambda x: x**2, 1, 1)


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


def calibrate_ticks(ticks: TickTable, cfg: CalibrationConfig) -> TickTable:
    """The table with its calibrated_intensity column set; every other column
    is passed through untouched. Where a tick fails a check, calibrate_intensity
    runs tick by tick and raises the first bad tick's error, naming the tick.
    """
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
            calibrated = ticks.mean_intensity * cfg.r_ref / _square(ticks.mean_range).astype(float)
        valid = bool((ticks.mean_range > 0).all() and np.isfinite(calibrated).all())
    except OverflowError:  # ** refuses a square past the float range
        valid = False
    if not valid:
        columns = (ticks.tick_id.tolist(), ticks.mean_intensity.tolist(), ticks.mean_range.tolist())
        for tick_id, mean_intensity, mean_range in zip(*columns):
            try:
                calibrate_intensity(mean_intensity, mean_range, cfg)
            except RangevarError as exc:
                raise type(exc)(f"tick {tick_id}: {exc}") from None
    return replace(ticks, calibrated_intensity=calibrated)
