"""Per-tick statistics for profile scans.

Observations are grouped by vertical tick across all profiles, screened
for outliers with a dual mean/median rule, filtered by a minimum member
count, and reduced to per-tick statistics: mean intensity, mean range
(meters), and the range standard deviation reported in millimeters.

The outlier rule flags a member when, in EITHER the range or the
intensity channel, its absolute deviation from the channel mean exceeds
sigma_multiplier times the standard deviation about the mean, OR its
absolute deviation from the channel median exceeds sigma_multiplier
times the standard deviation about the median. Comparisons are strict,
so constant channels never flag. Statistics are frozen per pass: all
flags of one pass are computed from the same statistics, then flagged
members are removed together.

Ticks are held as columns, not as objects: a TickGrouping while they are
screened, a TickTable once reduced. All ticks of a pass are screened
together, and the survivors reduced together, as (ticks, members) matrices
of equal-count ticks, with one row-wise numpy reduction per statistic. On
numpy 2.4.6 a contiguous row reduces with the same pairwise summation as
the 1-D call, so every value is bit-identical to computing its tick alone;
this rests on numpy's internals, and tests/test_preprocess.py checks it
against the per-tick reference (test_preprocess_equals_the_per_tick_reference).

The TickTable is what calibrate, fit and evaluate take and what the tick
table codec at the end of this module writes and reads, in the layout and
with the checks of ingest.TICKS; no stage reads its TickStats rows.
"""

from __future__ import annotations

import enum
import math
from itertools import repeat
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTicks, MalformedRow, NoSurvivingTicks, TooFewValues
from .ingest import TICKS, ScanDataset, csv_text, read_table

# Members gathered into one (ticks, members) block at most: one block per member count
# raised the full-size scan_files peak RSS from 196.5 to 223.0 MB (BENCH_5.json, block_cap).
BLOCK_MEMBERS = 65_536


class TickMode(enum.Enum):
    """How observations map to vertical ticks.

    EXPLICIT_COLUMN groups by exact vertical-angle equality (encoder
    exports repeat tick angles bit-identically). QUANTIZE_BY_STEP assigns
    each angle to the nearest integer multiple of a tick step, which
    tolerates jitter smaller than half a step.
    """

    EXPLICIT_COLUMN = "explicit"
    QUANTIZE_BY_STEP = "quantize"


@dataclass(frozen=True)
class PreprocessConfig:
    """Screening and grouping parameters.

    max_passes is the number of outlier screening passes (0 disables
    screening entirely). tick_step is only consulted for
    QUANTIZE_BY_STEP; when absent the step is estimated as the median
    positive gap between sorted distinct vertical angles, which is exact
    for encoder-quantized angles. Continuously jittered angles need an
    explicit tick_step because every gap then reflects jitter, not step.
    """

    sigma_multiplier: float = 3.0
    min_tick_count: int = 30
    tick_mode: TickMode = TickMode.QUANTIZE_BY_STEP
    tick_step: float | None = None
    max_passes: int = 1

    def __post_init__(self):
        if not self.sigma_multiplier > 0:
            raise ValueError("sigma_multiplier must be > 0")
        if self.min_tick_count < 2:
            raise ValueError("min_tick_count must be >= 2")
        if self.max_passes < 0:
            raise ValueError("max_passes must be >= 0")
        if self.tick_step is not None and not (math.isfinite(self.tick_step) and self.tick_step > 0):
            raise ValueError(f"tick_step must be finite and > 0, got {self.tick_step!r}")


def _read_only(values, dtype) -> np.ndarray:
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False  # on the view: the caller's array stays writeable
    return column


@dataclass(frozen=True, eq=False)
class TickGrouping:
    """Observations grouped by vertical tick, as read-only columns.

    tick_id (int64), center (float64, rad) and count (int64) hold one row per
    tick, in ascending center order; ranges (m) and intensities hold every
    member in tick order, file order kept within a tick. len() is the tick
    count; equality is identity."""

    tick_id: np.ndarray
    center: np.ndarray
    count: np.ndarray
    ranges: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        for field, dtype in zip(fields(self), (np.int64, float, np.int64, float, float)):
            object.__setattr__(self, field.name, _read_only(getattr(self, field.name), dtype))
        if not (len(self.tick_id) == len(self.center) == len(self.count)
                and self.count.sum() == len(self.ranges) == len(self.intensities)):
            raise ValueError("tick columns must share one length and counts must sum to the member count")

    def __len__(self) -> int:
        return len(self.tick_id)

    def select(self, ticks: np.ndarray) -> TickGrouping:
        """The ticks where the boolean array ticks is True, members included."""
        if ticks.all():
            return self
        members = np.repeat(ticks, self.count)
        return TickGrouping(self.tick_id[ticks], self.center[ticks], self.count[ticks],
                            self.ranges[members], self.intensities[members])


class TickStats(NamedTuple):
    """One row of a TickTable, as Python values: what iterating a table yields."""

    tick_id: int
    vertical_angle_center: float  # rad
    mean_intensity: float         # dimensionless, as recorded
    mean_range: float             # m
    std_range: float              # mm (the only mm conversion in the pipeline)
    count: int
    calibrated_intensity: float | None = None


@dataclass(frozen=True, eq=False)
class TickTable:
    """Reduced statistics of the surviving ticks, as read-only columns.

    Row i of every column is one tick, of its ingest.TICKS dtype:
    vertical_angle_center in rad, mean_intensity as recorded, mean_range in
    m and std_range in mm (the only mm conversion in the pipeline).
    calibrated_intensity is None until calibrate.calibrate_ticks
    adds the column, so a table is calibrated throughout or not at all.
    len() is the tick count; iterating yields TickStats rows; tables are
    equal when their columns are equal by value.
    """

    tick_id: np.ndarray
    vertical_angle_center: np.ndarray
    mean_intensity: np.ndarray
    mean_range: np.ndarray
    std_range: np.ndarray
    count: np.ndarray
    calibrated_intensity: np.ndarray | None = None

    def __post_init__(self):
        for field, column in zip(fields(self), TICKS.columns):
            if getattr(self, field.name) is not None:
                object.__setattr__(self, field.name, _read_only(getattr(self, field.name), column.dtype))
        shapes = [column.shape for column in self._columns()]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"tick columns must be 1-D and of one length, got shapes {shapes}")

    def _columns(self) -> list[np.ndarray]:
        columns = [getattr(self, field.name) for field in fields(self)]
        return columns if self.calibrated_intensity is not None else columns[:-1]

    def __len__(self) -> int:
        return len(self.tick_id)

    def __iter__(self):
        """The ticks as TickStats rows of Python values, built as they are read."""
        columns = (getattr(self, name) for name in TickStats._fields)
        rows = zip(*(repeat(None) if c is None else c.tolist() for c in columns))
        return map(tuple.__new__, repeat(TickStats), rows)  # TickStats._make, without its call

    def __eq__(self, other):
        if not isinstance(other, TickTable):
            return NotImplemented
        mine, theirs = self._columns(), other._columns()
        return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


def _spread(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row-wise standard deviation of a (rows, n) block about per-row centers, n-1 divisor."""
    return np.sqrt(np.sum((values - centers[:, None]) ** 2, axis=1) / (values.shape[1] - 1))


def _one_row(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(1, -1)
    if arr.size < 2:
        raise TooFewValues(f"need >= 2 values, got {arr.size}")
    return arr


def std_about_mean(values) -> float:
    """Sample standard deviation about the mean, n-1 divisor."""
    arr = _one_row(values)
    return float(_spread(arr, arr.mean(axis=1))[0])


def std_about_median(values) -> float:
    """Standard deviation about the median, n-1 divisor.

    The median of an even-length list is the midpoint of the two central
    order statistics.
    """
    arr = _one_row(values)
    return float(_spread(arr, np.median(arr, axis=1))[0])


def _estimate_step(angles: np.ndarray) -> float:
    distinct = np.unique(angles)
    if distinct.size < 2:
        raise DegenerateTicks("cannot estimate tick step: all vertical angles identical")
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past the float range, refused below
        step = float(np.median(np.diff(distinct)))  # distinct is sorted and unique, so every gap is > 0
    if not math.isfinite(step):
        raise DegenerateTicks(f"cannot estimate tick step: the median angle gap is {step!r}")
    return step


def group_by_vertical_tick(ds: ScanDataset, cfg: PreprocessConfig) -> TickGrouping:
    """Partition observations into ticks sorted by angle center.

    Every observation lands in exactly one tick; within a tick the
    original file order is kept. Tick ids are ordinal (0, 1, ...) in
    ascending center order for both modes. A quantize step, given or
    estimated, for which the largest |angle| / step does not fit an
    int64 raises DegenerateTicks.
    """
    if len(ds) == 0:
        raise TooFewValues("empty dataset")
    angles = ds.vertical_angle
    if cfg.tick_mode is TickMode.EXPLICIT_COLUMN:
        # np.unique, not a stable sort: it picks the center of a tick holding 0.0 and -0.0
        centers, inverse, count = np.unique(angles, return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
    else:
        step = cfg.tick_step if cfg.tick_step is not None else _estimate_step(angles)
        with np.errstate(over="ignore"):  # a tiny step overflows to inf, refused below
            keys = np.round(angles / step)
        if not max(keys.max(), -keys.min()) < 2.0**63:
            raise DegenerateTicks(f"tick step {step!r} rad: the largest |angle| / step overflows int64")
        keys = keys.astype(np.int64)  # rebinding frees the float keys before the sort below
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        count = np.diff(first, append=len(keys))
        centers = keys[first] * step

    return TickGrouping(np.arange(len(centers)), centers, count, ds.range[order], ds.intensity[order])


def _blocks(ticks: TickGrouping):
    """Equal-count ticks as (positions, members, ranges, intensities) blocks: the
    block's ticks, all of count n, their members' index in the member columns and
    two (rows, n) matrices, views when the ticks are consecutive. A block holds
    at most BLOCK_MEMBERS members, or one row when a tick is longer."""
    count = ticks.count
    starts = np.cumsum(count) - count
    order = np.argsort(count, kind="stable")
    edges = np.flatnonzero(np.diff(count[order], prepend=-1)).tolist() + [len(order)]
    for lo, hi in zip(edges, edges[1:]):
        n = int(count[order[lo]])
        rows = max(1, BLOCK_MEMBERS // n)
        for first in range(lo, hi, rows):
            positions = order[first:min(hi, first + rows)]
            if positions[-1] - positions[0] == len(positions) - 1:  # consecutive ticks
                start = int(starts[positions[0]])
                members = slice(start, start + len(positions) * n)
            else:
                members = (starts[positions, None] + np.arange(n)).ravel()
            yield (positions, members, ticks.ranges[members].reshape(-1, n),
                   ticks.intensities[members].reshape(-1, n))


def detect_outliers(ticks: TickGrouping, cfg: PreprocessConfig) -> np.ndarray:
    """One flag per member of ticks, set on the members the dual rule excludes.

    Equal-count ticks are screened together; every tick needs >= 2 members. A
    flag on either channel marks the member: a corrupt return corrupts both uses.
    """
    short = np.flatnonzero(ticks.count < 2)
    if short.size:
        raise TooFewValues(f"tick {ticks.tick_id[short[0]]}: need >= 2 members, got {ticks.count[short[0]]}")
    k = cfg.sigma_multiplier
    flags = np.zeros(len(ticks.ranges), dtype=bool)
    for _, members, *channels in _blocks(ticks):
        block = np.zeros(channels[0].shape, dtype=bool)
        for values in channels:
            mean = values.mean(axis=1)
            median = np.median(values, axis=1)
            block |= np.abs(values - mean[:, None]) > k * _spread(values, mean)[:, None]
            block |= np.abs(values - median[:, None]) > k * _spread(values, median)[:, None]
        flags[members] = block.ravel()
    return flags


def preprocess(ds: ScanDataset, cfg: PreprocessConfig = PreprocessConfig()) -> TickTable:
    """Group, screen, filter, and reduce a dataset to per-tick statistics.

    Pipeline: group_by_vertical_tick -> max_passes rounds of detect_outliers
    with batch removal -> drop ticks with fewer than min_tick_count members ->
    a TickTable with std_range in millimeters. Each pass calls detect_outliers
    once, with the ticks still being screened; a tick leaves them when a pass
    flags nothing in it or fewer than 2 members remain.
    """
    ticks = group_by_vertical_tick(ds, cfg)
    active = ticks.count >= 2
    for _ in range(cfg.max_passes):
        if not active.any():
            break
        flagged = np.zeros(len(ticks.ranges), dtype=bool)
        flagged[np.repeat(active, ticks.count)] = detect_outliers(ticks.select(active), cfg)
        owners = np.searchsorted(np.cumsum(ticks.count), np.flatnonzero(flagged), side="right")
        removed = np.bincount(owners, minlength=len(ticks))
        ticks = TickGrouping(ticks.tick_id, ticks.center, ticks.count - removed,
                             ticks.ranges[~flagged], ticks.intensities[~flagged])
        active = (removed > 0) & (ticks.count >= 2)

    ticks = ticks.select(ticks.count >= cfg.min_tick_count)
    if not len(ticks):
        raise NoSurvivingTicks(f"no tick kept >= {cfg.min_tick_count} members after screening")
    mean_intensity, mean_range, std_mm = np.empty((3, len(ticks)))
    for positions, _, ranges, intensities in _blocks(ticks):
        mean_intensity[positions] = intensities.mean(axis=1)
        mean_range[positions] = mean = ranges.mean(axis=1)
        std_mm[positions] = _spread(ranges, mean) * 1000.0
    return TickTable(ticks.tick_id, ticks.center, mean_intensity, mean_range, std_mm, ticks.count)


# ---- CSV interface -----------------------------------------------------------

CALIBRATED_HEADER = ",".join(TICKS.names)
TICK_STATS_HEADER = ",".join(TICKS.names[:-1])


def tick_stats_to_csv(ticks: TickTable) -> str:
    """Render a TickTable as CSV with round-trip float formatting; a
    calibrated table adds the calibrated_intensity column."""
    calibrated = ticks.calibrated_intensity is not None
    return csv_text([CALIBRATED_HEADER if calibrated else TICK_STATS_HEADER], ticks._columns())


def read_tick_stats_csv(text: str) -> TickTable:
    """Parse the tick_stats_to_csv format back into a TickTable.

    The header chooses the layout, with or without calibrated_intensity.
    Blank lines are skipped. A bad header, a bad field count or a field that
    fails its ingest.TICKS check raises MalformedRow naming its 1-based line.
    """
    lines = text.splitlines()
    start = next((n for n, ln in enumerate(lines) if ln.strip()), 0)
    header = lines[start].strip() if lines else ""
    if header not in (TICK_STATS_HEADER, CALIBRATED_HEADER):
        raise MalformedRow(start + 1, "not a tick statistics CSV (bad or missing header)")
    columns, _ = read_table(lines, start + 1, TICKS, header.split(","))
    return TickTable(*columns)
