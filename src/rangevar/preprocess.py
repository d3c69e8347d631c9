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

All ticks of a pass are screened together, and the survivors reduced
together, as (ticks, members) matrices of equal-length ticks with one
row-wise numpy reduction per statistic. On numpy 2.4.6 a contiguous row
reduces with the same pairwise summation as the 1-D call, so every value
is bit-identical to computing its tick alone; this rests on numpy's
internals, and tests/test_preprocess.py checks it against the per-tick
reference (test_preprocess_equals_the_per_tick_reference).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTicks, MalformedRow, NoSurvivingTicks, TooFewValues
from .ingest import ScanDataset

# A boolean array aligned with a TickGroup's members; True = exclude.
OutlierMask = np.ndarray

# Members stacked into one (ticks, members) block at most, so that a pass
# never holds one matrix of every member at once. Peak RSS of one full-size
# benchmark iteration, medians of 6 runs (BENCH_5.json, block_cap): per-tick
# loop 196.3 MB on scan_files and 138.6 MB on many_ticks; this cap 196.5 and
# 138.6 MB; one block per member count 223.0 and 140.7 MB.
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
        if self.tick_step is not None and not self.tick_step > 0:
            raise ValueError("tick_step must be > 0")


@dataclass(frozen=True)
class TickGroup:
    """All observations sharing one vertical tick, in file order."""

    tick_id: int
    vertical_angle_center: float  # rad
    ranges: np.ndarray            # m
    intensities: np.ndarray       # dimensionless

    def __len__(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True)
class TickStats:
    """Reduced statistics of one surviving tick.

    calibrated_intensity is None until calibrate.calibrate_ticks maps
    the mean (scaled) intensity to a reference range.
    """

    tick_id: int
    vertical_angle_center: float  # rad
    mean_intensity: float         # dimensionless, as recorded
    mean_range: float             # m
    std_range: float              # mm (the only mm conversion in the pipeline)
    count: int
    calibrated_intensity: float | None = None


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
    gaps = np.diff(distinct)
    gaps = gaps[gaps > 0]
    if gaps.size == 0:
        raise DegenerateTicks("cannot estimate tick step: no positive angle gaps")
    return float(np.median(gaps))


def group_by_vertical_tick(ds: ScanDataset, cfg: PreprocessConfig) -> list[TickGroup]:
    """Partition observations into TickGroups sorted by angle center.

    Every observation lands in exactly one group; within a group the
    original file order is kept. Tick ids are ordinal (0, 1, ...) in
    ascending center order for both modes.
    """
    if len(ds) == 0:
        raise TooFewValues("empty dataset")
    angles, ranges, intensities = ds.vertical_angle, ds.range, ds.intensity

    if cfg.tick_mode is TickMode.EXPLICIT_COLUMN:
        centers, inverse = np.unique(angles, return_inverse=True)
    else:
        step = cfg.tick_step if cfg.tick_step is not None else _estimate_step(angles)
        keys = np.round(angles / step).astype(np.int64)
        distinct_keys, inverse = np.unique(keys, return_inverse=True)
        centers = distinct_keys * step

    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(len(centers) + 1)).tolist()
    ranges, intensities = ranges[order], intensities[order]
    ranges.flags.writeable = intensities.flags.writeable = False
    return [
        TickGroup(
            tick_id=tick_id,
            vertical_angle_center=float(centers[tick_id]),
            ranges=ranges[lo:hi],
            intensities=intensities[lo:hi],
        )
        for tick_id, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
    ]


def _blocks(groups: list[TickGroup]):
    """Equal-length groups stacked into (rows, members) matrices.

    Yields (positions in groups, ranges block, intensities block). A
    block holds at most BLOCK_MEMBERS members, or one row when a single
    group is longer.
    """
    by_length: dict[int, list[int]] = {}
    for position, group in enumerate(groups):
        by_length.setdefault(len(group), []).append(position)
    for n, positions in by_length.items():
        rows = max(1, BLOCK_MEMBERS // n)
        for start in range(0, len(positions), rows):
            chunk = positions[start:start + rows]
            yield (
                chunk,
                np.stack([groups[p].ranges for p in chunk]),
                np.stack([groups[p].intensities for p in chunk]),
            )


def detect_outliers(
    groups: TickGroup | list[TickGroup], cfg: PreprocessConfig
) -> OutlierMask | list[OutlierMask]:
    """Boolean mask of members to exclude, per the dual mean/median rule.

    Given one TickGroup, returns its mask; given a list, returns one mask
    per group, in order, computed together from stacked equal-length
    groups. Every group needs >= 2 members. Flags on either channel
    (range or intensity) mark the member: a corrupt return corrupts both
    uses of the tick.
    """
    single = isinstance(groups, TickGroup)
    if single:
        groups = [groups]
    for group in groups:
        if len(group) < 2:
            raise TooFewValues(f"tick {group.tick_id}: need >= 2 members, got {len(group)}")
    k = cfg.sigma_multiplier
    masks: list[OutlierMask] = [None] * len(groups)
    for positions, *channels in _blocks(groups):
        flags = np.zeros(channels[0].shape, dtype=bool)
        for values in channels:
            mean = values.mean(axis=1)
            median = np.median(values, axis=1)
            flags |= np.abs(values - mean[:, None]) > k * _spread(values, mean)[:, None]
            flags |= np.abs(values - median[:, None]) > k * _spread(values, median)[:, None]
        for position, row in zip(positions, flags):
            masks[position] = row
    return masks[0] if single else masks


def preprocess(ds: ScanDataset, cfg: PreprocessConfig = PreprocessConfig()) -> list[TickStats]:
    """Group, screen, filter, and reduce a dataset to per-tick statistics.

    Pipeline: group_by_vertical_tick -> max_passes rounds of
    detect_outliers with batch removal -> drop ticks with fewer than
    min_tick_count members -> TickStats with std_range in millimeters.
    Each pass calls detect_outliers once, with the list of ticks still
    being screened; a tick leaves that list when a pass flags nothing in
    it or fewer than 2 members remain.
    """
    groups = group_by_vertical_tick(ds, cfg)
    active = [g for g in groups if len(g) >= 2]
    for _ in range(cfg.max_passes):
        if not active:
            break
        screened = []
        for group, mask in zip(active, detect_outliers(active, cfg)):
            if mask.any():
                keep = ~mask
                group = TickGroup(
                    group.tick_id, group.vertical_angle_center,
                    group.ranges[keep], group.intensities[keep],
                )
                groups[group.tick_id] = group
                if len(group) >= 2:
                    screened.append(group)
        active = screened

    kept = [g for g in groups if len(g) >= cfg.min_tick_count]
    if not kept:
        raise NoSurvivingTicks(
            f"no tick kept >= {cfg.min_tick_count} members after screening"
        )
    stats: list[TickStats] = [None] * len(kept)
    for positions, ranges, intensities in _blocks(kept):
        mean_range = ranges.mean(axis=1)
        std_mm = _spread(ranges, mean_range) * 1000.0
        rows = zip(positions, intensities.mean(axis=1).tolist(), mean_range.tolist(), std_mm.tolist())
        for position, mean_intensity, mean_r, std_r in rows:
            g = kept[position]
            stats[position] = TickStats(
                g.tick_id, g.vertical_angle_center, mean_intensity, mean_r, std_r, len(g)
            )
    return stats


# ---- CSV interface -----------------------------------------------------------

TICK_STATS_HEADER = "tick_id,vertical_angle_center,mean_intensity,mean_range_m,std_range_mm,count"
CALIBRATED_HEADER = TICK_STATS_HEADER + ",calibrated_intensity"


def tick_stats_to_csv(stats: list[TickStats]) -> str:
    """Render TickStats rows as CSV with round-trip float formatting.

    Calibrated ticks add the calibrated_intensity column. A table is
    calibrated throughout or not at all, so a mixed list is refused.
    """
    calibrated = sum(s.calibrated_intensity is not None for s in stats)
    if 0 < calibrated < len(stats):
        raise ValueError(
            f"{calibrated} of {len(stats)} ticks are calibrated; a tick table needs all or none"
        )
    lines = [CALIBRATED_HEADER if calibrated else TICK_STATS_HEADER]
    for s in stats:
        line = (
            f"{s.tick_id},{s.vertical_angle_center!r},{s.mean_intensity!r},"
            f"{s.mean_range!r},{s.std_range!r},{s.count}"
        )
        lines.append(f"{line},{s.calibrated_intensity!r}" if calibrated else line)
    lines.append("")
    return "\n".join(lines)


def read_tick_stats_csv(text: str) -> list[TickStats]:
    """Parse the tick_stats_to_csv format back into TickStats rows.

    The header chooses the layout, with or without calibrated_intensity.
    Blank lines are skipped. A bad header, field count or number raises
    MalformedRow naming its 1-based line.
    """
    numbered = ((n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1))
    lines = ((n, ln) for n, ln in numbered if ln)
    header_line, header = next(lines, (1, ""))
    if header not in (TICK_STATS_HEADER, CALIBRATED_HEADER):
        raise MalformedRow(header_line, "not a tick statistics CSV (bad or missing header)")
    width = header.count(",") + 1
    stats = []
    for n, ln in lines:
        f = ln.split(",")
        if len(f) != width:
            raise MalformedRow(n, f"expected {width} fields, got {len(f)}")
        try:
            stats.append(
                TickStats(
                    int(f[0]), float(f[1]), float(f[2]), float(f[3]), float(f[4]), int(f[5]),
                    float(f[6]) if width == 7 else None,
                )
            )
        except ValueError as exc:
            raise MalformedRow(n, str(exc)) from None
    return stats
