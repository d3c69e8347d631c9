"""Independent brute-force reference implementations.

Everything here is written against the defining formulas with math.fsum
and plain Python loops, deliberately avoiding numpy reductions, so the
library can be checked against a second, independent computation path.
ref_parse_scan reads the scan CSV row by row from the rules stated in
rangevar.ingest's module docstring, with no blocks and no numpy.

ref_preprocess, like ref_simulate_rows, uses numpy: it is the per-tick loop that
preprocess ran before ticks were screened and reduced together, numpy
1-D calls included, so its TickStats are the bit-exact baseline the
stacked code must reproduce. ref_outlier_mask checks the rule itself by
the independent path.
"""

import math

from rangevar.errors import (
    EmptyDataset,
    InvalidRange,
    MalformedRow,
    MissingColumn,
    NonFiniteValue,
)


def ref_mean(values):
    return math.fsum(values) / len(values)


def ref_median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def ref_std_about_mean(values):
    m = ref_mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


def ref_std_about_median(values):
    med = ref_median(values)
    return math.sqrt(math.fsum((v - med) ** 2 for v in values) / (len(values) - 1))


def ref_rmse(residuals):
    return math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))


def ref_max_abs(residuals):
    return max(abs(r) for r in residuals)


def ref_tick_residual_rows(m, ticks, evaluate_model):
    """Residual rows as (tick_id, intensity, observed, predicted, residual,
    extrapolated), one scalar evaluate_model call per tick."""
    calibrated = m.intensity_kind.value == "calibrated"
    lo, hi = m.intensity_domain
    rows = []
    for t in ticks:
        x = t.calibrated_intensity if calibrated else t.mean_intensity
        predicted = evaluate_model(m, x)
        rows.append((t.tick_id, x, t.std_range, predicted, predicted - t.std_range,
                     not lo <= x <= hi))
    return rows


def ref_comparison_rows(m1, m2, grid, evaluate_model):
    """compare_models rows, one scalar evaluate_model call per model and point."""
    rows = []
    for i, x in enumerate(grid):
        v1, v2 = evaluate_model(m1, x), evaluate_model(m2, x)
        inside = (m1.intensity_domain[0] <= x <= m1.intensity_domain[1]
                  and m2.intensity_domain[0] <= x <= m2.intensity_domain[1])
        rows.append((i, x, v2, v1, v1 - v2, not inside))
    return rows


def ref_outlier_mask(ranges, intensities, k):
    """Direct evaluation of the dual mean/median rule on both channels."""
    n = len(ranges)
    mask = [False] * n
    for channel in (ranges, intensities):
        mean = ref_mean(channel)
        med = ref_median(channel)
        s_mean = ref_std_about_mean(channel)
        s_med = ref_std_about_median(channel)
        for i, v in enumerate(channel):
            if abs(v - mean) > k * s_mean or abs(v - med) > k * s_med:
                mask[i] = True
    return mask


def _ref_tick_mask(ranges, intensities, k):
    """The dual rule on one tick with 1-D numpy reductions, as preprocess had it."""
    import numpy as np

    mask = np.zeros(len(ranges), dtype=bool)
    for values in (ranges, intensities):
        mean, median = values.mean(), np.median(values)
        s_mean = float(np.sqrt(np.sum((values - mean) ** 2) / (values.size - 1)))
        s_median = float(np.sqrt(np.sum((values - median) ** 2) / (values.size - 1)))
        mask |= np.abs(values - mean) > k * s_mean
        mask |= np.abs(values - median) > k * s_median
    return mask


def ref_preprocess(ds, cfg):
    """preprocess tick by tick: group, screen each tick pass by pass, reduce.

    Returns (stats, screened): screened[p] lists the tick ids that pass p
    screened. A tick is screened until a pass flags nothing in it, fewer
    than 2 members remain or max_passes is reached. Raises
    NoSurvivingTicks (and the grouping errors) as preprocess does.
    """
    import numpy as np

    from rangevar.errors import NoSurvivingTicks
    from rangevar.preprocess import TickMode, TickStats, _estimate_step

    angles = ds.vertical_angle
    if cfg.tick_mode is TickMode.EXPLICIT_COLUMN:
        centers, inverse = np.unique(angles, return_inverse=True)
    else:
        step = cfg.tick_step if cfg.tick_step is not None else _estimate_step(angles)
        keys, inverse = np.unique(np.round(angles / step).astype(np.int64), return_inverse=True)
        centers = keys * step
    stats, screened = [], [[] for _ in range(cfg.max_passes)]
    for tick_id, center in enumerate(centers.tolist()):
        members = np.flatnonzero(inverse == tick_id)
        ranges, intensities = ds.range[members], ds.intensity[members]
        for done in screened:
            if len(ranges) < 2:
                break
            done.append(tick_id)
            mask = _ref_tick_mask(ranges, intensities, cfg.sigma_multiplier)
            if not mask.any():
                break
            ranges, intensities = ranges[~mask], intensities[~mask]
        n = len(ranges)
        if n < cfg.min_tick_count:
            continue
        std = float(np.sqrt(np.sum((ranges - ranges.mean()) ** 2) / (n - 1)))
        stats.append(TickStats(tick_id, center, float(intensities.mean()),
                               float(ranges.mean()), std * 1000.0, n))
    if not stats:
        raise NoSurvivingTicks(f"no tick kept >= {cfg.min_tick_count} members after screening")
    return stats, [done for done in screened if done]


def ref_nearest_center_assignment(angles, centers):
    """Index of the closest center for every angle (brute force)."""
    out = []
    for angle in angles:
        best = min(range(len(centers)), key=lambda j: abs(angle - centers[j]))
        out.append(best)
    return out


_SCAN_COLUMNS = ("profile", "vertical_angle", "horizontal_angle", "range", "intensity")
_ANGLE_FACTORS = {"rad": 1.0, "deg": math.pi / 180.0, "gon": math.pi / 200.0}


def _ref_float(text, line_number, column):
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_number, f"bad float {text!r}") from None
    if not math.isfinite(value):
        raise NonFiniteValue(line_number, column)
    return value


def _ref_row(fields, line_number, where):
    """One data row checked field by field in canonical column order."""
    try:
        profile = int(fields[where["profile"]])
    except ValueError:
        raise MalformedRow(line_number, "bad profile") from None
    if not 0 <= profile < 2**63:
        raise MalformedRow(line_number, "profile out of range")
    row = [profile]
    for column in _SCAN_COLUMNS[1:]:
        value = _ref_float(fields[where[column]], line_number, column)
        if column == "range" and not value > 0:
            raise InvalidRange(line_number, value)
        if column == "intensity" and not value >= 0:
            raise MalformedRow(line_number, "negative intensity")
        row.append(value)
    return row


def ref_parse_scan(text, lenient=False, angle_unit="rad"):
    """Row-by-row parse of the documented scan CSV format.

    Returns ({column: list of Python values}, skipped_rows), or raises the
    rangevar error class the format prescribes for the first bad line.
    Metadata directives are checked but not returned.
    """
    factor = _ANGLE_FACTORS[angle_unit]
    lines = text.splitlines()
    header_at = None
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            header_at = number
            break
        key, _, value = line[1:].partition("=")
        key, value = key.strip(), value.strip()
        if key in ("rate_khz", "nominal_distance_m"):
            _ref_float(value, number, key)
        elif key == "intensity_kind" and value.lower() not in ("raw", "scaled"):
            raise MalformedRow(number, "bad intensity_kind")
    if header_at is None:
        raise EmptyDataset("no header")
    header = [name.strip() for name in lines[header_at - 1].strip().split(",")]
    for column in _SCAN_COLUMNS:
        if column not in header:
            raise MissingColumn(column)
    if len(header) != len(_SCAN_COLUMNS):
        raise MalformedRow(header_at, "extra columns")
    where = {column: header.index(column) for column in _SCAN_COLUMNS}

    columns = {column: [] for column in _SCAN_COLUMNS}
    skipped = 0
    for number in range(header_at + 1, len(lines) + 1):
        line = lines[number - 1].strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            if len(fields) != len(_SCAN_COLUMNS):
                raise MalformedRow(number, "field count")
            row = _ref_row(fields, number, where)
        except MalformedRow:
            if not lenient:
                raise
            skipped += 1
            continue
        row[1] *= factor
        row[2] *= factor
        for column, value in zip(_SCAN_COLUMNS, row):
            columns[column].append(value)
    if not columns["profile"]:
        raise EmptyDataset("no rows")
    return columns, skipped


def ref_simulate_rows(cfg):
    """Rows and outlier row indices of simulate_profiles, by nested loops.

    Makes the same draws in the same order as the simulator (one
    generator per board, spawned from the seed; the range matrix, then
    per tick the outlier columns and signs) and emits rows one by one,
    profile-major within a board.
    """
    import numpy as np

    from rangevar.simulate import TICK_STEP, InverseSquareScaling, radar_intensity

    a, b, c = cfg.truth_model
    rows, outliers = [], []
    first_tick = 0
    for board, child in zip(cfg.boards, np.random.SeedSequence(cfg.seed).spawn(len(cfg.boards))):
        rng = np.random.default_rng(child)
        n_ticks, n_prof = board.tick_count, board.profile_count
        intensity = radar_intensity(cfg.k_system, board.reflectivity, board.distance, board.incidence_angle)
        sigma_m = (a * intensity**b + c) / 1000.0
        ranges = rng.normal(board.distance, sigma_m, size=(n_ticks, n_prof))
        inj = cfg.outlier_injection
        n_out = int(round(inj.fraction * n_prof))
        if n_out > 0 and inj.magnitude_sigma != 0.0:
            for t in range(n_ticks):
                cols = rng.choice(n_prof, size=n_out, replace=False)
                signs = rng.choice((-1.0, 1.0), size=n_out)
                ranges[t, cols] += signs * inj.magnitude_sigma * sigma_m
                outliers.extend(len(rows) + int(col) * n_ticks + t for col in cols)
        for p in range(n_prof):
            for t in range(n_ticks):
                if cfg.scaling is None:
                    recorded = intensity
                elif isinstance(cfg.scaling, InverseSquareScaling):
                    recorded = intensity * ranges[t].mean() ** 2 / cfg.scaling.r_ref
                else:
                    recorded = cfg.scaling.apply(intensity)
                angle = (t + first_tick + 1) * TICK_STEP
                rows.append((p, angle, 0.0, float(ranges[t, p]), float(recorded)))
        first_tick += n_ticks
    return rows, sorted(outliers)


def ref_validate_rows(rows):
    """validate_dataset's fields from (profile, vertical, horizontal, range, intensity) rows.

    Returns (violations, profile_count, vertical span, intensity span); a
    span keeps the first of equal extremes, as min() and max() do.
    """
    violations = []
    v_lo = i_lo = math.inf
    v_hi = i_hi = -math.inf
    for i, (_, vert, horiz, rng, inten) in enumerate(rows):
        if not math.isfinite(rng) or rng <= 0.0:
            violations.append(f"observation {i}: range {rng!r} not finite and > 0")
        if not math.isfinite(inten) or inten < 0.0:
            violations.append(f"observation {i}: intensity {inten!r} not finite and >= 0")
        if not math.isfinite(vert):
            violations.append(f"observation {i}: vertical_angle not finite")
        if not math.isfinite(horiz):
            violations.append(f"observation {i}: horizontal_angle not finite")
        if math.isfinite(vert):
            v_lo, v_hi = min(v_lo, vert), max(v_hi, vert)
        if math.isfinite(inten):
            i_lo, i_hi = min(i_lo, inten), max(i_hi, inten)
    return tuple(violations), len({row[0] for row in rows}), (v_lo, v_hi), (i_lo, i_hi)
