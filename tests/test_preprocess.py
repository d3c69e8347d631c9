"""Tick grouping, the dual outlier rule, and per-tick statistics."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangevar.preprocess as pp
from _reference import (
    ref_nearest_center_assignment,
    ref_outlier_mask,
    ref_preprocess,
    ref_read_tick_stats_csv,
    ref_std_about_mean,
    ref_std_about_median,
)
from conftest import ladder_dataset, make_dataset, tick_table
from rangevar import ingest
from rangevar.errors import DegenerateTicks, MalformedRow, NoSurvivingTicks, RangevarError, TooFewValues
from rangevar.preprocess import (
    CALIBRATED_HEADER,
    TICK_STATS_HEADER,
    PreprocessConfig,
    TickGrouping,
    TickMode,
    TickStats,
    TickTable,
    detect_outliers,
    group_by_vertical_tick,
    preprocess,
    read_tick_stats_csv,
    std_about_mean,
    std_about_median,
    tick_stats_to_csv,
)

QUANTIZE = PreprocessConfig(tick_mode=TickMode.QUANTIZE_BY_STEP)
EXPLICIT = PreprocessConfig(tick_mode=TickMode.EXPLICIT_COLUMN)


# ---- standard deviations ------------------------------------------------------


def test_std_about_mean_hand_values():
    assert std_about_mean([1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)
    assert std_about_mean([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_std_about_mean_statistical(rng):
    samples = rng.standard_normal(10_000)
    assert std_about_mean(samples) == pytest.approx(1.0, abs=0.03)


def test_std_about_median_hand_values():
    assert std_about_median([1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)
    # median 0, sum of squares 16, divisor 3
    assert std_about_median([0.0, 0.0, 0.0, 4.0]) == pytest.approx(
        2.309401076758503, abs=1e-15
    )


def test_std_functions_reject_short_input():
    with pytest.raises(TooFewValues):
        std_about_mean([1.0])
    with pytest.raises(TooFewValues):
        std_about_median([1.0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=60
    )
)
def test_std_about_median_never_below_std_about_mean(values):
    # the mean minimizes the sum of squared deviations
    s_mean = std_about_mean(values)
    s_med = std_about_median(values)
    assert s_med >= s_mean * (1 - 1e-12) - 1e-9, f"{s_med} < {s_mean}"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=40)
)
def test_stds_match_brute_force_reference(values):
    assert std_about_mean(values) == pytest.approx(ref_std_about_mean(values), abs=1e-9)
    assert std_about_median(values) == pytest.approx(ref_std_about_median(values), abs=1e-9)


# ---- grouping ------------------------------------------------------------------


def test_exact_ladder_groups_by_repetition():
    angles = [0.001, 0.002, 0.003, 0.004, 0.005]
    ranges = [[10.0, 10.1] for _ in angles]
    intens = [[100.0, 101.0] for _ in angles]
    ds = ladder_dataset(angles, ranges, intens, profiles=2)
    for cfg in (QUANTIZE, EXPLICIT):
        groups = group_by_vertical_tick(ds, cfg)
        assert len(groups) == 5
        assert groups.count.tolist() == [2] * 5
        assert groups.tick_id.tolist() == [0, 1, 2, 3, 4]
        centers = groups.center.tolist()
        assert centers == sorted(centers)


def test_jittered_angles_group_like_nearest_center(rng):
    # continuous jitter of +-1% of the step; the step is supplied since
    # gap-based estimation needs exact repetition to see the true step
    step = 0.001
    ladder = np.arange(1, 6) * step
    rows = []
    for p in range(20):
        for angle in ladder:
            jittered = angle + rng.uniform(-0.01, 0.01) * step
            rows.append((p, float(jittered), 0.0, 10.0, 100.0))
    ds = make_dataset(rows)
    cfg = PreprocessConfig(tick_mode=TickMode.QUANTIZE_BY_STEP, tick_step=step)
    groups = group_by_vertical_tick(ds, cfg)
    assert len(groups) == 5
    assert groups.count.tolist() == [20] * 5
    # brute-force oracle: every observation must land in the group whose
    # center is nearest to its angle
    centers = groups.center.tolist()
    angles = ds.vertical_angle.tolist()
    nearest = ref_nearest_center_assignment(angles, centers)
    for gi, (center, count) in enumerate(zip(centers, groups.count.tolist())):
        member_angles = [a for a, n in zip(angles, nearest) if n == gi]
        assert sorted(member_angles) == sorted(
            a for a in angles
            if abs(a - center) <= step / 2
        )
        assert len(member_angles) == count


def test_quantize_estimates_step_from_exact_ladder():
    angles = [0.002, 0.004, 0.006]
    ds = ladder_dataset(angles, [[10.0, 10.0]] * 3, [[1.0, 2.0]] * 3, profiles=2)
    groups = group_by_vertical_tick(ds, QUANTIZE)
    assert len(groups) == 3
    assert [pytest.approx(c, rel=1e-12) for c in (0.002, 0.004, 0.006)] == groups.center.tolist()


def test_single_observation_single_group():
    ds = make_dataset([(0, 0.003, 0.0, 10.0, 55.0)])
    groups = group_by_vertical_tick(ds, EXPLICIT)
    assert len(groups) == 1
    assert groups.count.tolist() == [1]
    assert groups.center.tolist() == [0.003]


def test_quantize_without_spread_or_step_degenerate():
    ds = make_dataset([(0, 0.003, 0.0, 10.0, 55.0), (1, 0.003, 0.0, 10.0, 56.0)])
    with pytest.raises(DegenerateTicks):
        group_by_vertical_tick(ds, QUANTIZE)
    # an explicit step rescues the degenerate case
    cfg = PreprocessConfig(tick_mode=TickMode.QUANTIZE_BY_STEP, tick_step=0.001)
    assert len(group_by_vertical_tick(ds, cfg)) == 1


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.001], ids=["inf", "nan", "zero", "negative"])
def test_tick_step_must_be_finite_and_positive(step):
    with pytest.raises(ValueError, match=r"tick_step must be finite and > 0, got "):
        PreprocessConfig(tick_step=step)


@pytest.mark.parametrize(
    "angles, step",
    [((0.0, 1.0), 1e-19), ((0.0, -1.0), 1e-320), ((0.0, 5e-324, 1e-323, 1.0), None)],
    ids=["given-past-int64", "given-overflows", "estimated-overflows"],
)
def test_quantize_step_whose_keys_leave_int64_is_degenerate(angles, step):
    ds = make_dataset([(0, angle, 0.0, 10.0, 55.0) for angle in angles])
    cfg = PreprocessConfig(tick_step=step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTicks, match=r"\| / step overflows int64$"):
            group_by_vertical_tick(ds, cfg)
    # the largest |angle| / step that fits int64 still groups
    fitting = PreprocessConfig(tick_step=1.0 / 2**62)
    assert len(group_by_vertical_tick(make_dataset([(0, 1.0, 0.0, 10.0, 55.0)]), fitting)) == 1


@pytest.mark.parametrize("angles", [(-1e308, 0.5, 1e308), (-1e308, 1e308)], ids=["median", "gap"])
def test_estimated_step_that_is_not_finite_is_degenerate(angles):
    ds = make_dataset([(p, angle, 0.0, 10.0, 55.0) for p in range(40) for angle in angles])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTicks, match=r"^cannot estimate tick step: the median angle gap is inf$"):
            preprocess(ds, QUANTIZE)


def test_grouped_arrays_are_read_only_and_leave_the_dataset_alone(rng):
    rows = [(p, float(rng.choice([0.01, 0.02, 0.03])), 0.0, 10.0 + p, 100.0 - p) for p in range(50)]
    ds = make_dataset(rows)
    before = {name: getattr(ds, name).copy() for name in ("vertical_angle", "range", "intensity")}
    groups = group_by_vertical_tick(ds, EXPLICIT)
    for name in ("tick_id", "center", "count", "ranges", "intensities"):
        with pytest.raises(ValueError):
            getattr(groups, name)[0] = -1
    for name, column in before.items():
        assert np.array_equal(getattr(ds, name), column), name


def test_partition_property(rng):
    rows = []
    for i in range(300):
        rows.append((i % 7, float(rng.choice([0.01, 0.02, 0.03])), 0.0, 10.0, 1.0))
    ds = make_dataset(rows)
    groups = group_by_vertical_tick(ds, EXPLICIT)
    assert groups.count.sum() == len(groups.ranges) == len(groups.intensities) == len(ds)


# ---- outlier rule --------------------------------------------------------------


def outlier_group(ranges, intensities=None):
    ranges = np.asarray(ranges, dtype=float)
    if intensities is None:
        intensities = np.full(ranges.size, 500.0)
    return TickGrouping([0], [0.0], [ranges.size], ranges, intensities)


def test_single_gross_range_outlier_flagged():
    # 30 x 1.0 plus one 100.0: delta_mean = 95.81 > 3*sigma_mean = 53.34
    values = [1.0] * 30 + [100.0]
    mask = detect_outliers(outlier_group(values), PreprocessConfig())
    assert mask.sum() == 1
    assert mask[30]
    assert std_about_mean(values) == pytest.approx(17.7809249, abs=1e-6)


def test_constant_values_never_flagged():
    mask = detect_outliers(outlier_group([7.0] * 40), PreprocessConfig())
    assert not mask.any()


def test_intensity_only_outlier_flagged_by_or_semantics():
    n = 40
    ranges = np.full(n, 10.0)
    ranges[::2] += 0.001  # small spread so the range channel is not constant
    intens = np.full(n, 500.0)
    intens[::2] += 1.0
    intens[7] = 5000.0
    mask = detect_outliers(outlier_group(ranges, intens), PreprocessConfig())
    assert mask[7], "intensity spike must flag the observation"
    assert mask.sum() == 1
    expected = ref_outlier_mask(list(ranges), list(intens), 3.0)
    assert list(mask) == expected


def test_detect_outliers_matches_reference(rng):
    for _ in range(20):
        n = int(rng.integers(5, 60))
        ranges = rng.normal(10.0, 0.01, n)
        intens = rng.normal(800.0, 30.0, n)
        if rng.random() < 0.5:
            ranges[int(rng.integers(0, n))] += 1.0
        group = outlier_group(ranges, intens)
        mask = detect_outliers(group, PreprocessConfig())
        assert list(mask) == ref_outlier_mask(list(ranges), list(intens), 3.0)


def test_detect_outliers_needs_two_members():
    with pytest.raises(TooFewValues):
        detect_outliers(outlier_group([1.0]), PreprocessConfig())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=30),
    st.integers(min_value=-20, max_value=20),
)
def test_flags_scale_equivariant(values, exponent):
    # powers of two scale every intermediate exactly, so the flag set is
    # preserved bit-for-bit; other factors only match to rounding
    lam = 2.0**exponent
    base = detect_outliers(outlier_group(values), PreprocessConfig())
    scaled = detect_outliers(outlier_group([lam * v for v in values]), PreprocessConfig())
    assert list(base) == list(scaled)


def test_clean_gaussian_flag_fraction_bounded(rng):
    values = rng.normal(0.0, 1.0, 10_000)
    mask = detect_outliers(outlier_group(values), PreprocessConfig())
    fraction = mask.mean()
    assert 0.0 <= fraction <= 0.008, f"flagged {fraction:.4%} on clean data"


# ---- preprocess pipeline -------------------------------------------------------


@st.composite
def screening_cases(draw):
    """A dataset with many ticks sharing member counts, and a config.

    Values come from a drawn seed; the draws pick the structure: member
    counts 1..70 from a few shared values, constant channels, spikes,
    coarse rounding (ties at the median), a sigma multiplier small
    enough to empty a tick, and min_tick_count at a tick's count.
    """
    shared = draw(st.lists(st.integers(1, 70), min_size=1, max_size=4))
    counts = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jitter = draw(st.sampled_from([None, 0.0, 0.3]))  # None: explicit column
    rows = []
    for tick, n in enumerate(counts):
        ranges = np.full(n, 10.0 + tick)
        if draw(st.booleans()):
            ranges = ranges + rng.normal(0.0, 0.002, n)
        intensities = np.full(n, 500.0)
        if draw(st.booleans()):
            intensities = intensities + rng.normal(0.0, 20.0, n)
        for channel, size in ((ranges, 1.0), (intensities, 1e4)):
            spikes = draw(st.integers(0, 3))
            channel[rng.integers(0, n, spikes)] += size * rng.choice([-1.0, 1.0], spikes)
        if draw(st.booleans()):
            ranges, intensities = np.round(ranges, 3), np.round(intensities, 0)
        angles = 0.001 * (tick + 1) + 0.001 * (jitter or 0.0) * rng.uniform(-1, 1, n)
        rows += zip(rng.integers(0, 9, n).tolist(), angles.tolist(), [0.0] * n,
                    ranges.tolist(), intensities.tolist())
    rows = [rows[i] for i in rng.permutation(len(rows))]
    cfg = PreprocessConfig(
        sigma_multiplier=draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])),
        min_tick_count=max(2, draw(st.sampled_from(counts)) + draw(st.integers(-1, 1)))
        if draw(st.booleans()) else 2,
        tick_mode=TickMode.EXPLICIT_COLUMN if jitter is None else TickMode.QUANTIZE_BY_STEP,
        tick_step=0.001 if jitter else None,
        max_passes=draw(st.integers(0, 4)),
    )
    return make_dataset(rows), cfg, draw(st.sampled_from([40, 100, 65_536]))


def typed_fields(stats):
    return [[(type(v), v) for v in s] for s in stats]


@settings(max_examples=150, deadline=None)
@given(screening_cases())
def test_preprocess_equals_the_per_tick_reference(case):
    ds, cfg, block_members = case
    screened = []
    screen = pp.detect_outliers

    def spy(ticks, cfg):
        screened.append(ticks.tick_id.tolist())
        return screen(ticks, cfg)

    try:
        expected, expected_screened = ref_preprocess(ds, cfg)
    except (NoSurvivingTicks, DegenerateTicks) as exc:
        with pytest.raises(type(exc)):
            preprocess(ds, cfg)
        return
    with mock.patch.object(pp, "BLOCK_MEMBERS", block_members), \
            mock.patch.object(pp, "detect_outliers", spy):
        stats = preprocess(ds, cfg)
        grouped = group_by_vertical_tick(ds, cfg)
        ticks = grouped.select(grouped.count >= 2)
        together = screen(ticks, cfg)
    assert typed_fields(stats) == typed_fields(expected)
    assert screened == expected_screened
    assert len(together) == len(ticks.ranges)
    ends = np.cumsum(ticks.count).tolist()
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        alone = screen(ticks.select(np.arange(len(ticks)) == i), cfg)
        assert np.array_equal(together[start:end], alone), ticks.tick_id[i]


def test_many_short_ticks_with_outliers_equal_the_per_tick_reference():
    # 240 ticks of 40 members, 5% of members 8 sigma off, 3 passes: the
    # shape where most ticks are screened again and counts drift apart
    rng = np.random.default_rng(11)
    ticks, n, sigma = 240, 40, 0.002
    ranges = rng.normal(10.0, sigma, (ticks, n)) + 0.01 * np.arange(ticks)[:, None]
    intensities = rng.normal(800.0, 30.0, (ticks, n))
    spikes = rng.random((ticks, n)) < 0.05
    ranges[spikes] += 8 * sigma * rng.choice([-1.0, 1.0], spikes.sum())
    ds = ladder_dataset(np.arange(1, ticks + 1) * 0.001, ranges, intensities, profiles=n)
    cfg = PreprocessConfig(max_passes=3)
    screened = []
    screen = pp.detect_outliers

    def spy(ticks, cfg):
        screened.append(ticks.tick_id.tolist())
        return screen(ticks, cfg)

    with mock.patch.object(pp, "detect_outliers", spy):
        stats = preprocess(ds, cfg)
    expected, expected_screened = ref_preprocess(ds, cfg)
    assert typed_fields(stats) == typed_fields(expected)
    assert screened == expected_screened
    assert len(screened) == 3 and len(screened[0]) == ticks
    assert len(set(s.count for s in stats)) > 1


def test_equal_length_ticks_span_several_blocks(rng):
    # 65,536 members per block hold two of these ticks, so five take three blocks
    n, ticks = 30_000, 5
    ranges = rng.normal(10.0, 0.002, (ticks, n))
    ranges[:, ::701] += 0.05
    intensities = rng.normal(800.0, 30.0, (ticks, n))
    ds = ladder_dataset(np.arange(1, ticks + 1) * 0.001, ranges, intensities, profiles=n)
    assert len(list(pp._blocks(group_by_vertical_tick(ds, EXPLICIT)))) == 3
    for passes in (1, 3):
        cfg = dataclasses.replace(EXPLICIT, max_passes=passes)
        stats = preprocess(ds, cfg)
        expected, _ = ref_preprocess(ds, cfg)
        assert typed_fields(stats) == typed_fields(expected)
        assert all(s.count < n for s in stats)


def test_min_tick_count_filters_and_raises_when_nothing_survives():
    angles = [0.001, 0.002]
    ranges = [[10.0 + 0.001 * p for p in range(5)] for _ in angles]
    intens = [[100.0] * 5 for _ in angles]
    ds = ladder_dataset(angles, ranges, intens, profiles=5)
    with pytest.raises(NoSurvivingTicks):
        preprocess(ds, PreprocessConfig(min_tick_count=30))
    stats = preprocess(ds, PreprocessConfig(min_tick_count=5))
    assert len(stats) == 2
    assert all(s.count == 5 for s in stats)


def test_preprocess_reports_millimeters():
    # single tick, so quantize-mode step estimation has nothing to work
    # with; group on the exact angle column instead
    angles = [0.001]
    spread = [9.999, 10.0, 10.001, 10.0, 10.0]
    ds = ladder_dataset(angles, [spread], [[100.0] * 5], profiles=5)
    stats = preprocess(
        ds, PreprocessConfig(min_tick_count=2, tick_mode=TickMode.EXPLICIT_COLUMN)
    )
    assert stats.std_range[0] == pytest.approx(ref_std_about_mean(spread) * 1000.0, rel=1e-12)
    assert stats.mean_range[0] == pytest.approx(10.0, abs=1e-9)


def test_preprocess_removes_injected_outlier_and_tightens_std(rng):
    n = 200
    clean = rng.normal(10.0, 0.002, n)
    corrupted = clean.copy()
    corrupted[17] += 0.2  # 100 sigma
    ds = ladder_dataset([0.001], [corrupted], [np.full(n, 100.0)], profiles=n)
    mode = TickMode.EXPLICIT_COLUMN
    stats_default = preprocess(ds, PreprocessConfig(min_tick_count=10, tick_mode=mode))
    stats_off = preprocess(
        ds, PreprocessConfig(min_tick_count=10, max_passes=0, tick_mode=mode)
    )
    assert stats_default.count[0] == n - 1
    assert stats_off.count[0] == n
    assert stats_default.std_range[0] < stats_off.std_range[0]
    assert stats_default.std_range[0] == pytest.approx(2.0, rel=0.25)


def test_max_passes_zero_keeps_everything():
    values = [1.0] * 30 + [100.0]
    ds = ladder_dataset([0.001], [values], [[5.0] * 31], profiles=31)
    stats = preprocess(
        ds,
        PreprocessConfig(
            min_tick_count=2, max_passes=0, tick_mode=TickMode.EXPLICIT_COLUMN
        ),
    )
    assert stats.count[0] == 31


def test_multiple_passes_catch_masked_outlier():
    # the 100.0 inflates sigma enough to shelter the 30.0 in pass one
    values = [1.0] * 30 + [30.0, 100.0]
    ds = ladder_dataset([0.001], [values], [[5.0] * 32], profiles=32)
    mode = TickMode.EXPLICIT_COLUMN
    one = preprocess(ds, PreprocessConfig(min_tick_count=2, max_passes=1, tick_mode=mode))
    two = preprocess(ds, PreprocessConfig(min_tick_count=2, max_passes=2, tick_mode=mode))
    assert one.count[0] == 31
    assert two.count[0] == 30


def test_preprocess_simulator_std_within_sampling_error():
    import rangevar as rv

    n = 3000
    cfg = rv.SimulationConfig(
        k_system=1e7,
        boards=(rv.Board(0.5, 10.0, 0.0, 4, n),),
        truth_model=(29853.0, -1.02, 0.08),
        seed=99,
    )
    ds, truth = rv.simulate_profiles(cfg)
    stats = preprocess(ds, PreprocessConfig(max_passes=0))
    for s, true_sigma_mm in zip(stats, truth.true_sigma_mm.tolist()):
        se = true_sigma_mm / math.sqrt(2 * n)
        assert abs(s.std_range - true_sigma_mm) < 4 * se, (
            f"tick {s.tick_id}: std {s.std_range} vs truth {true_sigma_mm}"
        )


def test_tick_stats_csv_round_trip():
    stats = tick_table([
        TickStats(0, 0.001, 1500.0, 9.998765432109876, 1.2345678901234567, 300),
        TickStats(1, 0.002, 800.5, 25.0, 3.5, 450),
    ])
    back = read_tick_stats_csv(tick_stats_to_csv(stats))
    assert back == stats


def test_tick_table_is_calibrated_throughout_or_not_at_all():
    plain = tick_table([TickStats(0, 0.001, 1500.0, 10.0, 1.5, 300), TickStats(1, 0.002, 800.5, 25.0, 3.5, 450)])
    calibrated = tick_table([TickStats(1, 0.002, 800.5, 25.0, 3.5, 450, calibrated_intensity=12.8)])
    assert tick_stats_to_csv(tick_table([])) == TICK_STATS_HEADER + "\n"
    assert tick_stats_to_csv(calibrated).startswith(CALIBRATED_HEADER + "\n")
    assert read_tick_stats_csv(tick_stats_to_csv(calibrated)) == calibrated
    # a mixed table cannot be built: a calibrated column must cover every tick
    with pytest.raises(ValueError, match="tick columns must be 1-D and of one length"):
        dataclasses.replace(plain, calibrated_intensity=[12.8])
    assert tick_table([]).calibrated_intensity is None and plain.calibrated_intensity is None
    assert calibrated.calibrated_intensity.tolist() == [12.8]


ROW = "0,0.001,1500.0,10.0,1.5,300"


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("\n\ntick_id,mean_intensity\n" + ROW + "\n", 3),
        (f"{TICK_STATS_HEADER}\n{ROW}\n0,0.002,800.0,25.0\n", 3),
        (f"{TICK_STATS_HEADER}\n{ROW},12.5\n", 2),
        (f"{CALIBRATED_HEADER}\n{ROW}\n", 2),
        (f"{TICK_STATS_HEADER}\n\n\n0,0.001,1500.0,10.0,abc,300\n", 4),
        (f"{TICK_STATS_HEADER}\n{ROW}\n1,0.002,800.0,25.0,3.5,4.5\n", 3),
        (f"{CALIBRATED_HEADER}\n{ROW},1e\n", 2),
        (f"{TICK_STATS_HEADER}\n{ROW}\n1,0.002,800.0,25.0,nan,300\n", 3),
        (f"{CALIBRATED_HEADER}\n\n{ROW},-inf\n", 3),
        (f"{TICK_STATS_HEADER}\n{ROW}\n1,0.002,800.0,25.0,-1e-9,300\n", 3),
        (f"{TICK_STATS_HEADER}\n0,0.001,1500.0,10.0,1.5,0\n", 2),
        (f"{TICK_STATS_HEADER}\n{ROW}\n1,0.002,800.0,25.0,3.5,{10**400}\n", 3),
        (f"{TICK_STATS_HEADER}\n{ROW}\n{10**20},0.002,800.0,25.0,3.5,300\n", 3),
        (f"{TICK_STATS_HEADER}\n\n-1,0.002,800.0,25.0,3.5,300\n", 3),
    ],
    ids=["empty", "header", "short", "long", "calibrated-short", "float", "int", "calibrated",
         "nan-std", "infinite-calibrated", "negative-std", "zero-count", "count-past-int64",
         "tick-id-past-int64", "negative-tick-id"],
)
def test_tick_table_errors_name_their_line(text, line):
    with pytest.raises(MalformedRow) as err:
        read_tick_stats_csv(text)
    assert err.value.line_number == line
    assert str(err.value).startswith(f"line {line}: ")


# ---- the tick table ------------------------------------------------------------


def test_tick_table_holds_read_only_typed_columns_and_iterates_rows():
    table = TickTable([3, 4], [0.001, 0.002], [1500.0, 800.5], [10.0, 25.0], [1.5, 3.5], [300, 450])
    assert len(table) == 2
    for name, column in zip(TickStats._fields, table._columns()):
        assert column.dtype == (np.int64 if name in ("tick_id", "count") else np.float64)
        assert not column.flags.writeable
    assert list(table) == [TickStats(3, 0.001, 1500.0, 10.0, 1.5, 300),
                           TickStats(4, 0.002, 800.5, 25.0, 3.5, 450)]
    assert [type(v) for v in next(iter(table))] == [int, float, float, float, float, int, type(None)]
    assert list(table) == list(table)  # each iteration builds its rows afresh
    assert table == TickTable(*table._columns()) and table != list(table)
    calibrated = dataclasses.replace(table, calibrated_intensity=[2.0, 1.0])
    assert calibrated != table and list(calibrated)[1].calibrated_intensity == 1.0
    assert dataclasses.replace(table, std_range=[1.5, 3.25]) != table
    with pytest.raises(ValueError, match="one length"):
        TickTable([3], [0.001, 0.002], [1500.0, 800.5], [10.0, 25.0], [1.5, 3.5], [300, 450])
    with pytest.raises(ValueError, match="one length"):
        TickTable(*([[1.0]] * 6), calibrated_intensity=[[1.0]])


def test_explicit_ticks_keep_the_center_np_unique_picks_among_signed_zeros():
    # a stable sort would pick 0.0, the first angle of the tick; np.unique picks -0.0
    angles = [0.0, -0.0, 0.0, -0.0, 1.0] * 100
    ds = make_dataset([(0, a, 0.0, 10.0 + 0.001 * i, 100.0) for i, a in enumerate(angles)])
    groups = group_by_vertical_tick(ds, EXPLICIT)
    assert groups.center.tolist() == [0.0, 1.0]
    assert np.signbit(groups.center).tolist() == [True, False]
    assert groups.count.tolist() == [400, 100]
    assert tick_stats_to_csv(preprocess(ds, EXPLICIT)).splitlines()[1].startswith("0,-0.0,")


_SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Field values at every rule's edge: signs, bounds, non-finite values, syntax numpy
# refuses and int() or float() accepts, and padding the two read differently.
_ODD_SYNTAX = ["1_0", "\u0663", "+7", " 7 ", "\x1f7", "7\x1f", "\xa07", "0x10", "1e", "", "#", "1.0"]
_NON_FINITE = ["nan", "inf", "-inf", "1e400"]
_EDGES = {0: ["-1", str(-(2**63)), "-0", str(2**63)], 5: ["0", "-1", "-0", str(2**63)],
          3: ["0.0", "-0.0", "-1.0", "1e-400", *_NON_FINITE], 4: ["-1e-9", "-1.0", "-0.0", *_NON_FINITE]}
_ODD_LINES = ["", "", "", "   ", "\t", "\x1f", "#", "# note, with, commas"]


def _odd_field(draw, column, syntax=True):
    edges = _EDGES.get(column, _NON_FINITE + ["-0.0"])
    return draw(st.sampled_from(_ODD_SYNTAX if syntax and draw(st.booleans()) else edges))


@st.composite
def _tick_rows(draw, width, odd_share):
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    fields = [
        repr(draw(st.integers(0, 10**4))), draw(floats), draw(floats),
        repr(draw(st.floats(1e-3, 1e3))), repr(draw(st.floats(0.0, 1e3))),
        repr(draw(st.integers(1, 10**4))), draw(floats),
    ][:width]
    for i in range(len(fields)):
        if draw(st.floats(0.0, 1.0)) < odd_share:
            fields[i] = _odd_field(draw, i)
    return ",".join(fields)


@st.composite
def _tick_texts(draw):
    """Tick tables that are mostly well-formed: a valid header and rows, with odd
    fields, odd lines, line separators and padding at a drawn share, or with
    exactly one odd field, which only a check on the block path can refuse."""
    header = draw(st.sampled_from([TICK_STATS_HEADER, CALIBRATED_HEADER] * 5
                                  + [TICK_STATS_HEADER + ",", "tick_id,count"]))
    width = 7 if header == CALIBRATED_HEADER else 6
    one_odd = draw(st.floats(0.0, 1.0)) < 0.6
    odd_field, odd_line, odd_width, pad_share = (
        0.0 if one_odd else draw(st.sampled_from(shares)) for shares in (
            [0.0, 0.0, 0.03, 0.2], [0.0, 0.0, 0.1, 0.4, 1.0], [0.0, 0.0, 0.0, 0.1], [0.0, 0.0, 0.1, 0.5]))

    def pad():
        odd = draw(st.floats(0.0, 1.0)) < pad_share
        return draw(st.sampled_from([" ", "\t", "\x1f", "\xa0"])) if odd else ""

    lines = draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    lines.append(pad() + header + pad())
    first_row = len(lines)
    for _ in range(draw(st.sampled_from([1, 2, 12]))):
        if draw(st.floats(0.0, 1.0)) < odd_line:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
            continue
        n = width + (draw(st.sampled_from([-1, 1])) if draw(st.floats(0.0, 1.0)) < odd_width else 0)
        row = draw(_tick_rows(n, odd_field)) + ",1.0" * (n > 7)
        lines.append(pad() + row + pad())
    if one_odd and len(lines) > first_row:
        i = draw(st.integers(first_row, len(lines) - 1))
        fields = lines[i].split(",")
        column = draw(st.integers(0, len(fields) - 1))
        padded = fields[column] + "\x1f"  # numpy reads it; int() and float() refuse it mid-line
        fields[column] = draw(st.sampled_from([padded, _odd_field(draw, column, syntax=False)]))
        lines[i] = ",".join(fields)
    separators = [draw(st.sampled_from(_SEPARATORS[:2] * 5 + _SEPARATORS)) for _ in lines]
    text = "".join(line + sep for line, sep in zip(lines, separators))
    return text if draw(st.booleans()) else text[:-len(separators[-1])]


def _tick_outcome(read, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = list(read(text))
        except RangevarError as exc:
            return type(exc), getattr(exc, "line_number", None), str(exc)
    return [tuple(map(repr, row)) for row in rows]


def _one_odd_field(column, value, width=7):
    row = "3,0.001,1500.0,10.0,1.5,300,12.5".split(",")[:width]
    odd = row[:column] + [value] + row[column + 1:]
    return "\n".join([CALIBRATED_HEADER if width == 7 else TICK_STATS_HEADER, ",".join(row), ",".join(odd)])


# One example per check of the block path: each passes numpy's text reader and
# only that check refuses it.
_CHECKED = [_one_odd_field(0, "-1"), _one_odd_field(5, "0"), _one_odd_field(3, "0.0"),
            _one_odd_field(4, "-1e-9"), _one_odd_field(2, "1500.0\x1f"), TICK_STATS_HEADER,
            TICK_STATS_HEADER + "\n\n\n"] + [_one_odd_field(c, "inf") for c in (1, 2, 3, 4, 6)]


@pytest.mark.parametrize("text", _CHECKED)
def test_tick_table_reader_matches_the_reference_where_one_check_refuses(text):
    assert _tick_outcome(read_tick_stats_csv, text) == _tick_outcome(ref_read_tick_stats_csv, text)


@settings(max_examples=500, deadline=None)
@given(_tick_texts())
def test_tick_table_reader_matches_the_row_by_row_reference(text):
    assert _tick_outcome(read_tick_stats_csv, text) == _tick_outcome(ref_read_tick_stats_csv, text)


def test_tick_table_reader_takes_the_block_path_on_a_clean_table():
    table = tick_table([TickStats(i, 0.001 * i, 800.0 + i, 10.0 + i, 1.5, 100 + i, 2.0 + i) for i in range(50)])
    with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row path")):
        assert read_tick_stats_csv(tick_stats_to_csv(table)) == table
