"""Tick grouping, the dual outlier rule, and per-tick statistics."""

import dataclasses
import math
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
    ref_std_about_mean,
    ref_std_about_median,
)
from conftest import ladder_dataset, make_dataset
from rangevar.errors import DegenerateTicks, MalformedRow, NoSurvivingTicks, TooFewValues
from rangevar.preprocess import (
    CALIBRATED_HEADER,
    TICK_STATS_HEADER,
    PreprocessConfig,
    TickGroup,
    TickMode,
    TickStats,
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
        assert all(len(g) == 2 for g in groups)
        assert [g.tick_id for g in groups] == [0, 1, 2, 3, 4]
        centers = [g.vertical_angle_center for g in groups]
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
    assert all(len(g) == 20 for g in groups)
    # brute-force oracle: every observation must land in the group whose
    # center is nearest to its angle
    centers = [g.vertical_angle_center for g in groups]
    angles = ds.vertical_angle.tolist()
    nearest = ref_nearest_center_assignment(angles, centers)
    for gi, g in enumerate(groups):
        member_angles = [a for a, n in zip(angles, nearest) if n == gi]
        assert sorted(member_angles) == sorted(
            a for a in angles
            if abs(a - g.vertical_angle_center) <= step / 2
        )
        assert len(member_angles) == len(g)


def test_quantize_estimates_step_from_exact_ladder():
    angles = [0.002, 0.004, 0.006]
    ds = ladder_dataset(angles, [[10.0, 10.0]] * 3, [[1.0, 2.0]] * 3, profiles=2)
    groups = group_by_vertical_tick(ds, QUANTIZE)
    assert len(groups) == 3
    assert [pytest.approx(c, rel=1e-12) for c in (0.002, 0.004, 0.006)] == [
        g.vertical_angle_center for g in groups
    ]


def test_single_observation_single_group():
    ds = make_dataset([(0, 0.003, 0.0, 10.0, 55.0)])
    groups = group_by_vertical_tick(ds, EXPLICIT)
    assert len(groups) == 1
    assert len(groups[0]) == 1
    assert groups[0].vertical_angle_center == 0.003


def test_quantize_without_spread_or_step_degenerate():
    ds = make_dataset([(0, 0.003, 0.0, 10.0, 55.0), (1, 0.003, 0.0, 10.0, 56.0)])
    with pytest.raises(DegenerateTicks):
        group_by_vertical_tick(ds, QUANTIZE)
    # an explicit step rescues the degenerate case
    cfg = PreprocessConfig(tick_mode=TickMode.QUANTIZE_BY_STEP, tick_step=0.001)
    assert len(group_by_vertical_tick(ds, cfg)) == 1


def test_grouped_arrays_are_read_only_and_leave_the_dataset_alone(rng):
    rows = [(p, float(rng.choice([0.01, 0.02, 0.03])), 0.0, 10.0 + p, 100.0 - p) for p in range(50)]
    ds = make_dataset(rows)
    before = {name: getattr(ds, name).copy() for name in ("vertical_angle", "range", "intensity")}
    groups = group_by_vertical_tick(ds, EXPLICIT)
    for g in groups:
        for values in (g.ranges, g.intensities):
            with pytest.raises(ValueError):
                values[0] = -1.0
    for name, column in before.items():
        assert np.array_equal(getattr(ds, name), column), name


def test_partition_property(rng):
    rows = []
    for i in range(300):
        rows.append((i % 7, float(rng.choice([0.01, 0.02, 0.03])), 0.0, 10.0, 1.0))
    ds = make_dataset(rows)
    groups = group_by_vertical_tick(ds, EXPLICIT)
    assert sum(len(g) for g in groups) == len(ds)


# ---- outlier rule --------------------------------------------------------------


def outlier_group(ranges, intensities=None):
    ranges = np.asarray(ranges, dtype=float)
    if intensities is None:
        intensities = np.full(ranges.size, 500.0)
    return TickGroup(0, 0.0, ranges, np.asarray(intensities, dtype=float))


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
    return [[(type(v), v) for v in dataclasses.astuple(s)] for s in stats]


@settings(max_examples=150, deadline=None)
@given(screening_cases())
def test_preprocess_equals_the_per_tick_reference(case):
    ds, cfg, block_members = case
    screened = []
    screen = pp.detect_outliers

    def spy(groups, cfg):
        screened.append([g.tick_id for g in groups])
        return screen(groups, cfg)

    try:
        expected, expected_screened = ref_preprocess(ds, cfg)
    except (NoSurvivingTicks, DegenerateTicks) as exc:
        with pytest.raises(type(exc)):
            preprocess(ds, cfg)
        return
    with mock.patch.object(pp, "BLOCK_MEMBERS", block_members), \
            mock.patch.object(pp, "detect_outliers", spy):
        stats = preprocess(ds, cfg)
        groups = [g for g in group_by_vertical_tick(ds, cfg) if len(g) >= 2]
        together = screen(groups, cfg)
    assert typed_fields(stats) == typed_fields(expected)
    assert screened == expected_screened
    assert len(together) == len(groups)
    for g, mask in zip(groups, together):
        assert np.array_equal(mask, screen(g, cfg)), g.tick_id


def test_one_group_is_screened_in_one_call():
    # a tracer that wraps the module attribute must count one call, not two
    screen = pp.detect_outliers
    values = [1.0] * 30 + [100.0]
    with mock.patch.object(pp, "detect_outliers", mock.Mock(side_effect=screen)) as wrapped:
        mask = pp.detect_outliers(outlier_group(values), PreprocessConfig())
    assert wrapped.call_count == 1
    assert isinstance(mask, np.ndarray)
    assert np.array_equal(mask, screen([outlier_group(values)], PreprocessConfig())[0])


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
    assert stats[0].std_range == pytest.approx(ref_std_about_mean(spread) * 1000.0, rel=1e-12)
    assert stats[0].mean_range == pytest.approx(10.0, abs=1e-9)


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
    assert stats_default[0].count == n - 1
    assert stats_off[0].count == n
    assert stats_default[0].std_range < stats_off[0].std_range
    assert stats_default[0].std_range == pytest.approx(2.0, rel=0.25)


def test_max_passes_zero_keeps_everything():
    values = [1.0] * 30 + [100.0]
    ds = ladder_dataset([0.001], [values], [[5.0] * 31], profiles=31)
    stats = preprocess(
        ds,
        PreprocessConfig(
            min_tick_count=2, max_passes=0, tick_mode=TickMode.EXPLICIT_COLUMN
        ),
    )
    assert stats[0].count == 31


def test_multiple_passes_catch_masked_outlier():
    # the 100.0 inflates sigma enough to shelter the 30.0 in pass one
    values = [1.0] * 30 + [30.0, 100.0]
    ds = ladder_dataset([0.001], [values], [[5.0] * 32], profiles=32)
    mode = TickMode.EXPLICIT_COLUMN
    one = preprocess(ds, PreprocessConfig(min_tick_count=2, max_passes=1, tick_mode=mode))
    two = preprocess(ds, PreprocessConfig(min_tick_count=2, max_passes=2, tick_mode=mode))
    assert one[0].count == 31
    assert two[0].count == 30


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
    for s, t in zip(stats, truth.ticks):
        se = t.true_sigma_mm / math.sqrt(2 * n)
        assert abs(s.std_range - t.true_sigma_mm) < 4 * se, (
            f"tick {s.tick_id}: std {s.std_range} vs truth {t.true_sigma_mm}"
        )


def test_tick_stats_csv_round_trip():
    stats = [
        TickStats(0, 0.001, 1500.0, 9.998765432109876, 1.2345678901234567, 300),
        TickStats(1, 0.002, 800.5, 25.0, 3.5, 450),
    ]
    back = read_tick_stats_csv(tick_stats_to_csv(stats))
    assert back == stats


def test_tick_table_is_calibrated_throughout_or_not_at_all():
    plain = TickStats(0, 0.001, 1500.0, 10.0, 1.5, 300)
    calibrated = TickStats(1, 0.002, 800.5, 25.0, 3.5, 450, calibrated_intensity=12.8)
    assert tick_stats_to_csv([]) == TICK_STATS_HEADER + "\n"
    assert tick_stats_to_csv([calibrated]).startswith(CALIBRATED_HEADER + "\n")
    assert read_tick_stats_csv(tick_stats_to_csv([calibrated])) == [calibrated]
    with pytest.raises(ValueError, match="1 of 2 ticks are calibrated"):
        tick_stats_to_csv([plain, calibrated])


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
    ],
    ids=["empty", "header", "short", "long", "calibrated-short", "float", "int", "calibrated"],
)
def test_tick_table_errors_name_their_line(text, line):
    with pytest.raises(MalformedRow) as err:
        read_tick_stats_csv(text)
    assert err.value.line_number == line
    assert str(err.value).startswith(f"line {line}: ")
