"""Synthetic scan generator: layout, determinism, scaling, injection."""

import math

import numpy as np
import pytest

from _reference import ref_simulate_rows
from conftest import dataset_rows
from rangevar.errors import InvalidConfig, NonPositiveRange
from rangevar.ingest import IntensityKind
from rangevar.simulate import (
    Board,
    CustomMonotoneScaling,
    GROUND_TRUTH_HEADER,
    InverseSquareScaling,
    OutlierInjection,
    SimulationConfig,
    TICK_STEP,
    ground_truth_to_csv,
    radar_intensity,
    simulate_profiles,
)

TRUTH = (29853.0, -1.02, 0.08)


def config(**overrides):
    base = dict(
        k_system=1e7,
        boards=(Board(0.5, 10.0, 0.0, 2, 50), Board(0.9, 25.0, 0.3, 3, 40)),
        truth_model=TRUTH,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def truth_rows(truth):
    """(tick_id, vertical_angle, true_intensity, true_sigma_mm) of each tick, as Python values."""
    columns = (truth.tick_id, truth.vertical_angle, truth.true_intensity, truth.true_sigma_mm)
    return list(zip(*(column.tolist() for column in columns)))


# ---- radar equation ----------------------------------------------------------

def test_radar_linear_in_k_and_reflectivity():
    base = radar_intensity(1e6, 0.5, 10.0, 0.0)
    assert radar_intensity(2e6, 0.5, 10.0, 0.0) == pytest.approx(2 * base)
    assert radar_intensity(1e6, 1.0, 10.0, 0.0) == pytest.approx(2 * base)


def test_radar_inverse_square_in_range():
    near = radar_intensity(1e6, 0.5, 10.0, 0.0)
    far = radar_intensity(1e6, 0.5, 20.0, 0.0)
    assert near == pytest.approx(4 * far, rel=1e-14)


def test_radar_cosine_incidence():
    head_on = radar_intensity(1e6, 0.5, 10.0, 0.0)
    oblique = radar_intensity(1e6, 0.5, 10.0, math.pi / 3)
    assert oblique == pytest.approx(0.5 * head_on, rel=1e-12)
    # grazing incidence returns (numerically almost) nothing
    assert radar_intensity(1e6, 0.5, 10.0, math.pi / 2) == pytest.approx(0.0, abs=1e-10)


def test_radar_accepts_arrays_and_rejects_bad_range():
    out = radar_intensity(1e6, 0.5, np.array([10.0, 20.0]), 0.0)
    assert out.shape == (2,)
    with pytest.raises(NonPositiveRange):
        radar_intensity(1e6, 0.5, 0.0, 0.0)


# ---- config validation -------------------------------------------------------

def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        config(k_system=0.0)
    with pytest.raises(InvalidConfig):
        config(boards=())
    with pytest.raises(InvalidConfig):
        config(boards=(Board(0.0, 10.0, 0.0, 1, 1),))
    with pytest.raises(InvalidConfig):
        config(boards=(Board(1.5, 10.0, 0.0, 1, 1),))
    with pytest.raises(InvalidConfig):
        config(boards=(Board(0.5, -1.0, 0.0, 1, 1),))
    with pytest.raises(InvalidConfig):
        config(boards=(Board(0.5, 10.0, math.pi / 2, 1, 1),))
    with pytest.raises(InvalidConfig):
        config(boards=(Board(0.5, 10.0, 0.0, 0, 1),))
    with pytest.raises(InvalidConfig):
        config(boards=(Board(0.5, 10.0, 0.0, 1, 0),))
    with pytest.raises(InvalidConfig):
        config(outlier_injection=OutlierInjection(fraction=1.0))
    with pytest.raises(InvalidConfig):
        config(seed=1.0)


def test_nonpositive_truth_sigma_rejected_at_generation():
    cfg = config(truth_model=(0.0, -1.0, -0.1))
    with pytest.raises(InvalidConfig):
        simulate_profiles(cfg)


def test_scaling_table_validation():
    with pytest.raises(InvalidConfig):
        CustomMonotoneScaling([1.0], [2.0])
    with pytest.raises(InvalidConfig):
        CustomMonotoneScaling([1.0, 2.0], [2.0])
    with pytest.raises(InvalidConfig):
        CustomMonotoneScaling([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(InvalidConfig):
        CustomMonotoneScaling([1.0, 2.0], [3.0, 3.0])
    with pytest.raises(InvalidConfig):
        InverseSquareScaling(0.0)


# ---- layout ------------------------------------------------------------------

def test_global_tick_ladder_and_row_counts():
    ds, truth = simulate_profiles(config())
    assert len(ds) == 2 * 50 + 3 * 40
    assert truth.tick_id.dtype == np.int64
    assert truth.tick_id.tolist() == [0, 1, 2, 3, 4]
    assert truth.vertical_angle.tolist() == pytest.approx(
        [(i + 1) * TICK_STEP for i in range(5)]
    )


def test_profile_major_emission_within_board():
    ds, _ = simulate_profiles(
        SimulationConfig(1e7, (Board(0.5, 10.0, 0.0, 2, 3),), TRUTH, seed=1)
    )
    angles = ds.vertical_angle.tolist()
    profiles = ds.profile.tolist()
    a1, a2 = TICK_STEP, 2 * TICK_STEP
    assert angles == pytest.approx([a1, a2, a1, a2, a1, a2])
    assert profiles == [0, 0, 1, 1, 2, 2]


def test_truth_matches_radar_equation_and_model():
    cfg = config()
    _, truth = simulate_profiles(cfg)
    a, b, c = TRUTH
    board_of_tick = [cfg.boards[0]] * 2 + [cfg.boards[1]] * 3
    for (_, _, true_intensity, true_sigma_mm), board in zip(truth_rows(truth), board_of_tick):
        expect_i = radar_intensity(
            cfg.k_system, board.reflectivity, board.distance, board.incidence_angle
        )
        assert true_intensity == pytest.approx(expect_i, rel=1e-14)
        assert true_sigma_mm == pytest.approx(a * expect_i**b + c, rel=1e-14)


def test_ranges_distributed_around_board_distance():
    cfg = SimulationConfig(1e7, (Board(0.5, 10.0, 0.0, 1, 4000),), TRUTH, seed=3)
    ds, truth = simulate_profiles(cfg)
    r = ds.range
    sigma_m = truth.true_sigma_mm[0] / 1000.0
    assert abs(r.mean() - 10.0) < 5 * sigma_m / math.sqrt(len(r))
    assert r.std(ddof=1) == pytest.approx(sigma_m, rel=0.15)


# ---- determinism -------------------------------------------------------------

def test_bit_identical_for_identical_configs():
    d1, t1 = simulate_profiles(config())
    d2, t2 = simulate_profiles(config())
    assert dataset_rows(d1) == dataset_rows(d2)
    assert (d1.meta, d1.skipped_rows) == (d2.meta, d2.skipped_rows)
    assert (truth_rows(t1), t1.outlier_indices) == (truth_rows(t2), t2.outlier_indices)


@pytest.mark.parametrize("scaling", [None, InverseSquareScaling(10.0), CustomMonotoneScaling([1.0, 1e7], [0.1, 100.0])])
def test_columns_match_row_by_row_reference(scaling):
    cfg = config(
        scaling=scaling,
        outlier_injection=OutlierInjection(fraction=0.05, magnitude_sigma=8.0),
        seed=2024,
    )
    ds, truth = simulate_profiles(cfg)
    rows, outliers = ref_simulate_rows(cfg)
    assert dataset_rows(ds) == rows
    assert list(truth.outlier_indices) == outliers


def test_seed_changes_draws():
    d1, _ = simulate_profiles(config(seed=7))
    d2, _ = simulate_profiles(config(seed=8))
    assert dataset_rows(d1) != dataset_rows(d2)


def test_prepending_a_board_leaves_later_board_draws_alone():
    # per-board spawned generators: adding a board shifts tick ids but
    # must not change another board's noise
    solo = SimulationConfig(1e7, (Board(0.9, 25.0, 0.3, 3, 40),), TRUTH, seed=7)
    d_solo, _ = simulate_profiles(solo)
    ranges_solo = sorted(d_solo.range.tolist())
    # same board in second position within the default config
    d_pair, _ = simulate_profiles(config())
    # n.b. spawn order: child 0 feeds board 0; board at index 1 gets a
    # different child stream than when it sits at index 0
    pair_second = sorted(d_pair.range[100:].tolist())
    assert len(pair_second) == len(ranges_solo) == 120
    assert ranges_solo != pair_second


# ---- scaling -----------------------------------------------------------------

def test_raw_records_true_intensity():
    ds, truth = simulate_profiles(config(scaling=None))
    assert ds.meta.intensity_kind is IntensityKind.RAW
    by_angle = dict(zip(truth.vertical_angle.tolist(), truth.true_intensity.tolist()))
    for angle, intensity in zip(ds.vertical_angle.tolist(), ds.intensity.tolist()):
        assert intensity == by_angle[angle]


def test_inverse_square_is_exactly_invertible_per_tick():
    r_ref = 10.0
    ds, truth = simulate_profiles(config(scaling=InverseSquareScaling(r_ref)))
    assert ds.meta.intensity_kind is IntensityKind.SCALED
    per_tick_ranges: dict[float, list[float]] = {}
    per_tick_recorded: dict[float, float] = {}
    for angle, r, intensity in zip(
        ds.vertical_angle.tolist(), ds.range.tolist(), ds.intensity.tolist()
    ):
        per_tick_ranges.setdefault(angle, []).append(r)
        per_tick_recorded[angle] = intensity
    for angle, true_intensity in zip(truth.vertical_angle.tolist(), truth.true_intensity.tolist()):
        mean_r = np.mean(per_tick_ranges[angle])
        back = per_tick_recorded[angle] * r_ref / mean_r**2
        assert back == pytest.approx(true_intensity, rel=1e-12)


def test_custom_monotone_preserves_intensity_order():
    table_true = [1.0, 1e3, 1e5, 1e7]
    table_rec = [0.1, 5.0, 80.0, 100.0]
    scaling = CustomMonotoneScaling(table_true, table_rec)
    assert scaling.apply(1e3) == 5.0
    assert scaling.apply(math.sqrt(1e3 * 1e3)) == 5.0
    cfg = config(
        boards=(
            Board(0.1, 30.0, 0.0, 1, 10),
            Board(0.5, 20.0, 0.0, 1, 10),
            Board(0.9, 10.0, 0.0, 1, 10),
        ),
        scaling=scaling,
    )
    ds, truth = simulate_profiles(cfg)
    assert ds.meta.intensity_kind is IntensityKind.SCALED
    rec_by_angle = dict(zip(ds.vertical_angle.tolist(), ds.intensity.tolist()))
    ordered = sorted(truth_rows(truth), key=lambda t: t[2])
    recorded = [rec_by_angle[angle] for _, angle, _, _ in ordered]
    assert recorded == sorted(recorded)
    assert len(set(recorded)) == 3


# ---- outlier injection -------------------------------------------------------

def test_injection_count_and_indices():
    cfg = SimulationConfig(
        1e7,
        (Board(0.5, 10.0, 0.0, 2, 200),),
        TRUTH,
        outlier_injection=OutlierInjection(fraction=0.05, magnitude_sigma=10.0),
        seed=99,
    )
    ds, truth = simulate_profiles(cfg)
    assert len(truth.outlier_indices) == 2 * round(0.05 * 200)
    assert list(truth.outlier_indices) == sorted(set(truth.outlier_indices))
    sigma_m = truth.true_sigma_mm[0] / 1000.0
    flagged = set(truth.outlier_indices)
    for i, r in enumerate(ds.range.tolist()):
        dev = abs(r - 10.0)
        if i in flagged:
            assert dev > 5 * sigma_m
        else:
            assert dev < 5 * sigma_m


def test_zero_magnitude_disables_injection():
    cfg = config(outlier_injection=OutlierInjection(fraction=0.1, magnitude_sigma=0.0))
    _, truth = simulate_profiles(cfg)
    assert truth.outlier_indices == ()


def test_tiny_fraction_rounds_to_zero_outliers():
    cfg = config(outlier_injection=OutlierInjection(fraction=0.001, magnitude_sigma=10.0))
    # 0.001 * 50 and 0.001 * 40 both round to 0
    _, truth = simulate_profiles(cfg)
    assert truth.outlier_indices == ()


# ---- alignment with preprocessing --------------------------------------------

def test_tick_ids_align_with_preprocess_grouping():
    from rangevar.preprocess import PreprocessConfig, preprocess

    ds, truth = simulate_profiles(config(seed=21))
    stats = preprocess(ds, PreprocessConfig(min_tick_count=10))
    assert [s.tick_id for s in stats] == truth.tick_id.tolist()
    for s, (_, angle, true_intensity, _) in zip(stats, truth_rows(truth)):
        assert s.vertical_angle_center == pytest.approx(angle)
        assert s.mean_intensity == pytest.approx(true_intensity, rel=1e-14)


# ---- sidecar CSV -------------------------------------------------------------

def test_ground_truth_csv_layout():
    _, truth = simulate_profiles(config())
    lines = ground_truth_to_csv(truth).splitlines()
    assert lines[0] == GROUND_TRUTH_HEADER
    assert len(lines) == 1 + len(truth.tick_id)
    _, _, true_intensity, true_sigma_mm = truth_rows(truth)[0]
    assert lines[1] == f"0,{true_intensity!r},{true_sigma_mm!r}"
