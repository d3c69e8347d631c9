"""Reference-range calibration of scaled intensities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangevar.calibrate import (
    CalibrationConfig,
    calibrate_intensity,
    calibrate_ticks,
    calibrated_ticks_to_csv,
    read_calibrated_ticks_csv,
)
from rangevar.errors import NonPositiveRange, RangevarError
from rangevar.preprocess import TickStats


def tick(tick_id, intensity, mean_range, std=1.0, count=100):
    return TickStats(tick_id, 0.001 * (tick_id + 1), intensity, mean_range, std, count)


def test_direct_substitution():
    assert calibrate_intensity(100.0, 10.0, CalibrationConfig(10.0)) == pytest.approx(10.0)
    assert calibrate_intensity(50.0, 5.0, CalibrationConfig(20.0)) == pytest.approx(40.0)


def test_zero_range_rejected():
    with pytest.raises(NonPositiveRange):
        calibrate_intensity(100.0, 0.0, CalibrationConfig(10.0))


def test_bad_r_ref_rejected():
    with pytest.raises(ValueError):
        CalibrationConfig(0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(math.inf)


def test_equal_intensity_distance_ratio():
    # equal recorded intensity at 10 m and 20 m: calibrated values 4:1
    ticks = [tick(0, 80.0, 10.0), tick(1, 80.0, 20.0)]
    cal = calibrate_ticks(ticks, CalibrationConfig(10.0))
    assert cal[0].calibrated_intensity == pytest.approx(4.0 * cal[1].calibrated_intensity)


def test_empty_list_gives_empty_list():
    assert calibrate_ticks([], CalibrationConfig(10.0)) == []


def test_error_carries_tick_context():
    ticks = [tick(0, 80.0, 10.0), tick(7, 80.0, -1.0)]
    with pytest.raises(NonPositiveRange) as err:
        calibrate_ticks(ticks, CalibrationConfig(10.0))
    assert "tick 7" in str(err.value)


@pytest.mark.parametrize(
    "intensity, mean_range, r_ref",
    [(1500.0, 1e308, 10.0), (1500.0, 1e-200, 10.0), (0.0, 1e-200, 1e-200), (1e300, 1e-10, 10.0)],
    ids=["range-squared-overflows", "range-squared-underflows", "zero-over-zero", "result-overflows"],
)
def test_result_outside_the_float_range_names_the_tick(intensity, mean_range, r_ref):
    ticks = [tick(0, 80.0, 10.0), tick(4, intensity, mean_range)]
    with pytest.raises(RangevarError, match=r"^tick 4: calibrating intensity .* leaves the float range$"):
        calibrate_ticks(ticks, CalibrationConfig(r_ref))


def test_zero_intensity_and_finite_results_keep_the_formula():
    cfg = CalibrationConfig(10.0)
    assert calibrate_intensity(0.0, 1e-150, cfg) == 0.0
    for intensity, mean_range in [(1500.0, 1e150), (1e-300, 1e-100), (123.25, 7.5), (5e-324, 3.0)]:
        assert calibrate_intensity(intensity, mean_range, cfg) == intensity * 10.0 / mean_range**2


def test_calibration_leaves_everything_else_untouched():
    ticks = [tick(3, 45.0, 12.5, std=2.25, count=321)]
    cal = calibrate_ticks(ticks, CalibrationConfig(10.0))[0]
    assert cal.tick_id == 3
    assert cal.std_range == 2.25
    assert cal.count == 321
    assert cal.mean_intensity == 45.0
    assert cal.mean_range == 12.5


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
)
def test_homogeneity_in_intensity(intensity, exponent, mean_range, r_ref):
    # exact for power-of-two factors (multiplication is exact away from
    # the subnormal range)
    lam = 2.0**exponent
    cfg = CalibrationConfig(r_ref)
    direct = calibrate_intensity(lam * intensity, mean_range, cfg)
    scaled = lam * calibrate_intensity(intensity, mean_range, cfg)
    assert direct == scaled or math.isclose(direct, scaled, rel_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    st.integers(min_value=-10, max_value=10),
)
def test_inverse_square_range_law(intensity, mean_range, exponent):
    lam = 2.0**exponent
    cfg = CalibrationConfig(25.0)
    base = calibrate_intensity(intensity, mean_range, cfg)
    scaled = calibrate_intensity(intensity, lam * mean_range, cfg)
    assert scaled == pytest.approx(base / lam**2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
)
def test_strictly_increasing_in_r_ref(intensity, mean_range, r_ref, factor):
    low = calibrate_intensity(intensity, mean_range, CalibrationConfig(r_ref))
    high = calibrate_intensity(intensity, mean_range, CalibrationConfig(r_ref * factor))
    assert high > low


def test_simulator_inverse_square_recovers_truth_to_1e9():
    import rangevar as rv
    from rangevar.preprocess import PreprocessConfig, preprocess

    cfg = rv.SimulationConfig(
        k_system=1e7,
        boards=(
            rv.Board(0.1, 10.0, 0.0, 2, 400),
            rv.Board(0.5, 25.0, 0.0, 2, 400),
            rv.Board(0.9, 50.0, 0.0, 2, 400),
        ),
        truth_model=(29853.0, -1.02, 0.08),
        scaling=rv.InverseSquareScaling(10.0),
        seed=31,
    )
    ds, truth = rv.simulate_profiles(cfg)
    assert ds.meta.intensity_kind is rv.IntensityKind.SCALED
    # screening disabled: removals would shift the tick mean range away
    # from the value the scaling was generated with
    stats = preprocess(ds, PreprocessConfig(max_passes=0))
    cal = calibrate_ticks(stats, CalibrationConfig(10.0))
    truth_by_id = dict(zip(truth.tick_id.tolist(), truth.true_intensity.tolist()))
    for c in cal:
        expected = truth_by_id[c.tick_id]
        assert abs(c.calibrated_intensity - expected) / expected < 1e-9


def test_calibrated_csv_round_trip():
    ticks = [tick(0, 80.0, 10.0), tick(1, 75.5, 20.0)]
    cal = calibrate_ticks(ticks, CalibrationConfig(12.5))
    back = read_calibrated_ticks_csv(calibrated_ticks_to_csv(cal))
    assert back == cal
