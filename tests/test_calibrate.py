"""Reference-range calibration of scaled intensities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tick_table
from rangevar.calibrate import (
    CalibrationConfig,
    calibrate_intensity,
    calibrate_ticks,
    calibrated_ticks_to_csv,
    read_calibrated_ticks_csv,
)
from rangevar.errors import NonPositiveRange, RangevarError
from rangevar.evaluate import evaluate_against_ticks
from rangevar.fit import RangeVarianceModel
from rangevar.ingest import IntensityKind
from rangevar.preprocess import CALIBRATED_HEADER, TICK_STATS_HEADER, TickStats


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
    ticks = tick_table([tick(0, 80.0, 10.0), tick(1, 80.0, 20.0)])
    cal = calibrate_ticks(ticks, CalibrationConfig(10.0)).calibrated_intensity
    assert cal[0] == pytest.approx(4.0 * cal[1])


def test_empty_list_gives_empty_list():
    calibrated = calibrate_ticks(tick_table([]), CalibrationConfig(10.0))
    assert list(calibrated) == []
    # zero ticks calibrated are a calibrated table: its header has the column and reads back
    assert calibrated.calibrated_intensity is not None
    text = calibrated_ticks_to_csv(calibrated)
    assert text == CALIBRATED_HEADER + "\n"
    assert read_calibrated_ticks_csv(text) == calibrated
    assert calibrated_ticks_to_csv(tick_table([])) == TICK_STATS_HEADER + "\n"


def test_error_carries_tick_context():
    ticks = tick_table([tick(0, 80.0, 10.0), tick(7, 80.0, -1.0)])
    with pytest.raises(NonPositiveRange) as err:
        calibrate_ticks(ticks, CalibrationConfig(10.0))
    assert "tick 7" in str(err.value)


@pytest.mark.parametrize(
    "intensity, mean_range, r_ref",
    [(1500.0, 1e308, 10.0), (1500.0, 1e-200, 10.0), (0.0, 1e-200, 1e-200), (1e300, 1e-10, 10.0)],
    ids=["range-squared-overflows", "range-squared-underflows", "zero-over-zero", "result-overflows"],
)
def test_result_outside_the_float_range_names_the_tick(intensity, mean_range, r_ref):
    ticks = tick_table([tick(0, 80.0, 10.0), tick(4, intensity, mean_range)])
    with pytest.raises(RangevarError, match=r"^tick 4: calibrating intensity .* leaves the float range$"):
        calibrate_ticks(ticks, CalibrationConfig(r_ref))


def test_zero_intensity_and_finite_results_keep_the_formula():
    cfg = CalibrationConfig(10.0)
    assert calibrate_intensity(0.0, 1e-150, cfg) == 0.0
    for intensity, mean_range in [(1500.0, 1e150), (1e-300, 1e-100), (123.25, 7.5), (5e-324, 3.0)]:
        assert calibrate_intensity(intensity, mean_range, cfg) == intensity * 10.0 / mean_range**2


def test_calibration_leaves_everything_else_untouched():
    ticks = tick_table([tick(3, 45.0, 12.5, std=2.25, count=321)])
    [cal] = calibrate_ticks(ticks, CalibrationConfig(10.0))
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
    ticks = tick_table([tick(0, 80.0, 10.0), tick(1, 75.5, 20.0)])
    cal = calibrate_ticks(ticks, CalibrationConfig(12.5))
    back = read_calibrated_ticks_csv(calibrated_ticks_to_csv(cal))
    assert back == cal


def test_calibrated_column_is_the_scalar_formula_bit_for_bit():
    # Python's ** squares with libm pow, which rounds some squares unlike x*x
    ranges = np.random.default_rng(5).uniform(5.0, 60.0, 100_000)
    assert np.count_nonzero(ranges * ranges != np.array([r**2 for r in ranges.tolist()])) > 0
    intensities = np.random.default_rng(6).uniform(1.0, 1e5, ranges.size)
    ticks = tick_table([tick(i, x, r) for i, (x, r) in enumerate(zip(intensities.tolist(), ranges.tolist()))])
    cfg = CalibrationConfig(12.5)
    expected = [calibrate_intensity(x, r, cfg) for x, r in zip(intensities.tolist(), ranges.tolist())]
    cal = calibrate_ticks(ticks, cfg)
    assert cal.calibrated_intensity.tobytes() == np.array(expected).tobytes()
    assert all(np.array_equal(getattr(cal, name), getattr(ticks, name)) for name in TickStats._fields[:-1])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1500.0, 10.0), (900.0, 12.0), (800.0, 20.0), (700.0, -1.0), (600.0, 30.0), (1500.0, 1e200)],
         "tick 3: mean_range must be > 0, got -1.0"),
        ([(1500.0, 10.0), (900.0, 1e200), (800.0, 20.0)],
         "tick 1: calibrating intensity 900.0 at 1e+200 m leaves the float range"),
        ([(1500.0, 10.0), (900.0, 12.0), (800.0, 1e-200)],
         "tick 2: calibrating intensity 800.0 at 1e-200 m leaves the float range"),
    ],
    ids=["first-bad-tick-wins", "square-overflows", "square-underflows"],
)
def test_column_errors_read_as_the_scalar_ones(rows, message):
    ticks = tick_table([tick(i, x, r) for i, (x, r) in enumerate(rows)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangevarError) as err:
            calibrate_ticks(ticks, CalibrationConfig(10.0))
    assert str(err.value) == message


def test_non_positive_intensity_error_names_python_values():
    ticks = tick_table([TickStats(0, 0.001, 80.0, 10.0, 1.0, 100, 5.0),
                        TickStats(9, 0.002, 80.0, 10.0, 1.0, 100, -2.5)])
    m = RangeVarianceModel(1.0, -1.0, 0.1, (1.0, 10.0), IntensityKind.CALIBRATED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangevarError) as err:
            evaluate_against_ticks(m, ticks)
    assert str(err.value) == "tick 9: intensity -2.5"
