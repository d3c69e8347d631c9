"""Residual metrics, model comparison grids, and VCM blocks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, tick_table
from rangevar.errors import EmptyGrid, EmptyStats, MissingColumn, NonPositiveIntensity
from rangevar.evaluate import (
    AngularSigmas,
    EVALUATION_HEADER,
    VCM_HEADER,
    build_vcm,
    compare_models,
    evaluate_against_ticks,
    evaluation_report_to_csv,
    max_abs_residual,
    rmse,
    vcm_to_csv,
)
from rangevar.fit import RangeVarianceModel, evaluate_model
from rangevar.ingest import IntensityKind
from rangevar.preprocess import TickStats

from _reference import ref_comparison_rows, ref_max_abs, ref_rmse, ref_tick_residual_rows


def model(a, b, c, domain=(1.0, 1e6), kind=IntensityKind.RAW):
    return RangeVarianceModel(a, b, c, domain, kind)


def tick(tick_id, intensity, std):
    return TickStats(tick_id, 0.001 * (tick_id + 1), intensity, 10.0, std, 100)


# ---- summary metrics ---------------------------------------------------------

def test_rmse_hand_value():
    # sqrt((9 + 16) / 2) = sqrt(12.5)
    assert rmse([3.0, 4.0]) == pytest.approx(3.5355339059327376, rel=1e-15)


def test_max_abs_hand_value():
    assert max_abs_residual([3.0, -4.0]) == 4.0


def test_zero_residuals_give_zero_metrics():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert max_abs_residual([0.0]) == 0.0


def test_empty_residuals_rejected():
    with pytest.raises(EmptyStats):
        rmse([])
    with pytest.raises(EmptyStats):
        max_abs_residual([])


def test_metrics_match_fsum_reference(rng):
    for _ in range(25):
        res = rng.normal(0, 1, rng.integers(1, 200))
        assert rmse(res) == pytest.approx(ref_rmse(res.tolist()), rel=1e-13)
        assert max_abs_residual(res) == ref_max_abs(res.tolist())


# ---- evaluate_against_ticks --------------------------------------------------

def test_exact_ticks_give_zero_residuals():
    m = model(29853.0, -1.02, 0.08)
    ticks = [tick(i, I, evaluate_model(m, I)) for i, I in enumerate([1e3, 1e4, 1e5])]
    rep = evaluate_against_ticks(m, tick_table(ticks))
    assert rep.rmse == 0.0
    assert rep.max_abs_residual == 0.0
    assert rep.residuals.tolist() == [0.0, 0.0, 0.0]


def test_residual_is_predicted_minus_observed():
    m = model(0.0, -1.0, 1.0)  # constant prediction of 1 mm
    rep = evaluate_against_ticks(m, tick_table([tick(0, 1e4, 0.95)]))
    assert rep.residuals[0] == pytest.approx(0.05)
    assert rep.predicted_std[0] == 1.0
    assert rep.observed_std[0] == 0.95


def test_out_of_domain_ticks_flagged_not_dropped():
    m = model(0.0, -1.0, 1.0, domain=(1e3, 1e4))
    ticks = [tick(0, 500.0, 1.0), tick(1, 5e3, 1.0), tick(2, 2e4, 1.0)]
    rep = evaluate_against_ticks(m, tick_table(ticks))
    assert len(rep.residuals) == 3
    assert rep.extrapolated.tolist() == [True, False, True]
    assert rep.extrapolated_count == 2


def test_domain_endpoints_count_as_inside():
    m = model(0.0, -1.0, 1.0, domain=(1e3, 1e4))
    rep = evaluate_against_ticks(m, tick_table([tick(0, 1e3, 1.0), tick(1, 1e4, 1.0)]))
    assert rep.extrapolated_count == 0


def test_calibrated_model_requires_calibrated_ticks():
    m = model(0.0, -1.0, 1.0, kind=IntensityKind.CALIBRATED)
    plain = tick_table([tick(0, 1e4, 1.0), tick(1, 1e3, 1.0)])
    with pytest.raises(MissingColumn, match="calibrated_intensity"):
        evaluate_against_ticks(m, plain)
    # a mixed table cannot be built: a calibrated column must cover every tick
    with pytest.raises(ValueError, match="tick columns must be 1-D and of one length"):
        replace(plain, calibrated_intensity=[2.0])


def test_calibrated_model_reads_calibrated_abscissa():
    m = model(1.0, -1.0, 0.0, kind=IntensityKind.CALIBRATED)
    # raw mean intensity would predict 1/100; calibrated must win
    ct = TickStats(0, 0.001, 100.0, 10.0, 0.5, 50, calibrated_intensity=2.0)
    rep = evaluate_against_ticks(m, tick_table([ct]))
    assert rep.intensity[0] == 2.0
    assert rep.predicted_std[0] == pytest.approx(0.5)


COLUMN_DTYPES = {
    "tick_id": np.int64, "intensity": np.float64, "observed_std": np.float64,
    "predicted_std": np.float64, "residuals": np.float64, "extrapolated": np.bool_,
}


def _rows(report):
    columns = [getattr(report, name) for name in COLUMN_DTYPES]
    assert [c.dtype for c in columns] == list(COLUMN_DTYPES.values())
    assert len({c.shape for c in columns}) == 1
    return list(zip(*(c.tolist() for c in columns)))


PARAMS = st.tuples(
    st.floats(1e-3, 1e5), st.floats(-3.0, 1.0), st.floats(0.0, 1.0),
    st.floats(1e-2, 1e3), st.floats(2.0, 1e4),
)
INTENSITIES = st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(PARAMS, PARAMS, INTENSITIES, st.booleans())
def test_rows_match_per_point_reference(p1, p2, intensities, calibrated):
    kind = IntensityKind.CALIBRATED if calibrated else IntensityKind.RAW
    m1 = model(*p1[:3], domain=(p1[3], p1[3] * p1[4]), kind=kind)
    m2 = model(*p2[:3], domain=(p2[3], p2[3] * p2[4]))
    intensities = intensities + [*m1.intensity_domain, *m2.intensity_domain]
    ticks = [
        TickStats(i, 0.001, x if not calibrated else 7.0, 10.0, 0.25 * (i % 7), 50,
                  calibrated_intensity=x if calibrated else None)
        for i, x in enumerate(intensities)
    ]
    assert _rows(evaluate_against_ticks(m1, tick_table(ticks))) == ref_tick_residual_rows(
        m1, ticks, evaluate_model)
    assert _rows(compare_models(m1, m2, intensities)) == ref_comparison_rows(
        m1, m2, intensities, evaluate_model)


def test_empty_tick_list_rejected():
    with pytest.raises(EmptyStats):
        evaluate_against_ticks(model(1.0, -1.0, 0.1), tick_table([]))


# ---- compare_models ----------------------------------------------------------

def test_identical_models_compare_to_zero():
    m = model(29853.0, -1.02, 0.08)
    rep = compare_models(m, m, np.geomspace(10.0, 1e5, 50))
    assert rep.rmse == 0.0
    assert rep.max_abs_residual == 0.0


def test_offset_pair_differs_by_the_offset():
    m1 = model(29853.0, -1.02, 0.08)
    m2 = model(29853.0, -1.02, 0.13)
    rep = compare_models(m1, m2, [1e3, 1e4, 1e5])
    for residual in rep.residuals:
        assert residual == pytest.approx(-0.05, rel=1e-12)
    assert rep.max_abs_residual == pytest.approx(0.05, rel=1e-12)


def test_comparison_is_antisymmetric():
    m1 = model(29853.0, -1.02, 0.08)
    m2 = model(18516.0, -0.872, 0.18)
    grid = np.geomspace(1e3, 1e5, 17)
    fwd = compare_models(m1, m2, grid)
    rev = compare_models(m2, m1, grid)
    for a, b in zip(fwd.residuals, rev.residuals):
        assert a == pytest.approx(-b, rel=1e-12)


def test_comparison_flags_points_outside_either_domain():
    m1 = model(1.0, -1.0, 0.1, domain=(1e2, 1e4))
    m2 = model(1.0, -1.0, 0.1, domain=(1e3, 1e5))
    rep = compare_models(m1, m2, [5e2, 5e3, 5e4])
    assert rep.extrapolated.tolist() == [True, False, True]
    assert rep.tick_id[1] == 1


def test_comparison_grid_validation():
    m = model(1.0, -1.0, 0.1)
    with pytest.raises(EmptyGrid):
        compare_models(m, m, [])
    with pytest.raises(NonPositiveIntensity):
        compare_models(m, m, [1e3, 0.0])


def test_high_rate_pair_agreement_pin():
    # regression pin: these two parameter sets describe the same
    # instrument class at the same rate; on the shared intensity span
    # [3e4, 1.5e5] they stay within 0.2 mm (max 0.172 mm, frozen from a
    # 60-digit evaluation)
    m1 = model(100195.0, -1.03, 0.21, domain=(3e4, 1.5e5))
    m2 = model(18516.0, -0.872, 0.18, domain=(3e4, 1.5e5))
    grid = 3e4 * 5.0 ** (np.arange(64) / 63.0)
    rep = compare_models(m1, m2, grid)
    assert rep.max_abs_residual == pytest.approx(0.172, abs=5e-4)
    assert rep.max_abs_residual < 0.2
    assert rep.extrapolated_count == 0


# ---- VCM assembly ------------------------------------------------------------

def test_single_observation_block():
    ds = make_dataset([(0, 0.001, 0.0, 10.0, 1e4)])
    blocks = build_vcm(ds, model(0.0, -1.0, 1.0), AngularSigmas(1e-5, 1e-5))
    assert len(blocks) == 1
    assert np.allclose(blocks.var_range_mm2, [1.0], rtol=1e-12)
    assert blocks.var_vertical_rad2 == pytest.approx(1e-10, rel=1e-12)
    assert blocks.var_horizontal_rad2 == pytest.approx(1e-10, rel=1e-12)


def test_blocks_are_diagonal_and_nonnegative():
    rows = [(0, 0.001 * (i + 1), 0.0, 10.0, 1e3 * (i + 1)) for i in range(6)]
    blocks = build_vcm(
        make_dataset(rows), model(29853.0, -1.02, 0.08), AngularSigmas(2e-5, 3e-5)
    )
    assert len(blocks) == 6
    # the off-diagonal terms are zero by construction: the type holds none
    assert blocks.var_range_mm2.shape == (6,)
    assert np.all(blocks.var_range_mm2 >= 0)
    assert blocks.var_vertical_rad2 == pytest.approx(4e-10, rel=1e-12)
    assert blocks.var_horizontal_rad2 == pytest.approx(9e-10, rel=1e-12)


def test_range_variance_is_squared_model_prediction():
    m = model(29853.0, -1.02, 0.08)
    rows = [(0, 0.001 * (i + 1), 0.0, 10.0, I) for i, I in enumerate([2e3, 3e4, 9e4])]
    blocks = build_vcm(make_dataset(rows), m, AngularSigmas(1e-5, 1e-5))
    for i, (_, _, _, _, intensity) in enumerate(rows):
        assert blocks.var_range_mm2[i] == pytest.approx(
            evaluate_model(m, intensity) ** 2, rel=1e-14
        )


def test_vcm_rejects_nonpositive_intensity_with_index():
    rows = [(0, 0.001, 0.0, 10.0, 1e4), (0, 0.002, 0.0, 10.0, -3.0)]
    with pytest.raises(NonPositiveIntensity) as err:
        build_vcm(make_dataset(rows), model(1.0, -1.0, 0.1), AngularSigmas(1e-5, 1e-5))
    assert "observation 1" in str(err.value)


def test_angular_sigma_validation():
    with pytest.raises(ValueError):
        AngularSigmas(0.0, 1e-5)
    with pytest.raises(ValueError):
        AngularSigmas(1e-5, -1e-5)


@pytest.mark.parametrize(
    "vertical, horizontal",
    [(math.inf, 1e-5), (1e-5, math.inf), (math.nan, 1e-5), (1e-5, -math.inf), (1e200, 1e-5)],
    ids=["inf-vertical", "inf-horizontal", "nan-vertical", "minus-inf-horizontal",
         "square-overflows"],
)
def test_angular_sigmas_must_be_finite(vertical, horizontal):
    with pytest.raises(ValueError, match="angular sigmas must be > 0 with a finite square, got "):
        AngularSigmas(vertical, horizontal)


# ---- CSV shapes --------------------------------------------------------------

def test_evaluation_csv_layout():
    m = model(0.0, -1.0, 1.0, domain=(1e3, 1e4))
    rep = evaluate_against_ticks(m, tick_table([tick(0, 5e3, 1.0), tick(1, 2e4, 0.9)]))
    text = evaluation_report_to_csv(rep)
    lines = text.splitlines()
    assert lines[0] == EVALUATION_HEADER
    assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 3
    assert f"#rmse_mm={rep.rmse!r}" in lines
    assert f"#max_abs_residual_mm={rep.max_abs_residual!r}" in lines
    assert "#extrapolated_count=1" in lines
    assert lines[1].endswith(",0") and lines[2].endswith(",1")
    assert text.endswith("\n")


def test_vcm_csv_layout():
    ds = make_dataset([(0, 0.001, 0.0, 10.0, 1e4), (0, 0.002, 0.0, 10.0, 2e4)])
    blocks = build_vcm(ds, model(0.0, -1.0, 1.0), AngularSigmas(1e-5, 2e-5))
    lines = vcm_to_csv(blocks).splitlines()
    assert lines[0] == VCM_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,1.0,")
    assert lines[1].endswith(f",{(1e-5) ** 2!r},{(2e-5) ** 2!r}")
