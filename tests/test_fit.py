"""Model evaluation, starting values, and the damped least-squares fit."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tick_table
from rangevar.errors import (
    DomainViolation,
    NonPositiveIntensity,
    RankDeficient,
    TooFewPoints,
)
from rangevar.fit import (
    FitOptions,
    FitReport,
    RangeVarianceModel,
    evaluate_model,
    fit_general_model,
    fit_model,
    fit_report_to_json,
    initial_guess,
    model_jacobian,
    read_fit_report_json,
)
from rangevar.ingest import IntensityKind


def model(a, b, c, domain=(1.0, 1e6)):
    return RangeVarianceModel(a, b, c, domain, IntensityKind.RAW)


REF = model(29853.0, -1.02, 0.08)


def exact_points(m, intensities):
    return [(float(i), m.a * float(i) ** m.b + m.c) for i in intensities]


# ---- evaluate_model ----------------------------------------------------------

def test_spot_value_against_high_precision_reference():
    # 29853 * 10000**-1.02 + 0.08 evaluated at 60 significant digits
    assert evaluate_model(REF, 1e4) == pytest.approx(
        2.5630643858728037547, rel=1e-12
    )


def test_zero_exponent_collapses_to_constant():
    assert evaluate_model(model(3.0, 0.0, 0.25), 123.456) == pytest.approx(3.25)


def test_zero_amplitude_collapses_to_offset():
    assert evaluate_model(model(0.0, -1.0, 0.7), 9.0) == 0.7


def test_scalar_in_scalar_out_array_in_array_out():
    out = evaluate_model(REF, 1e4)
    assert isinstance(out, float)
    arr = evaluate_model(REF, np.array([1e3, 1e4]))
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(out)


def test_nonpositive_intensity_rejected():
    for bad in (0.0, -5.0, math.nan):
        with pytest.raises(NonPositiveIntensity):
            evaluate_model(REF, bad)
    with pytest.raises(NonPositiveIntensity):
        evaluate_model(REF, np.array([100.0, -1.0]))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1e-2, max_value=1e5),
    st.floats(min_value=-1.5, max_value=-0.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=1.01, max_value=100.0),
)
def test_negative_exponent_means_decreasing(a, b, c, i_low, factor):
    m = model(a, b, c)
    assert evaluate_model(m, i_low) > evaluate_model(m, i_low * factor)


# ---- Jacobian ----------------------------------------------------------------

def test_jacobian_columns_match_central_differences():
    a, b, c = 29853.0, -1.02, 0.08
    intensities = np.array([150.0, 2.5e3, 4e4, 9e4])
    jac = model_jacobian(a, b, c, intensities)

    def sigma(pa, pb, pc):
        return pa * intensities**pb + pc

    for col, (da, db, dc) in enumerate(
        [(1e-4 * a, 0, 0), (0, 1e-7, 0), (0, 0, 1e-7)]
    ):
        h = da + db + dc
        fd = (sigma(a + da, b + db, c + dc) - sigma(a - da, b - db, c - dc)) / (2 * h)
        assert np.allclose(jac[:, col], fd, rtol=1e-6)


def test_jacobian_constant_column():
    jac = model_jacobian(1.0, -1.0, 0.0, [10.0, 20.0, 30.0])
    assert np.all(jac[:, 2] == 1.0)
    assert jac.shape == (3, 3)


# ---- initial guess -----------------------------------------------------------

def test_guess_close_for_exact_power_law_with_offset():
    pts = exact_points(REF, np.geomspace(1e3, 1e5, 10))
    a0, b0, c0 = initial_guess(pts)
    assert c0 == pytest.approx(0.5 * min(s for _, s in pts))
    assert -1.3 < b0 < -0.7
    assert a0 > 0


def test_guess_rejects_two_positive_responses():
    # min(std) = 0 zeroes the offset, leaving only two usable points
    with pytest.raises(RankDeficient):
        initial_guess([(1e2, 10.0), (1e3, 1.0), (1e4, 0.0), (1e5, 0.0)])


def test_guess_tolerates_one_zero_response():
    pts = [(1e2, 10.0), (1e3, 1.0), (1e4, 0.1), (1e5, 0.0)]
    a0, b0, c0 = initial_guess(pts)
    assert c0 == 0.0
    assert b0 < 0


def test_guess_rejects_constant_intensity():
    with pytest.raises(RankDeficient):
        initial_guess([(1e3, 1.0), (1e3, 2.0), (1e3, 3.0)])


def test_guess_rejects_constant_response():
    with pytest.raises(RankDeficient):
        initial_guess([(1e2, 2.0), (1e3, 2.0), (1e4, 2.0)])


def test_guess_needs_three_points():
    with pytest.raises(TooFewPoints):
        initial_guess([(1e3, 1.0), (1e4, 0.5)])


def test_guess_rejects_an_overflowing_amplitude():
    # intensities that barely vary give a slope so steep that exp() of the
    # intercept overflows; it used to escape as OverflowError
    pts = [(900000.0124404618, 1.0), (900001.1532629032, 0.3),
           (899998.0437935555, 4.2), (900000.4327355835, 1.1)]
    with pytest.raises(RankDeficient, match="overflows a0"):
        initial_guess(pts)
    with pytest.raises(RankDeficient, match="overflows a0"):
        fit_model(pts)


def test_guess_rejects_an_underflowing_amplitude():
    # a scaled export's six uncalibrated ticks: the slope b0 = 21,500 makes
    # exp() of the intercept underflow to a0 = 0, which used to surface as
    # a nan fit cost blamed on overflow
    pts = [(900000.0124404618, 0.32762890878839146), (900001.1532629032, 0.2891615925873693),
           (899998.0437935555, 1.0125684981462886), (900000.4327355835, 1.1112229405037544),
           (899986.9356885648, 4.260295176903639), (900029.7078261233, 4.26353100996704)]
    message = r"b0 = 21500.9 underflows a0; the intensities \[899987, 900030\] barely vary"
    with pytest.raises(RankDeficient, match=message):
        initial_guess(pts)
    with pytest.raises(RankDeficient, match=message):
        fit_model(pts)


# ---- fit ---------------------------------------------------------------------

def test_noiseless_data_recovered_to_near_machine_precision():
    pts = exact_points(REF, np.geomspace(120.0, 9e4, 14))
    rep = fit_model(pts)
    assert rep.converged
    assert rep.model.a == pytest.approx(REF.a, rel=1e-9)
    assert rep.model.b == pytest.approx(REF.b, rel=1e-9)
    assert rep.model.c == pytest.approx(REF.c, abs=1e-9)
    assert rep.final_cost < 1e-18
    assert rep.iterations <= 50


def test_domain_recorded_from_data():
    pts = exact_points(REF, [500.0, 2e3, 7e4])
    rep = fit_model(pts)
    assert rep.model.intensity_domain == (500.0, 7e4)


def test_two_points_rejected():
    with pytest.raises(TooFewPoints):
        fit_model([(1e3, 1.0), (1e4, 0.5)])
    with pytest.raises(TooFewPoints, match="need >= 3 points, got 0"):
        fit_model([])


def test_three_duplicated_intensities_rejected():
    with pytest.raises(RankDeficient):
        fit_model([(1e3, 1.0), (1e3, 1.1), (1e4, 0.5), (1e4, 0.6)])


def test_nonpositive_intensity_rejected_in_fit():
    with pytest.raises(NonPositiveIntensity):
        fit_model([(0.0, 1.0), (1e3, 0.5), (1e4, 0.3)])


def test_negative_std_rejected():
    with pytest.raises(ValueError):
        fit_model([(1e2, 1.0), (1e3, -0.5), (1e4, 0.3)])


def test_clamped_tail_raises_domain_violation():
    # draws clamped at zero pull the offset negative; the converged
    # model predicts sigma <= 0 at the high-intensity end of its own data
    pts = [
        (50.0, 1.5),
        (100.0, 0.5),
        (150.0, 1.0 / 6.0),
        (200.0, 0.0),
        (400.0, 0.0),
        (1000.0, 0.0),
    ]
    with pytest.raises(DomainViolation):
        fit_model(pts)


def test_non_finite_cost_raises_domain_violation():
    # squares of 1e300 overflow at any parameters; the fit used to return
    # final_cost = inf and the writer put Infinity into model.json
    pts = [(1e-300, 1.0), (1e-100, 1e100), (1e100, 1e200), (1e300, 1e300)]
    with pytest.raises(DomainViolation, match="fit cost is inf mm\\^2"):
        fit_model(pts)


def test_overflowing_trial_steps_warn_nothing():
    # some rejected LM steps overflow I**b; the fit still converges
    pts = [(518.2150705228999, 0.02949094577250663), (1969.4425522869535, 0.03903990288570059),
           (18368.196440312146, 0.004131797091790875), (20929.686830508334, 0.06565062393470664)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_model(pts)
    assert rep.converged and math.isfinite(rep.final_cost)


def test_hitting_iteration_cap_reports_not_converged():
    rng = np.random.default_rng(11)
    I = np.geomspace(1e3, 1e5, 30)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.05, I.size))
    rep = fit_model(list(zip(I, sig)), FitOptions(max_iterations=1))
    assert rep.iterations == 1
    assert not rep.converged


def test_final_cost_never_above_initial_guess_cost():
    rng = np.random.default_rng(3)
    I = np.geomspace(800.0, 1.2e5, 25)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.1, I.size))
    pts = list(zip(I, sig))
    a0, b0, c0 = initial_guess(pts)
    res0 = a0 * I**b0 + c0 - sig
    rep = fit_model(pts)
    assert rep.final_cost <= float(res0 @ res0)


def test_equal_weights_reproduce_unweighted_parameters():
    rng = np.random.default_rng(19)
    I = np.geomspace(1e3, 1e5, 15)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.02, I.size))
    pts = list(zip(I, sig))
    plain = fit_model(pts)
    weighted = fit_model(pts, FitOptions(weights=tuple([2.5] * len(pts))))
    assert weighted.model.a == pytest.approx(plain.model.a, rel=1e-8)
    assert weighted.model.b == pytest.approx(plain.model.b, rel=1e-8)
    assert weighted.model.c == pytest.approx(plain.model.c, abs=1e-8)
    assert weighted.final_cost == pytest.approx(2.5 * plain.final_cost, rel=1e-8)


def test_weight_validation():
    pts = exact_points(REF, [1e3, 1e4, 1e5])
    with pytest.raises(ValueError):
        fit_model(pts, FitOptions(weights=(1.0, 1.0)))
    with pytest.raises(ValueError):
        fit_model(pts, FitOptions(weights=(1.0, -1.0, 1.0)))


def test_abscissa_rescaling_only_moves_amplitude():
    # fitting on lambda*I must leave b and c alone and send a to
    # a * lambda**(-b)
    rng = np.random.default_rng(7)
    I = np.geomspace(1e3, 1e5, 12)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.01, I.size))
    lam = 2.0
    m1 = fit_model(list(zip(I, sig))).model
    m2 = fit_model(list(zip(lam * I, sig))).model
    assert m2.b == pytest.approx(m1.b, abs=1e-8)
    assert m2.c == pytest.approx(m1.c, abs=1e-8)
    assert m2.a == pytest.approx(m1.a * lam ** (-m1.b), rel=1e-8)


def test_fit_is_deterministic():
    rng = np.random.default_rng(42)
    I = np.geomspace(500.0, 8e4, 20)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.03, I.size))
    pts = list(zip(I, sig))
    r1, r2 = fit_model(pts), fit_model(pts)
    assert r1 == r2


def test_stddevs_nan_at_zero_redundancy():
    rep = fit_model(exact_points(REF, [1e3, 1e4, 1e5]))
    assert all(math.isnan(s) for s in rep.parameter_stddevs)


def test_stddevs_finite_and_positive_with_redundancy():
    rng = np.random.default_rng(123)
    I = np.geomspace(1e3, 1e5, 40)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.05, I.size))
    rep = fit_model(list(zip(I, sig)))
    assert all(math.isfinite(s) and s > 0 for s in rep.parameter_stddevs)


def test_general_fit_tags_calibrated_kind():
    from rangevar.preprocess import TickStats

    rows = [
        TickStats(i, 0.001 * (i + 1), 100.0, 10.0, s, 50, calibrated_intensity=ci)
        for i, (ci, s) in enumerate(
            (float(I), REF.a * float(I) ** REF.b + REF.c)
            for I in np.geomspace(1e3, 1e5, 8)
        )
    ]
    ticks = tick_table(rows)
    rep = fit_general_model(ticks)
    assert rep.model.intensity_kind is IntensityKind.CALIBRATED
    assert rep.model.b == pytest.approx(REF.b, rel=1e-8)
    with pytest.raises(TooFewPoints):
        fit_general_model(tick_table(rows[:2]))
    with pytest.raises(TooFewPoints, match="need >= 3 points, got 0"):
        fit_general_model(tick_table([]))
    # an uncalibrated table is fitted on its mean intensities and keeps the options' tag
    plain = tick_table([t._replace(mean_intensity=t.calibrated_intensity, calibrated_intensity=None)
                        for t in rows])
    opts = FitOptions(max_iterations=50, intensity_kind=IntensityKind.SCALED)
    rep = fit_general_model(plain, opts)
    assert rep == fit_model([(t.mean_intensity, t.std_range) for t in plain], opts)
    assert rep.model.intensity_kind is IntensityKind.SCALED
    # a mixed table cannot be built: a calibrated column must cover every tick
    with pytest.raises(ValueError, match="tick columns must be 1-D and of one length"):
        replace(ticks, calibrated_intensity=ticks.calibrated_intensity[:7])


def test_calibrated_fit_of_an_uncalibrated_table_is_refused():
    from rangevar.errors import MissingColumn
    from rangevar.evaluate import evaluate_against_ticks
    from rangevar.preprocess import TickStats

    plain = tick_table([TickStats(i, 0.001 * (i + 1), float(I), 10.0, REF.a * float(I) ** REF.b + REF.c, 50)
                        for i, I in enumerate(np.geomspace(1e3, 1e5, 8))])
    calibrated = FitOptions(intensity_kind=IntensityKind.CALIBRATED)
    with pytest.raises(MissingColumn, match="calibrated_intensity column"):
        fit_general_model(plain, calibrated)
    # the same refusal evaluate_against_ticks gives a calibrated model on this table
    model = fit_general_model(plain, FitOptions(intensity_kind=IntensityKind.SCALED)).model
    with pytest.raises(MissingColumn):
        evaluate_against_ticks(replace(model, intensity_kind=IntensityKind.CALIBRATED), plain)
    with pytest.raises(TooFewPoints, match="need >= 3 points, got 0"):
        fit_general_model(tick_table([]), calibrated)


# ---- JSON interface ----------------------------------------------------------

def test_report_json_round_trip_with_finite_stddevs():
    rng = np.random.default_rng(5)
    I = np.geomspace(1e3, 1e5, 10)
    sig = np.abs(29853.0 * I**-1.02 + 0.08 + rng.normal(0, 0.02, I.size))
    rep = fit_model(list(zip(I, sig)))
    back = read_fit_report_json(fit_report_to_json(rep))
    assert back == rep


def test_report_json_maps_nan_stddevs_to_null():
    rep = fit_model(exact_points(REF, [1e3, 1e4, 1e5]))
    text = fit_report_to_json(rep)
    assert '"parameter_stddevs": [\n    null,\n    null,\n    null\n  ]' in text
    back = read_fit_report_json(text)
    assert all(math.isnan(s) for s in back.parameter_stddevs)
    assert back.model == rep.model


def test_report_json_is_strict_json():
    rep = fit_model(exact_points(REF, [1e3, 2e3, 1e4, 1e5]))
    text = fit_report_to_json(replace(rep, parameter_stddevs=(math.inf, -math.inf, math.nan)))
    assert json.loads(text, parse_constant=pytest.fail)["parameter_stddevs"] == [None] * 3
    with pytest.raises(ValueError):
        fit_report_to_json(replace(rep, final_cost=math.inf))


def test_model_constructor_validation():
    with pytest.raises(ValueError):
        RangeVarianceModel(math.inf, -1.0, 0.1, (1.0, 10.0), IntensityKind.RAW)
    with pytest.raises(ValueError):
        RangeVarianceModel(1.0, -1.0, 0.1, (10.0, 1.0), IntensityKind.RAW)
    with pytest.raises(ValueError):
        RangeVarianceModel(1.0, -1.0, 0.1, (0.0, 10.0), IntensityKind.RAW)
