"""Acceptance gate: one test per numbered release criterion.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line (run with
``pytest -s`` to see them live) and fails the build when its criterion
is not met.
"""

import math
import time
from dataclasses import fields

import mpmath
import numpy as np

from conftest import make_dataset  # noqa: F401  (collection path setup)
from rangevar import (
    AngularSigmas,
    Board,
    CalibrationConfig,
    IntensityKind,
    InverseSquareScaling,
    RangeVarianceModel,
    SimulationConfig,
    build_vcm,
    calibrate_ticks,
    evaluate_model,
    fit_general_model,
    fit_model,
    model_jacobian,
    simulate_profiles,
)
from rangevar.cli import run
from rangevar.preprocess import (
    PreprocessConfig,
    TickGrouping,
    detect_outliers,
    preprocess,
    std_about_mean,
    std_about_median,
)
from rangevar.evaluate import max_abs_residual, rmse

from _reference import (
    ref_max_abs,
    ref_rmse,
    ref_std_about_mean,
    ref_std_about_median,
)

# Fixture: (a, b, c) parameter triples of one instrument family across
# its resolution/quality settings, used as fixed evaluation inputs.
PARAM_ROWS = [
    (29853.0, -1.02, 0.08),
    (35162.0, -1.07, 0.08),
    (37371.0, -1.11, 0.07),
    (44509.0, -1.02, 0.09),
    (39138.0, -1.04, 0.09),
    (31742.0, -1.06, 0.08),
    (30698.0, -1.09, 0.07),
    (59140.0, -1.01, 0.11),
    (41432.0, -1.01, 0.09),
    (42183.0, -1.05, 0.09),
    (35138.0, -1.07, 0.08),
    (100195.0, -1.03, 0.21),
    (53076.0, -1.00, 0.10),
    (45268.0, -1.02, 0.10),
    (42183.0, -1.05, 0.09),
    (103106.0, -1.03, 0.21),
    (53076.0, -1.00, 0.10),
    (62382.0, -1.05, 0.10),
    (92321.0, -1.02, 0.19),
    (56230.0, -1.01, 0.11),
]

TRUTH = (29853.0, -1.02, 0.08)
K_SYSTEM = 1e7


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_noiseless_fit_recovery():
    t0 = time.perf_counter()
    a, b, c = 100.0, -1.0, 0.1
    intensities = np.geomspace(10.0, 1e5, 50)
    rep = fit_model([(float(i), a * float(i) ** b + c) for i in intensities])
    elapsed = time.perf_counter() - t0
    errs = (
        abs(rep.model.a - a) / abs(a),
        abs(rep.model.b - b) / abs(b),
        abs(rep.model.c - c) / abs(c),
    )
    ok = (
        max(errs) <= 1e-6
        and rep.converged
        and rep.iterations <= 100
        and elapsed < 1.0
    )
    _verdict(
        1, ok,
        f"max rel err {max(errs):.2e}, {rep.iterations} iterations, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_statistical_round_trip():
    t0 = time.perf_counter()
    a_t, b_t, c_t = TRUTH
    # three reflectance levels put the tick intensities at 1e2, ~3.2e3,
    # and 1e5; five ticks per level, 3000 profiles per tick
    boards = tuple(
        Board(
            reflectivity=float(level * 100.0 / K_SYSTEM),
            distance=10.0,
            incidence_angle=0.0,
            tick_count=5,
            profile_count=3000,
        )
        for level in np.geomspace(1e2, 1e5, 3)
    )
    passes = 0
    worst = dict(a=0.0, b=0.0, c=0.0)
    for seed in range(10):
        cfg = SimulationConfig(K_SYSTEM, boards, TRUTH, seed=seed)
        ds, _ = simulate_profiles(cfg)
        stats = preprocess(ds)
        m = fit_model([(s.mean_intensity, s.std_range) for s in stats]).model
        ea, eb, ec = abs(m.a - a_t) / a_t, abs(m.b - b_t), abs(m.c - c_t)
        worst = dict(a=max(worst["a"], ea), b=max(worst["b"], eb), c=max(worst["c"], ec))
        passes += ea <= 0.10 and eb <= 0.05 and ec <= 0.02
    elapsed = time.perf_counter() - t0
    ok = passes >= 9 and elapsed < 30.0
    _verdict(
        2, ok,
        f"{passes}/10 seeds (worst: a {100 * worst['a']:.2f}%, b {worst['b']:.4f}, "
        f"c {worst['c']:.4f} mm), {elapsed:.1f} s",
    )


def test_criterion_03_calibration_collapse():
    rhos = (0.05, 0.15, 0.4, 0.9)
    dists = (10.0, 25.0, 50.0)
    boards = tuple(
        Board(reflectivity=r, distance=d, incidence_angle=0.0,
              tick_count=2, profile_count=3000)
        for d in dists
        for r in rhos
    )
    cfg = SimulationConfig(
        K_SYSTEM, boards, TRUTH, scaling=InverseSquareScaling(10.0), seed=123,
    )
    ds, truth = simulate_profiles(cfg)
    # screening disabled so tick mean ranges stay exactly the values the
    # scaling was generated with, keeping the inversion exact
    stats = preprocess(ds, PreprocessConfig(max_passes=0))
    calibrated = calibrate_ticks(stats, CalibrationConfig(10.0))

    truth_by_angle = dict(zip(truth.vertical_angle.tolist(), truth.true_intensity.tolist()))
    cal_err = max(
        abs(c.calibrated_intensity - truth_by_angle[c.vertical_angle_center])
        / truth_by_angle[c.vertical_angle_center]
        for c in calibrated
    )

    worst_per_distance = 0.0
    for d in dists:
        sub = [s for s in stats if abs(s.mean_range - d) < 1.0]
        rep = fit_model([(s.mean_intensity, s.std_range) for s in sub])
        worst_per_distance = max(worst_per_distance, rep.final_cost / len(sub))
    general = fit_general_model(calibrated)
    nc_general = general.final_cost / len(calibrated)

    ok = cal_err <= 1e-9 and nc_general <= 1.2 * worst_per_distance
    _verdict(
        3, ok,
        f"calibration rel err {cal_err:.2e}, general cost/pt {nc_general:.3g} "
        f"vs 1.2x worst per-distance {1.2 * worst_per_distance:.3g} mm^2",
    )


def test_criterion_04_outlier_rule_fidelity():
    rng = np.random.default_rng(2024)
    n, sigma = 10_000, 0.005
    clean = rng.normal(10.0, sigma, n)
    injected_idx = rng.choice(n, 100, replace=False)
    values = clean.copy()
    values[injected_idx] += rng.choice((-1.0, 1.0), 100) * 10 * sigma

    group = TickGrouping([0], [0.0], [n], values, np.full(n, 5000.0))
    mask = detect_outliers(group, PreprocessConfig())
    injected = np.zeros(n, bool)
    injected[injected_idx] = True
    frac_injected = float(mask[injected].mean())
    frac_clean = float(mask[~injected].mean())

    clean_group = TickGrouping([0], [0.0], [n], clean, np.full(n, 5000.0))
    frac_fully_clean = float(detect_outliers(clean_group, PreprocessConfig()).mean())

    ok = frac_injected >= 0.99 and frac_clean <= 0.01 and frac_fully_clean <= 0.008
    _verdict(
        4, ok,
        f"injected flagged {100 * frac_injected:.1f}%, clean flagged "
        f"{100 * frac_clean:.3f}%, fully clean {100 * frac_fully_clean:.3f}%",
    )


def test_criterion_05_statistics_oracles():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        vec = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 2.0), n)
        data = vec.tolist()
        worst = max(
            worst,
            abs(std_about_mean(vec) - ref_std_about_mean(data)),
            abs(std_about_median(vec) - ref_std_about_median(data)),
            abs(rmse(vec) - ref_rmse(data)),
            abs(max_abs_residual(vec) - ref_max_abs(data)),
        )
    ok = worst <= 1e-12
    _verdict(5, ok, f"worst abs deviation {worst:.2e} over 1000 vectors x 4 statistics")


def test_criterion_06_model_evaluation_extended_precision():
    grid = (1e2, 1e3, 1e4, 1e5)
    worst = 0.0
    with mpmath.workdps(50):
        for a, b, c in PARAM_ROWS:
            model = RangeVarianceModel(a, b, c, (10.0, 1e6), IntensityKind.RAW)
            ma = mpmath.mpf(repr(a))
            mb = mpmath.mpf(repr(b))
            mc = mpmath.mpf(repr(c))
            for intensity in grid:
                exact = ma * mpmath.power(mpmath.mpf(repr(intensity)), mb) + mc
                got = evaluate_model(model, intensity)
                worst = max(worst, abs(got - float(exact)) / float(exact))
    ok = worst <= 1e-10
    _verdict(
        6, ok,
        f"worst rel deviation {worst:.2e} over {len(PARAM_ROWS)} parameter rows x 4 intensities",
    )


def test_criterion_07_abscissa_scaling_covariance():
    worst = 0.0
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        intensities = np.geomspace(5e2, 1e5, 15)
        sig = np.abs(
            TRUTH[0] * intensities ** TRUTH[1] + TRUTH[2]
            + rng.normal(0, 0.02, intensities.size)
        )
        base = fit_model(list(zip(intensities, sig))).model
        for lam in (0.1, 7.0, 1000.0):
            scaled = fit_model(list(zip(lam * intensities, sig))).model
            expected_a = base.a * lam ** (-base.b)
            errs = (
                abs(scaled.b - base.b),
                abs(scaled.c - base.c),
                abs(scaled.a - expected_a) / abs(expected_a),
            )
            worst = max(worst, *errs)
            ok = ok and errs[0] <= 1e-6 and errs[1] <= 1e-6 and errs[2] <= 1e-6
    _verdict(7, ok, f"worst deviation {worst:.2e} over 5 datasets x 3 scale factors")


def test_criterion_08_jacobian_against_finite_differences():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        a = 10.0 ** rng.uniform(0, 5)
        b = rng.uniform(-1.5, -0.5)
        c = rng.uniform(-0.5, 0.5)
        intensity = 10.0 ** rng.uniform(1, 5)

        analytic = model_jacobian(a, b, c, [intensity])[0]

        def sigma(pa, pb, pc):
            return pa * intensity**pb + pc

        steps = (1e-6 * a, 1e-6 * max(abs(b), 1.0), 1e-6 * max(abs(c), 1.0))
        for col, h in enumerate(steps):
            delta = [0.0, 0.0, 0.0]
            delta[col] = h
            fd = (sigma(a + delta[0], b + delta[1], c + delta[2])
                  - sigma(a - delta[0], b - delta[1], c - delta[2])) / (2 * h)
            rel = abs(analytic[col] - fd) / max(abs(analytic[col]), abs(fd))
            worst = max(worst, rel)
    ok = worst <= 1e-5
    _verdict(8, ok, f"worst rel deviation {worst:.2e} over 100 points x 3 partials")


def test_criterion_09_vcm_structure_and_coverage():
    boards = tuple(
        Board(reflectivity=float(rho), distance=10.0, incidence_angle=0.0,
              tick_count=5, profile_count=200)
        for rho in np.geomspace(0.002, 0.9, 10)
    )
    cfg = SimulationConfig(K_SYSTEM, boards, TRUTH, seed=5)
    ds, _ = simulate_profiles(cfg)
    assert len(ds) == 10_000
    model = RangeVarianceModel(*TRUTH, (10.0, 1e6), IntensityKind.RAW)
    blocks = build_vcm(ds, model, AngularSigmas(1e-5, 1e-5))

    # a block holds its three diagonal terms and nothing else: one range
    # variance per observation and the two angular variances
    diagonal = (
        [f.name for f in fields(blocks)]
        == ["var_range_mm2", "var_vertical_rad2", "var_horizontal_rad2"]
        and blocks.var_range_mm2.shape == (len(ds),)
        and isinstance(blocks.var_vertical_rad2, float)
        and isinstance(blocks.var_horizontal_rad2, float)
    )
    psd = bool(
        np.all(blocks.var_range_mm2 >= 0)
        and blocks.var_vertical_rad2 >= 0
        and blocks.var_horizontal_rad2 >= 0
    )

    # per-tick empirical variance vs the block variance, 4 standard
    # errors of a variance estimate from count samples; rows map to
    # ticks through the exact ladder position (tick i at (i+1) * step)
    from rangevar.simulate import TICK_STEP

    first_row_of_tick: dict[int, int] = {}
    for i, angle in enumerate(ds.vertical_angle.tolist()):
        first_row_of_tick.setdefault(int(round(angle / TICK_STEP)) - 1, i)
    stats = preprocess(ds, PreprocessConfig(max_passes=0, min_tick_count=2))
    within = 0
    for s in stats:
        var_block = float(blocks.var_range_mm2[first_row_of_tick[s.tick_id]])
        var_emp = s.std_range**2
        se = var_block * math.sqrt(2.0 / (s.count - 1))
        within += abs(var_emp - var_block) <= 4 * se
    coverage = within / len(stats)

    ok = diagonal and psd and len(blocks) == 10_000 and coverage >= 0.95
    _verdict(
        9, ok,
        f"blocks diagonal={diagonal}, psd={psd}, coverage {within}/{len(stats)} ticks",
    )


PIPELINE_CONFIG = """\
seed = 4242
k_system = 1e7
truth_a = 29853
truth_b = -1.02
truth_c = 0.08
scaling = inverse_square
r_ref = 10
board = 0.9 10 0 2 200
board = 0.4 25 0 2 200
board = 0.8 50 0 2 200
"""

PIPELINE_OUTPUTS = (
    "scan.csv",
    "ground_truth.csv",
    "ticks.csv",
    "ticks_calibrated.csv",
    "model.json",
    "curve.csv",
    "evaluation.csv",
    "vcm.csv",
)


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(PIPELINE_CONFIG)
    digests = []
    for run_idx in range(3):
        out = tmp_path / f"run{run_idx}"
        code = run([
            "pipeline", "--simulate", str(cfg_path), "--out", str(out),
            "--sigma-vertical", "1e-5", "--sigma-horizontal", "1e-5",
        ])
        assert code == 0
        digests.append({name: (out / name).read_bytes() for name in PIPELINE_OUTPUTS})
    identical = all(d == digests[0] for d in digests[1:])
    total = sum(len(v) for v in digests[0].values())
    ok = identical and all(len(v) > 0 for v in digests[0].values())
    _verdict(
        10, ok,
        f"{len(PIPELINE_OUTPUTS)} artifacts byte-identical across 3 runs ({total} bytes)",
    )
