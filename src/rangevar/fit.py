"""Estimation of the intensity-based range variance model.

The model maps mean backscatter intensity to the standard deviation of
the range measurement:

    sigma_r(I) = a * I**b + c        [sigma_r in mm, I dimensionless]

a carries mm per (intensity unit)**b -- mm/INC for raw counts, mm/% for
scaled exports; b is dimensionless; c is mm. The parameters are found by
Levenberg-Marquardt damping of the Gauss-Newton normal equations with
the analytic Jacobian

    d/da = I**b,   d/db = a * I**b * ln(I),   d/dc = 1

and residuals defined as predicted minus observed. The abscissa unit
only rescales a: fitting on lambda*I leaves b and c invariant and
multiplies a by lambda**(-b).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainViolation,
    MalformedFitReport,
    NonPositiveIntensity,
    RankDeficient,
    TooFewPoints,
)
from .ingest import IntensityKind
from .preprocess import TickStats


@dataclass(frozen=True)
class RangeVarianceModel:
    """sigma_r = a * I**b + c over a fitted intensity domain.

    intensity_domain is the [min, max] intensity of the data behind the
    fit; evaluations outside it are extrapolations. The constructor only
    checks finiteness and a non-degenerate domain -- models with
    published parameters may dip below zero far outside their data, so
    positivity inside the domain is enforced where fits are produced.
    """

    a: float                              # mm / (intensity unit)**b
    b: float                              # dimensionless
    c: float                              # mm
    intensity_domain: tuple[float, float]
    intensity_kind: IntensityKind

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        lo, hi = self.intensity_domain
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
            raise ValueError(f"intensity_domain must satisfy 0 < min < max, got {self.intensity_domain}")


@dataclass(frozen=True)
class FitOptions:
    """Solver knobs; the defaults implement the documented schedule.

    Damping starts at initial_damping, is multiplied by 10 on a rejected
    step, divided by 10 on an accepted one. Convergence: relative cost
    change < cost_tol, or gradient max-norm < grad_tol, or step max-norm
    < step_tol. weights, when given, are per-point multipliers on the
    squared residuals (all-equal weights reproduce the unweighted fit).
    intensity_kind tags the resulting model.
    """

    max_iterations: int = 200
    initial_damping: float = 1e-3
    cost_tol: float = 1e-12
    grad_tol: float = 1e-10
    step_tol: float = 1e-12
    weights: tuple[float, ...] | None = None
    intensity_kind: IntensityKind = IntensityKind.RAW


@dataclass(frozen=True)
class FitReport:
    """Fit result plus adjustment diagnostics.

    final_cost is the (weighted) sum of squared residuals in mm**2.
    parameter_stddevs come from the inverse normal matrix scaled by the
    a-posteriori variance factor final_cost / (n_points - 3); they are
    NaN when the redundancy is zero or the normal matrix is singular.
    """

    model: RangeVarianceModel
    iterations: int
    final_cost: float
    converged: bool
    parameter_stddevs: tuple[float, float, float]


def evaluate_model(m: RangeVarianceModel, intensity):
    """sigma_r in mm at one intensity or an array of intensities."""
    arr = np.asarray(intensity, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise NonPositiveIntensity("intensity must be finite and > 0")
    result = m.a * arr**m.b + m.c
    return float(result) if np.isscalar(intensity) or arr.ndim == 0 else result


def model_jacobian(a: float, b: float, c: float, intensities) -> np.ndarray:
    """Analytic Jacobian of the predicted sigma, one row per point.

    Columns are the partials with respect to (a, b, c).
    """
    arr = np.asarray(intensities, dtype=float)
    power = arr**b
    jac = np.empty((arr.size, 3))
    jac[:, 0] = power
    jac[:, 1] = a * power * np.log(arr)
    jac[:, 2] = 1.0
    return jac


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TooFewPoints("points must be (intensity, std_range) pairs")
    return arr[:, 0].copy(), arr[:, 1].copy()


def initial_guess(points) -> tuple[float, float, float]:
    """Starting values from a log-log linearization.

    c0 = 0.5 * min(std_range); (a0, b0) by ordinary linear regression of
    ln(std_range - c0) on ln(I) over points with std_range > c0; when
    fewer than 3 points qualify, c0 falls back to 0. Raises RankDeficient
    when the regression is degenerate (constant abscissa or constant
    shifted response).
    """
    intensity, std = _as_points(points)
    if intensity.size < 3:
        raise TooFewPoints(f"need >= 3 points, got {intensity.size}")
    if np.any(intensity <= 0):
        raise NonPositiveIntensity("intensities must be > 0")

    c0 = 0.5 * float(std.min())
    usable = std > c0
    if usable.sum() < 3:
        c0 = 0.0
        usable = std > 0.0
        if usable.sum() < 3:
            raise RankDeficient("fewer than 3 points with positive shifted response")

    x = np.log(intensity[usable])
    y = np.log(std[usable] - c0)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise RankDeficient("all usable intensities identical")
    if float(dy @ dy) == 0.0:
        raise RankDeficient("shifted response is constant; exponent not identifiable")
    b0 = float(dx @ dy) / sxx
    a0 = math.exp(float(y.mean()) - b0 * float(x.mean()))
    return a0, b0, c0


def _check_positive_in_domain(a: float, b: float, c: float, lo: float, hi: float) -> bool:
    """sigma(I) is monotone on I > 0 (its derivative a*b*I**(b-1) has one
    sign), so positivity at both domain endpoints covers the interior."""
    return (a * lo**b + c) > 0 and (a * hi**b + c) > 0


def fit_model(points, opts: FitOptions = FitOptions()) -> FitReport:
    """Least-squares estimate of (a, b, c) from (intensity, std) pairs.

    Deterministic in inputs and options. final_cost never exceeds the
    cost at the initial guess. Raises TooFewPoints, RankDeficient (fewer
    than 3 distinct intensities), NonPositiveIntensity, or
    DomainViolation (the converged model predicts sigma <= 0 inside its
    own intensity domain). Reaching max_iterations is reported via
    converged=False, not an exception.
    """
    intensity, std = _as_points(points)
    n = intensity.size
    if n < 3:
        raise TooFewPoints(f"need >= 3 points, got {n}")
    if np.any(intensity <= 0) or not np.all(np.isfinite(intensity)):
        raise NonPositiveIntensity("intensities must be finite and > 0")
    if not np.all(np.isfinite(std)) or np.any(std < 0):
        raise ValueError("std_range values must be finite and >= 0")
    if np.unique(intensity).size < 3:
        raise RankDeficient("need >= 3 distinct intensity values")

    if opts.weights is not None:
        w = np.asarray(opts.weights, dtype=float)
        if w.shape != intensity.shape or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive, finite, one per point")
    else:
        w = None

    a, b, c = initial_guess(points)
    x = np.array([a, b, c])

    def residual(params: np.ndarray) -> np.ndarray:
        return params[0] * intensity ** params[1] + params[2] - std

    def cost_of(res: np.ndarray) -> float:
        return float(res @ (w * res)) if w is not None else float(res @ res)

    res = residual(x)
    cost = cost_of(res)
    lam = opts.initial_damping
    converged = False
    iterations = 0

    for _ in range(opts.max_iterations):
        iterations += 1
        jac = model_jacobian(x[0], x[1], x[2], intensity)
        jw = jac * w[:, None] if w is not None else jac
        grad = jac.T @ (w * res) if w is not None else jac.T @ res
        if np.max(np.abs(grad)) < opts.grad_tol:
            converged = True
            break
        normal = jac.T @ jw
        # Marquardt scaling: damp proportionally to the normal matrix
        # diagonal so the step is invariant under parameter rescaling.
        # A floor keeps zero diagonal entries (e.g. a = 0 kills the b
        # column) from leaving a direction unregularized.
        diag = np.diag(normal).copy()
        floor = 1e-32 * max(diag.max(), 1.0)
        diag[diag < floor] = floor
        try:
            step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        new_x = x + step
        new_res = residual(new_x)
        new_cost = cost_of(new_res)
        if not math.isfinite(new_cost) or new_cost >= cost:
            lam *= 10.0
            if np.max(np.abs(step)) < opts.step_tol:
                converged = True
                break
            continue
        rel_drop = (cost - new_cost) / cost if cost > 0 else 0.0
        x, res, cost = new_x, new_res, new_cost
        lam /= 10.0
        if rel_drop < opts.cost_tol or np.max(np.abs(step)) < opts.step_tol:
            converged = True
            break

    a, b, c = (float(v) for v in x)
    lo, hi = float(intensity.min()), float(intensity.max())
    if not _check_positive_in_domain(a, b, c, lo, hi):
        raise DomainViolation(
            f"fitted model predicts sigma <= 0 inside intensity domain [{lo:g}, {hi:g}]"
        )
    model = RangeVarianceModel(a, b, c, (lo, hi), opts.intensity_kind)

    stddevs = (math.nan, math.nan, math.nan)
    if n > 3:
        jac = model_jacobian(a, b, c, intensity)
        jw = jac * w[:, None] if w is not None else jac
        normal = jac.T @ jw
        try:
            cov = cost / (n - 3) * np.linalg.inv(normal)
            stddevs = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
        except np.linalg.LinAlgError:
            pass

    return FitReport(
        model=model,
        iterations=iterations,
        final_cost=cost,
        converged=converged,
        parameter_stddevs=stddevs,
    )


def fit_general_model(calibrated: list[TickStats], opts: FitOptions = FitOptions()) -> FitReport:
    """Fit one model across distances using calibrated intensities.

    Consumes the calibrated_intensity as abscissa; the result is tagged
    IntensityKind.CALIBRATED regardless of opts.intensity_kind. A tick
    without a calibrated_intensity raises ValueError.
    """
    for t in calibrated:
        if t.calibrated_intensity is None:
            raise ValueError(f"tick {t.tick_id}: no calibrated_intensity; calibrate the ticks first")
    points = [(t.calibrated_intensity, t.std_range) for t in calibrated]
    return fit_model(points, replace(opts, intensity_kind=IntensityKind.CALIBRATED))


# ---- JSON interface ----------------------------------------------------------

def fit_report_to_json(report: FitReport) -> str:
    """Serialize a FitReport to the documented JSON record."""
    m = report.model
    stddevs = [None if math.isnan(s) else s for s in report.parameter_stddevs]
    record = {
        "model": {
            "a_mm_per_unit_pow_b": m.a,
            "b": m.b,
            "c_mm": m.c,
            "intensity_domain": [m.intensity_domain[0], m.intensity_domain[1]],
            "intensity_kind": m.intensity_kind.value,
        },
        "iterations": report.iterations,
        "final_cost_mm2": report.final_cost,
        "converged": report.converged,
        "parameter_stddevs": stddevs,
    }
    return json.dumps(record, indent=2) + "\n"


def _number(value) -> float:
    if type(value) not in (int, float):  # a JSON true is no number
        raise TypeError("not a JSON number")
    return float(value)


def _exactly(kind):
    def convert(value):
        if type(value) is not kind:
            raise TypeError(f"not a JSON {kind.__name__}")
        return value
    return convert


def _domain(value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("not a [min, max] pair")
    return _number(value[0]), _number(value[1])


def _field(record: dict, path: str, convert=_number):
    """The value at the last key of a dotted path, through convert.

    A missing key, or a value that convert refuses, raises
    MalformedFitReport naming the path.
    """
    key = path.rpartition(".")[2]
    if key not in record:
        raise MalformedFitReport(f"fit report: missing key {path!r}")
    try:
        return convert(record[key])
    except (TypeError, ValueError, OverflowError):
        raise MalformedFitReport(f"fit report: bad value for {path!r}: {record[key]!r}") from None


def read_fit_report_json(text: str) -> FitReport:
    """Parse the fit_report_to_json record.

    A record that is no JSON object, lacks a key or holds a value of the
    wrong type raises MalformedFitReport naming the key.
    """
    record = json.loads(text)
    if not isinstance(record, dict):
        raise MalformedFitReport("fit report: the record is not a JSON object")
    m = _field(record, "model", _exactly(dict))
    model = RangeVarianceModel(
        a=_field(m, "model.a_mm_per_unit_pow_b"),
        b=_field(m, "model.b"),
        c=_field(m, "model.c_mm"),
        intensity_domain=_field(m, "model.intensity_domain", _domain),
        intensity_kind=_field(m, "model.intensity_kind", IntensityKind),
    )
    stddevs = _field(
        record, "parameter_stddevs", lambda v: tuple(math.nan if s is None else _number(s) for s in v)
    )
    return FitReport(
        model=model,
        iterations=_field(record, "iterations", _exactly(int)),
        final_cost=_field(record, "final_cost_mm2"),
        converged=_field(record, "converged", _exactly(bool)),
        parameter_stddevs=stddevs,
    )
