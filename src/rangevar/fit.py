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
    MissingColumn,
    NonPositiveIntensity,
    RankDeficient,
    TooFewPoints,
)
from .ingest import IntensityKind
from .preprocess import TickTable


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


# Damping starts at INITIAL_DAMPING, is multiplied by 10 on a rejected step
# and divided by 10 on an accepted one. The fit has converged when the relative
# cost change < COST_TOL, the gradient max-norm < GRAD_TOL or the step max-norm < STEP_TOL.
INITIAL_DAMPING = 1e-3
COST_TOL = 1e-12
GRAD_TOL = 1e-10
STEP_TOL = 1e-12


@dataclass(frozen=True)
class FitOptions:
    """Solver knobs. weights, when given, are per-point multipliers on the
    squared residuals (all-equal weights reproduce the unweighted fit).
    intensity_kind tags the resulting model.
    """

    max_iterations: int = 200
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


def _normal_equations(x: np.ndarray, intensity: np.ndarray, w: np.ndarray, res: np.ndarray):
    """The weighted normal matrix J^T W J and gradient J^T W r at parameters x."""
    jac = model_jacobian(*x, intensity)
    return jac.T @ (jac * w[:, None]), jac.T @ (w * res)


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
    when the regression is degenerate (constant abscissa, constant
    shifted response, or a slope so steep that a0 overflows or underflows).
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
    try:
        a0 = math.exp(float(y.mean()) - b0 * float(x.mean()))
    except OverflowError:
        a0 = math.inf
    if not 0.0 < a0 < math.inf:
        lo, hi = float(intensity[usable].min()), float(intensity[usable].max())
        raise RankDeficient(
            f"start exponent b0 = {b0:g} {'overflows' if a0 else 'underflows'} a0; "
            f"the intensities [{lo:g}, {hi:g}] barely vary"
        )
    return a0, b0, c0


@np.errstate(over="ignore", invalid="ignore")
def fit_model(points, opts: FitOptions = FitOptions()) -> FitReport:
    """Least-squares estimate of (a, b, c) from (intensity, std) pairs.

    Deterministic in inputs and options. final_cost never exceeds the
    cost at the initial guess. Raises TooFewPoints, RankDeficient (fewer
    than 3 distinct intensities), NonPositiveIntensity, or
    DomainViolation (the final cost is not finite, or the converged model
    predicts sigma <= 0 inside its own intensity domain). Reaching
    max_iterations is reported via converged=False, not an exception.
    A trial step that overflows is rejected without a numpy warning.
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

    # Unit weights when none are given: multiplying by 1.0 is exact.
    w = np.ones(n) if opts.weights is None else np.asarray(opts.weights, dtype=float)
    if w.shape != intensity.shape or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive, finite, one per point")

    a, b, c = initial_guess(points)
    x = np.array([a, b, c])

    def residual(params: np.ndarray) -> np.ndarray:
        return params[0] * intensity ** params[1] + params[2] - std

    res = residual(x)
    cost = float(res @ (w * res))
    lam = INITIAL_DAMPING
    converged = False
    iterations = 0

    for _ in range(opts.max_iterations):
        iterations += 1
        normal, grad = _normal_equations(x, intensity, w, res)
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
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
        new_cost = float(new_res @ (w * new_res))
        if not math.isfinite(new_cost) or new_cost >= cost:
            lam *= 10.0
            if np.max(np.abs(step)) < STEP_TOL:
                converged = True
                break
            continue
        rel_drop = (cost - new_cost) / cost if cost > 0 else 0.0
        x, res, cost = new_x, new_res, new_cost
        lam /= 10.0
        if rel_drop < COST_TOL or np.max(np.abs(step)) < STEP_TOL:
            converged = True
            break

    a, b, c = (float(v) for v in x)
    lo, hi = float(intensity.min()), float(intensity.max())
    if not math.isfinite(cost):
        raise DomainViolation(
            f"fit cost is {cost!r} mm^2: the model or its squared residuals overflow "
            f"on the intensity domain [{lo:g}, {hi:g}]"
        )
    # sigma(I) is monotone on I > 0 (its derivative a*b*I**(b-1) has one sign),
    # so positivity at both domain endpoints covers the interior.
    if not (a * lo**b + c > 0 and a * hi**b + c > 0):
        raise DomainViolation(
            f"fitted model predicts sigma <= 0 inside intensity domain [{lo:g}, {hi:g}]"
        )
    model = RangeVarianceModel(a, b, c, (lo, hi), opts.intensity_kind)

    stddevs = (math.nan, math.nan, math.nan)
    if n > 3:
        try:
            cov = cost / (n - 3) * np.linalg.inv(_normal_equations(x, intensity, w, res)[0])
            stddevs = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
        except np.linalg.LinAlgError:
            pass

    return FitReport(model, iterations, cost, converged, stddevs)


def fit_general_model(ticks: TickTable, opts: FitOptions = FitOptions()) -> FitReport:
    """fit_model on a tick table: a calibrated one on its calibrated intensities, tagged
    CALIBRATED; any other on its mean intensities, tagged opts.intensity_kind unless that
    is CALIBRATED (MissingColumn).
    """
    if ticks.calibrated_intensity is not None:
        intensity = ticks.calibrated_intensity
        opts = replace(opts, intensity_kind=IntensityKind.CALIBRATED)
    elif ticks and opts.intensity_kind is IntensityKind.CALIBRATED:
        raise MissingColumn("a calibrated fit needs the tick table's calibrated_intensity column")
    else:
        intensity = ticks.mean_intensity
    return fit_model(np.column_stack((intensity, ticks.std_range)), opts)


# ---- JSON interface ----------------------------------------------------------

def fit_report_to_json(report: FitReport) -> str:
    """Serialize a FitReport to the documented JSON record."""
    m = report.model
    stddevs = [s if math.isfinite(s) else None for s in report.parameter_stddevs]
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
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


def _number(value) -> float:
    if type(value) not in (int, float):  # a JSON true is no number
        raise TypeError("not a JSON number")
    if not math.isfinite(value):  # NaN and Infinity are no JSON numbers either
        raise ValueError("not a finite number")
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
    lo, hi = _number(value[0]), _number(value[1])
    if not 0 < lo < hi:
        raise ValueError("not 0 < min < max")
    return lo, hi


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

    Text that is not JSON raises MalformedFitReport naming the decoder's
    line and column. A record that is no JSON object, lacks a key or
    holds a value of the wrong type, a non-finite number or a domain not
    0 < min < max raises MalformedFitReport naming the key.
    """
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFitReport(f"fit report: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
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
