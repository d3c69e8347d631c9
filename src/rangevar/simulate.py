"""Synthetic multi-profile 2D scans with known ground truth.

Each configured board is a flat target of uniform reflectivity at a
fixed distance and incidence angle, observed over a block of consecutive
vertical ticks for a number of profiles. The true intensity follows the
radar equation (lumped instrument constant times reflectivity times
cosine incidence over squared range); the per-point range is the board
distance plus Gaussian noise whose standard deviation comes from the
truth model sigma = a * I**b + c (mm). Recorded intensities are
noiseless apart from the scaling transform and any injected outliers:
the pipeline estimates range noise as a function of intensity, so noise
on the intensity channel would only blur the abscissa without testing
anything new.

Scaling variants:
  None (raw):        recorded intensity = true intensity.
  InverseSquareScaling(r_ref): recorded = true * mean_range**2 / r_ref,
      with mean_range the empirical mean of the tick's recorded ranges,
      so the reference-range calibration inverts the transform exactly.
  CustomMonotoneScaling(table): recorded = monotone interpolation of the
      true intensity; stresses the pipeline with an opaque vendor-style
      export curve, with no exactness guarantee.

Determinism: the output is a pure function of the config. Every board
draws from its own generator spawned from the seed, so boards could be
generated in parallel without changing a single bit of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NonPositiveRange
from .ingest import SCAN, IntensityKind, ScanDataset, ScanMeta, csv_text

# Vertical encoder step between consecutive ticks, radians. Boards occupy
# consecutive ticks starting at one step above zero.
TICK_STEP = 1e-3


@dataclass(frozen=True)
class Board:
    """One synthetic target patch."""

    reflectivity: float      # rho in (0, 1]
    distance: float          # m, > 0
    incidence_angle: float   # rad, [0, pi/2)
    tick_count: int          # >= 1
    profile_count: int       # >= 1


@dataclass(frozen=True)
class OutlierInjection:
    """Replace a fraction of points with gross range errors.

    Each affected point gets magnitude_sigma times the tick's true sigma
    added with a random sign. fraction is applied per tick by count
    (rounded), so 1% of 3000 profiles injects exactly 30 outliers.
    """

    fraction: float = 0.0
    magnitude_sigma: float = 0.0


class InverseSquareScaling:
    """Distance-dependent export scaling that reference-range calibration inverts."""

    def __init__(self, r_ref: float):
        if not (math.isfinite(r_ref) and r_ref > 0):
            raise InvalidConfig(f"r_ref must be positive and finite, got {r_ref!r}")
        self.r_ref = r_ref


class CustomMonotoneScaling:
    """Tabulated strictly increasing map from true to recorded intensity."""

    def __init__(self, true_values, recorded_values):
        t = np.asarray(true_values, dtype=float)
        r = np.asarray(recorded_values, dtype=float)
        if t.size != r.size or t.size < 2:
            raise InvalidConfig("scaling table needs >= 2 matching (true, recorded) pairs")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(r) <= 0):
            raise InvalidConfig("scaling table must be strictly increasing in both columns")
        self.true_values = t
        self.recorded_values = r

    def apply(self, intensity: float) -> float:
        return float(np.interp(intensity, self.true_values, self.recorded_values))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the generator needs; see module docstring."""

    k_system: float
    boards: tuple[Board, ...]
    truth_model: tuple[float, float, float]  # (a, b, c): mm/unit**b, -, mm
    scaling: InverseSquareScaling | CustomMonotoneScaling | None = None
    outlier_injection: OutlierInjection = field(default_factory=OutlierInjection)
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.k_system) and self.k_system > 0):
            raise InvalidConfig(f"k_system must be positive and finite, got {self.k_system!r}")
        if not self.boards:
            raise InvalidConfig("at least one board required")
        for i, board in enumerate(self.boards):
            if not 0 < board.reflectivity <= 1:
                raise InvalidConfig(f"board {i}: reflectivity must be in (0, 1]")
            if not (math.isfinite(board.distance) and board.distance > 0):
                raise InvalidConfig(f"board {i}: distance must be positive and finite")
            if not 0 <= board.incidence_angle < math.pi / 2:
                raise InvalidConfig(f"board {i}: incidence angle must be in [0, pi/2)")
            if board.tick_count < 1 or board.profile_count < 1:
                raise InvalidConfig(f"board {i}: tick_count and profile_count must be >= 1")
        if not 0 <= self.outlier_injection.fraction < 1:
            raise InvalidConfig("outlier fraction must be in [0, 1)")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidConfig(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-tick truth columns plus the dataset indices of injected outliers.

    Row i of every column is tick i: tick_id (int64), vertical_angle
    (rad), true_intensity and true_sigma_mm. Equality is identity;
    compare columns with numpy.
    """

    tick_id: np.ndarray
    vertical_angle: np.ndarray
    true_intensity: np.ndarray
    true_sigma_mm: np.ndarray
    outlier_indices: tuple[int, ...]


def radar_intensity(k_system: float, rho: float, r: float, theta: float):
    """Received intensity k * rho * cos(theta) / r**2 (scalar or array r)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise NonPositiveRange("range must be > 0")
    with np.errstate(over="ignore"):  # an overflow is refused as a non-finite intensity
        result = k_system * rho * np.cos(theta) / r_arr**2
    return float(result) if np.isscalar(r) or r_arr.ndim == 0 else result


def simulate_profiles(cfg: SimulationConfig) -> tuple[ScanDataset, GroundTruth]:
    """Generate a ScanDataset plus its GroundTruth sidecar.

    Ticks are laid out on a global ladder (board by board, ascending
    vertical angle, exact multiples of TICK_STEP), so grouping the output
    by vertical tick reproduces the generation blocks and tick ids match
    between dataset, preprocessing, and ground truth. Rows are emitted
    board by board, profile-major within a board; horizontal angle is 0
    (fixed-azimuth 2D profile mode). A board whose drawn ranges or
    recorded intensities fail the scan parser's checks raises InvalidConfig.
    """
    a, b, c = cfg.truth_model
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.boards))

    columns: list[tuple[np.ndarray, ...]] = []
    truth_columns: list[tuple[np.ndarray, ...]] = []
    outlier_blocks: list[np.ndarray] = []
    global_tick = 0
    row_offset = 0

    for i, (board, child) in enumerate(zip(cfg.boards, children)):
        rng = np.random.default_rng(child)
        n_ticks, n_prof = board.tick_count, board.profile_count
        intensity_true = radar_intensity(
            cfg.k_system, board.reflectivity, board.distance, board.incidence_angle
        )
        sigma_mm = a * intensity_true**b + c
        if not sigma_mm > 0:
            raise InvalidConfig(
                f"truth model gives sigma = {sigma_mm:g} mm <= 0 at intensity {intensity_true:g}"
            )
        sigma_m = sigma_mm / 1000.0

        angles = (np.arange(n_ticks) + global_tick + 1) * TICK_STEP
        ranges = rng.normal(board.distance, sigma_m, size=(n_ticks, n_prof))

        inj = cfg.outlier_injection
        n_out = int(round(inj.fraction * n_prof))
        if n_out > 0 and inj.magnitude_sigma != 0.0:
            outlier_cols = np.empty((n_ticks, n_out), dtype=np.int64)
            for t in range(n_ticks):
                cols = rng.choice(n_prof, size=n_out, replace=False)
                signs = rng.choice((-1.0, 1.0), size=n_out)
                ranges[t, cols] += signs * inj.magnitude_sigma * sigma_m
                outlier_cols[t] = cols
            # profile-major emission: row index of (t, p) is p * n_ticks + t
            outlier_blocks.append(
                (row_offset + outlier_cols * n_ticks + np.arange(n_ticks)[:, None]).ravel()
            )

        if cfg.scaling is None:
            recorded = np.full(n_ticks, intensity_true)
        elif isinstance(cfg.scaling, InverseSquareScaling):
            mean_ranges = ranges.mean(axis=1)
            recorded = intensity_true * mean_ranges**2 / cfg.scaling.r_ref
        else:
            recorded = np.full(n_ticks, cfg.scaling.apply(intensity_true))
        bad_range = ~SCAN["range"].passes(ranges)
        if bad_range.any():
            raise InvalidConfig(
                f"board {i}: drawn range {float(ranges[bad_range][0])!r} m is not finite and > 0 "
                f"(truth sigma = {sigma_mm:g} mm at {board.distance:g} m)"
            )
        bad_intensity = ~SCAN["intensity"].passes(recorded)
        if bad_intensity.any():
            raise InvalidConfig(
                f"board {i}: recorded intensity {float(recorded[bad_intensity][0])!r} "
                "is not finite and >= 0"
            )

        truth_columns.append((
            np.arange(global_tick, global_tick + n_ticks, dtype=np.int64),
            angles,
            np.full(n_ticks, intensity_true),
            np.full(n_ticks, sigma_mm),
        ))
        columns.append((
            np.repeat(np.arange(n_prof), n_ticks),
            np.tile(angles, n_prof),
            np.zeros(n_ticks * n_prof),
            ranges.T.ravel(),
            np.tile(recorded, n_prof),
        ))
        global_tick += n_ticks
        row_offset += n_ticks * n_prof

    kind = IntensityKind.RAW if cfg.scaling is None else IntensityKind.SCALED
    meta = ScanMeta(scanner_id="synthetic", intensity_kind=kind)
    dataset = ScanDataset(*(np.concatenate(c) for c in zip(*columns)), meta)
    outliers = np.sort(np.concatenate(outlier_blocks)) if outlier_blocks else np.empty(0, np.int64)
    truth = (np.concatenate(c) for c in zip(*truth_columns))
    return dataset, GroundTruth(*truth, tuple(outliers.tolist()))


# ---- CSV interface -----------------------------------------------------------

GROUND_TRUTH_HEADER = "tick_id,true_intensity,true_sigma_mm"


def ground_truth_to_csv(gt: GroundTruth) -> str:
    """Sidecar CSV of per-tick truth."""
    return csv_text([GROUND_TRUTH_HEADER], [gt.tick_id, gt.true_intensity, gt.true_sigma_mm])
