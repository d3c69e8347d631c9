"""The table writers against their pre-helper copies in tests/_reference.py.

Every writer builds its text through ingest.csv_text; each must give the
bytes its own row loop gave, on the values where repr-formatting can go
wrong: signed zero, subnormals, large and small floats, ints past 2**62,
non-finite floats, empty tables, constant columns and bools. Numpy
columns that repeat go through csv_text's one-repr-per-distinct-value
path; the pool properties at the end force it.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    ref_curve_csv,
    ref_evaluation_report_to_csv,
    ref_ground_truth_to_csv,
    ref_serialize_dataset,
    ref_tick_stats_to_csv,
    ref_vcm_to_csv,
)
from conftest import tick_table
from rangevar import ingest
from rangevar.cli import _curve_csv
from rangevar.evaluate import EvaluationReport, VcmBlocks, evaluation_report_to_csv, vcm_to_csv
from rangevar.fit import RangeVarianceModel
from rangevar.ingest import IntensityKind, ScanDataset, ScanMeta, serialize_dataset
from rangevar.preprocess import TickStats, tick_stats_to_csv
from rangevar.simulate import GroundTruth, ground_truth_to_csv

EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, -1e-5, 1e300, 0.1)
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
INTS = (
    st.sampled_from((0, -1, 2**62 - 1, 2**62, 2**62 + 1, -(2**62)))
    | st.integers(-(2**63), 2**63 - 1)
)
BLOCK_LINES = st.sampled_from((1, 2, 3, 16384))

META = st.builds(
    ScanMeta,
    scanner_id=st.sampled_from(("", "synthetic", "Z+F Imager 5016")),
    scanning_rate_khz=st.none() | FLOATS,
    nominal_distance=st.none() | FLOATS,
    intensity_kind=st.sampled_from((IntensityKind.RAW, IntensityKind.SCALED)),
    point_spacing_note=st.none() | st.sampled_from(("", "2 mm at 10 m")),
)
EVERY_DIRECTIVE = ScanMeta("synthetic", 1016.0, 10.5, IntensityKind.SCALED, "2 mm at 10 m")


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 12))
    profile = draw(st.lists(INTS, min_size=n, max_size=n))
    floats = [draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(4)]
    return ScanDataset(profile, *floats, draw(META))


def edge_dataset(meta):
    column = list(EDGE_FLOATS)
    profile = [2**62 + i for i in range(len(column))]
    return ScanDataset(profile, column, column[::-1], column, column, meta)


@settings(max_examples=150, deadline=None)
@given(datasets(), BLOCK_LINES)
@example(edge_dataset(EVERY_DIRECTIVE), 3)
@example(edge_dataset(ScanMeta()), 16384)
def test_serialize_dataset_matches_the_row_writer(ds, block_lines):
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert serialize_dataset(ds) == ref_serialize_dataset(ds)


@st.composite
def tick_lists(draw):
    calibrated = draw(st.booleans())
    return [
        TickStats(
            draw(INTS), draw(FLOATS), draw(FLOATS), draw(FLOATS), draw(FLOATS), draw(INTS),
            draw(FLOATS) if calibrated else None,
        )
        for _ in range(draw(st.integers(0, 8)))
    ]


@settings(max_examples=150, deadline=None)
@given(tick_lists())
@example([])
@example([TickStats(2**62, -0.0, 5e-324, 1e16, 1e-5, 2**62 + 1, -0.0)])
@example([TickStats(-(2**62), 1e-5, 1e16, 5e-324, -0.0, 1)])
def test_tick_table_matches_the_row_writer(stats):
    assert tick_stats_to_csv(tick_table(stats)) == ref_tick_stats_to_csv(stats)


@st.composite
def columns(draw, *elements):
    """Equal-length numpy columns, one drawn from each (strategy, dtype) pair."""
    n = draw(st.integers(0, 8))
    return [np.array(draw(st.lists(e, min_size=n, max_size=n)), dtype=d) for e, d in elements]


INT_COLUMN, FLOAT_COLUMN = (INTS, np.int64), (FLOATS, np.float64)


@settings(max_examples=100, deadline=None)
@given(columns(INT_COLUMN, *[FLOAT_COLUMN] * 3))
@example([np.array([2**62, -(2**62)]), np.array([-0.0, 0.1]), np.array([5e-324, 1e16]),
          np.array([1e-5, -0.0])])
def test_ground_truth_matches_the_row_writer(truth_columns):
    gt = GroundTruth(*truth_columns, ())
    assert ground_truth_to_csv(gt) == ref_ground_truth_to_csv(gt)


@settings(max_examples=150, deadline=None)
@given(columns(INT_COLUMN, *[FLOAT_COLUMN] * 4, (st.booleans(), bool)), FLOATS, FLOATS)
@example([np.array([2**62, 0]), np.array([-0.0, 1e-5]), np.array([5e-324, 1e16]),
          np.array([1e16, 5e-324]), np.array([1e-5, -0.0]), np.array([True, False])],
         -0.0, 5e-324)
def test_evaluation_report_matches_the_row_writer(report_columns, rmse, max_abs):
    report = EvaluationReport(*report_columns, rmse, max_abs)
    assert evaluation_report_to_csv(report) == ref_evaluation_report_to_csv(report)


@settings(max_examples=150, deadline=None)
@given(st.lists(FLOATS, max_size=12), FLOATS, FLOATS, BLOCK_LINES)
@example(list(EDGE_FLOATS), 1e-5, -0.0, 3)
@example([], 5e-324, 1e16, 16384)
def test_vcm_matches_the_row_writer(var_range, var_vertical, var_horizontal, block_lines):
    blocks = VcmBlocks(np.array(var_range, dtype=float), var_vertical, var_horizontal)
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert vcm_to_csv(blocks) == ref_vcm_to_csv(blocks)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-1e3, 1e3), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0),
    st.floats(1e-3, 1e3), st.floats(1.001, 1e4), st.sampled_from(list(IntensityKind)),
)
@example(1e16, 0.0, -0.0, 1e-5, 2.0, IntensityKind.RAW)
def test_curve_matches_the_row_writer(a, b, c, lo, span, kind):
    model = RangeVarianceModel(a, b, c, (lo, lo * span), kind)
    assert _curve_csv(model) == ref_curve_csv(model)


# Bit patterns that print alike or compare alike: both zeros, and NaNs with
# different payloads and signs (all print "nan").
FLOAT_POOL = np.concatenate([
    np.array(EDGE_FLOATS),
    np.array([0x7FF8000000000001, 0x7FF8000000000000, -(2**51)], dtype=np.int64).view(np.float64),
])
INT_POOL = np.array([2**62, -(2**62), 2**63 - 1, 0])
POOL_BLOCK_LINES = st.sampled_from((1, 3, 1500, 16384))


@st.composite
def pool_columns(draw, pool, n=None):
    """Up to 3,000 values drawn from pool, then random bit patterns.

    The cut is often past csv_text's probe of a block's first values, so a
    column can repeat inside the probe and not after it.
    """
    n = draw(st.integers(1, 3000)) if n is None else n
    cut = min(n, draw(st.sampled_from((1024, 1025, 1500, n)) | st.integers(0, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = pool[rng.integers(len(pool), size=n)]
    tail = rng.integers(-(2**63), 2**63 - 1, size=n - cut, dtype=np.int64, endpoint=True)
    column[cut:] = tail.view(pool.dtype)
    return column


@st.composite
def pool_datasets(draw):
    n = draw(st.integers(1, 3000))
    profile = draw(pool_columns(INT_POOL, n))
    floats = [draw(pool_columns(FLOAT_POOL, n)) for _ in range(4)]
    return ScanDataset(profile, *floats, draw(META))


def zeros_and_nans(n):
    """Both zeros and three NaN payloads, repeating: -0.0 must not print as 0.0."""
    return np.resize(FLOAT_POOL[[0, 1, -3, -2, -1]], n)


@settings(max_examples=40, deadline=None)
@given(pool_datasets(), POOL_BLOCK_LINES)
@example(ScanDataset(np.resize(INT_POOL, 2000), *[zeros_and_nans(2000)] * 4, ScanMeta()), 1500)
def test_repeating_scan_columns_match_the_row_writer(ds, block_lines):
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert serialize_dataset(ds) == ref_serialize_dataset(ds)


@settings(max_examples=40, deadline=None)
@given(pool_columns(FLOAT_POOL), FLOATS, FLOATS, POOL_BLOCK_LINES)
@example(zeros_and_nans(3000), -0.0, 0.0, 16384)
def test_repeating_vcm_column_matches_the_row_writer(var_range, var_vertical, var_horizontal,
                                                     block_lines):
    blocks = VcmBlocks(var_range, var_vertical, var_horizontal)
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert vcm_to_csv(blocks) == ref_vcm_to_csv(blocks)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(EDGE_FLOATS), st.sampled_from((0.0, -0.0, 400.0, -400.0)),
    st.sampled_from(EDGE_FLOATS), st.sampled_from(((1e-3, 1e3), (1e-3, 1.0), (1.0, 2.0))),
    POOL_BLOCK_LINES,
)
def test_repeating_curve_matches_the_row_writer(a, b, c, domain, block_lines):
    """b = 0 gives a constant curve; b = +-400 underflows or overflows to repeats at one end."""
    model = RangeVarianceModel(a, b, c, domain, IntensityKind.RAW)
    with np.errstate(all="ignore"), mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert _curve_csv(model) == ref_curve_csv(model)
