"""Shared builders for the test suite."""

import numpy as np
import pytest

from rangevar.ingest import IntensityKind, ScanDataset, ScanMeta
from rangevar.preprocess import TickStats, TickTable


def make_dataset(rows, kind=IntensityKind.RAW):
    """Dataset from (profile, vertical, horizontal, range, intensity) tuples."""
    columns = list(zip(*rows)) or [()] * 5
    return ScanDataset(*columns, ScanMeta(scanner_id="test", intensity_kind=kind))


def dataset_rows(ds):
    """The dataset's rows as (profile, vertical, horizontal, range, intensity) tuples."""
    return list(zip(
        ds.profile.tolist(),
        ds.vertical_angle.tolist(),
        ds.horizontal_angle.tolist(),
        ds.range.tolist(),
        ds.intensity.tolist(),
    ))


def ladder_dataset(angle_values, ranges_per_angle, intensities_per_angle, profiles):
    """Repeat a vertical ladder over several profiles.

    ranges_per_angle / intensities_per_angle are (n_angles, n_profiles)
    arrays; rows are emitted profile-major like a real 2D scan.
    """
    rows = []
    for p in range(profiles):
        for i, angle in enumerate(angle_values):
            rows.append((p, float(angle), 0.0, float(ranges_per_angle[i][p]),
                         float(intensities_per_angle[i][p])))
    return make_dataset(rows)


def tick_table(rows):
    """TickTable from TickStats rows, calibrated when its rows carry a calibrated_intensity."""
    *columns, calibrated = map(list, zip(*rows)) if rows else [[]] * len(TickStats._fields)
    if not calibrated or None in calibrated:
        assert set(calibrated) <= {None}, "a tick table is calibrated throughout or not at all"
        calibrated = None
    return TickTable(*columns, calibrated)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
