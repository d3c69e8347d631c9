"""Parse and validate profile-scan datasets.

File format
-----------
UTF-8 text (one leading byte-order mark is ignored), LF or CRLF line
endings. Optional leading directive lines of the form ``#key=value``
carry dataset metadata:

    #scanner=<free text>
    #rate_khz=<float>
    #intensity_kind=raw|scaled
    #nominal_distance_m=<float>
    #note=<free text>

They are followed by the mandatory header
``profile,vertical_angle,horizontal_angle,range,intensity`` (any column
order, exactly these five names) and one observation per line. Blank
lines and ``#`` lines in the body are skipped. Angles are radians;
ranges are meters; intensity is dimensionless (raw counts or scaled
percent, per metadata). Unknown directives are ignored so newer writers
stay readable.

Numbers use Python's int() and float() syntax. A row's fields are checked
in the header order above, each completely before the next: the profile
is an integer in [0, 2**63), every float is finite, range > 0 and
intensity >= 0. The first failure names the 1-based line (lines as
str.splitlines counts them).

Serialization writes the same format with shortest round-trip float
representations, so parse -> serialize -> parse is numerically exact.

A ScanDataset holds its observations as five numpy columns. The parser
converts the body in blocks of lines with numpy's text reader and checks
each block with array masks; a block that fails any check is parsed
again row by row, which raises the error naming the first bad line (or,
in lenient mode, drops the bad rows). preprocess reads the tick table
through the same block reader (parse_block).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    InvalidRange,
    MalformedRow,
    MissingColumn,
    NonFiniteValue,
    decode_utf8,
)

_COLUMNS = ("profile", "vertical_angle", "horizontal_angle", "range", "intensity")
_DTYPES = {name: np.int64 if name == "profile" else np.float64 for name in _COLUMNS}

# Body lines converted at a time, read or written. Bounds the transient memory
# and the share of the file a single bad row sends through the per-row parse.
_BLOCK_LINES = 16384
# Leading values of a written block whose repeats decide how it is formatted.
_PROBE = 1024


class IntensityKind(enum.Enum):
    """How the intensity channel is expressed.

    RAW: unscaled instrument counts ("INC"). SCALED: a manufacturer
    export function was applied (distance-dependent). CALIBRATED: scaled
    values converted to a common reference range; only models carry this,
    datasets are raw or scaled.
    """

    RAW = "raw"
    SCALED = "scaled"
    CALIBRATED = "calibrated"


@dataclass(frozen=True, slots=True)
class ScanMeta:
    """Dataset-level metadata from the file's directives."""

    scanner_id: str = ""
    scanning_rate_khz: float | None = None
    nominal_distance: float | None = None
    intensity_kind: IntensityKind = IntensityKind.RAW
    point_spacing_note: str | None = None


@dataclass(frozen=True, eq=False)
class ScanDataset:
    """An ordered, immutable scan: five equal-length columns plus metadata.

    Row i of every column is observation i, in file order. Each column is
    a read-only copy of what the constructor is given: profile (int64),
    vertical_angle and horizontal_angle (float64, rad), range (float64,
    m) and intensity (float64). Equality is identity; compare columns
    with numpy. skipped_rows counts rows dropped under lenient parsing
    (0 otherwise).
    """

    profile: np.ndarray
    vertical_angle: np.ndarray
    horizontal_angle: np.ndarray
    range: np.ndarray
    intensity: np.ndarray
    meta: ScanMeta
    skipped_rows: int = 0

    def __post_init__(self):
        columns = {name: np.array(getattr(self, name), dtype=_DTYPES[name]) for name in _COLUMNS}
        shapes = [column.shape for column in columns.values()]
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.profile)


@dataclass(frozen=True)
class ValidationReport:
    """Summary counts and invariant violations for a parsed dataset."""

    observation_count: int
    profile_count: int
    vertical_angle_span: tuple[float, float]
    intensity_span: tuple[float, float]
    violations: tuple[str, ...] = ()

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def _read_text(source) -> str:
    """The text of a path, bytes or str source.

    A str holding a line break is CSV content; any other str is a path,
    since a dataset needs a header line plus at least one row.
    """
    if isinstance(source, bytes):
        return decode_utf8(source)
    if isinstance(source, str) and ("\n" in source or "\r" in source):
        return source
    return decode_utf8(Path(source).read_bytes())


def parse_float(text: str, line_number: int, column: str) -> float:
    """A finite float() of one field of any text input, else MalformedRow naming the line."""
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_number, f"cannot parse '{text}' in column '{column}'") from None
    if not math.isfinite(value):
        raise NonFiniteValue(line_number, column)
    return value


def parse_int(text: str, line_number: int, column: str) -> int:
    """An int() of one field of any text input, else MalformedRow naming the line."""
    try:
        return int(text)
    except ValueError:
        raise MalformedRow(line_number, f"cannot parse '{text}' in column '{column}'") from None


def parse_index(text: str, line_number: int, column: str, low: int = 0) -> int:
    """An int() field that fits an int64 column, low <= value < 2**63, else MalformedRow."""
    value = parse_int(text, line_number, column)
    if value < low:
        raise MalformedRow(line_number, f"{column} must be >= {low}, got {value}")
    if value >= 2**63:
        raise MalformedRow(line_number, f"{column} must be < 2**63, got {value}")
    return value


def _parse_row(line: str, line_number: int, positions: list[int]) -> tuple:
    """One stripped data line as (profile, vertical, horizontal, range, intensity)."""
    fields = line.split(",")
    if len(fields) != len(_COLUMNS):
        raise MalformedRow(line_number, f"expected {len(_COLUMNS)} fields, got {len(fields)}")
    p_prof, p_vert, p_horiz, p_range, p_inten = positions
    profile = parse_index(fields[p_prof], line_number, "profile")
    vert = parse_float(fields[p_vert], line_number, "vertical_angle")
    horiz = parse_float(fields[p_horiz], line_number, "horizontal_angle")
    rng = parse_float(fields[p_range], line_number, "range")
    if rng <= 0.0:
        raise InvalidRange(line_number, rng)
    inten = parse_float(fields[p_inten], line_number, "intensity")
    if inten < 0.0:
        raise MalformedRow(line_number, f"intensity must be >= 0, got {inten!r}")
    return profile, vert, horiz, rng, inten


def _parse_rows(block: list[str], first_line: int, positions: list[int], lenient: bool):
    """Row-by-row parse of one block: the first error, or lenient skips.

    Returns the five columns and the number of rows skipped.
    """
    rows = []
    skipped = 0
    for line_number, raw in enumerate(block, first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(_parse_row(line, line_number, positions))
        except MalformedRow:
            if not lenient:
                raise
            skipped += 1
    columns = list(zip(*rows)) or [()] * len(_COLUMNS)
    return [np.array(c, dtype=_DTYPES[name]) for name, c in zip(_COLUMNS, columns)], skipped


def parse_block(block: list[str], row_dtype: np.dtype, names, valid):
    """The named columns of a block in which every line is a row, else None.

    numpy's text reader converts the fields in C, row_dtype giving each
    field's type in line order. What it accepts, it reads as int() and
    float() do (the same correctly rounded conversion), and it refuses the
    rest of their syntax (underscores, non-ASCII digits). It skips empty
    lines, so an empty block or one holding an empty line is left to the
    per-row parse. So is a block holding a \\x1f, which the reader takes for
    a space next to a field and int() and float() refuse, and a block whose
    columns valid(*columns) refuses: the table's checks, as masks.
    """
    if not block or "" in block or "\x1f" in "".join(block):
        return None
    try:
        rows = np.loadtxt(block, dtype=row_dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    columns = [rows[name] for name in names]
    return columns if valid(*columns) else None


def _valid_scan_rows(profile, vertical, horizontal, rng, inten) -> bool:
    return bool(
        (profile >= 0).all()
        and all(np.isfinite(column).all() for column in (vertical, horizontal, rng, inten))
        and (rng > 0).all()
        and (inten >= 0).all()
    )


def parse_profile_csv(source, lenient: bool = False) -> ScanDataset:
    """Parse the documented CSV format from a path, bytes or str into a ScanDataset.

    Raises MalformedRow / MissingColumn / NonFiniteValue / InvalidRange on
    the first bad row; lenient skips rows that fail a check and counts
    them in skipped_rows instead. Raises EmptyDataset when no data rows
    survive. Observation order equals file row order. A one-line str
    source is a path, so a missing file raises FileNotFoundError.
    """
    lines = _read_text(source).splitlines()

    meta_kw: dict = {}
    line_number = 0
    header: list[str] | None = None
    for raw in lines:
        line_number += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            key = key.strip()
            value = value.strip()
            if key == "scanner":
                meta_kw["scanner_id"] = value
            elif key == "rate_khz":
                meta_kw["scanning_rate_khz"] = parse_float(value, line_number, "rate_khz")
            elif key == "nominal_distance_m":
                meta_kw["nominal_distance"] = parse_float(value, line_number, "nominal_distance_m")
            elif key == "intensity_kind":
                try:
                    meta_kw["intensity_kind"] = IntensityKind(value.lower())
                except ValueError:
                    raise MalformedRow(line_number, f"unknown intensity_kind '{value}'") from None
                if meta_kw["intensity_kind"] is IntensityKind.CALIBRATED:
                    raise MalformedRow(line_number, "datasets are 'raw' or 'scaled', never 'calibrated'")
            elif key == "note":
                meta_kw["point_spacing_note"] = value
            # unknown directives are ignored
            continue
        header = [c.strip() for c in line.split(",")]
        break

    if header is None:
        raise EmptyDataset("no header line found")
    for column in _COLUMNS:
        if column not in header:
            raise MissingColumn(f"header is missing column '{column}'")
    if len(header) != len(_COLUMNS):
        extra = [c for c in header if c not in _COLUMNS]
        raise MalformedRow(line_number, f"unexpected columns {extra}")
    positions = [header.index(column) for column in _COLUMNS]
    row_dtype = np.dtype([(name, _DTYPES[name]) for name in header])

    blocks = []
    skipped = 0
    for start in range(line_number, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        columns = parse_block(block, row_dtype, _COLUMNS, _valid_scan_rows)
        if columns is None:
            columns, bad = _parse_rows(block, start + 1, positions, lenient)
            skipped += bad
        blocks.append(columns)

    if not any(len(columns[0]) for columns in blocks):
        raise EmptyDataset("no data rows")
    columns = (np.concatenate(c) for c in zip(*blocks))
    return ScanDataset(*columns, ScanMeta(**meta_kw), skipped_rows=skipped)


def _cells(block) -> list | map:
    """repr() of each value of a column block, as Python would print it.

    An int64 or float64 block whose first _PROBE values are at most half
    distinct formats each distinct 64-bit pattern once (bits, not values:
    -0.0 and 0.0 print differently); any other passes through tolist().
    """
    if not isinstance(block, np.ndarray):
        return map(repr, block)
    if block.dtype in (np.int64, np.float64):
        bits = block.view(np.int64)
        probe = np.sort(bits[:_PROBE])  # np.unique on it costs some 15 times more
        if 2 * (1 + np.count_nonzero(probe[1:] != probe[:-1])) <= probe.size:
            keys, inverse = np.unique(bits, return_inverse=True)
            text = np.array(list(map(repr, keys.view(block.dtype).tolist())), dtype=object)
            return text[inverse].tolist()
    return map(repr, block.tolist())


def csv_text(head: list[str], columns: list, tail: list[str] = ()) -> str:
    """The text of every CSV table: head lines, one row per index, tail lines.

    The first column is a numpy array or a sequence of Python ints and
    floats; so is any other, or it is one int or float written on every
    row. Cells are repr() of Python values (see _cells), _BLOCK_LINES rows
    at a time. Every line ends in LF. Blocks are joined one by one so only
    one block's row strings are alive at a time; with cli's sliced
    encoding, full-size scan_files peaks at 159 MB, not 208.
    """
    chunks = [f"{line}\n" for line in head]
    for start in range(0, len(columns[0]), _BLOCK_LINES):
        cells = []
        for column in columns:
            if isinstance(column, (int, float)):
                cells.append(itertools.repeat(repr(column)))
            else:
                cells.append(_cells(column[start:start + _BLOCK_LINES]))
        chunks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    chunks.extend(f"{line}\n" for line in tail)
    return "".join(chunks)


def serialize_dataset(ds: ScanDataset) -> str:
    """Render a ScanDataset back to the CSV format (LF newlines).

    Floats use shortest round-trip formatting, so numeric content survives
    a parse/serialize cycle exactly (beyond 15 significant digits).
    """
    out: list[str] = []
    meta = ds.meta
    if meta.scanner_id:
        out.append(f"#scanner={meta.scanner_id}")
    if meta.scanning_rate_khz is not None:
        out.append(f"#rate_khz={meta.scanning_rate_khz!r}")
    out.append(f"#intensity_kind={meta.intensity_kind.value}")
    if meta.nominal_distance is not None:
        out.append(f"#nominal_distance_m={meta.nominal_distance!r}")
    if meta.point_spacing_note:
        out.append(f"#note={meta.point_spacing_note}")
    out.append(",".join(_COLUMNS))
    return csv_text(out, [getattr(ds, name) for name in _COLUMNS])


def _finite_span(values: np.ndarray) -> tuple[float, float]:
    """(min, max) over the finite values, (inf, -inf) when there are none.

    argmin/argmax keep the first of equal values, so -0.0 and 0.0 come
    out as they stand in the data.
    """
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.inf, -math.inf
    return float(finite[finite.argmin()]), float(finite[finite.argmax()])


def validate_dataset(ds: ScanDataset) -> ValidationReport:
    """Report counts, spans, and any observation invariant violations.

    Never mutates or filters; a violation is a human-readable string
    naming the observation index and the broken invariant, ordered by
    observation, then range, intensity, vertical, horizontal.
    """
    bad_range = ~(np.isfinite(ds.range) & (ds.range > 0.0))
    bad_intensity = ~(np.isfinite(ds.intensity) & (ds.intensity >= 0.0))
    bad_vertical = ~np.isfinite(ds.vertical_angle)
    bad_horizontal = ~np.isfinite(ds.horizontal_angle)
    violations: list[str] = []
    for i in np.flatnonzero(bad_range | bad_intensity | bad_vertical | bad_horizontal).tolist():
        if bad_range[i]:
            violations.append(f"observation {i}: range {float(ds.range[i])!r} not finite and > 0")
        if bad_intensity[i]:
            violations.append(
                f"observation {i}: intensity {float(ds.intensity[i])!r} not finite and >= 0"
            )
        if bad_vertical[i]:
            violations.append(f"observation {i}: vertical_angle not finite")
        if bad_horizontal[i]:
            violations.append(f"observation {i}: horizontal_angle not finite")
    return ValidationReport(
        observation_count=len(ds),
        profile_count=int(np.unique(ds.profile).size),
        vertical_angle_span=_finite_span(ds.vertical_angle),
        intensity_span=_finite_span(ds.intensity),
        violations=tuple(violations),
    )
