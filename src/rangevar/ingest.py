"""Parse and validate profile-scan datasets.

File format
-----------
UTF-8 text (one leading byte-order mark is ignored), split into lines as
str.splitlines splits it. Optional leading directive lines ``#key=value``
carry dataset metadata:

    #scanner=<free text>
    #rate_khz=<float>
    #intensity_kind=raw|scaled
    #nominal_distance_m=<float>
    #note=<free text>

They are followed by the mandatory header
``profile,vertical_angle,horizontal_angle,range,intensity`` (any column
order, each of these five names once) and one observation per line. Blank
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

Each CSV table has one schema, SCAN here and TICKS for preprocess's tick
table: every column's name, dtype and check, each check written once.
read_table converts a body in blocks with numpy's text reader and runs
the checks as masks; a block that fails is parsed again row by row with
the same checks, which raises the first failure on the first bad line (or,
in lenient mode, drops the bad rows).
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

# Body lines converted at a time, read or written. Bounds the transient memory
# and the share of the file a single bad row sends through the per-row parse.
_BLOCK_LINES = 16384
# Leading values of a written block whose repeats decide how it is formatted.
_PROBE = 1024


@dataclass(frozen=True)
class Column:
    """One column of a CSV table: its name as headers and errors print it, its
    dtype and its check. A field takes int() or float() syntax and must fit
    the dtype: an int64 below 2**63 (a Python int is unbounded), a float64
    finite (while finite is set). It may also need value op low, else it
    raises error; a late bound waits until every field of the row has
    converted. is_finite and is_bounded take one value (the row parse) or a
    column of them (the block masks)."""

    name: str
    dtype: type = np.float64
    finite: bool = True
    low: int | None = None
    op: str = ">="
    error: type[MalformedRow] = MalformedRow
    late: bool = False

    def is_finite(self, values):
        return abs(values) < math.inf if self.finite else True

    def is_bounded(self, values):
        return self.low is None or (values > self.low if self.op == ">" else values >= self.low)

    def passes(self, values):
        return np.logical_and(self.is_finite(values), self.is_bounded(values))

    def convert(self, text: str, line_number: int):
        """One field as the column holds it, else the error naming its line."""
        try:
            value = (float if self.dtype is np.float64 else int)(text)
        except ValueError:
            raise MalformedRow(line_number, f"cannot parse '{text}' in column '{self.name}'") from None
        if value >= 2**63 and self.dtype is np.int64:
            raise MalformedRow(line_number, f"{self.name} must be < 2**63, got {value}")
        if not self.is_finite(value):
            raise NonFiniteValue(line_number, self.name)
        return value if self.late or self.low is None else self.bound(value, line_number)

    def bound(self, value, line_number: int):
        """value when it meets the bound, else the error naming its line."""
        if self.is_bounded(value):
            return value
        if self.error is not MalformedRow:
            raise self.error(line_number, value)
        raise MalformedRow(line_number, f"{self.name} must be {self.op} {self.low}, got {value!r}")


@dataclass(frozen=True)
class Schema:
    """A CSV table format: its columns in the order a row's fields are checked
    and read_table returns them, and whether '#' body lines are comments."""

    columns: tuple[Column, ...]
    comments: bool

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def __getitem__(self, name: str) -> Column:
        return self.columns[self.names.index(name)]


# The profile scan: columns in any order, each field checked before the next.
SCAN = Schema((
    Column("profile", np.int64, finite=False, low=0),
    Column("vertical_angle"),
    Column("horizontal_angle"),
    Column("range", low=0, op=">", error=InvalidRange),
    Column("intensity", low=0),
), comments=True)

# The tick table (preprocess.TickTable); only a calibrated table has the last column.
TICKS = Schema((
    Column("tick_id", np.int64, finite=False, low=0),
    Column("vertical_angle_center"),
    Column("mean_intensity"),
    Column("mean_range_m", low=0, op=">", late=True),
    Column("std_range_mm", low=0, late=True),
    Column("count", np.int64, finite=False, low=1),
    Column("calibrated_intensity"),
), comments=False)


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
    a read-only copy of what the constructor is given, of its SCAN dtype;
    angles are in rad and range in m. Equality is identity; compare columns
    with numpy. skipped_rows counts rows dropped under lenient parsing.
    """

    profile: np.ndarray
    vertical_angle: np.ndarray
    horizontal_angle: np.ndarray
    range: np.ndarray
    intensity: np.ndarray
    meta: ScanMeta
    skipped_rows: int = 0

    def __post_init__(self):
        columns = {c.name: np.array(getattr(self, c.name), dtype=c.dtype) for c in SCAN.columns}
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


def _read_lines(source) -> list[str]:
    """The lines of a path, bytes or str source, as str.splitlines splits them.

    A str holding a line break is CSV content; any other str is a path,
    since a dataset needs a header line plus at least one row.
    """
    if isinstance(source, str):
        lines = source.splitlines()
        if lines and lines != [source]:  # a line break was split off
            return lines
    # The bytes of a path are a temporary, freed before the text is split.
    text = decode_utf8(source if isinstance(source, bytes) else Path(source).read_bytes())
    return text.splitlines()


def parse_float(text: str, line_number: int, column: str) -> float:
    """A finite float() of one field of any text input, else MalformedRow naming the line."""
    return Column(column).convert(text, line_number)


def parse_int(text: str, line_number: int, column: str) -> int:
    """An int() of one field of any text input, else MalformedRow naming the line."""
    return Column(column, int, finite=False).convert(text, line_number)


def parse_index(text: str, line_number: int, column: str, low: int = 0) -> int:
    """An int() field that fits an int64 column, low <= value < 2**63, else MalformedRow."""
    return Column(column, np.int64, finite=False, low=low).convert(text, line_number)


def _parse_rows(block: list[str], first_line: int, schema: Schema, positions: list[int], lenient: bool):
    """Row-by-row parse of one block: its columns and the number of rows skipped.
    positions[i] is the field of schema column i. The first failure raises,
    or under lenient drops its row."""
    columns = schema.columns[:len(positions)]
    late = [(i, column) for i, column in enumerate(columns) if column.late]
    rows = []
    skipped = 0
    for line_number, raw in enumerate(block, first_line):
        line = raw.strip()
        if not line or schema.comments and line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            if len(fields) != len(positions):
                raise MalformedRow(line_number, f"expected {len(positions)} fields, got {len(fields)}")
            row = [column.convert(fields[p], line_number) for column, p in zip(columns, positions)]
            for i, column in late:
                column.bound(row[i], line_number)
            rows.append(row)
        except MalformedRow:
            if not lenient:
                raise
            skipped += 1
    return [np.array([row[i] for row in rows], dtype=c.dtype) for i, c in enumerate(columns)], skipped


def parse_block(block: list[str], row_dtype: np.dtype, columns):
    """The given columns of a block in which every line is a row, else None.

    numpy's text reader converts the fields in C, row_dtype giving each
    field's name and type in line order. What it accepts, it reads as int()
    and float() do (the same correctly rounded conversion), and it refuses
    the rest of their syntax (underscores, non-ASCII digits). It skips empty
    lines, so a block holding one is left to the per-row parse. So is a
    block holding a \\x1f, which the reader takes for a space next to a
    field and int() and float() refuse, and a block whose values fail a
    column's checks, evaluated as masks.
    """
    if "" in block or "\x1f" in "".join(block):
        return None
    try:
        rows = np.loadtxt(block, dtype=row_dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    values = [rows[column.name] for column in columns]
    return values if all(np.all(column.passes(v)) for column, v in zip(columns, values)) else None


def read_table(lines: list[str], start: int, schema: Schema, header: list[str], lenient: bool = False):
    """The columns header names, in schema order, of the body lines[start:],
    and the rows skipped. parse_block converts _BLOCK_LINES lines at a time;
    a block it refuses is parsed again row by row (_parse_rows).
    """
    columns = schema.columns[:len(header)]
    positions = [header.index(column.name) for column in columns]
    row_dtype = np.dtype([(name, schema[name].dtype) for name in header])
    blocks = [[np.empty(0, column.dtype) for column in columns]]
    skipped = 0
    for first in range(start, len(lines), _BLOCK_LINES):
        block = lines[first:first + _BLOCK_LINES]
        values = parse_block(block, row_dtype, columns)
        if values is None:
            values, bad = _parse_rows(block, first + 1, schema, positions, lenient)
            skipped += bad
        blocks.append(values)
    return [np.concatenate(parts) for parts in zip(*blocks)], skipped


def parse_profile_csv(source, lenient: bool = False) -> ScanDataset:
    """Parse the documented CSV format from a path, bytes or str into a ScanDataset.

    Raises MalformedRow / MissingColumn / NonFiniteValue / InvalidRange on
    the first bad row; lenient skips rows that fail a check and counts
    them in skipped_rows instead. Raises EmptyDataset when no data rows
    survive. Observation order equals file row order. A str without a
    line break is a path, so a missing file raises FileNotFoundError.
    """
    lines = _read_lines(source)

    meta_kw: dict = {}
    header: list[str] | None = None
    for line_number, raw in enumerate(lines, 1):
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
    for column in SCAN.names:
        if column not in header:
            raise MissingColumn(f"header is missing column '{column}'")
    extra = [c for i, c in enumerate(header) if c not in SCAN.names or c in header[:i]]
    if extra:  # an unknown or a repeated name
        raise MalformedRow(line_number, f"unexpected columns {extra}")

    columns, skipped = read_table(lines, line_number, SCAN, header, lenient)
    if not len(columns[0]):
        raise EmptyDataset("no data rows")
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
    out.append(",".join(SCAN.names))
    return csv_text(out, [getattr(ds, name) for name in SCAN.names])


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
    checked = [SCAN[name] for name in ("range", "intensity", "vertical_angle", "horizontal_angle")]
    bad = [~column.passes(getattr(ds, column.name)) for column in checked]
    violations: list[str] = []
    for i in np.flatnonzero(np.logical_or.reduce(bad)).tolist():
        for column, flags in zip(checked, bad):
            if flags[i]:
                broken = "not finite"
                if column.low is not None:
                    value = float(getattr(ds, column.name)[i])
                    broken = f"{value!r} not finite and {column.op} {column.low}"
                violations.append(f"observation {i}: {column.name} {broken}")
    return ValidationReport(
        observation_count=len(ds),
        profile_count=int(np.unique(ds.profile).size),
        vertical_angle_span=_finite_span(ds.vertical_angle),
        intensity_span=_finite_span(ds.intensity),
        violations=tuple(violations),
    )
