"""Exception hierarchy shared across the rangevar modules.

All domain errors derive from RangevarError so callers (and the CLI)
can distinguish domain failures from programming errors with a single
except clause.
"""


class RangevarError(Exception):
    """Base class for all rangevar domain errors."""


# ---- ingest ----------------------------------------------------------------

class MalformedRow(RangevarError):
    """A data row could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


def decode_utf8(data: bytes) -> str:
    """UTF-8 text without one leading byte-order mark.

    An undecodable byte raises MalformedRow on its 1-based line, counted
    as str.splitlines counts lines.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before exc.start decodes.
        line_number = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(
            line_number, f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None


class MissingColumn(RangevarError):
    """The header is missing a required column."""


class NonFiniteValue(MalformedRow):
    """A numeric field is NaN or infinite."""

    def __init__(self, line_number: int, column: str):
        self.column = column
        MalformedRow.__init__(self, line_number, f"non-finite value in column '{column}'")


class InvalidRange(MalformedRow):
    """A range field is finite but not strictly positive."""

    def __init__(self, line_number: int, value: float):
        MalformedRow.__init__(self, line_number, f"range must be > 0, got {value!r}")


class EmptyDataset(RangevarError):
    """The source contains no data rows."""


# ---- preprocess -------------------------------------------------------------

class DegenerateTicks(RangevarError):
    """The vertical tick step cannot be estimated from the data."""


class TooFewValues(RangevarError):
    """A statistic requiring at least two values was given fewer."""


class NoSurvivingTicks(RangevarError):
    """Every tick fell below the minimum member count after screening."""


# ---- calibrate / simulate ----------------------------------------------------

class NonPositiveRange(RangevarError):
    """A range that must be strictly positive is zero or negative."""


# ---- fit / evaluate ----------------------------------------------------------

class NonPositiveIntensity(RangevarError):
    """Model evaluation requested at intensity <= 0."""


class TooFewPoints(RangevarError):
    """Fewer points than parameters (or required minimum) supplied to a fit."""


class RankDeficient(RangevarError):
    """The fit problem has no unique solution (degenerate abscissa or ordinate)."""


class DomainViolation(RangevarError):
    """The fitted model predicts a non-positive standard deviation inside
    its own intensity domain."""


class EmptyStats(RangevarError):
    """An evaluation or a calibration was requested on an empty tick list."""


class MalformedFitReport(RangevarError):
    """A fit report record lacks a key or holds a value of the wrong type."""


class EmptyGrid(RangevarError):
    """A model comparison was requested over an empty intensity grid."""


# ---- simulate ----------------------------------------------------------------

class InvalidConfig(RangevarError):
    """A simulation configuration violates its invariants."""
