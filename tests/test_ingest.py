"""Parsing, validation, and round-trip behavior of the scan CSV format."""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangevar.preprocess as pp
from _reference import ref_parse_scan, ref_read_tick_stats_csv, ref_validate_rows
from conftest import dataset_rows, make_dataset
from rangevar import ingest
from rangevar.errors import (
    EmptyDataset,
    InvalidRange,
    MalformedRow,
    MissingColumn,
    NonFiniteValue,
    RangevarError,
)
from rangevar.ingest import (
    IntensityKind,
    ScanDataset,
    ScanMeta,
    parse_profile_csv,
    serialize_dataset,
    validate_dataset,
)
from test_preprocess import _CHECKED as _TICK_CHECKED
from test_preprocess import _SEPARATORS, _tick_outcome

COLUMNS = ("profile", "vertical_angle", "horizontal_angle", "range", "intensity")
HEADER = ",".join(COLUMNS)

WELL_FORMED = f"""#scanner=unit-test
#rate_khz=136.671
#intensity_kind=raw
#nominal_distance_m=10.0
{HEADER}
0,0.001,0.0,9.998,1500.0
0,0.002,0.0,10.001,1400.0
1,0.001,0.0,10.002,1510.0
"""


def test_three_row_parse_preserves_order():
    ds = parse_profile_csv(WELL_FORMED)
    assert len(ds) == 3
    assert ds.profile.tolist() == [0, 0, 1]
    assert ds.vertical_angle[1] == 0.002
    assert ds.intensity[2] == 1510.0
    assert ds.meta.scanner_id == "unit-test"
    assert ds.meta.scanning_rate_khz == 136.671
    assert ds.meta.nominal_distance == 10.0
    assert ds.meta.intensity_kind is IntensityKind.RAW


def test_negative_range_rejected_with_row_number():
    text = f"{HEADER}\n0,0.001,0.0,-1.0,100.0\n"
    with pytest.raises(InvalidRange) as err:
        parse_profile_csv(text)
    assert err.value.line_number == 2


def test_nan_intensity_rejected():
    text = f"{HEADER}\n0,0.001,0.0,10.0,nan\n"
    with pytest.raises(NonFiniteValue):
        parse_profile_csv(text)


def test_header_only_is_empty_dataset():
    with pytest.raises(EmptyDataset):
        parse_profile_csv(HEADER + "\n")


def test_missing_column_reported():
    with pytest.raises(MissingColumn):
        parse_profile_csv("profile,vertical_angle,range,intensity\n0,0.1,10.0,5.0\n")


def test_repeated_column_is_named():
    text = f"{HEADER},profile\n0,0.001,0.0,10.0,1.0,0\n"
    with pytest.raises(MalformedRow, match=r"^line 1: unexpected columns \['profile'\]$"):
        parse_profile_csv(text)
    assert _library_outcome(text, False) == _reference_outcome(text, False)


def test_wrong_field_count_reports_line():
    text = f"{HEADER}\n0,0.001,0.0,10.0,100.0\n0,0.002,0.0,10.0\n"
    with pytest.raises(MalformedRow) as err:
        parse_profile_csv(text)
    assert err.value.line_number == 3


def test_lenient_mode_skips_and_counts():
    text = f"{HEADER}\n0,0.001,0.0,10.0,100.0\nbroken line,,\n0,0.002,0.0,-3.0,100.0\n0,0.003,0.0,10.0,90.0\n"
    ds = parse_profile_csv(text, lenient=True)
    assert len(ds) == 2
    assert ds.skipped_rows == 2


def test_scaled_directive_sets_kind():
    text = f"#intensity_kind=scaled\n{HEADER}\n0,0.001,0.0,10.0,55.5\n"
    assert parse_profile_csv(text).meta.intensity_kind is IntensityKind.SCALED


def test_calibrated_kind_rejected_for_datasets():
    text = f"#intensity_kind=calibrated\n{HEADER}\n0,0.001,0.0,10.0,55.5\n"
    with pytest.raises(MalformedRow):
        parse_profile_csv(text)


finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
nonneg_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            finite_floats,
            finite_floats,
            positive_floats,
            nonneg_floats,
        ),
        min_size=1,
        max_size=40,
    )
)
def test_serialize_parse_round_trip_is_exact(rows):
    ds = ScanDataset(*zip(*rows), ScanMeta(scanner_id="rt", scanning_rate_khz=34.132))
    back = parse_profile_csv(serialize_dataset(ds))
    assert len(back) == len(ds)
    assert dataset_rows(back) == rows
    for name in COLUMNS:
        # repr-based serialization makes the round trip bit-exact, which
        # is stronger than the required 15 significant digits
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()
    assert back.meta.scanning_rate_khz == ds.meta.scanning_rate_khz


def test_parse_is_deterministic():
    a = parse_profile_csv(WELL_FORMED)
    b = parse_profile_csv(WELL_FORMED)
    assert dataset_rows(a) == dataset_rows(b)
    assert a.meta == b.meta


def test_crlf_and_blank_lines_accepted():
    text = WELL_FORMED.replace("\n", "\r\n") + "\r\n\r\n"
    assert len(parse_profile_csv(text)) == 3


def test_validate_counts_profiles_and_observations():
    rows = [(p, 0.001 * i, 0.0, 10.0, 100.0) for p in range(2) for i in range(5)]
    report = validate_dataset(make_dataset(rows))
    assert report.observation_count == 10
    assert report.profile_count == 2
    assert report.violation_count == 0
    assert report.vertical_angle_span == (0.0, 0.004)


def test_validate_flags_injected_nan_without_mutating():
    ds = make_dataset([(0, 0.001, 0.0, 10.0, 100.0), (0, 0.002, 0.0, 10.0, float("nan"))])
    report = validate_dataset(ds)
    assert report.violation_count == 1
    assert "observation 1" in report.violations[0]
    assert len(ds) == 2


def test_validate_clean_simulator_output_has_no_violations():
    import rangevar as rv

    cfg = rv.SimulationConfig(
        k_system=1e7,
        boards=(rv.Board(0.5, 10.0, 0.0, 3, 50), rv.Board(0.2, 25.0, 0.3, 2, 40)),
        truth_model=(29853.0, -1.02, 0.08),
        seed=11,
    )
    ds, _ = rv.simulate_profiles(cfg)
    assert validate_dataset(ds).violation_count == 0


def test_validate_lists_violations_by_observation_then_column():
    nan, inf = float("nan"), float("inf")
    ds = make_dataset([
        (0, inf, 0.0, 10.0, -1.0),
        (0, 0.001, 0.0, 10.0, 100.0),
        (1, 0.002, nan, -0.0, nan),
    ])
    report = validate_dataset(ds)
    assert report.violations == (
        "observation 0: intensity -1.0 not finite and >= 0",
        "observation 0: vertical_angle not finite",
        "observation 2: range -0.0 not finite and > 0",
        "observation 2: intensity nan not finite and >= 0",
        "observation 2: horizontal_angle not finite",
    )
    assert report.profile_count == 2
    assert report.vertical_angle_span == (0.001, 0.002)
    assert report.intensity_span == (-1.0, 100.0)


_any_float = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), *[_any_float] * 4), min_size=1, max_size=30))
def test_validate_matches_row_by_row_reference(rows):
    report = validate_dataset(make_dataset(rows))
    violations, profiles, v_span, i_span = ref_validate_rows(rows)
    assert report.violations == violations
    assert report.profile_count == profiles
    assert report.observation_count == len(rows)
    # repr tells -0.0 from 0.0
    assert repr((report.vertical_angle_span, report.intensity_span)) == repr((v_span, i_span))


def test_dataset_columns_are_read_only_copies():
    profile = np.array([0, 1])
    ds = ScanDataset(profile, [0.1, 0.2], [0.0, 0.0], [10.0, 11.0], [5.0, 6.0], ScanMeta())
    profile[0] = 7
    assert ds.profile.tolist() == [0, 1]
    assert ds.profile.dtype == np.int64 and ds.range.dtype == np.float64
    for name in COLUMNS:
        with pytest.raises(ValueError):
            getattr(ds, name)[0] = 1
    with pytest.raises(ValueError):
        ScanDataset([0, 1], [0.1], [0.0, 0.0], [10.0, 11.0], [5.0, 6.0], ScanMeta())


def test_errors_keep_their_line_across_blocks():
    rows = [f"{i},0.001,0.0,10.0,100.0" for i in range(7)]
    bad = rows[:5] + ["0,0.001,0.0,10.0,-2.0"] + rows[5:]
    text = HEADER + "\n" + "\n".join(bad) + "\n"
    with mock.patch.object(ingest, "_BLOCK_LINES", 3):
        with pytest.raises(MalformedRow) as err:
            parse_profile_csv(text)
        assert err.value.line_number == 7
        ds = parse_profile_csv(text, lenient=True)
    assert ds.skipped_rows == 1
    assert ds.profile.tolist() == list(range(7))


def test_short_and_long_rows_do_not_pair_up():
    # 4 + 6 fields make 10 tokens that would read as two valid rows
    text = f"{HEADER}\n0,0.001,0.0,10.0\n5,1,0.002,0.0,10.0,100.0\n"
    with pytest.raises(MalformedRow, match="expected 5 fields, got 4") as err:
        parse_profile_csv(text)
    assert err.value.line_number == 2
    ds = parse_profile_csv(text + "0,0.003,0.0,10.0,1.0\n", lenient=True)
    assert (ds.skipped_rows, len(ds)) == (2, 1)


def test_profile_index_beyond_int64_is_malformed():
    text = f"{HEADER}\n0,0.001,0.0,10.0,1.0\n{2**63},0.001,0.0,10.0,1.0\n"
    with pytest.raises(MalformedRow) as err:
        parse_profile_csv(text)
    assert err.value.line_number == 3
    ds = parse_profile_csv(text.replace(str(2**63), str(2**63 - 1)))
    assert ds.profile.tolist() == [0, 2**63 - 1]


def test_undecodable_byte_is_a_malformed_row_on_its_line(tmp_path):
    data = f"{HEADER}\r\n0,0.001,0.0,10.0,1.0\r\n0,0.002,0.0,10.\xff0,1.0\r\n".encode("latin-1")
    with pytest.raises(MalformedRow) as err:
        parse_profile_csv(data)
    assert err.value.line_number == 3
    path = tmp_path / "scan.csv"
    path.write_bytes(b"\x80" + data)
    with pytest.raises(MalformedRow) as err:
        parse_profile_csv(path)
    assert err.value.line_number == 1


def test_leading_byte_order_mark_is_ignored(tmp_path):
    for text in (WELL_FORMED, f"{HEADER}\n0,0.001,0.0,10.0,1.0\n"):
        plain = parse_profile_csv(text.encode())
        path = tmp_path / "scan.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for source in (path, path.read_bytes()):
            ds = parse_profile_csv(source)
            assert ds.meta == plain.meta
            for name in COLUMNS:
                assert getattr(ds, name).tobytes() == getattr(plain, name).tobytes()
    bad = f"{HEADER}\n0,0.001,0.0,10.\xff0,1.0\n".encode("latin-1")
    with pytest.raises(MalformedRow) as err:
        parse_profile_csv(b"\xef\xbb\xbf" + bad)
    assert err.value.line_number == 2


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda at, junk: WELL_FORMED.encode()[:at] + junk + WELL_FORMED.encode()[at:],
            st.integers(0, len(WELL_FORMED)),
            st.binary(min_size=1, max_size=8),
        ),
    )
)
def test_any_bytes_parse_or_raise_rangevar_error(data):
    try:
        ds = parse_profile_csv(data)
    except RangevarError:
        return
    assert len(ds) >= 1


@pytest.mark.parametrize("separator", _SEPARATORS)
def test_a_string_with_any_line_break_is_csv_text(separator):
    text = separator.join([HEADER, "0,0.001,0.0,10.0,1.0", "1,0.002,0.0,10.0,1.0"])
    for source in (text, text.encode()):
        assert parse_profile_csv(source).profile.tolist() == [0, 1]


def test_one_line_string_is_a_path(tmp_path):
    missing = str(tmp_path / "scna.csv")
    with pytest.raises(FileNotFoundError, match="scna.csv"):
        parse_profile_csv(missing)
    (tmp_path / "scan.csv").write_text(WELL_FORMED)
    assert len(parse_profile_csv(str(tmp_path / "scan.csv"))) == 3


def test_readme_scan_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## File formats"):]
    block = section[section.index("```\n") + 4:]
    block = block[:block.index("```")]
    ds = parse_profile_csv(block)
    assert len(ds) >= 1
    assert ds.meta.intensity_kind is IntensityKind.SCALED


# ---- differential test against the row-by-row reference parser -----------------

_JUNK_TOKENS = list("0123456789.-+e_ #,") + ["nan", "inf"]
_junk = st.lists(st.sampled_from(_JUNK_TOKENS), max_size=6).map("".join)
_number = st.one_of(
    st.integers(0, 10**4).map(str),
    st.floats(min_value=1e-3, max_value=1e4).map(repr),
    st.floats().map(repr),
)
_field = st.one_of(_number, _number, _number, _junk)
_valid_row = st.tuples(
    st.integers(0, 10**3).map(str),
    *(st.floats(lo, hi).map(repr) for lo, hi in ((-7.0, 7.0), (-7.0, 7.0), (1e-3, 1e3), (0.0, 1e4))),
)
_odd_line = st.one_of(
    st.lists(_field, min_size=5, max_size=5).map(",".join),
    st.lists(_field, max_size=7).map(",".join),
    # every field valid anywhere; a short and a long line can realign
    st.lists(st.integers(1, 99).map(str), min_size=3, max_size=7).map(",".join),
    st.sampled_from(["", "   ", "#", "# note, with, commas"]),
    _junk,
)
_directive = st.one_of(
    st.sampled_from(["#scanner=x", "#rate_khz=12.5", "#intensity_kind=scaled", "#other=1", ""]),
    st.sampled_from(["#rate_khz=nan", "#nominal_distance_m=abc", "#intensity_kind=calibrated"]),
)


@st.composite
def _scan_texts(draw):
    """Scan CSV text, as a str or as UTF-8 bytes, with a line separator drawn per line."""
    columns = draw(st.one_of(st.just(COLUMNS), st.permutations(COLUMNS)))
    order = [COLUMNS.index(name) for name in columns]
    head = draw(st.lists(_directive, max_size=1)) + [",".join(columns)]
    # Most lines are valid rows, so whole blocks take the columnar path
    # and a single odd line has to be found among them.
    odd_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    body = []
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.floats(0.0, 1.0)) < odd_share:
            pad = st.sampled_from(["", " ", "\t"])
            body.append(draw(pad) + draw(_odd_line) + draw(pad))
        else:
            fields = draw(_valid_row)
            body.append(",".join(fields[k] for k in order))
    lines = head + body
    separators = [draw(st.sampled_from(_SEPARATORS[:2] * 5 + _SEPARATORS)) for _ in lines]
    text = "".join(line + sep for line, sep in zip(lines, separators))
    if body and draw(st.booleans()):
        text = text[:-len(separators[-1])]
    return text.encode() if draw(st.booleans()) else text


def _library_outcome(text, lenient):
    try:
        ds = parse_profile_csv(text, lenient=lenient)
    except RangevarError as exc:
        return type(exc), getattr(exc, "line_number", None)
    columns = [ds.profile.tolist()] + [getattr(ds, name).tobytes() for name in COLUMNS[1:]]
    return columns, ds.skipped_rows


def _reference_outcome(text, lenient):
    if isinstance(text, bytes):
        text = text.decode()
    try:
        columns, skipped = ref_parse_scan(text, lenient=lenient)
    except RangevarError as exc:
        return type(exc), getattr(exc, "line_number", None)
    floats = [np.array(columns[name], dtype=float).tobytes() for name in COLUMNS[1:]]
    return [columns["profile"]] + floats, skipped


@pytest.mark.parametrize("line", [
    "+1,0.1,0.0,1.0,1.0",
    "-0,0.1,0.0,1.0,1.0",
    " 1 , 0.1 ,\t0.0\t,1.0 ,1.0 ",
    "1_0,0.1,0.0,1.0,1.0",
    "1,1_0.5,0.0,1.0,1.0",
    "\u0663,0.1,0.0,1.0,1.0",
    "1,\u0660.5,0.0,1.0,\u00a01.0",
    "1,.5,0.0,5.,1E2",
    "1,0.1,-0.0,1.0,-0.0",
    "1,1e-400,0.0,1.0,1.0",
    "1,0.1,0.0,1e400,1.0",
    "1,-INFINITY,0.0,1.0,1.0",
    "1.0,0.1,0.0,1.0,1.0",
    "1,0x1p3,0.0,1.0,1.0",
    "1,0.1,0.0,1.0,1.0,",
    "1,0.1,0.0,,1.0",
    "1,0.1\x1f,0.0,1.0,1.0",
    "\x1f1,0.1,0.0,1.0,1.0\x1f",
])
@pytest.mark.parametrize("block_lines", [1, 16384])
def test_parser_matches_reference_on_edge_syntax(line, block_lines):
    text = f"{HEADER}\n0,0.001,0.0,10.0,1.0\n{line}\n"
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        for lenient in (False, True):
            assert _library_outcome(text, lenient) == _reference_outcome(text, lenient)


@settings(max_examples=400, deadline=None)
@given(_scan_texts(), st.sampled_from([1, 2, 3, 16384]))
def test_parser_matches_row_by_row_reference(text, block_lines):
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        for lenient in (False, True):
            assert _library_outcome(text, lenient) == _reference_outcome(text, lenient)


# One line per check of the block path: numpy's text reader reads each, and
# only that check refuses it.
_CHECKED = [f"{HEADER}\n0,0.001,0.0,10.0,1.0\n{line}\n" for line in [
    "-1,0.1,0.0,1.0,1.0", "0,inf,0.0,1.0,1.0", "0,0.1,inf,1.0,1.0", "0,0.1,0.0,inf,1.0",
    "0,0.1,0.0,1.0,inf", "0,0.1,0.0,0.0,1.0", "0,0.1,0.0,1.0,-1e-9",
]]


@pytest.mark.parametrize("text", _CHECKED)
@pytest.mark.parametrize("block_lines", [1, 16384])
def test_parser_matches_the_reference_where_one_check_refuses(text, block_lines):
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        for lenient in (False, True):
            assert _library_outcome(text, lenient) == _reference_outcome(text, lenient)


def test_parser_takes_the_block_path_on_a_clean_scan():
    ds = make_dataset([(p, 0.001 * t, 0.0, 10.0 + t, 100.0 + p) for p in range(3) for t in range(20)])
    with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row path")):
        assert dataset_rows(parse_profile_csv(serialize_dataset(ds))) == dataset_rows(ds)


def _schema_checks():
    """Each check of both schemas: the module that reads the schema, its name,
    a column and the field value that drops the check from that column."""
    for module, name in ((ingest, "SCAN"), (pp, "TICKS")):
        for column in getattr(module, name).columns:
            drops = [("finite", False)] * column.finite + [("low", None)] * (column.low is not None)
            for field, value in drops:
                yield pytest.param(module, name, column.name, {field: value}, id=f"{column.name}-{field}")


def _scan_agrees(text):
    return all(_library_outcome(text, lenient) == _reference_outcome(text, lenient) for lenient in (False, True))


def _ticks_agree(text):
    return _tick_outcome(pp.read_tick_stats_csv, text) == _tick_outcome(ref_read_tick_stats_csv, text)


@pytest.mark.parametrize("module, name, column, drop", _schema_checks())
def test_each_schema_check_is_what_refuses_its_example_on_both_paths(module, name, column, drop):
    schema = getattr(module, name)
    columns = [dataclasses.replace(c, **drop) if c.name == column else c for c in schema.columns]
    examples, agrees = (_CHECKED, _scan_agrees) if name == "SCAN" else (_TICK_CHECKED, _ticks_agree)
    assert all(map(agrees, examples))
    with mock.patch.object(module, name, dataclasses.replace(schema, columns=tuple(columns))):
        # As written, each example's body is one clean block, so the masks decide;
        # a blank line after the header sends the block to the row parse.
        for texts in (examples, [text.replace("\n", "\n\n", 1) for text in examples]):
            assert not all(map(agrees, texts))
