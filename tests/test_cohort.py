import io
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalsurv import cohort as cohort_module
from causalsurv import errors
from causalsurv.cohort import (
    drop_early_censored,
    load_cohort,
    save_cohort,
    truncate_followup,
)
from causalsurv.trials import to_daily_trials

from oracles import cohort_from_rows, csv_reader_outcome, filtered_followup, subjects

MAP = {"treatment": "x", "time": "t", "event": "s", "covariates": ["z"]}


def _csv(rows, header="x,t,s,z"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def test_load_cohort_basic():
    cohort = load_cohort(_csv(["0,5,1,0", "1,3,1,1", "0,8,1,0", "1,2,1,1"]), MAP)
    assert cohort.n == 4
    assert cohort.t_max == 8
    assert cohort.covariate_levels == {"z": ("0", "1")}
    assert cohort.arm_sizes() == {0: 2, 1: 2}


def test_load_cohort_nonbinary_treatment():
    with pytest.raises(errors.NonBinaryTreatment):
        load_cohort(_csv(["2,5,1,0", "1,3,1,1"]), MAP)


def test_load_cohort_nonbinary_event():
    with pytest.raises(errors.NonBinaryEvent):
        load_cohort(_csv(["0,5,yes,0", "1,3,1,1"]), MAP)


def test_load_cohort_negative_time():
    with pytest.raises(errors.NegativeTime):
        load_cohort(_csv(["0,-5,1,0", "1,3,1,1"]), MAP)


def test_load_cohort_fractional_time():
    with pytest.raises(errors.NonIntegerTime):
        load_cohort(_csv(["0,5.5,1,0", "1,3,1,1"]), MAP)


def test_load_cohort_integral_float_time_accepted():
    cohort = load_cohort(_csv(["0,5.0,1,0", "1,3,1,1"]), MAP)
    assert subjects(cohort)[0].survival_time == 5


@pytest.mark.parametrize(
    "cell, day",
    [
        ("1_0", None), ("1_0.0", None), ("\u0663", None), ("\uff17", None), ("1\u0660", None),
        ("+7", 7), ("07", 7), ("7.0", 7), ("1e3", 1000),
    ],
)
def test_a_day_count_is_ascii(cell, day):
    source = _csv(["0,5,1,0", f"1,{cell},1,1"])
    if day is None:
        message = f"row 3, column 't': {cell!r} is not a day count"
        with pytest.raises(errors.NonIntegerTime, match=re.escape(message)):
            load_cohort(source, MAP)
    else:
        assert load_cohort(source, MAP).time.tolist() == [5, day]


def test_load_cohort_missing_column():
    with pytest.raises(errors.MissingColumn):
        load_cohort(_csv(["0,5,1"], header="x,t,s"), MAP)


def test_load_cohort_ragged_row():
    with pytest.raises(errors.RaggedRow) as exc:
        load_cohort(_csv(["0,5,1,0", "1,3,1"]), MAP)
    assert "row 3" in str(exc.value)


def test_load_cohort_empty_cell():
    with pytest.raises(errors.MissingValue):
        load_cohort(_csv(["0,5,1,", "1,3,1,1"]), MAP)


def test_load_cohort_empty_arm():
    with pytest.raises(errors.EmptyArm):
        load_cohort(_csv(["1,5,1,0", "1,3,1,1"]), MAP)


def test_quoted_fields_parse_per_rfc4180():
    source = io.StringIO('x,t,s,z\n0,5,1,"low,grade"\n1,3,1,"high"\n')
    cohort = load_cohort(source, MAP)
    assert cohort.covariate_levels["z"] == ("high", "low,grade")


def test_day_zero_event_allowed():
    cohort = load_cohort(_csv(["0,0,1,0", "1,3,1,1"]), MAP)
    assert subjects(cohort)[0].survival_time == 0


def test_save_load_roundtrip(tmp_path):
    cohort = load_cohort(_csv(["0,5,1,0", "1,3,0,1", "0,8,1,0", "1,2,1,1"]), MAP)
    out = tmp_path / "cohort.csv"
    save_cohort(cohort, out)
    columns = ("id", "treatment", "time", "event")
    again = load_cohort(out, {**dict(zip(columns, columns)), "covariates": ["z"]})
    assert subjects(again) == subjects(cohort)
    assert again.t_max == cohort.t_max
    # serialization is canonical: a second save is byte-identical
    out2 = tmp_path / "again.csv"
    save_cohort(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_save_quotes_labels_as_rfc_4180_needs():
    source = io.StringIO('x,t,s,"z,1"\n0,5,1,"a,b"\n1,3,0,"c""d"\n0,8,1,"e\nf"\n1,2,1,g\n')
    cohort = load_cohort(source, {**MAP, "covariates": ["z,1"]})
    out = io.StringIO()
    save_cohort(cohort, out)
    assert out.getvalue() == (
        'id,treatment,time,event,"z,1"\n'
        'p0,0,5,1,"a,b"\np1,1,3,0,"c""d"\np2,0,8,1,"e\nf"\np3,1,2,1,g\n'
    )
    columns = ("id", "treatment", "time", "event")
    column_map = {**dict(zip(columns, columns)), "covariates": ["z,1"]}
    assert subjects(load_cohort(io.StringIO(out.getvalue()), column_map)) == subjects(cohort)


def test_truncate_followup():
    cohort = load_cohort(_csv(["0,5,1,0", "1,3,1,1", "0,8,1,0", "1,9,1,1"]), MAP)
    cut = truncate_followup(cohort, 6)
    assert cut.t_max == 6
    assert [(s.survival_time, s.event) for s in subjects(cut)] == [
        (5, 1),
        (3, 1),
        (6, 0),
        (6, 0),
    ]
    assert truncate_followup(cohort, 9) is cohort
    assert truncate_followup(cohort, 100) is cohort


def test_cohorts_and_trials_compare_by_identity():
    rows = ["0,5,1,0", "1,3,1,1", "0,8,1,0", "1,9,1,1"]
    first, second = (load_cohort(_csv(rows), MAP) for _ in range(2))
    tables = [to_daily_trials(c, ["z"]) for c in (first, second)]
    for a, b in ((first, second), tables):
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


def test_drop_early_censored():
    cohort = load_cohort(_csv(["0,5,0,0", "1,3,1,1", "0,8,1,0", "1,8,0,1"]), MAP)
    strict, dropped = drop_early_censored(cohort)
    assert dropped == 1
    assert strict.n == 3
    # censored exactly at the horizon is kept
    assert any(s.event == 0 and s.survival_time == 8 for s in subjects(strict))


@pytest.mark.parametrize(
    "rows, exc, row",
    [
        (["0,5,1,0", "1,3,x,1", "2,3,1,1"], errors.NonBinaryEvent, 3),
        (["0,5,1,0", "1,3,1,1", "2,3,1,1", "1,3,x,1"], errors.NonBinaryTreatment, 4),
        (["0,5,1,0", "1,3.5,1,1", "1,3,1", "1,3,1,"], errors.NonIntegerTime, 3),
        (["0,5,1,0", "1,3,1", "1,3.5,1,1"], errors.RaggedRow, 3),
        (["0,5,1,0", "1,3,1,1", "1,3,1,", "1,-3,1,1"], errors.MissingValue, 4),
    ],
)
def test_error_names_earliest_bad_row(rows, exc, row):
    with pytest.raises(exc) as info:
        load_cohort(_csv(rows), MAP)
    assert f"row {row}" in str(info.value)


@pytest.mark.parametrize(
    "bad_row, header, exc, column",
    [
        ("2,,yes", "x,t,s,z", errors.RaggedRow, None),
        ("2,5.5,yes,", "x,t,s,z", errors.MissingValue, "z"),
        (",1,,1", "z,x,t,s", errors.MissingValue, "t"),
        ("2,5.5,yes,0", "x,t,s,z", errors.NonBinaryTreatment, "x"),
        ("1,5.5,yes,0", "x,t,s,z", errors.NonIntegerTime, "t"),
        ("1,-3,yes,0", "x,t,s,z", errors.NegativeTime, "t"),
        ("1,5,yes,0", "x,t,s,z", errors.NonBinaryEvent, "s"),
    ],
)
def test_checks_within_a_row_keep_their_order(bad_row, header, exc, column):
    good = "0,5,1,0" if header == "x,t,s,z" else "0,0,5,1"
    with pytest.raises(exc) as info:
        load_cohort(_csv([good, bad_row], header=header), MAP)
    assert "row 3" in str(info.value)
    if column is not None:
        assert f"column {column!r}" in str(info.value)


def test_row_numbers_count_blank_lines():
    source = io.StringIO("x,t,s,z\n0,5,1,0\n\n\n1,3,2,1\n")
    with pytest.raises(errors.NonBinaryEvent) as info:
        load_cohort(source, MAP)
    assert "row 5" in str(info.value)


@pytest.mark.parametrize(
    "cell, exc",
    [
        ("x=2", errors.NonBinaryTreatment),
        ("t=", errors.MissingValue),
        ("t=five", errors.NonIntegerTime),
        ("t=2.5", errors.NonIntegerTime),
        ("t=1e30", errors.NonIntegerTime),
        ("t=99999999999999999999", errors.NonIntegerTime),
        ("t=-4", errors.NegativeTime),
        ("s=2", errors.NonBinaryEvent),
        ("z=", errors.MissingValue),
    ],
)
def test_error_messages_name_row_and_column(cell, exc):
    column, value = cell.split("=")
    fields = {"x": "1", "t": "3", "s": "1", "z": "0"}
    fields[column] = value
    bad = ",".join(fields[c] for c in ("x", "t", "s", "z"))
    with pytest.raises(exc) as info:
        load_cohort(_csv(["0,5,1,0", bad]), MAP)
    message = str(info.value)
    assert "row 3" in message
    assert repr(column) in message


def test_cells_are_stripped():
    source = io.StringIO("id,x,t,s,z\n p1 , 1 , 5 , 1 , a \n p2 ,0,3.0 ,0, b\n")
    cohort = load_cohort(source, {**MAP, "id": "id"})
    assert cohort.treatment.tolist() == [1, 0]
    assert cohort.time.tolist() == [5, 3]
    assert cohort.event.tolist() == [1, 0]
    assert cohort.covariate_levels == {"z": ("a", "b")}
    assert [s.covariates for s in subjects(cohort)] == [{"z": "a"}, {"z": "b"}]


def test_blank_lines_hold_no_subject():
    source = io.StringIO("x,t,s,z\n0,5,1,0\n\n1,3,1,1\n0,4,0,1\n")
    cohort = load_cohort(source, MAP)
    assert [(s.id, s.survival_time) for s in subjects(cohort)] == [(0, 5), (1, 3), (2, 4)]


def test_subjects_keep_covariates_after_filters():
    # u is unique to each subject, so it follows the subject through the filters
    source = io.StringIO(
        "id,x,t,s,z,w,u\n"
        "a,0,5,0,0,p,a\nb,1,3,1,1,q,b\nc,0,8,1,0,q,c\nd,1,9,0,1,p,d\ne,1,2,0,2,p,e\n"
    )
    cohort = load_cohort(source, {**MAP, "id": "id", "covariates": ["z", "w", "u"]})
    before = {s.covariates["u"]: s.covariates for s in subjects(cohort)}
    cut = truncate_followup(cohort, 6)
    assert [(s.covariates["u"], s.survival_time, s.event) for s in subjects(cut)] == [
        ("a", 5, 0), ("b", 3, 1), ("c", 6, 0), ("d", 6, 0), ("e", 2, 0)
    ]
    assert {s.covariates["u"]: s.covariates for s in subjects(cut)} == before
    strict, dropped = drop_early_censored(cut)
    assert dropped == 2
    assert [s.covariates["u"] for s in subjects(strict)] == ["b", "c", "d"]
    assert all(s.covariates == before[s.covariates["u"]] for s in subjects(strict))
    # level "2" of z, like levels a and e of u, belonged only to dropped subjects
    assert strict.covariate_levels == {"u": ("b", "c", "d"), "w": ("p", "q"), "z": ("0", "1")}


@st.composite
def filtered_cohorts(draw):
    """Rows of a small cohort in alternating arms, a horizon and whether to filter strictly.

    The horizon is 0, above 0 but below every time, a time present,
    between two times or at or past the last; a time cell may be written
    7, 07 or 7.0.
    """
    times = draw(st.lists(st.integers(0, 20), min_size=2, max_size=14))
    rows = [
        (i % 2, draw(st.sampled_from([str(t), f"0{t}", f"{t}.0"])), draw(st.integers(0, 1)), z)
        for i, (t, z) in enumerate(zip(times, draw(st.lists(LABELS, min_size=len(times)))))
    ]
    days = sorted(set(times))
    gaps = [(a + 1, b - 1) for a, b in zip(days, days[1:]) if b - a > 1]
    kind = draw(st.sampled_from(["zero", "below", "present", "between", "past"]))
    if kind == "zero":
        t_max = 0
    elif kind == "below":
        t_max = draw(st.integers(1, days[0] - 1) if days[0] > 1 else st.nothing())
    elif kind == "present":
        t_max = draw(st.sampled_from(days))
    elif kind == "between":
        inside = st.sampled_from(gaps).flatmap(lambda gap: st.integers(*gap))
        t_max = draw(inside if gaps else st.nothing())
    else:
        t_max = draw(st.integers(days[-1], days[-1] + 3))
    return rows, t_max, draw(st.booleans())


def _each_horizon(test):
    """Examples of every horizon kind, strict or not, on days 3, 7, 12 and 20."""
    rows = [
        (0, "3", 1, "a"), (1, "07", 0, "b"), (0, "7.0", 0, "a"), (1, "12", 1, "b"), (0, "20", 0, "b")
    ]
    for t_max in (0, 2, 7, 9, 20, 25):
        for strict in (False, True):
            test = example((rows, t_max, strict))(test)
    return test


@settings(max_examples=200)
@given(filtered_cohorts())
@_each_horizon
def test_day_code_filters_match_the_time_column_formulas(case):
    rows, t_max, strict = case
    cohort = cohort_from_rows(rows)
    columns = [np.array([int(float(row[k])) for row in rows]) for k in range(3)]
    time, event, horizon, keep = filtered_followup(columns[1], columns[2], t_max, strict)
    out = truncate_followup(cohort, t_max)
    if strict:
        if len(set(columns[0][keep].tolist())) < 2:
            with pytest.raises(errors.EmptyArm):
                drop_early_censored(out)
            return
        out, dropped = drop_early_censored(out)
        assert dropped == len(rows) - int(keep.sum())
    assert out.treatment.tolist() == columns[0][keep].tolist()
    assert out.time.tolist() == time.tolist()
    assert out.event.tolist() == event.tolist()
    assert out.t_max == horizon
    labels = [row[3].strip() for row, k in zip(rows, keep) if k]
    assert [s.covariates["z"] for s in subjects(out)] == labels
    # the days ascend, each is some subject's, and the last is the horizon
    assert np.all(np.diff(out.days) > 0)
    assert np.all(np.bincount(out.day, minlength=len(out.days)) > 0)
    assert out.days[-1] == out.t_max


def test_mapped_column_twice_in_header_is_an_error():
    with pytest.raises(errors.AmbiguousColumn) as info:
        load_cohort(_csv(["0,5,1,0,1", "1,3,1,1,0"], header="x,t,s,z,x"), MAP)
    assert str(info.value).startswith("column 'x' appears more than once in header")
    assert str(info.value).endswith("as fields 1 and 5")
    # a duplicate that no role maps is allowed
    cohort = load_cohort(_csv(["0,5,1,0,a,b", "1,3,1,1,c,d"], header="x,t,s,z,u,u"), MAP)
    assert cohort.treatment.tolist() == [0, 1]


@pytest.fixture
def field_limit(monkeypatch):
    """Lower the reader's field-size limit to 16 for one test."""
    monkeypatch.setattr(cohort_module, "_FIELD_LIMIT", 16)
    return 16


@pytest.mark.parametrize(
    "quote, char", [("", "a"), ("", "\xe9"), ('"', "a"), ('"', "\xe9"), ('"', '""')]
)
def test_field_size_limit_counts_characters(field_limit, quote, char):
    def source(width, header="x,t,s,z"):
        cell = quote + char * width + quote
        return io.BytesIO(f"{header}\n0,5,1,0\n1,3,1,{cell}\n".encode())

    cohort = load_cohort(source(field_limit), MAP)
    # a "" pair in quotes is one character
    assert cohort.covariate_levels["z"] == tuple(sorted(["0", char.replace('""', '"') * field_limit]))
    message = f"field larger than field limit ({field_limit})"
    with pytest.raises(errors.CohortError) as info:
        load_cohort(source(field_limit + 1), MAP)
    assert str(info.value) == f"line 3: {message}"
    with pytest.raises(errors.CohortError) as info:
        load_cohort(source(1, header="x,t,s,z," + "h" * (field_limit + 1)), MAP)
    assert str(info.value) == f"line 1: {message}"
    # the ragged row that ends the read is still read
    ragged = f"x,t,s,z\n0,5,1,0\n{quote}{char * (field_limit + 1)}{quote}\n0,5,1,0\n"
    with pytest.raises(errors.CohortError) as info:
        load_cohort(io.BytesIO(ragged.encode()), MAP)
    assert str(info.value) == f"line 3: {message}"


def test_a_quote_costs_only_its_own_chunk():
    # at _CHUNK 16 the 200 rows take about 100 chunks; only the header holds a quote
    text = "x,t,s,z\n" + "".join(f"{i % 2},{i},1,{i % 3}\n" for i in range(200))
    quoted = '"x",t,s,z' + text.removeprefix("x,t,s,z")
    mask = mock.patch.object(cohort_module, "_quote_mask", wraps=cohort_module._quote_mask)
    with mask as masked:
        outcome = _load_outcome(quoted, 16, MAP)
    assert masked.call_count == 1
    assert outcome == _load_outcome(text, 16, MAP)


def test_loads_never_use_the_csv_module(monkeypatch):
    # an import of csv fails from here on, so any use of it would raise
    monkeypatch.setitem(sys.modules, "csv", None)
    monkeypatch.setitem(sys.modules, "_csv", None)
    data = "\ufeffid,x,t,s,z\r\n a ,1,5,1,\xe9\r\n\r\nb,0,3.0,0,zz\r\n".encode()
    cohort = load_cohort(io.BytesIO(data), {**MAP, "id": "id"})
    assert cohort.time.tolist() == [5, 3]
    assert cohort.covariate_levels == {"z": ("zz", "\xe9")}
    quoted = b'"x",t,s,z\r0,5,1,"a,""b"""\r1,3,1,"c\r\nd"\r'
    cohort = load_cohort(io.BytesIO(quoted), MAP)
    assert cohort.covariate_levels == {"z": ('a,"b"', "c\nd")}
    save_cohort(cohort, io.StringIO())


# Cells a cohort CSV may hold, none with a comma, quote, CR, LF or NUL:
# valid ones, then ones that fail a check.  Labels include non-ASCII text
# and cells of 9 and 17+ bytes, which take more than one 8-byte word as keys.
FREE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00'),
    max_size=20,
)
LABELS = st.sampled_from(["a", "b", " a ", "\xe9", "日本", "abcdefghi", "abcdefghijklmnopq"])
VALID = {
    "x": st.sampled_from(["0", "1", " 1", "0 "]),
    "t": st.sampled_from(["0", "3", "12", "5.0", " 7 "]),
    "label": LABELS | FREE_TEXT.filter(str.strip),
}
INVALID = {
    "x": st.sampled_from(["", "2", "yes", " "]),
    "t": st.sampled_from(["", "-3", "5.5", "1e30", "99999999999999999999", "abc"]),
    "label": st.sampled_from(["", " ", "  ", "\t", "\x1c", "\xa0", "\u3000"]) | FREE_TEXT,
}


# Printable ASCII only: a row's only empty cells are 0 bytes wide
ASCII_VALID = {
    "x": st.sampled_from(["0", "1"]),
    "t": st.sampled_from(["0", "3", "12", "5.0"]),
    "label": st.sampled_from(["a", "b", "abcdefghi"]),
}
ASCII_INVALID = {
    "x": st.sampled_from(["", "2"]),
    "t": st.sampled_from(["", "-3", "5.5"]),
    "label": st.just(""),
}


@st.composite
def plain_csv(draw, valid=VALID, invalid=INVALID, weight=20):
    """Quote-free CSV cells, line by line, and how the file is written.

    Returns (lines, line end, final newline, BOM); each line is a list of
    cells, and an empty list is a blank line.  Rows draw their cells from
    the ``valid`` and ``invalid`` pools; a row is meant to be valid with
    weight ``weight``, against 7 for the other kinds.
    """
    names = draw(st.permutations(["id", "x", "t", "s", "z", *draw(st.sampled_from([[], ["u"]]))]))
    role = {"x": "x", "s": "x", "t": "t"}
    lines = [draw(st.sampled_from([names] * 7 + [[]]))]  # at times an empty first line
    for _ in range(draw(st.integers(0, 8))):
        others = ["invalid", "invalid", "blank", "blank", "short", "long", "lone"]
        kind = draw(st.sampled_from(["valid"] * weight + others))
        if kind in ("blank", "lone"):
            lines.append([] if kind == "blank" else [draw(LABELS | st.just(" "))])
            continue
        pools = invalid if kind == "invalid" else valid
        row = [draw(pools[role.get(name, "label")] | valid[role.get(name, "label")]) for name in names]
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(LABELS))
        lines.append(row)
    return lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), draw(st.booleans())


def _write_csv(lines, end, final, bom, quote=""):
    text = end.join(",".join(quote + c + quote for c in cells) for cells in lines)
    return ("\ufeff" if bom else "") + text + (end if final else "")


def _load_outcome(text, chunk=cohort_module._CHUNK, column_map=None, keep=None):
    try:
        with mock.patch.object(cohort_module, "_CHUNK", chunk):
            cohort = load_cohort(io.BytesIO(text.encode()), column_map or {**MAP, "id": "id"}, keep)
    except errors.CohortError as exc:
        return type(exc), str(exc)
    return (
        cohort.treatment.tolist(), cohort.time.tolist(), cohort.event.tolist(),
        cohort.covariate_levels,
        {name: codes.tolist() for name, codes in cohort.codes.items()}, cohort.t_max,
    )


def _has_odd_line(lines, end, final, bom):
    """Whether a written file's rows hold a blank or ragged line after a header that loads."""
    header, *body = lines
    if body and not body[-1] and not final:
        body.pop()  # a last blank line is only the final line end
    return bool(header) and any(len(cells) != len(header) for cells in body)


_REGULAR = [["id", "x", "t", "s", "z"], ["p1", "0", "3", "1", "a"], ["p2", "1", "12", "0", "b"]]
# a short line and a long one: their field ends fill two lines of the width,
# but the first line's LF is not in a width-th slot
_ODD = [["id", "x", "t", "s", "z"], ["p1", "0", "3", "1"], ["p2", "1", "12", "0", "b", "c"]]


@settings(max_examples=200)
@given(plain_csv(), st.sampled_from([1, 16, cohort_module._CHUNK]))
@example((_REGULAR, "\n", True, False), 1)
@example((_REGULAR, "\r\n", False, True), 16)
@example((_REGULAR, "\n", False, False), cohort_module._CHUNK)
@example((_ODD, "\n", True, False), 1)
@example((_ODD, "\n", True, False), 16)
@example((_ODD, "\n", True, False), cohort_module._CHUNK)
@example((_REGULAR[:2] + [[]] + _REGULAR[2:], "\n", True, False), cohort_module._CHUNK)
def test_tokenizer_matches_csv_reader_on_quoted_twin(written, chunk):
    plain = _write_csv(*written)
    # every cell quoted: RFC 4180 gives the same cells
    twin = _write_csv(*written, quote='"')
    assert '"' not in plain
    search = mock.patch.object(cohort_module, "_line_search", wraps=cohort_module._line_search)
    with search as searched:
        # small chunks put the tokenizer's chunk boundaries between lines
        assert _load_outcome(plain, chunk) == _load_outcome(twin, chunk)
    # a chunk searches for its lines only when it holds a blank or ragged one
    assert searched.called == _has_odd_line(*written)


@pytest.mark.parametrize("chunk", [1, 16, cohort_module._CHUNK])
def test_blank_lines_in_a_one_column_file_hold_no_subject(chunk):
    # at width 1 a blank line has as many field ends as a row
    lines = [["a"], ["1"], [], ["0"], [], ["1"]]
    column_map = {"treatment": "a", "time": "a", "event": "a"}
    outcome = _load_outcome(_write_csv(lines, "\n", True, False), chunk, column_map)
    twin = _write_csv(lines, "\n", True, False, quote='"')
    assert outcome == _load_outcome(twin, chunk, column_map)
    assert outcome[:3] == ([1, 0, 1],) * 3


# Cell text that RFC 4180 lets a quoted field hold: delimiters, quotes, LF,
# CR and CRLF among other characters.
QUOTED_TEXT = st.text('ab ,"\n\r\xe9日', max_size=10)


def _field(cell, quote):
    """``cell`` as an RFC 4180 field, quoted when it must be or when ``quote`` asks."""
    if quote or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def rfc4180_csv(draw):
    """An RFC 4180 file and its column map.

    Label cells hold delimiters, quotes, LF, CR and CRLF inside quotes;
    any field may be quoted.  Rows are mostly valid, and at times hold a cell
    that fails a check, or are blank, short or long.
    """
    names = draw(st.permutations(["x", "t", "s", "z", "u"]))
    valid = {
        "x": st.sampled_from(["0", "1", " 1"]),
        "t": st.sampled_from(["0", "3", "12", "5.0", " 7 "]),
        "s": st.sampled_from(["0", "1"]),
        "z": LABELS | QUOTED_TEXT.filter(str.strip),
        "u": QUOTED_TEXT.filter(str.strip),
    }
    invalid = {
        "x": st.sampled_from(["", "2"]),
        "t": st.sampled_from(["", "-3", "5.5", "abc"]),
        "s": st.sampled_from(["", "yes"]),
        "z": st.sampled_from(["", " ", "\n", "\r\n"]),
        "u": QUOTED_TEXT,
    }
    lines = [names]
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["valid"] * 12 + ["invalid", "blank", "short", "long"]))
        pools = invalid if kind == "invalid" else valid
        row = [draw(pools[name] | valid[name]) for name in names]
        if kind == "valid":  # alternate arms
            row[names.index("x")] = str(len(lines) % 2)
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(QUOTED_TEXT))
        lines.append([] if kind == "blank" else row)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(_field(c, draw(st.booleans())) for c in cells) for cells in lines)
    text = ("\ufeff" if draw(st.booleans()) else "") + text + (end if draw(st.booleans()) else "")
    id_role = draw(st.sampled_from([{"id": "u"}, {"covariates": ["z", "u"]}]))
    return text, {**MAP, **id_role}


# rows before a late quote or NUL, so that small chunks hold none
_PLAIN_ROWS = "x,t,s,z\n0,3,1,a\n1,4,1,b\n0,5,0,a\n1,6,1,b\n"


@settings(max_examples=100)
@given(rfc4180_csv(), st.sampled_from([1, 16, cohort_module._CHUNK]))
# a line feed inside quotes, in a cell of up to 8 bytes and in a wider one
@example(('x,t,s,z\n0,3,1,"a\nb"\n1,4,1,"a,""b""\r\nc"\n', MAP), 1)
@example(('x,t,s,z\r\n0,3,1,"a\r\nb"\r\n\r\n1,4,1,"a\nb"\r\n', MAP), cohort_module._CHUNK)
# a quoted cell only in the last row, and a NUL only in a late row
@example((_PLAIN_ROWS + '0,7,1,"a,""b"""\n', MAP), 1)
@example((_PLAIN_ROWS + '0,7,1,"a,""b"""\n', MAP), 16)
@example((_PLAIN_ROWS + '0,7,1,"a,""b"""\n', MAP), cohort_module._CHUNK)
@example((_PLAIN_ROWS + "0,7,1,a\0\n1,8,1,b\n", MAP), 1)
@example((_PLAIN_ROWS + "0,7,1,a\0\n1,8,1,b\n", MAP), 16)
@example((_PLAIN_ROWS + "0,7,1,a\0\n1,8,1,b\n", MAP), cohort_module._CHUNK)
def test_quoted_files_read_as_csv_reader_reads_them(case, chunk):
    text, column_map = case
    outcome = _load_outcome(text, chunk, column_map)
    if len(outcome) == 2:  # an error: compare its type and row
        row = re.match(r"row (\d+)", outcome[1])
        outcome = (outcome[0], row and int(row[1]))
    assert outcome == csv_reader_outcome(text, column_map)


@st.composite
def kept_covariates(draw):
    """A plain_csv file, a column map with its label columns as covariates, and a subset to keep."""
    written = draw(plain_csv() | plain_csv(ASCII_VALID, ASCII_INVALID, weight=4))
    labels = [name for name in written[0][0] if name in ("id", "z", "u")] or ["z"]
    covariates = draw(st.permutations(labels))
    column_map = {**MAP, "covariates": covariates, **draw(st.sampled_from([{}, {"id": "id"}]))}
    return written, column_map, draw(st.sets(st.sampled_from(covariates)))


def _kept_case(lines, keep, end="\n", chunk=cohort_module._CHUNK):
    """An example for the test below: ``lines`` as text, the header first, "" a blank line."""
    lines = [line.split(",") if line else [] for line in lines]
    covariates = [name for name in lines[0] if name not in ("x", "t", "s")]
    return ((lines, end, True, False), {**MAP, "covariates": covariates}, keep), chunk


@settings(max_examples=300)
@given(kept_covariates(), st.sampled_from([1, 16, cohort_module._CHUNK]))
# a 0-byte cell in a printable chunk: at line start, mid-line and line end
@example(*_kept_case(["u,x,t,s,z", "a,0,3,1,b", ",1,4,1,c"], {"z"}, chunk=1))
@example(*_kept_case(["x,t,u,s,z", "0,3,a,1,b", "1,4,,1,c"], {"z"}))
@example(*_kept_case(["x,t,s,z,u", "0,3,1,b,a", "1,4,1,c,"], {"z"}))
# an only-checked u is empty in the same row as a keyed z, u first
@example(*_kept_case(["x,t,s,u,z", "0,3,1,a,b", "1,4,1,,"], {"z"}, "\r\n"))
@example(*_kept_case(["x,t,s,z,u", "0,3,1,b,a", "", "1,4,1,c,\u3000", "1"], set()))
def test_covariates_not_kept_are_only_checked(case, chunk):
    (lines, end, final, bom), column_map, keep = case
    for quote in ("", '"'):
        text = _write_csv(lines, end, final, bom, quote)
        outcome = _load_outcome(text, chunk, column_map, keep)
        expected = _load_outcome(text, chunk, column_map)
        if len(expected) == 6:  # loaded: the kept covariates' columns only
            treatment, time, event, levels, codes, t_max = expected
            kept = ({k: v for k, v in d.items() if k in keep} for d in (levels, codes))
            expected = (treatment, time, event, *kept, t_max)
        assert outcome == expected


# Characters str.strip removes that a quote-free id cell may hold: ASCII
# whitespace, \x1c-\x1f, and non-ASCII spaces.
STRIPPED = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"]


@pytest.mark.parametrize("chunk", [1, 16])
@pytest.mark.parametrize("header", [["id", "x", "t", "s", "z"], ["x", "t", "id", "s", "z"]])
def test_id_cells_match_csv_reader_on_quoted_twin(header, chunk):
    cores = ["p1", "\xe9", "日本", "a\xa0b", "s\u3000t", "abcdefghijklmnopq", "\xe9t\xe9"]
    ids = [pad + core + pad for pad in STRIPPED for core in cores] + ["q", "\x1cq", "q\x85"]
    cells = {"x": "1", "t": "3", "s": "1", "z": "a"}
    lines = [header] + [[i if name == "id" else cells[name] for name in header] for i in ids]
    lines[1][header.index("x")] = "0"
    plain = _write_csv(lines, "\n", True, False)
    outcome = _load_outcome(plain, chunk)
    assert outcome == _load_outcome(_write_csv(lines, "\n", True, False, quote='"'), chunk)
    # no id is empty, so every row loads, as with no id mapped
    assert outcome == _load_outcome(plain, chunk, MAP)
    assert len(outcome[0]) == len(ids)
    # an id that strips to nothing is empty, first seen in a later chunk
    for blank in ["", *STRIPPED, " \u3000\x1f "]:
        bad = lines + [[blank if name == "id" else cells[name] for name in header]]
        outcome = _load_outcome(_write_csv(bad, "\n", True, False), chunk)
        assert outcome == _load_outcome(_write_csv(bad, "\n", True, False, quote='"'), chunk)
        assert outcome == (errors.MissingValue, f"row {len(bad)}: column 'id' is empty")


@pytest.mark.parametrize("quote", ["", '"'])
def test_id_may_name_a_column_with_another_role(quote):
    text = f"x,t,s,z\n0,5,1,{quote}a{quote}\n1,3,0,b\n"
    outcome = _load_outcome(text, column_map={**MAP, "id": "z"})
    assert outcome[3] == {"z": ("a", "b")}
    assert outcome[4] == {"z": [0, 1]}
    assert outcome == _load_outcome(text, column_map=MAP)
    outcome = _load_outcome(text, column_map={**MAP, "id": "x"})
    assert outcome[0] == [0, 1]
    assert outcome == _load_outcome(text, column_map=MAP)


@pytest.mark.parametrize("empty", [False, True])
def test_key_widths_may_differ_between_chunks(empty):
    # in 28-byte chunks, z's cells are at most 1 byte wide in the first
    # chunk (one may be empty), then at most 2, 9, 17 and 1 bytes: integer
    # keys of two widths, two chunks deduplicated as text, then keys again
    zs = ["a", "b", "" if empty else "c", "a", "ab", "b", "ab", "a"]
    zs += ["abcdefghi", "b", "c", "abcdefghijklmnopq", "ab", "b", "a", "c", "b"]
    lines = [["x", "t", "s", "z"]] + [[str(k % 2), "3", "1", z] for k, z in enumerate(zs)]
    outcome = _load_outcome(_write_csv(lines, "\n", True, False), 28, MAP)
    assert outcome == _load_outcome(_write_csv(lines, "\n", True, False, quote='"'), 28, MAP)
    if empty:
        assert outcome == (errors.MissingValue, "row 4: column 'z' is empty")
    else:
        assert outcome[3] == {"z": ("a", "ab", "abcdefghi", "abcdefghijklmnopq", "b", "c")}
        assert outcome[4] == {"z": [0, 4, 5, 0, 1, 4, 1, 0, 2, 4, 5, 3, 1, 4, 0, 5, 4]}


def test_a_wide_keyed_cell_stays_cheap():
    # one 20 000-byte z cell among 5 000 short rows: a key as wide as that
    # cell for every row of its chunk would take hundreds of MiB
    lines = [["x", "t", "s", "z"]]
    lines += [[str(k % 2), str(k % 7), "1", "ab"[k % 2]] for k in range(5000)]
    lines[2501][3] = "z" * 20_000
    plain = _write_csv(lines, "\n", True, False)
    tracemalloc.start()
    try:
        outcome = _load_outcome(plain, column_map=MAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert outcome == _load_outcome(_write_csv(lines, "\n", True, False, quote='"'), column_map=MAP)
    assert outcome[3] == {"z": ("a", "b", "z" * 20_000)}


@pytest.mark.parametrize("id_role", ["id", "z"])
def test_quote_free_ids_never_reach_distinct_cells(id_role):
    data = b"id,x,t,s,z,w\nu1,1,5,1,a,p\nu2,0,3,0,b,q\n"
    column_map = {**MAP, "covariates": ["z", "w"], "id": id_role}
    with mock.patch.object(
        cohort_module, "_distinct_cells", wraps=cohort_module._distinct_cells
    ) as distinct:
        cohort = load_cohort(io.BytesIO(data), column_map)
    # one call each for x, t, s, z and w; z still gets its keys when it is the id
    assert distinct.call_count == 5
    assert cohort.codes["z"].tolist() == [0, 1]


def test_an_id_column_costs_no_object_per_row():
    # 20 000 quote-free rows with 8-byte ids: strings or an object array
    # per row would add about 2 MiB to the load's peak
    lines = [["id", "x", "t", "s", "z"]]
    lines += [[f"s{k:07d}", str(k % 2), str(k % 97), "1", "ab"[k % 3 % 2]] for k in range(20_000)]
    data = _write_csv(lines, "\n", True, False).encode()
    peaks = {}
    tracemalloc.start()
    try:
        for name, column_map in (("plain", MAP), ("id", {**MAP, "id": "id"})):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cohort = load_cohort(io.BytesIO(data), column_map)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
            del cohort
    finally:
        tracemalloc.stop()
    assert peaks["id"] - peaks["plain"] <= 2**18, peaks


def _unique_dtypes(text, column_map):
    """``_load_outcome`` of ``text``, and the dtype of each array ``np.unique`` saw."""
    seen = []
    unique = np.unique

    def recorded(ar, *args, **kwargs):
        seen.append(np.asarray(ar).dtype.str)
        return unique(ar, *args, **kwargs)

    with mock.patch.object(np, "unique", recorded):
        outcome = _load_outcome(text, column_map=column_map)
    return outcome, seen


def test_two_byte_keys_below_the_row_count_take_a_lookup():
    # every keyed cell is at most 2 bytes, so no key exceeds "99" (0x3939 = 14 649)
    column_map = {**MAP, "covariates": ["z", "w"]}
    rng = np.random.default_rng(11)
    times = rng.choice(["0", "5", "07", "7", "10", "42", "99", " 3"], 15_000)
    lines = [["x", "t", "s", "z", "w"]]
    lines += [[str(k % 2), t, str(k % 3 % 2), "1" + "012"[k % 3], "ab"[k % 2] + "1"]
              for k, t in enumerate(times)]
    text = _write_csv(lines, "\n", True, False)
    outcome, seen = _unique_dtypes(text, column_map)
    assert "<u2" not in seen
    assert outcome == csv_reader_outcome(text, column_map)
    assert outcome[3] == {"z": ("10", "11", "12"), "w": ("a1", "b1")}


def test_two_byte_keys_above_the_row_count_take_a_sort():
    # paper_small's shape: 200 rows whose 2-byte time keys reach about 14 000
    rows = [[k % 2, 10 + k % 90, 1, k % 2] for k in range(200)]
    text = "x,t,s,z\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
    outcome, seen = _unique_dtypes(text, MAP)
    assert "<u2" in seen
    assert outcome == csv_reader_outcome(text, MAP)
