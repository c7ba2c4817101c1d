import csv
import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsurv import cohort as cohort_module
from causalsurv import errors
from causalsurv.cohort import (
    drop_early_censored,
    load_cohort,
    save_cohort,
    truncate_followup,
)

from oracles import cohort_from_rows, subjects

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


def test_mapped_column_twice_in_header_is_an_error():
    with pytest.raises(errors.AmbiguousColumn) as info:
        load_cohort(_csv(["0,5,1,0,1", "1,3,1,1,0"], header="x,t,s,z,x"), MAP)
    assert str(info.value).startswith("column 'x' appears more than once in header")
    assert str(info.value).endswith("as fields 1 and 5")
    # a duplicate that no role maps is allowed
    cohort = load_cohort(_csv(["0,5,1,0,a,b", "1,3,1,1,c,d"], header="x,t,s,z,u,u"), MAP)
    assert cohort.treatment.tolist() == [0, 1]


@pytest.fixture
def field_limit():
    """Lower the csv module's field-size limit to 16 for one test."""
    old = csv.field_size_limit(16)
    yield 16
    csv.field_size_limit(old)


@pytest.mark.parametrize("char", ["a", "\xe9"])
@pytest.mark.parametrize("quote", ["", '"'])
def test_field_size_limit_counts_characters(field_limit, quote, char):
    def source(width, header="x,t,s,z"):
        cell = quote + char * width + quote
        return io.BytesIO(f"{header}\n0,5,1,0\n1,3,1,{cell}\n".encode())

    cohort = load_cohort(source(field_limit), MAP)
    assert cohort.covariate_levels["z"] == ("0", char * field_limit)
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


def test_quote_free_bytes_never_reach_csv_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    data = "\ufeffid,x,t,s,z\r\n a ,1,5,1,\xe9\r\n\r\nb,0,3.0,0,zz\r\n".encode()
    cohort = load_cohort(io.BytesIO(data), {**MAP, "id": "id"})
    assert cohort.time.tolist() == [5, 3]
    assert cohort.covariate_levels == {"z": ("zz", "\xe9")}
    with pytest.raises(AssertionError, match="csv.reader called"):
        load_cohort(io.BytesIO(b'x,t,s,z\n0,5,1,"a"\n'), MAP)


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
    "label": st.sampled_from(["", "  "]) | FREE_TEXT,
}


@st.composite
def plain_csv(draw):
    """Quote-free CSV cells, line by line, and how the file is written.

    Returns (lines, line end, final newline, BOM); each line is a list of
    cells, and an empty list is a blank line.
    """
    names = draw(st.permutations(["id", "x", "t", "s", "z", *draw(st.sampled_from([[], ["u"]]))]))
    role = {"x": "x", "s": "x", "t": "t"}
    lines = [draw(st.sampled_from([names] * 7 + [[]]))]  # at times an empty first line
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(
            st.sampled_from(["valid"] * 20 + ["invalid", "invalid", "blank", "blank", "short", "long", "lone"])
        )
        if kind in ("blank", "lone"):
            lines.append([] if kind == "blank" else [draw(LABELS | st.just(" "))])
            continue
        pools = INVALID if kind == "invalid" else VALID
        row = [draw(pools[role.get(name, "label")] | VALID[role.get(name, "label")]) for name in names]
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(LABELS))
        lines.append(row)
    return lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), draw(st.booleans())


def _write_csv(lines, end, final, bom, quote=""):
    text = end.join(",".join(quote + c + quote for c in cells) for cells in lines)
    return ("\ufeff" if bom else "") + text + (end if final else "")


def _load_outcome(text, chunk=cohort_module._CHUNK, column_map=None):
    try:
        with mock.patch.object(cohort_module, "_CHUNK", chunk):
            cohort = load_cohort(io.BytesIO(text.encode()), column_map or {**MAP, "id": "id"})
    except errors.CohortError as exc:
        return type(exc), str(exc)
    return (
        cohort.treatment.tolist(), cohort.time.tolist(), cohort.event.tolist(),
        cohort.covariate_levels,
        {name: codes.tolist() for name, codes in cohort.codes.items()}, cohort.t_max,
    )


@settings(max_examples=200)
@given(plain_csv(), st.sampled_from([1, 16, cohort_module._CHUNK]))
def test_tokenizer_matches_csv_reader_on_quoted_twin(written, chunk):
    plain = _write_csv(*written)
    # every cell quoted: RFC 4180 gives the same cells, through csv.reader
    twin = _write_csv(*written, quote='"')
    assert '"' not in plain
    # small chunks put the tokenizer's chunk boundaries between lines
    assert _load_outcome(plain, chunk) == _load_outcome(twin)


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
    assert outcome == _load_outcome(_write_csv(lines, "\n", True, False, quote='"'))
    # no id is empty, so every row loads, as with no id mapped
    assert outcome == _load_outcome(plain, chunk, MAP)
    assert len(outcome[0]) == len(ids)
    # an id that strips to nothing is empty, first seen in a later chunk
    for blank in ["", *STRIPPED, " \u3000\x1f "]:
        bad = lines + [[blank if name == "id" else cells[name] for name in header]]
        outcome = _load_outcome(_write_csv(bad, "\n", True, False), chunk)
        assert outcome == _load_outcome(_write_csv(bad, "\n", True, False, quote='"'))
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
    assert outcome == _load_outcome(_write_csv(lines, "\n", True, False, quote='"'), column_map=MAP)
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
