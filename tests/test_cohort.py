import io

import numpy as np
import pytest

from causalsurv import errors
from causalsurv.cohort import (
    SubjectRecord,
    build_cohort,
    drop_early_censored,
    load_cohort,
    load_saved_cohort,
    save_cohort,
    stratum_assignments,
    stratum_counts,
    truncate_followup,
)

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
    assert cohort.subjects[0].survival_time == 5


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
    assert cohort.subjects[0].survival_time == 0


def test_save_load_roundtrip(tmp_path):
    cohort = load_cohort(_csv(["0,5,1,0", "1,3,0,1", "0,8,1,0", "1,2,1,1"]), MAP)
    out = tmp_path / "cohort.csv"
    save_cohort(cohort, out)
    again = load_saved_cohort(out, covariates=["z"])
    assert again.subjects == cohort.subjects
    assert again.t_max == cohort.t_max
    # serialization is canonical: a second save is byte-identical
    out2 = tmp_path / "again.csv"
    save_cohort(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def _balanced_cohort():
    # 100 subjects per z level; 75/25 treated split within each level
    records = []
    i = 0
    for z in ("0", "1"):
        treated = 75 if z == "0" else 25
        for k in range(100):
            records.append(
                SubjectRecord(f"s{i}", 1 if k < treated else 0, 5 + k, 1, {"z": z})
            )
            i += 1
    return build_cohort(records)


def test_stratum_counts_biased_split():
    counts = stratum_counts(_balanced_cohort(), {"z"})
    assert counts.counts[(1, ("0",))] == 75
    assert counts.counts[(1, ("1",))] == 25
    assert counts.marginals[("0",)] == 100


def test_stratum_counts_empty_selection_is_single_stratum():
    counts = stratum_counts(_balanced_cohort(), set())
    assert counts.strata == ((),)
    assert counts.counts[(1, ())] == 100
    assert counts.counts[(0, ())] == 100


def test_stratum_counts_records_zero_cells():
    cohort = build_cohort(
        [
            SubjectRecord("a", 1, 3, 1, {"z": "0"}),
            SubjectRecord("b", 0, 2, 1, {"z": "0"}),
            SubjectRecord("c", 0, 4, 1, {"z": "1"}),
        ]
    )
    counts = stratum_counts(cohort, {"z"})
    assert counts.counts[(1, ("1",))] == 0
    assert counts.empty_cells() == [(1, ("1",))]


def test_stratum_counts_total_matches_subjects():
    cohort = _balanced_cohort()
    counts = stratum_counts(cohort, {"z"})
    assert sum(counts.counts.values()) == cohort.n


def test_stratum_counts_unknown_covariate():
    with pytest.raises(errors.UnknownCovariate):
        stratum_counts(_balanced_cohort(), {"w"})


def test_truncate_followup():
    cohort = load_cohort(_csv(["0,5,1,0", "1,3,1,1", "0,8,1,0", "1,9,1,1"]), MAP)
    cut = truncate_followup(cohort, 6)
    assert cut.t_max == 6
    assert [(s.survival_time, s.event) for s in cut.subjects] == [
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
    assert any(s.event == 0 and s.survival_time == 8 for s in strict.subjects)


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
    assert [s.id for s in cohort.subjects] == ["p1", "p2"]
    assert cohort.treatment.tolist() == [1, 0]
    assert cohort.time.tolist() == [5, 3]
    assert cohort.event.tolist() == [1, 0]
    assert cohort.covariate_levels == {"z": ("a", "b")}
    assert [s.covariates for s in cohort.subjects] == [{"z": "a"}, {"z": "b"}]


def test_default_ids_follow_row_numbers():
    source = io.StringIO("x,t,s,z\n0,5,1,0\n\n1,3,1,1\n0,4,0,1\n")
    cohort = load_cohort(source, MAP)
    assert [s.id for s in cohort.subjects] == ["0", "2", "3"]


def test_subjects_keep_ids_and_covariates_after_filters():
    source = io.StringIO(
        "id,x,t,s,z,w\n"
        "a,0,5,0,0,p\nb,1,3,1,1,q\nc,0,8,1,0,q\nd,1,9,0,1,p\ne,1,2,0,2,p\n"
    )
    cohort = load_cohort(source, {**MAP, "id": "id", "covariates": ["z", "w"]})
    before = {s.id: s.covariates for s in cohort.subjects}
    cut = truncate_followup(cohort, 6)
    assert [(s.id, s.survival_time, s.event) for s in cut.subjects] == [
        ("a", 5, 0), ("b", 3, 1), ("c", 6, 0), ("d", 6, 0), ("e", 2, 0)
    ]
    assert {s.id: s.covariates for s in cut.subjects} == before
    strict, dropped = drop_early_censored(cut)
    assert dropped == 2
    assert [s.id for s in strict.subjects] == ["b", "c", "d"]
    assert all(s.covariates == before[s.id] for s in strict.subjects)
    # level "2" of z belonged only to a dropped subject
    assert strict.covariate_levels == {"w": ("p", "q"), "z": ("0", "1")}


def test_stratum_codes_match_per_subject_lookup():
    rng = np.random.default_rng(7)
    levels = {"a": ["u", "v", "w"], "b": ["0", "1"], "c": ["x", "y", "z", "zz"]}
    records = [
        SubjectRecord(
            f"s{j}",
            int(rng.integers(0, 2)),
            int(rng.integers(0, 30)),
            int(rng.integers(0, 2)),
            {c: str(rng.choice(vals)) for c, vals in levels.items()},
        )
        for j in range(300)
    ]
    cohort = build_cohort(records)
    for covs in (("a",), ("c", "a"), ("a", "b", "c")):
        names, strata, assign = stratum_assignments(cohort, covs)
        lookup = {combo: i for i, combo in enumerate(strata)}
        expected = [lookup[tuple(s.covariates[c] for c in names)] for s in records]
        assert assign.tolist() == expected
