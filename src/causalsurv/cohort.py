"""Cohort ingestion, validation, and stratum indexing.

A cohort is a set of subjects with a binary treatment, an integer survival
time in days, a binary event flag (1 = event at that time, 0 = censored at
that time), and finite categorical covariates.  Times must be whole days:
fractional inputs are rejected rather than rounded so that the per-day
transformation downstream stays unambiguous.  Continuous covariates are
likewise rejected in spirit: every covariate column is treated as a label,
and users must pre-discretize numeric ones.

Datasets are columnar, immutable after load and safe for shared
concurrent reads.  CSV cells and subject records pass one validator.
"""

import csv
import io
from dataclasses import dataclass, field, replace
from itertools import compress, product
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    CohortError,
    EmptyArm,
    MissingColumn,
    MissingValue,
    NegativeTime,
    NonBinaryEvent,
    NonBinaryTreatment,
    NonIntegerTime,
    RaggedRow,
    UnknownCovariate,
)

__all__ = [
    "SubjectRecord",
    "CohortDataset",
    "StratumIndex",
    "build_cohort",
    "load_cohort",
    "save_cohort",
    "stratum_counts",
    "truncate_followup",
    "drop_early_censored",
]


@dataclass(frozen=True)
class SubjectRecord:
    id: str
    treatment: int
    survival_time: int
    event: int
    covariates: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CohortDataset:
    """A validated cohort, one array per column.

    ``treatment``, ``time`` and ``event`` are int64 arrays; covariate
    ``name`` is int64 ``codes[name]`` into its sorted level tuple
    ``covariate_levels[name]``, every level in use.  ``ids`` is an object
    array of id strings, or int64 row numbers minus 2 for a CSV read
    without an id column.
    """

    ids: np.ndarray
    treatment: np.ndarray
    time: np.ndarray
    event: np.ndarray
    covariate_levels: dict[str, tuple[str, ...]]
    codes: dict[str, np.ndarray]
    t_max: int

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def subjects(self) -> tuple[SubjectRecord, ...]:
        """One record per subject, built on each access."""
        names = tuple(self.covariate_levels)
        labels = [np.array(self.covariate_levels[c], object)[self.codes[c]] for c in names]
        columns = [a.tolist() for a in (self.ids, self.treatment, self.time, self.event)]
        return tuple(
            SubjectRecord(str(i), x, t, e, dict(zip(names, values)))
            for i, x, t, e, *values in zip(*columns, *labels)
        )

    def arm_sizes(self) -> dict[int, int]:
        t = self.treatment
        return {0: int((t == 0).sum()), 1: int((t == 1).sum())}

    def covariate_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariate_levels))


def _dataset(ids, treatment, time, event, covariates) -> CohortDataset:
    """Check both arms are occupied; drop covariate levels nobody has.

    ``covariates`` maps each name to (sorted levels, per-subject codes).
    """
    if len(ids) == 0:
        raise EmptyArm("cohort is empty")
    for arm, count in enumerate(np.bincount(treatment, minlength=2).tolist()):
        if count == 0:
            raise EmptyArm(f"treatment arm {arm} has no subjects")
    levels, codes = {}, {}
    for name, (values, column) in sorted(covariates.items()):
        present = np.bincount(column, minlength=len(values)) > 0
        if not present.all():
            column = (np.cumsum(present) - 1)[column]
            values = tuple(compress(values, present.tolist()))
        levels[name], codes[name] = values, column
    return CohortDataset(ids, treatment, time, event, levels, codes, int(time.max()))


def _encode(rows, j):
    """Sorted distinct stripped values of column ``j``, and each row's code."""
    distinct = set(map(itemgetter(j), rows))
    levels = sorted({c.strip() for c in distinct})
    position = {v: i for i, v in enumerate(levels)}
    index = {c: position[c.strip()] for c in distinct}
    cells = map(index.__getitem__, map(itemgetter(j), rows))
    return tuple(levels), np.fromiter(cells, dtype=np.int64, count=len(rows))


def _first(flagged, codes) -> int:
    """Index of the first row whose level is flagged (one bool per level)."""
    return int(np.argmax(np.array(flagged, dtype=bool)[codes]))


def _day_count(text):
    """A stripped time cell as (day count, None), or (0, why it is not one)."""
    try:
        day = int(text)
    except ValueError:
        try:
            day = float(text)
        except ValueError:
            return 0, "is not a day count"
        if not day.is_integer():
            return 0, "is not a whole number of days (fractional times are rejected, not rounded)"
        day = int(day)
    if day > np.iinfo(np.int64).max:
        return 0, "is outside the 64-bit range of day counts"
    return day, None


def _validated(rows, columns, ids, id_column, where, broken=None) -> CohortDataset:
    """Check rows of raw text cells column by column and build the dataset.

    ``columns`` holds (name, position in a row) for treatment, time, event
    and then each covariate; ``ids`` come from column ``id_column`` unless
    it is None, and ``where(i)`` names row i in messages.  The earliest
    failing row is reported; within a row an empty cell (in column order,
    the id column last) comes first, then treatment, time, event.
    ``broken``, a structural error just past ``rows``, is raised when every
    row passes.
    """
    encoded = [_encode(rows, j) for _, j in columns]
    failures = []
    for (name, _), (levels, codes) in zip(columns, encoded):
        if levels and levels[0] == "":  # "" sorts first
            i = int(np.argmax(codes == 0))
            failures.append((i, MissingValue(f"{where(i)}: column {name!r} is empty")))
    if id_column is not None and np.any(ids == ""):
        i = int(np.argmax(ids == ""))
        failures.append((i, MissingValue(f"{where(i)}: column {id_column!r} is empty")))

    def binary(k, exc):
        (name, j), (levels, codes) = columns[k], encoded[k]
        bad = [v not in ("0", "1") for v in levels]
        if any(bad):
            i = _first(bad, codes)
            got = f"expected 0 or 1, got {rows[i][j]!r}"
            failures.append((i, exc(f"{where(i)}, column {name!r}: {got}")))
        return np.array([v == "1" for v in levels], dtype=np.int64)[codes]

    treatment = binary(0, NonBinaryTreatment)
    (name, j), (levels, codes) = columns[1], encoded[1]
    parsed = [_day_count(v) for v in levels]
    bad = [reason is not None or day < 0 for day, reason in parsed]
    if any(bad):
        i = _first(bad, codes)
        day, reason = parsed[codes[i]]
        if reason is None:
            exc = NegativeTime(f"{where(i)}, column {name!r}: {day} is negative")
        else:
            exc = NonIntegerTime(f"{where(i)}, column {name!r}: {rows[i][j]!r} {reason}")
        failures.append((i, exc))
    event = binary(2, NonBinaryEvent)

    if failures:
        raise min(failures, key=itemgetter(0))[1]
    if broken is not None:
        raise broken
    time = np.array([day for day, _ in parsed], dtype=np.int64)[codes]
    covariates = {name: enc for (name, _), enc in zip(columns[3:], encoded[3:])}
    return _dataset(ids, treatment, time, event, covariates)


def build_cohort(records) -> CohortDataset:
    """Validate subject records and derive covariate levels and the horizon.

    Records are checked as text cells, like :func:`load_cohort`'s, and all
    must carry the covariate keys of the first.
    """
    records = tuple(records)
    names = sorted(records[0].covariates) if records else []
    rows = []
    for r in records:
        if r.covariates.keys() != set(names):
            raise CohortError(
                f"subject {r.id!r}: covariate keys differ from the first subject"
            )
        cells = (r.treatment, r.survival_time, r.event, *map(r.covariates.get, names))
        rows.append(tuple(map(str, cells)))
    columns = [("treatment", 0), ("time", 1), ("event", 2)]
    columns += [(c, 3 + k) for k, c in enumerate(names)]
    ids = np.array([r.id for r in records], dtype=object)
    return _validated(rows, columns, ids, None, lambda i: f"subject {ids[i]!r}")


def load_cohort(csv_source, column_map) -> CohortDataset:
    """Parse a cohort CSV (RFC 4180, UTF-8, header row required).

    ``column_map`` maps roles onto header names: ``treatment``, ``time``,
    ``event``, an optional ``covariates`` list, and an optional ``id``.
    Treatment and event accept only the literals 0 and 1; rows with empty
    mapped cells are rejected.  Cells are stripped.  Rows are numbered
    from 2, blank lines included; a subject's default id is its row
    number minus 2.
    """
    if hasattr(csv_source, "read"):
        handle = csv_source
        close = False
    else:
        handle = open(csv_source, "r", encoding="utf-8", newline="")
        close = True
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortError("CSV has no header row") from None
        index = {name: i for i, name in enumerate(header)}

        covariates = list(column_map.get("covariates", []))
        wanted = [column_map["treatment"], column_map["time"], column_map["event"]]
        wanted += covariates
        id_col = column_map.get("id")
        for col in wanted + ([id_col] if id_col is not None else []):
            if col not in index:
                raise MissingColumn(f"column {col!r} not found in header {header!r}")
        rows = list(reader)
    finally:
        if close:
            handle.close()

    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    row_nums = np.flatnonzero(lengths) + 2
    rows = list(filter(None, rows))  # drop blank lines
    lengths = lengths[lengths > 0]
    ragged = np.flatnonzero(lengths != len(header))
    broken = None
    if ragged.size:
        stop = int(ragged[0])
        broken = RaggedRow(
            f"row {row_nums[stop]}: {lengths[stop]} fields, header has {len(header)}"
        )
        rows = rows[:stop]
    if id_col is None:
        ids = row_nums[: len(rows)] - 2
    else:
        ids = np.array([row[index[id_col]].strip() for row in rows], dtype=object)
    columns = [(col, index[col]) for col in wanted]
    return _validated(rows, columns, ids, id_col, lambda i: f"row {row_nums[i]}", broken)


def save_cohort(cohort: CohortDataset, destination) -> None:
    """Write the canonical cohort CSV: id, treatment, time, event, covariates."""
    covs = cohort.covariate_names()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "treatment", "time", "event", *covs])
    for s in cohort.subjects:
        writer.writerow(
            [s.id, s.treatment, s.survival_time, s.event]
            + [s.covariates[c] for c in covs]
        )
    text = buffer.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


SAVED_COLUMN_MAP = {"id": "id", "treatment": "treatment", "time": "time", "event": "event"}


def load_saved_cohort(csv_source, covariates=None) -> CohortDataset:
    """Read a CSV produced by :func:`save_cohort`."""
    column_map = dict(SAVED_COLUMN_MAP)
    if covariates is not None:
        column_map["covariates"] = list(covariates)
    return load_cohort(csv_source, column_map)


@dataclass(frozen=True, eq=False)
class StratumIndex:
    """Counts per (arm, covariate-level combination), zero cells included.

    ``counts`` runs stratum by stratum, arm 0 before arm 1; ``assign`` is
    each subject's index into ``strata``.
    """

    covariates: tuple[str, ...]
    strata: tuple[tuple[str, ...], ...]
    counts: dict[tuple[int, tuple[str, ...]], int]
    marginals: dict[tuple[str, ...], int]
    assign: np.ndarray

    def empty_cells(self) -> list[tuple[int, tuple[str, ...]]]:
        return [key for key, c in sorted(self.counts.items()) if c == 0]


def stratum_assignments(cohort: CohortDataset, covariates):
    """Cross-product strata and each subject's stratum index.

    Covariates are canonicalized to sorted name order; an empty selection
    yields a single stratum holding everyone.
    """
    covs = tuple(sorted(covariates))
    for c in covs:
        if c not in cohort.covariate_levels:
            raise UnknownCovariate(f"unknown covariate {c!r}")
    if not covs:
        return covs, ((),), np.zeros(cohort.n, dtype=np.int64)
    level_lists = [cohort.covariate_levels[c] for c in covs]
    strata = tuple(product(*level_lists))
    assign = np.ravel_multi_index(
        [cohort.codes[c] for c in covs], [len(levels) for levels in level_lists]
    )
    return covs, strata, assign


def stratum_counts(cohort: CohortDataset, covariates) -> StratumIndex:
    """Count subjects per arm within every covariate-level combination."""
    covs, strata, assign = stratum_assignments(cohort, covariates)
    table = np.bincount(assign * 2 + cohort.treatment, minlength=2 * len(strata))
    table = table.reshape(-1, 2).tolist()
    counts = {
        (arm, combo): count
        for combo, row in zip(strata, table)
        for arm, count in enumerate(row)
    }
    marginals = {combo: row[0] + row[1] for combo, row in zip(strata, table)}
    return StratumIndex(covs, strata, counts, marginals, assign)


def truncate_followup(cohort: CohortDataset, t_max: int) -> CohortDataset:
    """Administratively censor the study at day ``t_max``.

    Subjects with survival beyond the horizon are censored at ``t_max``;
    a horizon at or past the observed maximum is a no-op.
    """
    if t_max < 0:
        raise CohortError(f"t_max must be non-negative, got {t_max}")
    if t_max >= cohort.t_max:
        return cohort
    return replace(
        cohort,
        time=np.minimum(cohort.time, t_max),
        event=np.where(cohort.time > t_max, 0, cohort.event),
        t_max=int(t_max),
    )


def drop_early_censored(cohort: CohortDataset) -> tuple[CohortDataset, int]:
    """Strict censoring mode: drop subjects censored before the horizon.

    The default transform counts censored subjects as alive on every day,
    which overstates survival under heavy censoring; this filter is the
    opt-in alternative.  Returns the filtered cohort and the number of
    subjects removed.
    """
    keep = (cohort.event == 1) | (cohort.time >= cohort.t_max)
    dropped = cohort.n - int(keep.sum())
    if dropped == 0:
        return cohort, 0
    covariates = {
        name: (levels, cohort.codes[name][keep])
        for name, levels in cohort.covariate_levels.items()
    }
    columns = (cohort.ids, cohort.treatment, cohort.time, cohort.event)
    return _dataset(*(column[keep] for column in columns), covariates), dropped
