"""Cohort ingestion and validation.

A cohort is a set of subjects with a binary treatment, an integer survival
time in days, a binary event flag (1 = event at that time, 0 = censored at
that time), and finite categorical covariates.  Times must be whole days:
fractional inputs are rejected rather than rounded so that the per-day
transformation downstream stays unambiguous.  Continuous covariates are
likewise rejected in spirit: every covariate column is treated as a label,
and users must pre-discretize numeric ones.

``load_cohort`` reads the CSV whole as bytes and checks UTF-8 first.  Bytes
with no quote, no NUL and no carriage return outside a CRLF pair are
tokenized with numpy in newline-aligned chunks: delimiter positions come
from byte compares, each cell's bytes become an integer key (by a byte
gather in a column whose cells are at most 1 byte wide), and one
``np.unique`` per column leaves only the distinct cells to decode.  The
id column is not keyed: its bytes are decoded once, one string per row.
Other bytes go through ``csv.reader``.  Both readers hand each mapped
column to one validator as distinct raw cells plus one index per row, so
checks, stripping and level sorting run once per distinct value, and the
id column as one stripped string per row plus a mask of the empty ones.
``load_cohort`` is the one validated way in: a Python caller passes a
path or a text or bytes buffer such as ``io.StringIO``.

Datasets are columnar, immutable after load and safe for shared
concurrent reads.
"""

import codecs
import csv
import io
from dataclasses import dataclass, replace
from itertools import compress, product
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    AmbiguousColumn,
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
    "CohortDataset",
    "load_cohort",
    "save_cohort",
    "truncate_followup",
    "drop_early_censored",
]


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

    def arm_sizes(self) -> dict[int, int]:
        t = self.treatment
        return {0: int((t == 0).sum()), 1: int((t == 1).sum())}

    def covariate_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariate_levels))


def _dataset(ids, treatment, time, event, covariates) -> CohortDataset:
    """Check both arms are occupied.

    ``covariates`` maps each name to (sorted levels, per-subject codes), all in use.
    """
    if len(ids) == 0:
        raise EmptyArm("cohort is empty")
    for arm, count in enumerate(np.bincount(treatment, minlength=2).tolist()):
        if count == 0:
            raise EmptyArm(f"treatment arm {arm} has no subjects")
    levels = {name: covariates[name][0] for name in sorted(covariates)}
    codes = {name: covariates[name][1] for name in sorted(covariates)}
    return CohortDataset(ids, treatment, time, event, levels, codes, int(time.max()))


def _encode(rows, j):
    """Distinct cells of column ``j`` in first-seen order, and each row's index into them."""
    index = {c: i for i, c in enumerate(dict.fromkeys(map(itemgetter(j), rows)))}
    cells = map(index.__getitem__, map(itemgetter(j), rows))
    return list(index), np.fromiter(cells, dtype=np.int64, count=len(rows))


def _first(flagged, codes) -> int:
    """Index of the first row whose cell is flagged (one bool per distinct cell)."""
    return int(np.argmax(np.array(flagged, dtype=bool)[codes]))


_DAY_MAX = int(np.iinfo(np.int64).max)


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
    if day > _DAY_MAX:
        return 0, "is outside the 64-bit range of day counts"
    return day, None


def _validated(columns, id_column, numbers, broken) -> CohortDataset:
    """Check cells column by column and build the dataset.

    ``columns`` holds (name, distinct raw cells, each row's index into
    them) for treatment, time, event and then each covariate.
    ``id_column`` is None, and a subject's id its row number minus 2, or
    (name, each row's stripped id, which rows have an empty id), checked
    last.  ``numbers[i]`` is row i's number in messages.  The earliest
    failing row is reported; within a row an empty cell (in column order,
    the id column last) comes first, then treatment, time, event.
    Messages quote a cell as it was written, unstripped.  ``broken``, a
    structural error just past the rows, is raised when every row passes.
    """
    values = [[cell.strip() for cell in raw] for _, raw, _ in columns]
    failures = []
    for (name, _, index), stripped in zip(columns, values):
        empty = [v == "" for v in stripped]
        if any(empty):
            i = _first(empty, index)
            failures.append((i, MissingValue(f"row {numbers[i]}: column {name!r} is empty")))
    if id_column is not None:
        name, _, empty = id_column
        if empty.any():
            i = int(np.argmax(empty))
            failures.append((i, MissingValue(f"row {numbers[i]}: column {name!r} is empty")))

    def binary(k, exc):
        name, raw, index = columns[k]
        bad = [v not in ("0", "1") for v in values[k]]
        if any(bad):
            i = _first(bad, index)
            got = f"expected 0 or 1, got {raw[index[i]]!r}"
            failures.append((i, exc(f"row {numbers[i]}, column {name!r}: {got}")))
        return np.array([v == "1" for v in values[k]], dtype=np.int64).take(index)

    treatment = binary(0, NonBinaryTreatment)
    name, raw, index = columns[1]
    parsed = [_day_count(v) for v in values[1]]
    bad = [reason is not None or day < 0 for day, reason in parsed]
    if any(bad):
        i = _first(bad, index)
        day, reason = parsed[index[i]]
        if reason is None:
            exc = NegativeTime(f"row {numbers[i]}, column {name!r}: {day} is negative")
        else:
            exc = NonIntegerTime(f"row {numbers[i]}, column {name!r}: {raw[index[i]]!r} {reason}")
        failures.append((i, exc))
    event = binary(2, NonBinaryEvent)

    if failures:
        raise min(failures, key=itemgetter(0))[1]
    if broken is not None:
        raise broken
    time = np.array([day for day, _ in parsed], dtype=np.int64).take(index)
    covariates = {}
    for (name, _, index), stripped in zip(columns[3:], values[3:]):
        levels = sorted(set(stripped))
        position = {v: i for i, v in enumerate(levels)}
        codes = np.array([position[v] for v in stripped], dtype=np.int64).take(index)
        covariates[name] = (tuple(levels), codes)
    ids = numbers - 2 if id_column is None else np.array(id_column[1], dtype=object)
    return _dataset(ids, treatment, time, event, covariates)


def _check_utf8(data) -> None:
    """Raise a CohortError naming the first byte that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CohortError(
            f"CSV is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} cannot be decoded"
        ) from None


def _read_bytes(csv_source) -> bytes:
    """All of a path's or a file object's content; text is encoded as UTF-8."""
    if not hasattr(csv_source, "read"):
        with open(csv_source, "rb") as handle:
            return handle.read()
    data = csv_source.read()
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


def _positions(header, names) -> dict[str, int]:
    """Each named column's position in the header; each must appear once."""
    positions = {}
    for name in names:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header!r}")
        j = header.index(name)
        if name in header[j + 1 :]:
            raise AmbiguousColumn(
                f"column {name!r} appears more than once in header {header!r}, "
                f"as fields {j + 1} and {header.index(name, j + 1) + 1}"
            )
        positions[name] = j
    return positions


def _parsed(reader, width, positions, id_at):
    """Rows of a ``csv.reader`` up to the first ragged one, as for :func:`_tokenized`."""
    rows, blank, broken = [], [], None
    for number, row in enumerate(reader, 2):
        if not row:
            blank.append(number)
        elif len(row) != width:
            broken = RaggedRow(f"row {number}: {len(row)} fields, header has {width}")
            break
        else:
            rows.append(row)
    lines = np.arange(2, 2 + len(rows) + len(blank), dtype=np.int64)
    numbers = np.delete(lines, np.array(blank, dtype=np.int64) - 2)
    columns = {j: _encode(rows, j) for j in positions}
    ids = None
    if id_at is not None:
        cells = [row[id_at].strip() for row in rows]
        ids = cells, np.array([cell == "" for cell in cells], dtype=bool)
    return numbers, columns, ids, broken


def _first_line(data):
    """Header cells of quote-free CSV bytes, and the offset of the next line.

    The header is None when there is no first line.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if start == len(data):
        return None, start
    end = data.find(b"\n", start)
    end = len(data) if end < 0 else end
    line = data[start:end].decode()
    header = line.split(",") if line else []
    limit = csv.field_size_limit()
    if any(len(cell) > limit for cell in header):
        raise CohortError(f"line 1: field larger than field limit ({limit})")
    return header, end + 1


# Bytes tokenized at a time; a chunk runs on to the end of its last line.
_CHUNK = 1 << 18
# _MASK[w] keeps the first w bytes of a little-endian 8-byte word.
_MASK = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype="<u8")
# The narrowest key type that holds a cell of up to w bytes.
_KEY_TYPE = ("<u1", "<u1", "<u2", "<u4", "<u4", "<u8", "<u8", "<u8", "<u8")


def _cell_keys(chunk, start, width):
    """Each cell's bytes as one integer, or as a row of 8-byte words if longer.

    A column whose cells are all at most 1 byte wide takes its keys by a
    byte gather, one byte per cell; wider ones gather the 8-byte word at
    each cell start.  No cell holds a NUL byte, so zeroing the bytes past
    a cell's end keeps keys distinct.
    """
    top = int(width.max(initial=0))
    if top <= 1:
        keys = chunk[start]
        keys[width == 0] = 0
        return keys
    words = np.ndarray((len(chunk) - 7,), dtype="<u8", buffer=chunk, strides=(1,))
    if top <= 8:
        return (words[start] & _MASK[width]).astype(_KEY_TYPE[top])
    offsets = np.arange(0, top, 8)
    at = np.minimum(start[:, None] + offsets, len(words) - 1)
    return words[at] & _MASK[np.clip(width[:, None] - offsets, 0, 8)]


# Bytes that may begin or end a character str.strip removes: ASCII
# whitespace (\x1c-\x1f included) and every byte of a non-ASCII character.
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_STRIPPABLE[128:] = True


def _cell_text(chunk, start, width):
    """The cells' bytes, each followed by a newline, and two masks over the cells.

    The first marks cells 0 bytes wide, the second cells whose first or
    last byte may belong to a character ``str.strip`` removes.
    """
    size = width + 1
    end = np.cumsum(size)
    at = np.arange(int(end[-1]) if len(end) else 0) + np.repeat(start - end + size, size)
    text = chunk[at]
    text[end - 1] = 10
    # a 0-byte cell reads its neighbours' bytes here, which the mask drops
    edge = _STRIPPABLE[chunk[start]] | _STRIPPABLE[chunk[start + width - 1]]
    empty = width == 0
    return text, empty, edge & ~empty


def _ids(text, empty, edge):
    """Each row's stripped id, and which ids are empty, from :func:`_cell_text`."""
    cells = text.tobytes().decode().split("\n")
    cells.pop()  # after the last newline
    for i in np.flatnonzero(edge).tolist():
        cells[i] = cells[i].strip()
        empty[i] = not cells[i]
    return cells, empty


def _distinct_cells(parts):
    """Distinct texts of one column's keys, and each row's index into them."""
    wide = max((part.shape[1] for part in parts if part.ndim == 2), default=0)
    if wide:
        keys = np.zeros((sum(map(len, parts)), wide), dtype="<u8")
        row = 0
        for part in parts:
            block = part[:, None] if part.ndim == 1 else part
            keys[row : row + len(block), : block.shape[1]] = block
            row += len(block)
        values, index = np.unique(keys, axis=0, return_inverse=True)
    else:
        keys = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0, np.uint8)])
        size = keys.dtype.itemsize
        if size == 1:  # a lookup beats a sort
            seen = np.bincount(keys) > 0
            values = np.flatnonzero(seen)
            index = (np.cumsum(seen) - 1).astype(keys.dtype).take(keys)
        else:
            values, index = np.unique(keys, return_inverse=True)
        values = values.astype(f"<u{size}")
    # each distinct cell's bytes padded with NULs, then a newline; with the
    # NULs dropped, one decode and split give every cell
    cell = values[:1].nbytes
    padded = np.zeros((len(values), cell + 1), dtype=np.uint8)
    padded[:, :cell] = np.ascontiguousarray(values).view(np.uint8).reshape(len(values), cell)
    padded[:, cell] = 10
    return padded[padded != 0].tobytes().decode().split("\n")[:-1], index.reshape(-1)


def _tokenized(data, body, width, positions, id_at):
    """Split quote-free CSV bytes, from offset ``body`` on, into rows.

    Returns each row's number (its line, blank lines counted), a map from
    each position in ``positions`` to (distinct raw cells, each row's index
    into them), the id column at position ``id_at`` as (each row's
    stripped id, which ids are empty) or None, and the RaggedRow that
    stopped the read, if any.  Keyed columns decode only their distinct
    cells; a 1-byte column keys each cell by a byte gather.  The id column
    is neither keyed nor deduplicated: its bytes are gathered per chunk
    and decoded once, one string per row.
    """
    limit = csv.field_size_limit()
    buf = np.frombuffer(data, dtype=np.uint8)
    keys = {j: [] for j in positions}
    ids = [(np.zeros(0, np.uint8), np.zeros(0, bool), np.zeros(0, bool))]  # _cell_text per chunk
    numbers = [np.zeros(0, dtype=np.int64)]
    line, lo, broken = 2, body, None
    while lo < len(data) and broken is None:
        hi = data.find(b"\n", lo + _CHUNK) + 1 or len(data)
        if hi + 7 <= len(data):
            chunk = buf[lo : hi + 7]  # room to read a word at every cell start
            seg = chunk[: hi - lo]
        else:  # pad the end, and end the last line if the file does not
            chunk = np.zeros(hi - lo + 8, dtype=np.uint8)
            chunk[: hi - lo] = buf[lo:hi]
            seg = chunk[: hi - lo + (data[hi - 1] != 10)]
            seg[-1] = 10
        ends = np.flatnonzero(seg == 10)  # each line's end
        starts = np.concatenate(([0], ends[:-1] + 1))
        cut = np.flatnonzero((seg == 44) | (seg == 10))  # each field's end
        last = np.searchsorted(cut, ends)  # each line's last field
        count = last - np.concatenate(([-1], last[:-1]))
        blank = ends == starts
        ragged = np.flatnonzero((count != width) & ~blank)
        lines = len(ends)
        if ragged.size:
            lines = int(ragged[0])
            broken = RaggedRow(f"row {line + lines}: {count[lines]} fields, header has {width}")
        rows = np.flatnonzero(~blank[:lines])
        if len(cut) == len(rows) * width:  # no blank or ragged line
            grid = cut.reshape(len(rows), width)  # each row's field ends
        else:
            grid = cut[(last[rows] - width + 1)[:, None] + np.arange(width)]
        # the lines read, the ragged one included; a field fits when its line does
        read = ends[: lines + (broken is not None)]
        if read.size and (read - starts[: read.size]).max() > limit:
            fields = cut[: np.searchsorted(cut, read[-1]) + 1]
            size = np.diff(fields, prepend=-1) - 1
            for f in np.flatnonzero(size > limit).tolist():
                # the limit counts characters, so skip UTF-8 continuation bytes
                cell = seg[fields[f] - size[f] : fields[f]]
                if np.count_nonzero((cell & 0xC0) != 0x80) > limit:
                    at = line + int(np.searchsorted(ends, fields[f]))
                    raise CohortError(f"line {at}: field larger than field limit ({limit})")
        numbers.append(line + rows)
        for j, parts in keys.items():
            begin = grid[:, j - 1] + 1 if j else starts[rows]
            parts.append(_cell_keys(chunk, begin, grid[:, j] - begin))
        if id_at is not None:
            begin = grid[:, id_at - 1] + 1 if id_at else starts[rows]
            ids.append(_cell_text(chunk, begin, grid[:, id_at] - begin))
        line += len(ends)
        lo = hi
    columns = {j: _distinct_cells(keys.pop(j)) for j in positions}  # frees keys as it goes
    ids = None if id_at is None else _ids(*map(np.concatenate, zip(*ids)))
    return np.concatenate(numbers), columns, ids, broken


def load_cohort(csv_source, column_map) -> CohortDataset:
    """Parse a cohort CSV (RFC 4180, UTF-8, header row required).

    ``column_map`` maps roles onto header names: ``treatment``, ``time``,
    ``event``, an optional ``covariates`` list, and an optional ``id``;
    each mapped name must appear once in the header.  Treatment and event
    accept only the literals 0 and 1; rows with empty mapped cells are
    rejected.  Cells are stripped.  Rows are numbered from 2, blank lines
    included; a subject's default id is its row number minus 2.  A leading
    byte-order mark is skipped.

    The source is read whole and checked as UTF-8 first.  Bytes with no
    quote, NUL or lone carriage return are tokenized with numpy (CRLF line
    ends become LF); others go through ``csv.reader``.
    """
    data = _read_bytes(csv_source)
    quoted = b'"' in data or b"\0" in data
    quoted = quoted or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if not data.isascii():
        _check_utf8(data)  # before any other error; the readers decode again
    wanted = [column_map["treatment"], column_map["time"], column_map["event"]]
    wanted += column_map.get("covariates", [])
    id_col = column_map.get("id")
    try:
        if quoted:
            # utf-8-sig skips a leading byte-order mark, as spreadsheets write
            reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline=""))
            header = next(reader, None)
        else:
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n")
            header, body = _first_line(data)
        if header is None:
            raise CohortError("CSV has no header row")
        index = _positions(header, wanted + ([id_col] if id_col is not None else []))
        positions = sorted({index[col] for col in wanted})
        id_at = index.get(id_col)
        if quoted:
            numbers, cells, ids, broken = _parsed(reader, len(header), positions, id_at)
        else:
            numbers, cells, ids, broken = _tokenized(data, body, len(header), positions, id_at)
    except csv.Error as exc:
        raise CohortError(f"line {reader.line_num}: {exc}") from None
    columns = [(col, *cells[index[col]]) for col in wanted]
    id_column = None if id_col is None else (id_col, *ids)
    return _validated(columns, id_column, numbers, broken)


def save_cohort(cohort: CohortDataset, destination) -> None:
    """Write the canonical cohort CSV: id, treatment, time, event, covariates."""
    covs = cohort.covariate_names()
    labels = [np.array(cohort.covariate_levels[c], object)[cohort.codes[c]] for c in covs]
    columns = [cohort.treatment, cohort.time, cohort.event, *labels]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "treatment", "time", "event", *covs])
    writer.writerows(zip(map(str, cohort.ids.tolist()), *(c.tolist() for c in columns)))
    text = buffer.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


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
    covariates = {}
    for name, levels in cohort.covariate_levels.items():
        column = cohort.codes[name][keep]
        present = np.bincount(column, minlength=len(levels)) > 0  # drop levels nobody keeps
        levels = tuple(compress(levels, present.tolist()))
        covariates[name] = levels, (np.cumsum(present) - 1)[column]
    columns = (cohort.ids, cohort.treatment, cohort.time, cohort.event)
    return _dataset(*(column[keep] for column in columns), covariates), dropped
