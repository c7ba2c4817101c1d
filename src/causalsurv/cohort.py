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
``np.unique`` per column leaves only the distinct cells to decode.  A
chunk with a cell wider than 8 bytes in a column is decoded instead and
its cells deduplicated with a dict.  Other bytes go through
``csv.reader``.  Both readers hand each mapped column to one validator as
distinct raw cells plus one index per row, so checks, stripping and level
sorting run once per distinct value.  An id column is only checked: both
readers reduce it to a mask of the rows whose id strips to nothing, and
the quote-free one decodes only cells that may start or end in
whitespace.  A subject is its row; no id is kept.
``load_cohort`` is the one validated way in: a Python caller passes a
path or a text or bytes buffer such as ``io.StringIO``.

Datasets are columnar (a covariate is its level codes; strata are formed
in :mod:`causalsurv.trials`), immutable after load and safe for shared
concurrent reads.
"""

import codecs
import csv
import io
from dataclasses import dataclass, replace
from itertools import compress
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
    ``covariate_levels[name]``, every level in use.  Subjects are rows:
    no column says who a subject is.
    """

    treatment: np.ndarray
    time: np.ndarray
    event: np.ndarray
    covariate_levels: dict[str, tuple[str, ...]]
    codes: dict[str, np.ndarray]
    t_max: int

    @property
    def n(self) -> int:
        return len(self.treatment)

    def arm_sizes(self) -> dict[int, int]:
        t = self.treatment
        return {0: int((t == 0).sum()), 1: int((t == 1).sum())}

    def covariate_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariate_levels))


def _dataset(treatment, time, event, covariates) -> CohortDataset:
    """Check both arms are occupied.

    ``covariates`` maps each name to (sorted levels, per-subject codes), all in use.
    """
    if len(treatment) == 0:
        raise EmptyArm("cohort is empty")
    for arm, count in enumerate(np.bincount(treatment, minlength=2).tolist()):
        if count == 0:
            raise EmptyArm(f"treatment arm {arm} has no subjects")
    levels = {name: covariates[name][0] for name in sorted(covariates)}
    codes = {name: covariates[name][1] for name in sorted(covariates)}
    return CohortDataset(treatment, time, event, levels, codes, int(time.max()))


def _encode(rows, get):
    """Distinct cells ``get(row)`` in first-seen order, and each row's index into them."""
    index = {c: i for i, c in enumerate(dict.fromkeys(map(get, rows)))}
    cells = map(index.__getitem__, map(get, rows))
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
    ``id_column`` is None or (name, which rows have an empty id), checked
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
        name, empty = id_column
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
    return _dataset(treatment, time, event, covariates)


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
    columns = {j: _encode(rows, itemgetter(j)) for j in positions}
    empty = None
    if id_at is not None:
        empty = np.array([not row[id_at].strip() for row in rows], dtype=bool)
    return numbers, columns, empty, broken


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
    """Each cell's bytes as one integer, or a wide chunk's cells deduplicated.

    A column whose cells are all at most 1 byte wide takes its keys by a
    byte gather, one byte per cell; up to 8 bytes, by the 8-byte word at
    each cell start.  No cell holds a NUL byte, so zeroing the bytes past
    a cell's end keeps keys distinct.  A chunk with a wider cell would
    need keys that wide for every row, so its cells are decoded and
    deduplicated with a dict instead, as (distinct cells, each row's
    index into them).
    """
    top = int(width.max(initial=0))
    if top <= 1:
        keys = chunk[start]
        keys[width == 0] = 0
        return keys
    if top > 8:
        return _encode(_cell_text(chunk, start, width), str)
    words = np.ndarray((len(chunk) - 7,), dtype="<u8", buffer=chunk, strides=(1,))
    return (words[start] & _MASK[width]).astype(_KEY_TYPE[top])


# Bytes that may begin or end a character str.strip removes: ASCII
# whitespace (\x1c-\x1f included) and every byte of a non-ASCII character.
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_STRIPPABLE[128:] = True


def _cell_text(chunk, start, width):
    """The cells' texts, decoded at once."""
    size = width + 1
    end = np.cumsum(size)
    at = np.arange(int(end[-1]) if len(end) else 0) + np.repeat(start - end + size, size)
    text = chunk[at]
    text[end - 1] = 10  # each cell ends in a newline, which no cell holds
    return text.tobytes().decode().split("\n")[:-1]


def _empty_cells(chunk, start, width):
    """Which cells strip to nothing.

    A cell is empty when it is 0 bytes wide, or when its first or last
    byte may belong to a character ``str.strip`` removes and its decoded
    text strips to nothing; only those edge cells are decoded.
    """
    empty = width == 0
    # a 0-byte cell reads its neighbours' bytes here, which the mask drops
    edge = _STRIPPABLE[chunk[start]] | _STRIPPABLE[chunk[start + width - 1]]
    at = np.flatnonzero(edge & ~empty)
    if at.size:
        empty[at] = [not cell.strip() for cell in _cell_text(chunk, start[at], width[at])]
    return empty


def _distinct_cells(parts):
    """Distinct texts of one column's cells, and each row's index into them.

    ``parts`` holds :func:`_cell_keys` of each chunk in turn.  One sort
    (a lookup for 1-byte keys) finds the distinct integer keys; a wide
    chunk's cells are merged in by a dict over their texts.
    """
    narrow = [part for part in parts if isinstance(part, np.ndarray)]
    keys = narrow[0] if len(narrow) == 1 else np.concatenate(narrow or [np.zeros(0, np.uint8)])
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
    padded = np.zeros((len(values), size + 1), dtype=np.uint8)
    padded[:, :size] = values.view(np.uint8).reshape(len(values), size)
    padded[:, size] = 10
    texts = padded[padded != 0].tobytes().decode().split("\n")[:-1]
    if len(narrow) == len(parts):
        return texts, index
    position = {text: i for i, text in enumerate(texts)}
    pieces, row = [], 0
    for part in parts:
        if isinstance(part, np.ndarray):
            pieces.append(index[row : row + len(part)])
            row += len(part)
        else:
            cells, local = part
            merged = [position.setdefault(cell, len(position)) for cell in cells]
            pieces.append(np.array(merged, dtype=np.int64)[local])
    return list(position), np.concatenate(pieces)


def _tokenized(data, body, width, positions, id_at):
    """Split quote-free CSV bytes, from offset ``body`` on, into rows.

    Returns each row's number (its line, blank lines counted), a map from
    each position in ``positions`` to (distinct raw cells, each row's index
    into them), which rows have an empty cell at position ``id_at`` (None
    when ``id_at`` is), and the RaggedRow that stopped the read, if any.
    Keyed columns decode only their distinct cells; a 1-byte column keys
    each cell by a byte gather.  The id column is only checked for empty
    cells, one mask per chunk.
    """
    limit = csv.field_size_limit()
    buf = np.frombuffer(data, dtype=np.uint8)
    keys = {j: [] for j in positions}
    empty = [np.zeros(0, dtype=bool)]
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
            empty.append(_empty_cells(chunk, begin, grid[:, id_at] - begin))
        line += len(ends)
        lo = hi
    columns = {j: _distinct_cells(keys.pop(j)) for j in positions}  # frees keys as it goes
    empty = None if id_at is None else np.concatenate(empty)
    return np.concatenate(numbers), columns, empty, broken


def load_cohort(csv_source, column_map) -> CohortDataset:
    """Parse a cohort CSV (RFC 4180, UTF-8, header row required).

    ``column_map`` maps roles onto header names: ``treatment``, ``time``,
    ``event``, an optional ``covariates`` list, and an optional ``id``;
    each mapped name must appear once in the header.  Treatment and event
    accept only the literals 0 and 1; rows with empty mapped cells are
    rejected.  Cells are stripped.  The id column is checked for empty
    cells and then dropped.  Rows are numbered from 2, blank lines
    included.  A leading byte-order mark is skipped.

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
            numbers, cells, empty, broken = _parsed(reader, len(header), positions, id_at)
        else:
            numbers, cells, empty, broken = _tokenized(data, body, len(header), positions, id_at)
    except csv.Error as exc:
        raise CohortError(f"line {reader.line_num}: {exc}") from None
    columns = [(col, *cells[index[col]]) for col in wanted]
    id_column = None if id_col is None else (id_col, empty)
    return _validated(columns, id_column, numbers, broken)


def save_cohort(cohort: CohortDataset, destination) -> None:
    """Write the canonical cohort CSV: id, treatment, time, event, covariates.

    The id column holds the row labels ``p0``, ``p1``, ...
    """
    covs = cohort.covariate_names()
    labels = [np.array(cohort.covariate_levels[c], object)[cohort.codes[c]] for c in covs]
    columns = [cohort.treatment, cohort.time, cohort.event, *labels]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "treatment", "time", "event", *covs])
    writer.writerows(zip((f"p{i}" for i in range(cohort.n)), *(c.tolist() for c in columns)))
    text = buffer.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


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
    columns = (cohort.treatment, cohort.time, cohort.event)
    return _dataset(*(column[keep] for column in columns), covariates), dropped
