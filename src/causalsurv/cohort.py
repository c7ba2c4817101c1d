"""Cohort ingestion and validation.

A cohort is a set of subjects with a binary treatment, an integer survival
time in days, a binary event flag (1 = event at that time, 0 = censored at
that time), and finite categorical covariates.  Times must be whole days:
fractional inputs are rejected rather than rounded so that the per-day
transformation downstream stays unambiguous.  Continuous covariates are
likewise rejected in spirit: every covariate column is treated as a label,
and users must pre-discretize numeric ones.

``load_cohort`` reads the CSV whole as bytes and checks UTF-8 first; a
CRLF, then a lone CR, becomes an LF.  numpy tokenizes it in chunks of
whole lines: field ends come from byte compares; in a chunk that holds a
quote, the delimiters and line feeds inside quotes are cleared by prefix
parity (Langdale & Lemire 2019).  A chunk whose field ends fill lines of
the header's width is cut into rows by a reshape.  Each cell's bytes
become an integer key, so each keyed column (treatment, time, event,
each covariate kept) reaches one validator as its distinct cells,
unquoted, plus one index per row.  The id and every covariate not kept
are only checked for the first row whose cell strips to nothing.  A
subject is its row; no id is kept.
``load_cohort`` is the one validated way in: a Python caller passes a
path or a text or bytes buffer such as ``io.StringIO``.

Datasets are columnar (a covariate is its level codes, and time is day
codes into the sorted distinct days; strata are formed in
:mod:`causalsurv.trials`), immutable after load and safe for shared
concurrent reads.  The follow-up filters work on the codes and keep every
day in use.
"""

import codecs
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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


class CohortDataset(NamedTuple):
    """A validated cohort, one array per column.

    ``treatment`` and ``event`` are int64 arrays.  Time is held the way a
    covariate is: ``day`` is int64 codes into ``days``, the distinct
    follow-up days in ascending order, every day in use.  Covariate
    ``name`` is int64 ``codes[name]`` into its sorted level tuple
    ``covariate_levels[name]``, every level in use.  Subjects are rows:
    no column says who a subject is.  Two datasets are equal only when
    they are the same object, and hash by identity.
    """

    treatment: np.ndarray
    days: np.ndarray
    day: np.ndarray
    event: np.ndarray
    covariate_levels: dict[str, tuple[str, ...]]
    codes: dict[str, np.ndarray]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def n(self) -> int:
        return len(self.treatment)

    @property
    def t_max(self) -> int:
        """The last follow-up day."""
        return int(self.days[-1])

    @property
    def time(self) -> np.ndarray:
        """Each subject's follow-up day, expanded from the codes (a new array)."""
        return self.days[self.day]

    def arm_sizes(self) -> dict[int, int]:
        t = self.treatment
        return {0: int((t == 0).sum()), 1: int((t == 1).sum())}

    def covariate_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.covariate_levels))


def _dataset(treatment, days, day, event, covariates) -> CohortDataset:
    """Check both arms are occupied.

    ``days`` and ``day`` are the ascending distinct days and each row's
    code into them; ``covariates`` maps each name to (sorted levels,
    per-subject codes).  Every day and level is in use.
    """
    if len(treatment) == 0:
        raise EmptyArm("cohort is empty")
    for arm, count in enumerate(np.bincount(treatment, minlength=2).tolist()):
        if count == 0:
            raise EmptyArm(f"treatment arm {arm} has no subjects")
    levels = {name: covariates[name][0] for name in sorted(covariates)}
    codes = {name: covariates[name][1] for name in sorted(covariates)}
    return CohortDataset(treatment, days, day, event, levels, codes)


def _first(flagged, codes) -> int:
    """Index of the first row whose cell is flagged (one bool per distinct cell)."""
    return int(np.argmax(np.array(flagged, dtype=bool)[codes]))


_DAY_MAX = int(np.iinfo(np.int64).max)


def _day_count(text):
    """A stripped time cell as (day count, None), or (0, why it is not one)."""
    if "_" in text or not text.isascii():  # int() would read 1_0 and other scripts' digits
        return 0, "is not a day count"
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


def _validated(columns, numbers, broken) -> CohortDataset:
    """Check cells column by column and build the dataset.

    ``columns`` holds, for treatment, time, event, each covariate and
    then the id, either (name, distinct raw cells, each row's index into
    them) for a keyed column, or (name, None, its first empty row or
    None) for a column only checked.  ``numbers[i]`` is row i's number in
    messages.  The earliest failing row is reported; within a row an
    empty cell (in column order) comes first, then treatment, time,
    event.  Messages quote a cell as it was written, unstripped.
    ``broken``, a structural error just past the rows, is raised when
    every row passes.
    """
    values = [None if raw is None else [cell.strip() for cell in raw] for _, raw, _ in columns]
    failures = []
    for (name, raw, i), stripped in zip(columns, values):
        if raw is not None:
            empty = [v == "" for v in stripped]
            i = _first(empty, i) if any(empty) else None
        if i is not None:
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
    # one sort of the distinct days, which also merges cells like 7 and 07
    days, code = np.unique(np.array([d for d, _ in parsed], dtype=np.int64), return_inverse=True)
    day = code.take(index)
    covariates = {}
    for (name, raw, index), stripped in zip(columns[3:], values[3:]):
        if raw is None:
            continue
        levels = sorted(set(stripped))
        position = {v: i for i, v in enumerate(levels)}
        codes = np.array([position[v] for v in stripped], dtype=np.int64).take(index)
        covariates[name] = (tuple(levels), codes)
    return _dataset(treatment, days, day, event, covariates)


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


def _unquoted(cell):
    """A raw cell's text: a quoted cell loses its outer quotes, and each ``""`` becomes ``"``."""
    return cell[1:-1].replace('""', '"') if cell[:1] == '"' else cell


def _even_end(data, lo, hi):
    """``hi`` (one past a line feed), moved on by lines until ``data[lo:hi]`` holds even quotes."""
    odd = data.count(b'"', lo, hi) & 1
    while odd and hi < len(data):  # an unterminated quote runs to the end
        quote = data.find(b'"', hi)
        end = len(data) if quote < 0 else data.find(b"\n", quote) + 1 or len(data)
        odd ^= data.count(b'"', hi, end) & 1
        hi = end
    return hi


def _quote_mask(seg):
    """Which bytes of whole lines lie inside quotes (an odd count of quotes up to and at them).

    Also the first fault, as (offset, reason), or None: a quote that does
    not open a field, close one before a delimiter or line end, or stand
    half of a ``""``, an unterminated quote, or a NUL.
    """
    quote = seg == 34
    inside = (np.cumsum(quote, dtype=np.uint8) & 1).view(bool)  # wrapping keeps the parity
    at = np.flatnonzero(quote)
    opens = inside[at]
    # the byte before an opening quote (at offset 0, the final line feed)
    # or after a closing one; a quote there is the other half of a ""
    near = np.where(opens, seg[at - 1], seg[at + 1])
    faults = [
        (at[k], "a quote inside an unquoted field" if opens[k] else "text after a closing quote")
        for k in np.flatnonzero((near != 44) & (near != 10) & (near != 34))[:1]
    ]
    faults += [(at[-1], "an unterminated quote")] if inside[-1] else []
    faults += [(k, "a NUL byte") for k in np.flatnonzero(seg == 0)[:1]]
    return inside, min(faults, key=itemgetter(0), default=None)


def _first_line(data):
    """Header cells, unquoted, or None when there is no first line, and the next line's offset."""
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if start == len(data):
        return None, start
    end = _even_end(data, start, data.find(b"\n", start) + 1 or len(data))
    line = data[start:end].removesuffix(b"\n")
    header = line.decode().split(",") if line else []
    if b'"' in line or b"\0" in line:
        seg = np.frombuffer(line + b"\n", dtype=np.uint8).copy()
        inside, fault = _quote_mask(seg)
        if fault is not None:
            raise CohortError(f"row 1: {fault[1]}")
        seg[(seg == 44) & ~inside] = 0  # a delimiter; no cell holds a NUL
        header = [_unquoted(cell) for cell in seg[:-1].tobytes().decode().split("\0")]
    if any(len(cell) > _FIELD_LIMIT for cell in header):
        raise CohortError(f"line 1: field larger than field limit ({_FIELD_LIMIT})")
    return header, end


# Bytes tokenized at a time; a chunk runs on to the end of its last line.
_CHUNK = 1 << 18
# Characters in a cell, counted after unquoting.
_FIELD_LIMIT = 131_072
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
        cells = _cell_text(chunk, start, width)
        index = {c: i for i, c in enumerate(dict.fromkeys(cells))}
        return list(index), np.fromiter(map(index.__getitem__, cells), np.int64, len(cells))
    words = np.ndarray((len(chunk) - 7,), dtype="<u8", buffer=chunk, strides=(1,))
    return (words[start] & _MASK[width]).astype(_KEY_TYPE[top])


# Bytes that may begin or end a cell that strips to nothing: ASCII whitespace
# (\x1c-\x1f included), every byte of a non-ASCII character, and a quote.
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 34]] = True
_STRIPPABLE[128:] = True


def _cell_text(chunk, start, width):
    """The cells' texts, decoded at once."""
    size = width + 1
    end = np.cumsum(size)
    at = np.arange(int(end[-1]) if len(end) else 0) + np.repeat(start - end + size, size)
    text = chunk[at]
    text[end - 1] = 0  # each cell ends in a NUL, which no cell holds
    return text.tobytes().decode().split("\0")[:-1]


def _empty_cells(chunk, start, width):
    """Which cells strip to nothing once unquoted.

    A cell is empty when it is 0 bytes wide, or when its first or last
    byte may begin or end a cell that strips to nothing and its decoded
    text does; only those edge cells are decoded.
    """
    empty = width == 0
    # a 0-byte cell reads its neighbours' bytes here, which the mask drops
    edge = _STRIPPABLE[chunk[start]] | _STRIPPABLE[chunk[start + width - 1]]
    at = np.flatnonzero(edge & ~empty)
    if at.size:
        empty[at] = [not _unquoted(c).strip() for c in _cell_text(chunk, start[at], width[at])]
    return empty


def _distinct_cells(parts):
    """Distinct texts of one column's cells, and each row's index into them.

    ``parts`` holds :func:`_cell_keys` of each chunk in turn.  A table
    lookup finds the distinct integer keys when the table is no larger than
    the keys (always for 1-byte keys), else one sort; a wide chunk's cells
    are merged in by a dict over their texts.
    """
    narrow = [part for part in parts if isinstance(part, np.ndarray)]
    keys = narrow[0] if len(narrow) == 1 else np.concatenate(narrow or [np.zeros(0, np.uint8)])
    size = keys.dtype.itemsize
    # numpy's 2-byte sort has no fast path; keys.max() + 1 would wrap for 8-byte keys
    if size == 1 or keys.size and keys.max() < keys.size:
        seen = np.bincount(keys) > 0
        values = np.flatnonzero(seen)
        index = (np.cumsum(seen) - 1).astype(keys.dtype).take(keys)
    else:
        values, index = np.unique(keys, return_inverse=True)
    # a bytes view of each key drops the NULs past its cell's end
    texts = [cell.decode() for cell in values.astype(f"<u{size}").view(f"S{size}").tolist()]
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


def _line_search(lf, cut, width, line, fault):
    """Lines and rows of a chunk with a blank, ragged or faulty line.

    ``lf`` marks line ends, ``cut`` field ends, ``line`` is the first line's
    number.  Returns each line's end, the rows (lines not blank) before the
    first ragged line or ``fault``, their field ends as a (rows, width) grid,
    the lines read (a ragged one is, a faulty one not), and the error, if any.
    """
    ends = np.flatnonzero(lf)
    last = np.searchsorted(cut, ends)  # each line's last field
    count = last - np.concatenate(([-1], last[:-1]))
    blank = ends == np.concatenate(([0], ends[:-1] + 1))
    lines = len(ends) if fault is None else int(np.searchsorted(ends, fault[0]))
    ragged = np.flatnonzero((count[:lines] != width) & ~blank[:lines])
    broken = None if fault is None else CohortError(f"row {line + lines}: {fault[1]}")
    if ragged.size:
        lines = int(ragged[0])
        broken = RaggedRow(f"row {line + lines}: {count[lines]} fields, header has {width}")
    rows = np.flatnonzero(~blank[:lines])
    grid = cut[(last[rows] - width + 1)[:, None] + np.arange(width)]
    return ends, rows, grid, lines + isinstance(broken, RaggedRow), broken


def _tokenized(data, body, width, positions, checked):
    """Split CSV bytes, from offset ``body`` on, into rows.

    Quotes are masked and checked only in a chunk that holds a quote or a
    NUL.  Returns each row's number (its line, blank lines counted), a map
    from each position in ``positions`` to (distinct cells, unquoted, and
    each row's index into them), a map from each position in ``checked``
    to the first row whose cell there strips to nothing (or None), and
    the error that stopped the read, if any.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    keys = {j: [] for j in positions}
    first = dict.fromkeys(checked)
    numbers = [np.zeros(0, dtype=np.int64)]
    line, lo, done, broken, unquote = 2, body, 0, None, False
    while lo < len(data) and broken is None:
        hi = data.find(b"\n", lo + _CHUNK) + 1 or len(data)
        special = data.find(b'"', lo, hi) >= 0 or data.find(b"\0", lo, hi) >= 0
        hi = _even_end(data, lo, hi) if special else hi
        unquote |= special
        if hi + 7 <= len(data):
            chunk = buf[lo : hi + 7]  # room to read a word at every cell start
            seg = chunk[: hi - lo]
        else:  # pad the end, and end the last line if the file does not
            chunk = np.zeros(hi - lo + 8, dtype=np.uint8)
            chunk[: hi - lo] = buf[lo:hi]
            seg = chunk[: hi - lo + (data[hi - 1] != 10)]
            seg[-1] = 10
        lf, sep, fault = seg == 10, seg == 44, None
        if special:
            inside, fault = _quote_mask(seg)
            lf, sep = lf & ~inside, sep & ~inside
        sep |= lf
        cut = np.flatnonzero(sep)  # each field's end
        lines = np.count_nonzero(lf)
        ends = cut[width - 1 :: width]  # each line's end, if every line has width fields
        # no line is blank or ragged when the field ends fill lines of width
        # with an LF in each last slot (at width 1 a blank line would pass too)
        if fault is None and width > 1 and len(cut) == lines * width and lf[ends].all():
            rows, grid, read = np.arange(lines), cut.reshape(lines, width), lines
        else:
            ends, rows, grid, read, broken = _line_search(lf, cut, width, line, fault)
        starts = np.concatenate(([0], ends[:-1] + 1))
        # a field fits when its line does
        if read and (ends[:read] - starts[:read]).max() > _FIELD_LIMIT:
            fields = cut[: np.searchsorted(cut, ends[read - 1]) + 1]
            size = np.diff(fields, prepend=-1) - 1
            for f in np.flatnonzero(size > _FIELD_LIMIT).tolist():
                cell = seg[fields[f] - size[f] : fields[f]].tobytes().decode()
                if len(_unquoted(cell)) > _FIELD_LIMIT:  # characters, once unquoted
                    at = line + int(np.searchsorted(ends, fields[f]))
                    raise CohortError(f"line {at}: field larger than field limit ({_FIELD_LIMIT})")
        numbers.append(line + rows)
        for j, parts in keys.items():
            begin = grid[:, j - 1] + 1 if j else starts[rows]
            parts.append(_cell_keys(chunk, begin, grid[:, j] - begin))
        # only a 0-byte cell (two field ends in a row, or one opening the chunk),
        # a quoted one or one with a byte outside printable ASCII, LF aside, can be empty
        if checked and (special or sep[0] or (sep[1:] & sep[:-1]).any()
                        or np.count_nonzero(seg - 33 > 94) > len(ends)):
            for j in [j for j, i in first.items() if i is None]:
                begin = grid[:, j - 1] + 1 if j else starts[rows]
                empty = _empty_cells(chunk, begin, grid[:, j] - begin)
                if empty.any():
                    first[j] = done + int(np.argmax(empty))
        done += len(rows)
        line += len(ends)
        lo = hi
    columns = {j: _distinct_cells(keys.pop(j)) for j in positions}  # frees keys as it goes
    if unquote:  # no cell opens with a quote unless some chunk held one
        columns = {j: ([_unquoted(c) for c in cells], i) for j, (cells, i) in columns.items()}
    return np.concatenate(numbers), columns, first, broken


def load_cohort(csv_source, column_map, keep=None) -> CohortDataset:
    """Parse a cohort CSV (RFC 4180, UTF-8, header row required).

    ``column_map`` maps roles onto header names: ``treatment``, ``time``,
    ``event``, an optional ``covariates`` list, and an optional ``id``;
    each mapped name must appear once in the header.  Treatment and event
    accept only the literals 0 and 1; rows with empty mapped cells are
    rejected.  Cells are unquoted, then stripped.  The id column is
    checked for empty cells and then dropped, and so is each covariate
    not in ``keep`` (None keeps them all).  Rows are numbered from 2,
    blank lines included.  A leading byte-order mark is skipped.  A quote
    outside RFC 4180 or a NUL ends the read at its row, as a ragged row does.
    """
    data = _read_bytes(csv_source)
    if not data.isascii():
        _check_utf8(data)  # before any other error; the cells are decoded again
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    roles = [column_map["treatment"], column_map["time"], column_map["event"]]
    covariates = list(column_map.get("covariates", []))
    ids = [column_map["id"]] if column_map.get("id") is not None else []
    names = roles + covariates + ids
    keyed = [True] * 3 + [keep is None or col in keep for col in covariates] + [False] * len(ids)
    header, body = _first_line(data)
    if header is None:
        raise CohortError("CSV has no header row")
    index = _positions(header, names)
    positions = sorted({index[col] for col, key in zip(names, keyed) if key})
    # a column already keyed reports its own empty cells, earlier in the row
    checked = sorted({index[col] for col in names} - set(positions))
    numbers, cells, first, broken = _tokenized(data, body, len(header), positions, checked)
    columns = [
        (col, *cells[index[col]]) if key else (col, None, first.get(index[col]))
        for col, key in zip(names, keyed)
    ]
    return _validated(columns, numbers, broken)


def _field(text):
    """``text`` as a CSV field, quoted (each quote doubled) when it holds ``,``, ``"``, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def save_cohort(cohort: CohortDataset, destination) -> None:
    """Write the canonical cohort CSV: id (``p0``, ``p1``, ...), treatment, time, event, covariates."""
    covs = cohort.covariate_names()
    labels = [
        np.array([_field(v) for v in cohort.covariate_levels[c]], object)[cohort.codes[c]]
        for c in covs
    ]
    columns = [cohort.treatment, cohort.time, cohort.event, *labels]
    rows = zip((f"p{i}" for i in range(cohort.n)), *(map(str, c.tolist()) for c in columns))
    header = ["id", "treatment", "time", "event", *map(_field, covs)]
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def truncate_followup(cohort: CohortDataset, t_max: int) -> CohortDataset:
    """Administratively censor the study at day ``t_max``.

    Subjects with survival beyond the horizon are censored at ``t_max``;
    a horizon at or past the observed maximum is a no-op.  The days past
    it become one day, ``t_max``.
    """
    if t_max < 0:
        raise CohortError(f"t_max must be non-negative, got {t_max}")
    if t_max >= cohort.t_max:
        return cohort
    t_max = int(t_max)
    kept = int(np.searchsorted(cohort.days, t_max))  # days before the horizon keep their codes
    past = np.searchsorted(cohort.days, t_max, side="right")  # the first code past it
    return cohort._replace(
        days=np.append(cohort.days[:kept], t_max),
        day=np.minimum(cohort.day, kept),
        event=np.where(cohort.day >= past, 0, cohort.event),
    )


def _in_use(column, size):
    """Which of ``size`` codes ``column`` uses, and the column recoded over those."""
    present = np.bincount(column, minlength=size) > 0
    return present, (np.cumsum(present) - 1)[column]


def drop_early_censored(cohort: CohortDataset) -> tuple[CohortDataset, int]:
    """Strict censoring mode: drop subjects censored before the horizon.

    The default transform counts censored subjects as alive on every day,
    which overstates survival under heavy censoring; this filter is the
    opt-in alternative.  Returns the filtered cohort and the number of
    subjects removed.
    """
    keep = (cohort.event == 1) | (cohort.day == len(cohort.days) - 1)
    dropped = cohort.n - int(keep.sum())
    if dropped == 0:
        return cohort, 0
    covariates = {}  # drop days and levels nobody keeps
    for name, levels in cohort.covariate_levels.items():
        present, codes = _in_use(cohort.codes[name][keep], len(levels))
        covariates[name] = tuple(compress(levels, present.tolist())), codes
    present, day = _in_use(cohort.day[keep], len(cohort.days))
    columns = cohort.treatment[keep], cohort.days[present], day, cohort.event[keep]
    return _dataset(*columns, covariates), dropped
