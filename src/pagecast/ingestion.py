"""Loading, validation, and time-aggregation of raw multivariate series.

A :class:`TimeSeriesBatch` is the package's single in-memory representation
of aligned series: an N x T float64 grid in which NaN, and nothing else,
marks a missing value, as it does in a model's raw window and store.
"""

import csv
import math
import numbers
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np

from .errors import (
    DuplicateColumn,
    DuplicateTimestamp,
    EmptyFile,
    InvalidEncoding,
    InvalidInterval,
    MissingColumn,
    ShapeMismatch,
    UnparseableTimestamp,
    UnparseableValue,
)

AGG_FUNCTIONS = ("mean", "min", "max", "sum", "last")

# Lines (and steps) handled per bulk operation: load_csv converts a block of
# this many lines at a time and insert_many adds at most this many steps at
# once, which keeps their temporaries at O(N * BULK_STEPS) whatever the
# input's length.
BULK_STEPS = 1024


def is_integer(value) -> bool:
    """True for an integral number that is not a bool; numpy ints count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def zero_filled(values: np.ndarray) -> np.ndarray:
    """``values`` with the missing (NaN) entries set to 0, as a new array.
    Faster than ``np.nan_to_num`` on the short histories forecasts read."""
    return np.where(np.isfinite(values), values, 0.0)


class TimeSeriesBatch:
    """N aligned series of T observations; NaN marks a missing value.

    Attributes:
        names: one name per series (length N).
        values: N x T float64 grid, NaN where a value is missing.
        t0: time coordinate of the first grid index.
        step: spacing between consecutive grid indices, in timestamp units.

    The batch keeps the ``values`` array it is given when that array is
    already float64, so it shares memory with the caller's array.  Anything
    else (another dtype, a list, a value where an N x T ``observed`` mask
    given with it is False) is normalised into a new array and the caller's
    is left untouched.  ``observed`` is read off the values.  +-inf, and a
    NaN that the mask calls observed, raise :class:`UnparseableValue`.
    """

    def __init__(self, names: list[str], values, observed=None,
                 t0: float = 0.0, step: float = 1.0):
        values = np.asarray(values, dtype=np.float64)
        if observed is not None:
            observed = np.asarray(observed, dtype=bool)
            if values.shape != observed.shape:
                raise ShapeMismatch(f"values {values.shape} and observed "
                                    f"{observed.shape} differ in shape")
            if not np.isnan(values[~observed]).all():
                values = np.where(observed, values, np.nan)
        if values.ndim != 2:
            raise ShapeMismatch(f"values {values.shape} are not 2-D")
        if len(names) != values.shape[0]:
            raise ShapeMismatch(f"{len(names)} names for {values.shape[0]} series")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeMismatch("batch needs at least one series and one step")
        if np.isinf(values).any() or (observed is not None
                                      and (observed & np.isnan(values)).any()):
            raise UnparseableValue("observed entries must be finite")
        self.names, self.values, self.t0, self.step = names, values, t0, step

    @property
    def observed(self) -> np.ndarray:
        """N x T bool, ``~np.isnan(values)`` (a new array)."""
        return ~np.isnan(self.values)

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


# The largest finite float, exactly, as an int.
_FLOAT_MAX = int(np.finfo(np.float64).max)


def _parse_timestamp(text: str, lineno: int) -> int | Fraction:
    """Seconds since the epoch, exactly as written (an int or a Fraction):
    as floats, epoch-sized stamps lose their sub-second digits.  An ISO-8601
    stamp without a UTC offset is read as UTC, whatever the host's zone.  A
    stamp beyond float range is refused, an integer as ``1e400`` is."""
    text = text.strip()
    try:
        stamp = int(text)
    except ValueError:
        pass
    else:
        if abs(stamp) <= _FLOAT_MAX:
            return stamp
        raise UnparseableTimestamp(
            f"line {lineno}: timestamp {text[:12]}... ({len(text)} characters) "
            "is beyond float range")
    try:
        if math.isfinite(float(text)):
            return Fraction(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise UnparseableTimestamp(
            f"line {lineno}: cannot parse timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # timestamp() of a whole second is an exact integer float
    return (int(dt.replace(microsecond=0).timestamp())
            + Fraction(dt.microsecond, 1_000_000))


def _parse_value(text: str, lineno: int, col: str) -> float:
    """The cell's number; an empty or NaN cell is missing (NaN), and an
    infinite one is refused like text that is no number."""
    text = text.strip()
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        value = math.inf  # refused below, as an infinite cell is
    if math.isinf(value):
        raise UnparseableValue(f"line {lineno}, column {col!r}: cannot parse "
                               f"value {text!r} as a finite number")
    return value


@contextmanager
def open_text(path):
    """The UTF-8 text file at ``path``, opened for :mod:`csv` with a leading
    byte-order mark dropped.  Bytes that are not UTF-8, read anywhere in the
    ``with`` block, raise :class:`InvalidEncoding` naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InvalidEncoding(
                f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 "
                f"({exc.reason})") from None


def _stamp_array(stamps: list) -> np.ndarray:
    """``stamps`` as int64 when each is an int that fits, else as objects."""
    if all(type(s) is int for s in stamps):
        try:
            return np.array(stamps, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(stamps, dtype=object)


def _convert_block(lines: list[str], width: int, t_idx: int,
                   v_idx: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """The stamps and the len(v_idx) x rows values of ``lines``, one record
    each, the values converted in one numpy call and integer stamps in
    another; or None when the block needs :func:`_parse_rows`.  It does when
    it holds a quote, a carriage return or a row that is not ``width`` cells
    wide, or when a stamp or a value fails to convert or a value is
    infinite.  numpy reads a ``str`` by ``float``'s and ``int``'s own rules,
    so a block converts here to the bits :func:`_parse_rows` gives it."""
    text = "".join(lines)
    if '"' in text or "\r" in text:
        return None
    body = text[:-1] if text.endswith("\n") else text
    rows = body.split("\n")
    if set(map(str.count, rows, repeat(",", len(rows)))) != {width - 1}:
        return None
    cells = body.replace("\n", ",").split(",")
    if "" in cells:  # an empty cell is missing
        cells = [cell or "nan" for cell in cells]
    try:
        values = np.array([cells[i::width] for i in v_idx], dtype=np.float64)
        try:
            stamps = np.array(cells[t_idx::width], dtype=np.int64)
        except (ValueError, OverflowError):
            # a refusal's message is not shown: _parse_rows re-reads the block
            stamps = _stamp_array([_parse_timestamp(cell, 0)
                                   for cell in cells[t_idx::width]])
    except (ValueError, UnparseableTimestamp):
        return None
    if np.isinf(values).any():
        return None
    return stamps, values.reshape(len(v_idx), len(lines))


def _parse_rows(rows: list[list[str]], linenos: list[int], header: list[str],
                t_idx: int, v_idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The stamps and the len(v_idx) x rows values of the csv records
    ``rows``, which start on the physical lines ``linenos``, read cell by
    cell.  A blank row is skipped and a short row's missing cells are empty.
    A cell that is no stamp or no finite number, or a non-empty cell past
    the header's width, raises naming its record's first line."""
    width = len(header)
    stamps, values = [], []
    for lineno, row in zip(linenos, rows):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if any(cell.strip() for cell in row[width:]):
            raise UnparseableValue(f"line {lineno}: {len(row)} cells under "
                                   f"a header of {width}")
        if len(row) < width:
            row += [""] * (width - len(row))
        stamps.append(_parse_timestamp(row[t_idx], lineno))
        values.append([_parse_value(row[i], lineno, header[i]) for i in v_idx])
    values = np.array(values, dtype=np.float64).reshape(len(stamps), len(v_idx))
    return _stamp_array(stamps), values.T


def _read_blocks(path, time_col: str, value_cols: list[str] | None
                 ) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """``(value_cols, stamps, blocks)`` of the CSV at ``path``: the selected
    columns, the exact stamps in file order (int64, or objects where an
    integer array cannot hold them) and one len(value_cols) x rows value
    array per block of ``BULK_STEPS`` lines.  A block converts by
    :func:`_convert_block`, or, where that declines it, cell by cell by
    :func:`_parse_rows`; then a quoted cell's line breaks may carry it past
    ``BULK_STEPS`` lines, so that it ends with a whole record."""
    with open_text(path) as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        header = [h.strip() for h in header]
        if time_col not in header:
            raise MissingColumn(f"{path}: missing time column {time_col!r}")
        if value_cols is None:
            value_cols = [h for h in header if h != time_col]
        for col in value_cols:
            if col not in header:
                raise MissingColumn(f"{path}: missing value column {col!r}")
            if col == time_col:
                raise DuplicateColumn(
                    f"{path}: time column {col!r} selected as a series")
        in_header, selected = Counter(header), Counter(value_cols)
        for col in (time_col, *value_cols):
            if in_header[col] > 1 or selected[col] > 1:
                raise DuplicateColumn(f"{path}: column {col!r} named twice")
        t_idx = header.index(time_col)
        v_idx = [header.index(c) for c in value_cols]

        stamps, blocks = [], []
        lineno = 2
        while lines := list(islice(fh, BULK_STEPS)):
            block = _convert_block(lines, len(header), t_idx, v_idx)
            if block is None:
                reader = csv.reader(chain(lines, fh))
                rows, starts = [], []
                while reader.line_num < len(lines):
                    starts.append(lineno + reader.line_num)
                    rows.append(next(reader))
                block = _parse_rows(rows, starts, header, t_idx, v_idx)
                lineno += reader.line_num
            else:
                lineno += len(lines)
            stamps.append(block[0])
            blocks.append(block[1])

    if not sum(map(len, stamps)):
        raise EmptyFile(f"{path}: header only, no data rows")
    return value_cols, np.concatenate(stamps), blocks


def sorted_stamps(path, time_col: str) -> list[int | Fraction]:
    """The timestamps of the CSV at ``path`` in increasing order, each
    exactly as written (an int or a Fraction), read as :func:`load_csv`
    reads them."""
    return np.sort(_read_blocks(path, time_col, [])[1]).tolist()


def load_csv(path, time_col: str, value_cols: list[str] | None = None,
             tick: float | None = None) -> TimeSeriesBatch:
    """Load a batch from an RFC-4180-style CSV with a header row.

    The file is UTF-8, a leading byte-order mark allowed (:func:`open_text`).
    Empty and NaN cells denote missing values; a cell that is no finite
    number (``inf`` included) raises :class:`UnparseableValue` naming its
    line and column, and so does a row with a non-empty cell past the
    header's width, naming its line and cell count.  Rows are sorted by
    timestamp and become consecutive grid indices; with ``tick`` given,
    rows are instead placed at grid index floor((ts - ts_min) / tick), so
    irregular timestamps land on a uniform grid.  ``ts - ts_min`` is exact
    (epoch floats would lose sub-second parts) and a timestamp less than
    1e-9 * tick below a grid point counts as on it, so rounding cannot move
    an on-grid row one index early.  Two rows on the same index raise
    :class:`DuplicateTimestamp`.  ``value_cols=None`` selects every column
    except ``time_col``; a selected name that the header or ``value_cols``
    repeats, or that is ``time_col``, raises :class:`DuplicateColumn`.  A
    ``tick`` that is not finite and positive raises :class:`InvalidInterval`.

    The file is read ``BULK_STEPS`` lines at a time.  A block without
    quotes, carriage returns, rows of another width or refused cells has
    its values converted in one numpy call; the others are read cell by
    cell, to the same bits.  Only stamps that are not int64 integers are
    kept as Python objects past their block.
    """
    if tick is not None and not (math.isfinite(tick) and tick > 0):
        raise InvalidInterval(f"tick must be finite and positive, got {tick}")
    value_cols, ts, blocks = _read_blocks(path, time_col, value_cols)

    order = None
    if not (ts[1:] >= ts[:-1]).all():
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
    if ts.dtype == np.int64 and int(ts[-1]) - int(ts[0]) >= 2 ** 63:
        ts = ts.astype(object)  # the int64 difference would wrap
    try:
        offsets = (ts - ts[0]).astype(np.float64)
    except OverflowError:
        raise UnparseableTimestamp(
            f"{path}: the timestamps span more than float range") from None

    if tick is not None:
        # Sorted rows give sorted buckets, so a repeat is a zero difference.
        idx = np.floor(offsets / tick + 1e-9).astype(np.int64)
        same = np.flatnonzero(np.diff(idx) == 0)
        if same.size:
            raise DuplicateTimestamp(f"{path}: two rows in one tick bucket "
                                     f"(ts={float(ts[same[0] + 1])})")
        step = float(tick)
    else:
        same = np.flatnonzero(np.diff(offsets) == 0)
        if same.size:
            raise DuplicateTimestamp(
                f"{path}: duplicate timestamp {float(ts[same[0]])}")
        idx = np.arange(len(ts), dtype=np.int64)
        step = 1.0
    if order is not None:  # the grid index of each row in file order
        idx[order] = idx.copy()

    values = np.full((len(value_cols), int(idx.max()) + 1), np.nan)
    pos = 0
    for block in blocks:
        values[:, idx[pos:pos + block.shape[1]]] = block
        pos += block.shape[1]
    return TimeSeriesBatch(list(value_cols), values, t0=float(ts[0]), step=step)


def write_csv(batch: TimeSeriesBatch, path, time_col: str = "t") -> None:
    """Write a batch back to CSV; missing entries become empty cells.
    Raises :class:`DuplicateColumn`, before opening the file, for a series
    named ``time_col``, since :func:`load_csv` refuses such a header."""
    if time_col in batch.names:
        raise DuplicateColumn(f"series {time_col!r} is named like the time "
                              "column")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([time_col] + list(batch.names))
        for j in range(batch.n_steps):
            ts = batch.t0 + j * batch.step
            ts_txt = repr(int(ts)) if float(ts).is_integer() else repr(float(ts))
            writer.writerow([ts_txt] + ["" if v != v else repr(v)
                                        for v in batch.values[:, j].tolist()])


def aggregate(batch: TimeSeriesBatch, interval: int, fn: str = "mean") -> TimeSeriesBatch:
    """Downsample by grouping ``interval`` consecutive ticks into one bucket.

    Only observed entries contribute; a bucket with no observed entries is
    missing.  Output length is ceil(T / interval).  An interval that is not
    an integer >= 1 (:func:`is_integer`) raises :class:`InvalidInterval`.
    """
    if not is_integer(interval) or interval < 1:
        raise InvalidInterval(
            f"interval must be an integer >= 1, got {interval!r}")
    if fn not in AGG_FUNCTIONS:
        raise InvalidInterval(f"unknown aggregation fn {fn!r}; "
                              f"expected one of {AGG_FUNCTIONS}")
    if interval == 1:
        return TimeSeriesBatch(list(batch.names), batch.values.copy(),
                               t0=batch.t0, step=batch.step)

    n, t = batch.values.shape
    n_buckets = -(-t // interval)
    padded = np.full((n, n_buckets * interval), np.nan)
    padded[:, :t] = batch.values
    cube = padded.reshape(n, n_buckets, interval)
    obs = ~np.isnan(cube)
    counts = obs.sum(axis=2)

    if fn == "mean":
        out = np.nansum(cube, axis=2) / np.maximum(counts, 1)
    elif fn == "min":
        out = np.where(obs, cube, np.inf).min(axis=2)
    elif fn == "max":
        out = np.where(obs, cube, -np.inf).max(axis=2)
    elif fn == "sum":
        out = np.nansum(cube, axis=2)
    else:  # last observed entry of each bucket
        rev = obs[:, :, ::-1]
        last_off = interval - 1 - np.argmax(rev, axis=2)
        out = np.take_along_axis(cube, last_off[:, :, None], axis=2)[:, :, 0]

    out = np.where(counts > 0, out, np.nan)
    return TimeSeriesBatch(list(batch.names), out, t0=batch.t0,
                           step=batch.step * interval)
