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

    def zero_filled(self) -> np.ndarray:
        """:func:`zero_filled` of the values."""
        return zero_filled(self.values)


def _parse_timestamp(text: str, lineno: int) -> int | Fraction:
    """Seconds since the epoch, exactly as written (an int or a Fraction):
    as floats, epoch-sized stamps lose their sub-second digits.  An ISO-8601
    stamp without a UTC offset is read as UTC, whatever the host's zone."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
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


def load_csv(path, time_col: str, value_cols: list[str] | None = None,
             tick: float | None = None) -> TimeSeriesBatch:
    """Load a batch from an RFC-4180-style CSV with a header row.

    The file is UTF-8, a leading byte-order mark allowed (:func:`open_text`).
    Empty and NaN cells denote missing values; a cell that is no finite
    number (``inf`` included) raises :class:`UnparseableValue` naming its
    line and column.  Rows are sorted by timestamp and
    become consecutive grid indices; with ``tick`` given, rows are instead
    placed at grid index floor((ts - ts_min) / tick), so irregular
    timestamps land on a uniform grid.  ``ts - ts_min`` is exact (epoch
    floats would lose sub-second parts) and a timestamp less than
    1e-9 * tick below a grid point counts as on it, so rounding cannot move
    an on-grid row one index early.  Two rows on the same index raise
    :class:`DuplicateTimestamp`.  ``value_cols=None`` selects every column
    except ``time_col``; a selected name that the header or ``value_cols``
    repeats, or that is ``time_col``, raises :class:`DuplicateColumn`.  A
    ``tick`` that is not finite and positive raises :class:`InvalidInterval`.
    """
    if tick is not None and not (math.isfinite(tick) and tick > 0):
        raise InvalidInterval(f"tick must be finite and positive, got {tick}")
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
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

        stamps: list[int | Fraction] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) < len(header):  # a short row's missing cells are empty
                row += [""] * (len(header) - len(row))
            stamps.append(_parse_timestamp(row[t_idx], lineno))
            rows.append([_parse_value(row[i], lineno, header[i]) for i in v_idx])

    if not rows:
        raise EmptyFile(f"{path}: header only, no data rows")

    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    ts = [stamps[i] for i in order]
    offsets = np.array([float(t - ts[0]) for t in ts])
    grid = np.asarray(rows, dtype=np.float64)[order]

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

    n_steps = int(idx[-1]) + 1
    values = np.full((len(value_cols), n_steps), np.nan)
    values[:, idx] = grid.T
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
