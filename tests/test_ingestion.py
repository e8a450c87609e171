import random
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pagecast as pc
import pagecast.ingestion as ingestion
from pagecast.errors import (
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
from pagecast.ingestion import AGG_FUNCTIONS


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def new_york(monkeypatch):
    """The host's local zone is New York's for the test."""
    monkeypatch.setenv("TZ", "America/New_York")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestLoadCsv:
    def test_missing_cell_becomes_masked(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a\n1,5\n2,\n3,7\n"), "t")
        assert batch.n_series == 1 and batch.n_steps == 3
        np.testing.assert_array_equal(batch.observed[0], [True, False, True])
        assert batch.values[0, 0] == 5 and batch.values[0, 2] == 7
        assert np.isnan(batch.values[0, 1])

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyFile):
            pc.load_csv(_write(tmp_path, "t,a\n"), "t")

    def test_two_series_grid(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a,b\n1,1,2\n2,3,4\n"), "t")
        assert batch.names == ["a", "b"]
        np.testing.assert_array_equal(batch.values, [[1, 3], [2, 4]])

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "t,a\n1,5\n")
        with pytest.raises(MissingColumn):
            pc.load_csv(path, "time")
        with pytest.raises(MissingColumn):
            pc.load_csv(path, "t", ["b"])

    def test_byte_order_mark_before_time_column(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = _write(tmp_path, "\ufefft,a\n1,5\n2,6\n")
        batch = pc.load_csv(path, "t")
        assert batch.names == ["a"] and batch.n_steps == 2

    def test_byte_order_mark_before_value_column(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "\ufeffa,t\n5,1\n6,2\n"), "t")
        assert batch.names == ["a"]
        np.testing.assert_array_equal(batch.values, [[5, 6]])

    def test_file_that_is_not_utf8_refused(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,café\n1,5\n".encode("latin-1"))
        with pytest.raises(InvalidEncoding, match=f"{path}: byte 0xe9"):
            pc.load_csv(path, "t")

    def test_duplicate_timestamp(self, tmp_path):
        with pytest.raises(DuplicateTimestamp):
            pc.load_csv(_write(tmp_path, "t,a\n1,5\n1,6\n"), "t")

    def test_two_rows_in_one_tick_bucket(self, tmp_path):
        path = _write(tmp_path, "t,a\n0,5\n1,6\n1.5,7\n")
        with pytest.raises(DuplicateTimestamp, match="tick bucket"):
            pc.load_csv(path, "t", tick=1.0)

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(UnparseableValue, match="line 3, column 'b'"):
            pc.load_csv(_write(tmp_path, "t,a,b\n1,5,6\n2,7,x\n"), "t")

    def test_cell_past_the_header_refused(self, tmp_path):
        # it loaded as a=0.5, b=NaN, and the 0.7 was dropped
        path = _write(tmp_path, "t,a,b\n1,5,6\n2,0.5,,0.7\n")
        with pytest.raises(UnparseableValue, match="line 3: 4 cells"):
            pc.load_csv(path, "t")

    def test_empty_cells_past_the_header_accepted(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a,b\n1,5,6,,\n2,7,8, \n"), "t")
        np.testing.assert_array_equal(batch.values, [[5, 7], [6, 8]])

    def test_file_without_header_is_empty(self, tmp_path):
        with pytest.raises(EmptyFile, match="no header"):
            pc.load_csv(_write(tmp_path, ""), "t")

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(UnparseableTimestamp):
            pc.load_csv(_write(tmp_path, "t,a\nnot-a-time,5\n"), "t")

    @pytest.mark.parametrize("stamp", ["inf", "nan", "1e400"])
    def test_non_finite_timestamp(self, tmp_path, stamp):
        with pytest.raises(UnparseableTimestamp):
            pc.load_csv(_write(tmp_path, f"t,a\n{stamp},5\n2,6\n"), "t")

    @pytest.mark.parametrize("stamp", ["1" + "0" * 400, "-1" + "0" * 400],
                             ids=["positive", "negative"])
    def test_stamp_beyond_float_range_refused(self, tmp_path, stamp):
        path = _write(tmp_path, f"t,a\n1,5\n{stamp},6\n")
        with pytest.raises(UnparseableTimestamp, match="line 3: .* beyond float"):
            pc.load_csv(path, "t")

    def test_stamps_spanning_beyond_float_range_refused(self, tmp_path):
        # each stamp is a float, but their difference is not
        path = _write(tmp_path, f"t,a\n-1{'0' * 308},5\n1{'0' * 308},6\n")
        with pytest.raises(UnparseableTimestamp, match="span more than float"):
            pc.load_csv(path, "t")

    def test_row_without_time_cell(self, tmp_path):
        path = _write(tmp_path, "a,t\n5,1\n6\n7,3\n")
        with pytest.raises(UnparseableTimestamp, match="line 3"):
            pc.load_csv(path, "t")

    def test_time_column_not_first_and_value_cols_reordered(self, tmp_path):
        # The last row is short: its missing "a" cell is empty.
        path = _write(tmp_path, "b,t,a\n20,2,2.5\n10,1,1.5\n,3,3.5\n40,4\n")
        batch = pc.load_csv(path, "t", ["a", "b"])
        assert batch.names == ["a", "b"] and batch.t0 == 1.0
        np.testing.assert_array_equal(batch.observed, [[True, True, True, False],
                                                       [True, True, False, True]])
        np.testing.assert_array_equal(batch.values[0, :3], [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(batch.values[1, [0, 1, 3]], [10, 20, 40])

    def test_rows_sorted_by_time(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a\n3,30\n1,10\n2,20\n"), "t")
        np.testing.assert_array_equal(batch.values[0], [10, 20, 30])

    def test_iso_timestamps(self, tmp_path):
        text = "t,a\n2024-01-01T00:00:00,1\n2024-01-01T00:00:01,2\n"
        batch = pc.load_csv(_write(tmp_path, text), "t")
        np.testing.assert_array_equal(batch.values[0], [1, 2])

    def test_tick_bucketing(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a\n0,1\n10,2\n25,3\n"), "t",
                            tick=10.0)
        assert batch.n_steps == 3
        np.testing.assert_array_equal(batch.observed[0], [True, True, True])

    def test_tick_keeps_on_grid_rows_in_their_bucket(self, tmp_path):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998; flooring it without a
        # tolerance files t=0.3 in t=0.2's bucket
        text = "t,a\n" + "".join(f"{k / 10!r},{k}\n" for k in range(1, 301))
        batch = pc.load_csv(_write(tmp_path, text), "t", tick=0.1)
        assert batch.n_steps == 300
        np.testing.assert_array_equal(batch.values[0], np.arange(1, 301))

    def test_tick_keeps_sub_second_iso_rows_in_their_bucket(self, tmp_path):
        # as epoch floats these stamps are 2.4e-7 s apart, so offsets taken
        # from them miss the grid by far more than the tolerance
        base = datetime(2024, 1, 1)
        text = "t,a\n" + "".join(
            f"{(base + timedelta(milliseconds=100 * k)).isoformat()},{k}\n"
            for k in range(300))
        batch = pc.load_csv(_write(tmp_path, text), "t", tick=0.1)
        utc = base.replace(tzinfo=timezone.utc).timestamp()
        assert batch.n_steps == 300 and batch.t0 == utc
        np.testing.assert_array_equal(batch.values[0], np.arange(300))

    @pytest.mark.parametrize("day", ["2024-03-10", "2024-11-03"])
    def test_iso_stamps_without_offset_are_utc(self, tmp_path, new_york, day):
        # New York's clocks jump forward (March) and back (November) at
        # 02:00 on these days; read as local time, the hourly rows would
        # share a bucket or leave one empty
        text = "t,a\n" + "".join(f"{day}T{h:02d}:00:00,{h}\n"
                                 for h in range(1, 5))
        batch = pc.load_csv(_write(tmp_path, text), "t", tick=3600)
        assert batch.n_steps == 4
        np.testing.assert_array_equal(batch.values[0], [1, 2, 3, 4])
        first = datetime.fromisoformat(f"{day}T01:00:00+00:00")
        assert batch.t0 == first.timestamp()

    @pytest.mark.parametrize("header, value_cols", [
        ("t,a,a", None), ("t,a,a", ["a"]), ("t,t,a", None),
        ("t,a,b", ["a", "a"]), ("t,a,b", ["t", "a"])])
    def test_repeated_column_refused(self, tmp_path, header, value_cols):
        # header.index would read the first "a" (or "t") for both; a
        # selected "t" would load the timestamps as a series
        text = header + "\n1,1.0,10.0\n2,2.0,20.0\n3,3.0,30.0\n"
        with pytest.raises(DuplicateColumn):
            pc.load_csv(_write(tmp_path, text), "t", value_cols)

    @pytest.mark.parametrize("tick", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_tick_not_finite_and_positive_refused(self, tmp_path, tick, rows):
        text = "t,a\n" + "".join(f"{i},{i}\n" for i in range(rows))
        with pytest.raises(InvalidInterval):
            pc.load_csv(_write(tmp_path, text), "t", tick=tick)

    def test_repeated_unselected_column_is_ignored(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a,b,b\n1,5,6,7\n"), "t", ["a"])
        assert batch.names == ["a"] and batch.values[0, 0] == 5

    def test_roundtrip_through_write_csv(self, tmp_path):
        values = np.array([[1.5, np.nan, 3.25], [0.0, -2.0, np.nan]])
        observed = ~np.isnan(values)
        batch = pc.TimeSeriesBatch(["a", "b"], values, observed)
        path = tmp_path / "out.csv"
        pc.write_csv(batch, path)
        back = pc.load_csv(path, "t")
        np.testing.assert_array_equal(back.observed, batch.observed)
        np.testing.assert_array_equal(back.values[back.observed],
                                      batch.values[batch.observed])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", " -INF "])
    def test_infinite_cell_names_its_line_and_column(self, tmp_path, cell):
        # it failed with only "observed entries must be finite"
        path = _write(tmp_path, f"t,b,a\n1,1,2\n2,3,{cell}\n3,4,5\n")
        with pytest.raises(UnparseableValue, match="line 3, column 'a'"):
            pc.load_csv(path, "t")

    def test_nan_cell_is_missing(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a\n1,5\n2,nan\n3,NaN\n"), "t")
        np.testing.assert_array_equal(batch.observed[0], [True, False, False])

    def test_batch_keeps_no_array_but_values(self, tmp_path):
        batch = pc.load_csv(_write(tmp_path, "t,a,b\n1,5,\n2,,1\n3,7,2\n"),
                            "t")
        assert _arrays(batch) == ["values"]
        for fn in AGG_FUNCTIONS:
            for interval in (1, 2):
                assert _arrays(pc.aggregate(batch, interval, fn)) == ["values"]

    def test_write_csv_refuses_series_named_like_time_col(self, tmp_path):
        # its "t,t" header is one load_csv refuses
        batch = pc.TimeSeriesBatch(["t"], np.ones((1, 2)), np.ones((1, 2), bool))
        path = tmp_path / "out.csv"
        with pytest.raises(DuplicateColumn):
            pc.write_csv(batch, path)
        assert not path.exists()
        pc.write_csv(batch, path, time_col="time")
        assert pc.load_csv(path, "time").names == ["t"]


def _arrays(batch):
    """Names of the numpy arrays the batch holds."""
    return [k for k, v in vars(batch).items() if isinstance(v, np.ndarray)]


def _same(a, b):
    """True when two batches hold the same names, grid and value bits."""
    return (a.names == b.names and (a.t0, a.step) == (b.t0, b.step)
            and a.values.tobytes() == b.values.tobytes())


def _per_cell(path, *args, **kwargs):
    """load_csv with every block declined by the block converter, so read
    cell by cell: the reference the block path must match."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingestion, "_convert_block", lambda *a: None)
        return pc.load_csv(path, *args, **kwargs)


@pytest.fixture
def blocks_of_4(monkeypatch):
    """load_csv reads the file four lines at a time."""
    monkeypatch.setattr(ingestion, "BULK_STEPS", 4)


@pytest.mark.usefixtures("blocks_of_4")
class TestBlocks:
    """Files that span several blocks, four lines to a block."""

    @staticmethod
    def _rows(n=10):
        """Cells of rows k = 1..n of a "t,a,b" file: t=k, a=k.5, b=10k."""
        return [[str(k), f"{k}.5", str(10 * k)] for k in range(1, n + 1)]

    @staticmethod
    def _text(rows, header="t,a,b", end="\n"):
        return end.join([header, *(",".join(r) for r in rows)]) + end

    def _expected(self, n=10):
        return np.array([[k + 0.5 for k in range(1, n + 1)],
                         [10.0 * k for k in range(1, n + 1)]])

    def test_plain_block_converts_without_the_per_cell_parser(
            self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a plain block was read cell by cell")
        monkeypatch.setattr(ingestion, "_parse_rows", refuse)
        batch = pc.load_csv(_write(tmp_path, self._text(self._rows())), "t")
        np.testing.assert_array_equal(batch.values, self._expected())

    @pytest.mark.parametrize("col, cell, error, match", [
        (2, "x", UnparseableValue, "line 10, column 'b': cannot parse value 'x'"),
        (1, "inf", UnparseableValue, "line 10, column 'a': cannot parse"),
        (0, "bad", UnparseableTimestamp, "line 10: cannot parse timestamp 'bad'")])
    def test_refused_cell_in_a_later_block(self, tmp_path, col, cell, error,
                                           match):
        rows = self._rows()
        rows[8][col] = cell  # line 10, in the third block
        with pytest.raises(error, match=match):
            pc.load_csv(_write(tmp_path, self._text(rows)), "t")

    def test_quoted_cells(self, tmp_path):
        rows = [[*row, "plain"] for row in self._rows()]
        rows[1][3] = '"x, y"'
        rows[6][1] = '"7.5"'
        path = _write(tmp_path, self._text(rows, "t,a,b,note"))
        batch = pc.load_csv(path, "t", ["a", "b"])
        np.testing.assert_array_equal(batch.values, self._expected())
        assert _same(batch, _per_cell(path, "t", ["a", "b"]))

    @pytest.mark.parametrize("row, note", [
        (3, '"x\ny"'), (3, '"\n\n\n\n\n"'), (1, '"x\ny"')])
    def test_quoted_line_breaks(self, tmp_path, row, note):
        # row 4 is the first block's last line, so its note runs into the
        # second block; row 2's note leaves the first block 3 records
        rows = [[*cells, ""] for cells in self._rows()]
        rows[row][3] = note
        path = _write(tmp_path, self._text(rows, "t,a,b,note"))
        batch = pc.load_csv(path, "t", ["a", "b"])
        np.testing.assert_array_equal(batch.values, self._expected())
        assert _same(batch, _per_cell(path, "t", ["a", "b"]))
        # a line number counts csv records, a multi-line record as one
        rows[8][2] = "x"
        with pytest.raises(UnparseableValue, match="line 10, column 'b'"):
            pc.load_csv(_write(tmp_path, self._text(rows, "t,a,b,note")), "t",
                        ["a", "b"])

    def test_crlf_line_endings(self, tmp_path):
        path = _write(tmp_path, self._text(self._rows(), end="\r\n"))
        batch = pc.load_csv(path, "t")
        np.testing.assert_array_equal(batch.values, self._expected())
        assert _same(batch, _per_cell(path, "t"))

    def test_blank_line_and_short_row_at_a_block_boundary(self, tmp_path):
        lines = [",".join(row) for row in self._rows()]
        lines[3] = "4,4.5"  # the first block's last line lacks its b cell
        lines.insert(4, "")  # and the second block starts blank
        path = _write(tmp_path, "t,a,b\n" + "\n".join(lines) + "\n")
        batch = pc.load_csv(path, "t")
        expected = self._expected()
        expected[1, 3] = np.nan
        np.testing.assert_array_equal(batch.values, expected)
        assert _same(batch, _per_cell(path, "t"))

    def test_rows_sorted_across_blocks(self, tmp_path):
        rows = self._rows()
        random.Random(0).shuffle(rows)
        path = _write(tmp_path, self._text(rows))
        batch = pc.load_csv(path, "t")
        assert batch.t0 == 1.0
        np.testing.assert_array_equal(batch.values, self._expected())
        assert _same(batch, _per_cell(path, "t"))

    def test_duplicate_stamp_across_blocks(self, tmp_path):
        rows = self._rows()
        rows[8][0] = "2"
        with pytest.raises(DuplicateTimestamp, match="duplicate timestamp 2.0"):
            pc.load_csv(_write(tmp_path, self._text(rows)), "t")

    @pytest.mark.parametrize("stamps, tick", [
        ([2 ** 64 + k for k in range(5)], None),
        # each fits int64, but the last minus the first does not
        ([-2 ** 63, -2 ** 62, 0, 2 ** 62, 2 ** 63 - 1], 2.0 ** 62)])
    def test_integer_stamps_beyond_int64(self, tmp_path, stamps, tick):
        rows = [[str(t), f"{k}.5", str(10 * k)]
                for k, t in enumerate(stamps, start=1)]
        path = _write(tmp_path, self._text(rows))
        batch = pc.load_csv(path, "t", tick=tick)
        assert batch.t0 == float(stamps[0])
        np.testing.assert_array_equal(batch.values, self._expected(5))
        assert _same(batch, _per_cell(path, "t", tick=tick))

    def test_iso_stamps_across_blocks(self, tmp_path):
        base = datetime(2024, 1, 1)
        rows = [[(base + timedelta(milliseconds=100 * k)).isoformat(), a, b]
                for k, (_, a, b) in enumerate(self._rows())]
        random.Random(1).shuffle(rows)
        path = _write(tmp_path, self._text(rows))
        batch = pc.load_csv(path, "t", tick=0.1)
        assert batch.t0 == base.replace(tzinfo=timezone.utc).timestamp()
        np.testing.assert_array_equal(batch.values, self._expected())
        assert _same(batch, _per_cell(path, "t", tick=0.1))

    def test_negative_nan_keeps_its_bits(self, tmp_path):
        rows = self._rows()
        rows[6][1], rows[2][2] = "-nan", "nan"
        path = _write(tmp_path, self._text(rows))
        batch = pc.load_csv(path, "t")
        assert np.signbit(batch.values[0, 6]) and np.isnan(batch.values[0, 6])
        assert not np.signbit(batch.values[1, 2])
        assert _same(batch, _per_cell(path, "t"))


_BASE = datetime(2024, 1, 1)
_STAMPS = {"int": str, "decimal": lambda k: repr(k / 8),
           "iso": lambda k: (_BASE + timedelta(milliseconds=k)).isoformat()}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = st.one_of(
    _FINITE.map(repr), _FINITE.map(lambda x: f" {x!r}  "),
    st.sampled_from(["", "nan", "-nan", "NaN", " ", "\t", "1_000", "-0.0",
                     "1e-320"]))


@st.composite
def _tables(draw):
    """The text of a small CSV: 1-3 series, unique stamps in random order,
    all of one kind, and cells of every form a number or a gap takes."""
    n_series = draw(st.integers(1, 3))
    keys = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                         max_size=16, unique=True))
    render = _STAMPS[draw(st.sampled_from(sorted(_STAMPS)))]
    pad = " " if draw(st.booleans()) else ""
    lines = ["t," + ",".join(f"s{i}" for i in range(n_series))]
    for key in keys:
        cells = draw(st.lists(_CELLS, min_size=n_series, max_size=n_series))
        lines.append(",".join([pad + render(key) + pad, *cells]))
    return "\n".join(lines) + "\n"


class TestBlockSizes:
    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_block_size_does_not_change_the_batch(self, tmp_path_factory,
                                                  table):
        path = tmp_path_factory.mktemp("table") / "data.csv"
        path.write_text(table, encoding="utf-8")
        reference = _per_cell(path, "t")
        for size in (1, 2, 7, ingestion.BULK_STEPS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingestion, "BULK_STEPS", size)
                assert _same(pc.load_csv(path, "t"), reference)


def test_load_peak_memory_is_at_most_three_batches(tmp_path):
    # the per-row lists of floats it held peaked at 8.5 batches
    rng = np.random.default_rng(0)
    values = rng.normal(size=(10, 20_000))
    values[rng.random(values.shape) < 0.1] = np.nan
    path = tmp_path / "data.csv"
    pc.write_csv(pc.TimeSeriesBatch([f"s{i}" for i in range(10)], values), path)
    tracemalloc.start()
    try:
        batch = pc.load_csv(path, "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.values.tobytes() == values.tobytes()
    assert peak <= 3 * batch.values.nbytes


class TestBatchValues:
    """A batch keeps a float64 array with NaN at every unobserved entry and
    normalises anything else into a new array."""

    @staticmethod
    def _grid():
        vals = np.arange(12.0).reshape(3, 4)
        mask = np.ones(vals.shape, dtype=bool)
        mask[1, 2] = mask[2, 0] = False
        return vals, mask

    def test_conforming_array_kept(self):
        vals, mask = self._grid()
        vals[~mask] = np.nan
        batch = pc.TimeSeriesBatch(["a", "b", "c"], vals, mask)
        assert np.shares_memory(batch.values, vals)

    @pytest.mark.parametrize("kind", ["value_where_missing", "float32",
                                      "list"])
    def test_other_input_normalised(self, kind):
        vals, mask = self._grid()
        if kind != "value_where_missing":
            vals[~mask] = np.nan
        given = {"value_where_missing": vals, "float32":
                 vals.astype(np.float32), "list": vals.tolist()}[kind]
        before = np.array(given, copy=True)
        batch = pc.TimeSeriesBatch(["a", "b", "c"], given, mask)
        if isinstance(given, np.ndarray):
            assert not np.shares_memory(batch.values, given)
        np.testing.assert_array_equal(np.asarray(given), before)
        assert batch.values.dtype == np.float64
        assert np.isnan(batch.values[~mask]).all()
        np.testing.assert_array_equal(batch.values[mask], vals[mask])

    @pytest.mark.parametrize("names, values, observed", [
        (["a"], np.zeros(3), np.ones(3, dtype=bool)),
        (["a"], np.zeros((1, 3)), np.ones((1, 2), dtype=bool)),
        (["a", "b"], np.zeros((1, 3)), np.ones((1, 3), dtype=bool)),
        (["a"], np.zeros((1, 0)), np.ones((1, 0), dtype=bool)),
        ([], np.zeros((0, 3)), np.ones((0, 3), dtype=bool))],
        ids=["one_dim", "mask_shape", "names", "no_steps", "no_series"])
    def test_shape_mismatch(self, names, values, observed):
        with pytest.raises(ShapeMismatch):
            pc.TimeSeriesBatch(names, values, observed)

    def test_nan_marks_missing_without_a_mask(self):
        vals, mask = self._grid()
        vals[~mask] = np.nan
        batch = pc.TimeSeriesBatch(["a", "b", "c"], vals)
        assert np.shares_memory(batch.values, vals)
        np.testing.assert_array_equal(batch.observed, mask)
        np.testing.assert_array_equal(batch.observed, ~np.isnan(vals))
        assert _arrays(batch) == ["values"]

    def test_mask_becomes_nan(self):
        vals, mask = self._grid()
        batch = pc.TimeSeriesBatch(["a", "b", "c"], vals, mask, 5.0, 2.0)
        assert (batch.t0, batch.step) == (5.0, 2.0)
        np.testing.assert_array_equal(batch.observed, mask)
        assert _arrays(batch) == ["values"]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_refused_without_a_mask(self, bad):
        vals = self._grid()[0]
        vals[0, 1] = bad
        with pytest.raises(UnparseableValue):
            pc.TimeSeriesBatch(["a", "b", "c"], vals)

    def test_nan_the_mask_calls_observed_refused(self):
        vals, mask = self._grid()
        vals[0, 1] = np.nan
        with pytest.raises(UnparseableValue):
            pc.TimeSeriesBatch(["a", "b", "c"], vals, mask)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_non_finite_observed_entry_refused(self, bad):
        vals, mask = self._grid()
        vals[~mask] = np.nan
        vals[0, 1] = bad
        with pytest.raises(UnparseableValue):
            pc.TimeSeriesBatch(["a", "b", "c"], vals, mask)


class TestAggregate:
    def _batch(self, values, observed=None):
        values = np.asarray(values, dtype=float)[None, :]
        if observed is None:
            observed = np.isfinite(values)
        else:
            observed = np.asarray(observed, dtype=bool)[None, :]
        return pc.TimeSeriesBatch(["a"], values, observed)

    def test_mean(self):
        out = pc.aggregate(self._batch([1, 3, 5, 7]), 2, "mean")
        np.testing.assert_array_equal(out.values[0], [2, 6])

    def test_empty_bucket_is_missing(self):
        out = pc.aggregate(self._batch([1, np.nan, np.nan, np.nan]), 2, "mean")
        assert out.values[0, 0] == 1
        assert not out.observed[0, 1]

    def test_interval_one_is_identity(self):
        batch = self._batch([1, np.nan, 3])
        for fn in ("mean", "min", "max", "sum", "last"):
            out = pc.aggregate(batch, 1, fn)
            np.testing.assert_array_equal(out.observed, batch.observed)
            np.testing.assert_array_equal(out.values[out.observed],
                                          batch.values[batch.observed])

    def test_output_length_ceil(self):
        out = pc.aggregate(self._batch([1, 2, 3, 4, 5]), 2, "sum")
        assert out.n_steps == 3
        np.testing.assert_array_equal(out.values[0], [3, 7, 5])

    def test_min_max_last(self):
        batch = self._batch([4, 1, np.nan, 9])
        assert pc.aggregate(batch, 2, "min").values[0].tolist() == [1, 9]
        assert pc.aggregate(batch, 2, "max").values[0].tolist() == [4, 9]
        assert pc.aggregate(batch, 2, "last").values[0].tolist() == [1, 9]

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            pc.aggregate(self._batch([1, 2]), 0, "mean")

    def test_unknown_fn(self):
        with pytest.raises(InvalidInterval, match="unknown aggregation fn"):
            pc.aggregate(self._batch([1, 2]), 2, "median")

    @pytest.mark.parametrize("interval", [2.5, 2.0, True, "2", None])
    def test_interval_must_be_an_integer(self, interval):
        # 2.5 raised a bare TypeError from numpy, and True was taken as 1
        with pytest.raises(InvalidInterval):
            pc.aggregate(self._batch([1, 2, 3]), interval, "mean")

    def test_numpy_int_interval(self):
        batch = self._batch([1, 3, 5, 7])
        out = pc.aggregate(batch, np.int64(2), "mean")
        np.testing.assert_array_equal(out.values, pc.aggregate(batch, 2).values)

    def test_never_unobserves(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=40)
        mask = rng.random(40) < 0.6
        values[~mask] = np.nan
        batch = self._batch(values)
        for interval in (1, 2, 3, 7):
            out = pc.aggregate(batch, interval, "mean")
            # every bucket with at least one observation stays observed
            for b in range(out.n_steps):
                chunk = mask[b * interval:(b + 1) * interval]
                assert out.observed[0, b] == chunk.any()
