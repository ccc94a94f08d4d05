import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reference_build_series, reference_parse_csv
from rvdlm import (ConfigError, CsvSchema, DataError, OhlcBar, RvdlmError, apply_split,
                   build_series, parse_csv, read_ohlc, rogers_satchell, series_from_ohlc,
                   write_csv)

D0 = dt.date(2020, 1, 2)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def mk_bars(n, start=D0, base=100.0, seed=0):
    rng = np.random.default_rng(seed)
    bars, d, c = [], start, base
    while len(bars) < n:
        if d.weekday() < 5:
            o = c
            c = o * float(np.exp(rng.normal(0.0, 0.01)))
            h = max(o, c) * float(np.exp(abs(rng.normal(0.0, 0.004))))
            l = min(o, c) * float(np.exp(-abs(rng.normal(0.0, 0.004))))
            bars.append(OhlcBar(d, o, h, l, c))
        d += dt.timedelta(days=1)
    return bars


class TestParseCsv:
    def test_well_formed(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "date,open,high,low,close\n"
                          "2020-01-02,100,101,99,100.5\n"
                          "2020-01-03,100.5,102,100,101\n"
                          "2020-01-06,101,101.5,99.5,100\n")
        bars = parse_csv(path)
        assert len(bars) == 3
        assert bars[0].date == D0 and bars[2].close == 100.0

    def test_duplicate_date_named(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "date,open,high,low,close\n"
                          "2020-01-02,100,101,99,100.5\n"
                          "2020-01-02,100.5,102,100,101\n")
        with pytest.raises(DataError) as excinfo:
            parse_csv(path)
        assert "2020-01-02" in str(excinfo.value)

    def test_reordered_and_extra_columns(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "volume,close,date,low,high,open\n"
                          "123,100.5,2020-01-02,99,101,100\n")
        bars = parse_csv(path)
        assert bars[0] == OhlcBar(D0, 100.0, 101.0, 99.0, 100.5)

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "date,open,high,low,close\n"
                          "2020-01-03,100.5,102,100,101\n"
                          "2020-01-02,100,101,99,100.5\n")
        bars = parse_csv(path)
        assert [b.date.day for b in bars] == [2, 3]

    def test_missing_field_line_number(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "date,open,high,low,close\n"
                          "2020-01-02,100,101,99,100.5\n"
                          "2020-01-03,100.5,,100,101\n")
        with pytest.raises(DataError) as excinfo:
            parse_csv(path)
        assert ":3:" in str(excinfo.value)

    def test_line_number_counts_blank_lines(self, tmp_path):
        # the blank line 3 is dropped, but the bad row is still reported on line 4
        path = tmp_path / "a.csv"
        path.write_bytes(b"date,open,high,low,close\r\n"
                         b"2020-01-02,100,101,99,100.5\r\n"
                         b"\r\n"
                         b"2020-01-03,100.5,102,100,abc\r\n")
        with pytest.raises(DataError) as excinfo:
            parse_csv(path)
        assert f"{path}:4: unparseable close 'abc'" == str(excinfo.value)

    def test_leading_bom_accepted(self, tmp_path):
        text = ("date,open,high,low,close\n"
                "2020-01-02,100,101,99,100.5\n"
                "2020-01-03,100.5,102,100,101\n")
        plain = write_text(tmp_path / "plain.csv", text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_csv(bom) == parse_csv(plain)

    def test_unparseable_price(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "date,open,high,low,close\n2020-01-02,abc,101,99,100.5\n")
        with pytest.raises(DataError):
            parse_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_text(tmp_path / "a.csv", "date,open,high,close\n")
        with pytest.raises(DataError):
            parse_csv(path)

    def test_required_column_named_twice(self, tmp_path):
        # the close would be read from the second copy, as a dict of names keeps
        # the last index; a repeated column that nothing reads stays allowed
        path = write_text(tmp_path / "a.csv", "date,open,high,low,close,Close\n"
                                              "2020-01-02,100,101,99,100.5,7\n")
        outcomes = [_outcome(fn, path, CsvSchema())
                    for fn in (parse_csv, read_ohlc, reference_parse_csv)]
        assert outcomes[0][0] is DataError and DataError(path).exit_code == 3
        assert outcomes[0][1].startswith(f"{path}: ") and "'close' more than once" in outcomes[0][1]
        assert outcomes == [outcomes[0]] * 3
        path = write_text(tmp_path / "b.csv", "date,open,high,low,close,vol,vol\n"
                                              "2020-01-02,100,101,99,100.5,1,2\n")
        assert parse_csv(path) == [OhlcBar(D0, 100.0, 101.0, 99.0, 100.5)]

    def test_custom_schema(self, tmp_path):
        path = write_text(tmp_path / "a.csv",
                          "Day,O,H,L,Last\n2020-01-02,100,101,99,100.5\n"
                          "2020-01-03,1,2,0.5,1\n")
        schema = CsvSchema(date="Day", open="O", high="H", low="L", close="Last")
        assert len(parse_csv(path, schema)) == 2

    def test_missing_file(self):
        with pytest.raises(DataError):
            parse_csv("/nonexistent/file.csv")

    def test_round_trip_idempotent(self, tmp_path):
        bars = mk_bars(10)
        p1 = tmp_path / "w1.csv"
        write_csv(p1, bars)
        again = parse_csv(p1)
        assert again == bars
        p2 = tmp_path / "w2.csv"
        write_csv(p2, again)
        assert p1.read_text() == p2.read_text()

    def test_round_trip_numpy_float_prices(self, tmp_path):
        # under numpy 2, repr(np.float64(100.0)) is "np.float64(100.0)"
        bars = [OhlcBar(b.date, *map(np.float64, (b.open, b.high, b.low, b.close)))
                for b in mk_bars(10)]
        path = tmp_path / "np.csv"
        write_csv(path, bars)
        assert "np.float64" not in path.read_text()
        assert parse_csv(path) == bars


class TestBuildSeries:
    def test_flat_bars_floor(self):
        bars = [OhlcBar(D0, 100, 100, 100, 100),
                OhlcBar(D0 + dt.timedelta(days=1), 100, 100, 100, 100)]
        frame = build_series(bars, floor_eps=1e-12)
        assert len(frame) == 1
        assert frame.y[0] == pytest.approx(math.log(100.0))
        assert frame.y_prev[0] == pytest.approx(math.log(100.0))
        assert frame.z[0] == 1e-12
        assert frame.x[0] == pytest.approx(1e-6)

    def test_row_count_and_lag_alignment(self):
        bars = mk_bars(40)
        frame = build_series(bars)
        assert len(frame) == len(bars) - 1
        np.testing.assert_array_equal(frame.y_prev[1:], frame.y[:-1])
        np.testing.assert_array_equal(frame.x_prev[1:], frame.x[:-1])
        assert frame.dates[0] == bars[1].date

    def test_rv_columns_match_per_bar_recomputation(self):
        bars = mk_bars(25, seed=3)
        frame = build_series(bars)
        for t, bar in enumerate(bars[1:]):
            assert frame.z[t] == pytest.approx(max(rogers_satchell(bar), 1e-12), rel=1e-14)
            assert frame.x[t] == pytest.approx(math.sqrt(frame.z[t]), rel=1e-14)

    def test_needs_two_bars(self):
        with pytest.raises(DataError):
            build_series(mk_bars(1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 1000))
    def test_lag_alignment_property(self, n, seed):
        frame = build_series(mk_bars(n, seed=seed))
        np.testing.assert_array_equal(frame.y_prev[1:], frame.y[:-1])
        np.testing.assert_array_equal(frame.x_prev[1:], frame.x[:-1])


class TestApplySplit:
    def test_markers_and_counts(self):
        bars = mk_bars(30)
        frame = build_series(bars)
        mid = frame.dates[14]
        nxt = frame.dates[15]
        out = apply_split(frame, mid, nxt)
        assert out.n_train == 15
        assert out.n_eval == len(frame) - 15
        assert out.n_train + out.n_eval == len(frame)

    def test_eval_from_first_date(self):
        frame = build_series(mk_bars(10))
        out = apply_split(frame, frame.dates[0] - dt.timedelta(days=1), frame.dates[0])
        assert out.n_eval == len(frame)

    def test_train_to_last_date_warns_empty_eval(self):
        frame = build_series(mk_bars(10))
        with pytest.warns(UserWarning):
            out = apply_split(frame, frame.dates[-1],
                              frame.dates[-1] + dt.timedelta(days=1))
        assert out.n_eval == 0

    def test_out_of_range_rejected(self):
        frame = build_series(mk_bars(10))
        with pytest.raises(ConfigError):
            apply_split(frame, frame.dates[-1] + dt.timedelta(days=5),
                        frame.dates[-1] + dt.timedelta(days=9))
        with pytest.raises(ConfigError):
            apply_split(frame, frame.dates[0] - dt.timedelta(days=9),
                        frame.dates[0] - dt.timedelta(days=5))
        with pytest.raises(ConfigError):
            apply_split(frame, frame.dates[5], frame.dates[5])


# ---------------------------------------------------------------------------
# the columnar path against the per-bar reference in tests/oracles.py

SLACK = (0.5, 0.999, 1.001, 2.0)  # multiples of the 1e-9 clamp slack
BAD_TEXT = ("", "  ", "abc", "nan", "inf", "-inf", "0", "-1.5", "1e400")
BAD_DATE = ("2020-13-01", "x", "")


@st.composite
def ohlc_texts(draw):
    """A CSV text of a few bars: flat, no-wick, clamped or rejected slack
    violations, floored z; unsorted or duplicate dates; bad, missing or short
    fields; blank lines, CRLF endings and a BOM."""
    n = draw(st.sampled_from([4, 3, 6, 8, 2, 1, 0]))
    days = sorted(draw(st.sets(st.integers(0, 12), min_size=n, max_size=n)))
    order = draw(st.sampled_from(["sorted", "shuffled", "repeat"]))
    if order == "shuffled":
        days = draw(st.permutations(days))
    elif order == "repeat" and n > 1:
        days[draw(st.integers(1, n - 1))] = days[0]
    rows = []
    for day in days:
        o = draw(st.floats(0.5, 500.0))
        c = o * math.exp(draw(st.floats(-0.05, 0.05)))
        hi, lo = max(o, c), min(o, c)
        shape = draw(st.sampled_from(["wick", "wick", "flat", "no-wick", "high", "low", "tiny"]))
        h = hi * (1.0 + draw(st.floats(0.0, 0.02)))
        l = lo / (1.0 + draw(st.floats(0.0, 0.02)))
        if shape == "flat":
            o = h = l = c
        elif shape == "no-wick":
            h, l = hi, lo
        elif shape == "high":
            h = hi - draw(st.sampled_from(SLACK)) * 1e-9 * hi
        elif shape == "low":
            l = lo + draw(st.sampled_from(SLACK)) * 1e-9 * lo
        elif shape == "tiny":
            h, l = hi * (1.0 + 1e-9), lo
        date = (D0 + dt.timedelta(days=day)).isoformat()
        rows.append([date, repr(o), repr(h), repr(l), repr(c), "7"])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        field = draw(st.integers(0, 4))
        rows[k][field] = draw(st.sampled_from(BAD_DATE if field == 0 else BAD_TEXT))
    if rows and draw(st.sampled_from([False] * 9 + [True])):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][:draw(st.integers(1, 4))]
    lines = [",".join(r) for r in [["date", "open", "high", "low", "close", "volume"]] + rows]
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", ",,", " "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(lines) + end


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except RvdlmError as exc:
        return type(exc), str(exc), exc.date


def _frame_bits(frame):
    return (frame.ticker, frame.dates,
            *(v.tobytes() for v in (frame.y, frame.z, frame.x, frame.y_prev, frame.x_prev)))


def _bar_bits(bars):
    return [(b.date, *(float(p).hex() for p in (b.open, b.high, b.low, b.close))) for b in bars]


@settings(max_examples=400, deadline=None)
@given(ohlc_texts(), st.sampled_from([1e-12, 1e-7]))
@example("date,open,high,low,close\n2020-01-02,1,1,1,1\n2020-01-03,1,1,1,1\n", 1e-12)
# violations of exactly the slack (1e9 - h == 1e-9 * 1e9 == 1.0): clamped, not rejected
@example("date,open,high,low,close\n2020-01-02,1e9,999999999,999999000,1e9\n"
         "2020-01-03,1e9,1000001000,1000000001,1e9\n", 1e-12)
# low/high below the float range: l/c underflows to 0, or h/l overflows
@example("date,open,high,low,close\n2020-01-02,1,1,1,1\n2020-01-03,1e300,1e300,1e-300,1e300\n",
         1e-12)
@example("date,open,high,low,close\n2020-01-02,1e-300,1e300,1e-300,1e-300\n", 1e-12)
def test_columnar_ingestion_equals_per_bar_reference(tmp_path_factory, text, floor_eps):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_bytes(text.encode())
    schema = CsvSchema()
    want = _outcome(reference_parse_csv, path, schema)
    got = _outcome(parse_csv, path, schema)
    if want[0] != "ok":
        assert got == want
        assert _outcome(read_ohlc, path, schema) == want
        return
    assert _bar_bits(got[1]) == _bar_bits(want[1])
    want = _outcome(reference_build_series, want[1], floor_eps, "T")
    for got in (_outcome(build_series, got[1], floor_eps, "T"),
                _outcome(lambda: series_from_ohlc(*read_ohlc(path, schema), floor_eps, "T"))):
        if want[0] == "ok":
            assert got[0] == "ok"
            assert _frame_bits(got[1]) == _frame_bits(want[1])
        else:
            assert got == want
