"""CSV ingestion: OHLC parsing, the modeled series frame, and the
train/evaluation split.

The input contract is a UTF-8, comma-separated file (a leading BOM is
skipped) with a header row naming (configurably) date/open/high/low/close
columns; dates are ISO-8601; extra columns are ignored. The first bar only
defines the lagged predictors, so N bars become N-1 modeled rows.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import datetime as dt
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rv_measures import (DEFAULT_RV_FLOOR, PRICE_FIELDS, OhlcBar, bar_columns, clamp_ohlc,
                          rs_variance)
from .special import _each


@dataclass(frozen=True)
class CsvSchema:
    """Column names for the OHLC input contract (case-insensitive)."""

    date: str = "date"
    open: str = "open"
    high: str = "high"
    low: str = "low"
    close: str = "close"


def _read_rows(path) -> tuple[list[list[str]], list[int]]:
    # The non-blank rows of a CSV file and the physical line each ends on.
    rows, lines = [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if "".join(row).strip():
                    rows.append(row)
                    lines.append(reader.line_num)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    return rows, lines


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file, blank rows dropped: any output file
    read back."""
    rows, _ = _read_rows(path)
    return rows[0], rows[1:]


#: Text form of numpy float columns in every written CSV; `float()` of it is exact.
FLOAT_FORMAT = "%.17g"


def format_floats(values: np.ndarray) -> list[str]:
    """The text `write_columns_csv` writes for a numpy column, so a column
    shared by several files is formatted once and passed as strings."""
    return [FLOAT_FORMAT % v for v in values.tolist()]


def write_columns_csv(path, header, columns) -> None:
    """The one CSV writer: a header, then one row per entry of the columns.
    numpy columns are written as FLOAT_FORMAT, other columns as `str` of each
    item (for floats, including numpy floats, the shortest round-trip form).
    Fields are never quoted."""
    line = ",".join(FLOAT_FORMAT if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*columns))


def _parsed(fn, texts) -> tuple[list, int]:
    # fn of each text up to the first one it rejects, and that text's index
    out = []
    try:
        out.extend(map(fn, texts))
    except ValueError:
        pass
    return out, len(out)


def read_ohlc(path, schema: CsvSchema = CsvSchema()) -> tuple:
    """Read, check and date-sort an OHLC file into columns: the dates and
    the open, high, low and close float arrays.

    The first row, in file order, with a missing or unparseable field is
    rejected with its physical line number, naming its first bad field in
    date, open, high, low, close order. Duplicate dates are an error naming
    the date.
    """
    rows, lines = _read_rows(path)
    header, body = rows[0], rows[1:]
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    cols = []
    for field in ("date", *PRICE_FIELDS):
        want = getattr(schema, field).lower()
        if want not in lookup:
            raise DataError(f"{path}: header {header!r} lacks required column {want!r}")
        cols.append(lookup[want])

    # Each check looks only at the rows before the earliest failure found so
    # far, so the row reported is the first bad one and, on it, the first check.
    need = max(cols) + 1
    short = np.fromiter(map(len, body), dtype=np.int64, count=len(body)) < need
    limit, error = len(body), ""
    if short.any():
        limit = int(short.argmax())
        error = f"row has {len(body[limit])} fields, expected at least {need}"
    texts = [row[cols[0]] for row in body[:limit]]
    dates, k = _parsed(dt.date.fromisoformat, map(str.strip, texts))
    if k < limit:
        limit, error = k, f"unparseable date {texts[k]!r}"
    prices = []
    for field, col in zip(PRICE_FIELDS, cols[1:]):
        texts = [row[col] for row in body[:limit]]
        try:
            values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
        except ValueError:
            parsed, k = _parsed(float, texts)
            text = texts[k].strip()
            limit, error = k, (f"unparseable {field} {text!r}" if text else f"missing {field}")
            values = np.array(parsed, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            limit, error = int(finite.argmin()), f"non-finite {field}"
        prices.append(values)
    if error:
        raise DataError(f"{path}:{lines[limit + 1]}: {error}")

    days = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    if (np.diff(days) < 0).any():
        order = np.argsort(days, kind="stable")
        days, dates = days[order], [dates[i] for i in order.tolist()]
        prices = [p[order] for p in prices]
    repeat = np.diff(days) == 0
    if repeat.any():
        raise DataError("duplicate bar", dates[int(repeat.argmax()) + 1])
    return (dates, *prices)


def parse_csv(path, schema: CsvSchema = CsvSchema()) -> list[OhlcBar]:
    """`read_ohlc` as bars."""
    dates, *prices = read_ohlc(path, schema)
    return list(map(OhlcBar, dates, *(p.tolist() for p in prices)))


def write_csv(path, bars: list[OhlcBar]) -> None:
    """Serialize bars in the ingestion format (round-trips through parse_csv)."""
    write_columns_csv(path, ["date", "open", "high", "low", "close"],
                      [[b.date.isoformat() for b in bars], [b.open for b in bars],
                       [b.high for b in bars], [b.low for b in bars], [b.close for b in bars]])


@dataclass(frozen=True)
class SeriesFrame:
    """The modeled series: per-day (y, z, x) with one-day lags, plus split
    markers. Row t's lag columns equal row t-1's level columns by
    construction; the first input bar exists only to define row 0's lags.
    """

    ticker: str
    dates: tuple
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y_prev: np.ndarray
    x_prev: np.ndarray
    train_end: dt.date | None = None
    eval_start: dt.date | None = None

    def __len__(self) -> int:
        return self.y.size

    @property
    def n_train(self) -> int:
        if self.train_end is None:
            return 0
        return bisect.bisect_right(self.dates, self.train_end)

    @property
    def first_eval(self) -> int:
        """Index of the first evaluation day: dates strictly increase, so the
        scored window is the suffix `dates[first_eval:]`."""
        if self.eval_start is None:
            return len(self.dates)
        return bisect.bisect_left(self.dates, self.eval_start)

    @property
    def n_eval(self) -> int:
        return len(self.dates) - self.first_eval


def series_from_ohlc(dates, o, h, l, c, floor_eps: float = DEFAULT_RV_FLOOR,
                     ticker: str = "") -> SeriesFrame:
    """The modeled series of date-ordered OHLC columns: y = log close,
    floored realized variance z, x = sqrt z, and the lag columns. Every bar
    is checked (and clamped) first; needs at least two bars."""
    if len(dates) < 2:
        raise DataError(f"need at least 2 bars to build a series, got {len(dates)}")
    if not floor_eps > 0.0:
        raise ConfigError(f"realized-variance floor must be positive, got {floor_eps!r}")
    h, l = clamp_ohlc(dates, o, h, l, c)  # clamping never moves the close
    z_all = np.maximum(rs_variance(o, h, l, c), floor_eps)
    y_all = _each(math.log, c)
    x_all = np.sqrt(z_all)
    return SeriesFrame(
        ticker=ticker,
        dates=tuple(dates[1:]),
        y=y_all[1:], z=z_all[1:], x=x_all[1:],
        y_prev=y_all[:-1], x_prev=x_all[:-1],
    )


def build_series(bars: list[OhlcBar], floor_eps: float = DEFAULT_RV_FLOOR,
                 ticker: str = "") -> SeriesFrame:
    """`series_from_ohlc` of bars."""
    return series_from_ohlc(*bar_columns(bars), floor_eps, ticker)


def apply_split(frame: SeriesFrame, train_end: dt.date, eval_start: dt.date) -> SeriesFrame:
    """Mark the training end and evaluation start dates on the frame.

    Edge placements are legal: eval_start at the first date makes the whole
    series evaluation, train_end at the last date leaves it empty (warned).
    """
    first, last = frame.dates[0], frame.dates[-1]
    if not train_end < eval_start:
        raise ConfigError(f"train_end {train_end} must precede eval_start {eval_start}")
    if train_end > last:
        raise ConfigError(f"train_end {train_end} beyond the data range end {last}")
    if eval_start < first:
        raise ConfigError(f"eval_start {eval_start} before the data range start {first}")
    out = dataclasses.replace(frame, train_end=train_end, eval_start=eval_start)
    if out.n_eval == 0:
        warnings.warn(f"{frame.ticker or 'series'}: evaluation window is empty", stacklevel=2)
    return out
