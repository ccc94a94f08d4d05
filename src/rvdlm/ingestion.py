"""CSV ingestion: OHLC parsing, the modeled series frame, and the
train/evaluation split.

The input contract is a UTF-8, comma-separated file with a header row naming
(configurably) date/open/high/low/close columns; dates are ISO-8601; extra
columns are ignored. The first bar only defines the lagged predictors, so N
bars become N-1 modeled rows.
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
from .rv_measures import DEFAULT_RV_FLOOR, OhlcBar, realized_sd, rogers_satchell


@dataclass(frozen=True)
class CsvSchema:
    """Column names for the OHLC input contract (case-insensitive)."""

    date: str = "date"
    open: str = "open"
    high: str = "high"
    low: str = "low"
    close: str = "close"


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Generic header + rows reader shared by every CSV surface."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    return rows[0], rows[1:]


def _parse_date(text: str, path, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{path}:{line}: unparseable date {text!r}") from exc


def parse_csv(path, schema: CsvSchema = CsvSchema()) -> list[OhlcBar]:
    """Read, validate and date-sort an OHLC file into bars.

    Rows with missing or unparseable fields are rejected with their line
    numbers; duplicate dates are an error naming the date.
    """
    header, rows = read_csv_rows(path)
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    cols = {}
    for field in ("date", "open", "high", "low", "close"):
        want = getattr(schema, field).lower()
        if want not in lookup:
            raise DataError(f"{path}: header {header!r} lacks required column {want!r}")
        cols[field] = lookup[want]

    bars = []
    for k, row in enumerate(rows):
        line = k + 2  # header is line 1
        if max(cols.values()) >= len(row):
            raise DataError(f"{path}:{line}: row has {len(row)} fields, expected "
                            f"at least {max(cols.values()) + 1}")
        date = _parse_date(row[cols["date"]], path, line)
        prices = {}
        for field in ("open", "high", "low", "close"):
            text = row[cols[field]].strip()
            if not text:
                raise DataError(f"{path}:{line}: missing {field}")
            try:
                prices[field] = float(text)
            except ValueError as exc:
                raise DataError(f"{path}:{line}: unparseable {field} {text!r}") from exc
            if not math.isfinite(prices[field]):
                raise DataError(f"{path}:{line}: non-finite {field}")
        bars.append(OhlcBar(date, prices["open"], prices["high"],
                            prices["low"], prices["close"]))

    bars.sort(key=lambda b: b.date)
    for prev, cur in zip(bars, bars[1:]):
        if cur.date == prev.date:
            raise DataError("duplicate bar", cur.date)
    return bars


def write_csv(path, bars: list[OhlcBar], schema: CsvSchema = CsvSchema()) -> None:
    """Serialize bars in the ingestion format (round-trips through parse_csv)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.date, schema.open, schema.high, schema.low, schema.close])
        for b in bars:
            writer.writerow([b.date.isoformat(),
                             repr(b.open), repr(b.high), repr(b.low), repr(b.close)])


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


def build_series(bars: list[OhlcBar], floor_eps: float = DEFAULT_RV_FLOOR,
                 ticker: str = "") -> SeriesFrame:
    """Compute y = log close, floored realized variance z, x = sqrt z, and
    the lag columns. Needs at least two bars."""
    if len(bars) < 2:
        raise DataError(f"need at least 2 bars to build a series, got {len(bars)}")
    if not floor_eps > 0.0:
        raise ConfigError(f"realized-variance floor must be positive, got {floor_eps!r}")
    # rogers_satchell validates (and clamps) each bar; clamping never moves the close
    z_all = np.array([max(rogers_satchell(b), floor_eps) for b in bars])
    y_all = np.array([math.log(b.close) for b in bars])
    x_all = np.array([realized_sd(z) for z in z_all])
    return SeriesFrame(
        ticker=ticker,
        dates=tuple(b.date for b in bars[1:]),
        y=y_all[1:], z=z_all[1:], x=x_all[1:],
        y_prev=y_all[:-1], x_prev=x_all[:-1],
    )


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
