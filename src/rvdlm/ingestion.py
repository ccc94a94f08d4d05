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

from .errors import ConfigError, DataError, DomainError
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
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from exc
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


# FLOAT_FORMAT text on whole arrays. A finite v != 0 with decimal exponent
# k = floor(log10|v|) in [_K_MIN, _K_MAX] has as its 17 significant digits
# N = round-half-even(|v| * 10**(16 - k)); there 10**(16 - k) is an exact
# double, so Dekker's error-free product (Numer. Math. 18, 1971) gives that
# product exactly as hi + lo.
_K_MIN, _K_MAX = -6, 16
_BLOCK_BYTES = 1 << 19  # of field slots per block: bounds the temporaries


def _split(a):
    # Dekker's split of a double into two halves of at most 26 bits each
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** j) for j in range(16 - _K_MIN + 1)])


def _scaled(a, j):
    """a * 10**j as hi + lo exactly: hi the rounded product, lo its error."""
    b = _POW10[j]
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _off_range(hi, lo):
    # hi + lo outside [1e16, 1e17), decided on the exact sum: the bounds are doubles
    return (hi < 1e16) | ((hi == 1e16) & (lo < 0)) | (hi > 1e17) | ((hi == 1e17) & (lo >= 0))


# A float field is written in one superset layout of _WIDE bytes, in 4-byte
# slots, and a mask keyed by (sign, k, digit count) keeps the bytes of its
# text. The digits appear twice, so that every text is a few runs of bytes:
#   0 "-0.000"  6 "-"  7..23 digits 0..16  27 "."  28..43 digits 1..16
#   44 "e-05"  48 "e-06"  55 the separator
_WIDE = 56
_QUAD_TEXT = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)
_QUAD_ZEROS = sum(np.arange(10000) % 10 ** j == 0 for j in range(1, 5))  # trailing; 4 for 0000
_SLOTS = np.frombuffer(b"".join([b"-0.0", b"   .", b"e-05", b"e-06"] +
                                [b"00-%d" % d for d in range(10)]), np.uint32)
_CONSTANT = [0, 6, 11, 12]  # the words of _SLOTS[:4], set once per file
_FREE = np.r_[4:24, 28:44]  # words 1-5 and 7-10, which every block rewrites


def _layout(negative: bool, k: int, digits: int) -> np.ndarray:
    """The bytes of the superset layout kept for a value of the sign, decimal
    exponent and significant digit count given, separator included."""
    keep = [55]
    if -4 <= k < 0:  # 0.000ddd
        keep += [0] * negative + [1, 2, *range(3, 2 - k), *range(7, 7 + digits)]
    else:
        keep += [6] * negative + [*range(7, 8 + max(k, 0))]
        if digits > max(k, 0) + 1:  # a point and the fraction, digits 1.. in d.ddde-0X
            keep += [27, *range(28 + max(k, 0), 27 + digits)]
        if k < -4:
            keep += range(44, 48) if k == -5 else range(48, 52)
    mask = np.zeros(_WIDE, bool)
    mask[keep] = True
    return mask


_LAYOUTS = np.array([_layout(s, k, d) for s in (False, True)
                     for k in range(_K_MIN, _K_MAX + 1) for d in range(1, 18)]).view(np.uint64)


def _write_floats(v, text, keep) -> None:
    """Write FLOAT_FORMAT text of the float64 array `v` into `text` and
    `keep`, byte views of shape v.shape + (_WIDE,) whose separator byte and
    _CONSTANT words are set: the superset layout and the mask of the bytes
    its text keeps. A value with no exact array form (non-finite, or k
    outside [_K_MIN, _K_MAX]) is formatted on its own, into the _FREE bytes."""
    shape, v = v.shape, v.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))  # may be one off near a power of ten: fixed below
    exact = (k >= _K_MIN) & (k <= _K_MAX)  # not for 0, inf or NaN
    k = np.where(exact, k, 0).astype(np.intp)
    a = np.where(exact, a, 1.0)
    hi, lo = _scaled(a, 16 - k)
    off = np.flatnonzero(_off_range(hi, lo))
    if off.size:
        k[off] += np.where(hi[off] <= 1e16, -1, 1)
        inside = (k[off] >= _K_MIN) & (k[off] <= _K_MAX)
        exact[off[~inside]] = False
        off = off[inside]
        hi[off], lo[off] = _scaled(a[off], 16 - k[off])
        exact[off[_off_range(hi[off], lo[off])]] = False
    # hi >= 2**53 is an even integer, so rint of the exact lo rounds half-even.
    # N never rounds up to 10**17: for each k in range the largest double
    # below 10**(k + 1) is more than 8 units of N below it.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    n[~exact] = 0  # the digits of zero; the others are formatted below
    slow = np.flatnonzero(~(exact | (v == 0.0)))
    lead, rest = np.divmod(n, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    quads = np.empty((4, v.size), np.int64)  # N's digits 1..16, four at a time
    np.divmod(upper, 10 ** 4, out=(quads[0], quads[1]))
    np.divmod(lower, 10 ** 4, out=(quads[2], quads[3]))
    z = _QUAD_ZEROS[quads]  # N's trailing zeros: 16 for zero
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    key = (np.signbit(v) * (_K_MAX - _K_MIN + 1) + k - _K_MIN) * 17 + 16 - zeros
    key[slow] = 0
    words = text.view(np.uint32)
    digits = _QUAD_TEXT[quads.T].reshape(shape + (4,))
    words[..., 1] = _SLOTS[4 + lead].reshape(shape)
    words[..., 2:6] = digits
    words[..., 7:11] = digits
    keep.view(np.uint64)[...] = _LAYOUTS.take(key, axis=0).reshape(shape + (-1,))
    for i in slow.tolist():
        b = np.frombuffer((FLOAT_FORMAT % v[i]).encode(), np.uint8)
        at = np.unravel_index(i, shape)
        text[at][_FREE[:b.size]] = b
        keep[at] = False
        keep[at][[*_FREE[:b.size], -1]] = True


def _csv_blocks(columns, rows: int):
    """The CSV bytes of the rows, one block at a time. Every field has a
    slot of one width, its separator in the last byte of it (of the
    superset layout for a float field), and one mask compaction per block
    keeps the bytes of the texts; a block holds at most _BLOCK_BYTES of
    slots. `columns` holds float64 arrays, numpy bytes arrays and lists of
    encoded texts. Done once per call: the separators, the constant words,
    one array per maximal run of float columns, and each text column
    packed into slots with the mask of its bytes."""
    ncol = len(columns)
    texts = {c: col for c, col in enumerate(columns) if getattr(col, "dtype", None) != np.float64}
    lens = {c: np.char.str_len(col) if isinstance(col, np.ndarray)
            else np.fromiter(map(len, col), np.intp, rows) for c, col in texts.items()}
    is_float = [c not in texts for c in range(ncol)]
    # one slot width for all: a whole number of 8-byte words, for the views in _write_floats
    longest = max([_WIDE - 1] * any(is_float) + [int(n.max()) for n in lens.values()])
    width = -(-(longest + 1) // 8) * 8
    block = max(1, min(rows, _BLOCK_BYTES // (ncol * width)))
    edges = [c for c, (a, b) in enumerate(zip([False, *is_float], [*is_float, False])) if a != b]
    runs = [(start, stop, np.stack(columns[start:stop], axis=1))  # maximal runs of float columns
            for start, stop in zip(edges[::2], edges[1::2])]
    packed = {c: (np.asarray(col, f"S{width - 1}").view(np.uint8).reshape(rows, -1),
                  np.arange(width - 1) < lens[c][:, None]) for c, col in texts.items()}
    buf = np.zeros((block, ncol, width), np.uint8)
    keep = np.zeros((block, ncol, width), bool)
    sep = [width - 1 if c in texts else _WIDE - 1 for c in range(ncol)]
    for c in range(ncol):
        buf[:, c, sep[c]] = ord("\n") if c == ncol - 1 else ord(",")
        keep[:, c, sep[c]] = True
        if is_float[c]:
            buf[:, c, :_WIDE].view(np.uint32)[:, _CONSTANT] = _SLOTS[:4]
    for r0 in range(0, rows, block):
        n = min(block, rows - r0)
        for c, (text, kept) in packed.items():
            buf[:n, c, :-1] = text[r0:r0 + n]
            keep[:n, c, :-1] = kept[r0:r0 + n]
        for start, stop, v in runs:
            _write_floats(v[r0:r0 + n], buf[:n, start:stop, :_WIDE], keep[:n, start:stop, :_WIDE])
        yield buf[:n][keep[:n]].tobytes()


def write_columns_csv(path, header, columns) -> None:
    """The one CSV writer: a header, then one row per entry of the columns.
    numpy columns are written as FLOAT_FORMAT, a numpy bytes (`S`) array as
    its texts, other columns as `str` of each item (for floats, including
    numpy floats, the shortest round-trip form). Fields are never quoted.
    Columns of unequal lengths raise DomainError before the file is opened.

    Rows go out in blocks of at most _BLOCK_BYTES bytes of field slots (see
    `_csv_blocks`). The text of a block's numpy values is computed on whole
    arrays, exactly (see `_write_floats`); a value with no exact array form,
    such as inf, NaN or one below 1e-6, is formatted by FLOAT_FORMAT on its
    own. Each maximal run of adjacent numpy columns is one such computation
    per block, so a flag or count is best passed as a float array: 0.0 and
    1.0 are written `0` and `1`. Text columns are encoded and packed once
    per file; a bytes array is not encoded at all."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise DomainError(f"{path}: columns of unequal lengths {lengths}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if lengths and lengths[0]:
            fh.writelines(_csv_blocks([list(map(str.encode, map(str, c)))
                                       if not isinstance(c, np.ndarray) else c
                                       if c.dtype.kind == "S" else np.asarray(c, dtype=np.float64)
                                       for c in columns], lengths[0]))


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
    names = [name.strip().lower() for name in header]
    cols = []
    for field in ("date", *PRICE_FIELDS):
        want = getattr(schema, field).lower()
        if want not in names:
            raise DataError(f"{path}: header {header!r} lacks required column {want!r}")
        if names.count(want) > 1:
            raise DataError(f"{path}: header {header!r} names required column {want!r} "
                            f"more than once")
        cols.append(names.index(want))

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
