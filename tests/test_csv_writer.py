"""write_columns_csv: exact FLOAT_FORMAT text on whole arrays, against the
one-row-at-a-time reference writer."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reference_write_columns_csv
from rvdlm import DomainError
from rvdlm.ingestion import write_columns_csv


def _text(tmp_path_factory, values) -> list[str]:
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    write_columns_csv(path, ["v"], [np.array(values, dtype=np.float64)])
    return path.read_text(encoding="utf-8").split("\n")[1:-1]


def _ulps(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


POWERS = [float(u) for k in range(-8, 19) for u in _ulps(10.0 ** k)]
TIES = [1234567890123456.25, 1234567890123456.75]  # exact halves at the 17th digit
SPECIAL = [0.0, -0.0, 5e-324, 2.0 ** 53 - 1, 2.0 ** 53 + 1, 2.0 ** 53 + 2,
           9.9999999999999995e-07, math.inf, -math.inf, math.nan]
BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | BITS, min_size=1, max_size=40))
@example(POWERS)
@example([-v for v in POWERS])
@example(TIES + [-v for v in TIES])
@example(SPECIAL + [-v for v in SPECIAL])
def test_float_text_equals_float_format(tmp_path_factory, values):
    assert _text(tmp_path_factory, values) == ["%.17g" % v for v in values]


def _columns(rng, rows):
    """Mixed columns as the program passes them: float arrays (including the
    strided rows of a transposed matrix, as `rvdlm synth --truth-out` does),
    an int array, dates, text and Python floats."""
    theta = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-7, 18, (rows, 3))
    wild = rng.integers(0, 2 ** 63, rows, dtype=np.int64).view(np.float64).copy()
    odd = rng.random(rows) < 0.1
    wild[odd] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300], odd.sum())
    day = dt.date(2020, 1, 1)
    return [
        [day + dt.timedelta(days=i) for i in range(rows)],
        *theta.T,
        wild,
        ["ünïcode" * (i % 11) for i in range(rows)],  # up to 77 bytes: wider than a float slot
        rng.integers(-2 ** 62, 2 ** 62, rows),
        rng.standard_normal(rows).tolist(),
        -np.abs(rng.standard_normal(rows)) * 1e-5,  # d.ddde-05 and e-06
    ]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, 2, 1024, 1025]) | st.integers(0, 300), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 8), max_size=12))
def test_whole_file_equals_reference(tmp_path_factory, rows, seed, picks):
    # any choice and order of the columns: text only, numpy only, or mixed
    every = _columns(np.random.default_rng(seed), rows)
    columns = [every[i] for i in picks]
    header = [f"c{i}" for i in range(len(columns))]
    base = tmp_path_factory.getbasetemp()
    reference_write_columns_csv(base / "want.csv", header, columns)
    write_columns_csv(base / "got.csv", header, columns)
    assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


def test_unequal_column_lengths_rejected_before_the_file_opens(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(DomainError, match=r"\[3, 2\]"):
        write_columns_csv(path, ["a", "b"], [np.zeros(3), ["1", "2"]])
    assert not path.exists()


def test_no_columns_or_rows_write_the_header(tmp_path):
    write_columns_csv(tmp_path / "a.csv", [], [])
    write_columns_csv(tmp_path / "b.csv", ["a", "b"], [np.zeros(0), []])
    assert (tmp_path / "a.csv").read_bytes() == b"\n"
    assert (tmp_path / "b.csv").read_bytes() == b"a,b\n"
