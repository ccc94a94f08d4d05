"""write_columns_csv: exact FLOAT_FORMAT text on whole arrays, against the
one-row-at-a-time reference writer."""

import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reference_write_columns_csv
from rvdlm import DomainError, ingestion
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


@pytest.mark.parametrize("n_columns", [1, 3])
def test_column_count_other_than_the_header_rejected_before_the_file_opens(tmp_path, n_columns):
    # one column under two names was once written as rows of one field
    path = tmp_path / "x.csv"
    with pytest.raises(DomainError) as exc:
        write_columns_csv(path, ["a", "b"], [np.array([1.0, 2.0])] * n_columns)
    assert str(exc.value) == f"{path}: {n_columns} columns for 2 header names"
    assert not path.exists()


def test_no_columns_or_rows_write_the_header(tmp_path):
    write_columns_csv(tmp_path / "a.csv", [], [])
    write_columns_csv(tmp_path / "b.csv", ["a", "b"], [np.zeros(0), []])
    assert (tmp_path / "a.csv").read_bytes() == b"\n"
    assert (tmp_path / "b.csv").read_bytes() == b"a,b\n"


def test_float_flag_writes_the_bytes_of_a_text_flag(tmp_path):
    # a 0.0/1.0 column between float columns keeps them one float run; its
    # bytes are those of the "0"/"1" text column it replaces
    rng = np.random.default_rng(5)
    rows = 2500  # more than one block
    flag = (rng.random(rows) < 0.5).astype(np.float64)
    left, right = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-7, 18, (2, rows))
    header = ["date", "left", "flag", "right"]
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(rows)]
    write_columns_csv(tmp_path / "float.csv", header, [dates, left, flag, right])
    write_columns_csv(tmp_path / "text.csv", header,
                      [dates, left, ["1" if f else "0" for f in flag], right])
    got = (tmp_path / "float.csv").read_bytes()
    assert got == (tmp_path / "text.csv").read_bytes()
    assert {line.split(b",")[2] for line in got.splitlines()[1:]} == {b"0", b"1"}


def _budget_columns(rows):
    """Float columns with slow-path values (inf, nan, 1e-300, -0.0, ...) in
    consecutive rows, then values that use the layout's constant words
    (-0.000ddd, d.ddd, d.de-05 and -d.de-06), beside a unicode text column of
    up to 77 bytes and a numpy bytes text column."""
    slow = [math.inf, math.nan, 1e-300, -0.0, -math.inf, 5e-324]
    fast = [-0.00123, 0.0456, -7.25, 3.5e-05, -4.5e-06, 123456.789]
    cols = [np.resize(np.array([*slow[k:], *fast, *slow[:k]]), rows) for k in range(3)]
    day = dt.date(2020, 1, 1)
    return [
        np.array([(day + dt.timedelta(days=i)).isoformat() for i in range(rows)], dtype="S"),
        cols[0],
        ["ünïcode" * (i % 12) for i in range(rows)],  # up to 77 bytes: wider than a float slot
        cols[1], cols[2],
    ]


@pytest.mark.parametrize("budget", [1, 1 << 40])  # one row per block, one block per file
def test_bytes_do_not_depend_on_the_block_budget(tmp_path, monkeypatch, budget):
    columns = _budget_columns(50)
    header = [f"c{i}" for i in range(len(columns))]
    reference_write_columns_csv(tmp_path / "want.csv", header,
                                [c.astype(str).tolist() if i == 0 else c
                                 for i, c in enumerate(columns)])
    monkeypatch.setattr(ingestion, "_BLOCK_BYTES", budget)
    write_columns_csv(tmp_path / "got.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_bytes_column_writes_the_bytes_of_its_texts(tmp_path):
    # empty texts, and a widest text that sets the slot width of every field
    texts = ["", "a", "", "x" * 70, "bc", ""] * 40
    values = np.linspace(-1.0, 1.0, len(texts))
    write_columns_csv(tmp_path / "list.csv", ["t", "v"], [texts, values])
    write_columns_csv(tmp_path / "bytes.csv", ["t", "v"],
                      [np.array(texts, dtype="S"), values])
    got = (tmp_path / "bytes.csv").read_bytes()
    assert got == (tmp_path / "list.csv").read_bytes()
    assert got.count(b"\n,") == 3 * 40 and b"x" * 70 + b"," in got


def test_writer_memory_is_bounded(tmp_path):
    # one 6,538-row trajectory file of the rvldlm layout: a date column and
    # 28 float columns. The writer's own peak stays within the float
    # columns' bytes plus 8 MiB, so that a change of the block budget
    # cannot quietly grow it
    rows, floats = 6538, 28
    rng = np.random.default_rng(3)
    values = rng.standard_normal((floats, rows)) * 10.0 ** rng.integers(-7, 18, (floats, rows))
    day = dt.date(2000, 1, 1)
    dates = np.array([(day + dt.timedelta(days=i)).isoformat() for i in range(rows)], dtype="S")
    columns = [dates, *values]
    header = [f"c{i}" for i in range(len(columns))]
    tracemalloc.start()
    try:
        write_columns_csv(tmp_path / "traj.csv", header, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + (8 << 20)


def test_unicode_column_writes_the_bytes_of_its_str_list(tmp_path):
    # a numpy `U` column is text, whatever it holds: ISO dates, and numbers
    # kept as the texts they are ("1.250" stays 1.250, not 1.25)
    dates = [(dt.date(2020, 1, 1) + dt.timedelta(days=i)).isoformat() for i in range(30)]
    texts = ["1.250", "7", "-0.0", "1e3", "ünï"] * 6
    values = np.linspace(-1.0, 1.0, 30)
    header = ["date", "text", "v"]
    write_columns_csv(tmp_path / "list.csv", header, [dates, texts, values])
    write_columns_csv(tmp_path / "unicode.csv", header, [np.array(dates), np.array(texts), values])
    got = (tmp_path / "unicode.csv").read_bytes()
    assert got == (tmp_path / "list.csv").read_bytes()
    assert got.splitlines()[1].startswith(b"2020-01-01,1.250,")


def test_bool_and_integer_columns_are_float_columns(tmp_path):
    flags = np.array([True, False, True])
    counts = np.array([3, -7, 0], dtype=np.int32)
    sizes = np.array([1, 2, 2 ** 40], dtype=np.uint64)
    write_columns_csv(tmp_path / "x.csv", ["f", "i", "u"], [flags, counts, sizes])
    assert (tmp_path / "x.csv").read_bytes() == b"f,i,u\n1,3,1\n0,-7,2\n1,0,1099511627776\n"


@pytest.mark.parametrize("column", [np.array([1.0, "a"], dtype=object),
                                    np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
                                    np.array([1.0 + 2.0j, 3.0])],
                         ids=["object", "datetime64", "complex"])
def test_other_numpy_dtypes_rejected_before_the_file_opens(tmp_path, column):
    path = tmp_path / "x.csv"
    with pytest.raises(DomainError) as exc:
        write_columns_csv(path, ["v", "w"], [np.zeros(2), column])
    assert str(exc.value).startswith(f"{path}: column 1 has dtype {column.dtype}")
    assert not path.exists()
