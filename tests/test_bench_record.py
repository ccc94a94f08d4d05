import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "bench" / "record.py")
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)


def run(side, pair, value):
    return {"side": side, "pair": pair, "workload": "pipeline",
            "metrics": {"pass_norm_s": {"value": value, "unit": "s"}}}


def test_summary_counts_wins_of_the_last_side_and_quartiles():
    runs = [run("parent", 0, 1.2), run("change", 0, 0.9),
            run("change", 1, 1.0), run("parent", 1, 1.0),  # a tie counts for neither
            run("parent", 2, 1.1), run("change", 2, 1.3)]
    out = record.summarize(runs, ["parent", "change"], {"pass_norm_s": "lower"})
    entry = out["pipeline"]["pass_norm_s"]
    assert entry["pairs"] == 3
    assert entry["change_wins"] == 1
    assert entry["parent"] == pytest.approx({"median": 1.1, "q1": 1.05, "q3": 1.15, "n": 3})
    higher = record.summarize(runs, ["parent", "change"], {"pass_norm_s": "higher"})
    assert higher["pipeline"]["pass_norm_s"]["change_wins"] == 1
