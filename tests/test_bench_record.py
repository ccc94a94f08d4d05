import importlib.util
import json
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

    assert entry["gain_shown"] is False


PARENT = [1.0, 1.05, 0.98, 1.02, 1.01, 0.99, 1.03, 0.97, 1.0, 1.04]  # quartiles 0.9925, 1.0275


@pytest.mark.parametrize("change, shown", [
    ([0.9] * 9 + [1.3], True),  # 9 of 10 pairs won, the medians 0.105 apart
    ([0.9] * 8 + [1.3] * 2, False),  # 8 of 10 pairs won
    ([v - 0.01 for v in PARENT], False),  # every pair won, but the gap is within the quartiles
])
@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_shown_takes_nine_of_ten_pairs_and_a_gap_beyond_the_quartiles(better, change,
                                                                          shown):
    # for "higher" every value is negated, which mirrors the case
    sign = 1.0 if better == "lower" else -1.0
    runs = [run(side, pair, sign * value) for pair, values in enumerate(zip(PARENT, change))
            for side, value in zip(("parent", "change"), values)]
    entry = record.summarize(runs, ["parent", "change"], {"pass_norm_s": better})
    assert entry["pipeline"]["pass_norm_s"]["gain_shown"] is shown
    other = {"lower": "higher", "higher": "lower"}[better]
    reverse = record.summarize(runs, ["parent", "change"], {"pass_norm_s": other})
    assert reverse["pipeline"]["pass_norm_s"]["gain_shown"] is False


def test_traced_runs_follow_the_pairs_and_stay_out_of_the_summary(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 2,
        "end_to_end": [{"name": "pass_norm_s", "unit": "s", "better": "lower", "bound": 0.2}]}))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree, workload, seed, seconds, trace))
        if trace:
            # the medians over seeds 1-3 are 0.5 and 0.25, neither a mean; the
            # spreads 0.4-0.9 and 0.2-0.3 overlap
            value = {"old": (0.5, 0.9, 0.4), "new": (0.3, 0.2, 0.25)}[tree][seed - 1]
            metrics = {"kernel.run_filter_s": {"value": value, "unit": "s"}}
        else:
            metrics = {"pass_norm_s": {"value": 1.0 if tree == "old" else 0.9, "unit": "s"}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics,
                "report": {}, "environment": {"numpy": "x"}}

    monkeypatch.setattr(record, "ROOT", str(tmp_path))
    monkeypatch.setattr(record, "run_once", fake_run)
    monkeypatch.setattr(record, "identify", lambda tree: {"revision": tree})
    assert record.main(["--label", "t", "--side", "parent=old", "--side", "change=new"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())

    paired = 2 * len(record.WORKLOADS) * record.PAIRS
    assert all(c[4] == 0 for c in calls[:paired])
    # the order of the sides alternates from traced run to traced run, as in the pairs
    orders = [("old", "new"), ("new", "old"), ("old", "new")]
    assert record.TRACED_RUNS == 3
    assert calls[paired:] == [(tree, w, seed, 2, 1) for seed, order in zip((1, 2, 3), orders)
                              for w in record.WORKLOADS for tree in order]
    assert all(r["trace"] == 0 for r in doc["runs"]) and len(doc["runs"]) == paired
    for workload in record.WORKLOADS:
        assert set(doc["summary"][workload]) == {"pass_norm_s"}
        assert doc["summary"][workload]["pass_norm_s"]["change_wins"] == record.PAIRS
        assert doc["traced"]["layers"][workload] == {"kernel.run_filter_s": {
            "parent": {"median": 0.5, "min": 0.4, "max": 0.9},
            "change": {"median": 0.25, "min": 0.2, "max": 0.3}}}
    names = {"old": "parent", "new": "change"}
    assert [(r["workload"], r["side"], r["seed"], r["trace"]) for r in doc["traced"]["runs"]] == [
        (w, names[tree], seed, 1) for seed, order in zip((1, 2, 3), orders)
        for w in record.WORKLOADS for tree in order]
    assert doc["settings"]["traced_seeds"] == [1, 2, 3]


def test_identify_counts_src_lines(tmp_path):
    # as `wc -l` over the Python files of src/; other files and caches do not count
    pkg = tmp_path / "src" / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("one\ntwo\n")
    (pkg / "__pycache__" / "c.py").write_text("w = 4\n")
    side = record.identify(str(tmp_path))
    assert side["src_lines"] == 3
    (pkg / "b.py").write_text("z = 3\nq = 4\n")
    after = record.identify(str(tmp_path))
    assert after["src_lines"] == 4 and after["src_sha256"] != side["src_sha256"]
