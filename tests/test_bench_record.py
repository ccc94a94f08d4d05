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


def test_traced_runs_follow_the_pairs_and_stay_out_of_the_summary(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 2,
        "end_to_end": [{"name": "pass_norm_s", "unit": "s", "better": "lower", "bound": 0.2}]}))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree, workload, seed, seconds, trace))
        if trace:
            metrics = {"kernel.run_filter_s": {"value": 0.5 if tree == "old" else 0.25,
                                               "unit": "s"}}
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
    assert calls[paired:] == [(tree, w, record.TRACED_SEED, 2, 1)
                              for w in record.WORKLOADS for tree in ("old", "new")]
    assert all(r["trace"] == 0 for r in doc["runs"]) and len(doc["runs"]) == paired
    for workload in record.WORKLOADS:
        assert set(doc["summary"][workload]) == {"pass_norm_s"}
        assert doc["summary"][workload]["pass_norm_s"]["change_wins"] == record.PAIRS
        assert doc["traced"]["layers"][workload] == {
            "kernel.run_filter_s": {"parent": 0.5, "change": 0.25}}
    assert [(r["workload"], r["side"], r["trace"]) for r in doc["traced"]["runs"]] == [
        (w, side, 1) for w in record.WORKLOADS for side in ("parent", "change")]


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
