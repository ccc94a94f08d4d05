import datetime as dt
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rvdlm
from rvdlm import (ConfigError, CsvSchema, DataError, HyperParams, ModelClass, NumericalError,
                   OhlcBar, SyntheticParams, generate_synthetic, kernel, load_config, pipeline,
                   run_filter_pipeline, slowly_varying_theta, write_csv)
from rvdlm.cli import SYNTH_KEYS, main
from rvdlm.ingestion import read_csv_rows
from rvdlm.pipeline import DEFAULT_HYPERPARAMS, ModelSpec, RunConfig, SeriesSpec


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tic.csv"
    theta = slowly_varying_theta(ModelClass.RVLDLM, 700,
                                 base=[0.0046, 0.999, -0.5, 0.4],
                                 amplitude=[0.0, 0.0, 0.1, 0.1])
    params = SyntheticParams(model=ModelClass.RVLDLM, theta=theta)
    bars, _ = generate_synthetic(params, np.random.default_rng(202))
    write_csv(path, bars)
    return str(path), bars


def base_config(data_path, out_dir, models=None):
    return {
        "series": [{"ticker": "TIC", "path": data_path, "s1": 1e-4}],
        "models": models or [
            {"name": "svdlm", "variant": "svdlm"},
            {"name": "rvdlm", "variant": "rvdlm"},
            {"name": "rvldlm", "variant": "rvldlm"},
        ],
        "train_end": "2001-01-31",
        "eval_start": "2001-02-01",
        "out_dir": out_dir,
        "seed": 7,
    }


class TestConfig:
    def test_defaults_embedded(self, data_csv, tmp_path):
        cfg = load_config(base_config(data_csv[0], str(tmp_path / "o")))
        by_name = {m.name: m for m in cfg.models}
        assert by_name["svdlm"].hp.delta == 0.999
        assert by_name["svdlm"].hp.beta == 0.925
        assert by_name["rvldlm"].hp.beta == 0.875
        assert by_name["rvldlm"].hp.alpha == 2.75
        prior = by_name["rvldlm"].initial_prior(1e-4)
        np.testing.assert_allclose(prior.a, [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(np.diag(prior.R),
                                   np.array([0.10, 0.01, 0.05, 0.05]) / 0.999)
        assert prior.n_star == 0.875
        assert prior.s_prev == 1e-4

    def test_missing_file_is_config_error(self, tmp_path):
        raw = base_config("/no/such/file.csv", str(tmp_path / "o"))
        with pytest.raises(ConfigError):
            load_config(raw)

    def test_unknown_variant_rejected(self, data_csv, tmp_path):
        raw = base_config(data_csv[0], str(tmp_path / "o"),
                          models=[{"name": "m", "variant": "garch"}])
        with pytest.raises(ConfigError):
            load_config(raw)

    def test_duplicate_model_names_rejected(self, data_csv, tmp_path):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["models"] = [{"name": "m", "variant": "svdlm"},
                         {"name": "m", "variant": "rvdlm"}]
        with pytest.raises(ConfigError):
            load_config(raw)

    @pytest.mark.parametrize("field,value", [
        ("r1_diag", [0.10, -0.01, 0.05]),
        ("r1_diag", [0.10, math.nan, 0.05]),
        ("a1", [0.0, math.nan, 0.0]),
        ("a1", [0.0, 1.0]),
        ("n_star_1", 0.0),
        ("n_star_1", -1.0),
        ("n_star_1", math.nan),
    ])
    def test_invalid_model_prior_is_config_error(self, data_csv, tmp_path, capsys,
                                                 field, value):
        raw = base_config(data_csv[0], str(tmp_path / "o"),
                          models=[{"name": "m", "variant": "rvdlm", field: value}])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        assert f"'m': {field}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("owner,field,value", [
        (None, "schema", {"dat": "Day"}),
        (None, "floor_eps", "abc"),
        (None, "seed", "x"),
        ("rvdlm", "delta", 1.5),
        ("rvdlm", "beta", 0.0),
        ("rvdlm", "alpha", math.nan),
        # JSON types are strict: no truncation of seeds, no numbers as strings
        (None, "seed", 1.5),
        (None, "seed", True),
        ("rvdlm", "delta", "0.99"),
        ("rvdlm", "beta", "0.9"),
        ("rvdlm", "alpha", "2.75"),
        ("rvdlm", "alpha", True),
        ("series", "s1", "1e-4"),
        (None, "floor_eps", "1e-12"),
        ("rvdlm", "n_star_1", "0.9"),
        ("rvdlm", "a1", ["0", "1", "0"]),
        ("rvdlm", "a1", "010"),
        ("rvdlm", "r1_diag", 0.1),
        # a None default means absent: a JSON null is refused, not taken as absent
        ("rvdlm", "delta", None),
        ("rvdlm", "beta", None),
        ("rvdlm", "alpha", None),
        ("rvdlm", "n_star_1", None),
        # names, paths and dates are JSON strings, never coerced by str()
        ("series", "ticker", 5),
        ("series", "ticker", ["a"]),
        ("series", "path", 5),
        ("rvdlm", "name", None),
        ("rvdlm", "variant", 5),
        (None, "out_dir", False),
        (None, "train_end", 20000103),
        (None, "eval_start", 20010201),
        (None, "schema", {"date": 5}),
        (None, "schema", ["date"]),
        (None, "series", "TIC"),
        (None, "series", [["TIC"]]),
        (None, "models", [5]),
        # finite values only: an infinite floor raised every z to inf (exit 3)
        (None, "floor_eps", math.inf),
        # svdlm observes no realized variance: its alpha was echoed but changed nothing
        ("svdlm", "alpha", 2.0),
        # these failed with a traceback (exit 1) once every series had been filtered
        (None, "out_dir", ""),
        (None, "out_dir", __file__),
        (None, "series", []),
        (None, "models", []),
    ])
    def test_malformed_field_is_config_error(self, data_csv, tmp_path, capsys,
                                             owner, field, value):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        if owner is None:
            entry = raw
        elif owner == "series":
            entry = raw["series"][0]
        else:
            entry = next(m for m in raw["models"] if m["name"] == owner)
        entry[field] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert field in err
        if owner not in (None, "series"):
            assert f"model {owner!r}" in err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("field,tickers,models", [
        ("ticker", ["TIC"], []),  # a second series with the first one's ticker
        ("ticker", [""], []),
        ("ticker", ["x/y"], []),
        ("ticker", ["x\\y"], []),
        ("ticker", ["x\0y"], []),
        ("ticker", [".."], []),
        ("ticker", ["x__y"], []),
        ("model name", [], [""]),
        ("model name", [], ["a/b"]),
        ("model name", [], ["a\\b"]),
        ("model name", [], ["a\0b"]),
        ("model name", [], ["..b"]),
        ("model name", [], ["a__b"]),
        ("model name", [], ["a_over_b"]),
        # legal names that meet where they are joined: both write A___m.csv
        ("output file name", ["A_", "A"], ["m", "_m"]),
        # (y, x_over) and (over_y, x) both write TIC__BF__x_over_over_y.csv
        ("output file name", [], ["y", "over_y", "x", "x_over"]),
    ])
    def test_colliding_or_escaping_name_is_config_error(self, data_csv, tmp_path, capsys,
                                                         field, tickers, models):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["series"] += [{"ticker": t, "path": data_csv[0], "s1": 1e-4} for t in tickers]
        raw["models"] += [{"name": m, "variant": "rvdlm"} for m in models]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_infinite_s1_is_config_error(self, data_csv, tmp_path, capsys):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["series"][0]["s1"] = math.inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        assert "s1 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("owner,key,named", [
        (None, "flor_eps", "config"),
        ("series", "sl", "series 'TIC'"),
        ("rvdlm", "detla", "model 'rvdlm'"),
        ("schema", "dat", "schema"),
        ("svdlm", "n_star1", "model 'svdlm'"),
    ])
    def test_unknown_key_is_config_error(self, data_csv, tmp_path, capsys, owner, key, named):
        # a misspelled key would leave its default in place, silently
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        if owner is None:
            entry = raw
        elif owner == "series":
            entry = raw["series"][0]
        elif owner == "schema":
            entry = raw.setdefault("schema", {})
        else:
            entry = next(m for m in raw["models"] if m["name"] == owner)
        entry[key] = 0.5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        assert f"{named}: unknown key {key!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("owner,key,named", [
        (None, "train_end", "config"),
        (None, "eval_start", "config"),
        (None, "series", "config"),
        (None, "models", "config"),
        ("series", "ticker", "series {'path'"),
        ("series", "path", "series 'TIC'"),
        ("series", "s1", "series 'TIC'"),
        ("rvdlm", "variant", "model 'rvdlm'"),
    ])
    def test_missing_key_is_config_error(self, data_csv, tmp_path, capsys, owner, key, named):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        if owner is None:
            entry = raw
        elif owner == "series":
            entry = raw["series"][0]
        else:
            entry = next(m for m in raw["models"] if m["name"] == owner)
        del entry[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f": missing key {key!r}" in err and named in err
        assert not os.path.exists(tmp_path / "o")

    def test_zero_alpha_on_svdlm_is_accepted(self, data_csv, tmp_path):
        raw = base_config(data_csv[0], str(tmp_path / "o"),
                          models=[{"name": "svdlm", "variant": "svdlm", "alpha": 0}])
        assert load_config(raw).models[0].hp.alpha == 0.0

    @pytest.mark.parametrize("variant", ["rvdlm", "rvldlm"])
    def test_zero_alpha_on_an_rv_model_is_config_error(self, data_csv, tmp_path, capsys,
                                                       variant):
        raw = base_config(data_csv[0], str(tmp_path / "o"),
                          models=[{"name": "m", "variant": variant, "alpha": 0}])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error [filter]: model 'm': {variant} requires alpha > 0\n"
        assert not os.path.exists(tmp_path / "o")

    def test_a_model_without_a_name_is_named_by_its_variant(self, data_csv, tmp_path):
        raw = base_config(data_csv[0], str(tmp_path / "o"),
                          models=[{"variant": "svdlm"}, {"variant": "rvldlm"}])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 0
        assert sorted(os.listdir(tmp_path / "o")) == [
            "TIC__BF__rvldlm_over_svdlm.csv", "TIC__rvldlm.csv", "TIC__svdlm.csv", "summary.json"]
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [m["name"] for m in summary["config"]["models"]] == ["svdlm", "rvldlm"]

    def test_partial_schema_keeps_default_column_names(self, data_csv, tmp_path):
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["schema"] = {"date": "Day"}
        assert load_config(raw).schema == CsvSchema(date="Day")


@pytest.mark.parametrize("variant, alpha, message", [
    (ModelClass.SVDLM, 2.75, "model 'A': alpha must be 0 for svdlm, which observes no "
                             "realized variance, got 2.75"),
    (ModelClass.RVDLM, 0.0, "model 'A': rvdlm requires alpha > 0"),
    (ModelClass.RVLDLM, 0.0, "model 'A': rvldlm requires alpha > 0")],
    ids=["svdlm", "rvdlm", "rvldlm"])
def test_python_built_model_spec_keeps_the_alpha_rules(data_csv, tmp_path, variant, alpha,
                                                       message):
    # built in Python, an svdlm spec with alpha 2.75 once ran and echoed it, and an
    # rvdlm spec with alpha 0 read the data first and failed as a DomainError (exit 4)
    out = tmp_path / "o"
    with pytest.raises(ConfigError) as info:
        run_filter_pipeline(RunConfig(
            (SeriesSpec("A", data_csv[0], 1e-4),),
            (ModelSpec("A", variant, HyperParams(0.999, 0.9, alpha)),),
            dt.date(2001, 1, 31), dt.date(2001, 2, 1), str(out)))
    assert str(info.value) == message
    assert not out.exists()


def test_numpy_scalars_in_a_python_built_config_write_the_float_run(data_csv, tmp_path):
    # built in Python with numpy scalars, a config once filtered every pair and then
    # failed writing summary.json: "Object of type float32 is not JSON serializable"
    out = tmp_path / "o"

    def run(cast, seed):
        config = RunConfig(
            (SeriesSpec("TIC", data_csv[0], cast(1e-4)),),
            tuple(ModelSpec(v.value, v, DEFAULT_HYPERPARAMS[v], n_star_1=cast(0.875))
                  for v in ModelClass),
            dt.date(2001, 1, 31), dt.date(2001, 2, 1), str(out), seed=seed)
        run_filter_pipeline(config)
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        for f in files:
            (out / f).unlink()
        return files

    got = run(np.float32, np.int64(3))
    assert len(got) == 7 and got == run(lambda v: float(np.float32(v)), 3)


def test_pipeline_prefills_the_plans_its_filters_take(data_csv, tmp_path):
    # the quantile table's dofs come from the key run_filter uses: svdlm and
    # rvdlm build the two plans, rvldlm and the three filters look them up
    kernel._dof_plan.cache_clear()
    run_filter_pipeline(load_config(base_config(data_csv[0], str(tmp_path / "o"))))
    info = kernel._dof_plan.cache_info()
    assert (info.hits, info.misses) == (4, 2)


class TestPipeline:
    def test_outputs_complete_and_consistent(self, data_csv, tmp_path):
        out = str(tmp_path / "out")
        summary = run_filter_pipeline(load_config(base_config(data_csv[0], out)))
        entry = summary["series"]["TIC"]
        assert entry["days_modeled"] == 700
        assert entry["days_train"] + entry["days_eval"] == 700
        for name in ("svdlm", "rvdlm", "rvldlm"):
            path = os.path.join(out, f"TIC__{name}.csv")
            header, rows = read_csv_rows(path)
            assert len(rows) == 700
            assert header[0] == "date_iso"
            idx = {h: i for i, h in enumerate(header)}
            # scored flags match the split
            scored = sum(int(r[idx["scored"]]) for r in rows)
            assert scored == entry["days_eval"]
            # cumulative score equals the emitted increments
            total = math.fsum(float(r[idx["log_score_nats"]])
                              for r in rows if r[idx["scored"]] == "1")
            assert total == pytest.approx(
                entry["models"][name]["cumulative_log_score"], rel=1e-12)
            # interval columns are ordered
            for r in rows[::97]:
                assert (float(r[idx["coef_ar1_lo05"]]) <= float(r[idx["coef_ar1_med"]])
                        <= float(r[idx["coef_ar1_hi95"]]))
                assert (float(r[idx["sd_daily_lo05"]]) <= float(r[idx["sd_daily_med"]])
                        <= float(r[idx["sd_daily_hi95"]]))
            # the realized-variance tally rides along for the models that see z
            if name == "svdlm":
                assert "log_score_z_nats" not in idx
            else:
                assert "log_score_z_nats" in idx
                assert "cumulative_log_score_z" in entry["models"][name]
        assert os.path.exists(os.path.join(out, "summary.json"))
        # BF files: pair names follow config order (later over earlier)
        bf = os.path.join(out, "TIC__BF__rvldlm_over_svdlm.csv")
        header, rows = read_csv_rows(bf)
        assert len(rows) == entry["days_eval"]
        assert float(rows[-1][1]) == pytest.approx(
            entry["log_bayes_factors"]["rvldlm_over_svdlm"], rel=1e-12)

    def test_identical_models_zero_bf(self, data_csv, tmp_path):
        out = str(tmp_path / "out0")
        raw = base_config(data_csv[0], out, models=[
            {"name": "a", "variant": "rvdlm"},
            {"name": "b", "variant": "rvdlm"},
        ])
        run_filter_pipeline(load_config(raw))
        header, rows = read_csv_rows(os.path.join(out, "TIC__BF__b_over_a.csv"))
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_empty_eval_window(self, data_csv, tmp_path):
        path, bars = data_csv
        out = str(tmp_path / "out_empty")
        raw = base_config(path, out)
        last = bars[-1].date
        raw["train_end"] = last.isoformat()
        raw["eval_start"] = (last + dt.timedelta(days=1)).isoformat()
        with pytest.warns(UserWarning):
            summary = run_filter_pipeline(load_config(raw))
        entry = summary["series"]["TIC"]
        assert entry["days_eval"] == 0
        assert entry["models"]["rvdlm"]["scored_days"] == 0
        header, rows = read_csv_rows(os.path.join(out, "TIC__rvdlm.csv"))
        assert len(rows) == 700  # trajectories still emitted
        header, rows = read_csv_rows(os.path.join(out, "TIC__BF__rvdlm_over_svdlm.csv"))
        assert len(rows) == 0

    def test_unit_discount_reaches_large_gamma_shapes(self, tmp_path):
        # beta = 1 adds alpha + 1 = 701 dof a day: by day 200 the precision
        # quantiles solve G(a, a) at a = n/2 near 7e4, past the old term cap
        path = tmp_path / "long.csv"
        theta = slowly_varying_theta(ModelClass.RVDLM, 200, base=[0.0046, 0.999, 0.1])
        bars, _ = generate_synthetic(SyntheticParams(model=ModelClass.RVDLM, theta=theta),
                                     np.random.default_rng(5))
        write_csv(path, bars)
        out = str(tmp_path / "o")
        raw = base_config(str(path), out,
                          models=[{"name": "m", "variant": "rvdlm", "beta": 1.0, "alpha": 700}])
        raw.update(train_end=bars[100].date.isoformat(), eval_start=bars[101].date.isoformat())
        summary = run_filter_pipeline(load_config(raw))
        assert summary["series"]["TIC"]["models"]["m"]["final_n"] > 1.4e5
        header, rows = read_csv_rows(os.path.join(out, "TIC__m.csv"))
        idx = {h: i for i, h in enumerate(header)}
        for r in rows[-3:]:
            assert (float(r[idx["sd_daily_lo05"]]) < float(r[idx["sd_daily_med"]])
                    < float(r[idx["sd_daily_hi95"]]))

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        raw1 = base_config(data_csv[0], str(tmp_path / "r1"))
        raw2 = base_config(data_csv[0], str(tmp_path / "r2"))
        run_filter_pipeline(load_config(raw1))
        run_filter_pipeline(load_config(raw2))
        for name in ("TIC__rvldlm.csv", "TIC__BF__rvldlm_over_rvdlm.csv"):
            a = open(os.path.join(str(tmp_path / "r1"), name), "rb").read()
            b = open(os.path.join(str(tmp_path / "r2"), name), "rb").read()
            assert a == b
        sa = json.load(open(os.path.join(str(tmp_path / "r1"), "summary.json")))
        sb = json.load(open(os.path.join(str(tmp_path / "r2"), "summary.json")))
        sa["config"].pop("out_dir"); sb["config"].pop("out_dir")
        assert sa == sb

    def test_trajectory_floats_are_one_run_and_bf_dates_are_iso(self, data_csv, tmp_path,
                                                                monkeypatch):
        # every trajectory column but the date is a float64 array, so each
        # block of rows is formatted in one float run; the Bayes-factor
        # writer gets the ISO texts the trajectories hold, as numpy bytes
        calls, bf_dates = [], []
        columns, write_bf = pipeline._trajectory_columns, pipeline._write_bayes_factors

        def spy_columns(*args):
            calls.append(columns(*args))
            return calls[-1]

        def spy_bf(out_dir, ticker, scores):
            bf_dates.extend(dates for dates, _ in scores.values())
            return write_bf(out_dir, ticker, scores)

        monkeypatch.setattr(pipeline, "_trajectory_columns", spy_columns)
        monkeypatch.setattr(pipeline, "_write_bayes_factors", spy_bf)
        run_filter_pipeline(load_config(base_config(data_csv[0], str(tmp_path / "o"))))
        iso = [b.date.isoformat().encode() for b in data_csv[1][1:]]
        assert len(calls) == 3 and len(bf_dates) == 3
        for header, cols, _ in calls:
            assert header[0] == "date_iso" and cols[0].dtype.kind == "S" and cols[0].tolist() == iso
            for name, col in zip(header[1:], cols[1:]):
                assert isinstance(col, np.ndarray) and col.dtype == np.float64, name
                assert col.shape == (len(iso),), name
        assert all(dates.tolist() == iso[-len(dates):] and dates.size and dates.dtype.kind == "S"
                   for dates in bf_dates)


class TestCli:
    def test_filter_subcommand(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = str(tmp_path / "cli_out")
        cfg_path.write_text(json.dumps(base_config(data_csv[0], out)))
        rc = main(["filter", "--config", str(cfg_path)])
        assert rc == 0
        assert "TIC" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_out_and_seed_flags_win_over_the_config(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data_csv[0], str(tmp_path / "cfg_out"))))
        out = str(tmp_path / "flag_out")
        assert main(["filter", "--config", str(cfg_path), "--out", out, "--seed", "5"]) == 0
        assert f"outputs written to {out}" in capsys.readouterr().out
        assert not os.path.exists(tmp_path / "cfg_out")
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["config"]["out_dir"] == out
        assert summary["seed"] == 5

    def test_empty_out_flag_is_config_error(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data_csv[0], str(tmp_path / "cfg_out"))))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg_path), "--out", ""]) == 2
        assert "out_dir must be non-empty" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("read", ["series", "config"])
    def test_filter_refuses_to_replace_a_file_it_reads(self, data_csv, tmp_path, capsys, read):
        # the series at out/TIC__svdlm.csv, or the config at out/summary.json,
        # each named through out/../out so that only its real path matches
        out = tmp_path / "out"
        out.mkdir()
        series, cfg = out / "TIC__svdlm.csv", out / "summary.json"
        if read == "config":
            series = tmp_path / "tic.csv"
        series.write_bytes(Path(data_csv[0]).read_bytes())
        named = {"series": str(out / ".." / "out" / series.name),
                 "config": str(out / ".." / "out" / cfg.name)}
        cfg.write_text(json.dumps(base_config(named["series"] if read == "series"
                                              else str(series), str(out))))

        def files():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = files()
        args = ["filter", "--config", named["config"] if read == "config" else str(cfg)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error [filter]: {read}" in err and f"{named[read]} is an output file" in err
        assert files() == before
        # --out moves the run's files away from what it reads
        assert main(args + ["--out", str(tmp_path / "elsewhere")]) == 0
        assert {p: b for p, b in files().items() if "elsewhere" not in p.parts} == before

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["filter", "--config", str(cfg_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("date,open,high,low,close\n2020-01-02,100,90,99,100\n"
                           "2020-01-03,100,101,99,100\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(str(bad_csv), str(tmp_path / "o"))))
        assert main(["filter", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "TIC" in err and "2020-01-02" in err

    def test_price_ratio_outside_the_float_range_exit_code(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("date,open,high,low,close\n2020-01-02,100,101,99,100\n"
                           "2020-01-03,1e300,1e300,1e-300,1e300\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(str(bad_csv), str(tmp_path / "o"))))
        assert main(["filter", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "TIC" in err and "2020-01-03" in err and "below 2.2250738585072014e-308" in err

    def test_wrapped_error_keeps_its_date(self, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("date,open,high,low,close\n2020-01-02,100,90,99,100\n"
                           "2020-01-03,100,101,99,100\n")
        config = load_config(base_config(str(bad_csv), str(tmp_path / "o")))
        with pytest.raises(DataError, match="^series 'TIC' \\[ingestion\\]: ") as info:
            run_filter_pipeline(config)
        assert info.value.date == dt.date(2020, 1, 2)
        assert str(info.value).count("[date=2020-01-02]") == 1

    def test_emission_error_names_series_and_model(self, data_csv, tmp_path, capsys,
                                                   monkeypatch):
        def fail(a, u):
            raise NumericalError("gamma quantile solver failed")
        monkeypatch.setattr(pipeline, "inv_reg_lower_gamma_lanes", fail)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(data_csv[0], str(tmp_path / "o"))))
        assert main(["filter", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "series 'TIC' model 'svdlm'" in err and "gamma quantile solver failed" in err
        assert not os.path.exists(tmp_path / "o")

    def test_numerical_error_names_the_floor(self, data_csv, tmp_path, capsys):
        # a floor far above every realized variance raises all of them; the
        # filter then fails, and its error says how many days the floor took
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["floor_eps"] = 1e300
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "series 'TIC' model 'svdlm'" in err and "nonpositive one-step scale" in err
        assert "(700 of 700 realized variances floored at floor_eps=1e+300)" in err
        assert not os.path.exists(tmp_path / "o")

    def test_empty_input_csv_is_a_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(str(empty), str(tmp_path / "o"))))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == \
            f"error [filter]: series 'TIC' [ingestion]: {empty} is empty\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_failed_run_leaves_no_outputs(self, data_csv, tmp_path, capsys):
        # the first series filters fine; the second has a bar with high < low
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("date,open,high,low,close\n2020-01-02,100,90,99,100\n"
                           "2020-01-03,100,101,99,100\n")
        raw = base_config(data_csv[0], str(tmp_path / "o"))
        raw["series"].append({"ticker": "BAD", "path": str(bad_csv), "s1": 1e-4})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg)]) == 3
        assert "BAD" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_failed_run_makes_no_missing_parent(self, tmp_path, capsys):
        # the output directory's missing parents are made only once the run succeeded
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("date,open,high,low,close\n2020-01-02,100,90,99,100\n")
        raw = base_config(str(bad_csv), str(tmp_path / "new" / "deeper" / "run"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg)]) == 3
        assert "TIC" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_synth_roundtrip_and_replay(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        truth = str(tmp_path / "truth.csv")
        args = ["synth", "--model", "rvldlm", "--days", "120", "--seed", "9"]
        assert main(args + ["--out", out1, "--truth-out", truth]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1).read() == open(out2).read()
        header, rows = read_csv_rows(truth)
        assert len(rows) == 120 and header[0] == "date_iso"
        # generated file is valid pipeline input
        cfg = tmp_path / "cfg.json"
        raw = base_config(out1, str(tmp_path / "syn_out"))
        raw["train_end"] = "2000-03-01"
        raw["eval_start"] = "2000-03-02"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("field,params", [
        ("v0", {"v0": "1e-4"}),
        ("alpha", {"alpha": [2.75]}),
        ("theta_base", {"theta_base": ["a", 1, 0]}),
        ("theta_base", {"theta_base": ["0.0046", 0.999, 0.1]}),
        ("theta_base", {"theta_base": [0.0046, 0.999]}),
        ("theta_path", {"theta_path": [[0.0046, 0.999, 0.1], [0.0046, 0.999]]}),
        # a non-finite value wrote inf or nan prices, or crashed
        ("floor_eps", {"floor_eps": math.inf}),
        ("v0", {"v0": math.inf}),
        ("y0", {"y0": math.nan}),
        ("theta path", {"theta_base": [0.0046, math.inf, 0.1]}),
        ("JSON object", [0.0046, 0.999, 0.1]),
        ("theta_path has shape (1, 3), --days is 2", {"theta_path": [[0.0046, 0.999, 0.1]]}),
        ("beta must be in (0, 1], got 1.5", {"beta": 1.5}),
    ])
    def test_synth_bad_params_are_config_errors(self, tmp_path, capsys, field, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "s.csv"
        assert main(["synth", "--model", "rvdlm", "--days", "2", "--params", str(path),
                     "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--truth-out"])
    @pytest.mark.parametrize("parent", ["missing", "a_file"])
    def test_synth_bad_output_path_is_config_error(self, tmp_path, capsys, flag, parent):
        (tmp_path / "a_file").write_text("")
        paths = {"--out": str(tmp_path / "s.csv"), "--truth-out": str(tmp_path / "t.csv")}
        paths[flag] = str(tmp_path / parent / "x.csv")
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", "5",
                     *(a for kv in paths.items() for a in kv)]) == 2
        assert f"error [synth]: {flag} " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flag", ["--out", "--truth-out"])
    def test_synth_output_naming_a_directory_is_config_error(self, tmp_path, capsys, flag):
        (tmp_path / "a_dir").mkdir()
        paths = {"--out": str(tmp_path / "s.csv"), "--truth-out": str(tmp_path / "t.csv")}
        paths[flag] = str(tmp_path / "a_dir")
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", "5",
                     *(a for kv in paths.items() for a in kv)]) == 2
        assert f"error [synth]: {flag} {paths[flag]!r} is a directory, not a file path" in \
            capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("kind", ["fifo", "dangling link"])
    def test_synth_output_that_is_not_a_regular_file_is_config_error(self, tmp_path, capsys,
                                                                     kind):
        # the stage would replace it, where a direct write went into a device or failed
        target = tmp_path / "x.csv"
        if kind == "fifo":
            os.mkfifo(target)
        else:
            target.symlink_to(tmp_path / "missing" / "x.csv")
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", "5", "--out", str(target)]) == 2
        assert capsys.readouterr().err == \
            f"error [synth]: --out {str(target)!r} is not a regular file\n"
        assert sorted(os.listdir(tmp_path)) == before
        assert os.path.islink(target) if kind != "fifo" else not os.path.isfile(target)

    def test_synth_writes_through_a_link(self, tmp_path):
        # the file a link names is replaced, and the link is kept
        args = ["synth", "--model", "rvdlm", "--days", "5"]
        (tmp_path / "real.csv").write_text("old\n")
        (tmp_path / "link.csv").symlink_to(tmp_path / "real.csv")
        assert main(args + ["--out", str(tmp_path / "link.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "direct.csv")]) == 0
        assert os.path.islink(tmp_path / "link.csv")
        assert (tmp_path / "real.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["direct.csv", "link.csv", "real.csv"]

    @pytest.mark.parametrize("one,two", [("--params", "--out"), ("--params", "--truth-out"),
                                         ("--out", "--truth-out")])
    def test_synth_refuses_one_file_for_two_flags(self, tmp_path, capsys, one, two):
        # checked before the params are read or anything is written
        (tmp_path / "p.json").write_text("{}")
        paths = {"--params": str(tmp_path / "p.json"), "--out": str(tmp_path / "s.csv"),
                 "--truth-out": str(tmp_path / "t.csv")}
        paths[two] = str(tmp_path / "." / os.path.basename(paths[one]))
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["synth", "--model", "rvdlm", "--days", "5",
                     *(a for kv in paths.items() for a in kv)]) == 2
        assert f"error [synth]: {one} and {two} name one file" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("days", ["-3", "0", "1"])
    def test_synth_too_few_days_is_config_error(self, tmp_path, capsys, days):
        # checked before the params are read or a theta path is built
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", days, "--params",
                     str(tmp_path / "missing.json"), "--out", str(tmp_path / "s.csv")]) == 2
        assert f"--days must be at least 2, got {days}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("seed", ["-1", str(-2 ** 63)])
    def test_synth_negative_seed_is_config_error(self, tmp_path, capsys, seed):
        # checked with --days, before the params are read or anything is written
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", "5", "--seed", seed, "--params",
                     str(tmp_path / "missing.json"), "--out", str(tmp_path / "s.csv")]) == 2
        assert f"--seed must be non-negative, got {seed}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_synth_unknown_param_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"vol_inf": 50.0}))
        out = tmp_path / "s.csv"
        assert main(["synth", "--model", "rvdlm", "--days", "2", "--params", str(path),
                     "--out", str(out)]) == 2
        assert f"generator params {path}: unknown key 'vol_inf'" in capsys.readouterr().err
        assert not out.exists()

    def test_score_subcommand_recomputes_identically(self, data_csv, tmp_path):
        out = str(tmp_path / "score_out")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(data_csv[0], out)))
        assert main(["filter", "--config", str(cfg)]) == 0
        bf_path = os.path.join(out, "TIC__BF__rvldlm_over_svdlm.csv")
        before = open(bf_path).read()
        os.remove(bf_path)
        assert main(["score", "--run-dir", out]) == 0
        assert open(bf_path).read() == before

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        '{"seed": 7, "series": {}}',
        '{"config": {"models": "svdlm"}, "seed": 7, "series": {}}',
        '{"config": {"models": [{"name": "svdlm"}]}, "seed": 7, "series": ["TIC"]}',
        # names a summary holds are checked as a config's are
        '{"config": {"models": [{"name": "svdlm"}, {"name": "svdlm"}]}, "seed": 7,'
        ' "series": {"TIC": {}}}',
    ])
    def test_score_rejects_a_malformed_summary(self, data_csv, tmp_path, capsys, text):
        out = tmp_path / "score_summary"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        summary = out / "summary.json"
        summary.write_text(text)
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 2
        assert f"error [score]: run summary {summary}" in capsys.readouterr().err
        assert _digests(str(out)) == before

    def test_score_rejects_a_ticker_that_leaves_the_run(self, data_csv, tmp_path, capsys):
        # a summary's ticker '../X' would read and write X__* beside the run directory
        out = tmp_path / "run"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        summary = json.loads((out / "summary.json").read_text())
        summary["series"] = {"../X": summary["series"]["TIC"]}
        (out / "summary.json").write_text(json.dumps(summary))
        for name in os.listdir(out):
            if name.startswith("TIC__") and "__BF__" not in name:
                (tmp_path / name.replace("TIC__", "X__")).write_bytes((out / name).read_bytes())
        before = _digests(str(out))
        outside = sorted(os.listdir(tmp_path))
        assert main(["score", "--run-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "series ticker '../X' must not contain '/'" in err
        assert _digests(str(out)) == before
        assert sorted(os.listdir(tmp_path)) == outside

    @pytest.mark.parametrize("damage", ["short", "score", "flag", "nan", "inf"])
    def test_score_rejects_a_malformed_row_by_line(self, data_csv, tmp_path, capsys, damage):
        out = str(tmp_path / "score_bad")
        run_filter_pipeline(load_config(base_config(data_csv[0], out)))
        path = os.path.join(out, "TIC__rvdlm.csv")
        lines = open(path).read().splitlines(keepends=True)
        fields = lines[-1].split(",")  # the last day is scored
        if damage == "short":
            fields = fields[:5]
        elif damage == "score":
            fields[7] = "nan?"
        elif damage == "flag":
            fields[8] = "yes"
        else:  # parses as a float, but would write a non-finite Bayes factor
            fields[7] = damage
        lines[-1] = ",".join(fields).rstrip("\n") + "\n"
        open(path, "w").write("".join(lines))
        assert main(["score", "--run-dir", out]) == 3
        assert f"{path}:{len(lines)}:" in capsys.readouterr().err

    @pytest.mark.parametrize("damaged, code", [("ohlc", 3), ("config", 2), ("trajectory", 3)])
    def test_invalid_utf8_names_the_file(self, data_csv, tmp_path, capsys, damaged, code):
        # a byte 0xff in an input is a DataError (a CSV) or a ConfigError (the
        # JSON config) naming the file, not a traceback
        ohlc = tmp_path / "tic.csv"
        ohlc.write_bytes(Path(data_csv[0]).read_bytes())
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(str(ohlc), str(out))))
        argv = ["filter", "--config", str(cfg)]
        if damaged == "trajectory":
            assert main(argv) == 0
            argv = ["score", "--run-dir", str(out)]
        path = {"ohlc": ohlc, "config": cfg, "trajectory": out / "TIC__rvdlm.csv"}[damaged]
        text = path.read_bytes()
        cut = text.index(b",", len(text) // 2) + 1  # a field in the middle of the file
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(argv) == code
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_score_hands_the_writer_the_filter_pass_arrays(self, data_csv, tmp_path,
                                                           monkeypatch):
        # both callers give _write_bayes_factors one form of the scored window:
        # ISO dates as numpy bytes and float64 increments, equal to the bit
        seen, write_bf = [], pipeline._write_bayes_factors

        def spy_bf(out_dir, ticker, scores):
            seen.append(scores)
            return write_bf(out_dir, ticker, scores)

        monkeypatch.setattr(pipeline, "_write_bayes_factors", spy_bf)
        out = str(tmp_path / "run")
        run_filter_pipeline(load_config(base_config(data_csv[0], out)))
        assert main(["score", "--run-dir", out]) == 0
        filtered, scored = seen
        assert list(scored) == list(filtered) == ["svdlm", "rvdlm", "rvldlm"]
        for name, (dates, increments) in scored.items():
            want_dates, want_increments = filtered[name]
            assert isinstance(dates, np.ndarray) and dates.dtype.kind == "S" and dates.size
            assert np.array_equal(dates, want_dates)
            assert isinstance(increments, np.ndarray) and increments.dtype == np.float64
            assert increments.tobytes() == want_increments.tobytes()

    def test_score_reads_and_writes_one_ticker_at_a_time(self, data_csv, tmp_path,
                                                         monkeypatch):
        # no ticker's scores are held while another's files are read
        out = tmp_path / "run"
        raw = base_config(data_csv[0], str(out))
        raw["series"] = [{"ticker": t, "path": data_csv[0], "s1": 1e-4} for t in ("A", "B")]
        run_filter_pipeline(load_config(raw))
        events, read, write_bf = [], pipeline._scored_increments, pipeline._write_bayes_factors

        def spy_read(path):
            events.append(os.path.basename(path))
            return read(path)

        def spy_bf(out_dir, ticker, scores):
            events.append(f"write {ticker}")
            return write_bf(out_dir, ticker, scores)

        monkeypatch.setattr(pipeline, "_scored_increments", spy_read)
        monkeypatch.setattr(pipeline, "_write_bayes_factors", spy_bf)
        assert main(["score", "--run-dir", str(out)]) == 0
        assert events == [f"{t}__{m}.csv" if m else f"write {t}" for t in "AB"
                          for m in ("svdlm", "rvdlm", "rvldlm", None)]

    def test_score_rejects_scored_dates_that_differ(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        path = out / "TIC__rvdlm.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")  # the last day is scored
        fields[0] = "2099-12-31"
        path.write_text("".join(lines[:-1] + [",".join(fields)]))
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error [score]: TIC: scored dates differ between 'rvdlm' and 'svdlm'\n"
        assert _digests(str(out)) == before
        assert sorted(os.listdir(tmp_path)) == ["run"]

    def test_score_is_all_or_nothing(self, data_csv, tmp_path, capsys):
        # A's Bayes factors are gone and B's trajectory is bad: a score that
        # wrote A's files before it read B's would leave them behind
        out = tmp_path / "score_two"
        raw = base_config(data_csv[0], str(out))
        raw["series"] = [{"ticker": t, "path": data_csv[0], "s1": 1e-4} for t in ("A", "B")]
        run_filter_pipeline(load_config(raw))
        for name in os.listdir(out):
            if name.startswith("A__BF__"):
                os.remove(out / name)
        path = out / "B__rvdlm.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")  # the last day is scored
        fields[8] = "yes"
        path.write_text("".join(lines[:-1] + [",".join(fields)]))
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 3
        assert f"{path}:" in capsys.readouterr().err
        assert _digests(str(out)) == before
        assert sorted(os.listdir(tmp_path)) == ["score_two"]

    @pytest.mark.parametrize("command", ["filter", "score"])
    def test_output_name_taken_by_a_directory_moves_no_file(self, data_csv, tmp_path, capsys,
                                                            command):
        # the stage once moved its files in one by one and failed at the
        # directory, leaving a run directory half new and half old
        out = tmp_path / "run"
        raw = base_config(data_csv[0], str(out))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["filter", "--config", str(cfg)]) == 0
        if command == "filter":  # every file of the rerun differs; summary.json moves last
            taken = out / "summary.json"
            raw["series"][0]["s1"] = 2e-4
            cfg.write_text(json.dumps(raw))
            argv = ["filter", "--config", str(cfg)]
        else:  # two of the three Bayes-factor files differ
            taken = out / "TIC__BF__rvldlm_over_rvdlm.csv"
            path = out / "TIC__svdlm.csv"
            lines = path.read_text().splitlines(keepends=True)
            fields = lines[-1].split(",")  # the last day is scored
            fields[7] = "-1.5"
            path.write_text("".join(lines[:-1] + [",".join(fields)]))
            argv = ["score", "--run-dir", str(out)]
        taken.unlink()
        taken.mkdir()
        before = {name: (out / name).is_dir() or (out / name).read_bytes()
                  for name in os.listdir(out)}
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error [{command}]: cannot write {out}: {taken.name} is not a regular file\n"
        assert {name: (out / name).is_dir() or (out / name).read_bytes()
                for name in os.listdir(out)} == before  # no stage left either
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "run"]

    # A file name longer than NAME_MAX (255 bytes on the usual Linux file
    # systems) cannot be written, whoever runs the test: the one write failure
    # that does not need a read-only directory.
    LONG = "x" * 300

    @pytest.mark.parametrize("long_flag", ["--out", "--truth-out"])
    def test_synth_unwritable_output_is_config_error(self, tmp_path, capsys, long_flag):
        paths = {"--out": str(tmp_path / "ok.csv"), "--truth-out": str(tmp_path / "t.csv")}
        paths[long_flag] = str(tmp_path / f"{self.LONG}.csv")
        before = sorted(os.listdir(tmp_path))
        assert main(["synth", "--model", "rvdlm", "--days", "5",
                     *(a for kv in paths.items() for a in kv)]) == 2
        err = capsys.readouterr().err
        assert err == f"error [synth]: cannot write {tmp_path}: File name too long " \
                      f"({self.LONG}.csv)\n"
        assert sorted(os.listdir(tmp_path)) == before  # neither file, and no stage

    @pytest.mark.parametrize("too_long", ["ticker", "out_dir"])
    def test_filter_unwritable_output_is_config_error(self, data_csv, tmp_path, capsys,
                                                      too_long):
        # a 250-character ticker makes a trajectory file name of 261 characters,
        # which fails in the stage; a 300-character directory fails once the
        # run has succeeded, when out_dir is made
        out = tmp_path / (self.LONG if too_long == "out_dir" else "o") / "run"
        raw = base_config(data_csv[0], str(out))
        if too_long == "ticker":
            raw["series"][0]["ticker"] = "T" * 250
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        before = sorted(os.listdir(tmp_path))
        assert main(["filter", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [filter]: cannot write {out}: File name too long")
        assert err.endswith(f" ({'T' * 250}__svdlm.csv)\n" if too_long == "ticker" else
                            "File name too long\n")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before  # no out_dir, and no stage

    @pytest.mark.parametrize("exists", [True, False])
    def test_stage_is_made_in_the_nearest_existing_directory(self, data_csv, tmp_path,
                                                             monkeypatch, exists):
        # in out_dir itself if it exists, else in its nearest existing ancestor;
        # the score of a run stages in its run directory, synth beside its file
        out = tmp_path / "a" / "b"
        if exists:
            out.mkdir(parents=True)
        stages, write = [], pipeline.write_columns_csv

        def spy(path, header, columns):
            stages.append(os.path.dirname(os.path.dirname(path)))
            return write(path, header, columns)

        monkeypatch.setattr(pipeline, "write_columns_csv", spy)
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        assert set(stages) == {str(out if exists else tmp_path)}
        stages.clear()
        assert main(["score", "--run-dir", str(out)]) == 0
        assert set(stages) == {str(out)}
        monkeypatch.setattr(rvdlm.cli, "write_columns_csv", spy)
        monkeypatch.setattr(rvdlm.cli, "write_csv",
                            lambda path, bars: spy(path, ["date"], [[b.date for b in bars]]))
        stages.clear()
        assert main(["synth", "--model", "rvdlm", "--days", "5", "--out", str(out / "s.csv"),
                     "--truth-out", str(tmp_path / "t.csv")]) == 0
        assert stages == [str(out), str(tmp_path)]

    def test_filter_missing_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["filter", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error [filter]: cannot read config {path}: [Errno 2] No such file")
        assert os.listdir(tmp_path) == []

    def test_score_missing_trajectory_is_data_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        path = out / "TIC__rvdlm.csv"
        path.unlink()
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error [score]: cannot read {path}: ")
        assert _digests(str(out)) == before
        assert os.listdir(tmp_path) == ["run"]

    def test_score_trajectory_without_its_score_column_is_data_error(self, data_csv, tmp_path,
                                                                     capsys):
        out = tmp_path / "run"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        path = out / "TIC__rvdlm.csv"
        path.write_text(path.read_text().replace("log_score_nats", "log_score", 1))
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 3
        assert capsys.readouterr().err == \
            f"error [score]: {path}: missing column 'log_score_nats'\n"
        assert _digests(str(out)) == before

    def test_score_skips_a_blank_line(self, data_csv, tmp_path):
        out = tmp_path / "run"
        run_filter_pipeline(load_config(base_config(data_csv[0], str(out))))
        path = out / "TIC__rvdlm.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2] + ["\n"] + lines[-2:]))  # between two scored rows
        before = _digests(str(out))
        assert main(["score", "--run-dir", str(out)]) == 0
        assert _digests(str(out)) == before


GOLDEN_MODELS = [
    {"name": "svdlm", "variant": "svdlm"},
    {"name": "rvdlm", "variant": "rvdlm"},
    {"name": "rvldlm", "variant": "rvldlm"},
    {"name": "rvl_static", "variant": "rvldlm", "delta": 1.0},
    {"name": "sv_beta1", "variant": "svdlm", "beta": 1.0},
    {"name": "rv_beta1", "variant": "rvdlm", "beta": 1.0, "delta": 0.97},
]

# sha256 of every output file of the two runs in test_golden_output_digests; any
# change to an emitted byte (formatting, rounding, file set) must update them on purpose
GOLDEN_DIGESTS = {
    "out/TIC__BF__rv_beta1_over_rvdlm.csv":
        "00981af479e2dd33e2b07f6cc18cfe9388ae50aad5e148eeadd5c8595d72ba92",
    "out/TIC__BF__rv_beta1_over_rvl_static.csv":
        "92717d035ed6cae50fe7ded619f069b9fb5bee8ca7c320084dfe000ee12deef9",
    "out/TIC__BF__rv_beta1_over_rvldlm.csv":
        "0acb26c573ba623858eae75b1cd48bfa8993c5afc0840c2a90f903822dd2b5fa",
    "out/TIC__BF__rv_beta1_over_sv_beta1.csv":
        "6b8449dc426eaf36cc4ed8a5731940f89b3bdbcc24d8eee7699d84a1f5c73e01",
    "out/TIC__BF__rv_beta1_over_svdlm.csv":
        "fb1b26eea1ce0d66f8b214a10b36f3d2b850ff7238a3261ecf9b83f1eb85d8ce",
    "out/TIC__BF__rvdlm_over_svdlm.csv":
        "7c27b50e34d729fc01bd6cf2e1b1aa0b829ce01b6a1c599eec15b5d5fbfbbc55",
    "out/TIC__BF__rvl_static_over_rvdlm.csv":
        "ec7798a90f71df370b82e919f05d16707049c29635e1b4d03b1aa617565bc924",
    "out/TIC__BF__rvl_static_over_rvldlm.csv":
        "b0e52ff23a78c304df75668e758e4e5541c518fcb76d6e5659d13b906f63ba89",
    "out/TIC__BF__rvl_static_over_svdlm.csv":
        "2e3c4dd1e6bd09fb81e2921e9d2b13e9ded3a2bc8dc4e558620c6a0639fc03da",
    "out/TIC__BF__rvldlm_over_rvdlm.csv":
        "b4448e169240c2067121d82144076717cd92c60dcf55993cc1fd282bef343a73",
    "out/TIC__BF__rvldlm_over_svdlm.csv":
        "6317dff90f5e63e3d864d484418f17f727ebb081274522266879b302687f9992",
    "out/TIC__BF__sv_beta1_over_rvdlm.csv":
        "692de3cbc33b9b54de961864bcad84e8b4fcddd1537e514e1a7da2492cda61f4",
    "out/TIC__BF__sv_beta1_over_rvl_static.csv":
        "4266f1c6760996c6a3f653586de3164dd5f11bb7c01b070745d4865e86a1a260",
    "out/TIC__BF__sv_beta1_over_rvldlm.csv":
        "535aa6367f9c4822b25acb2ea949aed6f34e97b1c4240ee275bb0ab5a4a96350",
    "out/TIC__BF__sv_beta1_over_svdlm.csv":
        "be5cafc649ce8e5bbeb9bb563324fc69461134ace2afefe71a6c74a85a314ada",
    "out/TIC__rv_beta1.csv":
        "d878c97aaa826a8d44b208898e5e309b2ab22a93b58afff68e308c0fb9741035",
    "out/TIC__rvdlm.csv":
        "0d075eb23af795c6a011463d8453836d1b0ccbbfd69e37389d8ad0c100d2f2ae",
    "out/TIC__rvl_static.csv":
        "1d02169ffd22986c309223a0248d4c65888b2f572eed5e5e30801bcb1191b596",
    "out/TIC__rvldlm.csv":
        "83fec8e4b2d41ddad5f188cd2bbef39350d8730bcee0e8445f8a3aa985a6002f",
    "out/TIC__sv_beta1.csv":
        "9340b4350938a5beabe032369ad4e8415951a9f3979b4209d12e5cff4dbe537f",
    "out/TIC__svdlm.csv":
        "0ebbcddcfdf40ba9797fc6263d3723440246509982b3f91cc289f53a4646123c",
    "out/summary.json":
        "24778563c84fcf9491e68e62b61e5ebb2342f2c9bdcf423cfd6ea6d6729df4a6",
    "out_empty/TIC__BF__rvdlm_over_svdlm.csv":
        "1801fa3c1544b7df02fc14ea66b0b4b2f94cd7cc412ec12a61f76f6cf877053d",
    "out_empty/TIC__BF__rvldlm_over_rvdlm.csv":
        "1801fa3c1544b7df02fc14ea66b0b4b2f94cd7cc412ec12a61f76f6cf877053d",
    "out_empty/TIC__BF__rvldlm_over_svdlm.csv":
        "1801fa3c1544b7df02fc14ea66b0b4b2f94cd7cc412ec12a61f76f6cf877053d",
    "out_empty/TIC__rvdlm.csv":
        "997e0fd2a8ba66301baea367f87deb32fc7cf2176442ea37bf38003c23fa98a5",
    "out_empty/TIC__rvldlm.csv":
        "5c452bbbd0b088eb840027afd342fe685e3e228d397aebaa5fe7f06d4d32e3a7",
    "out_empty/TIC__svdlm.csv":
        "25ccc66cc85dde40d3c8ddb26772f38967be8487050f86b47f6cc36d51fb7a6b",
    "out_empty/summary.json":
        "7f4cfda2ddabb42f8c117d2ed2eb6886f55b1e1640bd3bff250c668d8ebfb1da",
}


def _golden_inputs():
    theta = slowly_varying_theta(ModelClass.RVLDLM, 240,
                                 base=[0.0046, 0.999, -0.4, 0.3],
                                 amplitude=[0.0, 0.0, 0.1, 0.1])
    bars, _ = generate_synthetic(SyntheticParams(model=ModelClass.RVLDLM, theta=theta),
                                 np.random.default_rng(31))
    # a flat bar: zero Rogers-Satchell variance, floored on input
    b = bars[100]
    bars[100] = OhlcBar(b.date, b.close, b.close, b.close, b.close)
    write_csv("tic.csv", bars)
    return bars


def _digests(out_dir):
    return {f"{out_dir}/{name}": hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir))}


def _golden_run() -> dict:
    """Run the two golden configurations in the working directory; returns
    the digest of every output file."""
    bars = _golden_inputs()
    raw = base_config("tic.csv", "out", models=GOLDEN_MODELS)
    raw["train_end"] = bars[120].date.isoformat()
    raw["eval_start"] = bars[121].date.isoformat()
    run_filter_pipeline(load_config(raw))
    last = bars[-1].date
    raw.update(out_dir="out_empty", models=GOLDEN_MODELS[:3], train_end=last.isoformat(),
               eval_start=(last + dt.timedelta(days=1)).isoformat())
    with pytest.warns(UserWarning):
        run_filter_pipeline(load_config(raw))
    return {**_digests("out"), **_digests("out_empty")}


def test_golden_output_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _golden_run() == GOLDEN_DIGESTS


def test_golden_digests_whatever_numpy_dispatches(tmp_path):
    # numpy picks its SIMD loops by CPU at import; with the AVX-512 ones off its
    # log, log1p and exp give other last bits on some inputs. Every such value
    # that reaches an output comes from libm, so the bytes do not move.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(Path(rvdlm.__file__).parents[1]),
                                           str(Path(__file__).parent)]))
    code = "import json, test_pipeline_cli as t; print(json.dumps(t._golden_run()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN_DIGESTS


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("section,table", [
    ("Config schema", pipeline.CONFIG_KEYS),
    ("Config schema", pipeline.SERIES_KEYS),
    ("Config schema", pipeline.MODEL_KEYS),
    ("Config schema", pipeline.SCHEMA_KEYS),
    ("Synthetic generator params", SYNTH_KEYS),
], ids=["config", "series", "model", "schema", "synth"])
def test_every_key_is_documented(section, table):
    # the README section is the only place besides the table that names each key
    text = README.read_text(encoding="utf-8").split(f"\n### {section}", 1)[1]
    text = text.split("\n#", 1)[0]
    assert [k for k in table if f'"{k}"' not in text] == []


def test_model_table_matches_the_layout_rows():
    # README's model table: one row per class in enum order, F with dim entries,
    # and realized variance in the volatility learning exactly where it is observed
    text = README.read_text(encoding="utf-8").split("\n| model ", 1)[1]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in text.split("\n\n", 1)[0].splitlines()[2:]]
    assert [r[0] for r in rows] == [f"`{m.value}`" for m in ModelClass]
    for (_, F, learning), m in zip(rows, ModelClass):
        assert re.fullmatch(r"`\((.*)\)`", F), F
        assert len(F[2:-2].split(", ")) == m.dim, F
        assert ("realized variance" in learning) == m.uses_rv, learning


def test_every_named_module_attribute_exists():
    # each backticked `module.name` of the README that names an rvdlm
    # submodule names something that submodule has
    modules = {m.name for m in pkgutil.iter_modules(rvdlm.__path__)}
    named = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text("utf-8"))
             if mod in modules]
    assert named
    assert [f"{mod}.{name}" for mod, name in named
            if not hasattr(importlib.import_module(f"rvdlm.{mod}"), name)] == []


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    # README's quick-start block, run as written on a synthetic xlb.csv, so
    # that the snippet cannot drift from the API
    block = README.read_text(encoding="utf-8").split("\n## Library quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    theta = slowly_varying_theta(ModelClass.RVLDLM, 300, base=[0.0046, 0.999, -0.5, 0.4])
    bars, _ = generate_synthetic(SyntheticParams(model=ModelClass.RVLDLM, theta=theta),
                                 np.random.default_rng(5))
    write_csv(tmp_path / "xlb.csv", bars)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["frame"]) == 300 and namespace["traj"].m.shape == (300, 4)
    assert capsys.readouterr().out
