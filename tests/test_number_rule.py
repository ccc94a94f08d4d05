"""The number rule, `errors.number`: every scalar a caller hands in is checked
once, at the boundary, and kept as a Python float (or int)."""

import dataclasses
import datetime as dt
import math
import re

import numpy as np
import pytest

import rvdlm
from rvdlm import (ConfigError, DomainError, HyperParams, ModelClass, ModelSpec, RunConfig,
                   SeriesSpec)
from rvdlm.errors import number

# Exported dataclasses with scalar fields that are not inputs: the two step
# records hold what the package computed, and a bar's prices are market data,
# checked by `bar_columns` and `clamp_ohlc` as a DataError naming its date.
NOT_INPUTS = {"RvUpdatedPrior", "OneStepStats", "OhlcBar"}
CONFIG_OWNERS = {"SeriesSpec", "ModelSpec", "RunConfig", "SyntheticParams"}
KEPT_AS = {"float": float, "int": int, float: float, int: int}  # annotations, as text or not


def valid_arguments(name: str, tmp_path) -> dict:
    """Arguments that build the input dataclass `name`, every scalar given."""
    data = tmp_path / "tic.csv"
    data.touch()
    series = dict(ticker="TIC", path=str(data), s1=1e-4)
    model = dict(name="m", variant=ModelClass.RVDLM, hp=HyperParams(0.999, 0.875, 2.75),
                 n_star_1=0.875)
    return {
        "HyperParams": lambda: dict(delta=0.875, beta=0.875, alpha=2.75),
        "NormalGammaPosterior": lambda: dict(m=np.zeros(3), C=np.eye(3), n=8.0, s=0.5),
        "PriorMoments": lambda: dict(a=np.zeros(3), R=np.eye(3), n_star=8.0, s_prev=0.5),
        "StudentTParams": lambda: dict(dof=5.0, location=0.25, scale=2.0),
        "ScaledFParams": lambda: dict(dof_num=3.0, dof_den=7.0, scale=1.5),
        "GammaParams": lambda: dict(shape=2.75, rate=2.0),
        "RegressorInputs": lambda: dict(model=ModelClass.RVLDLM, y_prev=4.625, x_prev=0.25,
                                        floor_eps=1e-12),
        "SyntheticParams": lambda: dict(model=ModelClass.RVDLM, theta=np.zeros((5, 3)),
                                        v0=1e-4, beta=0.875, alpha=2.75, vol_info=200.0,
                                        y0=4.625, floor_eps=1e-12),
        "SeriesSpec": lambda: dict(series),
        "ModelSpec": lambda: dict(model),
        "RunConfig": lambda: dict(series=(SeriesSpec(**series),), models=(ModelSpec(**model),),
                                  train_end=dt.date(2001, 1, 31), eval_start=dt.date(2001, 2, 1),
                                  out_dir=str(tmp_path / "o"), seed=3, floor_eps=1e-12),
    }[name]()


def scalar_fields(cls) -> list:
    return [f for f in dataclasses.fields(cls) if f.type in KEPT_AS]


INPUTS = {name: cls for name, cls in vars(rvdlm).items()
          if dataclasses.is_dataclass(cls) and scalar_fields(cls) and name not in NOT_INPUTS}


def test_every_exported_input_dataclass_is_guarded(tmp_path):
    # a new input dataclass with a scalar field joins the guard below
    assert set(INPUTS) == {"HyperParams", "NormalGammaPosterior", "PriorMoments",
                           "StudentTParams", "ScaledFParams", "GammaParams",
                           "RegressorInputs", "SyntheticParams", "SeriesSpec", "ModelSpec",
                           "RunConfig"}
    for name, cls in INPUTS.items():  # every scalar field is given a value
        assert {f.name for f in scalar_fields(cls)} <= set(valid_arguments(name, tmp_path))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_numpy_scalar_fields_are_kept_as_python_numbers(name, tmp_path):
    # a float32 field once carried its precision into the arithmetic it entered,
    # and into summary.json, which cannot hold it
    kwargs = valid_arguments(name, tmp_path)
    fields = scalar_fields(INPUTS[name])
    for f in fields:
        kwargs[f.name] = (np.float32 if KEPT_AS[f.type] is float else np.int64)(kwargs[f.name])
    built = INPUTS[name](**kwargs)
    for f in fields:
        assert type(getattr(built, f.name)) is KEPT_AS[f.type], f.name


@pytest.mark.parametrize("name, field", [(name, f.name) for name in sorted(INPUTS)
                                         for f in scalar_fields(INPUTS[name])])
@pytest.mark.parametrize("bad", [True, "1"])
def test_a_bool_or_string_is_the_owners_error_naming_the_field(name, field, bad, tmp_path):
    # HyperParams(True, 0.9) was once delta = 1.0, and a string a bare TypeError
    kwargs = {**valid_arguments(name, tmp_path), field: bad}
    error = ConfigError if name in CONFIG_OWNERS else DomainError
    with pytest.raises(error) as info:
        INPUTS[name](**kwargs)
    assert f"{field} must be " in str(info.value) and str(info.value).endswith(f"got {bad!r}")


def test_run_config_seed_is_any_integer(tmp_path):
    kwargs = valid_arguments("RunConfig", tmp_path)
    for seed in (-3, 0, np.int64(3)):
        assert RunConfig(**{**kwargs, "seed": seed}).seed == seed
    for seed in (2.5, np.float64(3.0), None):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            RunConfig(**{**kwargs, "seed": seed})


@pytest.mark.parametrize("wording, good, bad", [
    ("a number", [-math.inf, math.inf, np.float32(0.5)], [math.nan, np.float32("nan")]),
    ("finite", [-2, np.float32(0.5), np.int64(7)], [math.nan, math.inf, 10 ** 400, None]),
    ("finite and positive", [1e-300, np.uint8(3)], [0.0, -1.0, math.inf, math.nan]),
    ("finite and nonnegative", [0.0, -0.0, 2], [-1e-300, math.inf]),
    ("in (0, 1]", [1.0, 5e-324], [0.0, 1.0000000000000002, math.nan]),
    ("in (0, 1)", [0.5], [0.0, 1.0]),
    ("a nonnegative integer", [0, np.int32(4), 10 ** 400], [-1, 2.0, np.float64(3.0)]),
])
def test_the_rule(wording, good, bad):
    kept = int if "integer" in wording else float
    for v in good:
        got = number(v, "v", wording)
        assert type(got) is kept and got == v
    for v in [*bad, True, "1"]:
        with pytest.raises(DomainError, match=f"^v must be {re.escape(wording)}, got "):
            number(v, "v", wording)
    with pytest.raises(ConfigError, match=r"^model 'A': v must be in \(0, 1\), got 2$"):
        number(2, "v", "in (0, 1)", ConfigError, "model 'A': ")
