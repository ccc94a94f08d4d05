import datetime as dt
import hashlib
import math

import numpy as np
import pytest

from rvdlm import (ConfigError, ModelClass, SyntheticParams, build_series,
                   generate_synthetic, slowly_varying_theta, validate_bar)
from rvdlm.synthetic import _weekday_dates


def rvl_params(T=300, seed_free=True):
    theta = slowly_varying_theta(ModelClass.RVLDLM, T,
                                 base=[0.0046, 0.999, -0.5, 0.4],
                                 amplitude=[0.0, 0.0, 0.15, 0.15],
                                 period=[750.0, 750.0, 800.0, 900.0])
    return SyntheticParams(model=ModelClass.RVLDLM, theta=theta)


class TestGenerator:
    def test_seed_replay_bit_exact(self):
        params = rvl_params()
        a, ta = generate_synthetic(params, np.random.default_rng(11))
        b, tb = generate_synthetic(params, np.random.default_rng(11))
        assert a == b
        assert np.array_equal(ta.y, tb.y) and np.array_equal(ta.v, tb.v)

    def test_bars_satisfy_ohlc_invariants(self):
        bars, _ = generate_synthetic(rvl_params(), np.random.default_rng(3))
        for bar in bars:
            assert validate_bar(bar) == bar

    def test_round_trip_recovers_y_and_z(self):
        params = rvl_params(T=400)
        bars, truth = generate_synthetic(params, np.random.default_rng(5))
        frame = build_series(bars, floor_eps=params.floor_eps)
        assert len(frame) == params.days
        np.testing.assert_allclose(frame.y, truth.y, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(frame.z, truth.z, rtol=1e-10, atol=1e-18)
        assert frame.dates == truth.dates

    def test_rv_proxy_conditionally_unbiased(self):
        # long-run mean of z/v is one: the realized measure is an unbiased
        # noisy read of the latent variance
        theta = slowly_varying_theta(ModelClass.RVDLM, 20_000, [4.6, 0.0, 0.2])
        params = SyntheticParams(model=ModelClass.RVDLM, theta=theta)
        _, truth = generate_synthetic(params, np.random.default_rng(17))
        ratio = truth.z / truth.v
        se = float(ratio.std(ddof=1)) / math.sqrt(ratio.size)
        assert abs(float(ratio.mean()) - 1.0) < 4.0 * se

    @pytest.mark.parametrize("variant, base, digest", [
        (ModelClass.RVDLM, [0.0046, 0.999, 0.1],
         "aec57aa9932101c653c01e28e7a611e474a45cab06056dda415f5d2c46452745"),
        (ModelClass.RVLDLM, [0.0046, 0.999, -0.5, 0.4],
         "b417ffc3f499df7085ba513ca8ffb548168ad3a95e23eb04d4d4e0ac029ec4fa"),
    ])
    def test_bars_and_truth_are_pinned(self, variant, base, digest):
        # sha256 of the bar prices, the latent truth and the dates for one seed
        # per layout: the price equation's sum may not move a bit
        d = variant.dim
        theta = slowly_varying_theta(variant, 400, base,
                                     amplitude=[0.001, 0.0, 0.15, 0.15][:d],
                                     period=[500.0, 750.0, 800.0, 900.0][:d])
        bars, truth = generate_synthetic(SyntheticParams(model=variant, theta=theta),
                                         np.random.default_rng(31))
        h = hashlib.sha256(np.array([[b.open, b.high, b.low, b.close] for b in bars]).tobytes())
        for v in (truth.theta, truth.v, truth.y, truth.z):
            h.update(np.ascontiguousarray(v).tobytes())
        h.update("".join(day.isoformat() for day in truth.dates).encode())
        assert h.hexdigest() == digest

    def test_float32_settings_draw_the_float_path(self):
        # a float32 v0, alpha or beta once ran the precision path in float32
        theta = slowly_varying_theta(ModelClass.RVDLM, 200, [0.0046, 0.999, 0.1])

        def run(cast):
            params = SyntheticParams(model=ModelClass.RVDLM, theta=theta, v0=cast(1e-4),
                                     beta=cast(0.875), alpha=cast(2.75))
            bars, truth = generate_synthetic(params, np.random.default_rng(13))
            prices = np.array([[b.open, b.high, b.low, b.close] for b in bars])
            return [prices.tobytes()] + [v.tobytes() for v in (truth.v, truth.y, truth.z)]

        assert run(np.float32) == run(lambda v: float(np.float32(v)))

    def test_dimension_checked(self):
        with pytest.raises(ConfigError):
            SyntheticParams(model=ModelClass.RVLDLM, theta=np.zeros((100, 3)))

    def test_one_day_theta_rejected(self):
        # SyntheticParams takes any theta path; the generator needs two days
        params = SyntheticParams(model=ModelClass.SVDLM, theta=np.array([[0.0046, 0.999, 0.1]]))
        with pytest.raises(ConfigError, match="^need at least 2 modeled days, got 1$"):
            generate_synthetic(params, np.random.default_rng(1))

    def test_weekday_calendar(self):
        bars, _ = generate_synthetic(rvl_params(T=50), np.random.default_rng(1))
        assert all(b.date.weekday() < 5 for b in bars)
        assert all(a.date < b.date for a, b in zip(bars, bars[1:]))


def stepped_weekdays(start, count):
    # the day-stepping reference: walk the calendar, keep Monday to Friday
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


@pytest.mark.parametrize("count", [1, 2, 7, 400])
@pytest.mark.parametrize("offset", range(7))
def test_weekday_dates_equal_day_stepping(offset, count):
    # every start weekday, Saturday and Sunday included; 2021-12-27 is a
    # Monday, so the first week runs across the year end
    start = dt.date(2021, 12, 27) + dt.timedelta(days=offset)
    got = _weekday_dates(start, count)
    assert got == stepped_weekdays(start, count)
    assert all(type(d) is dt.date for d in got)


class TestSlowlyVaryingTheta:
    def test_constant_when_no_amplitude(self):
        th = slowly_varying_theta(ModelClass.RVDLM, 10, [0.1, 0.9, 0.3])
        assert th.shape == (10, 3)
        assert np.ptp(th, axis=0).max() == 0.0

    def test_oscillates_with_amplitude(self):
        th = slowly_varying_theta(ModelClass.RVLDLM, 1600, [0.0, 1.0, -0.5, 0.4],
                                  amplitude=[0.0, 0.0, 0.2, 0.2], period=800.0)
        assert th[:, 2].min() == pytest.approx(-0.7, abs=1e-6)
        assert th[:, 2].max() == pytest.approx(-0.3, abs=1e-6)
