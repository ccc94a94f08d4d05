import datetime as dt
import math

import pytest
from hypothesis import given, settings, strategies as st

from rvdlm import DataError, OhlcBar, rogers_satchell, validate_bar
from rvdlm.rv_measures import bar_columns

D = dt.date(2020, 3, 16)

# direct arithmetic: log(102/101)log(102/100) + log(99/101)log(99/100)
RS_EXAMPLE = (math.log(102 / 101) * math.log(102 / 100)
              + math.log(99 / 101) * math.log(99 / 100))


def bar(o, h, l, c, date=D):
    return OhlcBar(date, o, h, l, c)


class TestRogersSatchell:
    def test_flat_bar_is_zero(self):
        assert rogers_satchell(bar(100.0, 100.0, 100.0, 100.0)) == 0.0

    def test_worked_example(self):
        got = rogers_satchell(bar(100.0, 102.0, 99.0, 101.0))
        assert got == pytest.approx(RS_EXAMPLE, rel=1e-14)
        assert got == pytest.approx(3.96115e-4, rel=1e-4)

    def test_doji_reduces_to_squared_ranges(self):
        o = c = 50.0
        h, l = 51.2, 49.1
        want = math.log(h / o) ** 2 + math.log(l / o) ** 2
        assert rogers_satchell(bar(o, h, l, c)) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.5, 5000.0), st.floats(0.0, 0.2), st.floats(0.0, 0.2),
           st.floats(0.0, 1.0))
    def test_nonnegative_on_valid_bars(self, o, up, down, mix):
        # H above both open/close, L below both, close between extremes
        h = o * (1.0 + up)
        l = o / (1.0 + down)
        c = l + mix * (h - l)
        if c <= 0.0:
            return
        assert rogers_satchell(bar(o, h, l, c)) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 500.0), st.floats(0.0, 0.15), st.floats(0.0, 0.15),
           st.floats(0.0, 1.0), st.floats(0.01, 100.0))
    def test_scale_invariance(self, o, up, down, mix, k):
        h = o * (1.0 + up)
        l = o / (1.0 + down)
        c = l + mix * (h - l)
        if c <= 0.0:
            return
        base = rogers_satchell(bar(o, h, l, c))
        scaled = rogers_satchell(bar(k * o, k * h, k * l, k * c))
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-15)


class TestBarValidation:
    def test_ordering_violation_carries_date(self):
        with pytest.raises(DataError) as excinfo:
            rogers_satchell(bar(100.0, 99.0, 98.0, 100.5))
        assert excinfo.value.date == D
        assert "2020-03-16" in str(excinfo.value)

    def test_vendor_rounding_clamped(self):
        # high a hair under the close: clamped, not fatal
        b = validate_bar(bar(100.0, 100.9999999999, 99.0, 101.0))
        assert b.high == 101.0
        assert rogers_satchell(b) >= 0.0

    def test_larger_violation_rejected(self):
        with pytest.raises(DataError):
            validate_bar(bar(100.0, 100.9, 99.0, 101.0))

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(DataError):
            validate_bar(bar(0.0, 1.0, 0.5, 0.8))

    @pytest.mark.parametrize("o, h, l, c", [(1e300, 1e300, 1e-300, 1e300),
                                            (1e-300, 1e300, 1e-300, 1e-300)])
    def test_price_ratio_outside_the_float_range_rejected(self, o, h, l, c):
        # low/high underflows: log(l/c) would raise, or h/l overflow z to inf
        for check in (validate_bar, rogers_satchell):
            with pytest.raises(DataError, match="below 2.2250738585072014e-308") as excinfo:
                check(bar(o, h, l, c))
            assert excinfo.value.date == D

    @pytest.mark.parametrize("price", ["101.5", None])
    def test_non_numeric_price_names_its_field_and_date(self, price):
        later = D + dt.timedelta(days=1)
        bars = [bar(100.0, 101.0, 99.0, 100.5), bar(100.5, 102.0, 99.5, price, date=later)]
        with pytest.raises(DataError) as excinfo:
            bar_columns(bars)
        assert excinfo.value.date == later
        assert str(excinfo.value) == (f"close price must be finite and positive, got {price!r} "
                                      f"[date={later}]")

    def test_widest_normal_price_ratio_accepted(self):
        h = 1e300
        l = h * 2.2250738585072014e-308
        assert math.isfinite(rogers_satchell(bar(h, h, l, l)))
