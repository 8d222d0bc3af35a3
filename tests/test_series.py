from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecast.errors import ConstantSeries, NonFinite, NonMonotonicTimestamps, TooShort
from modecast.series import MinMaxScaler, TimeSeries, fit_scaler, validate


def test_validate_returns_series_unchanged():
    s = TimeSeries([1.0, 2.0, 3.0])
    out = validate(s)
    assert out is s
    assert np.array_equal(out.values, [1.0, 2.0, 3.0])


def test_validate_rejects_nan():
    with pytest.raises(NonFinite):
        validate(TimeSeries([1.0, float("nan")]))
    with pytest.raises(NonFinite):
        validate(TimeSeries([1.0, float("inf")]))


def test_validate_rejects_single_point():
    with pytest.raises(TooShort):
        validate(TimeSeries([5.0]))


def test_validate_rejects_unordered_timestamps():
    stamps = (date(2020, 1, 1), date(2020, 1, 1))
    with pytest.raises(NonMonotonicTimestamps):
        validate(TimeSeries([1.0, 2.0], timestamps=stamps))
    with pytest.raises(NonMonotonicTimestamps):
        validate(TimeSeries([1.0, 2.0, 3.0], timestamps=stamps))


def test_values_are_immutable():
    s = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_scaler_midpoint():
    sc = fit_scaler(TimeSeries([0.0, 5.0, 10.0]))
    assert sc.apply(5.0) == pytest.approx(0.5)
    assert np.allclose(sc.apply(np.array([0.0, 10.0])), [0.0, 1.0])


def test_scaler_round_trip_examples():
    sc = fit_scaler(TimeSeries([3.2, 4.1]))
    for x in (3.2, 4.1, 3.7):
        assert abs(sc.invert(sc.apply(x)) - x) <= 1e-12 * max(1.0, abs(x))


def test_scaler_rejects_constant():
    with pytest.raises(ConstantSeries):
        fit_scaler(TimeSeries([7.0, 7.0, 7.0]))


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50).filter(lambda v: max(v) > min(v)),
       st.floats(0.0, 1.0))
def test_scaler_round_trip_property(train_values, frac):
    # round trip within 1e-12 * max(1, |x|) for x inside the training range
    sc = fit_scaler(np.array(train_values))
    x = sc.lo + frac * (sc.hi - sc.lo)
    assert abs(float(sc.invert(sc.apply(x))) - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=50)
@given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
def test_scaler_is_affine_and_increasing(a, b):
    sc = MinMaxScaler(lo=-3.0, hi=17.0)
    fa, fb = float(sc.apply(a)), float(sc.apply(b))
    mid = float(sc.apply((a + b) / 2.0))
    assert mid == pytest.approx((fa + fb) / 2.0, abs=1e-12)
    if b - a > 1e-9:
        assert fa < fb
