"""The filtered CI gate against the exact one.

``MeasurementSeries.validate`` settles a verdict and the ``%.6g`` text of
its half-width from a float standard deviation and a proven error bound,
and runs ``exact_stdev`` only when the bound cannot settle them.
``ci_check`` is the exact path. Every supported Python runs this file, so
it imports only pytest, hypothesis and the package.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctpdse import stats
from ctpdse.errors import ConfigError
from ctpdse.stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_REL_HALF_WIDTH,
    MeasurementSeries,
    Verdict,
    ci_check,
    t_quantile,
)


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the calls of ``exact_stdev``, the filter's fallback."""
    calls = []
    exact = stats.exact_stdev

    def counted(values):
        calls.append(values)
        return exact(values)

    monkeypatch.setattr(stats, "exact_stdev", counted)
    return calls


def exact_series(samples):
    """The series ``validate`` must give, from ``ci_check`` alone."""
    verdict, mean, half_width = ci_check(samples)
    return MeasurementSeries(tuple(samples), verdict, mean, f"{half_width:.6g}")


def assert_same_as_exact(samples):
    try:
        expected = exact_series(samples)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as raised:
            MeasurementSeries.validate(samples)
        assert str(raised.value) == str(exc)
        return
    series = MeasurementSeries.validate(samples)
    assert series.samples == expected.samples
    assert series.verdict is expected.verdict
    assert series.mean.hex() == expected.mean.hex()
    assert series.describe() == expected.describe()


def edge_spread(n):
    """The spread ``a`` of ``n`` readings ``mean * (1 + k * a)``, k centred on 0, at the bound."""
    steps = [k - (n - 1) / 2 for k in range(n)]
    stdev_per_a = math.sqrt(math.fsum(k * k for k in steps) / (n - 1))
    q = t_quantile((1 + DEFAULT_CONFIDENCE) / 2, n - 1)
    return steps, DEFAULT_REL_HALF_WIDTH * math.sqrt(n) / (q * stdev_per_a)


@st.composite
def near_bound(draw):
    """Readings whose half-width is within a few ulps of the bound."""
    n = draw(st.integers(2, 64))
    mean = draw(st.floats(1e-3, 1e6))
    steps, spread = edge_spread(n)
    spread *= 1 + draw(st.integers(-8, 8)) * 2.0 ** -52
    return [mean * (1 + k * spread) for k in steps]


@st.composite
def near_equal(draw):
    """Readings a few ulps apart, where the mean's rounding dominates the variance."""
    base = draw(st.floats(1e-3, 1e6))
    steps = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=64))
    return [base + k * math.ulp(base) for k in steps]


SERIES = st.one_of(
    st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=64),
    st.lists(st.floats(5e-324, 1.7e308), min_size=2, max_size=8),
    near_bound(),
    near_equal(),
)

# The readings of a cached table row whose verdict the bound cannot settle:
# the half-width is 1.0200000000000005 J against a bound of 1.02 J.
ON_THE_BOUND = [50.37338483505333, 50.68669241752666, 51.0, 51.313307582473335,
                51.62661516494668]
# A half-width of 0.12345649999999997 J, whose bounds print as 0.123456 and 0.123457.
ON_A_DECIMAL_BOUNDARY = [0.0019394096798660393, 0.005818229039598118]
FALLBACKS = {
    "on-the-bound": ON_THE_BOUND,
    "on-a-decimal-boundary": ON_A_DECIMAL_BOUNDARY,
    "equal": [10.0] * 5,
    "ulps-apart": [1.0, 1.0 + 2.0 ** -52, 1.0],
    "below-the-filter-range": [2.0 ** -400, 2.0 ** -399],
    "above-the-filter-range": [2.0 ** 400, 2.0 ** 401],
}


@settings(max_examples=400)
@given(SERIES)
@example(ON_THE_BOUND)
@example(ON_A_DECIMAL_BOUNDARY)
@example([10.0] * 5)
@example([1.0, 1.0 + 2.0 ** -52, 1.0])
@example([5e-324, 1e-323])
@example([1e308, 1.7e308])
def test_filtered_gate_gives_the_exact_outputs(samples):
    assert_same_as_exact(samples)


@pytest.mark.parametrize("samples", FALLBACKS.values(), ids=FALLBACKS)
def test_unsettled_series_take_the_exact_path(samples, exact_calls):
    series = MeasurementSeries.validate(samples)
    assert len(exact_calls) == 1
    assert series.describe() == exact_series(samples).describe()


def test_fallback_examples_sit_where_they_claim():
    verdict, mean, half_width = ci_check(ON_THE_BOUND)
    assert verdict is Verdict.FAIL
    assert 0 < half_width - DEFAULT_REL_HALF_WIDTH * mean <= 4 * math.ulp(half_width)
    _, _, half_width = ci_check(ON_A_DECIMAL_BOUNDARY)
    assert f"{half_width:.6g}" == "0.123456"
    assert f"{math.nextafter(half_width, 1.0) * (1 + 2.0 ** -50):.6g}" == "0.123457"


@pytest.mark.parametrize("samples", [
    [100.1, 99.7, 100.0, 100.3, 99.9],
    [120.0 * (1 + d) for d in (-0.04, -0.02, 0.0, 0.02, 0.04)],
    [9.0, 11.0] * 10,
], ids=["pass", "fail", "twenty"])
def test_separated_series_skip_the_exact_path(samples, exact_calls):
    series = MeasurementSeries.validate(samples)
    assert exact_calls == []
    assert series.describe() == exact_series(samples).describe()
