import hashlib
import math
import operator
import random
import statistics
import struct
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctpdse.errors import ConfigError
from ctpdse.stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_REL_HALF_WIDTH,
    MeasurementSeries,
    Verdict,
    ci_check,
    exact_mean,
    exact_stdev,
    _integer_mean,
    t_quantile,
)


def t_cdf(t, df):
    """Student-t CDF at the working mpmath precision, from the regularised incomplete beta."""
    nu = mpmath.mpf(df)
    return 1 - mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t),
                              regularized=True) / 2


class TestCiCheck:
    def test_zero_variance_passes_with_zero_half_width(self):
        verdict, mean, half_width = ci_check([10.0] * 5)
        assert verdict is Verdict.PASS
        assert mean == 10.0
        assert half_width == 0.0

    def test_single_sample_is_insufficient(self):
        verdict, mean, half_width = ci_check([42.0])
        assert verdict is Verdict.INSUFFICIENT
        assert mean == 42.0
        assert half_width == math.inf

    def test_alternating_series_matches_t_table(self):
        # {9, 11} x 10: n=20, mean 10, sample variance 20/19.
        # Two-sided 99% quantile t(0.995, df=19) = 2.861 from a printed
        # t-table, so half_width = 2.861 * sqrt(20/19) / sqrt(20).
        samples = [9.0, 11.0] * 10
        expected_hw = 2.861 * math.sqrt(20 / 19) / math.sqrt(20)
        verdict, mean, half_width = ci_check(samples)
        assert mean == 10.0
        assert half_width == pytest.approx(expected_hw, rel=1e-3)
        # bound is 0.02 * 10 = 0.2 < 0.656, so the series is rejected
        assert verdict is Verdict.FAIL

    def test_tight_series_passes_and_matches_t_table(self):
        # n=5, mean 10, sample variance 2.5e-4; t(0.995, df=4) = 4.604.
        samples = [10.00, 10.02, 9.98, 10.01, 9.99]
        expected_hw = 4.604 * math.sqrt(2.5e-4) / math.sqrt(5)
        verdict, mean, half_width = ci_check(samples)
        assert mean == pytest.approx(10.0)
        assert half_width == pytest.approx(expected_hw, rel=1e-3)
        assert verdict is Verdict.PASS

    def test_wider_bound_flips_verdict(self):
        # Five readings 10 + step * (-2..2) have mean 10, so the bound is
        # 0.02 * 10 = 0.2, and half_width = t(0.995, df=4) * step *
        # sqrt(5/2) / sqrt(5), about 3.2556 * step, crosses it between step
        # 0.0614 (0.05 % inside) and 0.0615 (0.11 % outside).
        for step, verdict in ((0.0614, Verdict.PASS), (0.0615, Verdict.FAIL)):
            samples = [10.0 + step * k for k in (-2, -1, 0, 1, 2)]
            got, mean, half_width = ci_check(samples)
            assert mean == 10.0
            assert abs(half_width / (DEFAULT_REL_HALF_WIDTH * mean) - 1) < 2e-3
            assert got is verdict, step

    def test_non_positive_sample_rejected(self):
        with pytest.raises(ConfigError, match="> 0"):
            ci_check([10.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_sample_rejected_and_named(self, bad):
        with pytest.raises(ConfigError, match=f"finite and > 0, got {bad}"):
            ci_check([10.0, bad, 10.0])

    def test_sample_sum_overflow_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"overflows a float: \(1e\+308, 1\.7e\+308\)"):
            ci_check((1e308, 1.7e308))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            ci_check([])

    def test_half_width_uses_the_correctly_rounded_quantile(self):
        # q is the correctly rounded root of F(q) = p exactly when the CDF at
        # the midpoints from q to its neighbouring floats brackets p; the
        # CDF is taken from mpmath at 200 bits. The gate uses the quantile
        # at DEFAULT_CONFIDENCE.
        rng = random.Random(5)
        with mpmath.workprec(200):
            for n in range(2, 201):
                samples = [rng.uniform(9.0, 11.0) for _ in range(n)]
                for confidence in (0.5, 0.9, 0.95, 0.99, 0.999, 0.123456):
                    p = (1 + confidence) / 2
                    q = t_quantile(p, n - 1)
                    below = (mpmath.mpf(q) + math.nextafter(q, 0.0)) / 2
                    above = (mpmath.mpf(q) + math.nextafter(q, math.inf)) / 2
                    assert t_cdf(below, n - 1) < p < t_cdf(above, n - 1), (confidence, n)
                    if confidence == DEFAULT_CONFIDENCE:
                        _, _, half_width = ci_check(samples)
                        assert half_width == q * exact_stdev(samples) / math.sqrt(n)


class TestQuantile:
    def test_run_path_quantiles_are_pinned(self):
        # The readers' confidence for n = 2..200, as checked against mpmath
        # above; the digest is of their space-separated reprs.
        quantiles = [t_quantile((1 + DEFAULT_CONFIDENCE) / 2, n - 1) for n in range(2, 201)]
        assert quantiles[0] == 63.656741162871526
        assert quantiles[3] == 4.604094871349992
        assert quantiles[-1] == 2.6007602160585157
        digest = hashlib.sha256(" ".join(map(repr, quantiles)).encode()).hexdigest()
        assert digest == "74188787a1c22f14ca8941fd2e54855cedd91502886c1f355965693750297f6d"

    def test_edges(self):
        assert t_quantile(0.5, 3) == 0.0
        assert t_quantile(0.75, 1) == 1.0  # tan(pi / 4)
        assert t_quantile(1.0, 3) == math.inf
        # The largest p below 1: at df = 1 the root is cot(pi * 2**-53).
        assert t_quantile(1 - 2 ** -53, 1) == 2867080569611329.5
        for p, df in ((0.25, 3), (math.nextafter(1.0, 2.0), 3), (0.9, 0)):
            with pytest.raises(ValueError, match="1/2 <= p <= 1 and df >= 1"):
                t_quantile(p, df)


class TestProperties:
    def test_half_width_scales_with_samples_and_verdict_is_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = rng.uniform(5.0, 50.0)
            samples = list(base + rng.normal(0, base * 0.01, size=6))
            samples = [abs(s) for s in samples]
            verdict, mean, half_width = ci_check(samples)
            for scale in (0.25, 3.0, 1e3):
                v2, m2, h2 = ci_check([s * scale for s in samples])
                assert v2 is verdict
                assert m2 == pytest.approx(mean * scale, rel=1e-12)
                assert h2 == pytest.approx(half_width * scale, rel=1e-12)

    def test_adding_exact_mean_sample_never_worsens_ratio(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            samples = list(rng.uniform(8.0, 12.0, size=rng.integers(2, 9)))
            _, mean, half_width = ci_check(samples)
            _, mean2, half_width2 = ci_check(samples + [mean])
            assert mean2 == pytest.approx(mean, rel=1e-12)
            assert half_width2 / mean2 <= half_width / mean + 1e-12


# Signed floats from the subnormals up to about 1e300, so that one series
# can mix magnitudes some 600 decades apart; ldexp rounds the smallest
# draws to subnormals or to zero.
MAGNITUDES = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1080, 997))
VALUES = st.one_of(
    MAGNITUDES,
    MAGNITUDES.map(operator.neg),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
)


def float_series(min_size):
    """1-12 values, either drawn freely or repeated from a small pool."""
    free = st.lists(VALUES, min_size=min_size, max_size=12)
    repeated = st.lists(VALUES, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=min_size, max_size=12))
    return st.one_of(free, repeated)


# A power-of-two count of values, from VALUES or from every finite float.
POWER_OF_TWO_SERIES = st.integers(0, 4).flatmap(lambda k: st.lists(
    st.one_of(VALUES, st.floats(allow_nan=False, allow_infinity=False)),
    min_size=2 ** k, max_size=2 ** k))
FLOAT_MAX, FLOAT_MIN = sys.float_info.max, sys.float_info.min


def fraction_variance(values):
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)


class TestExactStatistics:
    @given(float_series(min_size=1))
    @example([-0.0])
    @example([-0.0, 0.0])
    @example([1e300, 1e-300, -1e300, 5e-324])
    def test_mean_equals_statistics_mean(self, values):
        assert repr(exact_mean(values)) == repr(statistics.mean(values))

    @given(POWER_OF_TWO_SERIES)
    @example([0.0, 0.0])
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([-0.0, -0.0, -0.0, -0.0])
    @example([1.5, -1.5])
    @example([FLOAT_MAX, FLOAT_MAX])
    @example([-FLOAT_MAX, -FLOAT_MAX])
    @example([FLOAT_MAX, FLOAT_MAX * 2.0 ** -53])
    @example([FLOAT_MAX, FLOAT_MAX * 2.0 ** -54])
    @example([FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, 1.0])
    @example([5e-324, 5e-324])
    @example([5e-324, 0.0])
    @example([FLOAT_MIN, 5e-324])
    @example([FLOAT_MIN, FLOAT_MIN])
    @example([FLOAT_MIN, -5e-324, 0.0, 0.0])
    @example([FLOAT_MIN, 3 * FLOAT_MIN])
    # The sum rounds once to a normal float and its eighth again to a
    # subnormal one, which makes it one subnormal step short of the mean.
    @example([math.ldexp(1.0, -1020) + math.ldexp(1.0, -1072), 5e-324] + [0.0] * 6)
    def test_power_of_two_count_gives_the_integer_paths_float(self, values):
        assert exact_mean(values).hex() == _integer_mean(values).hex()

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev is correctly rounded from Python 3.11 on")
    @given(float_series(min_size=2))
    @example([1e300, 1e-300, 5e-324])
    @example([7.0, 7.0, 7.0])
    def test_stdev_equals_statistics_stdev(self, values):
        assert repr(exact_stdev(values)) == repr(statistics.stdev(values))

    @given(float_series(min_size=2))
    @example([1.0, 2.0])
    @example([5e-324, 1e-323])
    def test_stdev_is_correctly_rounded_root_of_exact_variance(self, values):
        result = exact_stdev(values)
        variance = fraction_variance(values)
        if variance == 0:
            assert result == 0.0
            return
        # The root rounds to ``result`` exactly when it lies between the
        # midpoints to ``result``'s neighbours; on a midpoint the even one wins.
        at = Fraction(result)
        low = (at + Fraction(math.nextafter(result, 0.0))) / 2
        high = (at + Fraction(math.nextafter(result, math.inf))) / 2
        assert low * low <= variance <= high * high
        if variance in (low * low, high * high):
            assert struct.unpack("<Q", struct.pack("<d", result))[0] % 2 == 0


class TestMeasurementSeries:
    def test_validate_records_parameters_and_verdict(self):
        series = MeasurementSeries.validate([10.0] * 3)
        assert series.verdict is Verdict.PASS
        assert series.samples == (10.0, 10.0, 10.0)
        assert series.mean == 10.0
        assert series.half_width_text == "0"

    def test_describe_echoes_configuration(self):
        series = MeasurementSeries.validate([9.0, 11.0])
        text = series.describe()
        assert "fail" in text
        assert "0.99" in text and "0.02" in text
