import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import stdev

import numpy as np
import pytest
from scipy.stats import t as student_t

import ctpdse
from ctpdse.errors import ConfigError
from ctpdse.stats import MeasurementSeries, Verdict, ci_check


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
        # half_width is ~0.656 at mean 10, so the verdict turns on whether
        # the allowed fraction sits below or above 0.0656
        samples = [9.0, 11.0] * 10
        verdict, _, _ = ci_check(samples, rel_half_width=0.05)
        assert verdict is Verdict.FAIL
        verdict, _, _ = ci_check(samples, confidence=0.99, rel_half_width=0.07)
        assert verdict is Verdict.PASS

    def test_non_positive_sample_rejected(self):
        with pytest.raises(ConfigError, match="> 0"):
            ci_check([10.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            ci_check([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigError, match="confidence"):
            ci_check([1.0, 2.0], confidence=1.0)

    def test_bad_bound_rejected(self):
        with pytest.raises(ConfigError, match="rel_half_width"):
            ci_check([1.0, 2.0], rel_half_width=0.0)

    def test_half_width_equals_scipy_stats_quantile(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 10, 30, 199):
            samples = list(rng.uniform(9.0, 11.0, size=n))
            sd = stdev(samples)
            for confidence in (0.5, 0.9, 0.95, 0.99, 0.999, 0.123456):
                _, _, half_width = ci_check(samples, confidence)
                quantile = float(student_t.ppf((1 + confidence) / 2, n - 1))
                assert half_width == quantile * sd / math.sqrt(n)


def test_cli_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    code = "import sys, ctpdse.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


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


class TestMeasurementSeries:
    def test_validate_records_parameters_and_verdict(self):
        series = MeasurementSeries.validate([10.0] * 3, confidence=0.95, rel_half_width=0.05)
        assert series.verdict is Verdict.PASS
        assert series.confidence == 0.95
        assert series.rel_half_width == 0.05
        assert series.samples == (10.0, 10.0, 10.0)
        assert series.mean == 10.0
        assert series.half_width == 0.0

    def test_describe_echoes_configuration(self):
        series = MeasurementSeries.validate([9.0, 11.0])
        text = series.describe()
        assert "fail" in text
        assert "0.99" in text and "0.02" in text
