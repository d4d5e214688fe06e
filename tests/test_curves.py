import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import ctpdse
from ctpdse.curves import (
    CurveDataError,
    RdeCurve,
    RdePoint,
    _prepare,
    aggregate_reports,
    bd_delta,
    bd_report,
)


def sorted_log_cost(points):
    """(quality, log10 cost) arrays sorted by quality."""
    arr = np.asarray(points, dtype=float)
    order = np.argsort(arr[:, 1])
    return arr[order, 1], np.log10(arr[order, 0])


def bd_trapezoid_oracle(anchor, test, samples=100_000):
    """Numerical reference: dense trapezoid over the same log-cost interpolants."""
    aq, ac = sorted_log_cost(anchor)
    tq, tc = sorted_log_cost(test)
    lo, hi = max(aq[0], tq[0]), min(aq[-1], tq[-1])
    xs = np.linspace(lo, hi, samples)
    int_anchor = np.trapezoid(PchipInterpolator(aq, ac)(xs), xs)
    int_test = np.trapezoid(PchipInterpolator(tq, tc)(xs), xs)
    delta = (int_test - int_anchor) / (hi - lo)
    return 100.0 * (10.0 ** delta - 1.0)


def bd_scipy_oracle(anchor, test):
    """Reference: scipy's PCHIP interpolants integrated over the common quality range."""
    aq, ac = sorted_log_cost(anchor)
    tq, tc = sorted_log_cost(test)
    lo, hi = max(aq[0], tq[0]), min(aq[-1], tq[-1])
    int_anchor = PchipInterpolator(aq, ac).integrate(lo, hi)
    int_test = PchipInterpolator(tq, tc).integrate(lo, hi)
    return float(100.0 * (10.0 ** ((int_test - int_anchor) / (hi - lo)) - 1.0))


@st.composite
def overlapping_curve_pairs(draw):
    """Two curves of 4-6 points whose quality ranges overlap at least in part.

    Costs are drawn in any order with repeats, so secants change sign or
    vanish and the PCHIP zero-slope and end-clamp rules are exercised.
    """
    def curve(start, steps):
        costs = draw(st.lists(st.sampled_from((10.0, 100.0)) | st.floats(1.0, 1e4),
                              min_size=len(steps) + 1, max_size=len(steps) + 1))
        return list(zip(costs, itertools.accumulate(steps, initial=start)))

    def steps():
        return draw(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=5))

    anchor_steps, test_steps = steps(), steps()
    shift = draw(st.floats(-0.9, 0.9))
    span = sum(anchor_steps) if shift > 0 else sum(test_steps)
    return curve(30.0, anchor_steps), curve(30.0 + shift * span, test_steps)


def random_curve_pair(rng):
    """Monotone 4-point (cost, quality) pair with guaranteed quality overlap."""
    q0 = rng.uniform(30.0, 40.0)
    anchor_q = q0 + np.cumsum(rng.uniform(1.0, 4.0, size=4))
    anchor_c = rng.uniform(500.0, 5000.0) * np.cumprod(rng.uniform(1.3, 2.5, size=4))
    test_q = q0 + rng.uniform(-1.5, 1.5) + np.cumsum(rng.uniform(1.0, 4.0, size=4))
    test_c = (
        rng.uniform(1.2, 2.5)
        * rng.uniform(500.0, 5000.0)
        * np.cumprod(rng.uniform(1.3, 2.5, size=4))
    )
    return list(zip(anchor_c, anchor_q)), list(zip(test_c, test_q))


def make_curve(ctp_id="3FFFFFFF", sequence="s01", rate_mult=1.0, energy_mult=1.0,
               psnr_shift=0.0, vmaf_shift=0.0):
    qps = (22, 27, 32, 37)
    rate = (8000.0, 4500.0, 2500.0, 1400.0)
    psnr = (42.5, 40.1, 37.4, 34.6)
    vmaf = (92.0, 86.5, 78.0, 66.0)
    energy = (120.0, 90.0, 65.0, 45.0)
    points = tuple(
        RdePoint(q, r * rate_mult, p + psnr_shift, v + vmaf_shift, e * energy_mult)
        for q, r, p, v, e in zip(qps, rate, psnr, vmaf, energy)
    )
    return RdeCurve(sequence, ctp_id, points)


class TestPointValidation:
    def test_zero_bitrate_rejected(self):
        with pytest.raises(CurveDataError, match="bitrate"):
            RdePoint(22, 0.0, 40.0, 90.0, 10.0)
        with pytest.raises(CurveDataError, match="bitrate"):
            RdePoint(22, math.inf, 40.0, 90.0, 10.0)

    def test_zero_energy_rejected(self):
        with pytest.raises(CurveDataError, match="energy"):
            RdePoint(22, 100.0, 40.0, 90.0, 0.0)
        with pytest.raises(CurveDataError, match="energy"):
            RdePoint(22, 100.0, 40.0, 90.0, math.inf)

    def test_vmaf_range(self):
        with pytest.raises(CurveDataError, match="vmaf"):
            RdePoint(22, 100.0, 40.0, 100.5, 10.0)

    def test_psnr_must_be_finite(self):
        with pytest.raises(CurveDataError, match="psnr"):
            RdePoint(22, 100.0, math.nan, 90.0, 10.0)


class TestCurveValidation:
    def test_needs_four_points(self):
        points = make_curve().points[:3]
        with pytest.raises(CurveDataError, match="at least 4"):
            RdeCurve("s01", "X", points)

    def test_qp_order_diagnostic(self):
        p = make_curve().points
        with pytest.raises(CurveDataError, match="qps not strictly increasing"):
            RdeCurve("s01", "X", (p[0], p[2], p[1], p[3]))

    def test_bitrate_monotonicity_diagnostic(self):
        good = make_curve().points
        bad = list(good)
        bad[2] = RdePoint(32, good[1].bitrate, good[2].psnr, good[2].vmaf, good[2].energy)
        with pytest.raises(CurveDataError, match="bitrate not strictly decreasing"):
            RdeCurve("s01", "X", tuple(bad))

    def test_energy_monotonicity_diagnostic(self):
        good = make_curve().points
        bad = list(good)
        bad[3] = RdePoint(37, good[3].bitrate, good[3].psnr, good[3].vmaf, good[2].energy + 1)
        with pytest.raises(CurveDataError, match="energy not strictly decreasing"):
            RdeCurve("s01", "X", tuple(bad))


class TestBdDelta:
    def test_identical_curves_give_exactly_zero(self):
        pts = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        assert bd_delta(pts, pts) == 0.0

    def test_doubled_cost_is_plus_hundred(self):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(c * 2.0, q) for c, q in anchor]
        assert abs(bd_delta(anchor, test) - 100.0) < 1e-9

    @pytest.mark.parametrize("factor", [0.5, 0.75, 1.25, 2.0])
    def test_constant_factor_maps_to_percent(self, factor):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(c * factor, q) for c, q in anchor]
        expected = 100.0 * (factor - 1.0)
        assert bd_delta(anchor, test) == pytest.approx(expected, abs=1e-9)

    def test_matches_trapezoid_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            anchor, test = random_curve_pair(rng)
            closed = bd_delta(anchor, test)
            oracle = bd_trapezoid_oracle(anchor, test)
            assert closed == pytest.approx(oracle, rel=1e-6)

    @given(overlapping_curve_pairs())
    @example(  # a secant sign change: zero interior slope and the 3 * m0 end clamp
        ([(100.0, 30.0), (120.0, 31.0), (30.0, 32.0), (40.0, 33.0)],
         [(100.0, 30.5), (100.0, 31.5), (50.0, 32.5), (80.0, 33.5), (20.0, 34.0)]),
    )
    def test_matches_scipy_pchip_integral(self, pair):
        anchor, test = pair
        assert bd_delta(anchor, test) == pytest.approx(bd_scipy_oracle(anchor, test),
                                                       rel=1e-9, abs=1e-12)

    def test_antisymmetry_on_offset_curves(self):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        for factor in (0.6, 1.4, 2.2):
            test = [(c * factor, q) for c, q in anchor]
            forward = bd_delta(anchor, test)
            backward = bd_delta(test, anchor)
            expected = 100.0 * (1.0 / (1.0 + forward / 100.0) - 1.0)
            assert backward == pytest.approx(expected, rel=1e-6)

    def test_scale_invariance_of_costs(self):
        rng = np.random.default_rng(5)
        anchor, test = random_curve_pair(rng)
        base = bd_delta(anchor, test)
        for scale in (1e-3, 7.0, 1e4):
            scaled = bd_delta(
                [(c * scale, q) for c, q in anchor],
                [(c * scale, q) for c, q in test],
            )
            assert scaled == pytest.approx(base, abs=1e-9)

    @given(st.permutations(range(4)))
    def test_reorder_invariance(self, order):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(900.0, 33.0), (2100.0, 36.8), (5000.0, 40.9), (7000.0, 41.9)]
        shuffled = [test[i] for i in order]
        assert bd_delta(anchor, shuffled) == bd_delta(anchor, test)

    def test_interpolant_recovers_nodes(self):
        # the closed-form integration rests on the interpolant passing
        # exactly through the measured points
        quality, log_cost = _prepare(
            [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)], "anchor"
        )
        spline = PchipInterpolator(quality, log_cost)
        assert np.array_equal(spline(quality), log_cost)

    def test_too_few_points(self):
        pts3 = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1)]
        with pytest.raises(CurveDataError, match="at least 4"):
            bd_delta(pts3, pts3 + [(8000.0, 42.5)])

    def test_empty_overlap(self):
        anchor = [(1400.0, 10.0), (2500.0, 12.0), (4500.0, 14.0), (8000.0, 16.0)]
        test = [(1400.0, 20.0), (2500.0, 22.0), (4500.0, 24.0), (8000.0, 26.0)]
        with pytest.raises(CurveDataError, match="overlap"):
            bd_delta(anchor, test)

    def test_duplicate_quality_rejected(self):
        pts = [(1400.0, 34.6), (2500.0, 34.6), (4500.0, 40.1), (8000.0, 42.5)]
        with pytest.raises(CurveDataError, match="monotone"):
            bd_delta(pts, pts)

    def test_non_positive_cost_rejected(self):
        pts = [(-1.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        with pytest.raises(CurveDataError, match="cost"):
            bd_delta(pts, pts)


@pytest.mark.parametrize("module, absent", [
    ("ctpdse.cli", ("numpy", "scipy")),
    ("ctpdse.curves", ("numpy", "scipy")),
    ("ctpdse.cli", ("statistics", "fractions", "decimal")),
    ("ctpdse.stats", ("statistics", "fractions", "decimal")),
    ("ctpdse.curves", ("subprocess", "concurrent", "shlex", "csv")),
    ("ctpdse.stats", ("subprocess", "concurrent", "shlex", "csv")),
])
def test_import_loads_no_numeric_library(module, absent):
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    code = (f"import sys, {module}; "
            f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(absent)!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_synthetic_dse_loads_no_numeric_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    argv = ["dse", "--strategy", "ea", "--backend", "synthetic", "--seed", "7",
            "--out", str(tmp_path / "run")]
    code = (f"import sys; from ctpdse import cli; code = cli.main({argv!r}); "
            "print(code, sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


class TestBdReport:
    def test_self_report_is_zero(self):
        curve = make_curve()
        report = bd_report(curve, curve)
        assert (report.bdr_psnr, report.bdr_vmaf, report.bdde_psnr, report.bdde_vmaf) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_halved_energy_only_touches_bdde(self):
        anchor = make_curve()
        test = make_curve(ctp_id="TEST", energy_mult=0.5)
        report = bd_report(anchor, test)
        assert report.bdr_psnr == 0.0
        assert report.bdr_vmaf == 0.0
        assert report.bdde_psnr == pytest.approx(-50.0, abs=1e-9)
        assert report.bdde_vmaf == pytest.approx(-50.0, abs=1e-9)

    def test_composition_matches_bd_delta(self):
        anchor = make_curve()
        test = make_curve(ctp_id="TEST", rate_mult=1.2, energy_mult=0.8,
                          psnr_shift=-0.4, vmaf_shift=-1.0)
        report = bd_report(anchor, test)
        assert report.bdr_psnr == bd_delta(anchor.axis("bitrate", "psnr"),
                                           test.axis("bitrate", "psnr"))
        assert report.bdr_vmaf == bd_delta(anchor.axis("bitrate", "vmaf"),
                                           test.axis("bitrate", "vmaf"))
        assert report.bdde_psnr == bd_delta(anchor.axis("energy", "psnr"),
                                            test.axis("energy", "psnr"))
        assert report.bdde_vmaf == bd_delta(anchor.axis("energy", "vmaf"),
                                            test.axis("energy", "vmaf"))

    def test_sequence_mismatch_rejected(self):
        with pytest.raises(CurveDataError, match="sequence mismatch"):
            bd_report(make_curve(sequence="a"), make_curve(sequence="b"))

    def test_error_tagged_with_metric_name(self):
        anchor = make_curve(vmaf_shift=-60.0)  # vmaf range 6..32
        test = make_curve(ctp_id="TEST")       # vmaf range 66..92, no overlap
        with pytest.raises(CurveDataError, match="bdr_vmaf"):
            bd_report(anchor, test)

    def test_costs_too_far_apart_rejected(self):
        # an energy ratio of 1e600 overflows 10 ** delta
        anchor = make_curve(energy_mult=1e-300)
        test = make_curve(ctp_id="TEST", energy_mult=1e300)
        with pytest.raises(CurveDataError, match="not finite"):
            bd_report(anchor, test)

    def test_thin_overlap_warns_on_report(self):
        anchor = make_curve()
        # psnr span is 7.9; shift so the common range is ~0.5 of it
        test = make_curve(ctp_id="TEST", psnr_shift=7.4, vmaf_shift=-5.0)
        report = bd_report(anchor, test)
        assert any("bdr_psnr" in w and "overlap" in w for w in report.warnings)
        assert any("bdde_psnr" in w for w in report.warnings)


class TestAggregate:
    def _report(self, value):
        return bd_report(make_curve(), make_curve(ctp_id="T", energy_mult=value))

    def test_single_report_is_identity(self):
        report = self._report(0.5)
        assert aggregate_reports([report]) == report

    def test_two_reports_average(self):
        a = self._report(0.9)
        b = self._report(0.8)
        merged = aggregate_reports([a, b])
        assert merged.bdde_vmaf == pytest.approx((a.bdde_vmaf + b.bdde_vmaf) / 2)
        assert merged.bdr_vmaf == 0.0

    def test_mean_is_idempotent_on_copies(self):
        report = self._report(0.7)
        assert aggregate_reports([report] * 5) == report

    def test_empty_rejected(self):
        with pytest.raises(CurveDataError, match="empty"):
            aggregate_reports([])

    def test_warnings_merged_without_duplicates(self):
        anchor = make_curve()
        warned = bd_report(anchor, make_curve(ctp_id="T", psnr_shift=7.4, vmaf_shift=-5.0))
        merged = aggregate_reports([warned, warned])
        assert merged.warnings == warned.warnings
