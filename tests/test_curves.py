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
    BD_FIELDS,
    MIN_OVERLAP_FRACTION,
    BdReport,
    CurveDataError,
    PreparedAnchor,
    QualityAxis,
    RdeCurve,
    RdePoint,
    aggregate_reports,
    bd_delta,
    bd_report,
    _four_point_side,
    _integrals,
    _intervals,
    _overlap,
    _pchip_slopes,
    _percent,
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

    Returns each curve's (bitrate, quality) pairs, then each curve's
    energies, one per pair. A pair's bitrates come from one of three
    branches, chosen once per pair:
    - in any order with repeats, so secants change sign or vanish and the
      PCHIP zero-slope and end-clamp rules are exercised;
    - distinct and in any order, so both curves are ``RdeCurve``s and
      most of them have a quality that does not fall with qp;
    - distinct and rising with quality, as a measured ladder's costs are.
    The last two reach ``bd_report``, and a four-point test there takes
    each of ``_four_point_side``'s two orders. The energies are distinct
    and drawn apart from the bitrates, and they rise as the bitrates do,
    so both fall in qp order as a measured curve's do.
    """
    branch = draw(st.sampled_from(("repeats", "distinct", "rising")))

    def curve(start, steps):
        size = len(steps) + 1
        if branch == "repeats":
            costs = draw(st.lists(st.sampled_from((10.0, 100.0)) | st.floats(1.0, 1e4),
                                  min_size=size, max_size=size))
        else:
            costs = draw(st.lists(st.floats(1.0, 1e4), min_size=size, max_size=size,
                                  unique=True))
            if branch == "rising":
                costs.sort()
        energies = sorted(draw(st.lists(st.floats(1.0, 1e4), min_size=size, max_size=size,
                                        unique=True)))
        energy = [0.0] * size
        for rank, i in enumerate(sorted(range(size), key=costs.__getitem__)):
            energy[i] = energies[rank]
        return list(zip(costs, itertools.accumulate(steps, initial=start))), energy

    def steps():
        return draw(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=5))

    anchor_steps, test_steps = steps(), steps()
    shift = draw(st.floats(-0.9, 0.9))
    span = sum(anchor_steps) if shift > 0 else sum(test_steps)
    (anchor, anchor_energy), (test, test_energy) = (curve(30.0, anchor_steps),
                                                    curve(30.0 + shift * span, test_steps))
    return anchor, test, anchor_energy, test_energy


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


def random_energy(rng):
    """Energies of a ``random_curve_pair`` curve's four points, drawn apart from its bitrates.

    They rise with quality, as its bitrates do.
    """
    return list(rng.uniform(20.0, 200.0) * np.cumprod(rng.uniform(1.3, 2.5, size=4)))


def make_curve(sequence="s01", rate_mult=1.0, energy_mult=1.0, psnr_shift=0.0,
               vmaf_shift=0.0):
    qps = (22, 27, 32, 37)
    rate = (8000.0, 4500.0, 2500.0, 1400.0)
    psnr = (42.5, 40.1, 37.4, 34.6)
    vmaf = (92.0, 86.5, 78.0, 66.0)
    energy = (120.0, 90.0, 65.0, 45.0)
    points = tuple(
        RdePoint(q, r * rate_mult, p + psnr_shift, v + vmaf_shift, e * energy_mult)
        for q, r, p, v, e in zip(qps, rate, psnr, vmaf, energy)
    )
    return RdeCurve(sequence, points)


def ladder_curve(psnr, vmaf, rate=(8000.0, 4500.0, 2500.0, 1400.0, 800.0),
                 energy=(120.0, 90.0, 65.0, 45.0, 30.0)):
    """An ``s01`` curve with one point per quality, on qps 22, 27, ... in that order."""
    return RdeCurve("s01", tuple(map(RdePoint, (22, 27, 32, 37, 42), rate, psnr, vmaf, energy)))


def axis_pairs(curve, cost, quality):
    """The (cost, quality) pairs of ``curve``'s points, in qp order."""
    return [(getattr(p, cost), getattr(p, quality)) for p in curve.points]


def side_nodes(side):
    """Quality, widths and both costs' log10 values at the nodes of an ``_intervals`` side."""
    quality = [a for a, *_ in side] + [side[-1][1]]
    widths = [w for _, _, w, *_ in side]
    log_costs = [[i[3] for i in side] + [side[-1][4]], [i[7] for i in side] + [side[-1][8]]]
    return quality, widths, log_costs


def energy_pairs(pairs, energy):
    """The (energy, quality) pairs of a curve's points; without energies, ``pairs`` themselves."""
    return pairs if energy is None else [(e, q) for (_, q), e in zip(pairs, energy)]


def vmaf_of(psnr):
    """The VMAF that ``pair_curve`` gives a point of PSNR ``psnr``: a rising logistic in (0, 100).

    Distinct PSNRs give distinct VMAFs on the ranges the tests draw. The
    map is not affine, because an affine map of quality leaves every BD
    value as it is, so a report's VMAF fields are not its PSNR fields.
    """
    return 100.0 / (1.0 + math.exp((40.0 - float(psnr)) / 8.0))


def vmaf_pairs(pairs):
    """The (cost, VMAF) pairs of (cost, PSNR) pairs, each VMAF as ``pair_curve`` gives it."""
    return [(c, vmaf_of(q)) for c, q in pairs]


def pair_curve(pairs, energy=None):
    """An ``s01`` curve of (bitrate, PSNR) pairs, sorted by falling bitrate, with qps from 0.

    ``energy`` holds each pair's energy, and must fall as the bitrate
    does; without it a point's energy is its bitrate. Each point's VMAF
    is ``vmaf_of`` its PSNR. A repeated cost is rejected, as ``RdeCurve``
    rejects it.
    """
    points = [(c, e, q) for (c, q), (e, _) in zip(pairs, energy_pairs(pairs, energy))]
    return RdeCurve("s01", tuple(RdePoint(qp, float(c), float(q), vmaf_of(q), float(e))
                                 for qp, (c, e, q) in enumerate(sorted(points, reverse=True))))


def report_bdr_bdde(anchor, test, anchor_energy=None, test_energy=None):
    """The (BDR, BDDE) on PSNR and then on VMAF of two ``pair_curve`` curves by ``bd_report``.

    ``bd_report`` is the path ``ctp`` runs.
    """
    report = bd_report(PreparedAnchor(pair_curve(anchor, anchor_energy)),
                       pair_curve(test, test_energy))
    return report.pair(QualityAxis.PSNR), report.pair(QualityAxis.VMAF)


def axis_oracles(oracle, anchor, test, anchor_energy=None, test_energy=None):
    """``oracle``'s (BDR, BDDE) on PSNR and then on VMAF, for the curves of ``report_bdr_bdde``.

    On each axis the BDR is the oracle on the rate pairs and the BDDE on
    the energy pairs; a PSNR pair is a (cost, quality) pair as given.
    """
    rate = anchor, test
    energy = energy_pairs(anchor, anchor_energy), energy_pairs(test, test_energy)
    return [(oracle(*map(on_axis, rate)), oracle(*map(on_axis, energy)))
            for on_axis in (list, vmaf_pairs)]


def report_bd(anchor, test):
    """The PSNR BD of (cost, PSNR) pairs by ``bd_report``, each cost both bitrate and energy."""
    (bdr, bdde), (vmaf_bdr, vmaf_bdde) = report_bdr_bdde(anchor, test)
    assert bdr == bdde and vmaf_bdr == vmaf_bdde
    return bdr


def pair_side(points, role, energy=None):
    """The ``_intervals`` side of (cost, quality) pairs and their energies, by default the costs."""
    cost = [c for c, _ in points]
    return _intervals([q for _, q in points], [cost, cost if energy is None else energy], role)


def kernel_bdr_bdde(anchor, test, anchor_energy=None, test_energy=None):
    """The (BDR, BDDE) of (cost, quality) pairs in any order, repeated costs included.

    The kernel's steps without ``RdeCurve``: each side by ``_intervals``,
    then ``_overlap``, ``_integrals`` and ``_percent``. A curve without
    energies takes its costs as its energies.
    """
    anchor = pair_side(anchor, "anchor", anchor_energy)
    test = pair_side(test, "test", test_energy)
    lo, hi = _overlap(anchor, test)
    return tuple(_percent((t - a) / (hi - lo))
                 for t, a in zip(_integrals(test, lo, hi), _integrals(anchor, lo, hi)))


def kernel_bd(anchor, test):
    """The BD value of (cost, quality) pairs in any order, repeated costs included."""
    return kernel_bdr_bdde(anchor, test)[0]


def holds_slopes(side, slopes):
    """Whether each interval of a side holds both costs' end ``slopes`` times its width."""
    sa, sb = slopes
    held = [(d0, d1, e0, e1) for _, _, _, _, _, d0, d1, _, _, e0, e1 in side]
    return held == [(w * sa[k], w * sa[k + 1], w * sb[k], w * sb[k + 1])
                    for k, (_, _, w, *_) in enumerate(side)]


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
            RdeCurve("s01", points)

    def test_qp_order_diagnostic(self):
        p = make_curve().points
        with pytest.raises(CurveDataError, match="qps not strictly increasing"):
            RdeCurve("s01", (p[0], p[2], p[1], p[3]))

    def test_bitrate_monotonicity_diagnostic(self):
        good = make_curve().points
        bad = list(good)
        bad[2] = RdePoint(32, good[1].bitrate, good[2].psnr, good[2].vmaf, good[2].energy)
        with pytest.raises(CurveDataError, match="bitrate not strictly decreasing"):
            RdeCurve("s01", tuple(bad))

    def test_energy_monotonicity_diagnostic(self):
        good = make_curve().points
        bad = list(good)
        bad[3] = RdePoint(37, good[3].bitrate, good[3].psnr, good[3].vmaf, good[2].energy + 1)
        with pytest.raises(CurveDataError, match="energy not strictly decreasing"):
            RdeCurve("s01", tuple(bad))


class TestBdDelta:
    """BD values of (cost, quality) pairs, and the pair entry point's own input checks.

    The values come from ``report_bd``, the path ``ctp`` runs, or from
    ``kernel_bd`` where an ``RdeCurve`` cannot hold the pairs. Only the
    input-check tests call the entry point this class is named for, and
    they go with it.
    """

    def test_identical_curves_give_exactly_zero(self):
        pts = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        assert report_bd(pts, pts) == 0.0

    def test_doubled_cost_is_plus_hundred(self):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(c * 2.0, q) for c, q in anchor]
        assert abs(report_bd(anchor, test) - 100.0) < 1e-9

    @pytest.mark.parametrize("factor", [0.5, 0.75, 1.25, 2.0])
    def test_constant_factor_maps_to_percent(self, factor):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(c * factor, q) for c, q in anchor]
        expected = 100.0 * (factor - 1.0)
        assert report_bd(anchor, test) == pytest.approx(expected, abs=1e-9)

    def test_matches_trapezoid_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            anchor, test = random_curve_pair(rng)
            anchor_energy, test_energy = random_energy(rng), random_energy(rng)
            for values, oracles in zip(
                    report_bdr_bdde(anchor, test, anchor_energy, test_energy),
                    axis_oracles(bd_trapezoid_oracle, anchor, test, anchor_energy, test_energy)):
                assert values == pytest.approx(oracles, rel=1e-6)

    @given(overlapping_curve_pairs())
    @example(  # a secant sign change: zero interior slope and the 3 * m0 end clamp
        ([(100.0, 30.0), (120.0, 31.0), (30.0, 32.0), (40.0, 33.0)],
         [(100.0, 30.5), (100.0, 31.5), (50.0, 32.5), (80.0, 33.5), (20.0, 34.0)]),
    )
    @example(  # distinct costs and unequal widths: a four-point test side on the path ctp runs
        ([(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)],
         [(900.0, 33.0), (2100.0, 36.8), (5000.0, 40.9), (7000.0, 41.9)]),
    )
    def test_matches_scipy_pchip_integral(self, case):
        # An @example gives no energies: each point's energy is its bitrate.
        anchor, test, *energy = case
        anchor_energy, test_energy = energy or (None, None)
        oracles = axis_oracles(bd_scipy_oracle, anchor, test, anchor_energy, test_energy)
        # An RdeCurve needs distinct costs; pairs that repeat one take the
        # kernel's steps, which read the PSNR alone.
        if any(len({c for c, _ in pairs}) < len(pairs) for pairs in (anchor, test)):
            checks = [(kernel_bdr_bdde(anchor, test, anchor_energy, test_energy), oracles[0])]
        else:
            checks = zip(report_bdr_bdde(anchor, test, anchor_energy, test_energy), oracles)
        for values, expected in checks:
            assert values == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_antisymmetry_on_offset_curves(self):
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        for factor in (0.6, 1.4, 2.2):
            test = [(c * factor, q) for c, q in anchor]
            forward = report_bd(anchor, test)
            backward = report_bd(test, anchor)
            expected = 100.0 * (1.0 / (1.0 + forward / 100.0) - 1.0)
            assert backward == pytest.approx(expected, rel=1e-6)

    def test_scale_invariance_of_costs(self):
        rng = np.random.default_rng(5)
        anchor, test = random_curve_pair(rng)
        base = report_bd(anchor, test)
        for scale in (1e-3, 7.0, 1e4):
            scaled = report_bd(
                [(c * scale, q) for c, q in anchor],
                [(c * scale, q) for c, q in test],
            )
            assert scaled == pytest.approx(base, abs=1e-9)

    @given(st.permutations(range(4)))
    def test_reorder_invariance(self, order):
        # pair_curve would sort the shuffle away, so the kernel's steps take the pairs as given.
        anchor = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        test = [(900.0, 33.0), (2100.0, 36.8), (5000.0, 40.9), (7000.0, 41.9)]
        shuffled = [test[i] for i in order]
        assert kernel_bd(anchor, shuffled) == kernel_bd(anchor, test)

    def test_interpolant_recovers_nodes(self):
        # the closed-form integration rests on the interpolant passing
        # exactly through the measured points
        cost = [4500.0, 1400.0, 8000.0, 2500.0]
        side = _intervals([40.1, 34.6, 42.5, 37.4], [cost, cost], "anchor")
        quality, _, (log_cost, _) = side_nodes(side)
        spline = PchipInterpolator(quality, log_cost)
        assert np.array_equal(spline(quality), log_cost)

    def test_too_few_points(self):
        pts3 = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1)]
        with pytest.raises(CurveDataError, match="at least 4"):
            bd_delta(pts3, pts3 + [(8000.0, 42.5)])

    def test_too_few_points_rejected(self):
        with pytest.raises(CurveDataError,
                           match="^anchor curve has 3 points, need at least 4$"):
            bd_delta(ANCHOR_4[:3], ANCHOR_4)

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

    @pytest.mark.parametrize("role", ["anchor", "test"])
    @pytest.mark.parametrize("value, at", [(math.nan, 0), (math.inf, 1), (-math.inf, 1)],
                             ids=["nan-cost", "inf-quality", "minus-inf-quality"])
    def test_non_finite_value_rejected(self, role, value, at):
        pts = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        bad = list(pts)
        bad[2] = (value, 40.1) if at == 0 else (4500.0, value)
        pair = (bad, pts) if role == "anchor" else (pts, bad)
        with pytest.raises(CurveDataError, match=f"^{role} curve contains non-finite values$"):
            bd_delta(*pair)


@st.composite
def anchor_and_tests(draw):
    """One anchor curve and 1-8 test curves placed anywhere around it.

    Each test's quality range starts and ends between 4 below the
    anchor's first node and 4 above its last, so an overlap may cut anchor
    intervals at one end, at both ends or at neither (the anchor lies
    wholly inside the test), and may be empty.
    """
    def costs(n):
        return draw(st.lists(st.sampled_from((10.0, 100.0)) | st.floats(1.0, 1e4),
                             min_size=n, max_size=n))

    steps = draw(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=5))
    quality = list(itertools.accumulate(steps, initial=30.0))
    anchor = list(zip(costs(len(quality)), quality))
    tests = []
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = sorted(draw(st.lists(st.floats(26.0, quality[-1] + 4.0),
                                      min_size=2, max_size=2, unique=True)))
        if hi - lo < 0.1:
            continue
        inner = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4, unique=True))
        nodes = [lo, *(lo + f * (hi - lo) for f in sorted(inner)), hi]
        tests.append(list(zip(costs(len(nodes)), nodes)))
    return anchor, tests


@st.composite
def anchor_and_test_curve(draw):
    """An anchor ``RdeCurve`` and one test curve placed anywhere around it.

    Each curve has 4-6 points, drawn independently. On each quality axis
    the test's range starts and ends between 4 below the anchor's first
    node and 4 above its last, and its nodes fall on the qps in any order.
    Some tests repeat a quality value on one axis or on both.
    """
    n_anchor, n_test = draw(st.integers(4, 6)), draw(st.integers(4, 6))

    def falling(n):
        costs = draw(st.lists(st.floats(1.0, 1e4), min_size=n, max_size=n, unique=True))
        return sorted(costs, reverse=True)

    def rising(start, max_step):
        steps = draw(st.lists(st.floats(0.5, max_step), min_size=n_anchor - 1,
                              max_size=n_anchor - 1))
        return list(itertools.accumulate(steps, initial=start))

    def around(nodes, floor, ceiling):
        lo, hi = sorted(draw(st.lists(st.floats(max(floor, nodes[0] - 4.0),
                                                min(ceiling, nodes[-1] + 4.0)),
                                      min_size=2, max_size=2, unique=True)))
        inner = draw(st.lists(st.floats(0.05, 0.95), min_size=n_test - 2, max_size=n_test - 2,
                              unique=True))
        return draw(st.permutations([lo, *(lo + f * (hi - lo) for f in sorted(inner)), hi]))

    psnr, vmaf = rising(30.0, 4.0), rising(40.0, 10.0)
    test_psnr, test_vmaf = around(psnr, -math.inf, math.inf), around(vmaf, 0.0, 100.0)
    repeat = draw(st.sampled_from(("", "psnr", "vmaf", "both")))
    if repeat in ("psnr", "both"):
        test_psnr[1] = test_psnr[0]
    if repeat in ("vmaf", "both"):
        test_vmaf[1] = test_vmaf[0]

    def curve(psnr, vmaf):
        n = len(psnr)
        return RdeCurve("s01", tuple(map(RdePoint, (22, 27, 32, 37, 42, 47)[:n], falling(n),
                                         psnr, vmaf, falling(n))))

    return (curve(psnr[::-1], vmaf[::-1]), curve(test_psnr, test_vmaf))


# A reference copy of the closed form, one curve per call and one cost per
# curve, that shares no code with the kernel: the slopes and Hermite
# pieces are computed per interval and per cost, and each interval the
# overlap touches is integrated over its part inside the overlap.

def _sign(value):
    return (value > 0) - (value < 0)


def reference_end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def reference_slopes(h, y):
    m = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    slopes = [reference_end_slope(h[0], h[1], m[0], m[1])]
    for k in range(1, len(h)):
        m0, m1 = m[k - 1], m[k]
        if _sign(m0) * _sign(m1) > 0:
            w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
            slopes.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        else:
            slopes.append(0.0)
    slopes.append(reference_end_slope(h[-1], h[-2], m[-1], m[-2]))
    return slopes


def reference_area(y0, y1, d0, d1, t):
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return (
        y0 * (t4 / 2 - t3 + t)
        + d0 * (t4 / 4 - 2 * t3 / 3 + t2 / 2)
        + y1 * (t3 - t4 / 2)
        + d1 * (t4 / 4 - t3 / 3)
    )


def reference_curve(points):
    """Sorted quality, log10 costs, widths and slopes of (cost, quality) pairs."""
    points = sorted(points, key=lambda p: p[1])
    x = [float(q) for _, q in points]
    y = [math.log10(c) for c, _ in points]
    h = [b - a for a, b in zip(x, x[1:])]
    return x, y, h, reference_slopes(h, y)


def reference_piece(curve, k, a, b):
    """Integral over [a, b], a part of interval k, of the reference interpolant."""
    x, y, h, d = curve
    ends = (y[k], y[k + 1], h[k] * d[k], h[k] * d[k + 1])
    return h[k] * (reference_area(*ends, (b - x[k]) / h[k])
                   - reference_area(*ends, (a - x[k]) / h[k]))


def reference_integral(curve, lo, hi):
    x = curve[0]
    total = 0.0
    for k in range(len(x) - 1):
        left, right = max(lo, x[k]), min(hi, x[k + 1])
        if left < right:
            total += reference_piece(curve, k, left, right)
    return total


def per_call_bd(anchor, test):
    """BD percent of (cost, quality) pairs by the reference closed form."""
    a, t = reference_curve(anchor), reference_curve(test)
    lo, hi = max(a[0][0], t[0][0]), min(a[0][-1], t[0][-1])
    delta = (reference_integral(t, lo, hi) - reference_integral(a, lo, hi)) / (hi - lo)
    return 100.0 * (10.0 ** delta - 1.0)


def bd_or_error(anchor, test):
    try:
        return kernel_bd(anchor, test)
    except CurveDataError as exc:
        return str(exc)


def separate_fields_report(anchor, test):
    """``bd_report`` with each field on its own raw pairs, as before the axes were shared.

    Returns the first field's tagged error, or the four values and the
    thin-overlap warnings.
    """
    values, warnings = {}, []
    for name, cost, axis in BD_FIELDS:
        pairs, test_pairs = axis_pairs(anchor, cost, axis.value), axis_pairs(test, cost, axis.value)
        value = bd_or_error(pairs, test_pairs)
        if isinstance(value, str):
            return f"{name} ({test.sequence}): {value}"
        values[name] = value
        anchor_q, test_q = [q for _, q in pairs], [q for _, q in test_pairs]
        frac = ((min(max(anchor_q), max(test_q)) - max(min(anchor_q), min(test_q)))
                / (max(anchor_q) - min(anchor_q)))
        if frac < MIN_OVERLAP_FRACTION:
            warnings.append(f"{name} ({test.sequence}): quality overlap is only "
                            f"{100 * frac:.1f}% of the anchor span")
    return values, tuple(warnings)


ANCHOR_4 = [(100.0, 30.0), (60.0, 32.0), (40.0, 35.0), (20.0, 37.0)]


class TestPreparedCurve:
    @given(anchor_and_tests())
    @example((ANCHOR_4, [  # inside the anchor: cuts anchor intervals 0 and 2
        [(90.0, 30.5), (50.0, 33.0), (30.0, 36.5), (25.0, 36.8)],
    ]))
    @example((ANCHOR_4, [  # the anchor lies wholly inside the test
        [(120.0, 29.0), (70.0, 31.5), (45.0, 34.0), (15.0, 38.0)],
    ]))
    def test_reused_anchor_gives_the_floats_of_a_fresh_one(self, case):
        anchor, tests = case
        reused = pair_side(anchor, "anchor")
        for test in tests:
            fresh = bd_or_error(anchor, test)
            if isinstance(fresh, str):
                continue
            assert fresh == per_call_bd(anchor, test)
            test_side = pair_side(test, "test")
            lo, hi = max(reused[0][0], test_side[0][0]), min(reused[-1][1], test_side[-1][1])
            assert _integrals(reused, lo, hi) == _integrals(pair_side(anchor, "anchor"), lo, hi)
            reference = reference_integral(reference_curve(anchor), lo, hi)
            assert _integrals(reused, lo, hi) == (reference, reference)

    def test_holds_sorted_nodes_and_full_interval_integrals(self):
        # A whole interval's term is the reference's piece from 0 to 1,
        # and the terms are added in node order, so the integral over the
        # whole range is their plain sum, bit for bit.
        quality = [37.0, 35.0, 32.0, 30.0]
        falling, rising = [60.0, 120.0, 180.0, 300.0], [100.0, 60.0, 40.0, 20.0]
        side = _intervals(quality, [falling, rising], "anchor")
        nodes, widths, log_costs = side_nodes(side)
        assert nodes == [30.0, 32.0, 35.0, 37.0]
        assert log_costs == [[math.log10(c) for c in reversed(falling)],
                             [math.log10(c) for c in reversed(rising)]]
        assert widths == [2.0, 3.0, 2.0]
        assert (side[0][0], side[-1][1]) == (30.0, 37.0)
        curves = [reference_curve(list(zip(costs, quality))) for costs in (falling, rising)]
        slopes = _pchip_slopes(widths, log_costs)
        assert slopes == [curve[3] for curve in curves]
        assert holds_slopes(side, slopes)
        intervals = list(zip(nodes, nodes[1:]))
        for j, curve in enumerate(curves):
            full = [reference_piece(curve, k, a, b) for k, (a, b) in enumerate(intervals)]
            assert [_integrals(side, a, b)[j] for a, b in intervals] == full
            assert _integrals(side, 30.0, 37.0)[j] == full[0] + full[1] + full[2]

    @pytest.mark.parametrize("axis, name", [("psnr", "bdr_psnr"), ("vmaf", "bdr_vmaf")])
    def test_repeated_anchor_quality_is_tagged(self, axis, name):
        good = make_curve()
        points = list(good.points)
        points[1] = RdePoint(27, points[1].bitrate,
                             points[2].psnr if axis == "psnr" else points[1].psnr,
                             points[2].vmaf if axis == "vmaf" else points[1].vmaf,
                             points[1].energy)
        repeated = getattr(points[2], axis)
        with pytest.raises(CurveDataError) as err:
            PreparedAnchor(RdeCurve("s01", tuple(points)))
        assert str(err.value) == (
            f"{name} (s01): anchor curve quality values are not strictly monotone "
            f"(repeated quality near {repeated:g})"
        )

    @given(anchor_and_test_curve())
    # Thin overlaps on both axes: the report warns four times.
    @example((make_curve(), make_curve(psnr_shift=7.2, vmaf_shift=-24.0)))
    # Sorted by PSNR, both costs rise a little and then fall steeply: the
    # second node's slope is zero and the first end slope is cut to 3 * m0.
    @example((make_curve(), ladder_curve((36.0, 35.0, 38.0, 37.0), (92.0, 86.5, 78.0, 66.0),
                                         rate=(1100.0, 1000.0, 500.0, 200.0))))
    # A repeated VMAF: bdr_psnr is computed, then bdr_vmaf raises.
    @example((make_curve(), ladder_curve((42.0, 40.0, 37.0, 35.0), (90.0, 80.0, 80.0, 70.0))))
    # The anchor lies wholly inside the test on both axes.
    @example((make_curve(), ladder_curve((44.0, 40.0, 36.0, 33.0), (95.0, 85.0, 75.0, 60.0))))
    # The test lies inside one anchor interval on both axes, which the
    # overlap cuts at both ends.
    @example((make_curve(), ladder_curve((37.0, 36.5, 35.5, 35.0), (77.0, 74.0, 70.0, 67.0))))
    # The VMAF ranges do not overlap: bdr_psnr is computed, then bdr_vmaf raises.
    @example((make_curve(), ladder_curve((42.0, 40.0, 37.0, 35.0), (60.0, 50.0, 40.0, 30.0))))
    # A five-point test against a four-point anchor takes the general builder.
    @example((make_curve(), ladder_curve((43.0, 41.0, 38.5, 36.0, 33.0),
                                         (94.0, 88.0, 80.0, 70.0, 58.0))))
    # A four-point test against a five-point anchor takes the four-point
    # builder; the overlap cuts anchor intervals at both ends on both axes.
    @example((ladder_curve((43.0, 41.0, 38.5, 36.0, 33.0), (94.0, 88.0, 80.0, 70.0, 58.0)),
              make_curve()))
    # A four-point test whose PSNR range misses a five-point anchor's:
    # bdr_psnr raises from the overlap of the four-point side.
    @example((ladder_curve((43.0, 41.0, 38.5, 36.0, 33.0), (94.0, 88.0, 80.0, 70.0, 58.0)),
              make_curve(psnr_shift=-15.0)))
    def test_shared_test_axis_gives_the_floats_of_separate_fields(self, case):
        anchor, test = case
        prepared = PreparedAnchor(anchor)
        expected = separate_fields_report(anchor, test)
        try:
            report = bd_report(prepared, test)
        except CurveDataError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str)
        values, warnings = expected
        for name, cost, axis in BD_FIELDS:
            pairs, test_pairs = axis_pairs(anchor, cost, axis.value), axis_pairs(test, cost, axis.value)
            value = getattr(report, name)
            assert value == values[name]
            assert value == per_call_bd(pairs, test_pairs)
        assert report.warnings == warnings

    def test_test_axis_shares_its_nodes_and_stores_no_full_terms(self):
        # One side holds both costs of an axis; its slopes are each
        # cost's own, and it keeps no per-interval integrals. A four-point
        # test's side is the one the general builder makes.
        curve = make_curve()
        psnr = [p.psnr for p in curve.points]
        costs = [[getattr(p, cost) for p in curve.points] for cost in ("bitrate", "energy")]
        side = _intervals(psnr, costs, "test")
        nodes, widths, log_costs = side_nodes(side)
        assert nodes == [34.6, 37.4, 40.1, 42.5]
        assert log_costs == [[math.log10(c) for c in (1400.0, 2500.0, 4500.0, 8000.0)],
                             [math.log10(c) for c in (45.0, 65.0, 90.0, 120.0)]]
        slopes = _pchip_slopes(widths, log_costs)
        assert slopes == [reference_curve(axis_pairs(curve, cost, "psnr"))[3]
                          for cost in ("bitrate", "energy")]
        assert holds_slopes(side, slopes)
        assert _four_point_side(psnr, [list(map(math.log10, c)) for c in costs]) == side

    @pytest.mark.parametrize("axes, name", [
        (("psnr",), "bdr_psnr"), (("vmaf",), "bdr_vmaf"), (("psnr", "vmaf"), "bdr_psnr"),
    ], ids=["psnr", "vmaf", "both"])
    def test_repeated_test_quality_is_tagged(self, axes, name):
        good = make_curve()
        points = list(good.points)
        second, third = points[1], points[2]
        points[1] = RdePoint(27, second.bitrate,
                             third.psnr if "psnr" in axes else second.psnr,
                             third.vmaf if "vmaf" in axes else second.vmaf,
                             second.energy)
        repeated = getattr(third, axes[0])
        with pytest.raises(CurveDataError) as err:
            bd_report(PreparedAnchor(make_curve()), RdeCurve("s01", tuple(points)))
        assert str(err.value) == (
            f"{name} (s01): test curve quality values are not strictly monotone "
            f"(repeated quality near {repeated:g})"
        )


@pytest.mark.parametrize("module, absent", [
    ("ctpdse.cli", ("numpy", "scipy")),
    ("ctpdse.curves", ("numpy", "scipy")),
    ("ctpdse.cli", ("statistics", "fractions", "decimal")),
    ("ctpdse.stats", ("statistics", "fractions", "decimal")),
    ("ctpdse.curves", ("subprocess", "concurrent", "shlex", "csv")),
    ("ctpdse.stats", ("subprocess", "concurrent", "shlex", "csv")),
    ("ctpdse.cli", ("dataclasses", "inspect")),
    ("ctpdse.cli", ("concurrent", "logging", "queue", "shlex", "string", "traceback", "csv")),
])
def test_import_loads_no_numeric_library(module, absent):
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    code = (f"import sys, {module}; "
            f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(absent)!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestBdReport:
    def test_self_report_is_zero(self):
        curve = make_curve()
        report = bd_report(PreparedAnchor(curve), curve)
        assert (report.bdr_psnr, report.bdr_vmaf, report.bdde_psnr, report.bdde_vmaf) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_halved_energy_only_touches_bdde(self):
        anchor = make_curve()
        test = make_curve(energy_mult=0.5)
        report = bd_report(PreparedAnchor(anchor), test)
        assert report.bdr_psnr == 0.0
        assert report.bdr_vmaf == 0.0
        assert report.bdde_psnr == pytest.approx(-50.0, abs=1e-9)
        assert report.bdde_vmaf == pytest.approx(-50.0, abs=1e-9)

    def test_composition_matches_per_call_bd(self):
        anchor = make_curve()
        test = make_curve(rate_mult=1.2, energy_mult=0.8, psnr_shift=-0.4, vmaf_shift=-1.0)
        report = bd_report(PreparedAnchor(anchor), test)
        for name, cost, axis in BD_FIELDS:
            assert getattr(report, name) == per_call_bd(axis_pairs(anchor, cost, axis.value),
                                                        axis_pairs(test, cost, axis.value))

    def test_sequence_mismatch_rejected(self):
        with pytest.raises(CurveDataError, match="sequence mismatch"):
            bd_report(PreparedAnchor(make_curve(sequence="a")), make_curve(sequence="b"))

    def test_error_tagged_with_metric_name(self):
        anchor = make_curve(vmaf_shift=-60.0)  # vmaf range 6..32
        test = make_curve()  # vmaf range 66..92, no overlap
        with pytest.raises(CurveDataError, match="bdr_vmaf"):
            bd_report(PreparedAnchor(anchor), test)

    def test_costs_too_far_apart_rejected(self):
        # an energy ratio of 1e600 overflows 10 ** delta
        anchor = make_curve(energy_mult=1e-300)
        test = make_curve(energy_mult=1e300)
        with pytest.raises(CurveDataError,
                           match=r"^bdde_psnr \(s01\): costs too far apart: .* overflows$"):
            bd_report(PreparedAnchor(anchor), test)
        # A report read back from result.json is checked by BdReport itself.
        with pytest.raises(CurveDataError, match="BD value bdde_psnr is not finite"):
            BdReport(0.0, 0.0, math.inf, 0.0)

    def test_errors_keep_field_order_across_axes(self):
        # bdde_psnr overflows and the VMAF ranges do not meet; bdr_vmaf
        # comes first in BD_FIELDS, so its error is the one raised.
        qps, rate, psnr = (22, 27, 32, 37), (8000.0, 4500.0, 2500.0, 1400.0), \
            (42.5, 40.1, 37.4, 34.6)

        def curve(vmaf, energy):
            return RdeCurve("s01", tuple(map(RdePoint, qps, rate, psnr, vmaf, energy)))

        anchor = curve((90.0, 80.0, 70.0, 60.0), (1e-300, 1e-301, 1e-302, 1e-303))
        test = curve((40.0, 30.0, 20.0, 10.0), (1e300, 1e299, 1e298, 1e297))
        with pytest.raises(CurveDataError) as err:
            bd_report(PreparedAnchor(anchor), test)
        assert str(err.value) == ("bdr_vmaf (s01): empty quality overlap: anchor spans "
                                  "[60, 90], test spans [10, 40]")

    def test_thin_overlap_warnings_keep_field_order(self):
        anchor = make_curve()
        test = make_curve(psnr_shift=7.2, vmaf_shift=-24.0)
        report = bd_report(PreparedAnchor(anchor), test)
        assert [w.split()[0] for w in report.warnings] == [name for name, _, _ in BD_FIELDS]

    def test_thin_overlap_warns_on_report(self):
        anchor = make_curve()
        # psnr span is 7.9; shift so the common range is ~0.5 of it
        test = make_curve(psnr_shift=7.4, vmaf_shift=-5.0)
        report = bd_report(PreparedAnchor(anchor), test)
        assert any("bdr_psnr" in w and "overlap" in w for w in report.warnings)
        assert any("bdde_psnr" in w for w in report.warnings)


class TestAggregate:
    def _report(self, value):
        return bd_report(PreparedAnchor(make_curve()), make_curve(energy_mult=value))

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
        test = make_curve(psnr_shift=7.4, vmaf_shift=-5.0)
        warned = bd_report(PreparedAnchor(anchor), test)
        merged = aggregate_reports([warned, warned])
        assert merged.warnings == warned.warnings
