"""Rate-distortion-energy curves and Bjontegaard-Delta computation.

A BD value is the average relative difference between two curves' cost
(bit rate or decoding energy) over their common quality range: each
curve's log10(cost) is interpolated against quality with a monotone
piecewise-cubic (PCHIP), the interpolants are integrated in closed form
over the overlapping quality interval, and the mean log-offset is mapped
back to percent. Negative values are savings.

The interpolant is the one scipy's ``PchipInterpolator`` builds, computed
here in plain Python. Node slopes follow Fritsch & Carlson (SIAM J.
Numer. Anal. 17, 1980): zero where the adjacent secants change sign or
one of them is zero, and otherwise the weighted harmonic mean of the two
secants of Fritsch & Butland (SIAM J. Sci. Stat. Comput. 5, 1984). End
slopes use the one-sided three-point rule, set to zero when its sign
differs from the end secant's, and cut to three times the end secant
when the two secants nearest the end differ in sign and the estimate
exceeds that. Each interval's integral is the closed form of the cubic
Hermite basis over the part of the interval inside the overlap.

Both sides of a BD integral are one curve on one quality axis in one
format: the tuple of its intervals in quality order, each holding its
ends and width and, for each of two costs, its log10 values at the ends
and its PCHIP end slopes times the width. Two builders make a side.
``_intervals`` takes any point count: it sorts the nodes, rejects a
repeated quality, and finds the slopes by ``_pchip_slopes``, which
computes the width-only weights of the slope rules once for both costs.
``_four_point_side`` builds a four-node side in straight-line code with
the same expressions in the same order, so its side is ``_intervals``'
bit for bit; on a repeated quality it returns None and ``_intervals``
raises. A ``PreparedAnchor`` holds the anchor's side for each axis,
built once per run. ``bd_report`` builds the test's side once per axis,
by the four-point builder whenever the test has four points, as on the
four-QP ladder of the common test conditions, whatever the anchor's
point count. Then ``_overlap`` finds the common range from the two
sides' first and last nodes, and one test pass and one anchor pass of
``_integrals`` integrate both costs in one loop. The loop computes the
Hermite weights of a cut end once and shares them between the costs; a
whole interval uses the weights at 1. A whole interval's term is the
float that integrating that interval on its own gives, because the
interval's ends map to exactly 0.0 and 1.0 (and the weights at 0.0 are
all zero), and each cost adds its terms in node order. So no side
stores any per-interval term, and sharing the weights changes no bit of
any result.

Only the piecewise-cubic form is provided; the older global third-order
polynomial fit is deliberately not implemented. Quality values are used
as ingested (PSNR is expected pre-combined across components); no pixel
data is ever touched here.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter, sub, truediv
from typing import Iterable, Sequence

from .errors import ConfigError, CtpDseError
from .frozen import Frozen
from .stats import exact_mean

# Warn when the common quality range covers less than this fraction of
# the anchor's quality span; the BD value then rests on a thin overlap.
MIN_OVERLAP_FRACTION = 0.10

MIN_CURVE_POINTS = 4


class CurveDataError(ConfigError):
    """Curve points violate an invariant (count, positivity, monotonicity)."""


class QualityAxis(enum.Enum):
    """Quality metric a BD value integrates over; the value names the RdePoint field."""

    PSNR = "psnr"
    VMAF = "vmaf"

    # Members are singletons that compare by identity, so hashing by identity
    # agrees with equality. It spares the BD walk's dict lookups the call
    # into Python that Enum.__hash__ makes.
    __hash__ = object.__hash__


# The report layout: each BD field with the RdePoint cost and quality it
# compares. Rate rows precede energy rows, so the fields of one quality
# axis, in table order, are its (BDR, BDDE) pair.
BD_FIELDS = (
    ("bdr_psnr", "bitrate", QualityAxis.PSNR),
    ("bdr_vmaf", "bitrate", QualityAxis.VMAF),
    ("bdde_psnr", "energy", QualityAxis.PSNR),
    ("bdde_vmaf", "energy", QualityAxis.VMAF),
)
# Reads a report's (BDR, BDDE) pair on each quality axis; a report holds its
# BD values in BD_FIELDS order.
_PAIR = {axis: itemgetter(*[i for i, (_, _, quality) in enumerate(BD_FIELDS) if quality is axis])
         for axis in QualityAxis}


class RdePoint(Frozen):
    """One operating point: bit rate in kbit/s, PSNR in dB, VMAF score, energy in J."""

    __slots__ = ()
    _fields = ("qp", "bitrate", "psnr", "vmaf", "energy")

    def __new__(cls, qp: int, bitrate: float, psnr: float, vmaf: float, energy: float):
        if not 0 < bitrate < math.inf:
            raise CurveDataError(f"qp {qp}: bitrate must be finite and > 0, got {bitrate}")
        if not 0 < energy < math.inf:
            raise CurveDataError(f"qp {qp}: energy must be finite and > 0, got {energy}")
        if not math.isfinite(psnr):
            raise CurveDataError(f"qp {qp}: psnr must be finite, got {psnr}")
        if not 0.0 <= vmaf <= 100.0:
            raise CurveDataError(f"qp {qp}: vmaf must be in [0, 100], got {vmaf}")
        return tuple.__new__(cls, (qp, bitrate, psnr, vmaf, energy))


# The RdePoint costs a BD field can compare, in BD_FIELDS order, and the
# position of each RdePoint field.
_COSTS = tuple(dict.fromkeys(cost for _, cost, _ in BD_FIELDS))
_POSITION = {name: i for i, name in enumerate(RdePoint._fields)}
# Reads a point's quality on each axis and then its costs in _COSTS order.
_NODE_FIELDS = {axis: itemgetter(_POSITION[axis.value], *[_POSITION[cost] for cost in _COSTS])
                for axis in QualityAxis}
# Read a point's quality on each axis, and each of its costs in _COSTS order.
_QUALITY = {axis: itemgetter(_POSITION[axis.value]) for axis in QualityAxis}
_COST_VALUES = tuple(itemgetter(_POSITION[cost]) for cost in _COSTS)


class RdeCurve(Frozen):
    """Per-sequence measurements of one profile over a QP sweep."""

    __slots__ = ()
    _fields = ("sequence", "points")

    def __new__(cls, sequence: str, points: tuple[RdePoint, ...]):
        if len(points) < MIN_CURVE_POINTS:
            raise CurveDataError(
                f"curve ({sequence}) has {len(points)} points; "
                f"BD interpolation needs at least {MIN_CURVE_POINTS}"
            )
        # Each point read by position: (qp, bitrate, psnr, vmaf, energy).
        for (qp0, rate0, _, _, energy0), (qp, rate, _, _, energy) in zip(points, points[1:]):
            if qp <= qp0:
                raise CurveDataError(f"curve ({sequence}): qps not strictly increasing at qp {qp}")
            if rate >= rate0:
                raise CurveDataError(
                    f"curve ({sequence}): bitrate not strictly decreasing with qp at qp {qp}"
                )
            if energy >= energy0:
                raise CurveDataError(
                    f"curve ({sequence}): energy not strictly decreasing with qp at qp {qp}"
                )
        return tuple.__new__(cls, (sequence, points))


class BdReport(Frozen):
    """The four BD values of a test profile versus the anchor, in percent.

    The fields are the BD values in ``BD_FIELDS`` order, then the warnings.
    Two reports are equal when their values are; the warnings are not compared.
    """

    __slots__ = ()
    _fields = tuple(name for name, _, _ in BD_FIELDS) + ("warnings",)

    def __new__(cls, bdr_psnr: float, bdr_vmaf: float, bdde_psnr: float, bdde_vmaf: float,
                warnings: tuple[str, ...] = ()):
        isfinite = math.isfinite
        if not (isfinite(bdr_psnr) and isfinite(bdr_vmaf) and isfinite(bdde_psnr)
                and isfinite(bdde_vmaf)):
            for (name, _, _), value in zip(BD_FIELDS, (bdr_psnr, bdr_vmaf, bdde_psnr, bdde_vmaf)):
                if not isfinite(value):
                    raise CurveDataError(f"BD value {name} is not finite")
        return tuple.__new__(cls, (bdr_psnr, bdr_vmaf, bdde_psnr, bdde_vmaf, warnings))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[:4] == other[:4]
        return Frozen.__eq__(self, other)

    def __hash__(self):
        return hash(self[:4])

    def pair(self, axis: QualityAxis) -> tuple[float, float]:
        """(BDR, BDDE) on one quality axis."""
        return _PAIR[axis](self)

    def as_dict(self) -> dict:
        """The report as a ``result.json`` entry: the BD fields, then any warnings."""
        doc = {name: value for (name, _, _), value in zip(BD_FIELDS, self)}
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> BdReport:
        """The report a ``result.json`` entry was rendered from."""
        return cls(warnings=tuple(doc.get("warnings", ())),
                   **{name: doc[name] for name, _, _ in BD_FIELDS})


def _end_slope(num: float, h0: float, den: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end node, clamped to keep the shape.

    ``h0`` is the end interval's width and ``m0`` its secant, ``m1`` the
    next secant; ``num`` is 2 * h0 + h1 and ``den`` h0 + h1, with ``h1``
    the next interval's width.
    """
    d = (num * m0 - h0 * m1) / den
    sign = (m0 > 0) - (m0 < 0)
    if (d > 0) - (d < 0) != sign:
        return 0.0
    if (m1 > 0) - (m1 < 0) != sign and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip_slopes(h: list[float], costs: list[list[float]]) -> list[list[float]]:
    """Node slopes of the PCHIP interpolant through each list in ``costs``.

    The weights that depend on the interval widths ``h`` alone are
    computed once for all lists.
    """
    # Interior node k weighs its secants by 2 * h[k] + h[k - 1] and
    # h[k] + 2 * h[k - 1] (Fritsch & Butland).
    inner = []
    for before, after in zip(h, h[1:]):
        w1, w2 = 2 * after + before, after + 2 * before
        inner.append((w1, w2, w1 + w2))
    h0, h1, hn, hm = h[0], h[1], h[-1], h[-2]
    num0, den0, numn, denn = 2 * h0 + h1, h0 + h1, 2 * hn + hm, hn + hm
    all_slopes = []
    for y in costs:
        m = list(map(truediv, map(sub, y[1:], y), h))
        slopes = [_end_slope(num0, h0, den0, m[0], m[1])]
        for (w1, w2, total), m0, m1 in zip(inner, m, m[1:]):
            # Zero unless both secants have the same sign.
            if m0 > 0 < m1 or m0 < 0 > m1:
                slopes.append(1.0 / ((w1 / m0 + w2 / m1) / total))
            else:
                slopes.append(0.0)
        slopes.append(_end_slope(numn, hn, denn, m[-1], m[-2]))
        all_slopes.append(slopes)
    return all_slopes


def _weights(t: float) -> tuple[float, float, float, float]:
    """Weights of y0, d0, y1 and d1 in the integral over [0, t] of the unit cubic Hermite basis.

    ``y0`` and ``y1`` are the end values, ``d0`` and ``d1`` the end slopes
    times the interval width.
    """
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return t4 / 2 - t3 + t, t4 / 4 - 2 * t3 / 3 + t2 / 2, t3 - t4 / 2, t4 / 4 - t3 / 3


# The weights over a whole interval. Over [0, 0] every weight is zero.
_WHOLE = _weights(1.0)


def _intervals(quality: Sequence[float], costs: Sequence[Sequence[float]], role: str) -> tuple:
    """One curve on one quality axis as the tuple of its intervals, sorted by quality.

    ``quality`` holds one value per node and each of the two lists in
    ``costs`` one cost per node: at least ``MIN_CURVE_POINTS`` finite
    floats, the costs positive, as ``RdeCurve`` guarantees and
    ``_pair_nodes`` checks. ``role`` names the curve in the error raised
    when a quality repeats. Each interval is its ends and width, then for
    each cost its log10 values at the ends and its PCHIP end slopes times
    the width: ``(a, b, w, y0, y1, d0, d1, z0, z1, e0, e1)``, as
    ``_integrals`` reads it.
    """
    order = sorted(range(len(quality)), key=quality.__getitem__)
    x = list(map(quality.__getitem__, order))
    # The difference of two finite floats is zero only when they are equal.
    h = list(map(sub, x[1:], x))
    if min(h) <= 0:
        prev = next(a for a, w in zip(x, h) if w <= 0)
        raise CurveDataError(
            f"{role} curve quality values are not strictly monotone "
            f"(repeated quality near {prev:g})"
        )
    ya, yb = logs = [list(map(math.log10, map(cost.__getitem__, order))) for cost in costs]
    sa, sb = _pchip_slopes(h, logs)
    return tuple((x[k], x[k + 1], w, ya[k], ya[k + 1], w * sa[k], w * sa[k + 1],
                  yb[k], yb[k + 1], w * sb[k], w * sb[k + 1])
                 for k, w in enumerate(h))


def _four_point_side(quality: Sequence[float],
                     costs: Iterable[Sequence[float]]) -> tuple | None:
    """A four-node curve on one quality axis: ``_intervals`` in straight-line code.

    ``quality`` holds the four nodes' qualities in any order and each of
    the two lists in ``costs`` one cost's log10 values at them. The
    nodes are sorted as ``_intervals`` sorts them, and the widths,
    weights and slopes are ``_pchip_slopes``' expressions written out for
    four nodes, so the side is the one ``_intervals`` builds, bit for
    bit. Returns None when a quality repeats.
    """
    i, j, k, n = sorted(range(4), key=quality.__getitem__)
    x0, x1, x2, x3 = quality[i], quality[j], quality[k], quality[n]
    h0, h1, h2 = x1 - x0, x2 - x1, x3 - x2
    if not (h0 > 0 and h1 > 0 and h2 > 0):
        return None
    w1, w2, v1, v2 = 2 * h1 + h0, h1 + 2 * h0, 2 * h2 + h1, h2 + 2 * h1
    t1, t2 = w1 + w2, v1 + v2
    num0, den0, numn, denn = 2 * h0 + h1, h0 + h1, 2 * h2 + h1, h2 + h1
    nodes = []
    for y in costs:
        y0, y1, y2, y3 = y[i], y[j], y[k], y[n]
        m0, m1, m2 = (y1 - y0) / h0, (y2 - y1) / h1, (y3 - y2) / h2
        nodes += (y0, y1, y2, y3), (
            _end_slope(num0, h0, den0, m0, m1),
            1.0 / ((w1 / m0 + w2 / m1) / t1) if m0 > 0 < m1 or m0 < 0 > m1 else 0.0,
            1.0 / ((v1 / m1 + v2 / m2) / t2) if m1 > 0 < m2 or m1 < 0 > m2 else 0.0,
            _end_slope(numn, h2, denn, m2, m1))
    (a0, a1, a2, a3), (p0, p1, p2, p3), (b0, b1, b2, b3), (q0, q1, q2, q3) = nodes
    return ((x0, x1, h0, a0, a1, h0 * p0, h0 * p1, b0, b1, h0 * q0, h0 * q1),
            (x1, x2, h1, a1, a2, h1 * p1, h1 * p2, b1, b2, h1 * q1, h1 * q2),
            (x2, x3, h2, a2, a3, h2 * p2, h2 * p3, b2, b3, h2 * q2, h2 * q3))


def _integrals(side: tuple, lo: float, hi: float) -> tuple[float, float]:
    """Integral over [lo, hi] of each cost's PCHIP interpolant over a side's intervals.

    [lo, hi] lies within the side's range. Each interval the range
    touches adds its term in node order, one sum per cost. A cut end's
    Hermite weights are computed once and serve both costs; a whole
    interval uses the weights at 1. The weights at 0 are all zero, so a
    term whose interval starts inside the range subtracts nothing.
    """
    total_a = total_b = 0.0
    for a, b, w, y0, y1, d0, d1, z0, z1, e0, e1 in side:
        if a >= hi:
            break
        if b > lo:
            r0, r1, r2, r3 = _WHOLE if b <= hi else _weights((hi - a) / w)
            area_a = y0 * r0 + d0 * r1 + y1 * r2 + d1 * r3
            area_b = z0 * r0 + e0 * r1 + z1 * r2 + e1 * r3
            if lo > a:
                l0, l1, l2, l3 = _weights((lo - a) / w)
                area_a -= y0 * l0 + d0 * l1 + y1 * l2 + d1 * l3
                area_b -= z0 * l0 + e0 * l1 + z1 * l2 + e1 * l3
            total_a += w * area_a
            total_b += w * area_b
    return total_a, total_b


def _overlap(anchor: tuple, test: tuple) -> tuple[float, float]:
    """The quality range two sides cover, from each side's first and last nodes."""
    lo = max(anchor[0][0], test[0][0])
    hi = min(anchor[-1][1], test[-1][1])
    if not lo < hi:
        raise CurveDataError(
            f"empty quality overlap: anchor spans [{anchor[0][0]:g}, {anchor[-1][1]:g}], "
            f"test spans [{test[0][0]:g}, {test[-1][1]:g}]"
        )
    return lo, hi


def _percent(delta: float) -> float:
    """A mean log10 cost difference as a percent cost difference."""
    try:
        return 100.0 * (10.0 ** delta - 1.0)
    except OverflowError:
        raise CurveDataError(
            f"costs too far apart: the mean log10 cost difference {delta:g} overflows"
        ) from None


def _pair_nodes(points: Sequence[tuple[float, float]], role: str) -> tuple:
    """The ``_intervals`` of (cost, quality) pairs, checked for what ``RdeCurve`` guarantees.

    The one cost serves as both of the side's costs.
    """
    quality, cost = [q for _, q in points], [c for c, _ in points]
    if len(quality) < MIN_CURVE_POINTS:
        raise CurveDataError(
            f"{role} curve has {len(quality)} points, need at least {MIN_CURVE_POINTS}"
        )
    quality, cost = list(map(float, quality)), list(map(float, cost))
    if not all(map(math.isfinite, quality + cost)):
        raise CurveDataError(f"{role} curve contains non-finite values")
    if min(cost) <= 0:
        raise CurveDataError(f"{role} curve has non-positive cost values")
    return _intervals(quality, [cost, cost], role)


def bd_delta(anchor: Sequence[tuple[float, float]],
             test: Sequence[tuple[float, float]]) -> float:
    """Percent cost difference of ``test`` vs ``anchor`` at equal quality.

    Each side is (cost, quality) pairs in any order. Returns
    100 * (10**d - 1) where d is the mean difference of the two
    log10-cost interpolants over the common quality interval.

    Nothing in the package calls it; ``bd_report`` is the BD entry point.
    Its two callers are the benchmark's ``curves.bd_delta`` span and the
    input-check tests of ``TestBdDelta``, and all three go in the next
    benchmark change.
    """
    anchor, test = _pair_nodes(anchor, "anchor"), _pair_nodes(test, "test")
    lo, hi = _overlap(anchor, test)
    return _percent((_integrals(test, lo, hi)[0] - _integrals(anchor, lo, hi)[0]) / (hi - lo))


class PreparedAnchor:
    """One sequence's anchor curve as ``_intervals`` per quality axis, built once per run.

    An invalid curve is rejected here, tagged with the first field of the
    axis it fails on, as ``bd_report`` tags its errors.
    """

    __slots__ = ("sequence", "axes")

    def __init__(self, curve: RdeCurve):
        self.sequence = curve.sequence
        self.axes = {}
        for name, _, axis in BD_FIELDS:
            if axis not in self.axes:
                quality, *costs = zip(*map(_NODE_FIELDS[axis], curve.points))
                try:
                    self.axes[axis] = _intervals(quality, costs, "anchor")
                except CtpDseError as exc:
                    raise CurveDataError(f"{name} ({curve.sequence}): {exc}") from exc


def _axis_deltas(anchor: PreparedAnchor, test: RdeCurve, axis: QualityAxis,
                 logs: list | None) -> tuple[float, float, float]:
    """One quality axis's pass of ``bd_report``.

    Returns the share of the anchor's quality span that the two curves
    share, and the mean log10 rate and energy differences over it. When
    ``logs`` holds a four-point test's log10 costs, its side is
    ``_four_point_side``; otherwise, and when a test quality repeats,
    ``_intervals`` builds it or raises.
    """
    anchor_side = anchor.axes[axis]
    side = logs and _four_point_side(tuple(map(_QUALITY[axis], test.points)), logs)
    if not side:
        quality, *costs = zip(*map(_NODE_FIELDS[axis], test.points))
        side = _intervals(quality, costs, "test")
    lo, hi = _overlap(anchor_side, side)
    test_rate, test_energy = _integrals(side, lo, hi)
    anchor_rate, anchor_energy = _integrals(anchor_side, lo, hi)
    width = hi - lo
    return (width / (anchor_side[-1][1] - anchor_side[0][0]),
            (test_rate - anchor_rate) / width, (test_energy - anchor_energy) / width)


def bd_report(anchor: PreparedAnchor, test: RdeCurve) -> BdReport:
    """All four BD metrics of ``test`` against ``anchor`` for one sequence.

    The fields are computed in ``BD_FIELDS`` order. The first field of a
    quality axis runs that axis's one pass: the test's nodes are sorted
    and checked once, the overlap and its share of the anchor span are
    found once, and one test pass and one anchor pass integrate both
    costs. A four-point test's side comes from the four-point builder,
    against an anchor of any point count, with the general builder's
    floats. The first field that fails
    raises, tagged with its name, so a node or overlap error belongs to
    the axis's first field and an overflow to its own; warnings come in
    field order.
    """
    if anchor.sequence != test.sequence:
        raise CurveDataError(
            f"sequence mismatch: anchor is {anchor.sequence!r}, test is {test.sequence!r}"
        )
    logs = None
    if len(test.points) == 4:
        logs = [tuple(map(math.log10, map(cost, test.points))) for cost in _COST_VALUES]
    name = "bdr_psnr"
    try:
        psnr_share, psnr_rate, psnr_energy = _axis_deltas(anchor, test, QualityAxis.PSNR, logs)
        bdr_psnr = _percent(psnr_rate)
        name = "bdr_vmaf"
        vmaf_share, vmaf_rate, vmaf_energy = _axis_deltas(anchor, test, QualityAxis.VMAF, logs)
        bdr_vmaf = _percent(vmaf_rate)
        name = "bdde_psnr"
        bdde_psnr = _percent(psnr_energy)
        name = "bdde_vmaf"
        bdde_vmaf = _percent(vmaf_energy)
    except CtpDseError as exc:
        raise CurveDataError(f"{name} ({test.sequence}): {exc}") from exc
    warnings = ()
    if psnr_share < MIN_OVERLAP_FRACTION or vmaf_share < MIN_OVERLAP_FRACTION:
        warnings = tuple(
            f"{field} ({test.sequence}): quality overlap is only {100 * share:.1f}% "
            f"of the anchor span"
            for field, share in (("bdr_psnr", psnr_share), ("bdr_vmaf", vmaf_share),
                                 ("bdde_psnr", psnr_share), ("bdde_vmaf", vmaf_share))
            if share < MIN_OVERLAP_FRACTION)
    return BdReport(bdr_psnr, bdr_vmaf, bdde_psnr, bdde_vmaf, warnings)


def aggregate_reports(reports: Iterable[BdReport]) -> BdReport:
    """Arithmetic per-field mean of several reports; warnings are merged."""
    reports = tuple(reports)
    if not reports:
        raise CurveDataError("cannot aggregate an empty list of reports")
    # One column per field: the four BD values, then the warnings.
    *columns, warnings = zip(*reports)
    # exact_mean is the correctly rounded mean, so the mean of n equal
    # reports is that report, bit for bit. For a power-of-two count, as
    # with two or eight sequences, it divides math.fsum's sum and makes
    # no big integers.
    return BdReport(*map(exact_mean, columns),
                    tuple(dict.fromkeys(warning for some in warnings for warning in some)))
