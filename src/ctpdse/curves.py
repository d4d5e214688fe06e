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

Both sides of a BD integral are a ``NodeSet``: one curve on one quality
axis, holding the sorted quality, the interval widths and, for each cost,
its log10 values and PCHIP slopes. The width-only weights of the slope
rules are computed once for all costs. A ``PreparedAnchor`` holds the
anchor's node set for each axis, built once per run; ``bd_report`` builds
the test's node set once per axis, finds the overlap once, and runs one
test pass and one anchor pass of ``NodeSet.integrals``, which integrates
all of a node set's costs over the overlap in one loop. The loop computes
the Hermite weights of a cut end once and shares them among the costs; a
whole interval uses the weights at 1. A whole interval's term is the
float that integrating that interval on its own gives, because the
interval's ends map to exactly 0.0 and 1.0 (and the weights at 0.0 are
all zero), and each side adds its terms in node order. So no side stores
any per-interval term, and sharing the weights changes no bit of any
result.

Only the piecewise-cubic form is provided; the older global third-order
polynomial fit is deliberately not implemented. Quality values are used
as ingested (PSNR is expected pre-combined across components); no pixel
data is ever touched here.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter, sub, truediv
from typing import Iterable, Sequence

from .errors import ConfigError, CtpDseError
from .frozen import Frozen, compare_by, set_field
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
# The RdePoint costs a BD field can compare, in BD_FIELDS order.
_COSTS = tuple(dict.fromkeys(cost for _, cost, _ in BD_FIELDS))
# Reads a point's quality on each axis and then its costs in _COSTS order.
_NODE_FIELDS = {axis: attrgetter(axis.value, *_COSTS) for axis in QualityAxis}


class RdePoint(Frozen):
    """One operating point: bit rate in kbit/s, PSNR in dB, VMAF score, energy in J."""

    __slots__ = ("qp", "bitrate", "psnr", "vmaf", "energy")

    def __init__(self, qp: int, bitrate: float, psnr: float, vmaf: float, energy: float):
        if not 0 < bitrate < math.inf:
            raise CurveDataError(f"qp {qp}: bitrate must be finite and > 0, got {bitrate}")
        if not 0 < energy < math.inf:
            raise CurveDataError(f"qp {qp}: energy must be finite and > 0, got {energy}")
        if not math.isfinite(psnr):
            raise CurveDataError(f"qp {qp}: psnr must be finite, got {psnr}")
        if not 0.0 <= vmaf <= 100.0:
            raise CurveDataError(f"qp {qp}: vmaf must be in [0, 100], got {vmaf}")
        set_field(self, "qp", qp)
        set_field(self, "bitrate", bitrate)
        set_field(self, "psnr", psnr)
        set_field(self, "vmaf", vmaf)
        set_field(self, "energy", energy)

    __eq__, __hash__ = compare_by(*__slots__)


class RdeCurve(Frozen):
    """Per-sequence measurements of one profile over a QP sweep."""

    __slots__ = ("sequence", "points")

    def __init__(self, sequence: str, points: tuple[RdePoint, ...]):
        if len(points) < MIN_CURVE_POINTS:
            raise CurveDataError(
                f"curve ({sequence}) has {len(points)} points; "
                f"BD interpolation needs at least {MIN_CURVE_POINTS}"
            )
        for prev, cur in zip(points, points[1:]):
            if cur.qp <= prev.qp:
                raise CurveDataError(
                    f"curve ({sequence}): qps not strictly increasing at qp {cur.qp}"
                )
            if cur.bitrate >= prev.bitrate:
                raise CurveDataError(
                    f"curve ({sequence}): bitrate not strictly decreasing with qp "
                    f"at qp {cur.qp}"
                )
            if cur.energy >= prev.energy:
                raise CurveDataError(
                    f"curve ({sequence}): energy not strictly decreasing with qp "
                    f"at qp {cur.qp}"
                )
        set_field(self, "sequence", sequence)
        set_field(self, "points", points)

    __eq__, __hash__ = compare_by(*__slots__)


class BdReport(Frozen):
    """The four BD values of a test profile versus the anchor, in percent.

    Two reports are equal when their values are; the warnings are not compared.
    """

    __slots__ = ("bdr_psnr", "bdr_vmaf", "bdde_psnr", "bdde_vmaf", "warnings")

    def __init__(self, bdr_psnr: float, bdr_vmaf: float, bdde_psnr: float, bdde_vmaf: float,
                 warnings: tuple[str, ...] = ()):
        set_field(self, "bdr_psnr", bdr_psnr)
        set_field(self, "bdr_vmaf", bdr_vmaf)
        set_field(self, "bdde_psnr", bdde_psnr)
        set_field(self, "bdde_vmaf", bdde_vmaf)
        set_field(self, "warnings", warnings)
        for name, _, _ in BD_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise CurveDataError(f"BD value {name} is not finite")

    __eq__, __hash__ = compare_by(*(name for name, _, _ in BD_FIELDS))

    def pair(self, axis: QualityAxis) -> tuple[float, float]:
        """(BDR, BDDE) on one quality axis."""
        return tuple(getattr(self, name) for name, _, quality in BD_FIELDS if quality is axis)

    def as_dict(self) -> dict:
        """The report as a ``result.json`` entry: the BD fields, then any warnings."""
        doc = {name: getattr(self, name) for name, _, _ in BD_FIELDS}
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


class NodeSet:
    """One curve on one quality axis: the nodes and each cost, ready to integrate.

    ``quality`` is sorted ascending and ``widths`` holds the interval
    widths. For each cost, ``log_costs`` holds log10 of its values at the
    nodes and ``slopes`` its PCHIP node slopes. ``lo``, ``hi`` and
    ``span`` give the quality range.
    """

    __slots__ = ("quality", "widths", "log_costs", "slopes", "lo", "hi", "span")

    def __init__(self, quality: Sequence[float], costs: Sequence[Sequence[float]], role: str):
        """Sort one curve's nodes by quality and check that no quality repeats.

        ``quality`` holds one value per node and each list in ``costs``
        one cost per node: at least ``MIN_CURVE_POINTS`` finite floats,
        the costs positive, as ``RdeCurve`` guarantees and ``_pair_nodes``
        checks. ``role`` names the curve in the error.
        """
        order = sorted(range(len(quality)), key=quality.__getitem__)
        x = self.quality = list(map(quality.__getitem__, order))
        # The difference of two finite floats is zero only when they are equal.
        h = self.widths = list(map(sub, x[1:], x))
        if min(h) <= 0:
            prev = next(a for a, w in zip(x, h) if w <= 0)
            raise CurveDataError(
                f"{role} curve quality values are not strictly monotone "
                f"(repeated quality near {prev:g})"
            )
        self.log_costs = [list(map(math.log10, map(cost.__getitem__, order))) for cost in costs]
        self.slopes = _pchip_slopes(h, self.log_costs)
        self.lo, self.hi = x[0], x[-1]
        self.span = self.hi - self.lo

    @classmethod
    def of_curve(cls, curve: RdeCurve, axis: QualityAxis, role: str) -> NodeSet:
        """The curve's costs, in ``_COSTS`` order, against one quality axis."""
        quality, *costs = zip(*map(_NODE_FIELDS[axis], curve.points))
        return cls(quality, costs, role)

    def integrals(self, lo: float, hi: float) -> list[float]:
        """Integral over [lo, hi] of each cost's PCHIP interpolant, in ``log_costs`` order.

        [lo, hi] lies within the nodes' range. Each interval the range
        touches adds its term in node order. A cut end's Hermite weights
        are computed once and serve every cost; a whole interval uses the
        weights at 1. The weights at 0 are all zero, so a term whose
        interval starts inside the range subtracts nothing.
        """
        x = self.quality
        # The intervals the range touches, each with the weights at its
        # right end and, where lo cuts it, at its left end.
        pieces = []
        for k, w in enumerate(self.widths):
            a = x[k]
            if a >= hi:
                break
            b = x[k + 1]
            if b > lo:
                pieces.append((k, w, _WHOLE if b <= hi else _weights((hi - a) / w),
                               _weights((lo - a) / w) if lo > a else None))
        totals = []
        for y, s in zip(self.log_costs, self.slopes):
            total = 0.0
            for k, w, (r0, r1, r2, r3), left in pieces:
                y0, y1, d0, d1 = y[k], y[k + 1], w * s[k], w * s[k + 1]
                area = y0 * r0 + d0 * r1 + y1 * r2 + d1 * r3
                if left:
                    l0, l1, l2, l3 = left
                    area -= y0 * l0 + d0 * l1 + y1 * l2 + d1 * l3
                total += w * area
            totals.append(total)
        return totals


def _overlap(anchor: NodeSet, test: NodeSet) -> tuple[float, float]:
    """The quality range both node sets cover."""
    lo = max(anchor.lo, test.lo)
    hi = min(anchor.hi, test.hi)
    if not lo < hi:
        raise CurveDataError(
            f"empty quality overlap: anchor spans [{anchor.lo:g}, {anchor.hi:g}], "
            f"test spans [{test.lo:g}, {test.hi:g}]"
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


def _pair_nodes(points: Sequence[tuple[float, float]], role: str) -> NodeSet:
    """The ``NodeSet`` of (cost, quality) pairs, checked for what ``RdeCurve`` guarantees."""
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
    return NodeSet(quality, [cost], role)


def bd_delta(anchor: Sequence[tuple[float, float]],
             test: Sequence[tuple[float, float]]) -> float:
    """Percent cost difference of ``test`` vs ``anchor`` at equal quality.

    Each side is (cost, quality) pairs in any order. Returns
    100 * (10**d - 1) where d is the mean difference of the two
    log10-cost interpolants over the common quality interval.
    """
    anchor, test = _pair_nodes(anchor, "anchor"), _pair_nodes(test, "test")
    lo, hi = _overlap(anchor, test)
    (test_total,), (anchor_total,) = test.integrals(lo, hi), anchor.integrals(lo, hi)
    return _percent((test_total - anchor_total) / (hi - lo))


class PreparedAnchor:
    """One sequence's anchor curve as a ``NodeSet`` per quality axis, built once per run.

    An invalid curve is rejected here, tagged with the first field of the
    axis it fails on, as ``bd_report`` tags its errors.
    """

    __slots__ = ("sequence", "axes")

    def __init__(self, curve: RdeCurve):
        self.sequence = curve.sequence
        self.axes = {}
        for name, _, axis in BD_FIELDS:
            if axis not in self.axes:
                try:
                    self.axes[axis] = NodeSet.of_curve(curve, axis, "anchor")
                except CtpDseError as exc:
                    raise CurveDataError(f"{name} ({curve.sequence}): {exc}") from exc


def bd_report(anchor: PreparedAnchor, test: RdeCurve) -> BdReport:
    """All four BD metrics of ``test`` against ``anchor`` for one sequence.

    The fields are computed in ``BD_FIELDS`` order. The first field of a
    quality axis runs that axis's one pass: the test's nodes are sorted
    and checked once, the overlap and its share of the anchor span are
    found once, and one test pass and one anchor pass integrate both
    costs. The first field that fails raises, tagged with its name, so a
    node or overlap error belongs to the axis's first field and an
    overflow to its own; warnings come in field order.
    """
    if anchor.sequence != test.sequence:
        raise CurveDataError(
            f"sequence mismatch: anchor is {anchor.sequence!r}, test is {test.sequence!r}"
        )
    passes, values, warnings = {}, {}, []
    for name, cost, axis in BD_FIELDS:
        try:
            if axis not in passes:
                nodes = anchor.axes[axis]
                test_nodes = NodeSet.of_curve(test, axis, "test")
                lo, hi = _overlap(nodes, test_nodes)
                # The share of the anchor's quality span that the two curves
                # share, and each cost's mean log10 difference over it.
                passes[axis] = ((hi - lo) / nodes.span, {
                    c: (test_total - anchor_total) / (hi - lo) for c, test_total, anchor_total
                    in zip(_COSTS, test_nodes.integrals(lo, hi), nodes.integrals(lo, hi))})
            frac, deltas = passes[axis]
            values[name] = _percent(deltas[cost])
        except CtpDseError as exc:
            raise CurveDataError(f"{name} ({test.sequence}): {exc}") from exc
        if frac < MIN_OVERLAP_FRACTION:
            warnings.append(f"{name} ({test.sequence}): quality overlap is only "
                            f"{100 * frac:.1f}% of the anchor span")
    return BdReport(warnings=tuple(warnings), **values)


def aggregate_reports(reports: Iterable[BdReport]) -> BdReport:
    """Arithmetic per-field mean of several reports; warnings are merged."""
    reports = list(reports)
    if not reports:
        raise CurveDataError("cannot aggregate an empty list of reports")
    merged = []
    for report in reports:
        for warning in report.warnings:
            if warning not in merged:
                merged.append(warning)
    # exact_mean is the correctly rounded mean, so the mean of n equal
    # reports is that report, bit for bit. For a power-of-two count, as
    # with two or eight sequences, it divides math.fsum's sum and makes
    # no big integers.
    return BdReport(
        warnings=tuple(merged),
        **{name: exact_mean([getattr(r, name) for r in reports]) for name, _, _ in BD_FIELDS},
    )
