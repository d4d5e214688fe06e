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

Each side of a BD integral is a ``PchipCurve``: the sorted quality, the
log10 costs, the interval widths and the PCHIP slopes. Every BD value of
a run compares against the same anchor curve, so the anchor side is
prepared once, as a ``PreparedCurve`` that also stores each interval's
integral over the whole interval; a ``PreparedAnchor`` holds one per BD
field of a sequence. The test side is prepared once per quality axis:
``bd_report`` sorts and checks a test curve's quality nodes and takes
their widths once for both costs on that axis, and stores no
whole-interval terms. ``bd_delta`` integrates each test interval the
overlap touches, adds the anchor's stored term for each anchor interval
wholly inside the overlap and integrates only the anchor's cut intervals
at the two ends. A whole interval's term is the float the stored one is,
because the interval's ends map to exactly 0.0 and 1.0, and the terms are
added in node order, so neither side's preparation changes a bit of any
result.

Only the piecewise-cubic form is provided; the older global third-order
polynomial fit is deliberately not implemented. Quality values are used
as ingested (PSNR is expected pre-combined across components); no pixel
data is ever touched here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError, CtpDseError
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


@dataclass(frozen=True)
class RdePoint:
    """One operating point: bit rate in kbit/s, PSNR in dB, VMAF score, energy in J."""

    qp: int
    bitrate: float
    psnr: float
    vmaf: float
    energy: float

    def __post_init__(self):
        for name in ("bitrate", "energy"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise CurveDataError(f"qp {self.qp}: {name} must be finite and > 0, got {value}")
        if not math.isfinite(self.psnr):
            raise CurveDataError(f"qp {self.qp}: psnr must be finite, got {self.psnr}")
        if not 0.0 <= self.vmaf <= 100.0:
            raise CurveDataError(f"qp {self.qp}: vmaf must be in [0, 100], got {self.vmaf}")


@dataclass(frozen=True)
class RdeCurve:
    """Per-sequence measurements of one profile over a QP sweep."""

    sequence: str
    ctp_id: str
    points: tuple[RdePoint, ...]

    def __post_init__(self):
        if len(self.points) < MIN_CURVE_POINTS:
            raise CurveDataError(
                f"curve ({self.ctp_id}, {self.sequence}) has {len(self.points)} "
                f"points; BD interpolation needs at least {MIN_CURVE_POINTS}"
            )
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.qp <= prev.qp:
                raise CurveDataError(
                    f"curve ({self.ctp_id}, {self.sequence}): qps not strictly "
                    f"increasing at qp {cur.qp}"
                )
            if cur.bitrate >= prev.bitrate:
                raise CurveDataError(
                    f"curve ({self.ctp_id}, {self.sequence}): bitrate not strictly "
                    f"decreasing with qp at qp {cur.qp}"
                )
            if cur.energy >= prev.energy:
                raise CurveDataError(
                    f"curve ({self.ctp_id}, {self.sequence}): energy not strictly "
                    f"decreasing with qp at qp {cur.qp}"
                )

    def axis(self, cost: str, quality: str) -> list[tuple[float, float]]:
        """(cost, quality) pairs for one metric combination."""
        return [(getattr(p, cost), getattr(p, quality)) for p in self.points]


@dataclass(frozen=True)
class BdReport:
    """The four BD values of a test profile versus the anchor, in percent."""

    bdr_psnr: float
    bdr_vmaf: float
    bdde_psnr: float
    bdde_vmaf: float
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for name, _, _ in BD_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise CurveDataError(f"BD value {name} is not finite")

    def pair(self, axis: QualityAxis) -> tuple[float, float]:
        """(BDR, BDDE) on one quality axis."""
        return tuple(getattr(self, name) for name, _, quality in BD_FIELDS if quality is axis)


def _sort_nodes(quality: Sequence[float], costs: Sequence[Sequence[float]], role: str):
    """Validate one curve's nodes and sort them by quality.

    ``quality`` holds one value per node and each list in ``costs`` one
    cost per node. Returns the sorted quality and, in the same order, the
    log10 of each cost list.
    """
    if len(quality) < MIN_CURVE_POINTS:
        raise CurveDataError(
            f"{role} curve has {len(quality)} points, need at least {MIN_CURVE_POINTS}"
        )
    quality = list(map(float, quality))
    costs = [list(map(float, cost)) for cost in costs]
    if not (all(map(math.isfinite, quality))
            and all(math.isfinite(c) for cost in costs for c in cost)):
        raise CurveDataError(f"{role} curve contains non-finite values")
    if any(c <= 0 for cost in costs for c in cost):
        raise CurveDataError(f"{role} curve has non-positive cost values")
    order = sorted(range(len(quality)), key=quality.__getitem__)
    quality = [quality[i] for i in order]
    for prev, cur in zip(quality, quality[1:]):
        if cur <= prev:
            raise CurveDataError(
                f"{role} curve quality values are not strictly monotone "
                f"(repeated quality near {prev:g})"
            )
    return quality, [[math.log10(cost[i]) for i in order] for cost in costs]


def _prepare(points: Sequence[tuple[float, float]], role: str):
    """Sort (cost, quality) pairs by quality, validate, return (quality, log10 cost) lists."""
    quality, (log_cost,) = _sort_nodes([q for _, q in points], [[c for c, _ in points]], role)
    return quality, log_cost


def _widths(quality: list[float]) -> list[float]:
    return [b - a for a, b in zip(quality, quality[1:])]


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end node, clamped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip_slopes(h: list[float], y: list[float]) -> list[float]:
    """Node slopes of the PCHIP interpolant with interval widths ``h``."""
    m = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    slopes = [_end_slope(h[0], h[1], m[0], m[1])]
    for k in range(1, len(h)):
        m0, m1 = m[k - 1], m[k]
        if _sign(m0) * _sign(m1) > 0:
            w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
            slopes.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        else:
            slopes.append(0.0)
    slopes.append(_end_slope(h[-1], h[-2], m[-1], m[-2]))
    return slopes


def _area(y0: float, y1: float, d0: float, d1: float, t: float) -> float:
    """Integral over [0, t] of the unit-interval cubic Hermite basis.

    ``y0`` and ``y1`` are the end values, ``d0`` and ``d1`` the end
    slopes times the interval width.
    """
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return (
        y0 * (t4 / 2 - t3 + t)
        + d0 * (t4 / 4 - 2 * t3 / 3 + t2 / 2)
        + y1 * (t3 - t4 / 2)
        + d1 * (t4 / 4 - t3 / 3)
    )


class PchipCurve:
    """One side of a BD integral: log10 cost against quality, ready to integrate.

    ``quality`` is sorted ascending and ``log_cost`` holds log10 of the
    matching costs. ``widths`` and ``slopes`` are the PCHIP interval
    widths and node slopes, and ``lo``, ``hi`` and ``span`` give the
    quality range. A test curve's two costs on one quality axis share its
    ``quality`` and ``widths`` lists.
    """

    __slots__ = ("quality", "log_cost", "widths", "slopes", "lo", "hi", "span")

    def __init__(self, quality: list[float], widths: list[float], log_cost: list[float]):
        self.quality, self.widths, self.log_cost = quality, widths, log_cost
        self.slopes = _pchip_slopes(widths, log_cost)
        self.lo, self.hi = quality[0], quality[-1]
        self.span = self.hi - self.lo

    def _piece(self, k: int, a: float, b: float) -> float:
        """Integral over [a, b], a part of interval k, of the interpolant."""
        x0, y, slopes, width = self.quality[k], self.log_cost, self.slopes, self.widths[k]
        y0, y1, d0, d1 = y[k], y[k + 1], width * slopes[k], width * slopes[k + 1]
        return width * (_area(y0, y1, d0, d1, (b - x0) / width)
                        - _area(y0, y1, d0, d1, (a - x0) / width))

    def integral(self, lo: float, hi: float) -> float:
        """Integral over [lo, hi] of the PCHIP interpolant through the nodes.

        Each interval the range touches is integrated in the call, over
        its part inside [lo, hi], and the terms are added in node order.
        The test side integrates this way and keeps nothing between calls.
        """
        x = self.quality
        total = 0.0
        for k in range(len(self.widths)):
            a = max(lo, x[k])
            b = min(hi, x[k + 1])
            if a < b:
                total += self._piece(k, a, b)
        return total


class PreparedCurve(PchipCurve):
    """The anchor side of a BD integral, prepared once for many calls.

    On top of the ``PchipCurve`` fields, ``full[k]`` is the integral over
    the whole of interval k; only the anchor stores these terms. Build the
    anchor side once and pass it to every ``bd_delta`` call.
    """

    __slots__ = ("full",)

    def __init__(self, points: Sequence[tuple[float, float]], role: str):
        x, y = _prepare(points, role)
        super().__init__(x, _widths(x), y)
        self.full = [self._piece(k, x[k], x[k + 1]) for k in range(len(self.widths))]

    def integral(self, lo: float, hi: float) -> float:
        """Integral over [lo, hi] of the PCHIP interpolant through the nodes.

        As ``PchipCurve.integral``, except that an interval wholly inside
        [lo, hi] adds its stored ``full`` term, the float the call would
        compute for it, so only the cut intervals at the two ends cost work.
        """
        x = self.quality
        total = 0.0
        for k, full in enumerate(self.full):
            a, b = x[k], x[k + 1]
            if lo <= a and b <= hi:
                total += full
            else:
                a = max(lo, a)
                b = min(hi, b)
                if a < b:
                    total += self._piece(k, a, b)
        return total


def _prepared(curve, role: str) -> PchipCurve:
    if isinstance(curve, PchipCurve):
        return curve
    x, y = _prepare(curve, role)
    return PchipCurve(x, _widths(x), y)


def bd_delta(anchor: PchipCurve | Sequence[tuple[float, float]],
             test: PchipCurve | Sequence[tuple[float, float]]) -> float:
    """Percent cost difference of ``test`` vs ``anchor`` at equal quality.

    Each side is a ``PchipCurve`` or (cost, quality) pairs in any
    order, which are prepared here. Returns 100 * (10**d - 1) where d is
    the mean difference of the two log10-cost interpolants over the
    common quality interval.
    """
    anchor = _prepared(anchor, "anchor")
    test = _prepared(test, "test")
    lo = max(anchor.lo, test.lo)
    hi = min(anchor.hi, test.hi)
    if not lo < hi:
        raise CurveDataError(
            f"empty quality overlap: anchor spans [{anchor.lo:g}, {anchor.hi:g}], "
            f"test spans [{test.lo:g}, {test.hi:g}]"
        )
    delta = (test.integral(lo, hi) - anchor.integral(lo, hi)) / (hi - lo)
    try:
        return 100.0 * (10.0 ** delta - 1.0)
    except OverflowError:
        raise CurveDataError(
            f"costs too far apart: the mean log10 cost difference {delta:g} overflows"
        ) from None


class PreparedAnchor:
    """One sequence's anchor curve, prepared once for each BD field.

    An invalid curve is rejected here, tagged with the first field it
    fails, as ``bd_report`` tags its errors.
    """

    __slots__ = ("sequence", "fields")

    def __init__(self, curve: RdeCurve):
        self.sequence = curve.sequence
        self.fields = {}
        for name, cost, axis in BD_FIELDS:
            try:
                self.fields[name] = PreparedCurve(curve.axis(cost, axis.value), "anchor")
            except CtpDseError as exc:
                raise CurveDataError(f"{name} ({curve.sequence}): {exc}") from exc


def _test_axis(test: RdeCurve, axis: QualityAxis) -> dict[str, PchipCurve]:
    """The test curve on one quality axis: one ``PchipCurve`` per cost over shared nodes."""
    points, name = test.points, axis.value
    quality, log_costs = _sort_nodes([getattr(p, name) for p in points],
                                     [[getattr(p, cost) for p in points] for cost in _COSTS],
                                     "test")
    widths = _widths(quality)
    return {cost: PchipCurve(quality, widths, y) for cost, y in zip(_COSTS, log_costs)}


def bd_report(anchor: PreparedAnchor, test: RdeCurve) -> BdReport:
    """All four BD metrics of ``test`` against ``anchor`` for one sequence.

    The test curve is prepared once per quality axis, when the first field
    on that axis needs it: its nodes are sorted and checked once for both
    costs. So errors still come in ``BD_FIELDS`` order, each tagged with
    its field. The thin-overlap share reads both prepared quality ranges.
    """
    if anchor.sequence != test.sequence:
        raise CurveDataError(
            f"sequence mismatch: anchor is {anchor.sequence!r}, test is {test.sequence!r}"
        )
    axes = {}
    values = {}
    warnings = []
    for name, cost, axis in BD_FIELDS:
        prepared = anchor.fields[name]
        try:
            if axis not in axes:
                axes[axis] = _test_axis(test, axis)
            curve = axes[axis][cost]
            values[name] = bd_delta(prepared, curve)
        except CtpDseError as exc:
            raise CurveDataError(f"{name} ({test.sequence}): {exc}") from exc
        # The share of the anchor's quality span that the two curves share.
        frac = (min(prepared.hi, curve.hi) - max(prepared.lo, curve.lo)) / prepared.span
        if frac < MIN_OVERLAP_FRACTION:
            warnings.append(
                f"{name} ({test.sequence}): quality overlap is only {100 * frac:.1f}% "
                "of the anchor span"
            )
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
    # exact_mean sums exactly and rounds once, so the mean of n equal
    # reports is that report, bit for bit.
    return BdReport(
        warnings=tuple(merged),
        **{name: exact_mean([getattr(r, name) for r in reports]) for name, _, _ in BD_FIELDS},
    )
