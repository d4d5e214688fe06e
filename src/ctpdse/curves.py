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

Every BD value of a run compares against the same anchor curve, so the
anchor side is prepared once. A ``PreparedCurve`` holds the sorted
quality, the log10 costs, the interval widths, the PCHIP slopes and each
interval's integral over the whole interval; a ``PreparedAnchor`` holds
one per BD field of a sequence. ``bd_delta`` adds the stored term of each
interval that lies wholly inside the overlap and integrates only the cut
intervals at the two ends. A stored term is the float the same formula
gives inside the call, because the interval's ends map to exactly 0.0
and 1.0, and the terms are added in node order as before, so reusing a
prepared anchor changes no bit of any result.

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


def _prepare(points: Sequence[tuple[float, float]], role: str):
    """Sort by quality, validate, return (quality, log10 cost) lists."""
    if len(points) < MIN_CURVE_POINTS:
        raise CurveDataError(
            f"{role} curve has {len(points)} points, need at least {MIN_CURVE_POINTS}"
        )
    pairs = [(float(cost), float(quality)) for cost, quality in points]
    if not all(math.isfinite(cost) and math.isfinite(quality) for cost, quality in pairs):
        raise CurveDataError(f"{role} curve contains non-finite values")
    if any(cost <= 0 for cost, _ in pairs):
        raise CurveDataError(f"{role} curve has non-positive cost values")
    pairs.sort(key=lambda pair: pair[1])
    quality = [q for _, q in pairs]
    for prev, cur in zip(quality, quality[1:]):
        if cur <= prev:
            raise CurveDataError(
                f"{role} curve quality values are not strictly monotone "
                f"(repeated quality near {prev:g})"
            )
    return quality, [math.log10(cost) for cost, _ in pairs]


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


class PreparedCurve:
    """One side of a BD integral: a validated curve ready to integrate.

    ``quality`` is sorted ascending and ``log_cost`` holds log10 of the
    matching costs. ``widths`` and ``slopes`` are the PCHIP interval
    widths and node slopes, and ``full[k]`` is the integral over the whole
    of interval k. ``lo``, ``hi`` and ``span`` give the quality range.
    Build the anchor side once and pass it to every ``bd_delta`` call.
    """

    __slots__ = ("quality", "log_cost", "widths", "slopes", "full", "lo", "hi", "span")

    def __init__(self, points: Sequence[tuple[float, float]], role: str):
        x, y = _prepare(points, role)
        self.quality, self.log_cost = x, y
        self.widths = [b - a for a, b in zip(x, x[1:])]
        self.slopes = _pchip_slopes(self.widths, y)
        self.full = [self._piece(k, x[k], x[k + 1]) for k in range(len(self.widths))]
        self.lo, self.hi = x[0], x[-1]
        self.span = self.hi - self.lo

    def _piece(self, k: int, a: float, b: float) -> float:
        """Integral over [a, b], a part of interval k, of the interpolant."""
        x0, y, slopes, width = self.quality[k], self.log_cost, self.slopes, self.widths[k]
        y0, y1, d0, d1 = y[k], y[k + 1], width * slopes[k], width * slopes[k + 1]
        return width * (_area(y0, y1, d0, d1, (b - x0) / width)
                        - _area(y0, y1, d0, d1, (a - x0) / width))

    def integral(self, lo: float, hi: float) -> float:
        """Integral over [lo, hi] of the PCHIP interpolant through the nodes.

        An interval wholly inside [lo, hi] adds its stored ``full`` term,
        the same float as computing it here, so only the cut intervals at
        the two ends cost work.
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


def _prepared(curve, role: str) -> PreparedCurve:
    return curve if isinstance(curve, PreparedCurve) else PreparedCurve(curve, role)


def bd_delta(anchor: PreparedCurve | Sequence[tuple[float, float]],
             test: PreparedCurve | Sequence[tuple[float, float]]) -> float:
    """Percent cost difference of ``test`` vs ``anchor`` at equal quality.

    Each side is a ``PreparedCurve`` or (cost, quality) pairs in any
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


def bd_report(anchor: PreparedAnchor, test: RdeCurve) -> BdReport:
    """All four BD metrics of ``test`` against ``anchor`` for one sequence."""
    if anchor.sequence != test.sequence:
        raise CurveDataError(
            f"sequence mismatch: anchor is {anchor.sequence!r}, test is {test.sequence!r}"
        )
    values = {}
    warnings = []
    for name, cost, axis in BD_FIELDS:
        quality = axis.value
        prepared = anchor.fields[name]
        try:
            values[name] = bd_delta(prepared, test.axis(cost, quality))
        except CtpDseError as exc:
            raise CurveDataError(f"{name} ({test.sequence}): {exc}") from exc
        test_q = [getattr(p, quality) for p in test.points]
        # The share of the anchor's quality span that the two curves share.
        frac = (min(prepared.hi, max(test_q)) - max(prepared.lo, min(test_q))) / prepared.span
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
