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


def _pchip_integral(x: list[float], y: list[float], lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the PCHIP interpolant through (x, y)."""
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    slopes = [_end_slope(h[0], h[1], m[0], m[1])]
    for k in range(1, len(x) - 1):
        m0, m1 = m[k - 1], m[k]
        if _sign(m0) * _sign(m1) > 0:
            w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
            slopes.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        else:
            slopes.append(0.0)
    slopes.append(_end_slope(h[-1], h[-2], m[-1], m[-2]))

    def area(k: int, t: float) -> float:
        # Integral over [0, t] of the unit-interval Hermite basis of interval k.
        t2 = t * t
        t3 = t2 * t
        t4 = t3 * t
        return (
            y[k] * (t4 / 2 - t3 + t)
            + h[k] * slopes[k] * (t4 / 4 - 2 * t3 / 3 + t2 / 2)
            + y[k + 1] * (t3 - t4 / 2)
            + h[k] * slopes[k + 1] * (t4 / 4 - t3 / 3)
        )

    total = 0.0
    for k, width in enumerate(h):
        a = max(lo, x[k])
        b = min(hi, x[k + 1])
        if a < b:
            total += width * (area(k, (b - x[k]) / width) - area(k, (a - x[k]) / width))
    return total


def bd_delta(anchor: Sequence[tuple[float, float]], test: Sequence[tuple[float, float]]) -> float:
    """Percent cost difference of ``test`` vs ``anchor`` at equal quality.

    Both inputs are (cost, quality) pairs; point order does not matter.
    Returns 100 * (10**d - 1) where d is the mean difference of the two
    log10-cost interpolants over the common quality interval.
    """
    aq, ac = _prepare(anchor, "anchor")
    tq, tc = _prepare(test, "test")
    lo = max(aq[0], tq[0])
    hi = min(aq[-1], tq[-1])
    if not lo < hi:
        raise CurveDataError(
            f"empty quality overlap: anchor spans [{aq[0]:g}, {aq[-1]:g}], "
            f"test spans [{tq[0]:g}, {tq[-1]:g}]"
        )
    delta = (_pchip_integral(tq, tc, lo, hi) - _pchip_integral(aq, ac, lo, hi)) / (hi - lo)
    try:
        return 100.0 * (10.0 ** delta - 1.0)
    except OverflowError:  # costs some 300 decades apart; BdReport rejects the inf
        return math.inf


def _overlap_fraction(anchor_q: Sequence[float], test_q: Sequence[float]) -> float:
    lo = max(min(anchor_q), min(test_q))
    hi = min(max(anchor_q), max(test_q))
    span = max(anchor_q) - min(anchor_q)
    return (hi - lo) / span if span > 0 else 0.0


def bd_report(anchor: RdeCurve, test: RdeCurve) -> BdReport:
    """All four BD metrics of ``test`` against ``anchor`` for one sequence."""
    if anchor.sequence != test.sequence:
        raise CurveDataError(
            f"sequence mismatch: anchor is {anchor.sequence!r}, test is {test.sequence!r}"
        )
    values = {}
    warnings = []
    for name, cost, axis in BD_FIELDS:
        quality = axis.value
        try:
            values[name] = bd_delta(anchor.axis(cost, quality), test.axis(cost, quality))
        except CtpDseError as exc:
            raise CurveDataError(f"{name} ({test.sequence}): {exc}") from exc
        anchor_q = [getattr(p, quality) for p in anchor.points]
        test_q = [getattr(p, quality) for p in test.points]
        frac = _overlap_fraction(anchor_q, test_q)
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
