"""Rate-distortion-energy curves and Bjontegaard-Delta computation.

A BD value is the average relative difference between two curves' cost
(bit rate or decoding energy) over their common quality range: each
curve's log10(cost) is interpolated against quality with a monotone
piecewise-cubic (PCHIP), the interpolants are integrated in closed form
over the overlapping quality interval, and the mean log-offset is mapped
back to percent. Negative values are savings.

Only the piecewise-cubic form is provided; the older global third-order
polynomial fit is deliberately not implemented. Quality values are used
as ingested (PSNR is expected pre-combined across components); no pixel
data is ever touched here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, CtpDseError

# Warn when the common quality range covers less than this fraction of
# the anchor's quality span; the BD value then rests on a thin overlap.
MIN_OVERLAP_FRACTION = 0.10


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
        if not self.bitrate > 0:
            raise CurveDataError(f"qp {self.qp}: bitrate must be > 0, got {self.bitrate}")
        if not self.energy > 0:
            raise CurveDataError(f"qp {self.qp}: energy must be > 0, got {self.energy}")
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
        if len(self.points) < 4:
            raise CurveDataError(
                f"curve ({self.ctp_id}, {self.sequence}) has {len(self.points)} "
                "points; BD interpolation needs at least 4"
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
    """Sort by quality, validate, return (quality, log10 cost) arrays."""
    if len(points) < 4:
        raise CurveDataError(f"{role} curve has {len(points)} points, need at least 4")
    arr = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise CurveDataError(f"{role} curve contains non-finite values")
    cost, quality = arr[:, 0], arr[:, 1]
    if np.any(cost <= 0):
        raise CurveDataError(f"{role} curve has non-positive cost values")
    order = np.argsort(quality)
    quality, cost = quality[order], cost[order]
    if np.any(np.diff(quality) <= 0):
        dup = quality[np.flatnonzero(np.diff(quality) <= 0)[0]]
        raise CurveDataError(
            f"{role} curve quality values are not strictly monotone "
            f"(repeated quality near {dup:g})"
        )
    return quality, np.log10(cost)


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
    anchor_int = PchipInterpolator(aq, ac).integrate(lo, hi)
    test_int = PchipInterpolator(tq, tc).integrate(lo, hi)
    delta = (test_int - anchor_int) / (hi - lo)
    return float(100.0 * (10.0 ** delta - 1.0))


def _overlap_fraction(anchor_q: np.ndarray, test_q: np.ndarray) -> float:
    lo = max(anchor_q.min(), test_q.min())
    hi = min(anchor_q.max(), test_q.max())
    span = anchor_q.max() - anchor_q.min()
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
        anchor_q = np.array([getattr(p, quality) for p in anchor.points], dtype=float)
        test_q = np.array([getattr(p, quality) for p in test.points], dtype=float)
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
    # statistics.mean is exact over rationals, so the mean of n equal
    # reports is that report, bit for bit.
    return BdReport(
        warnings=tuple(merged),
        **{name: mean(getattr(r, name) for r in reports) for name, _, _ in BD_FIELDS},
    )
