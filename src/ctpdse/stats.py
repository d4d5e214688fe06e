"""Confidence-interval gate for repeated energy measurements.

Decode-energy readings are noisy, so a point only enters a curve once the
Student-t confidence interval of its repeated samples is tight relative to
the mean. Measurement readers gate at ``DEFAULT_CONFIDENCE`` and
``DEFAULT_REL_HALF_WIDTH``; ``ci_check`` takes other levels too, and every
verdict echoes the level and bound it was judged at.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import fmean, stdev
from typing import Sequence

from .errors import ConfigError

DEFAULT_CONFIDENCE = 0.99
DEFAULT_REL_HALF_WIDTH = 0.02


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INSUFFICIENT = "insufficient"


def ci_check(
    samples: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    rel_half_width: float = DEFAULT_REL_HALF_WIDTH,
) -> tuple[Verdict, float, float]:
    """Two-sided Student-t interval test on repeated readings.

    Returns (verdict, mean, half_width). The verdict is PASS when the
    half-width is at most ``rel_half_width`` times the mean, FAIL when it
    is wider, and INSUFFICIENT for fewer than two samples (half-width is
    then infinite).
    """
    if not samples:
        raise ConfigError("ci_check requires at least one sample")
    for value in samples:
        if not value > 0:
            raise ConfigError(f"energy samples must be > 0, got {value}")
    if not 0 < confidence < 1:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    if not rel_half_width > 0:
        raise ConfigError(f"rel_half_width must be > 0, got {rel_half_width}")
    mean = fmean(samples)
    n = len(samples)
    if n < 2:
        return Verdict.INSUFFICIENT, mean, math.inf
    # Imported here so that only readers of energy samples load scipy.
    from scipy.special import stdtrit

    quantile = float(stdtrit(n - 1, (1 + confidence) / 2))
    half_width = quantile * stdev(samples) / math.sqrt(n)
    verdict = Verdict.PASS if half_width <= rel_half_width * mean else Verdict.FAIL
    return verdict, mean, half_width


@dataclass(frozen=True)
class MeasurementSeries:
    """Raw samples of one decode job together with their validation verdict."""

    samples: tuple[float, ...]
    confidence: float
    rel_half_width: float
    verdict: Verdict
    mean: float
    half_width: float

    @classmethod
    def validate(
        cls,
        samples: Sequence[float],
        confidence: float = DEFAULT_CONFIDENCE,
        rel_half_width: float = DEFAULT_REL_HALF_WIDTH,
    ) -> "MeasurementSeries":
        verdict, mean, half_width = ci_check(samples, confidence, rel_half_width)
        return cls(tuple(samples), confidence, rel_half_width, verdict, mean, half_width)

    def describe(self) -> str:
        return (
            f"{self.verdict.value}: n={len(self.samples)} mean={self.mean:.6g} J "
            f"half_width={self.half_width:.6g} J "
            f"(confidence={self.confidence}, bound={self.rel_half_width})"
        )
