"""Confidence-interval gate for repeated energy measurements.

Decode-energy readings are noisy, so a point only enters a curve once the
Student-t confidence interval of its repeated samples is tight relative to
the mean. Measurement readers gate at ``DEFAULT_CONFIDENCE`` and
``DEFAULT_REL_HALF_WIDTH``; ``ci_check`` takes other levels too, and every
verdict echoes the level and bound it was judged at.

Sample statistics are exact until one final rounding. A finite float is
an integer over a power of two, so a series is written as integers over
one common power-of-two denominator and summed, with their squares,
exactly in ``int`` arithmetic. The mean is then one correctly rounded
``int / int`` division, and the standard deviation the correctly rounded
square root of the exact sample variance. These are the floats that
``statistics.mean`` and ``statistics.stdev`` give on Python 3.11 and
later, computed without ``Fraction`` normalisation.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError

DEFAULT_CONFIDENCE = 0.99
DEFAULT_REL_HALF_WIDTH = 0.02

# Bits of the radicand that exact_stdev keeps: its integer root then has
# two bits more than a float's mantissa, enough for round-to-odd to make
# the one rounding to a float correct.
_ROOT_BITS = 2 * sys.float_info.mant_dig + 3


def _scaled(values: Sequence[float]) -> tuple[list[int], int]:
    """Finite floats as integers over one common denominator ``2 ** shift``."""
    ratios = [value.as_integer_ratio() for value in values]
    width = max(den for _, den in ratios).bit_length()
    return [num << (width - den.bit_length()) for num, den in ratios], width - 1


def exact_mean(values: Sequence[float]) -> float:
    """Arithmetic mean of finite floats, correctly rounded."""
    ints, shift = _scaled(values)
    return sum(ints) / (len(ints) << shift)


def exact_stdev(values: Sequence[float]) -> float:
    """Sample standard deviation of two or more finite floats, correctly rounded."""
    ints, shift = _scaled(values)
    n = len(ints)
    total = sum(ints)
    num = n * sum(x * x for x in ints) - total * total
    den = n * (n - 1) << 2 * shift
    # Scale num / den to about _ROOT_BITS bits, take the integer root and
    # set its last bit when it is inexact (round to odd), as
    # statistics._float_sqrt_of_frac does.
    q = (num.bit_length() - den.bit_length() - _ROOT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


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
    # Checked first: exact_stdev cannot represent a non-finite value.
    for value in samples:
        if not 0 < value < math.inf:
            raise ConfigError(f"energy samples must be finite and > 0, got {value}")
    if not 0 < confidence < 1:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    if not rel_half_width > 0:
        raise ConfigError(f"rel_half_width must be > 0, got {rel_half_width}")
    n = len(samples)
    try:
        mean = math.fsum(samples) / n
    except OverflowError:
        raise ConfigError(f"the sum of the energy samples overflows a float: {samples}") from None
    if n < 2:
        return Verdict.INSUFFICIENT, mean, math.inf
    # Imported here so that only readers of energy samples load scipy.
    from scipy.special import stdtrit

    quantile = float(stdtrit(n - 1, (1 + confidence) / 2))
    half_width = quantile * exact_stdev(samples) / math.sqrt(n)
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
