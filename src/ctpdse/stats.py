"""Confidence-interval gate for repeated energy measurements.

Decode-energy readings are noisy, so a point only enters a curve once the
Student-t confidence interval of its repeated samples is tight relative to
the mean. The gate has one setting: ``DEFAULT_CONFIDENCE`` and
``DEFAULT_REL_HALF_WIDTH``, which every verdict's description echoes.

``exact_mean`` and ``exact_stdev`` are exact until one final rounding. A
finite float is an integer over a power of two, so a series is written as
integers over one common power-of-two denominator and summed, with their
squares, exactly in ``int`` arithmetic. The mean is then one correctly
rounded ``int / int`` division, and the standard deviation the correctly
rounded square root of the exact sample variance. These are the floats
that ``statistics.mean`` and ``statistics.stdev`` give on Python 3.11 and
later, computed without ``Fraction`` normalisation.

``exact_mean`` skips the integers when the count is a power of two, as
for the mean of two BD reports. ``math.fsum`` is the correctly rounded
sum, and dividing it by a power of two is exact, so the quotient is the
correctly rounded mean whenever it is a nonzero normal float. Otherwise,
when the sum overflows, the quotient is subnormal or the mean is zero,
the integer path runs: it gives ``+0.0`` for a zero mean, where
``(-0.0 + -0.0) / 2`` is ``-0.0``.

The gate's own mean is not ``exact_mean``: ``ci_check`` takes
``math.fsum(samples) / n``, the correctly rounded sum divided by the
count, which rounds twice and can differ from ``exact_mean`` by one ulp.
That mean is ``MeasurementSeries.mean``, and the external backend uses it
as a point's energy, so it stays as it is: another mean would change the
output bytes of external runs.

The gate filters ``exact_stdev``, after the filter-then-exact pattern of
adaptive-precision predicates (J. R. Shewchuk, "Adaptive Precision
Floating-Point Arithmetic and Fast Robust Geometric Predicates", Discrete
Comput. Geom. 18(3), 1997). ``MeasurementSeries.validate`` first takes the
sample standard deviation in floats by two passes: the deviations from
the gate's mean ``m``, squared and summed with ``math.fsum`` (Chan, Golub
and LeVeque, "Algorithms for computing the sample variance", The American
Statistician 37(3), 1983; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., SIAM 2002, ch. 1-4). With ``u = 2**-53`` and each
operation rounding with a relative error of at most ``u``:

* ``m`` rounds twice, so it is within ``(2u + u**2) mu`` of the exact mean
  ``mu``. The exact sum of squares about ``mu`` is ``SS = T - n (m - mu)**2``,
  where ``T`` is the exact sum of squares about ``m``, and
  ``n (m - mu)**2 <= 4.41 n u**2 m**2``.
* Each deviation, its square and the ``fsum`` round once, so the computed
  sum ``F`` is within a factor ``(1 +- u)**4`` of ``T``. With
  ``rho = 5 n u**2 m**2 / F``, ``SS / F`` lies in ``[1 - 4.01u - rho, 1 + 4.01u]``.
  ``rho`` is large when the samples are nearly equal, where the mean's
  rounding can be most of the variance.
* Dividing by ``n - 1`` and the root round twice more, and ``exact_stdev``
  rounds once. So ``exact_stdev`` lies within ``[s (1 - 6.5u - rho),
  s (1 + 4.6u)]`` of the computed ``s``. The filter takes the ends
  ``s (1 - 16u - rho)`` and ``s (1 + 16u)``, which also covers the
  rounding of those two products.
* These relative bounds need no underflow and no overflow. A mean in
  ``[2**-300, 2**300]`` ensures both: a nonzero deviation from it is at
  least ``2**-353``, so its square is a normal float, and no sample is
  much more than ``n`` times the mean.

The half-width ``q * s / sqrt(n)`` in floats does not decrease as ``s``
grows, and neither do its verdict and its ``%.6g`` text, which is
correctly rounded. So when both ends give the same verdict and the same
text, ``exact_stdev`` gives them too, and the filter's outputs are the
gate's. Otherwise ``exact_stdev`` decides: for a mean out of the range,
for equal samples, for nearly equal ones, whose large ``rho`` puts the
ends far apart, and for a half-width within about 16 ulps of the bound
or of a ``%.6g`` rounding boundary.
A series keeps its half-width only as that ``%.6g`` text, which
``describe`` prints; the correctly rounded float is ``ci_check``'s.

The Student-t quantile is exact in the same sense. For an integer number
of degrees of freedom the CDF has a finite closed form (Abramowitz and
Stegun 26.7.3-26.7.4; Hill, CACM Algorithms 395 and 396), which is
evaluated in integer fixed point, with ``math.isqrt`` and, for odd df,
Euler's arctangent series. Bisection over float bit patterns then finds
the correctly rounded root, each step decided at the exact midpoint
between two floats, with the precision doubled until the decision is
certain. ``ci_check`` computes one quantile per sample count and caches it.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from typing import Sequence

from .errors import ConfigError
from .frozen import Frozen

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
    n = len(values)
    if n.bit_count() == 1:
        try:
            mean = math.fsum(values) / n
        except OverflowError:
            mean = math.inf
        if sys.float_info.min <= abs(mean) < math.inf:
            return mean
    return _integer_mean(values)


def _integer_mean(values: Sequence[float]) -> float:
    """``exact_mean`` by exact integer sums, for every count."""
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


# Bit patterns order positive floats by value (see _unpack).
_MANT = 1 << 52
# Bit pattern of 2.0 ** 64, above every quantile: p < 1 makes 2p - 1 at most
# 1 - 2**-52, and even at df = 1 that quantile, cot(pi * 2**-53), is below 2**52.
_QUANTILE_CEILING = (1023 + 64) * _MANT
# Working precision in bits: the first try, and the last doubling before a
# midpoint is taken to be the root itself (see _above).
_FIRST_BITS = 128
_LAST_BITS = 1 << 13


def _series(x: int, bits: int, odd: int, terms: float) -> int:
    """``sum(c_k * x**k for k < terms)`` with ``x`` and the sum scaled by ``2**bits``.

    ``c_0 = 1`` and ``c_k = c_(k-1) * (2k - 1 + odd) / (2k + odd)``: the
    coefficients (2k-1)!!/(2k)!! of the even-df series for ``odd = 0``, and
    (2k)!!/(2k+1)!! of the odd-df series and of Euler's arctangent series
    for ``odd = 1``. With ``terms`` infinite the sum stops at the first zero
    term, after at most ``bits + 1`` terms for ``x`` <= 1/2. Each term
    truncates, so the error grows at most quadratically with the number of
    terms, and linearly for ``x`` <= 1/2; the bound in ``_above`` covers both.
    """
    total, term, k = 0, 1 << bits, 0
    while term and k < terms:
        total += term
        k += 1
        term = term * x * (2 * k - 1 + odd) // ((2 * k + odd) << bits)
    return total


@functools.lru_cache(maxsize=None)
def _half_pi(bits: int) -> int:
    """pi / 2 scaled by ``2**bits``: Euler's series for 2 atan(1)."""
    return _series(1 << bits - 1, bits, 1, math.inf)


def _excess(num: int, den: int, df: int, goal: tuple[int, int], bits: int) -> int:
    """``A(t) - goal`` scaled by ``2**bits``, within ``(df + bits)**2``, at ``t = num / den``.

    ``A(t) = 2 F(t) - 1`` is the two-sided probability of Student's t with
    ``df`` degrees of freedom, in closed form for integer df (Abramowitz and
    Stegun 26.7.3-26.7.4): with ``theta = atan(t / sqrt(df))``, even df gives
    ``sin(theta) * sum((2k-1)!!/(2k)!! * cos(theta)**2k for k < df/2)`` and
    odd df gives ``(2/pi) * (theta + sin(theta) cos(theta) * sum((2k)!!/(2k+1)!!
    * cos(theta)**2k for k < (df-1)/2))``. Odd df is compared as
    ``A * pi/2`` against ``goal * pi/2``. Theta comes from Euler's series
    ``atan(y) = sin cos * sum((2k)!!/(2k+1)!! * sin**2k)``, taken on the
    complementary angle when theta > pi/4 so that the ratio stays <= 1/2.
    """
    v = df * den * den
    d = v + num * num  # (df + t**2) * den**2
    cos2 = (v << bits) // d
    target = (goal[0] << bits) // goal[1]
    if df % 2 == 0:
        sin = math.isqrt((num * num << 2 * bits) // d)
        return (sin * _series(cos2, bits, 0, df // 2) >> bits) - target
    sin_cos = math.isqrt((v * num * num << 2 * bits) // (d * d))
    if num * num <= v:
        theta = sin_cos * _series((num * num << bits) // d, bits, 1, math.inf) >> bits
    else:
        theta = _half_pi(bits) - (sin_cos * _series(cos2, bits, 1, math.inf) >> bits)
    return (theta + (sin_cos * _series(cos2, bits, 1, df // 2) >> bits)
            - (target * _half_pi(bits) >> bits))


def _unpack(k: int) -> tuple[int, int]:
    """The positive float with bit pattern ``k`` as ``(m, e)``, its value being ``m * 2**e``."""
    e, m = divmod(k, _MANT)
    return (m + _MANT, e - 1075) if e else (m, -1074)


def _above(k: int, df: int, goal: tuple[int, int]) -> bool:
    """Whether ``A`` exceeds ``goal`` at the midpoint of float ``k`` and float ``k + 1``.

    The midpoint is an exact rational. The precision doubles until the
    excess is larger than its error bound. An excess still within about
    ``2**-8000`` is taken to be zero, that is, the root lies on the
    midpoint, and the answer rounds it to the even float.
    """
    m, e = _unpack(k)
    num, den = (2 * m + 1 << e - 1, 1) if e >= 1 else (2 * m + 1, 1 << 1 - e)
    bits = _FIRST_BITS
    while bits <= _LAST_BITS:
        excess = _excess(num, den, df, goal, bits)
        if abs(excess) > (df + bits) ** 2:
            return excess > 0
        bits *= 2
    return k % 2 == 0


@functools.lru_cache(maxsize=None)
def t_quantile(p: float, df: int) -> float:
    """The ``p``-quantile of Student's t with ``df`` >= 1 degrees of freedom, 1/2 <= p <= 1.

    The result is the correctly rounded root ``t`` of ``F(t) = p`` for the
    float ``p`` as given, and infinite for ``p = 1``. It is the first float
    whose upper rounding boundary, the midpoint to the next float, lies
    above the root, found by bisection over bit patterns.
    """
    if not (0.5 <= p <= 1 and df >= 1):
        raise ValueError(f"t_quantile needs 1/2 <= p <= 1 and df >= 1, got p={p}, df={df}")
    if p == 1:
        return math.inf
    goal = (2 * p - 1).as_integer_ratio()  # exact: 2p and 2p - 1 are floats
    lo, hi = 0, _QUANTILE_CEILING
    while lo < hi:
        mid = (lo + hi) // 2
        if _above(mid, df, goal):
            hi = mid
        else:
            lo = mid + 1
    return math.ldexp(*_unpack(lo))


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INSUFFICIENT = "insufficient"


def _checked_mean(samples: Sequence[float]) -> float:
    """``math.fsum(samples) / n`` of one or more finite samples > 0, or ConfigError."""
    if not samples:
        raise ConfigError("ci_check requires at least one sample")
    # Checked first: exact_stdev cannot represent a non-finite value.
    for value in samples:
        if not 0 < value < math.inf:
            raise ConfigError(f"energy samples must be finite and > 0, got {value}")
    try:
        return math.fsum(samples) / len(samples)
    except OverflowError:
        raise ConfigError(f"the sum of the energy samples overflows a float: {samples}") from None


def ci_check(samples: Sequence[float]) -> tuple[Verdict, float, float]:
    """Two-sided Student-t interval test on repeated readings.

    Returns (verdict, mean, half_width); the mean is ``math.fsum(samples) / n``
    (see the module docstring). The verdict is PASS when the half-width at
    ``DEFAULT_CONFIDENCE`` is at most ``DEFAULT_REL_HALF_WIDTH`` times the
    mean, FAIL when it is wider, and INSUFFICIENT for fewer than two
    samples (half-width is then infinite). This is the exact path that
    ``MeasurementSeries.validate`` filters, and it runs when the filter
    cannot settle a series.
    """
    mean = _checked_mean(samples)
    n = len(samples)
    if n < 2:
        return Verdict.INSUFFICIENT, mean, math.inf
    q = t_quantile((1 + DEFAULT_CONFIDENCE) / 2, n - 1)
    half_width = q * exact_stdev(samples) / math.sqrt(n)
    verdict = Verdict.PASS if half_width <= DEFAULT_REL_HALF_WIDTH * mean else Verdict.FAIL
    return verdict, mean, half_width


# Unit roundoff of a float.
_U = 2.0 ** -53
# The filter runs when the mean lies in this range (see the module docstring).
_FILTER_LO, _FILTER_HI = 2.0 ** -300, 2.0 ** 300
# rho, the share of the sum of squares that the mean's rounding could
# remove, is at most 4.41 n (u mean)**2 / squares; this constant is 5 u**2.
_RHO_SCALE = 5 * _U * _U
# The relative margins of the stdev's lower and upper bounds.
_LOW, _HIGH = 1 - 16 * _U, 1 + 16 * _U


def _screen(samples: tuple[float, ...], mean: float) -> tuple[Verdict, str] | None:
    """``ci_check``'s verdict and ``%.6g`` half-width text from a float stdev, or None.

    ``samples`` are one or more checked samples and ``mean`` their
    ``_checked_mean``. The float two-pass stdev and its proven bounds are
    derived in the module docstring; None means that the bounds do not
    settle the verdict or the text, and the exact path must decide. One
    sample's one deviation from its own mean is exactly zero, so it
    always takes the exact path.
    """
    if not _FILTER_LO <= mean <= _FILTER_HI:
        return None
    n = len(samples)
    squares = math.fsum([(x - mean) * (x - mean) for x in samples])
    if not squares:
        return None
    rho = _RHO_SCALE * n * mean * mean / squares
    stdev = math.sqrt(squares / (n - 1))
    q, root_n = t_quantile((1 + DEFAULT_CONFIDENCE) / 2, n - 1), math.sqrt(n)
    low = q * (stdev * (_LOW - rho)) / root_n
    high = q * (stdev * _HIGH) / root_n
    bound = DEFAULT_REL_HALF_WIDTH * mean
    text = f"{low:.6g}"
    if (low <= bound) is not (high <= bound) or text != f"{high:.6g}":
        return None
    return Verdict.PASS if low <= bound else Verdict.FAIL, text


# The gate's setting as ``describe`` echoes it, formatted once.
_SETTING = f"(confidence={DEFAULT_CONFIDENCE}, bound={DEFAULT_REL_HALF_WIDTH})"


class MeasurementSeries(Frozen):
    """Raw samples of one decode job together with their validation verdict.

    ``verdict`` and ``mean`` are those of ``ci_check``: ``mean`` is
    ``math.fsum(samples) / n``, which can be one ulp from ``exact_mean``.
    ``half_width_text`` is the ``%.6g`` text of ``ci_check``'s half-width
    that ``validate`` settled, and ``describe`` prints it.
    """

    __slots__ = ()
    _fields = ("samples", "verdict", "mean", "half_width_text")

    def __new__(cls, samples: tuple[float, ...], verdict: Verdict, mean: float,
                half_width_text: str):
        return tuple.__new__(cls, (samples, verdict, mean, half_width_text))

    @classmethod
    def validate(cls, samples: Sequence[float]) -> "MeasurementSeries":
        """``ci_check`` of ``samples``, filtered: ``ci_check`` runs only when the filter fails.

        One path serves every sample count. A single sample never settles
        in the filter, so ``ci_check`` gives its ``INSUFFICIENT`` verdict
        and infinite half-width.
        """
        mean = _checked_mean(samples)
        samples = tuple(samples)
        settled = _screen(samples, mean)
        if settled is None:
            verdict, _, half_width = ci_check(samples)
            settled = verdict, f"{half_width:.6g}"
        return cls(samples, settled[0], mean, settled[1])

    def describe(self) -> str:
        return (f"{self.verdict.value}: n={len(self.samples)} mean={self.mean:.6g} J "
                f"half_width={self.half_width_text} J {_SETTING}")
