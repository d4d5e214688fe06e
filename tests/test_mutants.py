"""The faults that the BD, CI-gate and value-rule tests were shown to catch, kept as a gate.

Each row of ``MUTANTS`` names a module of the package, an exact text of
its source, the text that replaces it, and the commit whose change first
ran that mutant. The test loads the mutated source by ``exec`` into a
fresh module under ``ctpdse``, writes no file, and runs that module's
kill-set against it:

- ``curves``: ``bd_report`` on seeded curve pairs whose energies are
  drawn apart from their bitrates and whose VMAFs are a non-affine image
  of their PSNRs, against ``per_call_bd`` bit for bit and against the
  scipy PCHIP and trapezoid oracles at their tolerances, on both costs
  and both quality axes; and a test curve with a repeated quality;
- ``stats``: the filtered gate against ``ci_check`` on the series that
  the filter cannot settle: at the bound, on a ``%.6g`` boundary, equal,
  a few ulps apart, and below and above the filter's range;
- ``frozen``: the value rules on a class built on the module's ``Frozen``.

The unmutated sources must pass their kill-sets, each old text must occur
exactly once, and every mutant must fail. A change that rewrites a
mutated line writes its mutant again.
"""

import operator
import types
from pathlib import Path

import numpy as np
import pytest

import ctpdse
from ctpdse.curves import RdeCurve, RdePoint

from test_ci_filter import FALLBACKS
from test_curves import (axis_oracles, bd_scipy_oracle, bd_trapezoid_oracle, pair_curve,
                         per_call_bd, random_curve_pair, random_energy)


def source(module):
    return (Path(ctpdse.__file__).parent / f"{module}.py").read_text()


def load(module, text):
    """``text`` run as a fresh module ``ctpdse.<module>``, which ``sys.modules`` does not hold."""
    fresh = types.ModuleType(f"ctpdse.{module}")
    fresh.__package__ = "ctpdse"
    exec(compile(text, f"<ctpdse/{module}.py>", "exec"), fresh.__dict__)
    return fresh


def drawn_curve(rng, size, start, rising):
    """(bitrate, quality) pairs of ``size`` points from ``start`` and each point's energy.

    The bitrates rise with quality when ``rising``, and otherwise come in
    any order; the energies are drawn apart from them and rise as they do.
    """
    quality = start + np.cumsum(rng.uniform(0.5, 4.0, size))
    rate = rng.uniform(1.0, 1e4, size)
    if rising:
        rate.sort()
    energy = np.empty(size)
    energy[np.argsort(rate)] = np.sort(rng.uniform(1.0, 1e4, size))
    return list(zip(rate, quality)), list(energy)


def curve_cases():
    """Seeded (anchor, test, anchor energies, test energies) cases.

    Four-point ladders reach the four-point builder in falling order;
    costs in any order give secant sign changes and the end clamps; the
    drawn curves have 4-6 points and overlap in part.
    """
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(8):
        anchor, test = random_curve_pair(rng)
        cases.append((anchor, test, random_energy(rng), random_energy(rng)))
    for i in range(40):
        rising = i % 4 == 0
        anchor = drawn_curve(rng, rng.integers(4, 7), 30.0, rising)
        test = drawn_curve(rng, rng.integers(4, 7), 30.0 + rng.uniform(-4.0, 4.0), rising)
        cases.append((anchor[0], test[0], anchor[1], test[1]))
    return cases


CURVE_CASES = curve_cases()


# A test curve whose highest PSNR repeats: the four-point builder's last width is zero.
REPEATED_TOP = RdeCurve("s01", tuple(map(RdePoint, (22, 27, 32, 37),
                                         (8000.0, 4500.0, 2500.0, 1400.0),
                                         (42.5, 42.5, 37.4, 34.6), (92.0, 86.5, 78.0, 66.0),
                                         (120.0, 90.0, 65.0, 45.0))))


def kill_curves(curves):
    # Each case's (BDR, BDDE) on PSNR and then on VMAF, and the case.
    checks = []
    for case in CURVE_CASES:
        anchor, test, anchor_energy, test_energy = case
        report = curves.bd_report(curves.PreparedAnchor(pair_curve(anchor, anchor_energy)),
                                  pair_curve(test, test_energy))
        axis = curves.QualityAxis
        checks.append(([report.pair(axis.PSNR), report.pair(axis.VMAF)], case))
    # Cheapest first, so that most mutants stop early.
    for values, case in checks:
        assert values == axis_oracles(per_call_bd, *case)
    for values, case in checks:
        for axis_values, oracles in zip(values, axis_oracles(bd_scipy_oracle, *case)):
            assert axis_values == pytest.approx(oracles, rel=1e-9, abs=1e-12)
    for values, case in checks[:2]:
        for axis_values, oracles in zip(values, axis_oracles(bd_trapezoid_oracle, *case)):
            assert axis_values == pytest.approx(oracles, rel=1e-6)
    try:
        curves.bd_report(curves.PreparedAnchor(pair_curve(*CURVE_CASES[0][::2])), REPEATED_TOP)
    except curves.CurveDataError as exc:
        assert str(exc).startswith("bdr_psnr (s01): test curve quality values are not strictly")
    else:
        raise AssertionError("a repeated test quality was not rejected")


def kill_stats(stats):
    for samples in FALLBACKS.values():
        verdict, mean, half_width = stats.ci_check(samples)
        series = stats.MeasurementSeries.validate(samples)
        assert (series.verdict, series.mean, series.half_width_text) == (
            verdict, mean, f"{half_width:.6g}")


def kill_frozen(frozen):
    fields = {"__slots__": (), "_fields": ("a", "b")}
    value_class = type("Value", (frozen.Frozen,), fields)
    other_class = type("Other", (frozen.Frozen,), fields)
    value, twin = tuple.__new__(value_class, (1, 2)), tuple.__new__(value_class, (1, 2))
    assert (value.a, value.b) == (1, 2)
    assert value == twin and not value != twin and hash(value) == hash(twin)
    for items in ((1, 2), tuple.__new__(other_class, (1, 2))):
        assert not value == items and value != items
        assert not items == value and items != value
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        try:
            compare(value, twin)
        except TypeError:
            continue
        raise AssertionError(f"{compare.__name__} did not raise")


KILL_SETS = {"curves": kill_curves, "stats": kill_stats, "frozen": kill_frozen}

# (id, module, old text, new text, the commit that first ran the mutant)
MUTANTS = [
    ("swapped-interior-weights", "curves",
     "    w1, w2, v1, v2 = 2 * h1 + h0, h1 + 2 * h0, 2 * h2 + h1, h2 + 2 * h1\n",
     "    w1, w2, v1, v2 = h1 + 2 * h0, 2 * h1 + h0, 2 * h2 + h1, h2 + 2 * h1\n", "ab414cb"),
    ("swapped-end-secants", "curves",
     "            _end_slope(num0, h0, den0, m0, m1),\n",
     "            _end_slope(num0, h0, den0, m1, m0),\n", "ab414cb"),
    ("terms-last-to-first", "curves",
     "    for a, b, w, y0, y1, d0, d1, z0, z1, e0, e1 in side:\n"
     "        if a >= hi:\n"
     "            break\n",
     "    for a, b, w, y0, y1, d0, d1, z0, z1, e0, e1 in side[::-1]:\n"
     "        if a >= hi:\n"
     "            continue\n", "ab414cb"),
    ("energy-total-from-rate-area", "curves",
     "            total_b += w * area_b\n",
     "            total_b += w * area_a\n", "ab414cb"),
    ("left-cut-from-first-node", "curves",
     "                l0, l1, l2, l3 = _weights((lo - a) / w)\n",
     "                l0, l1, l2, l3 = _weights((lo - side[0][0]) / w)\n", "ab414cb"),
    ("nonzero-slope-on-sign-change", "curves",
     "            1.0 / ((w1 / m0 + w2 / m1) / t1) if m0 > 0 < m1 or m0 < 0 > m1 else 0.0,\n",
     "            1.0 / ((w1 / m0 + w2 / m1) / t1) if m0 > 0 < m1 or m0 < 0 > m1 else m0,\n",
     "ab414cb"),
    ("log10-costs-swapped", "curves",
     "        logs = [tuple(map(math.log10, cost)) for cost in costs]\n",
     "        logs = [tuple(map(math.log10, cost)) for cost in costs[::-1]]\n", "ab414cb"),
    ("overlap-upper-end", "curves",
     "    hi = min(anchor[-1][1], test[-1][1])\n",
     "    hi = min(anchor[-1][0], test[-1][1])\n", "210143d"),
    ("end-slope-secants", "curves",
     "        slopes.append(_end_slope(numn, hn, denn, m[-1], m[-2]))\n",
     "        slopes.append(_end_slope(numn, hn, denn, m[-2], m[-1]))\n", "210143d"),
    ("stored-slope", "curves",
     " w * sa[k], w * sa[k + 1],\n",
     " w * sa[k], w * sa[k],\n", "210143d"),
    ("missing-width", "curves",
     "            total_a += w * area_a\n",
     "            total_a += area_a\n", "210143d"),
    ("four-point-condition", "curves",
     "    if not (h0 > 0 and h1 > 0 and h2 > 0):\n",
     "    if not (h0 > 0 and h1 > 0):\n", "210143d"),
    ("falling-order-unreversed", "curves",
     "        i, j, k, n = 3, 2, 1, 0\n",
     "        i, j, k, n = 0, 1, 2, 3\n", "9a28d1f"),
    ("end-slope-shortcut-skips-clamp", "curves",
     "    if d > 0 < m0 and m1 > 0 or d < 0 > m0 and m1 < 0:\n",
     "    if d > 0 < m0 or d < 0 > m0:\n", "9a28d1f"),
    ("anchor-axis-from-vmaf", "curves",
     '_intervals(columns[_POSITION[axis.value]], costs, "anchor")',
     '_intervals(columns[_POSITION["vmaf"]], costs, "anchor")', "df0cf22"),
    ("test-axis-swap", "curves",
     'anchor.axes[QualityAxis.PSNR], columns[_POSITION["psnr"]], costs, logs)',
     'anchor.axes[QualityAxis.PSNR], columns[_POSITION["vmaf"]], costs, logs)', "df0cf22"),
    ("filter-margins-and-rho-zero", "stats",
     "_RHO_SCALE = 5 * _U * _U\n"
     "# The relative margins of the stdev's lower and upper bounds.\n"
     "_LOW, _HIGH = 1 - 16 * _U, 1 + 16 * _U\n",
     "_RHO_SCALE = 0.0\n"
     "# The relative margins of the stdev's lower and upper bounds.\n"
     "_LOW, _HIGH = 1.0, 1.0\n", "3266dab"),
    ("not-implemented-for-tuples", "frozen",
     "        return False if isinstance(other, tuple) else NotImplemented\n",
     "        return NotImplemented\n", "93d7b73"),
    ("no-ne", "frozen",
     "    def __ne__(self, other):\n"
     "        equal = self.__eq__(other)\n"
     "        return equal if equal is NotImplemented else not equal\n",
     "", "93d7b73"),
    ("gt-left-to-tuple", "frozen",
     "    __le__ = __gt__ = __ge__ = __lt__\n",
     "    __le__ = __ge__ = __lt__\n", "93d7b73"),
    ("equal-across-classes", "frozen",
     "        if other.__class__ is self.__class__:\n",
     "        if isinstance(other, Frozen):\n", "93d7b73"),
]


@pytest.mark.parametrize("module", sorted(KILL_SETS))
def test_the_source_passes_its_kill_set(module):
    KILL_SETS[module](load(module, source(module)))


@pytest.mark.parametrize("module, old, new, since",
                         [pytest.param(*row[1:], id=row[0]) for row in MUTANTS])
def test_the_mutant_fails_its_kill_set(module, old, new, since):
    text = source(module)
    assert text.count(old) == 1
    mutant = load(module, text.replace(old, new))
    with pytest.raises(Exception):
        KILL_SETS[module](mutant)
