"""Value semantics of the immutable value classes: assignment, equality, hashing, checks."""

import math

import pytest

from ctpdse.curves import BdReport, CurveDataError, QualityAxis, RdeCurve, RdePoint
from ctpdse.engine import DseConfig, FlipPolicy, Objective
from ctpdse.errors import ConfigError
from ctpdse.evaluators import (
    EvaluationRequest,
    ExternalCommandEvaluator,
    SequenceBaseline,
    SyntheticModelParams,
)
from ctpdse.frozen import Frozen
from ctpdse.pareto import ProfilePoint, Selection, SelectionCriteria
from ctpdse.profiles import Ctp, ToolDescriptor, default_ctp, default_registry, flip_tool
from ctpdse.stats import MeasurementSeries, Verdict

REGISTRY = default_registry()
ANCHOR = default_ctp(REGISTRY)
QPS = (22, 27, 32, 37)
POINTS = tuple(RdePoint(qp, 8000.0 / 2 ** i, 42.0 - 2 * i, 90.0 - 8 * i, 100.0 / 1.3 ** i)
               for i, qp in enumerate(QPS))
REPORT = BdReport(1.0, 2.0, -3.0, -4.0)
BASELINE = SequenceBaseline((22, 27), (2.0, 1.0), (40.0, 38.0), (90.0, 80.0), (2.0, 1.0))
PROFILE_POINT = ProfilePoint(1.5, -2.5, "p")

# Each of the 13 value classes, with fields that pass its checks.
VALUES = [pytest.param(cls, fields, id=cls.__name__) for cls, fields in [
    (RdePoint, (22, 8000.0, 42.0, 90.0, 100.0)),
    (RdeCurve, ("s01", POINTS)),
    (BdReport, (1.0, 2.0, -3.0, -4.0, ("bdr_psnr (s01): thin",))),
    (DseConfig, (Objective.ENERGY, FlipPolicy.ONE, ANCHOR, ("s01",), QPS, QualityAxis.PSNR, 3)),
    (EvaluationRequest, (ANCHOR, ("s01",), QPS)),
    (SequenceBaseline, ((22, 27), (2.0, 1.0), (40.0, 38.0), (90.0, 80.0), (2.0, 1.0))),
    (SyntheticModelParams, ({"s01": BASELINE}, (1.0,), (1.0,), (0.0,), (0.0,), ())),
    (ProfilePoint, (1.5, -2.5, "p")),
    (SelectionCriteria, (4.0,)),
    (Selection, ((PROFILE_POINT,), PROFILE_POINT, PROFILE_POINT, ())),
    (ToolDescriptor, ("T00", "Other", True)),
    (Ctp, (REGISTRY, 0x5)),
    (MeasurementSeries, ((1.0, 1.0), Verdict.INSUFFICIENT, 1.0, "inf")),
]]


@pytest.mark.parametrize("cls, fields", VALUES)
def test_a_field_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(*fields)
    for field in cls._fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.note = "no such field"


def _hash(value):
    """``hash(value)``, or TypeError for a value whose fields cannot be hashed (a dict)."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields", VALUES)
def test_a_value_is_its_class_and_its_fields(cls, fields):
    value, twin = cls(*fields), cls(*fields)
    assert tuple(getattr(value, name) for name in cls._fields) == fields
    assert all(getattr(value, name) is field for name, field in zip(cls._fields, fields))
    assert value == twin and not value != twin and value is not twin
    assert _hash(value) == _hash(twin)
    # Not a plain tuple, nor another class's value, with the same items; either way round.
    other = tuple.__new__(type("Other", (Frozen,), {"__slots__": (), "_fields": cls._fields}),
                          fields)
    for items in (fields, other):
        assert not value == items and value != items
        assert not items == value and items != value
    assert value not in [fields, other]
    for left, right in ((value, twin), (value, fields), (fields, value)):
        with pytest.raises(TypeError):
            left < right
    assert not hasattr(value, "__dict__")


def test_reports_with_different_warnings_differ():
    warnings = ("bdr_psnr (s01): quality overlap is only 5.0% of the anchor span",)
    warned = BdReport(1.0, 2.0, -3.0, -4.0, warnings=warnings)
    assert warned != REPORT and not warned == REPORT
    assert warned == BdReport(1.0, 2.0, -3.0, -4.0, warnings)
    assert len({warned, REPORT}) == 2
    assert BdReport(1.0, 2.0, -3.0, -4.5) != REPORT


def test_profiles_with_one_mask_are_one_dict_key():
    a, b = Ctp(REGISTRY, 0x5), Ctp(default_registry(), 0x5)
    assert a is not b and a.registry is not b.registry
    assert a == b
    assert hash(a) == hash(b)
    reports = {a: REPORT}
    reports[b] = BdReport(0.0, 0.0, 0.0, 0.0)
    assert list(reports) == [a]
    assert flip_tool(flip_tool(a, 3), 3) in reports
    assert Ctp(REGISTRY, 0x4) not in reports


def _point(bitrate=1000.0, psnr=40.0, vmaf=90.0, energy=50.0):
    return RdePoint(22, bitrate, psnr, vmaf, energy)


def _params(**changes):
    fields = dict(baselines={}, rate_mult=(1.0, 1.0), energy_mult=(1.0, 1.0),
                  dq_psnr=(0.0, 0.0), dq_vmaf=(0.0, 0.0))
    return SyntheticModelParams(**{**fields, **changes})


# Each value fails every check named in its id; the message is that of the first.
FIRST_FAILED_CHECK = [
    pytest.param(lambda: _point(bitrate=0.0, psnr=math.nan, vmaf=101.0, energy=0.0),
                 CurveDataError, "qp 22: bitrate must be finite and > 0, got 0.0",
                 id="point-bitrate-energy-psnr-vmaf"),
    pytest.param(lambda: _point(psnr=math.nan, vmaf=101.0, energy=math.inf),
                 CurveDataError, "qp 22: energy must be finite and > 0, got inf",
                 id="point-energy-psnr-vmaf"),
    pytest.param(lambda: _point(psnr=math.inf, vmaf=-1.0),
                 CurveDataError, "qp 22: psnr must be finite, got inf", id="point-psnr-vmaf"),
    pytest.param(lambda: RdeCurve("s01", (POINTS[1], POINTS[0], POINTS[2])),
                 CurveDataError, "curve (s01) has 3 points; BD interpolation needs at least 4",
                 id="curve-count-order"),
    pytest.param(lambda: RdeCurve("s01", (POINTS[1], POINTS[0], *POINTS[2:])),
                 CurveDataError, "curve (s01): qps not strictly increasing at qp 22",
                 id="curve-qp-bitrate-energy"),
    pytest.param(lambda: RdeCurve("s01", (POINTS[0], RdePoint(27, 9000.0, 40.0, 80.0, 200.0),
                                          *POINTS[2:])),
                 CurveDataError, "curve (s01): bitrate not strictly decreasing with qp at qp 27",
                 id="curve-bitrate-energy"),
    pytest.param(lambda: BdReport(math.nan, 0.0, math.inf, 0.0),
                 CurveDataError, "BD value bdr_psnr is not finite", id="report-psnr-bdde"),
    pytest.param(lambda: BdReport(0.0, 0.0, 0.0, -math.inf),
                 CurveDataError, "BD value bdde_vmaf is not finite", id="report-bdde-vmaf"),
    pytest.param(lambda: Ctp(REGISTRY, 1 << 30),
                 ConfigError, "profile mask 0x40000000 is out of range for a 30-tool registry",
                 id="ctp-mask"),
    pytest.param(lambda: DseConfig(Objective.ENERGY, FlipPolicy.ONE, ANCHOR, (), ()),
                 ConfigError, "evaluation request needs at least one sequence",
                 id="config-sequences-qps"),
    pytest.param(lambda: DseConfig(Objective.ENERGY, FlipPolicy.ONE, ANCHOR, (), (),
                                   max_iterations=0),
                 ConfigError, "max_iterations must be >= 1, got 0", id="config-iterations"),
    pytest.param(lambda: DseConfig(Objective.ENERGY, FlipPolicy.ONE, ANCHOR, ("s01",), (22,)),
                 ConfigError, "BD needs at least 4 qps, got 1", id="config-request"),
    pytest.param(lambda: ProfilePoint(math.nan, math.inf, label="7"),
                 ConfigError, "profile point '7' has non-finite coordinates", id="profile-point"),
    pytest.param(lambda: SelectionCriteria(math.inf),
                 ConfigError, "lbe_bdr_threshold must be finite and > 0, got inf",
                 id="selection-criteria"),
    pytest.param(lambda: SequenceBaseline((27, 22), (1.0,), (40.0,), (90.0,), (-1.0,)),
                 ConfigError, "baseline tables must all cover the same qps",
                 id="baseline-length-order-sign"),
    pytest.param(lambda: SequenceBaseline((27, 22), (1.0, 2.0), (40.0,) * 2, (90.0,) * 2,
                                          (-1.0, 1.0)),
                 ConfigError, "baseline qps must be strictly increasing, got (27, 22)",
                 id="baseline-order-sign"),
    pytest.param(lambda: _params(energy_mult=(-1.0,), interactions=((1, 0, 1.0),)),
                 ConfigError, "per-tool factor tables must have equal length",
                 id="params-length-sign-pair"),
    pytest.param(lambda: _params(energy_mult=(1.0, 0.0), interactions=((1, 0, 1.0),)),
                 ConfigError, "rate and energy multipliers must be > 0", id="params-sign-pair"),
    pytest.param(lambda: _params(interactions=((1, 0, -1.0),)),
                 ConfigError, "interaction (1, 0) is not a valid ordered tool pair",
                 id="params-pair-mult"),
    pytest.param(lambda: ExternalCommandEvaluator("enc '", max_parallel=0),
                 ConfigError, "max_parallel must be >= 1, got 0", id="external-parallel-split"),
]


@pytest.mark.parametrize("build, error, message", FIRST_FAILED_CHECK)
def test_the_first_failed_check_names_the_error(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
