"""Shared fixtures: small registries, hand-checkable synthetic models."""

from __future__ import annotations

import pytest

from ctpdse.evaluators import SequenceBaseline, SyntheticModelParams
from ctpdse.pareto import ProfilePoint
from ctpdse.profiles import ToolDescriptor, ToolRegistry

BASE_QPS = (22, 27, 32, 37)


def make_registry(n: int) -> ToolRegistry:
    return ToolRegistry(ToolDescriptor(f"T{i:02d}", "Other", True) for i in range(n))


def make_baseline(qps=BASE_QPS) -> SequenceBaseline:
    tables = {
        "rate": (8000.0, 4500.0, 2500.0, 1400.0),
        "psnr": (42.5, 40.1, 37.4, 34.6),
        "vmaf": (92.0, 86.5, 78.0, 66.0),
        "energy": (120.0, 90.0, 65.0, 45.0),
    }
    k = len(qps)
    return SequenceBaseline(
        tuple(qps),
        tables["rate"][:k],
        tables["psnr"][:k],
        tables["vmaf"][:k],
        tables["energy"][:k],
    )


def make_params(
    n: int,
    sequences=("s01",),
    rate_mult=None,
    energy_mult=None,
    dq_psnr=None,
    dq_vmaf=None,
    interactions=(),
) -> SyntheticModelParams:
    ones = (1.0,) * n
    zeros = (0.0,) * n
    return SyntheticModelParams(
        baselines={s: make_baseline() for s in sequences},
        rate_mult=tuple(rate_mult) if rate_mult else ones,
        energy_mult=tuple(energy_mult) if energy_mult else ones,
        dq_psnr=tuple(dq_psnr) if dq_psnr else zeros,
        dq_vmaf=tuple(dq_vmaf) if dq_vmaf else zeros,
        interactions=tuple(interactions),
    )


# Validation fixture: (BDR-VMAF, BDDE-VMAF) coordinates of named profiles
# versus a common slower-preset anchor, anchor itself at the origin.
BENCHMARK_POINTS = (
    ("ref", 0.0, 0.0),
    ("slow", 5.31, -1.31),
    ("medium", 10.89, -0.97),
    ("hevc", 77.20, -41.68),
    ("prior-ee", 30.17, -37.66),
    ("prior-ebe", 15.37, -28.28),
    ("e1-ee", 27.00, -45.31),
    ("ea-ee", 28.62, -44.84),
    ("ca-ee", 22.19, -43.77),
    ("c1-ee", 19.66, -41.34),
    ("ea-ebe", 10.30, -40.37),
    ("ca-ebe", 9.42, -38.51),
    ("e1-ebe", 9.28, -37.65),
    ("c1-ebe", 7.33, -30.19),
    ("lbe4", 4.88, -25.54),
    ("lbe3", 2.54, -17.55),
    ("lbe2", 1.45, -11.41),
    ("lbe1", -0.25, -4.86),
)

# The strict non-dominated subset of BENCHMARK_POINTS, ascending bdr.
BENCHMARK_FRONT_LABELS = (
    "lbe1", "lbe2", "lbe3", "lbe4",
    "c1-ebe", "e1-ebe", "ca-ebe", "ea-ebe",
    "c1-ee", "ca-ee", "e1-ee",
)


@pytest.fixture
def benchmark_points() -> list[ProfilePoint]:
    return [ProfilePoint(bdr=b, bdde=d, label=l) for l, b, d in BENCHMARK_POINTS]


@pytest.fixture
def registry8() -> ToolRegistry:
    return make_registry(8)


@pytest.fixture
def registry3() -> ToolRegistry:
    return make_registry(3)
