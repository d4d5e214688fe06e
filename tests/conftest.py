"""Shared fixtures: small registries, hand-checkable synthetic models and
measurement tables.

Test modules that run without numpy, scipy or hypothesis import this one,
so it imports none of them.
"""

from __future__ import annotations

import pytest

from ctpdse.evaluators import CSV_HEADER, SequenceBaseline, SyntheticModelParams
from ctpdse.pareto import ProfilePoint
from ctpdse.profiles import ToolDescriptor, ToolRegistry

BASE_QPS = (22, 27, 32, 37)
HEADER_LINE = ",".join(CSV_HEADER)
REGISTRY_3 = "T00,Other,1\nT01,Other,1\nT02,Other,1\n"


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


def write_table(path, rows):
    """A measurement table of ``rows`` under the header, at ``path``; returns its name."""
    path.write_text("\n".join([HEADER_LINE, *rows]) + "\n")
    return str(path)


def anchor_rows(mask, sequence="s01"):
    """The ``make_baseline`` curve as table rows of profile ``mask``, without energy samples."""
    b = make_baseline()
    return [f"{mask},{sequence},{qp},{r},{p},{v},{e},"
            for qp, r, p, v, e in zip(b.qps, b.rate, b.psnr, b.vmaf, b.energy)]


def halved_energy_rows(mask, sequence="s01"):
    rows = []
    for row in anchor_rows("PLACEHOLDER", sequence):
        fields = row.split(",")
        fields[0] = mask
        fields[6] = str(float(fields[6]) / 2)
        rows.append(",".join(fields))
    return rows


def with_readings(rows):
    """``rows`` with three energy readings around each row's energy, so ingest gates every row."""
    gated = []
    for row in rows:
        energy = float(row.split(",")[6])
        gated.append(row.rstrip(",") + f",{energy - 1};{energy};{energy + 1}")
    return gated


def gated_table(tmp_path):
    """Registry with three tools, and a table of anchor 7 and its single flips, every row gated."""
    reg = tmp_path / "r.reg"
    reg.write_text(REGISTRY_3)
    rows = anchor_rows("7")
    for mask in ("6", "5", "3"):
        rows += halved_energy_rows(mask)
    return str(reg), write_table(tmp_path / "m.csv", with_readings(rows))


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
