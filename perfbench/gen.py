"""Seeded input generators: registry, model table, measurement CSV, points CSV.

Every generator is a pure function of its seed, so equal seeds give
byte-identical inputs. Only the model table uses the program's own code:
it must be the model that ``ctp dse --backend synthetic --seed N`` draws.
"""

from __future__ import annotations

import json
import math
import random

SEQUENCES = ("s01", "s02")
QPS = (22, 27, 32, 37)
TOOLS = 30
ANCHOR_MASK = f"{(1 << TOOLS) - 1:08X}"

TABLE_SEQUENCES = tuple(f"seq{i:02d}" for i in range(8))
TABLE_TESTS = 200
# Share of measurement rows whose repeated readings are too noisy for the
# confidence-interval gate; ingest reports them and keeps going.
TABLE_NOISY_SHARE = 0.05
PASS_OFFSETS = (-0.008, -0.004, 0.0, 0.004, 0.008)
NOISY_OFFSETS = (-0.04, -0.02, 0.0, 0.02, 0.04)

POINTS = 6000
# Share of points placed exactly on the convex trade-off curve; they and a
# few near-curve points form the front.
POINTS_ON_CURVE = 0.06


def write_registry(path) -> None:
    """The shipped 30-tool registry as a registry file."""
    from ctpdse.profiles import default_registry, registry_text

    path.write_text(registry_text(default_registry()), encoding="utf-8")


def model_document(seed: int) -> dict:
    """The synthetic model `ctp dse --backend synthetic --seed` uses, as JSON data."""
    from ctpdse.evaluators import SyntheticModelParams
    from ctpdse.profiles import default_registry

    params = SyntheticModelParams.random(default_registry(), SEQUENCES, QPS, seed=seed)
    return {
        "baselines": {
            name: {
                "qps": list(b.qps),
                "rate": list(b.rate),
                "psnr": list(b.psnr),
                "vmaf": list(b.vmaf),
                "energy": list(b.energy),
            }
            for name, b in params.baselines.items()
        },
        "rate_mult": list(params.rate_mult),
        "energy_mult": list(params.energy_mult),
        "dq_psnr": list(params.dq_psnr),
        "dq_vmaf": list(params.dq_vmaf),
        "interactions": [list(t) for t in params.interactions],
    }


def write_model(path, seed: int) -> dict:
    model = model_document(seed)
    path.write_text(json.dumps(model, sort_keys=True) + "\n", encoding="utf-8")
    return model


def table_masks(seed: int) -> list[str]:
    """Distinct non-anchor test profiles for the measurement table."""
    rng = random.Random(f"masks-{seed}")
    masks: list[str] = []
    seen = {ANCHOR_MASK}
    while len(masks) < TABLE_TESTS:
        mask = f"{rng.getrandbits(TOOLS):08X}"
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


def _anchor_curve(rng: random.Random) -> list[tuple[float, float, float, float]]:
    rate, psnr, vmaf, energy = (
        rng.uniform(4000.0, 16000.0), rng.uniform(41.0, 44.0),
        rng.uniform(82.0, 92.0), rng.uniform(60.0, 160.0),
    )
    points = []
    for _ in QPS:
        points.append((rate, psnr, vmaf, energy))
        rate /= rng.uniform(1.6, 2.1)
        psnr -= rng.uniform(1.8, 3.0)
        vmaf -= rng.uniform(6.0, 10.0)
        energy /= rng.uniform(1.25, 1.5)
    return points


def measurement_rows(seed: int) -> list[tuple[str, str, int, float, float, float, tuple[float, ...]]]:
    """(mask, sequence, qp, bitrate, psnr, vmaf, energy samples) per table row."""
    rng = random.Random(f"table-{seed}")
    anchors = {s: _anchor_curve(rng) for s in TABLE_SEQUENCES}
    rows = []
    for mask in [ANCHOR_MASK] + table_masks(seed):
        for sequence in TABLE_SEQUENCES:
            if mask == ANCHOR_MASK:
                factors = (1.0, 0.0, 0.0, 1.0)
            else:
                factors = (
                    rng.uniform(0.97, 1.12), rng.uniform(-0.25, 0.1),
                    rng.uniform(-0.8, 0.3), rng.uniform(0.75, 1.02),
                )
            for qp, (rate, psnr, vmaf, energy) in zip(QPS, anchors[sequence]):
                offsets = NOISY_OFFSETS if rng.random() < TABLE_NOISY_SHARE else PASS_OFFSETS
                e = energy * factors[3]
                rows.append((
                    mask, sequence, qp, rate * factors[0], psnr + factors[1],
                    vmaf + factors[2], tuple(e * (1.0 + d) for d in offsets),
                ))
    return rows


def write_measurements(path, seed: int) -> list[str]:
    """Write the measurement CSV; returns the test masks in table order."""
    lines = ["ctp_id,sequence,qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples"]
    for mask, sequence, qp, rate, psnr, vmaf, samples in measurement_rows(seed):
        mean = sum(samples) / len(samples)
        lines.append(
            f"{mask},{sequence},{qp},{rate!r},{psnr!r},{vmaf!r},{mean!r},"
            + ";".join(repr(s) for s in samples)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return table_masks(seed)


def pareto_points(seed: int) -> list[tuple[float, float]]:
    """(bdr, bdde) points scattered above a convex decreasing trade-off curve."""
    rng = random.Random(f"points-{seed}")
    scale, width = rng.uniform(40.0, 50.0), rng.uniform(7.0, 10.0)
    points = []
    for _ in range(POINTS):
        bdr = rng.uniform(-2.0, 25.0)
        bdde = scale * math.exp(-bdr / width) - scale
        if rng.random() >= POINTS_ON_CURVE:
            bdde += 0.05 + rng.expovariate(1 / 3.0)
        points.append((bdr, bdde))
    return points


def write_points(path, seed: int) -> list[tuple[float, float]]:
    points = pareto_points(seed)
    lines = ["bdr,bdde"] + [f"{b!r},{e!r}" for b, e in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return points
