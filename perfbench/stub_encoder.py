"""Stand-in encode-and-measure command for the external `ctp dse` backend.

Usage: python3 -I -S stub_encoder.py MODEL_JSON SEQUENCE QP CTP_MASK OUT_CSV

MODEL_JSON holds the per-tool factors and per-sequence baselines of a
seeded synthetic model (see ``gen.write_model``). The stub evaluates that
model for one (profile, sequence, qp) with the same arithmetic as the
program's synthetic backend, burns a fixed amount of CPU like a real
encoder would, and writes a one-row result CSV whose energy comes as
repeated readings that pass the default confidence-interval gate.

When the environment names a job log (``PERFBENCH_STUB_LOG``), one
``mask,sequence,qp`` line is appended per job, so the benchmark can see
whether any job ran twice.
"""

import json
import math
import os
import sys

# Loop iterations of fixed CPU work per job, a few milliseconds in CPython.
BURN_ITERATIONS = 20_000

# Relative offsets of the five energy readings: their Student-t 99%
# half-width is 1.3% of the mean, inside the default 2% gate.
SAMPLE_OFFSETS = (-0.008, -0.004, 0.0, 0.004, 0.008)


def model_point(model, mask, sequence, qp):
    """(bitrate, psnr, vmaf, energy) of profile ``mask`` at one operating point."""
    n = len(model["rate_mult"])
    value = int(mask, 16)
    bits = [bool(value >> j & 1) for j in range(n)]
    rate_factor = math.prod(m for m, b in zip(model["rate_mult"], bits) if b)
    energy_factor = math.prod(m for m, b in zip(model["energy_mult"], bits) if b)
    for j, k, mult in model["interactions"]:
        if bits[j] and bits[k]:
            energy_factor *= mult
    d_psnr = sum(d for d, b in zip(model["dq_psnr"], bits) if b)
    d_vmaf = sum(d for d, b in zip(model["dq_vmaf"], bits) if b)
    base = model["baselines"][sequence]
    i = base["qps"].index(qp)
    return (
        base["rate"][i] * rate_factor,
        base["psnr"][i] + d_psnr,
        min(100.0, max(0.0, base["vmaf"][i] + d_vmaf)),
        base["energy"][i] * energy_factor,
    )


def burn():
    acc = 0
    for i in range(BURN_ITERATIONS):
        acc ^= i * i
    return acc


def main(argv):
    if len(argv) != 5:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    model_path, sequence, qp_text, mask, out = argv
    qp = int(qp_text)
    with open(model_path, encoding="utf-8") as handle:
        model = json.load(handle)
    rate, psnr, vmaf, energy = model_point(model, mask, sequence, qp)
    samples = [energy * (1.0 + d) for d in SAMPLE_OFFSETS]
    burn()
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples\n")
        handle.write(
            f"{qp},{rate!r},{psnr!r},{vmaf!r},{sum(samples) / len(samples)!r},"
            + ";".join(repr(s) for s in samples)
            + "\n"
        )
    log = os.environ.get("PERFBENCH_STUB_LOG")
    if log:
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, f"{mask},{sequence},{qp}\n".encode())
        finally:
            os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
