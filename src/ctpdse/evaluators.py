"""Evaluation backends mapping a profile to per-sequence RD-energy curves.

Three interchangeable backends sit behind one ``evaluate`` port:

* ``CachedTableEvaluator`` replays rows ingested from a measurement CSV
  and never fabricates a point.
* ``SyntheticModelEvaluator`` is a deterministic desk-scale stand-in for
  real encodes: multiplicative per-tool cost factors, additive quality
  deltas, optional pairwise energy interactions.
* ``ExternalCommandEvaluator`` orchestrates a user-supplied encode or
  measurement command per (sequence, qp) and parses its result file. It
  launches and parses only; it implements no codec or meter.

Callers invoke ``evaluate`` from one thread, one profile at a time. The
cached and synthetic backends compute in that thread. Only the external
backend runs work concurrently: its ``max_parallel`` caps how many child
jobs of one profile run at once, which caps them for the whole run. It
fails fast: once a child job fails, no further job is launched, the jobs
already running finish, and ``evaluate`` raises the error of the failed
job that comes first in (sequence, qp) order.

A cached-table row and an external job's result row become a point through
``parse_measurement`` alone, so both obey the same checks; each caller
only decides what a CI verdict means.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .csvrows import data_rows, parse_float
from .curves import CurveDataError, RdeCurve, RdePoint
from .errors import ConfigError, EvaluationError, MeasurementMissError
from .profiles import Ctp, ToolRegistry, serialize_ctp
from .stats import MeasurementSeries, Verdict

RESULT_HEADER = ("qp", "bitrate_kbps", "psnr_db", "vmaf", "energy_j", "energy_samples")
CSV_HEADER = ("ctp_id", "sequence") + RESULT_HEADER

# energy_j must equal the mean of energy_samples this tightly.
ENERGY_MEAN_REL_TOL = 1e-6


@dataclass(frozen=True)
class EvaluationRequest:
    """One profile to evaluate over a set of sequences and operating points."""

    ctp: Ctp
    sequences: tuple[str, ...]
    qps: tuple[int, ...]

    def __post_init__(self):
        if not self.sequences:
            raise ConfigError("evaluation request needs at least one sequence")
        if not all(self.sequences):
            raise ConfigError(f"sequence names must not be empty, got {self.sequences}")
        if not self.qps:
            raise ConfigError("evaluation request needs at least one qp")
        if any(b <= a for a, b in zip(self.qps, self.qps[1:])):
            raise ConfigError(f"qps must be strictly increasing, got {self.qps}")


class Evaluator(Protocol):
    """Evaluation port used by the search engine."""

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]: ...


def parse_measurement(fields: Sequence[str]) -> tuple[RdePoint, MeasurementSeries | None]:
    """Turn the ``RESULT_HEADER`` fields of one row into a point, or raise ConfigError.

    Energy samples, when present, go through the CI gate at its default
    confidence and bound and must have ``energy_j`` as their mean; the
    caller acts on the returned verdict.
    """
    qp_text, rate, psnr, vmaf, energy, samples_text = fields
    try:
        qp = int(qp_text)
    except ValueError:
        raise ConfigError(f"qp is not an integer: {qp_text!r}") from None
    energy_j = parse_float(energy, "energy_j")
    samples = tuple(parse_float(s, "energy sample") for s in samples_text.split(";") if s)
    series = None
    if samples:
        series = MeasurementSeries.validate(samples)
        if not math.isclose(series.mean, energy_j, rel_tol=ENERGY_MEAN_REL_TOL):
            raise ConfigError(
                f"energy_j {energy_j} does not match the sample mean {series.mean}"
            )
    point = RdePoint(
        qp=qp,
        bitrate=parse_float(rate, "bitrate_kbps"),
        psnr=parse_float(psnr, "psnr_db"),
        vmaf=parse_float(vmaf, "vmaf"),
        energy=energy_j,
    )
    return point, series


class MeasurementTable:
    """In-memory measurement rows keyed by (ctp_id, sequence, qp)."""

    def __init__(self):
        self.rows: dict[tuple[str, str, int], RdePoint] = {}
        self.diagnostics: list[str] = []

    def add(self, key: tuple[str, str, int], point: RdePoint,
            series: MeasurementSeries | None = None) -> None:
        if key in self.rows:
            raise ConfigError(f"duplicate measurement key {key}")
        self.rows[key] = point
        if series is not None:
            self.diagnostics.append(f"{key[0]}/{key[1]}/qp{key[2]}: {series.describe()}")

    def curve(self, ctp_id: str, sequence: str, qps: Sequence[int]) -> RdeCurve:
        missing = [(ctp_id, sequence, qp) for qp in qps if (ctp_id, sequence, qp) not in self.rows]
        if missing:
            raise MeasurementMissError(missing)
        points = tuple(self.rows[(ctp_id, sequence, qp)] for qp in qps)
        return RdeCurve(sequence, ctp_id, points)

    def sequences_for(self, ctp_id: str) -> tuple[str, ...]:
        return tuple(sorted({s for c, s, _ in self.rows if c == ctp_id}))

    def qps_for(self, ctp_id: str, sequence: str) -> tuple[int, ...]:
        return tuple(sorted({q for c, s, q in self.rows if c == ctp_id and s == sequence}))


def ingest_measurements(path) -> MeasurementTable:
    """Load a measurement CSV, validating schema, masks, ranges and sample means.

    Each ``ctp_id`` must be an upper-case hex mask, the form profiles are
    looked up by. Rows carrying repeated energy readings are run through
    the CI gate and the verdicts land in ``table.diagnostics``; a failing
    verdict is a diagnostic here, not an error, since cached tables hold
    already-vetted measurements.
    """
    table = MeasurementTable()
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, (ctp_id, sequence, *fields) in data_rows(handle, CSV_HEADER, path):
            try:
                if not re.fullmatch("[0-9A-F]+", ctp_id):
                    raise ConfigError(f"ctp_id {ctp_id!r} is not an upper-case hex mask")
                if not sequence:
                    raise ConfigError("sequence is empty")
                point, series = parse_measurement(fields)
                table.add((ctp_id, sequence, point.qp), point, series)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return table


@dataclass
class CachedTableEvaluator:
    """Replays ingested measurements; a missing row is a hard miss."""

    table: MeasurementTable

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        mask = serialize_ctp(request.ctp)
        return [self.table.curve(mask, seq, request.qps) for seq in request.sequences]


@dataclass(frozen=True)
class SequenceBaseline:
    """Per-qp baseline tables of one synthetic sequence."""

    qps: tuple[int, ...]
    rate: tuple[float, ...]
    psnr: tuple[float, ...]
    vmaf: tuple[float, ...]
    energy: tuple[float, ...]

    def __post_init__(self):
        n = len(self.qps)
        if any(len(t) != n for t in (self.rate, self.psnr, self.vmaf, self.energy)):
            raise ConfigError("baseline tables must all cover the same qps")
        if any(b <= a for a, b in zip(self.qps, self.qps[1:])):
            raise ConfigError(f"baseline qps must be strictly increasing, got {self.qps}")
        if any(v <= 0 for v in self.rate) or any(v <= 0 for v in self.energy):
            raise ConfigError("baseline rate and energy values must be > 0")

    def index(self, qp: int) -> int:
        try:
            return self.qps.index(qp)
        except ValueError:
            raise ConfigError(f"no baseline entry for qp {qp} (have {self.qps})") from None


# Tool pairs whose joint energy factor SyntheticModelParams.random draws.
INTERACTION_PAIRS = 2


@dataclass(frozen=True)
class SyntheticModelParams:
    """Deterministic cost model: multiplicative costs, additive quality.

    rate(qp)   = base_rate(qp)   * prod(rate_mult[j]   for enabled j)
    energy(qp) = base_energy(qp) * prod(energy_mult[j] for enabled j)
                                 * prod(i for (j, k, i) with j and k enabled)
    psnr(qp)   = base_psnr(qp)   + sum(dq_psnr[j] for enabled j)
    vmaf(qp)   = clamp(base_vmaf(qp) + sum(dq_vmaf[j] for enabled j), 0, 100)

    Per-profile factors are constant across qp, so admissible baselines
    stay monotone for every tool subset. Interactions make simultaneous
    flips non-additive, which is what separates greedy from exhaustive
    search on crafted instances.
    """

    baselines: Mapping[str, SequenceBaseline]
    rate_mult: tuple[float, ...]
    energy_mult: tuple[float, ...]
    dq_psnr: tuple[float, ...]
    dq_vmaf: tuple[float, ...]
    interactions: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        n = len(self.rate_mult)
        if any(len(t) != n for t in (self.energy_mult, self.dq_psnr, self.dq_vmaf)):
            raise ConfigError("per-tool factor tables must have equal length")
        if any(m <= 0 for m in self.rate_mult) or any(m <= 0 for m in self.energy_mult):
            raise ConfigError("rate and energy multipliers must be > 0")
        for j, k, mult in self.interactions:
            if not (0 <= j < k < n):
                raise ConfigError(f"interaction ({j}, {k}) is not a valid ordered tool pair")
            if mult <= 0:
                raise ConfigError(f"interaction ({j}, {k}) multiplier must be > 0")

    @property
    def tool_count(self) -> int:
        return len(self.rate_mult)

    @classmethod
    def random(
        cls,
        registry: ToolRegistry,
        sequences: Sequence[str],
        qps: Sequence[int],
        seed: int,
    ) -> "SyntheticModelParams":
        """Draw an admissible model from a seeded generator.

        Enabled tools tend to save rate and cost energy, so disabling
        trades bit rate for energy, mirroring the real design space.
        Quality deltas shrink with the tool count to keep VMAF away from
        the clamp, which would flatten quality and break BD interpolation.
        """
        rng = np.random.default_rng(seed)
        n = len(registry)
        qps = tuple(int(q) for q in qps)
        baselines = {}
        for sequence in sequences:
            steps = len(qps) - 1
            rate0 = rng.uniform(4000.0, 16000.0)
            rate = [rate0]
            for _ in range(steps):
                rate.append(rate[-1] / rng.uniform(1.6, 2.1))
            psnr0 = rng.uniform(41.0, 44.0)
            psnr = [psnr0]
            for _ in range(steps):
                psnr.append(psnr[-1] - rng.uniform(1.8, 3.0))
            vmaf0 = rng.uniform(82.0, 92.0)
            vmaf = [vmaf0]
            for _ in range(steps):
                vmaf.append(vmaf[-1] - rng.uniform(6.0, 10.0))
            if vmaf[-1] < 5.0:
                scale = (vmaf0 - 5.0) / (vmaf0 - vmaf[-1])
                vmaf = [vmaf0 - (vmaf0 - v) * scale for v in vmaf]
            energy0 = rng.uniform(60.0, 160.0)
            energy = [energy0]
            for _ in range(steps):
                energy.append(energy[-1] / rng.uniform(1.25, 1.5))
            baselines[sequence] = SequenceBaseline(
                qps,
                tuple(float(v) for v in rate),
                tuple(float(v) for v in psnr),
                tuple(float(v) for v in vmaf),
                tuple(float(v) for v in energy),
            )
        dq_psnr_bound = min(0.25, 4.0 / n)
        dq_vmaf_bound = min(0.35, 6.0 / n)
        pairs = []
        seen = set()
        # A registry of n tools has n * (n - 1) / 2 distinct pairs.
        while len(pairs) < min(INTERACTION_PAIRS, n * (n - 1) // 2):
            j, k = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (j, k) in seen:
                continue
            seen.add((j, k))
            pairs.append((int(j), int(k), float(rng.uniform(0.92, 1.10))))
        return cls(
            baselines=baselines,
            rate_mult=tuple(float(v) for v in rng.uniform(0.90, 1.04, size=n)),
            energy_mult=tuple(float(v) for v in rng.uniform(0.95, 1.18, size=n)),
            dq_psnr=tuple(float(v) for v in rng.uniform(-dq_psnr_bound, dq_psnr_bound, size=n)),
            dq_vmaf=tuple(float(v) for v in rng.uniform(-dq_vmaf_bound, dq_vmaf_bound, size=n)),
            interactions=tuple(sorted(pairs)),
        )


@dataclass
class SyntheticModelEvaluator:
    """Pure function of (params, request); identical inputs give bit-exact curves.

    ``max_parallel`` is accepted and ignored: the model always runs in the
    caller's thread. It stays so that callers passing it keep working.
    """

    params: SyntheticModelParams
    max_parallel: int | None = None

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        params = self.params
        if params.tool_count != len(request.ctp.registry):
            raise ConfigError(
                f"model has {params.tool_count} tools but profile registry has "
                f"{len(request.ctp.registry)}"
            )
        bits = request.ctp.bits
        rate_factor = math.prod(m for m, b in zip(params.rate_mult, bits) if b)
        energy_factor = math.prod(m for m, b in zip(params.energy_mult, bits) if b)
        for j, k, mult in params.interactions:
            if bits[j] and bits[k]:
                energy_factor *= mult
        d_psnr = sum(d for d, b in zip(params.dq_psnr, bits) if b)
        d_vmaf = sum(d for d, b in zip(params.dq_vmaf, bits) if b)
        mask = serialize_ctp(request.ctp)
        curves = []
        for sequence in request.sequences:
            try:
                baseline = params.baselines[sequence]
            except KeyError:
                raise ConfigError(f"synthetic model has no baseline for sequence "
                                  f"{sequence!r}") from None
            points = []
            for qp in request.qps:
                i = baseline.index(qp)
                points.append(RdePoint(
                    qp=qp,
                    bitrate=baseline.rate[i] * rate_factor,
                    psnr=baseline.psnr[i] + d_psnr,
                    vmaf=min(100.0, max(0.0, baseline.vmaf[i] + d_vmaf)),
                    energy=baseline.energy[i] * energy_factor,
                ))
            curves.append(RdeCurve(sequence, mask, tuple(points)))
        return curves


@dataclass
class ExternalCommandEvaluator:
    """Runs one child process per (sequence, qp) and parses its result file.

    The command template must contain an ``{out}`` placeholder naming the
    result file; ``{sequence}``, ``{qp}`` and ``{ctp_mask}`` are available
    too. The template is split into argv once, and placeholders are
    substituted inside each argument, so a value with spaces or quotes
    stays one argument. The result file is a one-row CSV with header
    ``qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples``, checked like
    a table row by ``parse_measurement``. When energy samples are present
    they must pass the CI gate before their mean becomes the point's
    energy; a Fail or Insufficient verdict is an error, never silently
    averaged. At most ``max_parallel`` jobs run at once;
    energy-measurement jobs default to serial, matching a single-machine
    power-meter setup.
    """

    command_template: str
    max_parallel: int = 1
    timeout: float | None = None

    def __post_init__(self):
        if "{out}" not in self.command_template:
            raise ConfigError("command template must contain an {out} placeholder")
        if self.max_parallel < 1:
            raise ConfigError(f"max_parallel must be >= 1, got {self.max_parallel}")
        try:
            self._argv = shlex.split(self.command_template)
        except ValueError as exc:
            raise ConfigError(f"command template cannot be split into arguments: {exc}") from None
        try:
            self._substitute(sequence="s", qp=0, ctp_mask="0", out="out")
        except (KeyError, IndexError, ValueError) as exc:
            raise ConfigError(
                f"command template has an unknown placeholder: {exc}"
            ) from None

    def _substitute(self, **values) -> list[str]:
        return [token.format(**values) for token in self._argv]

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        mask = serialize_ctp(request.ctp)
        jobs = [(seq, qp) for seq in request.sequences for qp in request.qps]
        failed = threading.Event()

        def run(out: str, sequence: str, qp: int) -> RdePoint | None:
            # A job queued behind a failure is skipped without launching.
            if failed.is_set():
                return None
            try:
                return self._run_job(out, mask, sequence, qp)
            except Exception:
                failed.set()
                raise

        with tempfile.TemporaryDirectory(prefix="ctpdse-ext-") as tmp:
            with ThreadPoolExecutor(max_workers=min(self.max_parallel, len(jobs))) as pool:
                # Named by job, so no sequence name can point outside ``tmp``.
                futures = [pool.submit(run, str(Path(tmp) / f"job{i}.csv"), *job)
                           for i, job in enumerate(jobs)]
        # Jobs start in order, so every skipped job follows a failed one:
        # reading results in order raises the earliest failure first.
        results = {job: future.result() for job, future in zip(jobs, futures)}
        curves = []
        for sequence in request.sequences:
            points = tuple(results[(sequence, qp)] for qp in request.qps)
            try:
                curves.append(RdeCurve(sequence, mask, points))
            except CurveDataError as exc:
                raise EvaluationError(
                    f"external results for {sequence!r} do not form a valid curve: {exc}"
                ) from exc
        return curves

    def _run_job(self, out: str, mask: str, sequence: str, qp: int) -> RdePoint:
        argv = self._substitute(sequence=sequence, qp=qp, ctp_mask=mask, out=out)
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=self.timeout
            )
        except FileNotFoundError as exc:
            raise EvaluationError(f"({sequence}, qp {qp}): cannot launch {argv[0]!r}: {exc}") from None
        except subprocess.TimeoutExpired:
            raise EvaluationError(
                f"({sequence}, qp {qp}): command timed out after {self.timeout} s"
            ) from None
        if proc.returncode != 0:
            raise EvaluationError(
                f"({sequence}, qp {qp}): command exited with {proc.returncode}; "
                f"stdout: {proc.stdout.strip()!r}; stderr: {proc.stderr.strip()!r}"
            )
        return self._parse_result(out, sequence, qp)

    def _parse_result(self, path: str, sequence: str, qp: int) -> RdePoint:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise EvaluationError(
                f"({sequence}, qp {qp}): command produced no result file: {exc}"
            ) from None
        try:
            rows = [fields for _, fields in data_rows(text.splitlines(), RESULT_HEADER, path)]
            if len(rows) != 1:
                raise ConfigError("expected exactly one data row")
            point, series = parse_measurement(rows[0])
            if point.qp != qp:
                raise ConfigError(f"result row is for qp {point.qp}, invoked with qp {qp}")
        except ConfigError as exc:
            raise EvaluationError(
                f"({sequence}, qp {qp}): cannot parse result file: {exc}; "
                f"contents: {text!r}"
            ) from None
        if series is None:
            return point
        if series.verdict is not Verdict.PASS:
            raise EvaluationError(
                f"({sequence}, qp {qp}): energy measurement rejected, {series.describe()}"
            )
        return replace(point, energy=series.mean)
