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

The external backend imports its job machinery (``shlex``, ``string``,
``tempfile``, ``concurrent.futures``) when it is built or runs, so a
command that never builds it does not load them. ``subprocess`` is the
one exception and is imported with this module: the benchmark harness
times each child job by swapping ``evaluators.subprocess.run`` after
import.

A cached-table row and an external job's result row become a point through
``parse_measurement`` alone, so both obey the same checks; each caller
only decides what a CI verdict means.
"""

from __future__ import annotations

import math
import operator
import re
import subprocess  # perfbench times jobs by this name; ROADMAP 3b moves that, 16 drops it
import threading
from functools import reduce
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .csvrows import data_rows, not_utf8, parse_float
from .curves import MIN_CURVE_POINTS, CurveDataError, RdeCurve, RdePoint
from .errors import ConfigError, EvaluationError, MeasurementMissError
from .frozen import Frozen
from .profiles import Ctp, ToolRegistry, serialize_ctp
from .stats import MeasurementSeries, Verdict

RESULT_HEADER = ("qp", "bitrate_kbps", "psnr_db", "vmaf", "energy_j", "energy_samples")
CSV_HEADER = ("ctp_id", "sequence") + RESULT_HEADER

# energy_j must equal the mean of energy_samples this tightly.
ENERGY_MEAN_REL_TOL = 1e-6


def check_sequences(sequences: tuple[str, ...]) -> None:
    """Raise ConfigError unless ``sequences`` are one or more distinct, non-empty names."""
    if not sequences:
        raise ConfigError("evaluation request needs at least one sequence")
    if not all(sequences):
        raise ConfigError(f"sequence names must not be empty, got {sequences}")
    if len(set(sequences)) != len(sequences):
        raise ConfigError(f"sequence names must not repeat, got {sequences}")


def check_qps(qps: tuple[int, ...]) -> None:
    """Raise ConfigError unless ``qps`` increase strictly and are enough for a BD curve."""
    if not qps:
        raise ConfigError("evaluation request needs at least one qp")
    if any(b <= a for a, b in zip(qps, qps[1:])):
        raise ConfigError(f"qps must be strictly increasing, got {qps}")
    if len(qps) < MIN_CURVE_POINTS:
        raise ConfigError(f"BD needs at least {MIN_CURVE_POINTS} qps, got {len(qps)}")


class EvaluationRequest(Frozen):
    """One profile to evaluate over a set of sequences and operating points."""

    __slots__ = ()
    _fields = ("ctp", "sequences", "qps")

    def __new__(cls, ctp: Ctp, sequences: tuple[str, ...], qps: tuple[int, ...]):
        check_sequences(sequences)
        check_qps(qps)
        return tuple.__new__(cls, (ctp, sequences, qps))


class Evaluator(Protocol):
    """Evaluation port used by the search engine."""

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]: ...


def parse_measurement(fields: Sequence[str]) -> tuple[RdePoint, MeasurementSeries | None]:
    """Turn the ``RESULT_HEADER`` fields of one row into a point, or raise ConfigError.

    Energy samples, when present, go through the CI gate
    (``MeasurementSeries.validate``) and must have ``energy_j`` as their
    mean; the caller acts on the returned verdict.
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
    point = RdePoint(qp, parse_float(rate, "bitrate_kbps"), parse_float(psnr, "psnr_db"),
                     parse_float(vmaf, "vmaf"), energy_j)
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
        return RdeCurve(sequence, points)

    def qps_by_sequence(self, ctp_id: str) -> dict[str, tuple[int, ...]]:
        """The sorted qps of ``ctp_id``'s rows, keyed by sequence in sorted order."""
        ladders: dict[str, tuple[int, ...]] = {}
        for _, sequence, qp in sorted(key for key in self.rows if key[0] == ctp_id):
            ladders[sequence] = ladders.get(sequence, ()) + (qp,)
        return ladders


# The form of a ctp_id, an upper-case hex mask.
_MASK = re.compile("[0-9A-F]+")


def ingest_measurements(path) -> MeasurementTable:
    """Load a measurement CSV, validating schema, masks, ranges and sample means.

    Each ``ctp_id`` must be an upper-case hex mask, the form profiles are
    looked up by. Rows carrying repeated energy readings are run through
    the CI gate and the verdicts land in ``table.diagnostics``; a failing
    verdict is a diagnostic here, not an error, since cached tables hold
    already-vetted measurements.
    """
    table = MeasurementTable()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, (ctp_id, sequence, *fields) in data_rows(handle, CSV_HEADER, path):
            try:
                if not _MASK.fullmatch(ctp_id):
                    raise ConfigError(f"ctp_id {ctp_id!r} is not an upper-case hex mask")
                if not sequence:
                    raise ConfigError("sequence is empty")
                point, series = parse_measurement(fields)
                table.add((ctp_id, sequence, point.qp), point, series)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return table


class CachedTableEvaluator:
    """Replays ingested measurements; a missing row is a hard miss."""

    def __init__(self, table: MeasurementTable):
        self.table = table

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        mask = serialize_ctp(request.ctp)
        return [self.table.curve(mask, seq, request.qps) for seq in request.sequences]


class SequenceBaseline(Frozen):
    """Per-qp baseline tables of one synthetic sequence."""

    __slots__ = ()
    _fields = ("qps", "rate", "psnr", "vmaf", "energy")

    def __new__(cls, qps: tuple[int, ...], rate: tuple[float, ...], psnr: tuple[float, ...],
                vmaf: tuple[float, ...], energy: tuple[float, ...]):
        n = len(qps)
        if any(len(t) != n for t in (rate, psnr, vmaf, energy)):
            raise ConfigError("baseline tables must all cover the same qps")
        if any(b <= a for a, b in zip(qps, qps[1:])):
            raise ConfigError(f"baseline qps must be strictly increasing, got {qps}")
        if any(v <= 0 for v in rate) or any(v <= 0 for v in energy):
            raise ConfigError("baseline rate and energy values must be > 0")
        return tuple.__new__(cls, (qps, rate, psnr, vmaf, energy))

    def index(self, qp: int) -> int:
        try:
            return self.qps.index(qp)
        except ValueError:
            raise ConfigError(f"no baseline entry for qp {qp} (have {self.qps})") from None


# Tool pairs whose joint energy factor SyntheticModelParams.random draws.
INTERACTION_PAIRS = 2

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _seed_state(seed: int) -> list[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """The draws of ``numpy.random.default_rng(seed)`` that the synthetic model makes.

    PCG64 is a 128-bit LCG with XSL-RR output (O'Neill, "PCG", 2014),
    seeded through numpy's SeedSequence. Bounded integers use Lemire's
    32-bit rejection method on PCG64's buffered half-words, as numpy does.
    """

    MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        state, state_low, inc, inc_low = _seed_state(seed)
        self.inc = ((inc << 64 | inc_low) << 1 | 1) & _M128
        # numpy steps once from state 0, adds the seed, and steps again.
        self.state = ((self.inc + (state << 64 | state_low)) * self.MULTIPLIER
                      + self.inc) & _M128
        self.half: int | None = None

    def next64(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.inc) & _M128
        word = (self.state >> 64 ^ self.state) & _M64
        rot = self.state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & _M32

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self.next64() >> 11) * 2.0**-53)

    def uniforms(self, low: float, high: float, size: int) -> tuple[float, ...]:
        return tuple(self.uniform(low, high) for _ in range(size))

    def ladder(self, first: tuple[float, float], step: tuple[float, float], apply,
               steps: int) -> list[float]:
        """A draw in ``first``, then ``steps`` draws in ``step``, each applied to the last value."""
        values = [self.uniform(*first)]
        for _ in range(steps):
            values.append(apply(values[-1], self.uniform(*step)))
        return values

    def bounded(self, top: int) -> int:
        """A uniform integer in ``[0, top]``, for ``top < 2**32 - 1``."""
        if top == 0:
            return 0
        span = top + 1
        product = self.next32() * span
        if product & _M32 < span:
            threshold = (_M32 - top) % span
            while product & _M32 < threshold:
                product = self.next32() * span
        return product >> 32

    def pair(self, n: int) -> list[int]:
        """``choice(n, 2, replace=False)``: Floyd's sample, then numpy's shuffle."""
        first = self.bounded(n - 2)
        second = self.bounded(n - 1)
        pair = [first, n - 1 if second == first else second]
        j = self.bounded(1)
        pair[j], pair[1] = pair[1], pair[j]
        return pair


class SyntheticModelParams(Frozen):
    """Deterministic cost model: multiplicative costs, additive quality.

    rate(qp)   = base_rate(qp)   * prod(rate_mult[j]   for enabled j)
    energy(qp) = base_energy(qp) * prod(energy_mult[j] for enabled j)
                                 * prod(i for (j, k, i) with j and k enabled)
    psnr(qp)   = base_psnr(qp)   + sum(dq_psnr[j] for enabled j)
    vmaf(qp)   = clamp(base_vmaf(qp) + sum(dq_vmaf[j] for enabled j), 0, 100)

    The quality deltas are added in tool order, left to right, so the
    curves are the same floats on every Python version.

    Per-profile factors are constant across qp, so admissible baselines
    stay monotone for every tool subset. Interactions make simultaneous
    flips non-additive, which is what separates greedy from exhaustive
    search on crafted instances.
    """

    __slots__ = ()
    _fields = ("baselines", "rate_mult", "energy_mult", "dq_psnr", "dq_vmaf", "interactions")

    def __new__(cls, baselines: Mapping[str, SequenceBaseline], rate_mult: tuple[float, ...],
                energy_mult: tuple[float, ...], dq_psnr: tuple[float, ...],
                dq_vmaf: tuple[float, ...], interactions: tuple[tuple[int, int, float], ...] = ()):
        n = len(rate_mult)
        if any(len(t) != n for t in (energy_mult, dq_psnr, dq_vmaf)):
            raise ConfigError("per-tool factor tables must have equal length")
        if any(m <= 0 for m in rate_mult) or any(m <= 0 for m in energy_mult):
            raise ConfigError("rate and energy multipliers must be > 0")
        for j, k, mult in interactions:
            if not (0 <= j < k < n):
                raise ConfigError(f"interaction ({j}, {k}) is not a valid ordered tool pair")
            if mult <= 0:
                raise ConfigError(f"interaction ({j}, {k}) multiplier must be > 0")
        return tuple.__new__(
            cls, (baselines, rate_mult, energy_mult, dq_psnr, dq_vmaf, interactions))

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

        The draws reproduce ``numpy.random.default_rng(seed)`` bit for bit,
        so every seed keeps the model, and hence the walks and selections,
        that it had when numpy drew it. A seed must be >= 0.

        Enabled tools tend to save rate and cost energy, so disabling
        trades bit rate for energy, mirroring the real design space.
        Quality deltas shrink with the tool count to keep VMAF away from
        the clamp, which would flatten quality and break BD interpolation.
        """
        if seed < 0:
            raise ConfigError(f"synthetic model seed must be >= 0, got {seed}")
        rng = _Pcg64(seed)
        n = len(registry)
        qps = tuple(int(q) for q in qps)
        steps = len(qps) - 1
        baselines = {}
        for sequence in sequences:
            rate = rng.ladder((4000.0, 16000.0), (1.6, 2.1), operator.truediv, steps)
            psnr = rng.ladder((41.0, 44.0), (1.8, 3.0), operator.sub, steps)
            vmaf = rng.ladder((82.0, 92.0), (6.0, 10.0), operator.sub, steps)
            if vmaf[-1] < 5.0:
                vmaf0 = vmaf[0]
                scale = (vmaf0 - 5.0) / (vmaf0 - vmaf[-1])
                vmaf = [vmaf0 - (vmaf0 - v) * scale for v in vmaf]
            energy = rng.ladder((60.0, 160.0), (1.25, 1.5), operator.truediv, steps)
            baselines[sequence] = SequenceBaseline(
                qps, tuple(rate), tuple(psnr), tuple(vmaf), tuple(energy)
            )
        dq_psnr_bound = min(0.25, 4.0 / n)
        dq_vmaf_bound = min(0.35, 6.0 / n)
        pairs = []
        seen = set()
        # A registry of n tools has n * (n - 1) / 2 distinct pairs.
        while len(pairs) < min(INTERACTION_PAIRS, n * (n - 1) // 2):
            j, k = sorted(rng.pair(n))
            if (j, k) in seen:
                continue
            seen.add((j, k))
            pairs.append((j, k, rng.uniform(0.92, 1.10)))
        return cls(
            baselines=baselines,
            rate_mult=rng.uniforms(0.90, 1.04, n),
            energy_mult=rng.uniforms(0.95, 1.18, n),
            dq_psnr=rng.uniforms(-dq_psnr_bound, dq_psnr_bound, n),
            dq_vmaf=rng.uniforms(-dq_vmaf_bound, dq_vmaf_bound, n),
            interactions=tuple(sorted(pairs)),
        )


class SyntheticModelEvaluator:
    """Pure function of (params, request); identical inputs give bit-exact curves.

    ``max_parallel`` is accepted and ignored: the model always runs in the
    caller's thread. It stays so that callers passing it keep working.
    """

    def __init__(self, params: SyntheticModelParams, max_parallel: int | None = None):
        self.params = params
        self.max_parallel = max_parallel

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        params = self.params
        if params.tool_count != len(request.ctp.registry):
            raise ConfigError(
                f"model has {params.tool_count} tools but profile registry has "
                f"{len(request.ctp.registry)}"
            )
        bits = [request.ctp.mask >> i & 1 for i in range(params.tool_count)]
        rate_factor = math.prod(m for m, b in zip(params.rate_mult, bits) if b)
        energy_factor = math.prod(m for m, b in zip(params.energy_mult, bits) if b)
        for j, k, mult in params.interactions:
            if bits[j] and bits[k]:
                energy_factor *= mult
        # Not sum(): it compensates float sums since Python 3.12.
        d_psnr = reduce(operator.add, (d for d, b in zip(params.dq_psnr, bits) if b), 0.0)
        d_vmaf = reduce(operator.add, (d for d, b in zip(params.dq_vmaf, bits) if b), 0.0)
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
            curves.append(RdeCurve(sequence, tuple(points)))
        return curves


def _field_names(text: str):
    """The field names of format string ``text``, those nested in a format spec included."""
    import string

    for _, name, spec, _ in string.Formatter().parse(text):
        if name is not None:
            yield name
            yield from _field_names(spec)


class ExternalCommandEvaluator:
    """Runs one child process per (sequence, qp) and parses its result file.

    The command template must contain an ``{out}`` placeholder naming the
    result file; ``{sequence}``, ``{qp}`` and ``{ctp_mask}`` are available
    too, and no other name, attribute or index is. The template is split
    into argv once, and placeholders are substituted inside each argument,
    so a value with spaces or quotes stays one argument. The result file is a one-row CSV with header
    ``qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples``, checked like
    a table row by ``parse_measurement``. When energy samples are present
    they must pass the CI gate before their mean becomes the point's
    energy; a Fail or Insufficient verdict is an error, never silently
    averaged. At most ``max_parallel`` jobs run at once;
    energy-measurement jobs default to serial, matching a single-machine
    power-meter setup.

    A job has no time limit: it runs until its command exits. Every way a
    job can fail, a command that cannot be launched included, raises one
    ``EvaluationError`` tagged with the job's (sequence, qp).
    """

    def __init__(self, command_template: str, max_parallel: int = 1):
        self.command_template = command_template
        self.max_parallel = max_parallel
        if self.max_parallel < 1:
            raise ConfigError(f"max_parallel must be >= 1, got {self.max_parallel}")
        import shlex

        try:
            self._argv = shlex.split(self.command_template)
        except ValueError as exc:
            raise ConfigError(f"command template cannot be split into arguments: {exc}") from None
        try:
            names = {name for token in self._argv for name in _field_names(token)}
            unknown = sorted(names - {"sequence", "qp", "ctp_mask", "out"})
            if unknown:
                raise ConfigError(f"command template has an unknown placeholder {{{unknown[0]}}}; "
                                  "a placeholder is one of {sequence}, {qp}, {ctp_mask}, {out}")
            if "out" not in names:
                raise ConfigError("command template must contain an {out} placeholder")
            # Only a format spec or a conversion can still fail.
            self._substitute(sequence="s", qp=0, ctp_mask="0", out="out")
        except ValueError as exc:
            raise ConfigError(f"command template has a malformed placeholder: {exc}") from None

    def _substitute(self, **values) -> list[str]:
        return [token.format(**values) for token in self._argv]

    def evaluate(self, request: EvaluationRequest) -> list[RdeCurve]:
        import tempfile
        from concurrent.futures import ThreadPoolExecutor

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
                curves.append(RdeCurve(sequence, points))
            except CurveDataError as exc:
                raise EvaluationError(f"external results do not form a valid curve: {exc}") from exc
        return curves

    def _run_job(self, out: str, mask: str, sequence: str, qp: int) -> RdePoint:
        argv = self._substitute(sequence=sequence, qp=qp, ctp_mask=mask, out=out)
        try:
            # Output that is not text in the locale's encoding stays readable in the error.
            proc = subprocess.run(argv, capture_output=True, text=True, errors="backslashreplace")
        except OSError as exc:
            raise EvaluationError(f"({sequence}, qp {qp}): cannot launch {argv[0]!r}: {exc}") from None
        if proc.returncode != 0:
            raise EvaluationError(
                f"({sequence}, qp {qp}): command exited with {proc.returncode}; "
                f"stdout: {proc.stdout.strip()!r}; stderr: {proc.stderr.strip()!r}"
            )
        return self._parse_result(out, sequence, qp)

    def _parse_result(self, path: str, sequence: str, qp: int) -> RdePoint:
        # Errors name the file ``{out}``: its temporary directory is gone before they print.
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise EvaluationError(
                f"({sequence}, qp {qp}): command produced no result file: {{out}}: {exc.strerror}"
            ) from None
        except UnicodeDecodeError as exc:
            raise EvaluationError(
                f"({sequence}, qp {qp}): cannot parse result file: {not_utf8('{out}', exc)}"
            ) from None
        try:
            rows = [fields for _, fields in data_rows(text.splitlines(), RESULT_HEADER, "{out}")]
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
        return RdePoint(point.qp, point.bitrate, point.psnr, point.vmaf, series.mean)
