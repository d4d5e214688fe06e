"""Benchmark of the `ctp` command: closed-loop workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's `ctp` commands one at a time, each in a
fresh interpreter as users run it, waits for each, and repeats the whole
sequence (a cycle) until S seconds have passed. Inputs are generated from
the seed under ``.perfbench_work/``; the program sees only those files.

Workloads (the layers each one loads differ on purpose):

* ``dse-synthetic``: `ctp dse` for ea, e1, ca and c1 with the synthetic
  backend on the shipped 30-tool registry. Almost all time is BD
  interpolation (``curves``) behind the engine's thread pool; no child
  jobs, no CSV ingest. e1 and c1 stop after a fixed iteration count so
  every seed does the same number of profile evaluations; their natural
  walks vary by about 25% between seeds.
* ``dse-external``: `ctp dse --strategy c1 --backend external
  --max-parallel 2` against ``stub_encoder.py``, capped at two iterations
  for the same reason. Child jobs dominate and BD is a small share, so job
  scheduling in ``evaluators`` shows and the BD kernel does not. It runs
  c1 rather than ca: an All-policy walk stopped by ``--max-iter`` ends on
  a profile it never evaluated and `ctp dse` fails with a KeyError.
* ``tables``: `ctp bd` with 200 test profiles over a 6432-row measurement
  CSV, then `ctp pareto --out` over 6000 points whose front holds a few
  hundred members. It loads CSV ingest, the ``stats`` gate per row,
  per-test BD and ``pareto``, and bypasses ``engine`` and the backends.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
wall time of a cycle), ``setup_s`` (median time from spawning a fresh
interpreter until ``ctpdse.cli`` is imported), ``profiles_per_s``
(anchored BD reports per cycle divided by the cycle's command time after
start-up, that is wall time less each command's set-up time) and
``peak_rss_mb`` (median over cycles of the largest resident set of any
`ctp` process, children included). The error rate (failed commands over
attempted ones) is printed too; it is 0 on a correct program, so the
result line carries it as ``failed``/``attempted`` rather than as a metric.

With ``--trace 1`` untraced and traced cycles alternate. In traced cycles
each `ctp` process records spans around calls into every module
(``spans.py``); the per-layer metrics are medians over traced cycles and
``trace_overhead_ratio`` is traced over untraced cycle wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_NAME = ".perfbench_work"

# Every command is killed once a run has used this much time, and no cycle
# starts that would likely end past it, so even a hanging program ends the
# run well inside three minutes.
RUN_DEADLINE = 150.0
SETUP_SAMPLES = 5
EXTERNAL_PARALLEL = 2

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "profiles_per_s": "1/s", "peak_rss_mb": "MB"}
TRACE_UNITS = {**spans.LAYER_UNITS, "trace_overhead_ratio": "ratio"}


@dataclass
class Command:
    key: str
    args: list[str]
    outputs: list[str] = field(default_factory=list)  # files under the cycle dir
    env: dict[str, str] = field(default_factory=dict)


@dataclass
class Outcome:
    key: str
    code: int
    wall: float
    setup: float
    rss_mb: float
    trace: Path | None
    errors: list[str] = field(default_factory=list)


@dataclass
class Cycle:
    traced: bool
    directory: Path
    wall: float
    outcomes: list[Outcome]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a command's process group and wait until it is gone."""
    _kill_group(pgid)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_ctp(args, directory: Path, key: str, trace: bool, deadline: float,
            env_extra=None) -> Outcome:
    """Run one `ctp` command in a fresh interpreter and measure it.

    The command's whole process group is killed at ``deadline`` (a
    ``time.monotonic()`` value) and reaped before this returns.
    """
    ready = directory / f"{key}.ready"
    trace_path = directory / f"{key}.trace.json" if trace else None
    argv = [sys.executable, str(HERE / "launch.py"), str(ready),
            str(trace_path) if trace else "-", *args]
    env = dict(os.environ, TMPDIR=str(ROOT / WORK_NAME / "tmp"), **(env_extra or {}))
    with open(directory / f"{key}.out", "wb") as out, open(directory / f"{key}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                                start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind, then re-raise
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    try:
        setup = float(ready.read_text(encoding="utf-8")) - start
    except (OSError, ValueError):
        setup = float("nan")
    outcome = Outcome(key, proc.returncode, end - start, setup, usage.ru_maxrss / 1024.0, trace_path)
    if proc.returncode != 0:
        outcome.errors.append(f"exit code {proc.returncode}")
    return outcome


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Generate the inputs; runs once per benchmark run, before timing."""

    def commands(self, cycle_dir: Path) -> list[Command]:
        raise NotImplementedError

    def profiles(self, cycle: Cycle) -> int:
        raise NotImplementedError

    def check(self, cycle: Cycle) -> dict[str, list[str]]:
        """Full correctness check of one cycle's outputs: command key -> errors."""
        raise NotImplementedError

    def cross_check(self, cycle: Cycle, key: str, layers: dict) -> list[str]:
        """Count checks of one traced command against its own outputs."""
        return []


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class DseSynthetic(Workload):
    name = "dse-synthetic"
    # (strategy, --max-iter). e1 and c1 walks end naturally after 22-29 and
    # 10-17 iterations on seeds 1-12; the caps sit below that range.
    WALKS = (("ea", 64), ("e1", 10), ("ca", 64), ("c1", 6))

    def prepare(self):
        self.model = gen.model_document(self.seed)

    def _base_args(self, strategy, max_iter):
        return ["dse", "--strategy", strategy, "--seed", str(self.seed),
                "--sequences", ",".join(gen.SEQUENCES),
                "--qps", ",".join(str(q) for q in gen.QPS), "--max-iter", str(max_iter)]

    def commands(self, cycle_dir):
        return [
            Command(strategy,
                    self._base_args(strategy, max_iter)
                    + ["--backend", "synthetic", "--out", _rel(cycle_dir / strategy)],
                    [f"{strategy}/{f}" for f in DSE_FILES])
            for strategy, max_iter in self.WALKS
        ]

    def profiles(self, cycle):
        return sum(len(_read_json(cycle.directory / o.key / "result.json")["evaluated"])
                   for o in cycle.outcomes if o.code == 0)

    def check(self, cycle):
        errors = {}
        for (strategy, max_iter), outcome in zip(self.WALKS, cycle.outcomes):
            out = cycle.directory / strategy
            errors[strategy] = checks.check_dse(
                _read_json(out / "result.json"), self.model, strategy, max_iter,
                (out / "front.csv").read_text(encoding="utf-8"))
        return errors

    def cross_check(self, cycle, key, layers):
        evaluated = len(_read_json(cycle.directory / key / "result.json")["evaluated"])
        if layers["engine.compute.calls"] != evaluated - 1:
            return [f"engine.compute.calls {layers['engine.compute.calls']} != "
                    f"evaluated profiles {evaluated} - 1"]
        return []


DSE_FILES = ("result.json", "points.csv", "front.csv", "summary.txt", "manifest.json")


class DseExternal(DseSynthetic):
    name = "dse-external"
    WALKS = (("c1", 2),)

    def prepare(self):
        self.registry = self.work / "registry.txt"
        gen.write_registry(self.registry)
        self.model_path = self.work / "model.json"
        self.model = gen.write_model(self.model_path, self.seed)
        self.template = " ".join([
            shlex.quote(sys.executable), "-I", "-S", shlex.quote(_rel(HERE / "stub_encoder.py")),
            shlex.quote(_rel(self.model_path)), "{sequence}", "{qp}", "{ctp_mask}", "{out}",
        ])

    def commands(self, cycle_dir):
        strategy, max_iter = self.WALKS[0]
        return [Command(
            strategy,
            self._base_args(strategy, max_iter) + [
                "--backend", "external", "--registry", _rel(self.registry),
                "--command-template", self.template,
                "--max-parallel", str(EXTERNAL_PARALLEL), "--out", _rel(cycle_dir / strategy),
            ],
            [f"{strategy}/{f}" for f in DSE_FILES],
            {"PERFBENCH_STUB_LOG": str(cycle_dir / f"{strategy}.jobs")},
        )]

    def check(self, cycle):
        errors = super().check(cycle)
        strategy, max_iter = self.WALKS[0]
        doc = _read_json(cycle.directory / strategy / "result.json")
        errors[strategy] += checks.check_same_walk(doc, self._synthetic_walk(strategy, max_iter))
        jobs = cycle.directory / f"{strategy}.jobs"
        errors[strategy] += checks.check_jobs(
            jobs.read_text(encoding="utf-8") if jobs.exists() else "", doc)
        return errors

    def _synthetic_walk(self, strategy, max_iter):
        """The walk the synthetic backend takes on the same model, run in this process."""
        from ctpdse.engine import DseConfig, parse_strategy, result_to_document, run_dse
        from ctpdse.evaluators import SyntheticModelEvaluator, SyntheticModelParams
        from ctpdse.profiles import default_ctp, default_registry

        registry = default_registry()
        params = SyntheticModelParams.random(registry, gen.SEQUENCES, gen.QPS, seed=self.seed)
        objective, flip_policy = parse_strategy(strategy)
        config = DseConfig(objective, flip_policy, default_ctp(registry), gen.SEQUENCES,
                           gen.QPS, max_iterations=max_iter)
        result = run_dse(config, SyntheticModelEvaluator(params, max_parallel=1))
        return json.loads(json.dumps(result_to_document(result, config)))

    def cross_check(self, cycle, key, layers):
        evaluated = len(_read_json(cycle.directory / key / "result.json")["evaluated"])
        expected = evaluated * len(gen.SEQUENCES) * len(gen.QPS)
        errors = super().cross_check(cycle, key, layers)
        if layers["evaluators.child_jobs"] != expected:
            errors.append(f"evaluators.child_jobs {layers['evaluators.child_jobs']} != "
                          f"{evaluated} profiles x {len(gen.SEQUENCES)} sequences x "
                          f"{len(gen.QPS)} qps")
        return errors


class Tables(Workload):
    name = "tables"

    def prepare(self):
        self.measurements = self.work / "measurements.csv"
        self.test_masks = gen.write_measurements(self.measurements, self.seed)
        self.points_path = self.work / "points.csv"
        self.points = gen.write_points(self.points_path, self.seed)

    def commands(self, cycle_dir):
        bd = ["bd", "--measurements", _rel(self.measurements)]
        for mask in self.test_masks:
            bd += ["--test", mask]
        pareto = ["pareto", "--points", _rel(self.points_path), "--out", _rel(cycle_dir / "pareto")]
        return [
            Command("bd", bd, ["bd.out"]),
            Command("pareto", pareto,
                    ["pareto.out", "pareto/points.csv", "pareto/front.csv", "pareto/manifest.json"]),
        ]

    def profiles(self, cycle):
        return len(self.test_masks) if cycle.outcomes[0].code == 0 else 0

    def check(self, cycle):
        def text(name):
            return (cycle.directory / name).read_text(encoding="utf-8")

        return {
            "bd": checks.check_bd(text("bd.out"), gen.measurement_rows(self.seed), self.test_masks),
            "pareto": checks.check_pareto(text("pareto.out"), text("pareto/points.csv"),
                                          text("pareto/front.csv"), self.points),
        }

    def cross_check(self, cycle, key, layers):
        rows = len(gen.TABLE_SEQUENCES) * len(gen.QPS) * (gen.TABLE_TESTS + 1)
        if key == "bd" and layers["evaluators.ingest_measurements.rows"] != rows:
            return [f"ingested {layers['evaluators.ingest_measurements.rows']} rows, "
                    f"the table has {rows}"]
        return []


WORKLOADS = {w.name: w for w in (DseSynthetic, DseExternal, Tables)}


# ---------------------------------------------------------------- measurement loop


def run_cycles(workload: Workload, seconds: float, trace: bool, deadline: float) -> list[Cycle]:
    """Closed loop: cycles back to back until ``seconds`` pass (traced ones alternate)."""
    cycles: list[Cycle] = []
    started = time.monotonic()
    while True:
        traced = trace and len(cycles) % 2 == 1
        directory = workload.work / f"c{len(cycles)}"
        directory.mkdir()
        t0 = time.perf_counter()
        outcomes = [run_ctp(c.args, directory, c.key, traced, deadline, c.env)
                    for c in workload.commands(directory)]
        cycles.append(Cycle(traced, directory, time.perf_counter() - t0, outcomes))
        now = time.monotonic()
        typical = statistics.median(c.wall for c in cycles)
        if now + typical >= deadline:
            return cycles
        if trace and len(cycles) < 2:
            continue
        if now - started + 0.5 * typical >= seconds:
            return cycles


def verify(workload: Workload, cycles: list[Cycle]) -> None:
    """Attach correctness errors to every command outcome.

    The first untraced cycle gets the full check. Equal inputs must give
    byte-identical outputs, so every other cycle's outputs are compared
    with the first's, and inherit its verdict.
    """
    first = cycles[0]
    commands = {c.key: c for c in workload.commands(first.directory)}
    if all(o.code == 0 for o in first.outcomes):
        try:
            verdicts = workload.check(first)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            verdicts = {o.key: [f"output unreadable: {exc!r}"] for o in first.outcomes}
    else:
        verdicts = {o.key: ["not checked: a command of the cycle failed"] for o in first.outcomes}
    for cycle in cycles:
        for outcome in cycle.outcomes:
            outcome.errors += verdicts.get(outcome.key, [])
            if cycle is first:
                continue
            for name in commands[outcome.key].outputs:
                a, b = first.directory / name, cycle.directory / name
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    outcome.errors.append(f"{name} differs from the first cycle's")


def trace_metrics(workload: Workload, cycles: list[Cycle]) -> dict[str, float]:
    per_cycle = []
    for cycle in (c for c in cycles if c.traced):
        dumps = []
        for outcome in cycle.outcomes:
            if outcome.code != 0 or not outcome.trace.exists():
                outcome.errors.append("no trace written")
                continue
            dump = _read_json(outcome.trace)
            dumps.append(dump)
            try:
                outcome.errors += workload.cross_check(
                    cycle, outcome.key, spans.layer_metrics([dump]))
            except (OSError, KeyError, ValueError) as exc:
                outcome.errors.append(f"cross-check failed: {exc!r}")
        per_cycle.append(spans.layer_metrics(dumps))
    metrics = spans.median_metrics(per_cycle)
    untraced = statistics.median(c.wall for c in cycles if not c.traced)
    traced = statistics.median(c.wall for c in cycles if c.traced)
    metrics["trace_overhead_ratio"] = traced / untraced
    return metrics


def e2e_metrics(workload: Workload, cycles: list[Cycle], setup_samples: list[float]):
    def profiles(cycle):
        try:
            return workload.profiles(cycle)
        except (OSError, KeyError, ValueError):
            return 0

    return {
        "wall_s": statistics.median(c.wall for c in cycles),
        "setup_s": statistics.median(setup_samples),
        "profiles_per_s": statistics.median(
            profiles(c) / sum(o.wall - o.setup for o in c.outcomes) for c in cycles),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in c.outcomes) for c in cycles),
    }


def setup_probes(work: Path, count: int, deadline: float) -> list[Outcome]:
    """Extra `ctp --version` runs, so set-up time rests on enough fresh interpreters."""
    directory = work / "setup"
    directory.mkdir(exist_ok=True)
    return [run_ctp(["--version"], directory, f"probe{i}", False, deadline)
            for i in range(count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE

    if not (SRC / "ctpdse" / "cli.py").is_file():
        print(f"error: no ctpdse sources under {SRC}; run from a ctpdse checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compileall

    # Byte-compile once up front so the first timed command does not pay for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    work = ROOT / WORK_NAME / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (ROOT / WORK_NAME / "tmp").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.prepare()

    cycles = run_cycles(workload, args.seconds, bool(args.trace), deadline)
    outcomes = [o for c in cycles for o in c.outcomes]
    if args.trace:
        verify(workload, cycles)
        metrics = trace_metrics(workload, cycles)
        units = TRACE_UNITS
    else:
        setup = [o.setup for o in outcomes]
        probes = setup_probes(work, max(0, SETUP_SAMPLES - len(setup)), deadline)
        verify(workload, cycles)
        outcomes += probes
        metrics = e2e_metrics(workload, cycles, setup + [p.setup for p in probes])
        units = E2E_UNITS

    failed = [o for o in outcomes if o.errors]
    for o in failed[:10]:
        print(f"FAILED {o.key}: {'; '.join(o.errors[:5])}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  cycles {len(cycles)}"
          f"  traced {sum(c.traced for c in cycles)}  cycle walls "
          + " ".join(f"{c.wall:.3f}" for c in cycles))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<40} {len(failed) / len(outcomes):>14.6g} ratio"
          f"  ({len(failed)} of {len(outcomes)} commands)")
    correct = not failed and all(v == v for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
