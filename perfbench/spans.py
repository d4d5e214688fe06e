"""Span recording around calls into ctpdse's modules, and span arithmetic.

``install`` runs inside a traced `ctp` process before the command starts.
It wraps each traced function once and then replaces every reference to
the original in every loaded ``ctpdse`` module, so functions imported by
name into another module (``engine.bd_report``, ``cli.run_dse``, ...) are
counted too. A span is ``[id, name, start, end, thread, parent, extra]``;
``parent`` is the enclosing span on the same thread, so work handed to a
thread pool starts a new root.

The analysis half (``self_times``, ``union_length``, ``peak_overlap``,
``layer_metrics``) runs in the benchmark process over the dumped spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import threading
import time
import types

# (module, attribute path, span name, extra recorder)
TARGETS = (
    ("curves", "bd_delta", "curves.bd_delta", None),
    ("curves", "bd_report", "curves.bd_report", None),
    ("curves", "aggregate_reports", "curves.aggregate_reports", None),
    ("engine", "run_dse", "engine.run_dse",
     lambda args, result: getattr(args[1], "max_parallel", None)),
    ("engine", "run_iteration", "engine.run_iteration",
     lambda args, result: len(args[0].registry)),
    ("engine", "EvaluationCache.compute", "engine.compute", None),
    ("engine", "result_to_document", "engine.result_to_document", None),
    ("evaluators", "SyntheticModelEvaluator.evaluate", "evaluators.evaluate", None),
    ("evaluators", "CachedTableEvaluator.evaluate", "evaluators.evaluate", None),
    ("evaluators", "ExternalCommandEvaluator.evaluate", "evaluators.evaluate", None),
    ("evaluators", "ingest_measurements", "evaluators.ingest_measurements",
     lambda args, result: len(result.rows)),
    ("stats", "MeasurementSeries.validate", "stats.validate",
     lambda args, result: result.verdict.value == "pass"),
    ("pareto", "pareto_front", "pareto.pareto_front",
     lambda args, result: [len(args[0]), len(result)]),
    ("pareto", "select_profiles", "pareto.select_profiles", None),
    ("pareto", "read_points_csv", "pareto.read_points_csv", None),
    ("cli", "cmd_dse", "cli.cmd_dse", None),
    ("cli", "cmd_bd", "cli.cmd_bd", None),
    ("cli", "cmd_pareto", "cli.cmd_pareto", None),
    ("profiles", "serialize_ctp", "profiles.serialize_ctp", None),
    ("profiles", "flip_tool", "profiles.flip_tool", None),
    ("manifest", "file_digest", "manifest.file_digest", None),
)

# Names imported into another module, which a wrapper on the defining
# module alone would miss. ``install`` fails unless each one is wrapped.
REQUIRED_SITES = (
    "engine.bd_report",
    "engine.aggregate_reports",
    "cli.bd_report",
    "cli.run_dse",
    "cli.select_profiles",
    "evaluators.MeasurementSeries.validate",
    "evaluators.subprocess.run",
)

CHILD = "evaluators.child"


class Recorder:
    """Collects finished spans of one process; safe to call from any thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.sites: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, extra=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._local.__dict__.setdefault("stack", [])
            span = [next(recorder._ids), name, 0.0, 0.0, threading.get_ident(),
                    stack[-1] if stack else None, None]
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if extra is not None:
                span[6] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target at every site that references it in a loaded ctpdse module."""
    modules = {
        name.split(".", 1)[1]: module
        for name, module in list(sys.modules.items())
        if name.startswith("ctpdse.") and module is not None
    }
    for module_name, path, span_name, extra in TARGETS:
        owner = modules[module_name]
        *class_path, attr = path.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        if class_path:
            # A method is looked up on its class, which every importer shares.
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(raw.__func__, span_name, extra))
            else:
                wrapped = recorder.wrap(raw, span_name, extra)
            setattr(owner, attr, wrapped)
            recorder.sites.append(f"{module_name}.{path}")
            continue
        raw = getattr(owner, attr)
        wrapped = recorder.wrap(raw, span_name, extra)
        for site_name, module in modules.items():
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    recorder.sites.append(f"{site_name}.{key}")
    # evaluators calls ``subprocess.run`` through the module object; give it
    # a view of subprocess whose ``run`` is timed, leaving the real module alone.
    evaluators = modules["evaluators"]
    view = types.ModuleType("subprocess")
    view.__dict__.update(vars(subprocess))
    view.run = recorder.wrap(subprocess.run, CHILD, lambda args, result: result.returncode)
    evaluators.subprocess = view
    recorder.sites.append("evaluators.subprocess.run")
    # The class object is shared, so wrapping its classmethod covers this site.
    if evaluators.MeasurementSeries is modules["stats"].MeasurementSeries:
        recorder.sites.append("evaluators.MeasurementSeries.validate")
    missing = [s for s in REQUIRED_SITES if s not in recorder.sites]
    if missing:
        raise RuntimeError(f"trace wrappers missed import sites: {', '.join(missing)}")


def dump(recorder: Recorder, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.spans, handle)


# ---------------------------------------------------------------- analysis

ID, NAME, START, END, THREAD, PARENT, EXTRA = range(7)

# Unit of every metric ``layer_metrics`` reports, in report order.
LAYER_UNITS = {
    "curves.bd_delta.calls": "count",
    "curves.bd_delta.self_s": "s",
    "curves.bd_report.calls": "count",
    "curves.bd_report.self_s": "s",
    "curves.aggregate_reports.self_s": "s",
    "engine.run_iteration.calls": "count",
    "engine.run_iteration.self_s": "s",
    "engine.compute.calls": "count",
    "engine.compute.p50_ms": "ms",
    "engine.compute.p99_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.pool_overlap": "ratio",
    "evaluators.evaluate.calls": "count",
    "evaluators.evaluate.self_s": "s",
    "evaluators.child_jobs": "count",
    "evaluators.child_failed": "count",
    "evaluators.child_busy_s": "s",
    "evaluators.peak_children": "count",
    "evaluators.slot_utilisation": "ratio",
    "evaluators.ingest_measurements.rows": "count",
    "evaluators.ingest_measurements.self_s": "s",
    "stats.validate.calls": "count",
    "stats.validate.self_s": "s",
    "stats.pass_ratio": "ratio",
    "pareto.pareto_front.calls": "count",
    "pareto.pareto_front.self_s": "s",
    "pareto.points_in": "count",
    "pareto.front_size": "count",
    "pareto.select_profiles.self_s": "s",
    "pareto.read_points_csv.self_s": "s",
    "cli.cmd_dse.self_s": "s",
    "cli.cmd_bd.self_s": "s",
    "cli.cmd_pareto.self_s": "s",
    "engine.result_to_document.self_s": "s",
    "profiles.serialize_ctp.calls": "count",
    "profiles.serialize_ctp.self_s": "s",
    "profiles.flip_tool.calls": "count",
    "manifest.file_digest.self_s": "s",
}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def peak_overlap(intervals) -> int:
    """Largest number of intervals open at one instant (touching ends do not overlap)."""
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
                    key=lambda ev: (ev[0], ev[1]))
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children on the same thread."""
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None and by_id[parent][THREAD] == s[THREAD]:
            children.setdefault(parent, []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - union_length(children.get(s[ID], ()))
        for s in spans
    }


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics of one workload cycle from the span dumps of its commands."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    compute_ms: list[float] = []
    compute_total = compute_union = 0.0
    considered = computed = 0
    child_busy = slot_capacity = 0.0
    child_jobs = child_failed = peak_children = 0
    ingest_rows = validate_pass = 0
    points_in = front_size = 0
    for spans in traces:
        own = self_times(spans)
        computes, children = [], []
        for s in spans:
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[s[ID]]
            if name == "engine.compute":
                computes.append((s[START], s[END]))
                compute_ms.append(1000.0 * (s[END] - s[START]))
            elif name == "engine.run_iteration":
                considered += s[EXTRA] or 0
            elif name == "engine.run_dse" and s[EXTRA]:
                slot_capacity += s[EXTRA] * (s[END] - s[START])
            elif name == CHILD:
                children.append((s[START], s[END]))
                child_failed += s[EXTRA] != 0
            elif name == "evaluators.ingest_measurements":
                ingest_rows += s[EXTRA] or 0
            elif name == "stats.validate":
                validate_pass += bool(s[EXTRA])
            elif name == "pareto.pareto_front" and s[EXTRA]:
                points_in = max(points_in, s[EXTRA][0])
                front_size = max(front_size, s[EXTRA][1])
        computed += len(computes)
        compute_total += sum(e - s for s, e in computes)
        compute_union += union_length(computes)
        child_jobs += len(children)
        child_busy += sum(e - s for s, e in children)
        peak_children = max(peak_children, peak_overlap(children))

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    return {
        "curves.bd_delta.calls": c("curves.bd_delta"),
        "curves.bd_delta.self_s": t("curves.bd_delta"),
        "curves.bd_report.calls": c("curves.bd_report"),
        "curves.bd_report.self_s": t("curves.bd_report"),
        "curves.aggregate_reports.self_s": t("curves.aggregate_reports"),
        "engine.run_iteration.calls": c("engine.run_iteration"),
        "engine.run_iteration.self_s": t("engine.run_iteration"),
        "engine.compute.calls": c("engine.compute"),
        "engine.compute.p50_ms": _percentile(compute_ms, 0.50),
        "engine.compute.p99_ms": _percentile(compute_ms, 0.99),
        "engine.cache_hit_ratio": (considered - computed) / considered if considered else 0.0,
        "engine.pool_overlap": compute_total / compute_union if compute_union else 0.0,
        "evaluators.evaluate.calls": c("evaluators.evaluate"),
        "evaluators.evaluate.self_s": t("evaluators.evaluate"),
        "evaluators.child_jobs": child_jobs,
        "evaluators.child_failed": child_failed,
        "evaluators.child_busy_s": child_busy,
        "evaluators.peak_children": peak_children,
        "evaluators.slot_utilisation": child_busy / slot_capacity if slot_capacity else 0.0,
        "evaluators.ingest_measurements.rows": ingest_rows,
        "evaluators.ingest_measurements.self_s": t("evaluators.ingest_measurements"),
        "stats.validate.calls": c("stats.validate"),
        "stats.validate.self_s": t("stats.validate"),
        "stats.pass_ratio": validate_pass / c("stats.validate") if c("stats.validate") else 0.0,
        "pareto.pareto_front.calls": c("pareto.pareto_front"),
        "pareto.pareto_front.self_s": t("pareto.pareto_front"),
        "pareto.points_in": points_in,
        "pareto.front_size": front_size,
        "pareto.select_profiles.self_s": t("pareto.select_profiles"),
        "pareto.read_points_csv.self_s": t("pareto.read_points_csv"),
        "cli.cmd_dse.self_s": t("cli.cmd_dse"),
        "cli.cmd_bd.self_s": t("cli.cmd_bd"),
        "cli.cmd_pareto.self_s": t("cli.cmd_pareto"),
        "engine.result_to_document.self_s": t("engine.result_to_document"),
        "profiles.serialize_ctp.calls": c("profiles.serialize_ctp"),
        "profiles.serialize_ctp.self_s": t("profiles.serialize_ctp"),
        "profiles.flip_tool.calls": c("profiles.flip_tool"),
        "manifest.file_digest.self_s": t("manifest.file_digest"),
    }


def median_metrics(cycles: list[dict]) -> dict[str, float]:
    return {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
