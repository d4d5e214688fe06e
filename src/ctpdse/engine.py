"""Iterative greedy exploration of the coding-tool design space.

Starting from the anchor profile, every iteration evaluates all single-bit
flips of the current reference against the fixed anchor, scores them on
the configured objective, and carries improving flips into the next
reference. The four strategies span two objectives (energy only, or
energy plus rate) and two flip policies (all improving tools at once, or
only the single best). The walk stops when a reference repeats or the
iteration guard is hit.

All BD values are computed against the one global anchor; only the
improvement comparison uses the current reference's score.
"""

from __future__ import annotations

import enum

from .curves import (BD_FIELDS, BdReport, PreparedAnchor, QualityAxis, aggregate_reports,
                     bd_report)
from .errors import ConfigError, CtpDseError
from .evaluators import EvaluationRequest, Evaluator
from .frozen import Frozen, set_field
from .profiles import Ctp, flip_tool, serialize_ctp

DEFAULT_MAX_ITERATIONS = 64


class Objective(enum.Enum):
    ENERGY = "energy"
    COMBINED = "combined"


class FlipPolicy(enum.Enum):
    ALL = "all"
    ONE = "one"


class TerminationReason(enum.Enum):
    REPEATED_REFERENCE = "repeated-reference"
    MAX_ITERATIONS = "max-iterations"


STRATEGIES = {
    "ea": (Objective.ENERGY, FlipPolicy.ALL),
    "e1": (Objective.ENERGY, FlipPolicy.ONE),
    "ca": (Objective.COMBINED, FlipPolicy.ALL),
    "c1": (Objective.COMBINED, FlipPolicy.ONE),
}


def parse_strategy(code: str) -> tuple[Objective, FlipPolicy]:
    try:
        return STRATEGIES[code.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {code!r}, expected one of {', '.join(sorted(STRATEGIES))}"
        ) from None


def strategy_code(objective: Objective, flip_policy: FlipPolicy) -> str:
    return {pair: code for code, pair in STRATEGIES.items()}[objective, flip_policy]


def score(report: BdReport, objective: Objective, quality_axis: QualityAxis) -> float:
    """Scalar minimization objective of one report.

    Energy minimizes BDDE on the chosen quality axis; Combined minimizes
    the unweighted sum BDDE + BDR on that axis.
    """
    bdr, bdde = report.pair(quality_axis)
    return bdde if objective is Objective.ENERGY else bdde + bdr


class DseConfig(Frozen):
    __slots__ = ("objective", "flip_policy", "anchor", "sequences", "qps", "quality_axis",
                 "max_iterations")

    def __init__(self, objective: Objective, flip_policy: FlipPolicy, anchor: Ctp,
                 sequences: tuple[str, ...], qps: tuple[int, ...],
                 quality_axis: QualityAxis = QualityAxis.VMAF,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
        # The request owns the sequence and qp rules, BD's qp minimum included.
        EvaluationRequest(anchor, sequences, qps)
        set_field(self, "objective", objective)
        set_field(self, "flip_policy", flip_policy)
        set_field(self, "anchor", anchor)
        set_field(self, "sequences", sequences)
        set_field(self, "qps", qps)
        set_field(self, "quality_axis", quality_axis)
        set_field(self, "max_iterations", max_iterations)

    @property
    def strategy(self) -> str:
        return strategy_code(self.objective, self.flip_policy)


class CandidateEval(Frozen):
    """One single-flip candidate of an iteration."""

    __slots__ = ("tool_index", "tool_name", "ctp", "report", "score", "improved")

    def __init__(self, tool_index: int, tool_name: str, ctp: Ctp, report: BdReport,
                 score: float, improved: bool):
        set_field(self, "tool_index", tool_index)
        set_field(self, "tool_name", tool_name)
        set_field(self, "ctp", ctp)
        set_field(self, "report", report)
        set_field(self, "score", score)
        set_field(self, "improved", improved)


class IterationLog(Frozen):
    __slots__ = ("reference", "reference_score", "candidates", "flipped_tools", "next_reference")

    def __init__(self, reference: Ctp, reference_score: float,
                 candidates: tuple[CandidateEval, ...], flipped_tools: tuple[int, ...],
                 next_reference: Ctp):
        set_field(self, "reference", reference)
        set_field(self, "reference_score", reference_score)
        set_field(self, "candidates", candidates)
        set_field(self, "flipped_tools", flipped_tools)
        set_field(self, "next_reference", next_reference)


class DseResult(Frozen):
    __slots__ = ("logs", "evaluated", "terminal_reference", "termination_reason")

    def __init__(self, logs: tuple[IterationLog, ...], evaluated: dict[Ctp, BdReport],
                 terminal_reference: Ctp, termination_reason: TerminationReason):
        set_field(self, "logs", logs)
        set_field(self, "evaluated", evaluated)
        set_field(self, "terminal_reference", terminal_reference)
        set_field(self, "termination_reason", termination_reason)


class EvaluationCache:
    """Anchor curves plus every profile's aggregated report, computed once.

    Reports are always aggregated over the config's sequences against the
    fixed anchor, so a profile is never re-sent to the backend: no
    (ctp, sequence, qp) triple is evaluated twice in a run.
    """

    def __init__(self, config: DseConfig, evaluator: Evaluator):
        """Evaluate and prepare the anchor; a bad anchor curve is rejected before any candidate."""
        self.config = config
        self.evaluator = evaluator
        self._anchors: dict[str, PreparedAnchor] | None = None
        self.reports: dict[Ctp, BdReport] = {config.anchor: self._evaluate(config.anchor)}

    def _evaluate(self, ctp: Ctp) -> BdReport:
        """Evaluate one profile and aggregate its BD reports against the anchor.

        The constructor's call evaluates the anchor, whose curves it
        prepares. Every error raised here carries the profile as
        ``failed_ctp``.
        """
        sequences = self.config.sequences
        try:
            request = EvaluationRequest(ctp, sequences, self.config.qps)
            curves = {c.sequence: c for c in self.evaluator.evaluate(request)}
            missing = [s for s in sequences if s not in curves]
            if missing:
                raise CtpDseError(f"backend returned no curve for sequences {missing}")
            if self._anchors is None:
                self._anchors = {s: PreparedAnchor(curves[s]) for s in sequences}
            return aggregate_reports(bd_report(self._anchors[s], curves[s]) for s in sequences)
        except CtpDseError as exc:
            exc.failed_ctp = ctp
            raise

    def compute(self, ctp: Ctp) -> BdReport:
        """Evaluate one profile against the anchor without touching the cache."""
        return self._evaluate(ctp)

    def report(self, ctp: Ctp) -> BdReport:
        if ctp not in self.reports:
            self.reports[ctp] = self.compute(ctp)
        return self.reports[ctp]


def run_iteration(reference: Ctp, cache: EvaluationCache) -> IterationLog:
    """Evaluate all single flips of ``reference`` and pick the next reference.

    Flips are evaluated one after another, and each report is cached as
    soon as it returns, so a failure keeps every flip finished before it.
    A candidate improves when its score is strictly below the reference
    score; equal scores never flip. The All policy applies every improving
    flip at once, the One policy only the lowest-scoring one (ties break
    to the lowest registry index). The walk's settings are ``cache.config``.
    """
    config = cache.config
    reference_score = score(cache.report(reference), config.objective, config.quality_axis)
    candidates = []
    for j, tool in enumerate(reference.registry.tools):
        candidate = flip_tool(reference, j)
        rep = cache.report(candidate)
        cand_score = score(rep, config.objective, config.quality_axis)
        candidates.append(CandidateEval(
            tool_index=j,
            tool_name=tool.name,
            ctp=candidate,
            report=rep,
            score=cand_score,
            improved=cand_score < reference_score,
        ))

    improving = [c for c in candidates if c.improved]
    if not improving:
        flipped: tuple[int, ...] = ()
    elif config.flip_policy is FlipPolicy.ALL:
        flipped = tuple(c.tool_index for c in improving)
    else:
        best = min(improving, key=lambda c: (c.score, c.tool_index))
        flipped = (best.tool_index,)

    next_reference = reference
    for j in flipped:
        next_reference = flip_tool(next_reference, j)

    return IterationLog(
        reference=reference,
        reference_score=reference_score,
        candidates=tuple(candidates),
        flipped_tools=flipped,
        next_reference=next_reference,
    )


def run_dse(config: DseConfig, evaluator: Evaluator) -> DseResult:
    """Run the greedy walk from the anchor until a reference repeats.

    Termination checks the next reference against every previous reference
    (anchor included), which also breaks cycles the All policy can enter.
    On an evaluation failure the raised error carries the failed profile
    as ``failed_ctp``, the finished iterations as ``partial_logs`` and the
    reports evaluated so far as ``partial_evaluated``.
    """
    logs: list[IterationLog] = []
    evaluated: dict[Ctp, BdReport] = {}
    try:
        cache = EvaluationCache(config, evaluator)
        evaluated = cache.reports
        seen = {config.anchor}
        reference = config.anchor
        termination = TerminationReason.MAX_ITERATIONS
        for _ in range(config.max_iterations):
            log = run_iteration(reference, cache)
            logs.append(log)
            if log.next_reference in seen:
                termination = TerminationReason.REPEATED_REFERENCE
                break
            seen.add(log.next_reference)
            reference = log.next_reference
        # An All-policy walk stopped by the iteration guard ends on a
        # multi-flip profile no iteration evaluated.
        cache.report(logs[-1].next_reference)
    except CtpDseError as exc:
        exc.partial_logs = tuple(logs)
        exc.partial_evaluated = dict(evaluated)
        raise
    return DseResult(
        logs=tuple(logs),
        evaluated=dict(evaluated),
        terminal_reference=logs[-1].next_reference,
        termination_reason=termination,
    )


def _report_to_dict(report: BdReport) -> dict:
    doc = {name: getattr(report, name) for name, _, _ in BD_FIELDS}
    if report.warnings:
        doc["warnings"] = list(report.warnings)
    return doc


def report_from_dict(doc: dict) -> BdReport:
    """The report a ``result.json`` entry was rendered from."""
    return BdReport(
        warnings=tuple(doc.get("warnings", ())),
        **{name: doc[name] for name, _, _ in BD_FIELDS},
    )


def result_to_document(result: DseResult, config: DseConfig) -> dict:
    """JSON-shaped, diff-stable rendering of a finished run."""
    return {
        "config": {
            "strategy": config.strategy,
            "objective": config.objective.value,
            "flip_policy": config.flip_policy.value,
            "quality_axis": config.quality_axis.value,
            "sequences": list(config.sequences),
            "qps": list(config.qps),
            "max_iterations": config.max_iterations,
            "anchor": serialize_ctp(config.anchor),
        },
        "iterations": [
            {
                "index": index,
                "reference": serialize_ctp(log.reference),
                "reference_score": log.reference_score,
                "candidates": [
                    {
                        "tool_index": c.tool_index,
                        "tool": c.tool_name,
                        "ctp": serialize_ctp(c.ctp),
                        "report": _report_to_dict(c.report),
                        "score": c.score,
                        "improved": c.improved,
                    }
                    for c in log.candidates
                ],
                "flipped_tools": [
                    log.reference.registry.tools[j].name for j in log.flipped_tools
                ],
                "next_reference": serialize_ctp(log.next_reference),
            }
            for index, log in enumerate(result.logs, 1)
        ],
        "evaluated": {
            serialize_ctp(ctp): _report_to_dict(report)
            # A fixed-width upper-case hex mask sorts as its integer does.
            for ctp, report in sorted(result.evaluated.items(), key=lambda item: item[0].mask)
        },
        "terminal_reference": serialize_ctp(result.terminal_reference),
        "termination_reason": result.termination_reason.value,
    }
