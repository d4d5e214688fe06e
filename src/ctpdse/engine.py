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
from dataclasses import dataclass

from .curves import BD_FIELDS, BdReport, QualityAxis, RdeCurve, aggregate_reports, bd_report
from .errors import ConfigError, CtpDseError
from .evaluators import EvaluationRequest, Evaluator
from .profiles import Ctp, flip_tool, serialize_ctp

# Self-BD of the anchor must vanish; anything bigger flags a broken backend.
ANCHOR_SELF_BD_TOL = 1e-9

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


@dataclass(frozen=True)
class DseConfig:
    objective: Objective
    flip_policy: FlipPolicy
    anchor: Ctp
    sequences: tuple[str, ...]
    qps: tuple[int, ...]
    quality_axis: QualityAxis = QualityAxis.VMAF
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        # Reuse the request validation for sequence/qp sanity.
        EvaluationRequest(self.anchor, self.sequences, self.qps)

    @property
    def strategy(self) -> str:
        return strategy_code(self.objective, self.flip_policy)


@dataclass(frozen=True)
class CandidateEval:
    """One single-flip candidate of an iteration."""

    tool_index: int
    tool_name: str
    ctp: Ctp
    report: BdReport
    score: float
    improved: bool


@dataclass(frozen=True)
class IterationLog:
    index: int
    reference: Ctp
    reference_score: float
    candidates: tuple[CandidateEval, ...]
    flipped_tools: tuple[int, ...]
    next_reference: Ctp


@dataclass(frozen=True)
class DseResult:
    logs: tuple[IterationLog, ...]
    evaluated: dict[Ctp, BdReport]
    terminal_reference: Ctp
    termination_reason: TerminationReason

    def terminal_report(self) -> BdReport:
        return self.evaluated[self.terminal_reference]


class EvaluationCache:
    """Anchor curves plus every profile's aggregated report, computed once.

    Reports are always aggregated over the config's sequences against the
    fixed anchor, so a profile is never re-sent to the backend: no
    (ctp, sequence, qp) triple is evaluated twice in a run.
    """

    def __init__(self, config: DseConfig, evaluator: Evaluator):
        self.config = config
        self.evaluator = evaluator
        self.reports: dict[Ctp, BdReport] = {}
        self._anchor_curves: dict[str, RdeCurve] | None = None

    def _curves(self, ctp: Ctp) -> dict[str, RdeCurve]:
        request = EvaluationRequest(ctp, self.config.sequences, self.config.qps)
        curves = {c.sequence: c for c in self.evaluator.evaluate(request)}
        missing = [s for s in self.config.sequences if s not in curves]
        if missing:
            raise CtpDseError(
                f"backend returned no curve for sequences {missing} "
                f"(profile {serialize_ctp(ctp)})"
            )
        return curves

    def bootstrap_anchor(self) -> BdReport:
        """Evaluate the anchor through the same pipeline and check self-BD is ~0."""
        anchor = self.config.anchor
        self._anchor_curves = self._curves(anchor)
        report = aggregate_reports(
            bd_report(self._anchor_curves[s], self._anchor_curves[s])
            for s in self.config.sequences
        )
        for name, _, _ in BD_FIELDS:
            if abs(getattr(report, name)) > ANCHOR_SELF_BD_TOL:
                raise CtpDseError(
                    f"anchor self-BD {name} = {getattr(report, name)!r} is not ~0; "
                    "the evaluation backend is not deterministic"
                )
        self.reports[anchor] = report
        return report

    def compute(self, ctp: Ctp) -> BdReport:
        """Evaluate one profile against the anchor without touching the cache."""
        assert self._anchor_curves is not None, "anchor must be bootstrapped first"
        try:
            curves = self._curves(ctp)
            return aggregate_reports(
                bd_report(self._anchor_curves[s], curves[s]) for s in self.config.sequences
            )
        except CtpDseError as exc:
            exc.failed_ctp = ctp
            raise

    def report(self, ctp: Ctp) -> BdReport:
        if ctp not in self.reports:
            self.reports[ctp] = self.compute(ctp)
        return self.reports[ctp]


def run_iteration(
    reference: Ctp,
    config: DseConfig,
    cache: EvaluationCache,
    index: int = 1,
) -> IterationLog:
    """Evaluate all single flips of ``reference`` and pick the next reference.

    Flips are evaluated one after another, and each report is cached as
    soon as it returns, so a failure keeps every flip finished before it.
    A candidate improves when its score is strictly below the reference
    score; equal scores never flip. The All policy applies every improving
    flip at once, the One policy only the lowest-scoring one (ties break
    to the lowest registry index).
    """
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
        index=index,
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
    On an evaluation failure the raised error carries ``failed_ctp``,
    ``partial_logs`` and ``partial_evaluated`` so a caller can resume.
    """
    cache = EvaluationCache(config, evaluator)
    logs: list[IterationLog] = []
    try:
        cache.bootstrap_anchor()
        seen = {config.anchor}
        reference = config.anchor
        termination = TerminationReason.MAX_ITERATIONS
        for index in range(1, config.max_iterations + 1):
            log = run_iteration(reference, config, cache, index=index)
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
        exc.failed_ctp = getattr(exc, "failed_ctp", None)
        exc.partial_logs = tuple(logs)
        exc.partial_evaluated = dict(cache.reports)
        raise
    return DseResult(
        logs=tuple(logs),
        evaluated=dict(cache.reports),
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
                "index": log.index,
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
            for log in result.logs
        ],
        "evaluated": {
            serialize_ctp(ctp): _report_to_dict(report)
            for ctp, report in sorted(
                result.evaluated.items(), key=lambda item: serialize_ctp(item[0])
            )
        },
        "terminal_reference": serialize_ctp(result.terminal_reference),
        "termination_reason": result.termination_reason.value,
    }
