"""Iterative greedy exploration of the coding-tool design space.

Starting from the anchor profile, every iteration evaluates all single-bit
flips of the current reference against the fixed anchor, scores them on
the configured objective, and carries improving flips into the next
reference. The four strategies span two objectives (energy only, or
energy plus rate) and two flip policies (all improving tools at once, or
only the single best). The walk stops when a reference repeats or the
iteration guard is hit. It builds its ``result.json`` entries as it goes
and returns the document's body.

All BD values are computed against the one global anchor; only the
improvement comparison uses the current reference's score.
"""

from __future__ import annotations

import enum

from .curves import BdReport, PreparedAnchor, QualityAxis, aggregate_reports, bd_report
from .errors import ConfigError, CtpDseError
from .evaluators import EvaluationRequest, Evaluator, check_qps, check_sequences
from .frozen import Frozen
from .profiles import Ctp, flip_tool, serialize_ctp

DEFAULT_MAX_ITERATIONS = 64


class Objective(enum.Enum):
    ENERGY = "energy"
    COMBINED = "combined"


class FlipPolicy(enum.Enum):
    ALL = "all"
    ONE = "one"


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
    __slots__ = ()
    _fields = ("objective", "flip_policy", "anchor", "sequences", "qps", "quality_axis",
               "max_iterations")

    def __new__(cls, objective: Objective, flip_policy: FlipPolicy, anchor: Ctp,
                sequences: tuple[str, ...], qps: tuple[int, ...],
                quality_axis: QualityAxis = QualityAxis.VMAF,
                max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
        check_sequences(sequences)
        check_qps(qps)
        return tuple.__new__(
            cls, (objective, flip_policy, anchor, sequences, qps, quality_axis, max_iterations))

    @property
    def strategy(self) -> str:
        return strategy_code(self.objective, self.flip_policy)


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


def run_iteration(reference: Ctp, cache: EvaluationCache) -> tuple[dict, Ctp]:
    """Evaluate all single flips of ``reference`` and pick the next reference.

    Returns the iteration's ``result.json`` entry and the next reference.
    The entry holds ``reference``, ``reference_score``, ``candidates``,
    ``flipped_tools`` (tool names) and ``next_reference``; each candidate
    holds ``tool_index``, ``tool``, ``ctp``, ``report``, ``score`` and
    ``improved``. Profiles appear as hex masks.

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
        report = cache.report(candidate)
        cand_score = score(report, config.objective, config.quality_axis)
        candidates.append({
            "tool_index": j,
            "tool": tool.name,
            "ctp": serialize_ctp(candidate),
            "report": report.as_dict(),
            "score": cand_score,
            "improved": cand_score < reference_score,
        })

    flipped = [c for c in candidates if c["improved"]]
    if flipped and config.flip_policy is FlipPolicy.ONE:
        flipped = [min(flipped, key=lambda c: (c["score"], c["tool_index"]))]

    next_reference = reference
    for c in flipped:
        next_reference = flip_tool(next_reference, c["tool_index"])

    entry = {
        "reference": serialize_ctp(reference),
        "reference_score": reference_score,
        "candidates": candidates,
        "flipped_tools": [c["tool"] for c in flipped],
        "next_reference": serialize_ctp(next_reference),
    }
    return entry, next_reference


def run_dse(config: DseConfig, evaluator: Evaluator) -> dict:
    """Run the greedy walk from the anchor until a reference repeats.

    Returns the body of ``result.json``: ``iterations`` (the entries of
    ``run_iteration``, each numbered by ``index`` from 1), ``evaluated``
    (every profile's report, keyed by hex mask in mask order),
    ``terminal_reference`` and ``termination_reason``
    (``"repeated-reference"`` or ``"max-iterations"``).

    Termination checks the next reference against every previous reference
    (anchor included), which also breaks cycles the All policy can enter.
    On an evaluation failure the raised error carries the failed profile
    as ``failed_ctp``, the finished entries as ``partial_logs`` and the
    reports evaluated so far as ``partial_evaluated``.
    """
    iterations: list[dict] = []
    evaluated: dict[Ctp, BdReport] = {}
    try:
        cache = EvaluationCache(config, evaluator)
        evaluated = cache.reports
        seen = {config.anchor}
        reference = config.anchor
        termination = "max-iterations"
        for index in range(1, config.max_iterations + 1):
            entry, next_reference = run_iteration(reference, cache)
            iterations.append({"index": index, **entry})
            if next_reference in seen:
                termination = "repeated-reference"
                break
            seen.add(next_reference)
            reference = next_reference
        # An All-policy walk stopped by the iteration guard ends on a
        # multi-flip profile no iteration evaluated.
        cache.report(next_reference)
    except CtpDseError as exc:
        exc.partial_logs = iterations
        exc.partial_evaluated = dict(evaluated)
        raise
    return {
        "iterations": iterations,
        "evaluated": {
            serialize_ctp(ctp): report.as_dict()
            # A fixed-width upper-case hex mask sorts as its integer does.
            for ctp, report in sorted(evaluated.items(), key=lambda item: item[0].mask)
        },
        "terminal_reference": iterations[-1]["next_reference"],
        "termination_reason": termination,
    }


def result_to_document(result: dict, config: DseConfig) -> dict:
    """``result.json`` without its manifest: the config, then the body ``run_dse`` returns."""
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
        **result,
    }
