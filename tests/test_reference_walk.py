"""``run_dse`` against a reference walk written from the paper's description.

The reference gets its values from the backend, ``bd_report`` and
``aggregate_reports`` alone; it shares no code with the engine's cache,
iteration, scoring or flips. Hypothesis draws the registry, sequences,
qps, model, anchor, strategy, axis and iteration cap. ``run_dse`` must
give the reference's walk, ask for each profile once and in the
reference's order, and, when the k-th evaluation fails, name that
profile and keep exactly the ones before it. Half the models draw their
per-tool factors from three values, so equal scores, and with them the
lowest-index rule, come up too.

Every supported Python runs this file, so it imports only pytest,
hypothesis and the package.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctpdse.curves import PreparedAnchor, QualityAxis, aggregate_reports, bd_report
from ctpdse.engine import STRATEGIES, DseConfig, FlipPolicy, Objective, run_dse
from ctpdse.errors import EvaluationError
from ctpdse.evaluators import EvaluationRequest, SyntheticModelEvaluator, SyntheticModelParams
from ctpdse.profiles import Ctp

from conftest import make_registry


def reference_walk(config, evaluator):
    """The paper's greedy walk over masks: its iterations, its reports in asking order, its end.

    Each iteration evaluates the reference and each of its single flips.
    A flip improves when its score is strictly below the reference's;
    All flips every improving tool, One the lowest (score, index). The
    walk stops when the next reference repeats an earlier one, the
    anchor included, or after ``max_iterations``, and then evaluates
    the terminal reference.
    """
    registry, sequences, axis = config.anchor.registry, config.sequences, config.quality_axis
    reports, anchors = {}, {}

    def objective(mask):
        if mask not in reports:
            request = EvaluationRequest(Ctp(registry, mask), sequences, config.qps)
            curves = {curve.sequence: curve for curve in evaluator.evaluate(request)}
            if not anchors:
                anchors.update((s, PreparedAnchor(curves[s])) for s in sequences)
            reports[mask] = aggregate_reports(bd_report(anchors[s], curves[s]) for s in sequences)
        bdde = getattr(reports[mask], "bdde_" + axis.value)
        if config.objective is Objective.ENERGY:
            return bdde
        return bdde + getattr(reports[mask], "bdr_" + axis.value)

    iterations, seen, reference = [], [config.anchor.mask], config.anchor.mask
    reason = "max-iterations"
    for _ in range(config.max_iterations):
        reference_score = objective(reference)
        candidates = [(reference ^ 1 << j, objective(reference ^ 1 << j))
                      for j in range(len(registry))]
        improving = [(s, j) for j, (_, s) in enumerate(candidates) if s < reference_score]
        if config.flip_policy is FlipPolicy.ONE:
            improving = sorted(improving)[:1]
        next_reference = reference
        for _, j in improving:
            next_reference ^= 1 << j
        iterations.append((reference, reference_score,
                           [(mask, s, s < reference_score) for mask, s in candidates],
                           [registry.tools[j].name for _, j in improving], next_reference))
        if next_reference in seen:
            reason = "repeated-reference"
            break
        seen.append(next_reference)
        reference = next_reference
    objective(next_reference)
    return iterations, reports, reason


def walk_of(body):
    """``run_dse``'s iterations in the reference's terms, with masks for profiles."""
    return [(int(entry["reference"], 16), entry["reference_score"],
             [(int(c["ctp"], 16), c["score"], c["improved"]) for c in entry["candidates"]],
             entry["flipped_tools"], int(entry["next_reference"], 16))
            for entry in body["iterations"]]


class Recording:
    """Records the mask of each profile it is asked for; the call numbered ``fail_at`` fails."""

    def __init__(self, inner, fail_at=None):
        self.inner, self.fail_at, self.masks = inner, fail_at, []

    def evaluate(self, request):
        if len(self.masks) == self.fail_at:
            raise EvaluationError("the meter went away")
        self.masks.append(request.ctp.mask)
        return self.inner.evaluate(request)


def quantised(params, rate, energy, psnr, vmaf, interactions=()):
    """``params``' baselines with the given per-tool factors and energy interactions."""
    return SyntheticModelParams(params.baselines, rate, energy, psnr, vmaf, interactions)


@st.composite
def walks(draw):
    """A config, a synthetic evaluator and a draw of which evaluation fails."""
    n = draw(st.integers(2, 10))
    registry = make_registry(n)
    sequences = ("s01", "s02", "s03")[:draw(st.integers(1, 3))]
    qps = tuple(sorted(draw(st.lists(st.integers(10, 51), min_size=4, max_size=6, unique=True))))
    params = SyntheticModelParams.random(registry, sequences, qps, draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        def factors(values):
            return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n).map(tuple))

        # A pair that costs energy only when both tools are on lets an All walk overshoot
        # and cycle.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                          st.sampled_from((0.8, 1.3))).filter(lambda pair: pair[0] < pair[1])
        params = quantised(params, factors((0.9, 1.0, 1.1)), factors((0.9, 1.0, 1.1)),
                           factors((-0.2, 0.0, 0.2)), factors((-0.5, 0.0, 0.5)),
                           tuple(draw(st.lists(pairs, max_size=2, unique_by=lambda p: p[:2]))))
    objective, flip_policy = STRATEGIES[draw(st.sampled_from(sorted(STRATEGIES)))]
    config = DseConfig(objective, flip_policy, Ctp(registry, draw(st.integers(0, (1 << n) - 1))),
                       sequences, qps, draw(st.sampled_from(QualityAxis)),
                       draw(st.integers(1, 12)))
    return config, SyntheticModelEvaluator(params), draw(st.integers(0, 1000))


def tied_walk():
    """A One walk whose first step has two improving flips of equal lowest score, tools 1 and 3.

    Tools 1 and 3 have the same factors, so flipping either gives the
    same curves; tools 0 and 2 give worse scores than both.
    """
    registry = make_registry(4)
    params = SyntheticModelParams.random(registry, ("s01",), (22, 27, 32, 37), 7)
    params = quantised(params, (1.0, 1.1, 1.0, 1.1), (0.9, 1.1, 1.0, 1.1), (0.0,) * 4, (0.0,) * 4)
    config = DseConfig(Objective.ENERGY, FlipPolicy.ONE, Ctp(registry, 0b1111), ("s01",),
                       (22, 27, 32, 37), QualityAxis.VMAF, 5)
    return config, SyntheticModelEvaluator(params)


def cycling_walk():
    """An All walk that flips both tools on, overshoots, and flips both back to the anchor.

    Each tool alone saves energy, but the two together cost more than
    the anchor, so the walk returns to the anchor, two references back.
    """
    registry = make_registry(2)
    params = SyntheticModelParams.random(registry, ("s01",), (22, 27, 32, 37), 7)
    params = quantised(params, (1.0, 1.0), (0.9, 0.9), (0.0, 0.0), (0.0, 0.0), ((0, 1, 1.3),))
    config = DseConfig(Objective.ENERGY, FlipPolicy.ALL, Ctp(registry, 0b00), ("s01",),
                       (22, 27, 32, 37), QualityAxis.VMAF, 12)
    return config, SyntheticModelEvaluator(params)


def test_the_examples_reach_the_rules_they_claim():
    iterations, _, reason = reference_walk(*tied_walk())
    _, reference_score, candidates, flipped, _ = iterations[0]
    scores = [s for _, s, _ in candidates]
    assert scores[1] == scores[3] < reference_score
    assert all(s > scores[1] for s in (scores[0], scores[2]))
    assert flipped == ["T01"]

    iterations, _, reason = reference_walk(*cycling_walk())
    assert [(reference, next_reference) for reference, *_, next_reference in iterations] == [
        (0b00, 0b11), (0b11, 0b00)]
    assert reason == "repeated-reference"


@settings(max_examples=150, deadline=None)
@given(walks())
@example((*tied_walk(), 3))
@example((*cycling_walk(), 2))
def test_run_dse_walks_as_the_reference_does(case):
    config, evaluator, fail_at = case
    iterations, reports, reason = reference_walk(config, evaluator)
    asked = list(reports)

    recording = Recording(evaluator)
    body = run_dse(config, recording)
    assert walk_of(body) == iterations
    assert [entry["index"] for entry in body["iterations"]] == list(range(1, len(iterations) + 1))
    assert [int(mask, 16) for mask in body["evaluated"]] == sorted(asked)
    assert int(body["terminal_reference"], 16) == iterations[-1][-1]
    assert body["termination_reason"] == reason
    assert recording.masks == asked

    k = fail_at % len(asked)
    with pytest.raises(EvaluationError) as raised:
        run_dse(config, Recording(evaluator, fail_at=k))
    assert raised.value.failed_ctp.mask == asked[k]
    assert raised.value.partial_evaluated == {
        Ctp(config.anchor.registry, mask): reports[mask] for mask in asked[:k]}
