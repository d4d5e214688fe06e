import subprocess
import threading
import time
from pathlib import Path

import pytest

from ctpdse import evaluators
from ctpdse.curves import BdReport, aggregate_reports, bd_report
from ctpdse.engine import (
    DseConfig,
    EvaluationCache,
    FlipPolicy,
    Objective,
    QualityAxis,
    TerminationReason,
    parse_strategy,
    result_to_document,
    run_dse,
    run_iteration,
    score,
    strategy_code,
)
from ctpdse.errors import ConfigError, EvaluationError
from ctpdse.evaluators import (
    EvaluationRequest,
    ExternalCommandEvaluator,
    SyntheticModelEvaluator,
    SyntheticModelParams,
)
from ctpdse.manifest import canonical_json
from ctpdse.profiles import Ctp, default_ctp, serialize_ctp

from conftest import BASE_QPS, make_params, make_registry


def make_config(registry, strategy="e1", max_iterations=64, sequences=("s01",)):
    objective, flip_policy = parse_strategy(strategy)
    return DseConfig(
        objective=objective,
        flip_policy=flip_policy,
        anchor=default_ctp(registry),
        sequences=tuple(sequences),
        qps=BASE_QPS,
        quality_axis=QualityAxis.VMAF,
        max_iterations=max_iterations,
    )


def run_strategy(params, registry, strategy, **kwargs):
    config = make_config(registry, strategy, **kwargs)
    return config, run_dse(config, SyntheticModelEvaluator(params))


def exhaustive_scores(params, registry, objective, axis=QualityAxis.VMAF, sequences=("s01",)):
    """Score every profile by brute-force enumeration (small registries only)."""
    evaluator = SyntheticModelEvaluator(params)
    anchor = default_ctp(registry)
    anchor_curves = {
        c.sequence: c
        for c in evaluator.evaluate(EvaluationRequest(anchor, sequences, BASE_QPS))
    }
    scores = {}
    for value in range(2 ** len(registry)):
        bits = tuple(bool(value >> i & 1) for i in range(len(registry)))
        ctp = Ctp(registry, bits)
        curves = evaluator.evaluate(EvaluationRequest(ctp, sequences, BASE_QPS))
        report = aggregate_reports(
            bd_report(anchor_curves[c.sequence], c) for c in curves
        )
        scores[ctp] = score(report, objective, axis)
    return scores


class TestScore:
    def test_combined_vmaf_is_plain_sum(self):
        report = BdReport(bdr_psnr=5.0, bdr_vmaf=10.0, bdde_psnr=-7.0, bdde_vmaf=-40.0)
        assert score(report, Objective.COMBINED, QualityAxis.VMAF) == -30.0

    def test_energy_projects_single_field(self):
        report = BdReport(bdr_psnr=5.0, bdr_vmaf=10.0, bdde_psnr=-7.0, bdde_vmaf=-40.0)
        assert score(report, Objective.ENERGY, QualityAxis.PSNR) == -7.0
        assert score(report, Objective.ENERGY, QualityAxis.VMAF) == -40.0
        assert score(report, Objective.COMBINED, QualityAxis.PSNR) == -2.0
        assert report.pair(QualityAxis.PSNR) == (5.0, -7.0)
        assert report.pair(QualityAxis.VMAF) == (10.0, -40.0)

    def test_anchor_report_scores_zero(self):
        zero = BdReport(0.0, 0.0, 0.0, 0.0)
        for objective in Objective:
            for axis in QualityAxis:
                assert score(zero, objective, axis) == 0.0


class TestStrategyNames:
    @pytest.mark.parametrize("code,expected", [
        ("ea", (Objective.ENERGY, FlipPolicy.ALL)),
        ("E1", (Objective.ENERGY, FlipPolicy.ONE)),
        ("ca", (Objective.COMBINED, FlipPolicy.ALL)),
        ("c1", (Objective.COMBINED, FlipPolicy.ONE)),
    ])
    def test_parse(self, code, expected):
        assert parse_strategy(code) == expected

    def test_unknown_code(self):
        with pytest.raises(ConfigError, match="strategy"):
            parse_strategy("zz")

    def test_round_trip(self):
        for code in ("ea", "e1", "ca", "c1"):
            assert strategy_code(*parse_strategy(code)) == code


class TestConfig:
    def test_max_iterations_guard(self):
        registry = make_registry(3)
        with pytest.raises(ConfigError, match="max_iterations"):
            make_config(registry, max_iterations=0)


class TestRunIteration:
    def test_unique_improver_flips_for_both_policies(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        for strategy in ("e1", "ea"):
            config = make_config(registry, strategy)
            evaluator = SyntheticModelEvaluator(params)
            cache = EvaluationCache(config, evaluator)
            cache.bootstrap_anchor()
            log = run_iteration(config.anchor, config, cache)
            assert log.flipped_tools == (0,)
            assert log.next_reference.bits == (False, True, True)

    def test_two_improvers_all_versus_one(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        config_all = make_config(registry, "ea")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config_all, evaluator)
        cache.bootstrap_anchor()
        log_all = run_iteration(config_all.anchor, config_all, cache)
        assert log_all.flipped_tools == (0, 1)

        config_one = make_config(registry, "e1")
        cache = EvaluationCache(config_one, evaluator)
        cache.bootstrap_anchor()
        log_one = run_iteration(config_one.anchor, config_one, cache)
        assert log_one.flipped_tools == (0,)  # -33.3% beats -16.7%

    def test_tie_breaks_to_lowest_index(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.2, 1.2, 1.0))
        config = make_config(registry, "e1")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        cache.bootstrap_anchor()
        log = run_iteration(config.anchor, config, cache)
        scores = {c.tool_index: c.score for c in log.candidates}
        assert scores[0] == scores[1]
        assert log.flipped_tools == (0,)

    def test_equal_score_never_flips(self):
        registry = make_registry(3)
        params = make_params(3)  # every tool is neutral
        config = make_config(registry, "ea")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        cache.bootstrap_anchor()
        log = run_iteration(config.anchor, config, cache)
        assert log.flipped_tools == ()
        assert log.next_reference == config.anchor

    def test_one_candidate_per_registry_tool(self):
        registry = make_registry(5)
        params = make_params(5)
        config = make_config(registry, "e1")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        cache.bootstrap_anchor()
        log = run_iteration(config.anchor, config, cache)
        assert [c.tool_index for c in log.candidates] == list(range(5))
        assert {c.tool_name for c in log.candidates} == {t.name for t in registry.tools}

    def test_flipped_subset_of_improved(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=21)
        config = make_config(registry, "ca")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        cache.bootstrap_anchor()
        log = run_iteration(config.anchor, config, cache)
        improved = {c.tool_index for c in log.candidates if c.improved}
        assert set(log.flipped_tools) <= improved


class TestRunDse:
    def test_immediate_fixpoint(self):
        registry = make_registry(3)
        params = make_params(3)
        _, result = run_strategy(params, registry, "e1")
        assert len(result.logs) == 1
        assert result.termination_reason is TerminationReason.REPEATED_REFERENCE
        assert result.terminal_reference == default_ctp(registry)

    @pytest.mark.parametrize("strategy", ["e1", "ea"])
    def test_unique_improver_takes_two_iterations(self, strategy):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        _, result = run_strategy(params, registry, strategy)
        assert len(result.logs) == 2
        assert result.termination_reason is TerminationReason.REPEATED_REFERENCE
        assert result.terminal_reference.bits == (False, True, True)

    def test_all_policy_overshoot_is_recorded_and_cycle_broken(self):
        # disabling either interacting tool alone helps, disabling both
        # overshoots; repeat detection stops the two-step cycle
        registry = make_registry(3)
        params = make_params(3, energy_mult=(0.6, 0.6, 1.0), interactions=((0, 1, 2.0),))
        _, result = run_strategy(params, registry, "ea")
        assert len(result.logs) == 2
        assert result.logs[0].flipped_tools == (0, 1)
        assert result.logs[1].reference_score > result.logs[0].reference_score
        assert result.termination_reason is TerminationReason.REPEATED_REFERENCE
        assert result.terminal_reference == default_ctp(registry)

    def test_one_policy_on_overshoot_model_keeps_single_flip(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(0.6, 0.6, 1.0), interactions=((0, 1, 2.0),))
        _, result = run_strategy(params, registry, "e1")
        assert result.terminal_reference.bits == (False, True, True)
        scores = [log.reference_score for log in result.logs]
        assert scores == sorted(scores, reverse=True)
        assert result.logs[-1].flipped_tools == ()

    def test_greedy_can_miss_the_global_optimum(self):
        # each tool alone is worth keeping, the pair is not: a single-flip
        # walk stays at the anchor while the true minimum disables both
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.8, 1.8, 1.0), interactions=((0, 1, 0.5),))
        config, result = run_strategy(params, registry, "e1")
        assert result.terminal_reference == config.anchor
        scores = exhaustive_scores(params, registry, Objective.ENERGY)
        best = min(scores, key=scores.get)
        assert scores[best] < scores[result.terminal_reference] - 1.0
        assert best != result.terminal_reference

    def test_terminal_is_single_flip_local_minimum(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=5)
        config, result = run_strategy(params, registry, "e1")
        scores = exhaustive_scores(params, registry, Objective.ENERGY)
        terminal = result.terminal_reference
        for j in range(4):
            neighbour = Ctp(registry, tuple(
                not b if i == j else b for i, b in enumerate(terminal.bits)
            ))
            assert scores[neighbour] >= scores[terminal]

    def test_max_iterations_guard_reached(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        _, result = run_strategy(params, registry, "e1", max_iterations=1)
        assert result.termination_reason is TerminationReason.MAX_ITERATIONS
        assert len(result.logs) == 1
        assert result.terminal_reference == result.logs[-1].next_reference

    def test_references_never_revisited_before_termination(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=17)
        for strategy in ("ea", "e1", "ca", "c1"):
            _, result = run_strategy(params, registry, strategy)
            masks = [serialize_ctp(log.reference) for log in result.logs]
            assert len(masks) == len(set(masks))

    def test_every_logged_ctp_is_in_evaluated(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=2)
        _, result = run_strategy(params, registry, "c1")
        for log in result.logs:
            assert log.reference in result.evaluated
            assert log.next_reference in result.evaluated
            for candidate in log.candidates:
                assert candidate.ctp in result.evaluated

    def test_anchor_self_report_is_zero(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=2)
        config, result = run_strategy(params, registry, "e1")
        anchor_report = result.evaluated[config.anchor]
        assert anchor_report.bdde_vmaf == 0.0
        assert anchor_report.bdr_vmaf == 0.0


class CountingEvaluator:
    """Wrapper that records which profile masks were evaluated."""

    def __init__(self, inner):
        self.inner = inner
        self.masks = []

    def evaluate(self, request):
        self.masks.append(serialize_ctp(request.ctp))
        return self.inner.evaluate(request)


class FailAfter(CountingEvaluator):
    def __init__(self, inner, allowed_calls):
        super().__init__(inner)
        self.allowed_calls = allowed_calls

    def evaluate(self, request):
        if len(self.masks) >= self.allowed_calls:
            raise EvaluationError("power meter went away")
        return super().evaluate(request)


class TestCachingAndErrors:
    def test_no_profile_evaluated_twice(self):
        registry = make_registry(5)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=7)
        evaluator = CountingEvaluator(SyntheticModelEvaluator(params))
        config = make_config(registry, "ea")
        run_dse(config, evaluator)
        assert len(evaluator.masks) == len(set(evaluator.masks))

    def test_cached_reports_match_fresh_evaluation(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=9)
        config, result = run_strategy(params, registry, "c1")
        cache = EvaluationCache(config, SyntheticModelEvaluator(params))
        cache.bootstrap_anchor()
        for ctp in list(result.evaluated)[:6]:
            if ctp == config.anchor:
                continue
            assert cache.compute(ctp) == result.evaluated[ctp]

    def test_failure_carries_partial_state(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        # anchor + 3 candidates = 4 calls for iteration 1; fail inside iteration 2
        evaluator = FailAfter(SyntheticModelEvaluator(params), allowed_calls=5)
        config = make_config(registry, "e1")
        with pytest.raises(EvaluationError) as err:
            run_dse(config, evaluator)
        assert len(err.value.partial_logs) == 1
        assert err.value.partial_logs[0].flipped_tools == (0,)
        assert config.anchor in err.value.partial_evaluated
        # anchor, three flips of iteration 1 and the flip that finished
        # inside iteration 2 before the failing one
        assert len(err.value.partial_evaluated) == 5
        assert err.value.failed_ctp is not None


class TestConcurrency:
    def test_max_parallel_caps_child_jobs_of_a_run(self, monkeypatch):
        lock = threading.Lock()
        running = peak = 0
        header = "qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples"

        def fake_run(argv, **kwargs):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            try:
                qp = int(argv[2])
                # every profile measures like the anchor, so the walk stops
                # after one iteration of three flips
                Path(argv[-1]).write_text(
                    f"{header}\n{qp},{100000.0 / qp},{60.0 - qp / 2},{100.0 - qp},"
                    f"{1000.0 / qp},\n"
                )
                time.sleep(0.02)
            finally:
                with lock:
                    running -= 1
            return subprocess.CompletedProcess(argv, 0, "", "")

        monkeypatch.setattr(evaluators.subprocess, "run", fake_run)
        evaluator = ExternalCommandEvaluator("enc {sequence} {qp} {ctp_mask} {out}",
                                             max_parallel=3)
        config = make_config(make_registry(3), "e1", sequences=("s01", "s02"))
        result = run_dse(config, evaluator)
        assert len(result.evaluated) == 4
        assert 1 < peak <= 3


class TestDeterminism:
    def test_identical_runs_render_identically(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01", "s02"), BASE_QPS, seed=4)
        texts = []
        for _ in range(2):
            config, result = run_strategy(params, registry, "c1", sequences=("s01", "s02"))
            texts.append(canonical_json(result_to_document(result, config)))
        assert texts[0] == texts[1]

    def test_document_shape(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        config, result = run_strategy(params, registry, "e1")
        document = result_to_document(result, config)
        assert document["config"]["strategy"] == "e1"
        assert document["termination_reason"] == "repeated-reference"
        assert document["terminal_reference"] in document["evaluated"]
        first = document["iterations"][0]
        assert first["flipped_tools"] == ["T00"]
        assert len(first["candidates"]) == 3


class TestStrategyDivergence:
    def test_energy_and_combined_rank_candidates_differently(self):
        # tool 0 saves the most energy but is rate-expensive to disable;
        # tool 1 saves less energy at almost no rate cost
        registry = make_registry(3)
        params = make_params(
            3,
            rate_mult=(0.7, 0.98, 1.0),
            energy_mult=(1.5, 1.3, 1.0),
        )
        evaluator = SyntheticModelEvaluator(params)

        config_e = make_config(registry, "e1")
        cache = EvaluationCache(config_e, evaluator)
        cache.bootstrap_anchor()
        log_e = run_iteration(config_e.anchor, config_e, cache)
        assert log_e.flipped_tools == (0,)
        by_index = {c.tool_index: c for c in log_e.candidates}
        assert by_index[0].report.bdde_vmaf == pytest.approx(100 * (1 / 1.5 - 1), rel=1e-9)
        assert by_index[0].report.bdr_vmaf == pytest.approx(100 * (1 / 0.7 - 1), rel=1e-9)
        assert by_index[1].report.bdde_vmaf == pytest.approx(100 * (1 / 1.3 - 1), rel=1e-9)
        assert by_index[1].report.bdr_vmaf == pytest.approx(100 * (1 / 0.98 - 1), rel=1e-9)

        config_c = make_config(registry, "c1")
        cache = EvaluationCache(config_c, evaluator)
        cache.bootstrap_anchor()
        log_c = run_iteration(config_c.anchor, config_c, cache)
        assert log_c.flipped_tools == (1,)

        config_ea = make_config(registry, "ea")
        cache = EvaluationCache(config_ea, evaluator)
        cache.bootstrap_anchor()
        assert run_iteration(config_ea.anchor, config_ea, cache).flipped_tools == (0, 1)

        config_ca = make_config(registry, "ca")
        cache = EvaluationCache(config_ca, evaluator)
        cache.bootstrap_anchor()
        assert run_iteration(config_ca.anchor, config_ca, cache).flipped_tools == (1,)
