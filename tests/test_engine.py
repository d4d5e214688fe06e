import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ctpdse
from ctpdse import cli, evaluators
from ctpdse.curves import (BD_FIELDS, BdReport, PreparedAnchor, RdeCurve, RdePoint,
                           aggregate_reports, bd_report)
from ctpdse.engine import (
    DseConfig,
    EvaluationCache,
    FlipPolicy,
    Objective,
    QualityAxis,
    parse_strategy,
    result_to_document,
    run_dse,
    run_iteration,
    score,
    strategy_code,
)
from ctpdse.errors import ConfigError, CtpDseError, EvaluationError
from ctpdse.evaluators import (
    EvaluationRequest,
    ExternalCommandEvaluator,
    SyntheticModelEvaluator,
    SyntheticModelParams,
)
from ctpdse.manifest import canonical_json
from ctpdse.profiles import Ctp, default_ctp, default_registry, parse_ctp, serialize_ctp

from conftest import BASE_QPS, make_params, make_registry
from test_evaluators import RESULT_ROWS, copy_template, write_result_fixtures


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
    anchors = {
        c.sequence: PreparedAnchor(c)
        for c in evaluator.evaluate(EvaluationRequest(anchor, sequences, BASE_QPS))
    }
    scores = {}
    for value in range(2 ** len(registry)):
        ctp = Ctp(registry, value)
        curves = evaluator.evaluate(EvaluationRequest(ctp, sequences, BASE_QPS))
        report = aggregate_reports(
            bd_report(anchors[c.sequence], c) for c in curves
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

    def test_validates_sequences_and_qps(self):
        ctp = default_ctp(make_registry(3))

        def config(sequences, qps):
            return DseConfig(Objective.ENERGY, FlipPolicy.ONE, ctp, sequences, qps)

        with pytest.raises(ConfigError, match="sequence"):
            config((), (22,))
        with pytest.raises(ConfigError, match="sequence"):
            config(("s01", ""), (22,))
        with pytest.raises(ConfigError, match=r"must not repeat, got \('s01', 's02', 's01'\)"):
            config(("s01", "s02", "s01"), (22,))
        with pytest.raises(ConfigError, match="qp"):
            config(("s01",), ())
        with pytest.raises(ConfigError, match="strictly increasing"):
            config(("s01",), (27, 22))
        with pytest.raises(ConfigError, match="BD needs at least 4 qps, got 3"):
            config(("s01",), (22, 27, 32))


class TestRunIteration:
    def test_unique_improver_flips_for_both_policies(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        for strategy in ("e1", "ea"):
            config = make_config(registry, strategy)
            evaluator = SyntheticModelEvaluator(params)
            cache = EvaluationCache(config, evaluator)
            entry, next_reference = run_iteration(config.anchor, cache)
            assert entry["flipped_tools"] == ["T00"]
            assert next_reference.mask == 0b110
            assert entry["next_reference"] == "6"

    def test_two_improvers_all_versus_one(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        config_all = make_config(registry, "ea")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config_all, evaluator)
        entry_all, _ = run_iteration(config_all.anchor, cache)
        assert entry_all["flipped_tools"] == ["T00", "T01"]

        config_one = make_config(registry, "e1")
        cache = EvaluationCache(config_one, evaluator)
        entry_one, _ = run_iteration(config_one.anchor, cache)
        assert entry_one["flipped_tools"] == ["T00"]  # -33.3% beats -16.7%

    def test_tie_breaks_to_lowest_index(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.2, 1.2, 1.0))
        config = make_config(registry, "e1")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        entry, _ = run_iteration(config.anchor, cache)
        scores = {c["tool_index"]: c["score"] for c in entry["candidates"]}
        assert scores[0] == scores[1]
        assert entry["flipped_tools"] == ["T00"]

    def test_equal_score_never_flips(self):
        registry = make_registry(3)
        params = make_params(3)  # every tool is neutral
        config = make_config(registry, "ea")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        entry, next_reference = run_iteration(config.anchor, cache)
        assert entry["flipped_tools"] == []
        assert next_reference == config.anchor
        assert entry["next_reference"] == entry["reference"] == serialize_ctp(config.anchor)

    def test_one_candidate_per_registry_tool(self):
        registry = make_registry(5)
        params = make_params(5)
        config = make_config(registry, "e1")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        entry, _ = run_iteration(config.anchor, cache)
        assert [c["tool_index"] for c in entry["candidates"]] == list(range(5))
        assert [c["tool"] for c in entry["candidates"]] == [t.name for t in registry.tools]
        assert [c["ctp"] for c in entry["candidates"]] == [
            serialize_ctp(Ctp(registry, config.anchor.mask ^ 1 << j)) for j in range(5)
        ]

    def test_flipped_subset_of_improved(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=21)
        config = make_config(registry, "ca")
        evaluator = SyntheticModelEvaluator(params)
        cache = EvaluationCache(config, evaluator)
        entry, _ = run_iteration(config.anchor, cache)
        improved = {c["tool"] for c in entry["candidates"] if c["improved"]}
        assert set(entry["flipped_tools"]) <= improved


def terminal(body, registry):
    return parse_ctp(body["terminal_reference"], registry)


class TestRunDse:
    def test_immediate_fixpoint(self):
        registry = make_registry(3)
        params = make_params(3)
        _, body = run_strategy(params, registry, "e1")
        assert len(body["iterations"]) == 1
        assert body["termination_reason"] == "repeated-reference"
        assert terminal(body, registry) == default_ctp(registry)

    @pytest.mark.parametrize("strategy", ["e1", "ea"])
    def test_unique_improver_takes_two_iterations(self, strategy):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        _, body = run_strategy(params, registry, strategy)
        assert len(body["iterations"]) == 2
        assert body["termination_reason"] == "repeated-reference"
        assert terminal(body, registry).mask == 0b110

    def test_all_policy_overshoot_is_recorded_and_cycle_broken(self):
        # disabling either interacting tool alone helps, disabling both
        # overshoots; repeat detection stops the two-step cycle
        registry = make_registry(3)
        params = make_params(3, energy_mult=(0.6, 0.6, 1.0), interactions=((0, 1, 2.0),))
        _, body = run_strategy(params, registry, "ea")
        iterations = body["iterations"]
        assert len(iterations) == 2
        assert iterations[0]["flipped_tools"] == ["T00", "T01"]
        assert iterations[1]["reference_score"] > iterations[0]["reference_score"]
        assert body["termination_reason"] == "repeated-reference"
        assert terminal(body, registry) == default_ctp(registry)

    def test_one_policy_on_overshoot_model_keeps_single_flip(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(0.6, 0.6, 1.0), interactions=((0, 1, 2.0),))
        _, body = run_strategy(params, registry, "e1")
        assert terminal(body, registry).mask == 0b110
        scores = [it["reference_score"] for it in body["iterations"]]
        assert scores == sorted(scores, reverse=True)
        assert body["iterations"][-1]["flipped_tools"] == []

    def test_greedy_can_miss_the_global_optimum(self):
        # each tool alone is worth keeping, the pair is not: a single-flip
        # walk stays at the anchor while the true minimum disables both
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.8, 1.8, 1.0), interactions=((0, 1, 0.5),))
        config, body = run_strategy(params, registry, "e1")
        end = terminal(body, registry)
        assert end == config.anchor
        scores = exhaustive_scores(params, registry, Objective.ENERGY)
        best = min(scores, key=scores.get)
        assert scores[best] < scores[end] - 1.0
        assert best != end

    def test_terminal_is_single_flip_local_minimum(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=5)
        config, body = run_strategy(params, registry, "e1")
        scores = exhaustive_scores(params, registry, Objective.ENERGY)
        end = terminal(body, registry)
        for j in range(4):
            neighbour = Ctp(registry, end.mask ^ 1 << j)
            assert scores[neighbour] >= scores[end]

    def test_max_iterations_guard_reached(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        _, body = run_strategy(params, registry, "e1", max_iterations=1)
        assert body["termination_reason"] == "max-iterations"
        assert len(body["iterations"]) == 1
        assert body["terminal_reference"] == body["iterations"][-1]["next_reference"]

    def test_references_never_revisited_before_termination(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=17)
        for strategy in ("ea", "e1", "ca", "c1"):
            _, body = run_strategy(params, registry, strategy)
            masks = [it["reference"] for it in body["iterations"]]
            assert len(masks) == len(set(masks))

    def test_every_logged_ctp_is_in_evaluated(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=2)
        _, body = run_strategy(params, registry, "c1")
        evaluated = body["evaluated"]
        for it in body["iterations"]:
            assert it["reference"] in evaluated
            assert it["next_reference"] in evaluated
            for candidate in it["candidates"]:
                assert candidate["report"] == evaluated[candidate["ctp"]]

    def test_anchor_self_report_is_zero(self):
        registry = make_registry(4)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=2)
        config, body = run_strategy(params, registry, "e1")
        anchor_report = body["evaluated"][serialize_ctp(config.anchor)]
        assert anchor_report["bdde_vmaf"] == 0.0
        assert anchor_report["bdr_vmaf"] == 0.0


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


class SwitchAfter(CountingEvaluator):
    """Evaluates with ``inner`` for ``allowed_calls`` calls, then with ``then``."""

    def __init__(self, inner, then, allowed_calls):
        super().__init__(inner)
        self.then = then
        self.allowed_calls = allowed_calls

    def evaluate(self, request):
        if len(self.masks) >= self.allowed_calls:
            return self.then.evaluate(request)
        return super().evaluate(request)


class RepeatedPsnr(CountingEvaluator):
    """Gives the second point of every curve the PSNR of the third."""

    def evaluate(self, request):
        curves = []
        for curve in super().evaluate(request):
            p = list(curve.points)
            p[1] = RdePoint(p[1].qp, p[1].bitrate, p[2].psnr, p[1].vmaf, p[1].energy)
            curves.append(RdeCurve(curve.sequence, tuple(p)))
        return curves


# The shipped registry's seed-7 model on two sequences, and every single
# flip of its anchor. Run both in-process and in a fresh interpreter.
SHIPPED_FLIPS = """
from ctpdse.engine import DseConfig, EvaluationCache, parse_strategy
from ctpdse.evaluators import SyntheticModelEvaluator, SyntheticModelParams
from ctpdse.profiles import default_ctp, default_registry, flip_tool

registry = default_registry()
sequences, qps = ("s01", "s02"), (22, 27, 32, 37)
config = DseConfig(*parse_strategy("e1"), default_ctp(registry), sequences, qps)
evaluator = SyntheticModelEvaluator(SyntheticModelParams.random(registry, sequences, qps, 7))
flips = [flip_tool(config.anchor, j) for j in range(len(registry.tools))]
"""


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
        config, body = run_strategy(params, registry, "c1")
        cache = EvaluationCache(config, SyntheticModelEvaluator(params))
        for mask, report in body["evaluated"].items():
            assert cache.compute(parse_ctp(mask, registry)) == BdReport.from_dict(report)

    def test_new_cache_reports_against_the_anchor(self):
        walk: dict = {}
        exec(SHIPPED_FLIPS, walk)
        evaluated = run_dse(walk["config"], walk["evaluator"])["evaluated"]
        cache = EvaluationCache(walk["config"], walk["evaluator"])
        for flip in walk["flips"]:
            assert cache.report(flip) == BdReport.from_dict(evaluated[serialize_ctp(flip)])
        # `python -O` strips `assert` statements, so no check in the engine
        # may rely on one.
        fields = [name for name, _, _ in BD_FIELDS]
        code = SHIPPED_FLIPS + (
            "cache = EvaluationCache(config, evaluator)\n"
            "for flip in flips:\n"
            f"    print(*(getattr(cache.report(flip), name).hex() for name in {fields!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines() == [
            " ".join(evaluated[serialize_ctp(flip)][name].hex() for name in fields)
            for flip in walk["flips"]
        ]

    def test_failure_carries_partial_state(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        # anchor + 3 candidates = 4 calls for iteration 1; fail inside iteration 2
        evaluator = FailAfter(SyntheticModelEvaluator(params), allowed_calls=5)
        config = make_config(registry, "e1")
        with pytest.raises(EvaluationError) as err:
            run_dse(config, evaluator)
        assert len(err.value.partial_logs) == 1
        assert err.value.partial_logs[0]["flipped_tools"] == ["T00"]
        assert config.anchor in err.value.partial_evaluated
        # anchor, three flips of iteration 1 and the flip that finished
        # inside iteration 2 before the failing one
        assert len(err.value.partial_evaluated) == 5
        assert err.value.failed_ctp is not None
        assert err.value.failed_ctp not in err.value.partial_evaluated

    @pytest.mark.parametrize("strategy", ["e1", "ea"])
    def test_failure_keeps_exactly_what_finished(self, strategy):
        registry = make_registry(5)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=3)
        config = make_config(registry, strategy)
        counting = CountingEvaluator(SyntheticModelEvaluator(params))
        full = run_dse(config, counting)
        # the anchor and five flips make iteration 1; fail at the third
        # profile iteration 2 evaluates
        allowed = 1 + 5 + 2
        assert len(full["iterations"]) > 1 and len(counting.masks) > allowed
        evaluator = FailAfter(SyntheticModelEvaluator(params), allowed_calls=allowed)
        with pytest.raises(EvaluationError) as err:
            run_dse(config, evaluator)
        assert err.value.partial_logs == full["iterations"][:1]
        partial = err.value.partial_evaluated
        assert [serialize_ctp(ctp) for ctp in partial] == counting.masks[:allowed]
        for ctp, report in partial.items():
            finished = full["evaluated"][serialize_ctp(ctp)]
            assert report == BdReport.from_dict(finished)
            assert list(report.warnings) == finished.get("warnings", [])
        assert serialize_ctp(err.value.failed_ctp) == counting.masks[allowed]

    @pytest.mark.parametrize("failure", ["backend", "curve"])
    def test_bootstrap_failure_names_the_anchor(self, failure):
        registry = make_registry(3)
        synthetic = SyntheticModelEvaluator(make_params(3))
        if failure == "backend":
            evaluator = FailAfter(synthetic, allowed_calls=0)
            error, message = EvaluationError, "power meter went away"
        else:
            evaluator = RepeatedPsnr(synthetic)
            error, message = ConfigError, r"^bdr_psnr \(s01\): anchor curve quality"
        config = make_config(registry, "e1")
        with pytest.raises(error, match=message) as err:
            EvaluationCache(config, evaluator)
        assert err.value.failed_ctp == config.anchor
        with pytest.raises(error, match=message) as err:
            run_dse(config, evaluator)
        assert err.value.failed_ctp == config.anchor
        assert err.value.partial_logs == [] and err.value.partial_evaluated == {}

    def test_non_finite_external_sample_keeps_partial_state(self, tmp_path):
        rows = dict(RESULT_ROWS)
        rows[27] = "27,4500.0,40.1,86.5,90.0,90;inf"
        write_result_fixtures(tmp_path, rows=rows)
        external = ExternalCommandEvaluator(copy_template(tmp_path))
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        # synthetic for iteration 1 and one flip of iteration 2, then external
        evaluator = SwitchAfter(SyntheticModelEvaluator(params), external, allowed_calls=5)
        config = make_config(registry, "e1")
        with pytest.raises(EvaluationError, match=r"\(s01, qp 27\).*got inf") as err:
            run_dse(config, evaluator)
        assert len(err.value.partial_logs) == 1
        assert len(err.value.partial_evaluated) == 5
        assert err.value.failed_ctp is not None

    def test_unlaunchable_external_command_keeps_partial_state(self, tmp_path):
        script = tmp_path / "enc.sh"
        script.write_text("#!/bin/sh\n")
        script.chmod(0o644)
        external = ExternalCommandEvaluator(f"{script} {{out}}")
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.5, 1.2, 1.0))
        # synthetic for iteration 1 and one flip of iteration 2, then external
        evaluator = SwitchAfter(SyntheticModelEvaluator(params), external, allowed_calls=5)
        config = make_config(registry, "e1")
        with pytest.raises(EvaluationError,
                           match=r"^\(s01, qp 22\): cannot launch .*Permission denied") as err:
            run_dse(config, evaluator)
        assert len(err.value.partial_logs) == 1
        assert len(err.value.partial_evaluated) == 5
        assert config.anchor in err.value.partial_evaluated
        assert err.value.failed_ctp is not None
        assert err.value.failed_ctp not in err.value.partial_evaluated

    def test_backend_missing_a_sequence_names_it(self):
        class DropsLastCurve(CountingEvaluator):
            def evaluate(self, request):
                return super().evaluate(request)[:-1]

        params = make_params(3, sequences=("s01", "s02"))
        config = make_config(make_registry(3), "e1", sequences=("s01", "s02"))
        with pytest.raises(CtpDseError,
                           match=r"^backend returned no curve for sequences \['s02'\]$") as err:
            run_dse(config, DropsLastCurve(SyntheticModelEvaluator(params)))
        assert err.value.failed_ctp == config.anchor
        assert err.value.partial_evaluated == {}

    def test_external_walk_launches_each_job_once(self, monkeypatch):
        lock = threading.Lock()
        launched = []
        header = "qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples"

        def fake_run(argv, **kwargs):
            _, mask, sequence, qp, out = argv
            with lock:
                launched.append((mask, sequence, qp))
            # tools cost energy, so the walk disables each of them in turn
            energy = (1000.0 + 100 * bin(int(mask, 16)).count("1")) / int(qp)
            Path(out).write_text(f"{header}\n{qp},{100000.0 / int(qp)},{60.0 - int(qp) / 2},"
                                 f"{100.0 - int(qp)},{energy},\n")
            return subprocess.CompletedProcess(argv, 0, "", "")

        monkeypatch.setattr(evaluators.subprocess, "run", fake_run)
        evaluator = ExternalCommandEvaluator("enc {ctp_mask} {sequence} {qp} {out}",
                                             max_parallel=2)
        config = make_config(make_registry(3), "e1", sequences=("s01", "s02"))
        body = run_dse(config, evaluator)
        assert len(body["iterations"]) > 1
        assert len(launched) == len(body["evaluated"]) * 2 * len(BASE_QPS)
        assert len(set(launched)) == len(launched)


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
        body = run_dse(config, evaluator)
        assert len(body["evaluated"]) == 4
        assert 1 < peak <= 3


class TestDeterminism:
    def test_identical_runs_render_identically(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01", "s02"), BASE_QPS, seed=4)
        texts = []
        for _ in range(2):
            config, body = run_strategy(params, registry, "c1", sequences=("s01", "s02"))
            texts.append(canonical_json(result_to_document(body, config)))
        assert texts[0] == texts[1]

    def test_document_shape(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.3, 1.0, 1.0))
        config, body = run_strategy(params, registry, "e1")
        document = result_to_document(body, config)
        assert document["config"]["strategy"] == "e1"
        assert document["termination_reason"] == "repeated-reference"
        assert document["terminal_reference"] in document["evaluated"]
        first = document["iterations"][0]
        assert first["flipped_tools"] == ["T00"]
        assert len(first["candidates"]) == 3


class TestWalkBody:
    @pytest.mark.parametrize("strategy", ["ea", "e1", "ca", "c1"])
    def test_body_is_plain_json_and_is_the_written_result(self, strategy, tmp_path):
        registry = default_registry()
        sequences, qps = cli.DEFAULT_SYNTH_SEQUENCES, cli.DEFAULT_QPS
        config = DseConfig(*parse_strategy(strategy), default_ctp(registry), sequences, qps)
        params = SyntheticModelParams.random(registry, sequences, qps, seed=11)
        body = run_dse(config, SyntheticModelEvaluator(params))
        assert json.loads(json.dumps(body)) == body

        out = tmp_path / "run"
        assert cli.main(["dse", "--strategy", strategy, "--backend", "synthetic",
                         "--seed", "11", "--out", str(out)]) == 0
        written = json.loads((out / "result.json").read_text(encoding="utf-8"))
        del written["manifest"]
        assert result_to_document(body, config) == written


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
        entry_e, _ = run_iteration(config_e.anchor, cache)
        assert entry_e["flipped_tools"] == ["T00"]
        by_index = {c["tool_index"]: c["report"] for c in entry_e["candidates"]}
        assert by_index[0]["bdde_vmaf"] == pytest.approx(100 * (1 / 1.5 - 1), rel=1e-9)
        assert by_index[0]["bdr_vmaf"] == pytest.approx(100 * (1 / 0.7 - 1), rel=1e-9)
        assert by_index[1]["bdde_vmaf"] == pytest.approx(100 * (1 / 1.3 - 1), rel=1e-9)
        assert by_index[1]["bdr_vmaf"] == pytest.approx(100 * (1 / 0.98 - 1), rel=1e-9)

        config_c = make_config(registry, "c1")
        cache = EvaluationCache(config_c, evaluator)
        entry_c, _ = run_iteration(config_c.anchor, cache)
        assert entry_c["flipped_tools"] == ["T01"]

        config_ea = make_config(registry, "ea")
        cache = EvaluationCache(config_ea, evaluator)
        assert run_iteration(config_ea.anchor, cache)[0]["flipped_tools"] == ["T00", "T01"]

        config_ca = make_config(registry, "ca")
        cache = EvaluationCache(config_ca, evaluator)
        assert run_iteration(config_ca.anchor, cache)[0]["flipped_tools"] == ["T01"]
