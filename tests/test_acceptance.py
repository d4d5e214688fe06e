"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them live). Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctpdse.curves import PreparedAnchor, bd_report
from ctpdse.engine import (
    DseConfig,
    EvaluationCache,
    QualityAxis,
    parse_strategy,
    run_dse,
    run_iteration,
)
from ctpdse.evaluators import EvaluationRequest, SyntheticModelEvaluator, SyntheticModelParams
from ctpdse.pareto import SelectionCriteria, pareto_front, select_profiles
from ctpdse.profiles import Ctp, default_ctp, flip_tool, parse_ctp
from ctpdse import cli

from conftest import BASE_QPS, make_params, make_registry
from test_curves import (axis_oracles, bd_trapezoid_oracle, random_curve_pair, random_energy,
                         report_bd, report_bdr_bdde)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


# --- BD metric criteria ----------------------------------------------------

def test_bd_oracle_equivalence():
    with criterion("BD closed form matches dense-trapezoid oracle (100 pairs, 1e-6 rel)"):
        rng = np.random.default_rng(20240901)
        started = time.monotonic()
        for _ in range(100):
            anchor, test = random_curve_pair(rng)
            anchor_energy, test_energy = random_energy(rng), random_energy(rng)
            closed = report_bdr_bdde(anchor, test, anchor_energy, test_energy)
            oracles = axis_oracles(bd_trapezoid_oracle, anchor, test, anchor_energy, test_energy)
            for axis_values, axis_oracle_values in zip(closed, oracles):
                for value, oracle in zip(axis_values, axis_oracle_values):
                    assert abs(value - oracle) <= 1e-6 * max(abs(oracle), 1e-9)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"


def test_bd_analytic_cases():
    with criterion("BD analytic cases (identical=0, doubled=+100, halved=-50)"):
        nodes = [(1400.0, 34.6), (2500.0, 37.4), (4500.0, 40.1), (8000.0, 42.5)]
        assert report_bd(nodes, nodes) == 0.0
        doubled = [(c * 2.0, q) for c, q in nodes]
        assert abs(report_bd(nodes, doubled) - 100.0) < 1e-9

        registry = make_registry(2)
        params = make_params(2, energy_mult=(2.0, 1.0))
        evaluator = SyntheticModelEvaluator(params)
        full = default_ctp(registry)
        half = Ctp(registry, 0b10)  # drops the x2 energy factor
        (anchor_curve,) = evaluator.evaluate(EvaluationRequest(full, ("s01",), BASE_QPS))
        (test_curve,) = evaluator.evaluate(EvaluationRequest(half, ("s01",), BASE_QPS))
        report = bd_report(PreparedAnchor(anchor_curve), test_curve)
        assert abs(report.bdde_psnr + 50.0) < 1e-9
        assert abs(report.bdde_vmaf + 50.0) < 1e-9
        assert report.bdr_psnr == 0.0 and report.bdr_vmaf == 0.0


# --- Pareto selection on the published-results fixture ----------------------

def test_benchmark_fixture_pareto(benchmark_points):
    with criterion("benchmark fixture: prior profiles dominated, EE and LBE recovered"):
        by_label = {p.label: p for p in benchmark_points}
        front = pareto_front(benchmark_points)
        front_labels = [p.label for p in front]
        assert "prior-ee" not in front_labels
        assert "prior-ebe" not in front_labels
        # the specific dominators
        assert (by_label["ea-ee"].bdr, by_label["ea-ee"].bdde) == (28.62, -44.84)
        assert (by_label["prior-ee"].bdr, by_label["prior-ee"].bdde) == (30.17, -37.66)
        assert (by_label["e1-ebe"].bdr, by_label["e1-ebe"].bdde) == (9.28, -37.65)
        assert (by_label["prior-ebe"].bdr, by_label["prior-ebe"].bdde) == (15.37, -28.28)

        selection = select_profiles(benchmark_points, SelectionCriteria(5.0))
        assert (selection.ee.bdr, selection.ee.bdde) == (27.00, -45.31)
        assert [(p.bdr, p.bdde) for p in selection.lbe] == [
            (-0.25, -4.86),
            (1.45, -11.41),
            (2.54, -17.55),
            (4.88, -25.54),
        ]


# --- Greedy correctness at desk scale ---------------------------------------

def enumerate_vmaf_scores(params, registry):
    """Brute-force (bdr_vmaf, bdde_vmaf) of every profile vs the all-on anchor.

    Deliberately bypasses the engine's ``EvaluationCache``, report
    aggregation and scoring: one ``bd_report`` per profile against the
    anchor prepared once, read on the two fields the objectives read.
    """
    evaluator = SyntheticModelEvaluator(params)
    anchor = default_ctp(registry)
    (anchor_curve,) = evaluator.evaluate(EvaluationRequest(anchor, ("s01",), BASE_QPS))
    prepared = PreparedAnchor(anchor_curve)
    scores = {}
    for value in range(2 ** len(registry)):
        ctp = Ctp(registry, value)
        (curve,) = evaluator.evaluate(EvaluationRequest(ctp, ("s01",), BASE_QPS))
        report = bd_report(prepared, curve)
        scores[ctp] = (report.bdr_vmaf, report.bdde_vmaf)
    return scores


def single_flip_neighbours(ctp):
    for j in range(len(ctp.registry)):
        yield flip_tool(ctp, j)


def test_greedy_desk_scale():
    with criterion("greedy E1/C1: terminal is a 1-flip local minimum on 50 random models"):
        registry = make_registry(8)
        started = time.monotonic()
        for seed in range(50):
            params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=seed)
            vmaf_scores = enumerate_vmaf_scores(params, registry)
            for strategy in ("e1", "c1"):
                objective, flip_policy = parse_strategy(strategy)

                def objective_score(ctp):
                    bdr, bdde = vmaf_scores[ctp]
                    return bdde if strategy == "e1" else bdde + bdr

                config = DseConfig(
                    objective=objective,
                    flip_policy=flip_policy,
                    anchor=default_ctp(registry),
                    sequences=("s01",),
                    qps=BASE_QPS,
                    quality_axis=QualityAxis.VMAF,
                    max_iterations=64,
                )
                body = run_dse(config, SyntheticModelEvaluator(params))
                assert len(body["iterations"]) <= 64
                assert body["termination_reason"] == "repeated-reference"

                scores = [it["reference_score"] for it in body["iterations"]]
                assert all(b < a for a, b in zip(scores, scores[1:])), \
                    f"seed {seed} {strategy}: scores not strictly decreasing"

                terminal = parse_ctp(body["terminal_reference"], registry)
                for neighbour in single_flip_neighbours(terminal):
                    assert objective_score(neighbour) >= objective_score(terminal), \
                        f"seed {seed} {strategy}: {neighbour} beats the terminal profile"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"desk-scale verification took {elapsed:.1f}s"


# --- Strategy differentiation ------------------------------------------------

def iteration_one(params, registry, strategy):
    objective, flip_policy = parse_strategy(strategy)
    config = DseConfig(
        objective=objective,
        flip_policy=flip_policy,
        anchor=default_ctp(registry),
        sequences=("s01",),
        qps=BASE_QPS,
        quality_axis=QualityAxis.VMAF,
    )
    evaluator = SyntheticModelEvaluator(params)
    cache = EvaluationCache(config, evaluator)
    return run_iteration(config.anchor, cache)


def test_strategy_differentiation():
    with criterion("strategies differ: flip counts (EA vs E1) and rankings (E vs C)"):
        registry = make_registry(3)

        # interaction model with two individually-improving tools
        params = make_params(3, energy_mult=(0.6, 0.6, 1.0), interactions=((0, 1, 2.0),))
        entry_ea, next_ea = iteration_one(params, registry, "ea")
        entry_e1, next_e1 = iteration_one(params, registry, "e1")
        assert len(entry_ea["flipped_tools"]) > 1
        assert len(entry_e1["flipped_tools"]) == 1
        assert next_ea != next_e1
        assert entry_ea["next_reference"] != entry_e1["next_reference"]

        # ranking fixture: tool 0 wins on energy alone, tool 1 on the sum
        params = make_params(3, rate_mult=(0.7, 0.98, 1.0), energy_mult=(1.5, 1.3, 1.0))
        entry_e1, _ = iteration_one(params, registry, "e1")
        entry_c1, _ = iteration_one(params, registry, "c1")
        energy_argmin = min(entry_e1["candidates"], key=lambda c: (c["score"], c["tool_index"]))
        combined_argmin = min(entry_c1["candidates"], key=lambda c: (c["score"], c["tool_index"]))
        assert energy_argmin["tool_index"] == 0
        assert combined_argmin["tool_index"] == 1
        assert entry_e1["flipped_tools"] == ["T00"]
        assert entry_c1["flipped_tools"] == ["T01"]
        assert iteration_one(params, registry, "ea")[0]["flipped_tools"] == ["T00", "T01"]
        assert iteration_one(params, registry, "ca")[0]["flipped_tools"] == ["T01"]


# --- CLI determinism ---------------------------------------------------------

DSE_FILES = ("result.json", "points.csv", "front.csv", "summary.txt", "manifest.json")


def test_cli_determinism(tmp_path, capsys):
    with criterion("equal manifests give byte-identical result files"):
        reg = tmp_path / "tools.reg"
        reg.write_text("".join(f"T{i:02d},Other,1\n" for i in range(6)))
        run_dirs = [tmp_path / "run-a", tmp_path / "run-b"]
        for out in run_dirs:
            code = cli.main([
                "dse", "--strategy", "c1", "--backend", "synthetic",
                "--seed", "11", "--registry", str(reg), "--out", str(out),
            ])
            assert code == 0
        for name in DSE_FILES:
            assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name
        manifest_a = (run_dirs[0] / "manifest.json").read_bytes()
        manifest_b = (run_dirs[1] / "manifest.json").read_bytes()
        assert manifest_a == manifest_b

        sel_dirs = [tmp_path / "sel-a", tmp_path / "sel-b"]
        outputs = []
        for sel in sel_dirs:
            capsys.readouterr()
            code = cli.main([
                "pareto", "--points", str(run_dirs[0]), "--out", str(sel),
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for name in ("points.csv", "front.csv", "manifest.json"):
            assert (sel_dirs[0] / name).read_bytes() == (sel_dirs[1] / name).read_bytes(), name


# --- Measurement CI gate -----------------------------------------------------

def test_ci_gate():
    with criterion("CI gate: zero variance passes, t-interval fixture matches oracle"):
        from ctpdse.stats import Verdict, ci_check

        verdict, mean, half_width = ci_check([10.0] * 5)
        assert verdict is Verdict.PASS
        assert half_width == 0.0
        assert mean == 10.0

        # textbook oracle: n=20, mean 10, s^2 = 20/19, t(0.995, 19) = 2.861
        samples = [9.0, 11.0] * 10
        oracle_half_width = 2.861 * math.sqrt(20 / 19) / math.sqrt(20)
        oracle_verdict = Verdict.PASS if oracle_half_width <= 0.02 * 10.0 else Verdict.FAIL
        verdict, mean, half_width = ci_check(samples)
        assert verdict is oracle_verdict is Verdict.FAIL
        assert half_width == pytest.approx(oracle_half_width, rel=1e-3)
