"""Self-tests of the benchmark: generators, span arithmetic, metric names, checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stub_encoder  # noqa: E402
from ctpdse import cli  # noqa: E402
from ctpdse.evaluators import (  # noqa: E402
    EvaluationRequest,
    SyntheticModelEvaluator,
    SyntheticModelParams,
)
from ctpdse.profiles import default_registry, parse_ctp  # noqa: E402
from ctpdse.stats import Verdict, ci_check  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------- generators


def test_generators_are_deterministic(tmp_path):
    for writer in (gen.write_measurements, gen.write_points, gen.write_model):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        writer(a, 5)
        writer(b, 5)
        writer(c, 6)
        assert a.read_bytes() == b.read_bytes(), writer.__name__
        assert a.read_bytes() != c.read_bytes(), writer.__name__


def test_table_shape_and_noisy_share():
    rows = gen.measurement_rows(3)
    assert len(rows) == (gen.TABLE_TESTS + 1) * len(gen.TABLE_SEQUENCES) * len(gen.QPS)
    assert len({(r[0], r[1], r[2]) for r in rows}) == len(rows)
    verdicts = [ci_check(r[6])[0] for r in rows[:400]]
    assert Verdict.FAIL in verdicts and Verdict.PASS in verdicts


def test_stub_matches_the_synthetic_backend_bit_for_bit():
    registry = default_registry()
    params = SyntheticModelParams.random(registry, gen.SEQUENCES, gen.QPS, seed=11)
    model = gen.model_document(11)
    evaluator = SyntheticModelEvaluator(params)
    for mask in ("3FFFFFFF", "3FFFFFFE", "1234ABCD", "00000000"):
        request = EvaluationRequest(parse_ctp(mask, registry), gen.SEQUENCES, gen.QPS)
        for curve in evaluator.evaluate(request):
            for point in curve.points:
                got = stub_encoder.model_point(model, mask, curve.sequence, point.qp)
                assert got == (point.bitrate, point.psnr, point.vmaf, point.energy)


def test_stub_readings_pass_the_gate(tmp_path, monkeypatch):
    model_path = tmp_path / "model.json"
    gen.write_model(model_path, 2)
    log = tmp_path / "jobs"
    monkeypatch.setenv("PERFBENCH_STUB_LOG", str(log))
    out = tmp_path / "r.csv"
    assert stub_encoder.main([str(model_path), "s02", "27", "3FFFFFFF", str(out)]) == 0
    header, row = out.read_text().splitlines()
    samples = [float(s) for s in row.split(",")[5].split(";")]
    assert ci_check(samples)[0] is Verdict.PASS
    assert log.read_text() == "3FFFFFFF,s02,27\n"


# ---------------------------------------------------------------- metric names


def test_metric_names_and_units_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.TRACE_UNITS
    assert set(spans.layer_metrics([[]])) | {"trace_overhead_ratio"} == set(layers)
    for name in list(e2e) + list(layers) + [w["name"] for w in bench["workloads"]]:
        assert NAME.match(name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


# ---------------------------------------------------------------- span arithmetic


def _span(sid, name, start, end, thread, parent=None, extra=None):
    return [sid, name, start, end, thread, parent, extra]


def test_self_time_and_pool_overlap_on_two_threads():
    # Main thread: run_iteration [0, 10] holding a flip_tool [1, 2].
    # Pool threads A and B compute concurrently: A [2, 6] with a bd_report
    # [3, 5]; B [4, 8]. Their parent is on another thread, so they do not
    # reduce run_iteration's self time.
    tree = [
        _span(0, "engine.run_iteration", 0.0, 10.0, "main", None, 30),
        _span(1, "profiles.flip_tool", 1.0, 2.0, "main", 0),
        _span(2, "engine.compute", 2.0, 6.0, "A"),
        _span(3, "curves.bd_report", 3.0, 5.0, "A", 2),
        _span(4, "engine.compute", 4.0, 8.0, "B"),
    ]
    own = spans.self_times(tree)
    assert own == {0: 9.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 4.0}
    metrics = spans.layer_metrics([tree])
    assert metrics["engine.run_iteration.self_s"] == 9.0
    assert metrics["engine.compute.calls"] == 2
    # 8 s of compute spans over a 6 s union.
    assert metrics["engine.pool_overlap"] == pytest.approx(8.0 / 6.0)
    assert metrics["engine.cache_hit_ratio"] == pytest.approx(28 / 30)
    assert metrics["engine.compute.p50_ms"] == pytest.approx(4000.0)


def test_child_concurrency_and_slot_utilisation():
    tree = [
        _span(0, "engine.run_dse", 0.0, 10.0, "main", None, 2),
        _span(1, spans.CHILD, 1.0, 3.0, "A", None, 0),
        _span(2, spans.CHILD, 2.0, 4.0, "B", None, 0),
        _span(3, spans.CHILD, 2.5, 3.5, "C", None, 1),
        _span(4, spans.CHILD, 4.0, 5.0, "A", None, 0),
    ]
    metrics = spans.layer_metrics([tree])
    assert metrics["evaluators.child_jobs"] == 4
    assert metrics["evaluators.child_failed"] == 1
    assert metrics["evaluators.peak_children"] == 3
    assert metrics["evaluators.child_busy_s"] == pytest.approx(6.0)
    assert metrics["evaluators.slot_utilisation"] == pytest.approx(6.0 / 20.0)


def test_union_and_peak_of_touching_intervals():
    assert spans.union_length([(0, 1), (1, 2), (5, 6), (0.5, 1.5)]) == 3.0
    assert spans.peak_overlap([(0, 1), (1, 2)]) == 1


def test_install_wraps_every_import_site():
    # In a fresh interpreter, so the wrappers do not leak into other tests.
    code = "\n".join([
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]",
        "import ctpdse.cli, spans",
        "recorder = spans.Recorder()",
        "spans.install(recorder)",
        "from ctpdse import cli, curves, engine",
        "assert engine.bd_report is curves.bd_report is cli.bd_report",
        "assert cli.run_dse is engine.run_dse and hasattr(cli.run_dse, '__wrapped__')",
        "curve = [(1.0, 30.0), (2.0, 33.0), (4.0, 36.0), (8.0, 39.0)]",
        "curves.bd_delta(curve, curve)",
        "print(sorted(recorder.sites)); print([s[1] for s in recorder.spans])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sites, names = proc.stdout.splitlines()
    for site in spans.REQUIRED_SITES:
        assert repr(site) in sites
    assert names == "['curves.bd_delta']"


# ---------------------------------------------------------------- checks


@pytest.fixture(scope="module")
def dse_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dse") / "c1"
    assert cli.main([
        "dse", "--strategy", "c1", "--backend", "synthetic", "--seed", "3",
        "--sequences", "s01,s02", "--qps", "22,27,32,37", "--max-iter", "2", "--out", str(out),
    ]) == 0
    doc = json.loads((out / "result.json").read_text())
    return doc, (out / "front.csv").read_text(), gen.model_document(3)


def test_dse_check_accepts_the_program_output(dse_run):
    doc, front, model = dse_run
    assert checks.check_dse(doc, model, "c1", 2, front) == []


def test_dse_check_accepts_an_overshooting_all_policy_walk(tmp_path):
    # Seed 8's ca walk flips several tools at once and lands on a worse
    # reference in its fourth iteration; the engine documents that overshoot.
    out = tmp_path / "ca"
    assert cli.main([
        "dse", "--strategy", "ca", "--backend", "synthetic", "--seed", "8",
        "--sequences", "s01,s02", "--qps", "22,27,32,37", "--out", str(out),
    ]) == 0
    doc = json.loads((out / "result.json").read_text())
    scores = [it["reference_score"] for it in doc["iterations"]]
    assert any(b >= a for a, b in zip(scores, scores[1:]))
    assert checks.check_dse(doc, gen.model_document(8), "ca", 64,
                            (out / "front.csv").read_text()) == []


def _copy(doc):
    return json.loads(json.dumps(doc))


def test_dse_check_catches_a_wrong_bd_value(dse_run):
    doc, front, model = dse_run
    bad = _copy(doc)
    terminal = bad["terminal_reference"]
    bad["evaluated"][terminal]["bdr_psnr"] += 1e-4
    for it in bad["iterations"]:
        for cand in it["candidates"]:
            if cand["ctp"] == terminal:
                cand["report"]["bdr_psnr"] += 1e-4
    errors = checks.check_dse(bad, model, "c1", 2, front)
    assert any("oracle" in e for e in errors)


def test_dse_check_catches_a_wrong_greedy_step(dse_run):
    doc, front, model = dse_run
    bad = _copy(doc)
    first = bad["iterations"][0]
    other = next(c for c in first["candidates"] if c["tool"] not in first["flipped_tools"])
    first["flipped_tools"] = [other["tool"]]
    assert checks.check_dse(bad, model, "c1", 2, front)


def test_dse_check_catches_a_missing_profile_and_a_wrong_front(dse_run):
    doc, front, model = dse_run
    bad = _copy(doc)
    bad["evaluated"].pop(sorted(bad["evaluated"])[0])
    assert checks.check_dse(bad, model, "c1", 2, front)
    lines = front.splitlines()
    assert checks.check_dse(doc, model, "c1", 2, "\n".join(lines[:-1]) + "\n")


def test_walk_and_job_checks(dse_run):
    doc, _, _ = dse_run
    assert checks.check_same_walk(doc, doc) == []
    bad = _copy(doc)
    mask = sorted(bad["evaluated"])[1]
    bad["evaluated"][mask]["bdde_vmaf"] += 1e-8
    assert checks.check_same_walk(bad, doc)
    jobs = [f"{m},{s},{q}" for m in doc["evaluated"] for s in gen.SEQUENCES for q in gen.QPS]
    assert checks.check_jobs("\n".join(jobs), doc) == []
    assert checks.check_jobs("\n".join(jobs + jobs[:1]), doc)
    assert checks.check_jobs("\n".join(jobs[1:]), doc)


def test_bd_check(tmp_path, capsys):
    path = tmp_path / "m.csv"
    masks = gen.write_measurements(path, 4)[:3]
    argv = ["bd", "--measurements", str(path)]
    for mask in masks:
        argv += ["--test", mask]
    capsys.readouterr()
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    rows = gen.measurement_rows(4)
    assert checks.check_bd(stdout, rows, masks) == []
    lines = stdout.splitlines()
    number = re.search(r"-?\d+\.\d\d$", lines[-1]).group(0)
    lines[-1] = lines[-1][: -len(number)] + f"{float(number) + 0.02:.2f}"
    assert checks.check_bd("\n".join(lines), rows, masks)
    assert checks.check_bd("\n".join(stdout.splitlines()[:-1]), rows, masks)


def test_pareto_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gen, "POINTS", 400)
    path = tmp_path / "p.csv"
    points = gen.write_points(path, 8)
    capsys.readouterr()
    assert cli.main(["pareto", "--points", str(path), "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    points_csv = (tmp_path / "o" / "points.csv").read_text()
    front_csv = (tmp_path / "o" / "front.csv").read_text()
    assert checks.check_pareto(stdout, points_csv, front_csv, points) == []
    short_front = "\n".join(front_csv.splitlines()[:-1])
    assert checks.check_pareto(stdout, points_csv, short_front, points)
    lines = stdout.splitlines()
    lines[1] = lines[1].replace("EE ", "EBE", 1)
    assert checks.check_pareto("\n".join(lines), points_csv, front_csv, points)
    lines = stdout.splitlines()
    lines[0] = lines[0].replace("front ", "front 1", 1)
    assert checks.check_pareto("\n".join(lines), points_csv, front_csv, points)
