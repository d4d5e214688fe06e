import math
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctpdse import evaluators
from ctpdse.csvrows import data_rows, parse_float
from ctpdse.curves import RdePoint
from ctpdse.errors import ConfigError, EvaluationError, MeasurementMissError
from ctpdse.evaluators import (
    CSV_HEADER,
    ENERGY_MEAN_REL_TOL,
    CachedTableEvaluator,
    EvaluationRequest,
    ExternalCommandEvaluator,
    SequenceBaseline,
    SyntheticModelEvaluator,
    SyntheticModelParams,
    MeasurementTable,
    ingest_measurements,
)
from ctpdse.profiles import Ctp, default_ctp, default_registry, serialize_ctp
from ctpdse.stats import DEFAULT_CONFIDENCE, DEFAULT_REL_HALF_WIDTH, ci_check

from conftest import (
    BASE_QPS,
    HEADER_LINE,
    anchor_rows,
    halved_energy_rows,
    make_baseline,
    make_params,
    make_registry,
    with_readings,
    write_table,
)

TWELVE_QPS = tuple(range(22, 56, 3))


class TestEvaluationRequest:
    def test_validates_sequences_and_qps(self):
        ctp = default_ctp(make_registry(3))
        with pytest.raises(ConfigError, match="sequence"):
            EvaluationRequest(ctp, (), (22,))
        with pytest.raises(ConfigError, match="sequence"):
            EvaluationRequest(ctp, ("s01", ""), (22,))
        with pytest.raises(ConfigError, match=r"must not repeat, got \('s01', 's02', 's01'\)"):
            EvaluationRequest(ctp, ("s01", "s02", "s01"), (22,))
        with pytest.raises(ConfigError, match="qp"):
            EvaluationRequest(ctp, ("s01",), ())
        with pytest.raises(ConfigError, match="strictly increasing"):
            EvaluationRequest(ctp, ("s01",), (27, 22))
        with pytest.raises(ConfigError, match="BD needs at least 4 qps, got 3"):
            EvaluationRequest(ctp, ("s01",), (22, 27, 32))


class TestIngest:
    def test_header_only_gives_empty_table(self, tmp_path):
        table = ingest_measurements(write_table(tmp_path / "m.csv", []))
        assert table.rows == {}
        assert table.qps_by_sequence("3FFFFFFF") == {}

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment"])
    def test_file_without_header_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: empty file, "
                                              f"expected header {HEADER_LINE}$"):
            ingest_measurements(path)

    def test_four_rows_give_one_curve(self, tmp_path):
        mask = "3FFFFFFF"
        path = write_table(tmp_path / "m.csv", anchor_rows(mask))
        table = ingest_measurements(path)
        curve = table.curve(mask, "s01", BASE_QPS)
        assert len(curve.points) == 4
        assert curve.points[0].bitrate == 8000.0
        assert curve.points[3].energy == 45.0

    def test_zero_bitrate_rejected_at_line(self, tmp_path):
        rows = anchor_rows("3FFFFFFF")
        rows[2] = rows[2].replace("2500.0", "0")
        path = write_table(tmp_path / "m.csv", rows)
        with pytest.raises(ConfigError, match=r"m\.csv:4"):
            ingest_measurements(path)
        rows = anchor_rows("3FFFFFFF")
        rows[0] = rows[0].replace("120.0", "inf")
        path = write_table(tmp_path / "m.csv", rows)
        with pytest.raises(ConfigError, match=r"m\.csv:2: .*energy"):
            ingest_measurements(path)

    def test_error_line_counts_comment_and_blank_lines(self, tmp_path):
        rows = anchor_rows("3FFFFFFF")
        rows[1] = rows[1].replace("4500.0", "0")
        path = tmp_path / "m.csv"
        path.write_text("\n".join(["# journal", HEADER_LINE, rows[0], "", "# note", rows[1]]) + "\n")
        with pytest.raises(ConfigError, match=r"m\.csv:6: "):
            ingest_measurements(path)

    def test_lower_case_ctp_id_rejected(self, tmp_path):
        path = write_table(tmp_path / "m.csv", anchor_rows("3fffffff"))
        with pytest.raises(ConfigError, match=r"m\.csv:2: .*upper-case hex mask"):
            ingest_measurements(path)

    def test_empty_sequence_rejected_at_line(self, tmp_path):
        path = write_table(tmp_path / "m.csv", anchor_rows("3FFFFFFF", sequence=""))
        with pytest.raises(ConfigError, match=r"m\.csv:2: sequence is empty"):
            ingest_measurements(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ctp,seq,qp\n")
        with pytest.raises(ConfigError, match="bad header"):
            ingest_measurements(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER_LINE + "\nA,s01,22,1,2,3,4\n")
        with pytest.raises(ConfigError, match=":2"):
            ingest_measurements(path)

    def test_duplicate_key_rejected(self, tmp_path):
        rows = anchor_rows("3FFFFFFF")
        rows.append(rows[0])
        path = write_table(tmp_path / "m.csv", rows)
        with pytest.raises(ConfigError, match="duplicate"):
            ingest_measurements(path)

    def test_non_integer_qp_rejected(self, tmp_path):
        rows = ["A,s01,low,100,40,90,10,"]
        path = write_table(tmp_path / "m.csv", rows)
        with pytest.raises(ConfigError, match="integer"):
            ingest_measurements(path)

    def test_sample_mean_mismatch_rejected(self, tmp_path):
        rows = ["A,s01,22,100,40,90,10.5,10;10;10"]
        path = write_table(tmp_path / "m.csv", rows)
        with pytest.raises(ConfigError, match="sample mean"):
            ingest_measurements(path)

    def test_samples_produce_ci_diagnostics(self, tmp_path):
        rows = anchor_rows("3FFFFFFF")
        rows[0] = rows[0] + "120;120;120"
        path = write_table(tmp_path / "m.csv", rows)
        table = ingest_measurements(path)
        assert len(table.diagnostics) == 1
        assert "pass" in table.diagnostics[0]
        assert "mean=120 J" in table.diagnostics[0]


def reference_ingest(path):
    """``ingest_measurements`` spelled out one field at a time, with ``ci_check``'s exact gate."""
    table = MeasurementTable()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, row in data_rows(handle, CSV_HEADER, path):
            ctp_id, sequence, qp_text, rate, psnr, vmaf, energy, samples_text = row
            try:
                if not re.fullmatch("[0-9A-F]+", ctp_id):
                    raise ConfigError(f"ctp_id {ctp_id!r} is not an upper-case hex mask")
                if not sequence:
                    raise ConfigError("sequence is empty")
                try:
                    qp = int(qp_text)
                except ValueError:
                    raise ConfigError(f"qp is not an integer: {qp_text!r}") from None
                energy_j = parse_float(energy, "energy_j")
                samples = tuple(parse_float(s, "energy sample")
                                for s in samples_text.split(";") if s)
                if samples:
                    verdict, mean, half_width = ci_check(samples)
                    if not math.isclose(mean, energy_j, rel_tol=ENERGY_MEAN_REL_TOL):
                        raise ConfigError(
                            f"energy_j {energy_j} does not match the sample mean {mean}")
                point = RdePoint(qp=qp, bitrate=parse_float(rate, "bitrate_kbps"),
                                 psnr=parse_float(psnr, "psnr_db"),
                                 vmaf=parse_float(vmaf, "vmaf"), energy=energy_j)
                key = (ctp_id, sequence, qp)
                if key in table.rows:
                    raise ConfigError(f"duplicate measurement key {key}")
                table.rows[key] = point
                if samples:
                    table.diagnostics.append(
                        f"{ctp_id}/{sequence}/qp{qp}: {verdict.value}: n={len(samples)} "
                        f"mean={mean:.6g} J half_width={half_width:.6g} J "
                        f"(confidence={DEFAULT_CONFIDENCE}, bound={DEFAULT_REL_HALF_WIDTH})")
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return table


def ingest_outcome(ingest, path):
    """The rows in order and the diagnostics of a table, or the error text."""
    try:
        table = ingest(path)
    except ConfigError as exc:
        return str(exc)
    return list(table.rows.items()), table.diagnostics


# Gated and plain rows, a row whose samples field has empty items, and
# lines that ingest skips.
FUZZ_BASE = "\n".join([
    HEADER_LINE, "# measured", *with_readings(anchor_rows("7")), "",
    *anchor_rows("6"), *with_readings(halved_energy_rows("5", "s02")),
    "3,s01,22,8000.0,42.5,92.0,10.0,9.9;;10.1;",
]) + "\n"
FUZZ_TOKENS = (";", ",", "-", "+", "e", "0", "7", ".", " ", "_", "nan", "inf", "x", "A", "\n",
               "#", ";;", "1e308", "1e-320")
MUTATIONS = st.lists(st.tuples(st.sampled_from(("insert", "delete", "copy-line")),
                               st.integers(0, 10 ** 6), st.sampled_from(FUZZ_TOKENS)),
                     min_size=1, max_size=4)


def mutate(text, mutations):
    for op, at, token in mutations:
        if op == "copy-line":
            lines = text.split("\n")
            lines.insert(at // 7 % len(lines), lines[at % len(lines)])
            text = "\n".join(lines)
        else:
            i = at % (len(text) + 1)
            text = text[:i] + token + text[i:] if op == "insert" else text[:i] + text[i + 1:]
    return text


class TestIngestRowRules:
    """Ingest with the filtered gate gives what the exact row rules give, on every input."""

    def test_empty_sample_items_are_skipped(self, tmp_path):
        path = write_table(tmp_path / "m.csv", ["3,s01,22,8000.0,42.5,92.0,10.0,9.9;;10.1;"])
        table = ingest_measurements(path)
        assert table.diagnostics == reference_ingest(path).diagnostics
        assert table.diagnostics[0].startswith("3/s01/qp22: fail: n=2 mean=10 J")

    def test_base_table_is_ingested(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(FUZZ_BASE)
        rows, diagnostics = ingest_outcome(ingest_measurements, path)
        assert len(rows) == 13 and len(diagnostics) == 9

    @settings(max_examples=300)
    @given(MUTATIONS)
    @example([("copy-line", 9, "")])
    @example([("insert", 80, ";;")])
    @example([("insert", 82, "1e308")])
    @example([("delete", 55, "")])
    def test_mutated_table_gives_the_reference_outcome(self, tmp_path_factory, mutations):
        path = tmp_path_factory.mktemp("fuzz") / "m.csv"
        path.write_text(mutate(FUZZ_BASE, mutations), encoding="utf-8")
        assert (ingest_outcome(ingest_measurements, path)
                == ingest_outcome(reference_ingest, path))


class TestCachedEvaluator:
    def test_returns_exact_ingested_rows(self, tmp_path):
        registry = default_registry()
        anchor = default_ctp(registry)
        mask = serialize_ctp(anchor)
        path = write_table(tmp_path / "m.csv", anchor_rows(mask))
        evaluator = CachedTableEvaluator(ingest_measurements(path))
        (curve,) = evaluator.evaluate(EvaluationRequest(anchor, ("s01",), BASE_QPS))
        assert [p.bitrate for p in curve.points] == [8000.0, 4500.0, 2500.0, 1400.0]
        assert [p.vmaf for p in curve.points] == [92.0, 86.5, 78.0, 66.0]

    def test_missing_row_names_key(self, tmp_path):
        registry = default_registry()
        anchor = default_ctp(registry)
        mask = serialize_ctp(anchor)
        path = write_table(tmp_path / "m.csv", anchor_rows(mask)[:-1])
        evaluator = CachedTableEvaluator(ingest_measurements(path))
        with pytest.raises(MeasurementMissError) as err:
            evaluator.evaluate(EvaluationRequest(anchor, ("s01",), BASE_QPS))
        assert err.value.missing == ((mask, "s01", 37),)
        assert "qp=37" in str(err.value)


def numpy_model(registry, sequences, qps, seed):
    """The synthetic model as drawn with numpy.random.default_rng: the oracle of
    SyntheticModelParams.random, which must give every seed the same model."""
    rng = np.random.default_rng(seed)
    n = len(registry)
    qps = tuple(int(q) for q in qps)
    baselines = {}
    for sequence in sequences:
        steps = len(qps) - 1
        rate0 = rng.uniform(4000.0, 16000.0)
        rate = [rate0]
        for _ in range(steps):
            rate.append(rate[-1] / rng.uniform(1.6, 2.1))
        psnr0 = rng.uniform(41.0, 44.0)
        psnr = [psnr0]
        for _ in range(steps):
            psnr.append(psnr[-1] - rng.uniform(1.8, 3.0))
        vmaf0 = rng.uniform(82.0, 92.0)
        vmaf = [vmaf0]
        for _ in range(steps):
            vmaf.append(vmaf[-1] - rng.uniform(6.0, 10.0))
        if vmaf[-1] < 5.0:
            scale = (vmaf0 - 5.0) / (vmaf0 - vmaf[-1])
            vmaf = [vmaf0 - (vmaf0 - v) * scale for v in vmaf]
        energy0 = rng.uniform(60.0, 160.0)
        energy = [energy0]
        for _ in range(steps):
            energy.append(energy[-1] / rng.uniform(1.25, 1.5))
        baselines[sequence] = SequenceBaseline(
            qps,
            tuple(float(v) for v in rate),
            tuple(float(v) for v in psnr),
            tuple(float(v) for v in vmaf),
            tuple(float(v) for v in energy),
        )
    dq_psnr_bound = min(0.25, 4.0 / n)
    dq_vmaf_bound = min(0.35, 6.0 / n)
    pairs = []
    seen = set()
    while len(pairs) < min(evaluators.INTERACTION_PAIRS, n * (n - 1) // 2):
        j, k = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (j, k) in seen:
            continue
        seen.add((j, k))
        pairs.append((int(j), int(k), float(rng.uniform(0.92, 1.10))))
    return SyntheticModelParams(
        baselines=baselines,
        rate_mult=tuple(float(v) for v in rng.uniform(0.90, 1.04, size=n)),
        energy_mult=tuple(float(v) for v in rng.uniform(0.95, 1.18, size=n)),
        dq_psnr=tuple(float(v) for v in rng.uniform(-dq_psnr_bound, dq_psnr_bound, size=n)),
        dq_vmaf=tuple(float(v) for v in rng.uniform(-dq_vmaf_bound, dq_vmaf_bound, size=n)),
        interactions=tuple(sorted(pairs)),
    )


class TestSyntheticModel:
    def test_all_tools_disabled_returns_baseline(self):
        registry = make_registry(4)
        params = make_params(4, rate_mult=(1.2,) * 4, energy_mult=(1.1,) * 4)
        evaluator = SyntheticModelEvaluator(params)
        off = Ctp(registry, 0b0000)
        (curve,) = evaluator.evaluate(EvaluationRequest(off, ("s01",), BASE_QPS))
        baseline = make_baseline()
        assert tuple(p.bitrate for p in curve.points) == baseline.rate
        assert tuple(p.energy for p in curve.points) == baseline.energy
        assert tuple(p.psnr for p in curve.points) == baseline.psnr

    def test_enabled_pair_with_interaction(self):
        registry = make_registry(3)
        params = make_params(
            3,
            energy_mult=(1.10, 1.25, 1.0),
            interactions=((0, 1, 1.07),),
        )
        evaluator = SyntheticModelEvaluator(params)
        both = Ctp(registry, 0b011)
        (curve,) = evaluator.evaluate(EvaluationRequest(both, ("s01",), BASE_QPS))
        baseline = make_baseline()
        for point, base in zip(curve.points, baseline.energy):
            assert point.energy == pytest.approx(base * 1.10 * 1.25 * 1.07, rel=1e-12)

    def test_interaction_needs_both_tools(self):
        registry = make_registry(3)
        params = make_params(3, energy_mult=(1.10, 1.25, 1.0),
                             interactions=((0, 1, 1.07),))
        evaluator = SyntheticModelEvaluator(params)
        only_first = Ctp(registry, 0b001)
        (curve,) = evaluator.evaluate(EvaluationRequest(only_first, ("s01",), BASE_QPS))
        baseline = make_baseline()
        for point, base in zip(curve.points, baseline.energy):
            assert point.energy == pytest.approx(base * 1.10, rel=1e-12)

    def test_bit_exact_determinism(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01", "s02"), BASE_QPS, seed=3)
        request = EvaluationRequest(default_ctp(registry), ("s01", "s02"), BASE_QPS)
        first = SyntheticModelEvaluator(params).evaluate(request)
        second = SyntheticModelEvaluator(params).evaluate(request)
        assert first == second

    def test_random_params_valid_for_every_subset(self):
        rng = np.random.default_rng(99)
        # One and two tools have fewer pairs than the model draws interactions for.
        for n, seed in [(6, s) for s in range(5)] + [(1, 0), (2, 0)]:
            registry = make_registry(n)
            params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=seed)
            evaluator = SyntheticModelEvaluator(params)
            for _ in range(16):
                mask = sum(int(b) << i for i, b in enumerate(rng.integers(0, 2, size=n)))
                request = EvaluationRequest(Ctp(registry, mask), ("s01",), BASE_QPS)
                (curve,) = evaluator.evaluate(request)  # RdeCurve validates invariants
                assert all(0.0 <= p.vmaf <= 100.0 for p in curve.points)

    def test_registry_size_mismatch(self):
        params = make_params(3)
        request = EvaluationRequest(default_ctp(make_registry(4)), ("s01",), BASE_QPS)
        with pytest.raises(ConfigError, match="3 tools"):
            SyntheticModelEvaluator(params).evaluate(request)

    def test_unknown_sequence(self):
        params = make_params(3)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("nope",), BASE_QPS)
        with pytest.raises(ConfigError, match="nope"):
            SyntheticModelEvaluator(params).evaluate(request)

    def test_unknown_qp(self):
        params = make_params(3)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), (22, 25, 27, 32))
        with pytest.raises(ConfigError, match="25"):
            SyntheticModelEvaluator(params).evaluate(request)

    def test_concurrent_calls_match_serial(self):
        registry = make_registry(6)
        params = SyntheticModelParams.random(registry, ("s01",), BASE_QPS, seed=8)
        evaluator = SyntheticModelEvaluator(params)
        profiles = [Ctp(registry, v) for v in range(16)]
        requests = [EvaluationRequest(p, ("s01",), BASE_QPS) for p in profiles]
        serial = [evaluator.evaluate(r) for r in requests]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(evaluator.evaluate, requests))
        assert serial == parallel

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError, match="multipliers"):
            make_params(2, energy_mult=(1.0, -0.5))
        with pytest.raises(ConfigError, match="ordered tool pair"):
            make_params(2, interactions=((1, 1, 1.05),))
        with pytest.raises(ConfigError, match="equal length"):
            SyntheticModelParams(
                baselines={"s01": make_baseline()},
                rate_mult=(1.0, 1.0),
                energy_mult=(1.0,),
                dq_psnr=(0.0, 0.0),
                dq_vmaf=(0.0, 0.0),
            )

    @pytest.mark.parametrize("mult", [0.0, -1.05])
    def test_non_positive_interaction_rejected(self, mult):
        with pytest.raises(ConfigError, match=r"interaction \(0, 1\) multiplier must be > 0"):
            make_params(2, interactions=((0, 1, mult),))

    @pytest.mark.parametrize("table", ["rate", "energy"])
    def test_non_positive_baseline_rejected(self, table):
        tables = {"rate": (8000.0, 4500.0), "psnr": (42.5, 40.1), "vmaf": (92.0, 86.5),
                  "energy": (120.0, 90.0)}
        tables[table] = (tables[table][0], 0.0)
        with pytest.raises(ConfigError, match="baseline rate and energy values must be > 0"):
            SequenceBaseline((22, 27), *tables.values())

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            SyntheticModelParams.random(make_registry(4), ("s01",), BASE_QPS, seed=-3)

    @given(
        seed=st.integers(min_value=0, max_value=2**128 - 1),
        tools=st.integers(min_value=1, max_value=64),
        sequences=st.integers(min_value=1, max_value=3),
        qps=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6,
                     unique=True).map(sorted),
    )
    # Seeds of one, two and three 32-bit words of SeedSequence entropy.
    @example(seed=0, tools=30, sequences=2, qps=BASE_QPS)
    @example(seed=2**32, tools=30, sequences=2, qps=BASE_QPS)
    @example(seed=2**64 + 1, tools=30, sequences=2, qps=BASE_QPS)
    # Five words: more entropy than SeedSequence's four-word pool.
    @example(seed=2**128 + 3, tools=30, sequences=2, qps=BASE_QPS)
    # One and two tools have fewer pairs than the model draws interactions for.
    @example(seed=5, tools=1, sequences=1, qps=BASE_QPS)
    @example(seed=5, tools=2, sequences=1, qps=BASE_QPS)
    # Twelve qps take the last VMAF value below 5, so the model rescales the curve.
    @example(seed=0, tools=30, sequences=2, qps=TWELVE_QPS)
    @example(seed=7, tools=30, sequences=2, qps=TWELVE_QPS)
    def test_random_matches_numpy_default_rng(self, seed, tools, sequences, qps):
        registry = make_registry(tools)
        names = tuple(f"s{i:02d}" for i in range(sequences))
        assert SyntheticModelParams.random(registry, names, qps, seed=seed) \
            == numpy_model(registry, names, qps, seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**128 + 3],
                             ids=["0", "7", "2**32", "2**128+3"])
    def test_stream_matches_numpy_pcg64(self, seed):
        # The model's draws alone seldom reach Lemire's rejection loop; tops
        # near 2**32 reject about a quarter of their draws.
        rng = evaluators._Pcg64(seed)
        assert [rng.next64() for _ in range(8)] == np.random.PCG64(seed).random_raw(8).tolist()
        tops = [1, 2, 29, 2**31, 3 * 2**30 + 5, 2**32 - 2] * 20
        rng = evaluators._Pcg64(seed)
        reference = np.random.default_rng(seed)
        assert [rng.bounded(top) for top in tops] \
            == [int(reference.integers(0, top, endpoint=True)) for top in tops]

    def test_baseline_validation(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SequenceBaseline((27, 22), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ConfigError, match="same qps"):
            SequenceBaseline((22, 27), (1.0,), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))


RESULT_ROWS = {
    22: "22,8000.0,42.5,92.0,120.0,120;120;120;120;120",
    27: "27,4500.0,40.1,86.5,90.0,90;90;90;90;90",
    32: "32,2500.0,37.4,78.0,65.0,65;65;65;65;65",
    37: "37,1400.0,34.6,66.0,45.0,45;45;45;45;45",
}


def copy_template(fixture_dir):
    """Command template that copies a per-job fixture file to {out}."""
    script = "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"
    return (
        f'{sys.executable} -c "{script}" '
        f"{fixture_dir}/{{sequence}}_{{qp}}.csv {{out}} {{ctp_mask}}"
    )


def write_result_fixtures(fixture_dir, sequence="s01", rows=RESULT_ROWS):
    header = "qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples"
    for qp, row in rows.items():
        (fixture_dir / f"{sequence}_{qp}.csv").write_text(f"{header}\n{row}\n")


class TestExternalCommand:
    def test_mock_command_round_trips_fixture(self, tmp_path):
        write_result_fixtures(tmp_path)
        registry = make_registry(3)
        request = EvaluationRequest(default_ctp(registry), ("s01",), BASE_QPS)
        (curve,) = ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)
        assert [p.bitrate for p in curve.points] == [8000.0, 4500.0, 2500.0, 1400.0]
        # zero-variance samples pass the gate and their value is the energy
        assert [p.energy for p in curve.points] == [120.0, 90.0, 65.0, 45.0]

    def test_nonzero_exit_names_sequence_and_qp(self, tmp_path):
        template = f'{sys.executable} -c "import sys; sys.exit(3)" {{sequence}} {{qp}} {{ctp_mask}} {{out}}'
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match=r"\(s01, qp 22\).*exited with 3"):
            ExternalCommandEvaluator(template).evaluate(request)

    def test_failed_ci_gate_is_an_error(self, tmp_path):
        rows = dict(RESULT_ROWS)
        rows[22] = "22,8000.0,42.5,92.0,10.0,5;15;5;15"
        write_result_fixtures(tmp_path, rows=rows)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match="rejected.*fail"):
            ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)

    def test_missing_result_file(self, tmp_path):
        template = f'{sys.executable} -c "pass" {{sequence}} {{qp}} {{ctp_mask}} {{out}}'
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match="no result file"):
            ExternalCommandEvaluator(template).evaluate(request)

    def test_bad_result_header(self, tmp_path):
        (tmp_path / "s01_22.csv").write_text("qp,rate\n22,1\n")
        write_result_fixtures(tmp_path, rows={qp: r for qp, r in RESULT_ROWS.items() if qp != 22})
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match="cannot parse"):
            ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)

    def test_two_result_rows_rejected(self, tmp_path):
        rows = dict(RESULT_ROWS)
        rows[22] = RESULT_ROWS[22] + "\n" + RESULT_ROWS[22]
        write_result_fixtures(tmp_path, rows=rows)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError,
                           match=r"^\(s01, qp 22\): cannot parse result file: expected exactly "
                                 r"one data row"):
            ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)

    def test_output_that_is_not_utf8_keeps_the_job(self, tmp_path):
        write_result_fixtures(tmp_path)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        chatty = copy_template(tmp_path).replace(
            "import shutil,sys;", "import shutil,sys; sys.stdout.buffer.write(b'\\xff');")
        (curve,) = ExternalCommandEvaluator(chatty).evaluate(request)
        assert [p.bitrate for p in curve.points] == [8000.0, 4500.0, 2500.0, 1400.0]
        failing = (f'{sys.executable} -c "import sys; sys.stdout.buffer.write(b\'\\xff\'); '
                   f'sys.exit(3)" {{out}}')
        with pytest.raises(EvaluationError,
                           match=r"\(s01, qp 22\): command exited with 3; stdout: '\\\\xff'"):
            ExternalCommandEvaluator(failing).evaluate(request)

    def test_energy_disagreeing_with_samples_rejected(self, tmp_path):
        rows = dict(RESULT_ROWS)
        rows[22] = "22,8000.0,42.5,92.0,999.0,120;120;120"
        write_result_fixtures(tmp_path, rows=rows)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match=r"\(s01, qp 22\).*sample mean"):
            ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)

    def test_qp_mismatch_rejected(self, tmp_path):
        rows = dict(RESULT_ROWS)
        rows[22] = RESULT_ROWS[27]
        write_result_fixtures(tmp_path, rows=rows)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError, match="invoked with qp 22"):
            ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)

    def test_template_requires_out_placeholder(self):
        with pytest.raises(ConfigError, match=r"\{out\}"):
            ExternalCommandEvaluator("encode {sequence} {qp}")

    def test_unknown_placeholder_rejected(self, tmp_path):
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(ConfigError, match="placeholder"):
            ExternalCommandEvaluator("encode {output} {out}").evaluate(request)

    # Attribute, index and escaped-``{out}`` templates are checked through `ctp dse`.
    @pytest.mark.parametrize("template, message", [
        ("enc {qp:{ctp_mask.x}} {out}", "unknown placeholder {ctp_mask.x}"),
        ("enc {} {out}", "unknown placeholder {}"),
        ("enc {qp!z} {out}", "malformed placeholder: Unknown conversion specifier z"),
        ("enc {out", "malformed placeholder: expected '}' before end of string"),
    ], ids=["nested", "positional", "conversion", "unclosed"])
    def test_template_fields_checked_when_built(self, template, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExternalCommandEvaluator(template)

    def test_format_spec_is_applied(self, monkeypatch):
        launched = []

        def fake_run(argv, **kwargs):
            launched.append(argv)
            return subprocess.CompletedProcess(argv, 1, "", "")

        monkeypatch.setattr(evaluators.subprocess, "run", fake_run)
        request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
        with pytest.raises(EvaluationError):
            ExternalCommandEvaluator("enc {qp:03d} {out}").evaluate(request)
        assert launched[0][1] == "022"

    def test_max_parallel_below_one_rejected(self):
        with pytest.raises(ConfigError, match="max_parallel must be >= 1, got 0"):
            ExternalCommandEvaluator("enc {out}", max_parallel=0)

    def test_unbalanced_quote_rejected(self):
        with pytest.raises(ConfigError, match="split"):
            ExternalCommandEvaluator('encode "{out}')

    def test_parallel_jobs_match_serial(self, tmp_path):
        write_result_fixtures(tmp_path)
        write_result_fixtures(tmp_path, sequence="s02")
        registry = make_registry(3)
        request = EvaluationRequest(default_ctp(registry), ("s01", "s02"), BASE_QPS)
        template = copy_template(tmp_path)
        serial = ExternalCommandEvaluator(template, max_parallel=1).evaluate(request)
        parallel = ExternalCommandEvaluator(template, max_parallel=4).evaluate(request)
        assert serial == parallel

    @pytest.mark.parametrize("max_parallel", [1, 3])
    def test_first_failure_stops_further_launches(self, monkeypatch, max_parallel):
        lock = threading.Lock()
        launched = []

        def failing_run(argv, **kwargs):
            with lock:
                launched.append(argv)
            time.sleep(0.02)
            return subprocess.CompletedProcess(argv, 1, "", "")

        monkeypatch.setattr(evaluators.subprocess, "run", failing_run)
        sequences = ("s01", "s02", "s03", "s04")
        request = EvaluationRequest(default_ctp(make_registry(3)), sequences, BASE_QPS)
        evaluator = ExternalCommandEvaluator("enc {sequence} {qp} {out}",
                                             max_parallel=max_parallel)
        with pytest.raises(EvaluationError, match=r"\(s01, qp 22\).*exited with 1"):
            evaluator.evaluate(request)
        # 16 jobs; only those started before the first failure launch
        assert 1 <= len(launched) <= max_parallel

    def test_sequence_with_space_is_one_argument(self, tmp_path):
        write_result_fixtures(tmp_path, sequence="City Scene")
        request = EvaluationRequest(default_ctp(make_registry(3)), ("City Scene",), BASE_QPS)
        (curve,) = ExternalCommandEvaluator(copy_template(tmp_path)).evaluate(request)
        assert curve.sequence == "City Scene"
        assert [p.bitrate for p in curve.points] == [8000.0, 4500.0, 2500.0, 1400.0]
