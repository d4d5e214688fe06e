import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ctpdse
from ctpdse import cli, evaluators
from ctpdse.curves import BD_FIELDS, BdReport
from ctpdse.evaluators import ingest_measurements
from ctpdse.manifest import file_digest, registry_digest
from ctpdse.pareto import read_points_csv
from ctpdse.profiles import default_registry, load_registry, parse_ctp, serialize_ctp

from conftest import (
    BENCHMARK_POINTS,
    HEADER_LINE,
    REGISTRY_3,
    anchor_rows,
    gated_table,
    halved_energy_rows,
    make_registry,
    write_table,
)
from test_evaluators import RESULT_ROWS, copy_template, write_result_fixtures

# Energy samples that crashed the CI gate with a traceback, and the
# diagnostic each now gives.
BAD_SAMPLES = [
    pytest.param("90;inf", "energy samples must be finite and > 0, got inf", id="inf"),
    pytest.param("1e308;1.7e308", "the sum of the energy samples overflows a float",
                 id="sum-overflow"),
]


def with_samples(rows, index, samples):
    """``rows`` with the energy samples of row ``index`` replaced."""
    rows = list(rows)
    rows[index] = rows[index].rstrip(",") + "," + samples
    return rows


class TestShow:
    def test_default_profile_echoed_and_round_trips(self, capsys):
        assert cli.main(["show", "--default"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^profile ([0-9A-F]+)", out, re.M)
        assert match is not None
        mask = match.group(1)
        registry = default_registry()
        assert serialize_ctp(parse_ctp(mask, registry)) == mask == "3FFFFFFF"
        assert "30 of 30 tools enabled" in out

    def test_show_specific_profile(self, capsys):
        assert cli.main(["show", "--profile", "off:DMVR"]) == 0
        out = capsys.readouterr().out
        assert "29 of 30 tools enabled" in out
        assert re.search(r"DMVR\s+Inter\s+off", out)

    def test_show_custom_registry(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        assert cli.main(["show", "--default", "--registry", str(reg)]) == 0
        assert "registry 3 tools" in capsys.readouterr().out


class TestDse:
    def test_synthetic_run_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "synthetic",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        for name in ("result.json", "points.csv", "front.csv", "summary.txt", "manifest.json"):
            assert (out / name).is_file()
        document = json.loads((out / "result.json").read_text())
        assert document["config"]["strategy"] == "e1"
        assert document["manifest"]["config"]["seed"] == 7
        stdout = capsys.readouterr().out
        assert "terminal" in stdout

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text("T00,Other,1\nT01,Other,1\nT02,Other,1\nT03,Other,1\nT04,Other,1\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            args = [
                "dse", "--strategy", "ca", "--backend", "synthetic",
                "--seed", "3", "--registry", str(reg), "--out", str(out),
            ]
            assert cli.main(args) == 0
        capsys.readouterr()
        for name in ("result.json", "points.csv", "front.csv", "summary.txt", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("axis", ["vmaf", "psnr"])
    @pytest.mark.parametrize("strategy", ["ea", "c1"])
    def test_run_renders_from_its_result_json(self, tmp_path, capsys, strategy, axis):
        # The files and the terminal line come back byte for byte from the
        # document read back from disk, by the rendering ``ctp dse`` uses.
        out = tmp_path / "run"
        assert cli.main(["dse", "--strategy", strategy, "--axis", axis, "--backend", "synthetic",
                         "--seed", "11", "--lbe-threshold", "12.5", "--out", str(out)]) == 0
        terminal = capsys.readouterr().out.splitlines()[0]
        document = json.loads((out / "result.json").read_text(encoding="utf-8"))
        files, line = cli._render_run(document)
        assert sorted(files) == sorted(p.name for p in out.iterdir())
        for name, text in files.items():
            assert text == (out / name).read_text(encoding="utf-8"), name
        assert line == terminal

    def test_cached_backend_runs_from_table(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = anchor_rows("7")
        for mask in ("6", "5", "3"):  # all single flips of the anchor
            rows += halved_energy_rows(mask)
        table = write_table(tmp_path / "m.csv", rows)
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached",
            "--measurements", table, "--registry", str(reg),
            "--max-iter", "1", "--out", str(out),
        ])
        assert code == 0
        document = json.loads((out / "result.json").read_text())
        # every single flip halves energy, so the best candidate wins by tie-break
        assert document["iterations"][0]["flipped_tools"] == ["T00"]

    def test_cached_missing_row_exits_3_and_names_key(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = write_table(tmp_path / "m.csv", anchor_rows("7"))
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached",
            "--measurements", table, "--registry", str(reg),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "profile 6:" in err and "sequence=s01" in err and "qp=22" in err

    def test_external_process_failure_exits_4(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        template = (
            f'{sys.executable} -c "import sys; sys.exit(2)" '
            "{sequence} {qp} {ctp_mask} {out}"
        )
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "external",
            "--command-template", template, "--sequences", "s01",
            "--registry", str(reg), "--out", str(tmp_path / "run"),
        ])
        assert code == 4
        assert "exited with 2" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, code, message", [
        ("external", 4, "error: profile 7: (s01, qp 22): command exited with 2"),
        ("cached", 2, "error: profile 6: bdr_vmaf (s01): empty quality overlap"),
    ], ids=["external", "cached"])
    def test_evaluation_error_names_the_failing_profile(self, tmp_path, capsys, backend, code,
                                                        message):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        if backend == "external":  # the anchor's first job fails
            flags = ["--command-template",
                     f'{sys.executable} -c "import sys; sys.exit(2)" '
                     "{sequence} {qp} {ctp_mask} {out}", "--sequences", "s01"]
        else:  # flip 6 has no VMAF in common with the anchor
            rows = anchor_rows("7") + halved_energy_rows("5") + halved_energy_rows("3")
            for row in halved_energy_rows("6"):
                fields = row.split(",")
                fields[5] = str(float(fields[5]) - 60.0)
                rows.append(",".join(fields))
            flags = ["--measurements", write_table(tmp_path / "m.csv", rows)]
        assert cli.main(["dse", "--strategy", "e1", "--backend", backend, *flags,
                         "--registry", str(reg), "--out", str(tmp_path / "run")]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)

    @pytest.mark.parametrize("samples, message", BAD_SAMPLES)
    def test_cached_bad_samples_exit_2_and_name_line(self, tmp_path, capsys, samples, message):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = write_table(tmp_path / "m.csv", with_samples(anchor_rows("7"), 1, samples))
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached",
            "--measurements", table, "--registry", str(reg),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert f"m.csv:3: {message}" in capsys.readouterr().err

    def test_external_non_finite_sample_exits_4(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = dict(RESULT_ROWS)
        rows[27] = "27,4500.0,40.1,86.5,90.0,90;inf"
        write_result_fixtures(tmp_path, rows=rows)
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "external",
            "--command-template", copy_template(tmp_path), "--sequences", "s01",
            "--registry", str(reg), "--out", str(tmp_path / "run"),
        ])
        assert code == 4
        assert "(s01, qp 27)" in capsys.readouterr().err

    @pytest.mark.parametrize("exists, reason", [
        (False, "[Errno 2] No such file or directory"),
        (True, "[Errno 13] Permission denied"),
    ], ids=["missing", "not-executable"])
    def test_unlaunchable_command_exits_4_and_names_the_profile(self, tmp_path, capsys,
                                                                exists, reason):
        script = tmp_path / "notexec.sh"
        if exists:
            script.write_text("#!/bin/sh\n")
            script.chmod(0o644)
        code = cli.main([
            "dse", "--strategy", "c1", "--backend", "external", "--sequences", "s01",
            "--command-template", f"{script} {{out}}", "--out", str(tmp_path / "run"),
        ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: profile 3FFFFFFF: (s01, qp 22): cannot launch '{script}': "
                       f"{reason}: '{script}'"]

    def test_missing_result_file_is_named_by_its_placeholder(self, tmp_path, capsys):
        code = cli.main([
            "dse", "--strategy", "c1", "--backend", "external", "--sequences", "s01",
            "--command-template", f'{sys.executable} -c "pass" {{out}}',
            "--out", str(tmp_path / "run"),
        ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: profile 3FFFFFFF: (s01, qp 22): command produced no result "
                       "file: {out}: No such file or directory"]
        assert "ctpdse-ext-" not in err[0]

    @pytest.mark.parametrize("template, message", [
        ("echo {out} {sequence.x}", "unknown placeholder {sequence.x}"),
        ("touch {out} {qp[0]}", "unknown placeholder {qp[0]}"),
        ("touch {{out}}", "must contain an {out} placeholder"),
    ], ids=["attribute", "index", "escaped-out"])
    def test_bad_command_template_exits_2_before_any_job(self, tmp_path, capsys, monkeypatch,
                                                         template, message):
        launched = []
        monkeypatch.setattr(evaluators.subprocess, "run",
                            lambda argv, **kwargs: launched.append(argv))
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "c1", "--backend", "external", "--sequences", "s01",
            "--command-template", template, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: command template ")
        assert message in err[0]
        assert launched == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--sequences", "s01"], "--backend external requires --command-template"),
        (["--command-template", "enc {out}"], "--backend external requires --sequences"),
    ], ids=["no-template", "no-sequences"])
    def test_external_without_a_required_flag_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        code = cli.main(["dse", "--strategy", "c1", "--backend", "external", *flags,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_external_results_that_form_no_curve_exit_4(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = dict(RESULT_ROWS)
        rows[27] = "27,9000.0,40.1,86.5,90.0,90;90;90;90;90"  # above qp 22's 8000 kbps
        write_result_fixtures(tmp_path, rows=rows)
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "external",
            "--command-template", copy_template(tmp_path), "--sequences", "s01",
            "--registry", str(reg), "--out", str(tmp_path / "run"),
        ])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: profile 7: external results do not form a valid curve: "
            "curve (s01): bitrate not strictly decreasing with qp at qp 27"
        ]

    @pytest.mark.parametrize("backend", ["synthetic", "external"])
    def test_repeated_sequence_exits_2_before_any_job(self, tmp_path, capsys, monkeypatch,
                                                      backend):
        launched = []
        monkeypatch.setattr(evaluators.subprocess, "run",
                            lambda argv, **kwargs: launched.append(argv))
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", backend, "--sequences", "s01,s01",
            "--command-template", "enc {sequence} {qp} {out}", "--out", str(out),
        ])
        assert code == 2
        assert "sequence names must not repeat, got ('s01', 's01')" in capsys.readouterr().err
        assert launched == []
        assert not out.exists()

    def test_fewer_than_four_qps_exits_2_before_any_job(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        code, launched = self._external_dse(monkeypatch, out, "--qps", "22,27,32")
        assert code == 2
        assert "BD needs at least 4 qps, got 3" in capsys.readouterr().err
        assert launched == []
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["cached", "synthetic", "external"])
    @pytest.mark.parametrize("value", ["0", "-1", "²"])
    def test_max_parallel_below_one_exits_2(self, tmp_path, capsys, backend, value):
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "ea", "--backend", backend, "--seed", "7",
            f"--max-parallel={value}", "--out", str(out),
        ])
        assert code == 2
        assert f"argument --max-parallel: must be an integer >= 1, got '{value}'" \
            in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _external_dse(monkeypatch, out, *flags):
        """Exit code of an external ``ctp dse``, and the argv of every child it launched."""
        launched = []
        monkeypatch.setattr(evaluators.subprocess, "run",
                            lambda argv, **kwargs: launched.append(argv))
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "external", "--sequences", "s01",
            "--command-template", "enc {sequence} {qp} {out}", "--out", str(out), *flags,
        ])
        return code, launched

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_bad_lbe_threshold_exits_2_before_any_job(self, tmp_path, capsys, monkeypatch,
                                                      threshold):
        out = tmp_path / "run"
        code, launched = self._external_dse(monkeypatch, out, f"--lbe-threshold={threshold}")
        assert code == 2
        assert f"got {float(threshold)}" in capsys.readouterr().err
        assert launched == []
        assert not out.exists()

    def test_out_naming_a_file_exits_2_before_any_job(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        out.write_text("kept\n")
        code, launched = self._external_dse(monkeypatch, out)
        assert code == 2
        assert "File exists" in capsys.readouterr().err
        assert launched == []
        assert out.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_out_naming_a_finished_run_exits_2_before_any_job(self, tmp_path, capsys,
                                                              monkeypatch):
        out = tmp_path / "run"
        assert cli.main(["dse", "--strategy", "ea", "--backend", "synthetic",
                         "--seed", "7", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        code, launched = self._external_dse(monkeypatch, out)
        assert code == 2
        assert f"--out {out} is not empty" in capsys.readouterr().err
        assert launched == []
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_cached_out_not_empty_exits_2_before_ingest(self, tmp_path, capsys):
        reg, table = gated_table(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached", "--measurements", table,
            "--registry", reg, "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--out {out} is not empty" in captured.err
        assert "measurement:" not in captured.err
        assert captured.out == ""
        assert [path.name for path in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("flags, message", [
        (["--qps", "22,27,32"], "BD needs at least 4 qps, got 3"),
        (["--sequences", "s01,s01"], "sequence names must not repeat, got ('s01', 's01')"),
        (["--max-iter", "0"], "argument --max-iter: must be an integer >= 1, got '0'"),
        (["--max-iter", "²"], "argument --max-iter: must be an integer >= 1, got '²'"),
        (["--lbe-threshold", "0"], "lbe_bdr_threshold must be finite and > 0, got 0.0"),
    ], ids=["three-qps", "repeated-sequence", "max-iter", "max-iter-superscript",
            "lbe-threshold"])
    def test_cached_bad_argument_exits_2_before_ingest(self, tmp_path, capsys, flags,
                                                       message):
        reg, table = gated_table(tmp_path)
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached", "--measurements", table,
            "--registry", reg, "--out", str(out), *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "measurement:" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_empty_out_left_by_a_failed_run_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "run"
        template = f'{sys.executable} -c "import sys; sys.exit(2)" {{sequence}} {{qp}} {{out}}'
        assert cli.main(["dse", "--strategy", "e1", "--backend", "external",
                         "--command-template", template, "--sequences", "s01",
                         "--out", str(out)]) == 4
        assert out.is_dir() and list(out.iterdir()) == []
        assert cli.main(["dse", "--strategy", "ea", "--backend", "synthetic",
                         "--seed", "7", "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == {
            "result.json", "points.csv", "front.csv", "summary.txt", "manifest.json"}

    def test_all_policy_stopped_by_max_iter_reports_terminal(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "ca", "--backend", "synthetic",
            "--seed", "7", "--max-iter", "3", "--out", str(out),
        ])
        assert code == 0
        document = json.loads((out / "result.json").read_text())
        assert document["termination_reason"] == "max-iterations"
        assert document["terminal_reference"] in document["evaluated"]
        assert "terminal" in capsys.readouterr().out

    def test_missing_measurements_flag_exits_2(self, tmp_path, capsys):
        code = cli.main([
            "dse", "--strategy", "e1", "--backend", "cached",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "--measurements" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, tmp_path, capsys):
        code = cli.main([
            "dse", "--strategy", "zz", "--backend", "synthetic",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2

    def test_negative_seed_exits_2_and_names_seed(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main([
            "dse", "--strategy", "ea", "--backend", "synthetic",
            "--seed", "-1", "--out", str(out),
        ])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestBd:
    def _table(self, tmp_path):
        rows = anchor_rows("7") + halved_energy_rows("6")
        return write_table(tmp_path / "m.csv", rows)

    def test_anchor_versus_itself_is_all_zero(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = self._table(tmp_path)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "7",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        aggregate = [l for l in out.splitlines() if "aggregate" in l][0]
        assert aggregate.split()[2:] == ["0.00", "0.00", "0.00", "0.00"]

    def test_halved_energy_profile_reports_minus_fifty(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = self._table(tmp_path)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "off:T00",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        aggregate = [l for l in out.splitlines() if "aggregate" in l][0]
        # columns: BDR-VMAF BDDE-VMAF BDR-PSNR BDDE-PSNR
        assert aggregate.split()[2:] == ["0.00", "-50.00", "0.00", "-50.00"]

    def test_axis_flag_restricts_columns(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = self._table(tmp_path)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6", "--axis", "psnr",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BDR-PSNR" in out and "BDR-VMAF" not in out

    def test_anchor_without_qps_names_anchor_and_exits_2(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = self._table(tmp_path)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6", "--sequences", "nope",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 2
        assert "no rows for anchor 7 on 'nope'" in capsys.readouterr().err

    def test_anchor_without_rows_exits_2(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = self._table(tmp_path)
        code = cli.main([
            "bd", "--anchor", "3", "--test", "6",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: measurement table has no rows for anchor 3\n"
        )

    @pytest.mark.parametrize("samples, message", BAD_SAMPLES)
    def test_bad_samples_exit_2_and_name_line(self, tmp_path, capsys, samples, message):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = with_samples(anchor_rows("7"), 1, samples) + halved_energy_rows("6")
        table = write_table(tmp_path / "m.csv", rows)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 2
        assert f"m.csv:3: {message}" in capsys.readouterr().err

    def test_repeated_sequence_exits_2(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6", "--sequences", "s01,s01",
            "--measurements", self._table(tmp_path), "--registry", str(reg),
        ])
        assert code == 2
        assert "sequence names must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--test", "6", "--test", "ZZZ"], "ZZZ"),
        (["--test", "6", "--qps", "22,x"], "qps must be integers, got '22,x'"),
        (["--test", "6", "--sequences", ","], "sequence names must not be empty, got ('', '')"),
        (["--test", "6", "--sequences", "s01,s01"],
         "sequence names must not repeat, got ('s01', 's01')"),
        (["--test", "6", "--qps", "37,22,27,32"],
         "qps must be strictly increasing, got (37, 22, 27, 32)"),
        (["--test", "6", "--qps", "22,27,32"], "BD needs at least 4 qps, got 3"),
    ], ids=["test", "qps", "sequences", "repeated-sequence", "unordered-qps", "three-qps"])
    def test_bad_argument_exits_2_before_ingest(self, tmp_path, capsys, flags, message):
        reg, table = gated_table(tmp_path)
        code = cli.main(["bd", "--anchor", "7", "--measurements", table, "--registry", reg,
                         *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "measurement:" not in captured.err
        assert captured.out == ""

    def test_bad_anchor_exits_2_before_the_header(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = anchor_rows("7")
        rows[1] = rows[1].replace(",40.1,", ",37.4,")  # qp 27 repeats the PSNR of qp 32
        table = write_table(tmp_path / "m.csv", rows + halved_energy_rows("6"))
        code = cli.main(["bd", "--anchor", "7", "--test", "6",
                         "--measurements", table, "--registry", str(reg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: profile 7: bdr_psnr (s01): anchor curve quality values "
                                "are not strictly monotone (repeated quality near 37.4)\n")

    def test_missing_test_rows_exit_3(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = write_table(tmp_path / "m.csv", anchor_rows("7"))
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 3

    @pytest.mark.parametrize("edit, code, message", [
        # qp 27 repeats the VMAF of qp 32
        ((1, 5, "78.0"), 2, "bdr_vmaf (s01): test curve quality values are not strictly "
                            "monotone (repeated quality near 78)"),
        # qp 32's bitrate is above qp 27's
        ((2, 3, "4600.0"), 2, "curve (s01): bitrate not strictly decreasing with qp at qp 32"),
        (None, 3, "measurement miss: no rows for (sequence=s01, qp=22), (sequence=s01, qp=27), "
                  "(sequence=s01, qp=32), (sequence=s01, qp=37)"),
    ], ids=["bd", "curve", "miss"])
    def test_test_error_names_the_test_once(self, tmp_path, capsys, edit, code, message):
        # Profile 5 passes first, so the error line names the profile that failed.
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = anchor_rows("7") + halved_energy_rows("5")
        if edit is not None:
            index, column, value = edit
            test_rows = halved_energy_rows("6")
            fields = test_rows[index].split(",")
            fields[column] = value
            test_rows[index] = ",".join(fields)
            rows += test_rows
        table = write_table(tmp_path / "m.csv", rows)
        assert cli.main(["bd", "--anchor", "7", "--test", "5", "--test", "6",
                         "--measurements", table, "--registry", str(reg)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: profile 6: {message}\n"
        assert [line.split()[:2] for line in captured.out.splitlines()[2:]] == [
            ["5", "s01"], ["5", "aggregate"]]


def uneven_ladder_table(tmp_path):
    """Registry with three tools; anchor 7 has qps 22 to 32 on s01 and 22 to 37 on s02."""
    reg = tmp_path / "r.reg"
    reg.write_text(REGISTRY_3)
    rows = anchor_rows("7", "s01")[:3] + anchor_rows("7", "s02")
    rows += halved_energy_rows("6", "s01") + halved_energy_rows("6", "s02")
    return str(reg), write_table(tmp_path / "m.csv", rows)


TABLE_RULE_CASES = [
    pytest.param("s01,s02", "anchor 7 has qps 22,27,32 on 's01' but 22,27,32,37 on 's02'; "
                 "pass --qps explicitly", id="uneven-ladders"),
    pytest.param("s02,s01", "anchor 7 has qps 22,27,32,37 on 's02' but 22,27,32 on 's01'; "
                 "pass --qps explicitly", id="uneven-ladders-reversed"),
    pytest.param("nope,s01", "measurement table has no rows for anchor 7 on 'nope'",
                 id="unknown-first"),
    pytest.param("s01,nope", "measurement table has no rows for anchor 7 on 'nope'",
                 id="unknown-last"),
    pytest.param("s01", "BD needs at least 4 qps, got 3", id="short-ladder"),
]


@pytest.mark.parametrize("command", ["bd", "dse"])
@pytest.mark.parametrize("sequences, message", TABLE_RULE_CASES)
def test_table_run_checks_every_sequence_alike(tmp_path, capsys, command, sequences, message):
    """Every requested sequence needs anchor rows, and the derived qps are the same on each."""
    reg, table = uneven_ladder_table(tmp_path)
    out = tmp_path / "run"
    flags = {
        "bd": ["bd", "--anchor", "7", "--test", "6"],
        "dse": ["dse", "--strategy", "e1", "--backend", "cached", "--out", str(out)],
    }[command]
    code = cli.main([*flags, "--measurements", table, "--registry", reg,
                     "--sequences", sequences])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


EMPTY_VALUE_CASES = [
    pytest.param(["--sequences", ""], "sequence names must not be empty, got ('',)",
                 id="sequences"),
    pytest.param(["--sequences", "s01,,s02"],
                 "sequence names must not be empty, got ('s01', '', 's02')", id="sequence-item"),
    pytest.param(["--qps", ""], "qps must be integers, got ''", id="qps"),
    pytest.param(["--qps", "22,27,,32,37"], "qps must be integers, got '22,27,,32,37'",
                 id="qp-item"),
    pytest.param(["--anchor", ""], "hex mask '' has 0 digits, expected {width}", id="anchor"),
    pytest.param(["--registry", ""], "[Errno 2] No such file or directory: ''", id="registry"),
]


@pytest.mark.parametrize("command", ["bd", "dse"])
@pytest.mark.parametrize("flags, message", EMPTY_VALUE_CASES)
def test_an_empty_flag_value_is_an_error(tmp_path, capsys, command, flags, message):
    """An empty value, or an empty list item, is not read as if the flag were absent."""
    reg, table = gated_table(tmp_path)
    out = tmp_path / "run"
    argv, width = {
        "bd": (["bd", "--anchor", "7", "--test", "6", "--measurements", table,
                "--registry", reg], "1 for a 3-tool registry"),
        "dse": (["dse", "--strategy", "e1", "--backend", "synthetic", "--seed", "7",
                 "--out", str(out)], "8 for a 30-tool registry"),
    }[command]
    assert cli.main([*argv, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(width=width)}\n"
    assert captured.out == ""
    assert not out.exists()


def test_an_empty_profile_is_an_error(capsys):
    assert cli.main(["show", "--profile", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: hex mask '' has 0 digits, expected 8 for a 30-tool registry\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["dse", "--strategy", "e1", "--backend", "synthetic", "--out", ""], "--out",
                 id="dse-out"),
    pytest.param(["pareto", "--points", "p.csv", "--out", ""], "--out", id="pareto-out"),
    pytest.param(["pareto", "--points", ""], "--points", id="points"),
    pytest.param(["dse", "--strategy", "e1", "--backend", "cached", "--measurements", "",
                  "--out", "run"], "--measurements", id="dse-measurements"),
    pytest.param(["bd", "--test", "6", "--measurements", ""], "--measurements",
                 id="bd-measurements"),
    pytest.param(["dse", "--strategy", "e1", "--backend", "external", "--sequences", "s01",
                  "--command-template", "", "--out", "run"], "--command-template",
                 id="command-template"),
])
def test_an_empty_path_or_template_is_an_error(tmp_path, monkeypatch, capsys, argv, flag):
    """An empty value is neither the working directory nor a missing flag."""
    (tmp_path / "p.csv").write_text("bdr,bdde\n1.5,-2.0\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"ctp {argv[0]}: error: argument {flag}: must not be empty")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


class TestPareto:
    def _points_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        lines = ["bdr,bdde"] + [f"{b},{d}" for _, b, d in BENCHMARK_POINTS]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_selection_from_csv(self, tmp_path, capsys):
        code = cli.main(["pareto", "--points", self._points_csv(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "front 11 of 18 points" in out
        assert "bdd" not in out.split("\n")[0]
        assert "-45.31" in out
        assert "LBE  4 profiles" in out

    @pytest.mark.parametrize("axis", ["psnr", "vmaf"])
    def test_round_trip_from_dse_output(self, tmp_path, capsys, axis):
        run_dir = tmp_path / "run"
        assert cli.main([
            "dse", "--strategy", "e1", "--backend", "synthetic",
            "--seed", "1", "--axis", axis, "--out", str(run_dir),
        ]) == 0
        out_dir = tmp_path / "sel"
        code = cli.main(["pareto", "--points", str(run_dir), "--out", str(out_dir)])
        assert code == 0

        def rows(path):
            lines = path.read_text().splitlines()
            return [line for line in lines if not line.startswith("# manifest:")]

        for name in ("points.csv", "front.csv"):
            assert rows(out_dir / name) == rows(run_dir / name)
        stdout = capsys.readouterr().out
        assert f"(axis {axis})" in stdout
        assert re.search(r"EE\s+[0-9A-F]{8}", stdout)

    def test_out_overwriting_the_input_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli.main(["dse", "--strategy", "c1", "--backend", "synthetic",
                         "--seed", "7", "--out", str(run_dir)]) == 0
        capsys.readouterr()

        def files():
            return {path.name: path.read_bytes() for path in run_dir.iterdir()}

        before = files()
        for points in (run_dir / ".." / "run", run_dir / "points.csv", run_dir / "front.csv"):
            code = cli.main(["pareto", "--points", str(points), "--axis", "psnr",
                             "--out", str(run_dir)])
            assert code == 2
            assert f"--out {run_dir} is not empty" in capsys.readouterr().err
            assert files() == before

    def test_out_naming_another_run_exits_2(self, tmp_path, capsys):
        runs = [tmp_path / "a", tmp_path / "b"]
        for seed, run_dir in zip(("7", "8"), runs):
            assert cli.main(["dse", "--strategy", "ea", "--backend", "synthetic",
                             "--seed", seed, "--out", str(run_dir)]) == 0
        before = {path.name: path.read_bytes() for path in runs[1].iterdir()}
        capsys.readouterr()
        code = cli.main(["pareto", "--points", str(runs[0]), "--out", str(runs[1])])
        assert code == 2
        assert f"--out {runs[1]} is not empty" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in runs[1].iterdir()} == before

    def test_empty_points_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("bdr,bdde\n")
        assert cli.main(["pareto", "--points", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["pareto", "--points", str(tmp_path / "nope.csv")]) == 2

    def test_bad_threshold_is_reported_before_the_points_are_read(self, tmp_path, capsys):
        code = cli.main(["pareto", "--points", str(tmp_path / "nope.csv"),
                         "--lbe-threshold", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "lbe_bdr_threshold must be finite and > 0, got 0.0" in err
        assert "nope.csv" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: "{not json", "Expecting property name"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
         "no key 'config'"),
        (lambda text: text.replace('"bdr_vmaf"', '"bdr_other"', 1), "no key 'bdr_vmaf'"),
        (lambda text: text.replace('"quality_axis": "vmaf"', '"quality_axis": "ssim"'),
         "'ssim' is not a valid QualityAxis"),
        (lambda text: text.replace('"bdr_vmaf": ', '"bdr_vmaf": NaN, "unused": ', 1),
         "BD value bdr_vmaf is not finite"),
        (lambda text: text.replace('"bdr_vmaf": ', f'"bdr_vmaf": {10 ** 400}, "unused": ', 1),
         "int too large to convert to float"),
        (lambda text: "[]", "list indices must be integers"),
        (lambda text: json.dumps({**json.loads(text), "evaluated": []}),
         "'list' object has no attribute 'items'"),
    ], ids=["not-json", "no-config", "no-bdr-vmaf", "unknown-axis", "nan", "huge-int", "list",
            "evaluated-list"])
    def test_malformed_result_exits_2_and_names_file(self, tmp_path, capsys, edit, message):
        run_dir = tmp_path / "run"
        assert cli.main(["dse", "--strategy", "ea", "--backend", "synthetic",
                         "--seed", "7", "--out", str(run_dir)]) == 0
        result = run_dir / "result.json"
        text = result.read_text()
        assert '"quality_axis": "vmaf"' in text and '"bdr_vmaf"' in text
        result.write_text(edit(text))
        capsys.readouterr()
        assert cli.main(["pareto", "--points", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"error: {result}: not a ctp dse result" in err
        assert message in err

    def test_round_trip_keeps_report_warnings(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        rows = anchor_rows("7") + halved_energy_rows("5") + halved_energy_rows("3")
        for row in halved_energy_rows("6"):  # VMAF 42-68 against the anchor's 66-92
            fields = row.split(",")
            fields[5] = str(float(fields[5]) - 24.0)
            rows.append(",".join(fields))
        run_dir = tmp_path / "run"
        assert cli.main(["dse", "--strategy", "e1", "--backend", "cached", "--max-iter", "1",
                         "--measurements", write_table(tmp_path / "m.csv", rows),
                         "--registry", str(reg), "--out", str(run_dir)]) == 0
        document = json.loads((run_dir / "result.json").read_text())
        entry = document["evaluated"]["6"]
        assert [w.split()[0] for w in entry["warnings"]] == ["bdr_vmaf", "bdde_vmaf"]
        (candidate,) = [c for c in document["iterations"][0]["candidates"] if c["ctp"] == "6"]
        assert candidate["report"] == entry
        report = BdReport.from_dict(entry)
        assert {**{name: getattr(report, name) for name, _, _ in BD_FIELDS},
                "warnings": list(report.warnings)} == entry

        out_dir = tmp_path / "sel"
        capsys.readouterr()
        assert cli.main(["pareto", "--points", str(run_dir), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        for name in ("points.csv", "front.csv"):
            assert ((out_dir / name).read_text().splitlines()[1:]
                    == (run_dir / name).read_text().splitlines()[1:])

    def test_config_error_leaves_no_out_directory(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("bdr,bdde\n")
        out = tmp_path / "sel"
        assert cli.main(["pareto", "--points", str(path), "--out", str(out)]) == 2
        assert "no points to select from" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_without_result_exits_2(self, tmp_path, capsys):
        assert cli.main(["pareto", "--points", str(tmp_path)]) == 2


@pytest.mark.parametrize("reader", ["result-file", "measurements", "points", "registry"])
def test_input_that_is_not_utf8_is_one_error_line(tmp_path, capsys, reader):
    bad = b"\xff\xfe" + HEADER_LINE.encode() + b"\n"
    reg = tmp_path / "r.reg"
    reg.write_text(REGISTRY_3)
    path = tmp_path / "bad.csv"
    path.write_bytes(bad)
    if reader == "result-file":
        write_result_fixtures(tmp_path)
        (tmp_path / "s01_22.csv").write_bytes(bad)
        argv = ["dse", "--strategy", "e1", "--backend", "external", "--sequences", "s01",
                "--command-template", copy_template(tmp_path), "--registry", str(reg),
                "--out", str(tmp_path / "run")]
        code, line = 4, (r"error: profile 7: \(s01, qp 22\): cannot parse result file: "
                         r"\{out\}: not UTF-8 text \(invalid start byte\)")
    else:
        argv = {
            "measurements": ["bd", "--test", "6", "--registry", str(reg),
                             "--measurements", str(path)],
            "points": ["pareto", "--points", str(path)],
            "registry": ["show", "--registry", str(path)],
        }[reader]
        code, line = 2, re.escape(f"error: {path}: not UTF-8 text (invalid start byte)")
    assert cli.main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(line, err[0])
    assert "ctpdse-ext-" not in err[0]  # the job's temporary directory is gone by now


def _with_bom(path):
    """A copy of ``path`` beside it, its bytes behind a UTF-8 byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


@pytest.mark.parametrize("reader", ["registry", "measurements", "points", "result-file",
                                    "result-json"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, reader):
    path = tmp_path / "input"
    if reader == "registry":
        path.write_text(REGISTRY_3)
        plain, marked = load_registry(path), load_registry(_with_bom(path))
        assert registry_digest(marked) == registry_digest(plain)
        # The file's own digest still covers its raw bytes.
        assert file_digest(_with_bom(path)) != file_digest(path)
    elif reader == "measurements":
        write_table(path, anchor_rows("7"))
        plain, marked = (ingest_measurements(p).rows for p in (path, _with_bom(path)))
    elif reader == "points":
        path.write_text("bdr,bdde\n1.5,-2.0\n")
        plain, marked = read_points_csv(path), read_points_csv(_with_bom(path))
    elif reader == "result-file":
        request = evaluators.EvaluationRequest(parse_ctp("7", make_registry(3)), ("s01",),
                                               tuple(RESULT_ROWS))
        curves = []
        for mark in (False, True):
            fixtures = tmp_path / str(mark)
            fixtures.mkdir()
            write_result_fixtures(fixtures)
            if mark:
                for qp in RESULT_ROWS:
                    _with_bom(fixtures / f"s01_{qp}.csv").replace(fixtures / f"s01_{qp}.csv")
            evaluator = evaluators.ExternalCommandEvaluator(copy_template(fixtures))
            curves.append(evaluator.evaluate(request))
        plain, marked = curves
    else:
        assert cli.main(["dse", "--strategy", "e1", "--backend", "synthetic", "--seed", "7",
                         "--max-iter", "1", "--out", str(path)]) == 0
        result = path / "result.json"
        plain, marked = (cli._result_points(p, None) for p in (result, _with_bom(result)))
    assert marked == plain


@pytest.mark.parametrize("command", [
    ["bd", "--anchor", "7", "--test", "6", "--test", "3"],
    ["dse", "--strategy", "e1", "--backend", "cached", "--max-iter", "1"],
], ids=["bd", "dse-cached"])
def test_measurement_runs_print_each_diagnostic_once(tmp_path, capsys, command):
    reg, table = gated_table(tmp_path)
    argv = [*command, "--measurements", table, "--registry", reg]
    if command[0] == "dse":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    err = capsys.readouterr().err
    assert err.count("measurement: ") == 16
    assert err == "".join(f"measurement: {line}\n"
                          for line in ingest_measurements(table).diagnostics)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["show", "bd", "dse"])
def test_closed_stdout_exits_1_without_an_error_line(tmp_path, command, unbuffered):
    # The pipe's read end is closed before the child starts, so every
    # write to standard output fails, at the latest when main flushes it.
    reg, table = gated_table(tmp_path)
    out = tmp_path / "run"
    argv = {
        "show": ["show"],
        "bd": ["bd", "--anchor", "7", "--test", "6", "--measurements", table, "--registry", reg],
        "dse": ["dse", "--strategy", "ea", "--backend", "synthetic", "--seed", "7",
                "--max-iter", "1", "--out", str(out)],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ctpdse.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "ctpdse.cli", *argv], env=env, stdout=write,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert run.returncode == 1
    assert [line for line in run.stderr.splitlines() if not line.startswith("measurement: ")] == []
    if command == "dse":
        assert sorted(p.name for p in out.iterdir()) == [
            "front.csv", "manifest.json", "points.csv", "result.json", "summary.txt"]


def test_main_freezes_the_import_time_objects(tmp_path):
    # A fresh interpreter starts with nothing frozen; after `main` the
    # objects the imports made sit in the permanent generation, so the
    # collector, the interpreter's last collections included, skips them.
    argv = ["dse", "--strategy", "ea", "--backend", "synthetic", "--seed", "7",
            "--max-iter", "1", "--out", str(tmp_path / "run")]
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    code = (f"import gc; from ctpdse import cli; before = gc.get_freeze_count(); "
            f"code = cli.main({argv!r}); print(code, before, gc.get_freeze_count() > 0)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 0 True"


class TestVersion:
    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "ctp " in capsys.readouterr().out
