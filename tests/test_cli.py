import json
import re
import sys

import pytest

from ctpdse import cli, evaluators
from ctpdse.profiles import default_registry, parse_ctp, serialize_ctp

from conftest import BENCHMARK_POINTS
from test_evaluators import (
    HEADER_LINE,
    RESULT_ROWS,
    anchor_rows,
    copy_template,
    write_result_fixtures,
)

REGISTRY_3 = "T00,Other,1\nT01,Other,1\nT02,Other,1\n"


def write_table(path, rows):
    path.write_text(HEADER_LINE + "\n" + "\n".join(rows) + "\n")
    return str(path)


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


def halved_energy_rows(mask, sequence="s01"):
    rows = []
    for row in anchor_rows("PLACEHOLDER", sequence):
        fields = row.split(",")
        fields[0] = mask
        fields[6] = str(float(fields[6]) / 2)
        rows.append(",".join(fields))
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
        assert "ctp_id=6" in err and "sequence=s01" in err and "qp=22" in err

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
        assert "no qps for anchor 7 on 'nope'" in capsys.readouterr().err

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

    def test_missing_test_rows_exit_3(self, tmp_path, capsys):
        reg = tmp_path / "r.reg"
        reg.write_text(REGISTRY_3)
        table = write_table(tmp_path / "m.csv", anchor_rows("7"))
        code = cli.main([
            "bd", "--anchor", "7", "--test", "6",
            "--measurements", table, "--registry", str(reg),
        ])
        assert code == 3


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
            assert "would overwrite the input" in capsys.readouterr().err
            assert files() == before

    def test_empty_points_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("bdr,bdde\n")
        assert cli.main(["pareto", "--points", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["pareto", "--points", str(tmp_path / "nope.csv")]) == 2

    def test_directory_without_result_exits_2(self, tmp_path, capsys):
        assert cli.main(["pareto", "--points", str(tmp_path)]) == 2


class TestVersion:
    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "ctp " in capsys.readouterr().out
