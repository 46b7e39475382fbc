import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindblad_ep
from lindblad_ep.cli import main

SQRT2 = math.sqrt(2.0)

DEFAULT_GRID_SHA256 = "692e0490b867ccd7d12b8dac82750bfd203a84c4f8954a19d1231b5a1c0c3d00"


def test_cli_import_does_not_load_scipy():
    src = str(Path(lindblad_ep.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import lindblad_ep.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def run(args):
    return main(list(args))


class TestSpectrumCommand:
    def test_gamma_zero_eigenvalues(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--delta", "1", "--d", "1", "--gamma", "0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        values = sorted(z["re"] for z in payload["eigenvalues_closed"])
        assert abs(values[0] + SQRT2) < 1e-8
        assert abs(values[-1] - SQRT2) < 1e-8
        assert payload["degenerate"] is True  # the two null modes collide at gamma = 0

    def test_rounded_triple_point(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--delta", "1", "--d", "2.828427",
                    "--gamma", "10.392305", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["region"] == "EP3"
        for z in payload["eigenvalues_closed"][1:]:
            assert abs(complex(z["re"], z["im"]) - (-4j * math.sqrt(3.0))) < 0.05

    def test_zero_detuning_is_usage_error(self, capsys):
        assert run(["spectrum", "--delta", "0", "--d", "1", "--gamma", "1"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_zero_detuning_refused_before_the_cubic_overflows(self, capsys):
        assert run(["spectrum", "--delta", "0", "--d", "1e60"]) == 2
        assert "delta != 0" in capsys.readouterr().err

    def test_overflow_is_usage_error(self, tmp_path, capsys):
        # p**3 of the cubic overflows a double at this scale.
        assert run(["spectrum", "--delta", "1e60", "--out", str(tmp_path / "spec.json")]) == 2
        assert capsys.readouterr().err.startswith("error: arithmetic overflow")

    def test_biorthogonality_reported_at_generic_point(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--delta", "1", "--d", "2", "--gamma", "1",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["degenerate"] is False
        assert payload["biorthogonality_defect"] < 1e-8
        assert payload["matched_distance"] < 1e-10


class TestPhaseDiagramCommand:
    def test_structure_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["phase-diagram", "--nd", "30", "--ngamma", "40", "--out"]
        assert run(args + [str(out1)]) == 0
        assert run(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "d_tilde,gamma_tilde,disc,region,ordering"
        assert len(lines) == 1 + 30 * 40
        for line in lines[1:]:
            d_t, g_t, disc, region, ordering = line.split(",")
            if region == "AllImaginary":
                assert float(disc) < 0.0
                assert float(d_t) > 2.0 * SQRT2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_is_usage_error(self, tmp_path, capsys):
        assert run(["phase-diagram", "--delta", "1e120", "--nd", "2", "--ngamma", "2",
                    "--out", str(tmp_path / "grid.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: arithmetic overflow")

    def test_row_major_order_with_d_outer(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["phase-diagram", "--nd", "3", "--ngamma", "2",
                    "--d-max", "2", "--gamma-max", "1", "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        d_values = [float(r[0]) for r in rows]
        assert d_values == sorted(d_values)
        assert d_values[0] == d_values[1]

    def test_default_grid_is_byte_identical(self, tmp_path):
        # sha256 of the default 300x300 CSV as written by the per-point scalar
        # classifier; the digits of `disc` follow the C library's pow.
        out = tmp_path / "default.csv"
        assert run(["phase-diagram", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_GRID_SHA256

    def test_bad_grid_is_usage_error(self):
        assert run(["phase-diagram", "--nd", "0"]) == 2
        assert run(["phase-diagram", "--d-min", "2", "--d-max", "1"]) == 2

    def test_workers_flag_is_gone(self):
        assert run(["phase-diagram", "--nd", "2", "--ngamma", "2", "--workers", "2"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run(["phase-diagram", "--nd", "2", "--ngamma", "2", "--format", "json",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert set(rows[0]) == {"d_tilde", "gamma_tilde", "disc", "region", "ordering"}


class TestEPCurveCommand:
    def test_first_row_is_the_merge_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--nd", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "d_tilde,gamma_minus,gamma_plus,im_z_minus,im_z_plus,disc_minus,disc_plus"
        )
        first = lines[1].split(",")
        assert abs(float(first[1]) - 6.0 * math.sqrt(3.0)) < 1e-10
        assert float(first[1]) == float(first[2])

    def test_row_values_at_three(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--d-min", "3.0", "--d-max", "3.0", "--nd", "1",
                    "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - math.sqrt(125.0)) < 1e-10
        assert abs(float(row[2]) - math.sqrt(128.0)) < 1e-10
        assert abs(float(row[4]) + 5.0 * SQRT2) < 1e-10

    def test_residual_columns_within_tolerance(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--nd", "40", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[5]) < 1e-10
            assert float(cells[6]) < 1e-10

    def test_below_threshold_is_usage_error(self, capsys):
        assert run(["ep-curve", "--d-min", "2.5"]) == 2
        assert "2*sqrt(2)" in capsys.readouterr().err

    def test_bad_grid_is_usage_error(self):
        assert run(["ep-curve", "--nd", "0"]) == 2
        assert run(["ep-curve", "--d-min", "4", "--d-max", "3"]) == 2


class TestEP3Command:
    def test_prints_constants(self, capsys):
        assert run(["ep3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["d_tilde"] - 2.0 * SQRT2) < 1e-12
        assert abs(payload["gamma_tilde"] - 6.0 * math.sqrt(3.0)) < 1e-12
        assert abs(payload["z"]["im"] + 4.0 * math.sqrt(3.0)) < 1e-12


class TestEvolveCommand:
    def test_decay_column_matches_exponential(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--delta", "1", "--d", "0", "--gamma", "0.5",
                    "--rho0", "excited", "--t-max", "10", "--dt", "0.001",
                    "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "final_dist_eq" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_ee,re_gg,re_eg,im_eg,trace_dev,dist_eq"
        for line in lines[1::97]:
            cells = line.split(",")
            t, re_ee, trace_dev = float(cells[0]), float(cells[1]), float(cells[5])
            assert abs(re_ee - math.exp(-0.5 * t)) < 1e-7
            assert trace_dev < 1e-10

    def test_converged_run_reports_small_distance(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--delta", "1", "--d", "2", "--gamma", "1",
                    "--t-max", "40", "--dt", "0.01", "--out", str(out)]) == 0
        final = float(capsys.readouterr().out.split("=")[1])
        assert final < 1e-6

    def test_zero_step_is_usage_error(self, capsys):
        assert run(["evolve", "--dt", "0"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_unstable_step_exits_3(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = run(["evolve", "--delta", "1", "--d", "2", "--gamma", "1",
                  "--t-max", "60", "--dt", "3", "--out", str(out)])
        assert rc == 3
        assert "dt" in capsys.readouterr().err

    def test_stdout_table_parses_as_csv(self, capsys):
        assert run(["evolve", "--t-max", "1", "--dt", "0.01"]) == 0
        captured = capsys.readouterr()
        table = np.loadtxt(captured.out.splitlines(), delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (101, 7)
        assert captured.out.splitlines()[0] == "t,re_ee,re_gg,re_eg,im_eg,trace_dev,dist_eq"
        assert "final_dist_eq" in captured.err

    def test_stdout_table_parses_as_json(self, capsys):
        assert run(["evolve", "--t-max", "1", "--dt", "0.01", "--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert len(rows) == 101
        assert "final_dist_eq" in captured.err

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run(["evolve", "--t-max", "1", "--dt", "0.01", "--format", "json",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["t"] == "0.0"


class TestVerifyFrameCommand:
    def test_canonical_run(self, tmp_path):
        out = tmp_path / "frame.json"
        assert run(["verify-frame", "--t-max", "4", "--dt", "0.002",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["deviation"] < 1e-8
        assert abs(payload["measured_order"] - 4.0) < 0.3

    def test_tolerance_gate(self, tmp_path):
        out = tmp_path / "frame.json"
        rc = run(["verify-frame", "--t-max", "2", "--dt", "0.01",
                  "--tol", "1e-30", "--out", str(out)])
        assert rc == 1

    def test_unstable_lab_step_exits_3(self, tmp_path, capsys):
        # the rotating step is stable at dt = 1.6 here; the lab step is not
        out = tmp_path / "frame.json"
        assert run(["verify-frame", "--dt", "1.6", "--out", str(out)]) == 3
        assert "dt = 1.6 is unstable" in capsys.readouterr().err


class TestVerifyCommand:
    def test_fast_subset_passes(self, capsys):
        assert run(["verify", "--checks", "gamma0,ep3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_negative_tolerance_is_usage_error(self):
        assert run(["verify", "--tol-scale", "-1"]) == 2

    def test_unknown_check_is_usage_error(self):
        assert run(["verify", "--checks", "bogus"]) == 2


class TestParserPlumbing:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["spectrum", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_float_fields_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--d-min", "3.0", "--d-max", "3.0", "--nd", "1",
                    "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == math.sqrt(125.0)
        assert row[1] == repr(math.sqrt(125.0))
