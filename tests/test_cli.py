import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindblad_ep
from lindblad_ep.cli import _MAX_NODES, main
from lindblad_ep.exceptional import _on_curve_residual

SQRT2 = math.sqrt(2.0)

DEFAULT_GRID_SHA256 = "692e0490b867ccd7d12b8dac82750bfd203a84c4f8954a19d1231b5a1c0c3d00"

DEFAULT_CURVE_SHA256 = "9cf04dbb85d51f8ec1f7a7825a7485f5fc8a8910513363728f930e420f82cd5f"

# sha256 of outputs as written row by row, before the tables were built column-wise.
DEFAULT_CURVE_JSON_SHA256 = "b56293c6335fba09cf9bad2fbca4ee5c2b83408eced904b5d418d5b72b6ef590"
SMALL_GRID_JSON_SHA256 = "1c05795df1021a725388b27f71d37974f650f571eef4224885bbd4a09f128439"
NON_DEFAULT_GRID_SHA256 = "c0f18438732e0ddb04b72de2701fe2ec197d594eb9c7d136f54e2c4f40da104b"

# A 2x2 grid through the triple point and the plus curve at d/delta = 3: its
# nodes carry the labels EP3, EP2Plus and SplitPair and the orderings -1, 0, 1.
SMALL_GRID = ["--d-min", "2.8284271247461903", "--d-max", "3", "--nd", "2",
              "--gamma-min", "10.392304845413264", "--gamma-max", "11.313708498984761",
              "--ngamma", "2"]

# delta != 1, drives of both signs and nd != ngamma; AllImaginary nodes on both sides.
NON_DEFAULT_GRID = ["--delta", "2.5", "--d-min", "-7", "--d-max", "7", "--nd", "41",
                    "--gamma-min", "0", "--gamma-max", "30", "--ngamma", "37"]

VERIFY_DEFAULT_STDOUT = (
    "PASS ep3: d_tilde=2.82842712, gamma_tilde=10.3923048, im_z=-6.92820323, err_d=1.93345866e-16, err_gamma=2.86073366e-16, err_z=4.01403369e-16\n"
    "PASS ep2-curve: worst_scaled_disc=1.00779467e-20, worst_oracle_rel=3.43218873e-16, points=200\n"
    "PASS spectra: worst_matched_dist=5.65737552e-15, worst_symmetry=1.00321705e-16, worst_sum_rule=8.8817842e-16, samples=3500\n"
    "PASS gamma0: worst_dist=4.5775668e-16, samples=100\n"
    "PASS equilibrium: worst_null_residual=1.26129343e-16, worst_final_dist_eq=2.7256037e-11\n"
    "PASS frame: deviation=3.10953258e-13, order=4.00750927, coarse_dev=7.7951875e-07, fine_dev=4.84669922e-08\n"
    "PASS conservation: worst_trace_dev=0, worst_herm_dev=1.49081292e-15, trajectories=6\n"
    "PASS splitting: ep2_slope=0.499867093, ep3_slope=0.33803341, ep2_base=EP2Plus, ep3_base=EP3\n"
    "PASS phase-diagram: shaded_cells=896, min_shaded_d=2.909699, worst_outside_band=0, cell=0.0535117057\n"
    "verify: all 9 checks passed\n"
)


# Fields of `spectrum` that need no BLAS or LAPACK, pinned bit for bit at eight
# points: generic, EP3, both EP2 curves at d/delta = 3, gamma = 0, disc < 0,
# negative delta and delta = 1e20.  Eigenvalues are (re, im) pairs.
SPECTRUM_PINNED = {
    ("1.0", "2.0", "1.0"): (
        "SplitPair", 1, 4.428240740740742,
        [(0.0, 0.0), (0.0, -0.6008113856257915), (2.218089122464965, -0.699594307187104),
         (-2.218089122464965, -0.699594307187104)],
        [0.0, 1.0235750533041806e-15, 5.4025784115714076e-15, 8.296271088900922e-15],
        [],
    ),
    ("1.0", "2.8284271247461903", "10.392304845413264"): (
        "EP3", 0, 2.366582715663036e-30,
        [(0.0, 0.0), (0.0, -6.92820323027551), (0.0, -6.92820323027551),
         (0.0, -6.92820323027551)],
        [0.0, 1.7852165294699933e-14, 1.7852165294699933e-14, 1.7852165294699933e-14],
        [[1, 2], [1, 3], [2, 3]],
    ),
    ("1.0", "3.0", "11.180339887498949"): (
        "EP2Minus", -1, -1.2663481374630692e-16,
        [(0.0, 0.0), (5.551115123125783e-17, -7.826237968027994), (0.0, -6.70820393249937),
         (0.0, -7.826237874470534)],
        [0.0, 4.263256414560601e-14, 1.0805156823142815e-14, 1.4210854715202004e-14],
        [[1, 3]],
    ),
    ("1.0", "3.0", "11.313708498984761"): (
        "EP2Plus", -1, 1.2836953722228372e-16,
        [(0.0, 0.0), (0.0, -8.485281374238575), (2.943627652740588e-08, -7.071067811865475),
         (-2.943627652740588e-08, -7.071067811865475)],
        [0.0, 2.842170943040401e-14, 5.0242958677880805e-15, 1.0658141036401503e-14],
        [[2, 3]],
    ),
    ("1.0", "1.0", "0.0"): (
        "SplitPair", 0, 0.2962962962962962,
        [(0.0, 0.0), (0.0, 2.220446049250313e-16), (1.4142135623730951, -1.1102230246251565e-16),
         (-1.4142135623730951, -1.1102230246251565e-16)],
        [0.0, 9.860761315262648e-32, 9.155133597044475e-16, 1.0429598422709818e-15],
        [[0, 1]],
    ),
    ("1.0", "5.0", "22.0"): (
        "AllImaginary", -1, -58.23148148148153,
        [(0.0, 0.0), (0.0, -18.87625804312251), (0.0, -11.540676253724216),
         (0.0, -13.583065703153272)],
        [0.0, 1.1372235930902295e-12, 1.4210854715202004e-13, 1.7288250917028504e-13],
        [],
    ),
    ("-2.0", "1.0", "1.0"): (
        "SplitPair", -1, 4.747685185185187,
        [(0.0, 0.0), (0.0, -0.903148234415492), (2.226793505375021, -0.5484258827922541),
         (-2.226793505375021, -0.5484258827922541)],
        [0.0, 9.159339953157541e-16, 6.419898239293306e-15, 4.446439748506845e-15],
        [],
    ),
    ("1e+20", "1.0", "1.0"): (
        "SplitPair", 0, 3.703703703703705e+118,
        [(0.0, 0.0), (0.0, -0.0), (1.0000000000000002e+20, -0.0), (-1.0000000000000002e+20, 0.0)],
        [0.0, 0.0, 3.27680000152588e+64, 3.27680000152588e+64],
        [[0, 1]],
    ),
}


def test_cli_import_does_not_load_scipy():
    src = str(Path(lindblad_ep.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import lindblad_ep.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(lindblad_ep.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


EP3_JSON = """{
  "d_tilde": 2.8284271247461903,
  "gamma_tilde": 10.392304845413264,
  "z": {
    "re": 0.0,
    "im": -6.928203230275509
  }
}"""

# What a process may do before it imports numpy: import the package and its command
# line, build the parser, print the version, the help or the triple point, refuse a
# usage error, and look up a name the package does not have.
WITHOUT_NUMPY = {
    "build_parser": "import lindblad_ep, lindblad_ep.cli; lindblad_ep.cli.build_parser()",
    "version": "from lindblad_ep.cli import main; assert main(['--version']) == 0",
    "help": "from lindblad_ep.cli import main; assert main(['--help']) == 0",
    "usage-error": "from lindblad_ep.cli import main; assert main(['spectrum', '--d', 'x']) == 2",
    "ep3": "from lindblad_ep.cli import main; assert main(['ep3']) == 0",
    "unknown-name": "import lindblad_ep; assert not hasattr(lindblad_ep, 'no_such_name')",
    "dir": "import lindblad_ep; assert set(lindblad_ep.__all__) <= set(dir(lindblad_ep))",
}

NUMERIC_MODULES = ("model", "superop", "spectrum", "exceptional", "dynamics", "verify")


class TestLazyPackage:
    @pytest.mark.parametrize("code", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY)
    def test_imports_no_numpy(self, code):
        lines = fresh(f"{code}\nprint('numpy' in sys.modules)")
        assert lines[-1] == "False"

    def test_ep3_prints_its_bytes_without_numpy(self):
        assert fresh("from lindblad_ep.cli import main; main(['ep3'])") == EP3_JSON.splitlines()

    def test_one_public_access_loads_the_whole_numeric_core(self):
        lines = fresh("import json, lindblad_ep\nlindblad_ep.classify\n"
                      "print(json.dumps(sorted(sys.modules)))")
        loaded = json.loads(lines[-1])
        assert "numpy" in loaded
        assert {f"lindblad_ep.{m}" for m in NUMERIC_MODULES} <= set(loaded)

    def test_star_import_binds_every_name(self):
        lines = fresh("from lindblad_ep import *\nimport lindblad_ep\n"
                      "print([n for n in lindblad_ep.__all__ if globals().get(n) is not getattr(lindblad_ep, n)])")
        assert lines == ["[]"]

    def test_each_public_name_is_its_home_modules_object(self):
        homes = {"HS_COMPONENTS": "lindblad_ep.model", "INITIAL_STATES": "lindblad_ep.constants"}
        for name in lindblad_ep.__all__:
            value = getattr(lindblad_ep, name)
            home = homes.get(name) or value.__module__
            assert value is getattr(sys.modules[home], name), name
        assert lindblad_ep.exceptional.ep3_point is lindblad_ep.ep3_point
        assert lindblad_ep.model.INITIAL_STATES is lindblad_ep.INITIAL_STATES

    # Exact arithmetic stays out of the numeric unit, which every computing command loads.
    def test_the_numeric_unit_loads_no_fractions_or_decimal(self):
        lines = fresh("import lindblad_ep\nlindblad_ep.ModelParams\n"
                      "print('fractions' in sys.modules, 'decimal' in sys.modules)")
        assert lines == ["False False"]

    def test_dir_lists_every_public_name(self):
        assert set(lindblad_ep.__all__) <= set(dir(lindblad_ep))

    # An unknown name, and wrappers that are no longer public.
    @pytest.mark.parametrize("name", [
        "no_such_name", "cardano_params", "CardanoParams", "scaled_discriminant",
        "ep_curve_point", "EPCurvePoint", "step_rk4", "ep2_locate_numeric", "ep3_locate_numeric",
        "NoRootError",
    ])
    def test_an_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(lindblad_ep, name)


class TestParserReuse:
    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0), (["--help"], 0), (["spectrum", "--help"], 0), ([], 2),
        (["no-such-command"], 2), (["spectrum", "--d", "x"], 2), (["ep3", "--bogus"], 2),
    ])
    def test_repeated_calls_print_the_same_bytes(self, argv, code, capsys):
        outputs = []
        for _ in range(3):
            assert main(argv) == code
            outputs.append(capsys.readouterr())
        assert outputs[0].out + outputs[0].err
        assert outputs[1:] == outputs[:1] * 2

    def test_help_is_a_fresh_parsers_help(self, capsys):
        from lindblad_ep.cli import build_parser

        for _ in range(2):
            assert main(["--help"]) == 0
            assert capsys.readouterr().out == build_parser().format_help()

    def test_main_builds_its_parser_once(self, tmp_path):
        from lindblad_ep import cli

        for argv in (["--version"], ["ep3", "--out", str(tmp_path / "ep3.json")], ["nope"]):
            main(argv)
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()


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

    # The commands read these names from their home modules when they run.
    def test_residual_gate_exits_1_after_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lindblad_ep.spectrum, "characteristic_residual", lambda L, z: 1.0)
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--d", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: characteristic residual exceeds 1.563e-09\n"
        assert json.loads(out.read_text())["char_residuals_closed"] == [1.0] * 4

    def test_solver_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(L):
            raise lindblad_ep.NonConvergenceError("the oracle did not converge")

        monkeypatch.setattr(lindblad_ep.spectrum, "eigenvalues_numeric", fail)
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: the oracle did not converge\n"
        assert not out.exists()  # the failure comes before the payload

    def test_zero_detuning_is_usage_error(self, capsys):
        assert run(["spectrum", "--delta", "0", "--d", "1", "--gamma", "1"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_zero_detuning_refused_before_the_cubic_overflows(self, capsys):
        assert run(["spectrum", "--delta", "0", "--d", "1e60"]) == 2
        assert "delta != 0" in capsys.readouterr().err

    # d/delta overflows to infinity at the first, d_tilde**4 at the second; the band names
    # the branch by the sign of q, which forms neither.
    @pytest.mark.parametrize("delta", ["5e-324", "1e-300"])
    def test_vanishing_detuning_in_the_band_is_minus_branch(self, delta, capsys):
        assert run(["spectrum", "--delta", delta, "--d", "1", "--gamma", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["region"] == "EP2Minus"

    def test_overflow_is_usage_error(self, tmp_path, capsys):
        # p**3 of the cubic overflows a double at this scale.
        assert run(["spectrum", "--delta", "1e60", "--out", str(tmp_path / "spec.json")]) == 2
        assert capsys.readouterr().err.startswith("error: arithmetic overflow")

    # Python's float power raises OverflowError(errno, text): the line carries the text alone.
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--delta", "1e60"],
        ["spectrum", "--gamma", "1e60"],
        ["ep-curve", "--d-min=1e60", "--d-max=1e60"],
        ["phase-diagram", "--d-max=1e154", "--gamma-min=1e60", "--gamma-max=1e154", "--ngamma=1"],
    ])
    def test_overflow_prints_the_error_text(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: arithmetic overflow at this parameter scale: {os.strerror(errno.ERANGE)}\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--delta=8.660254037844387e+119", "--d=0", "--gamma=3e+120"],
        ["spectrum", "--delta=4e51", "--d=0", "--gamma=4e51"],
        ["ep-curve", "--d-min=1e60", "--d-max=1e60"],
        ["phase-diagram", "--d-max=1e154", "--gamma-min=1e60", "--gamma-max=1e154", "--ngamma=1"],
    ])
    def test_overflowing_cubic_is_usage_error_without_a_warning(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arithmetic overflow") and "Warning" not in err

    def test_biorthogonality_reported_at_generic_point(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--delta", "1", "--d", "2", "--gamma", "1",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["degenerate"] is False
        assert payload["biorthogonality_defect"] < 1e-8
        assert payload["matched_distance"] < 1e-10


    @pytest.mark.parametrize("point", list(SPECTRUM_PINNED))
    def test_pinned_fields(self, point, tmp_path):
        out = tmp_path / "spec.json"
        delta, d, gamma = point
        assert run(["spectrum", "--delta", delta, "--d", d, "--gamma", gamma,
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        region, ordering, disc, zs, residuals, pairs = SPECTRUM_PINNED[point]
        got = [payload[k] for k in ("region", "ordering", "disc", "eigenvalues_closed",
                                    "char_residuals_closed", "degenerate_pairs")]
        want = [region, ordering, disc, [{"re": re, "im": im} for re, im in zs], residuals, pairs]
        # compared as text, so that the signs of zeros count too
        assert json.dumps(got) == json.dumps(want)

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

    def test_overflow_in_a_late_block_writes_nothing(self, tmp_path, monkeypatch):
        # One d-row a block: the first row is classified, the second overflows.
        monkeypatch.setattr(lindblad_ep.spectrum, "_BLOCK", 64)
        out = tmp_path / "grid.csv"
        assert run(["phase-diagram", "--d-max", "1e60", "--nd", "2", "--ngamma", "40",
                    "--out", str(out)]) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("flag, value", [
        ("--d-max", "inf"), ("--d-min", "-inf"), ("--gamma-min", "nan"), ("--gamma-max", "inf"),
    ])
    def test_non_finite_bound_names_the_flag(self, flag, value, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["phase-diagram", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be finite, got {value}\n"
        assert captured.out == ""

    def test_overflowing_range_is_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["phase-diagram", "--d-min=-1e308", "--d-max=1e308"]) == 2
        assert "--d-min to --d-max overflows" in capsys.readouterr().err

    def test_non_finite_delta_is_usage_error_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["phase-diagram", "--delta", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "-2"])
    def test_non_positive_delta_refused_before_writing(self, delta, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run(["phase-diagram", "--delta", delta, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid commands use delta > 0 so flags read as d/delta, gamma/delta\n")
        assert not out.exists()

    def test_workers_flag_is_gone(self):
        assert run(["phase-diagram", "--nd", "2", "--ngamma", "2", "--workers", "2"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run(["phase-diagram", "--nd", "2", "--ngamma", "2", "--format", "json",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert set(rows[0]) == {"d_tilde", "gamma_tilde", "disc", "region", "ordering"}

    def test_small_grid_json_is_byte_identical(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run(["phase-diagram", *SMALL_GRID, "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {row["region"] for row in rows} == {"EP3", "EP2Plus", "SplitPair"}
        assert {row["ordering"] for row in rows} == {-1, 0, 1}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_GRID_JSON_SHA256

    def test_non_default_grid_is_byte_identical(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["phase-diagram", *NON_DEFAULT_GRID, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == NON_DEFAULT_GRID_SHA256

    def test_both_formats_equal_row_by_row_formatting(self, tmp_path):
        # 1500 nodes a d-row: past the 1024 rows the writer joins at a time
        args = ["phase-diagram", "--d-min", "3", "--d-max", "5", "--nd", "2",
                "--gamma-max", "40", "--ngamma", "1500", "--out"]
        assert run(args + [str(tmp_path / "grid.csv")]) == 0
        assert run(args + [str(tmp_path / "grid.json"), "--format", "json"]) == 0
        d_grid, g_grid = np.linspace(3.0, 5.0, 2), np.linspace(0.0, 40.0, 1500)
        disc, region, ordering = lindblad_ep.classify_grid(1.0, d_grid, g_grid)
        header = ("d_tilde", "gamma_tilde", "disc", "region", "ordering")
        rows = [(repr(float(d)), repr(float(g)), repr(float(disc[i, j])), region[i, j].value,
                 int(ordering[i, j]))
                for i, d in enumerate(d_grid) for j, g in enumerate(g_grid)]
        assert {"SplitPair", "AllImaginary"} <= {row[3] for row in rows}
        lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        assert (tmp_path / "grid.csv").read_text() == "\n".join(lines) + "\n"
        payload = [dict(zip(header, row)) for row in rows]
        assert (tmp_path / "grid.json").read_text() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("counts, message", [
        (["--nd", "1000000000", "--ngamma", "1000000000"],
         f"--nd x --ngamma asks for {10**18} nodes, more than {_MAX_NODES}"),
        (["--nd", str(_MAX_NODES + 1), "--ngamma", "1"],
         f"--nd x --ngamma asks for {_MAX_NODES + 1} nodes, more than {_MAX_NODES}"),
        (["--nd", "1000000000", "--ngamma", "-1"], "grid counts must be >= 1"),
    ])
    def test_oversized_grid_refused_before_allocating(self, counts, message, capsys):
        tracemalloc.start()
        try:
            assert run(["phase-diagram", *counts]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parser's own objects only: one axis of 2^21 + 1 nodes would take 16 MiB
        assert peak < 2**20
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_on_curve_gate_exits_1_after_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lindblad_ep.exceptional, "_on_curve_residual",
                            lambda d, gammas: np.ones(gammas.shape))
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--nd", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: on-curve discriminant residual 1.000e+00 exceeds 1e-10\n"
        )
        rows = out.read_text().splitlines()
        assert len(rows) == 4 and all(row.endswith(",1.0,1.0") for row in rows[1:])

    def test_residual_columns_within_tolerance(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--nd", "40", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[5]) < 1e-10
            assert float(cells[6]) < 1e-10

    def test_default_curve_is_byte_identical(self, tmp_path):
        # sha256 of the default 200-drive CSV as written one drive at a time.
        out = tmp_path / "curve.csv"
        assert run(["ep-curve", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CURVE_SHA256

    def test_default_json_is_byte_identical(self, tmp_path):
        out = tmp_path / "curve.json"
        assert run(["ep-curve", "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CURVE_JSON_SHA256

    def test_both_formats_equal_row_by_row_formatting(self, tmp_path):
        # 1500 rows: past the 1024 rows the writer joins at a time
        args = ["ep-curve", "--d-max", "40", "--nd", "1500", "--out"]
        assert run(args + [str(tmp_path / "curve.csv")]) == 0
        assert run(args + [str(tmp_path / "curve.json"), "--format", "json"]) == 0
        d_grid = np.linspace(2.0 * SQRT2, 40.0, 1500)
        header = ("d_tilde", "gamma_minus", "gamma_plus", "im_z_minus", "im_z_plus",
                  "disc_minus", "disc_plus")
        rows = []
        for d in d_grid:
            gammas = lindblad_ep.ep2_gamma(d)
            im_z = [lindblad_ep.ep2_eigenvalue(d, branch).imag for branch in ("minus", "plus")]
            resid = _on_curve_residual(np.array([d]), np.array([gammas]))[0]
            rows.append([repr(float(x)) for x in (d, *gammas, *im_z, *resid)])
        lines = [",".join(header)] + [",".join(row) for row in rows]
        assert (tmp_path / "curve.csv").read_text() == "\n".join(lines) + "\n"
        payload = [dict(zip(header, row)) for row in rows]
        assert (tmp_path / "curve.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_oversized_grid_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            assert run(["ep-curve", "--nd", "1000000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err == (
            f"error: --nd asks for 1000000000 nodes, more than {_MAX_NODES}\n"
        )

    def test_below_threshold_is_usage_error(self, capsys):
        assert run(["ep-curve", "--d-min", "2.5"]) == 2
        assert "2*sqrt(2)" in capsys.readouterr().err

    def test_bad_grid_is_usage_error(self):
        assert run(["ep-curve", "--nd", "0"]) == 2
        assert run(["ep-curve", "--d-min", "4", "--d-max", "3"]) == 2

    @pytest.mark.parametrize("flag, value", [("--d-max", "inf"), ("--d-max", "nan"),
                                             ("--d-min", "nan")])
    def test_non_finite_bound_names_the_flag(self, flag, value, capsys):
        assert run(["ep-curve", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"


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

    def test_trace_gate_exits_1_after_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lindblad_ep.dynamics, "_TRACE_TOL", -1.0)
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--t-max", "1", "--dt", "0.01", "--out", str(out)]) == 1
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (101, 7)
        captured = capsys.readouterr()
        assert captured.out.startswith("final_dist_eq = ")
        assert captured.err == f"error: trace deviation {table[:, 5].max():.3e} exceeds -1\n"

    def test_zero_step_is_usage_error(self, capsys):
        assert run(["evolve", "--dt", "0"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_unstable_step_exits_3(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = run(["evolve", "--delta", "1", "--d", "2", "--gamma", "1",
                  "--t-max", "60", "--dt", "3", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "integrator error: dt = 3 is unstable: a mode grows by a factor 76.9893 per step, "
            "over 20 step(s); the largest stable step is dt = 1.2186\n"
        )

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

    def test_json_equals_row_by_row_formatting(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run(["evolve", "--delta", "0.5", "--d", "1.3", "--gamma", "4", "--rho0", "coherent",
                    "--t-max", "5", "--dt", "0.01", "--format", "json", "--out", str(out)]) == 0
        traj = lindblad_ep.evolve_rotating(lindblad_ep.ModelParams(0.5, 1.3, 4.0),
                                           lindblad_ep.initial_state("coherent"), 5.0, 0.01)
        header = ("t", "re_ee", "re_gg", "re_eg", "im_eg", "trace_dev", "dist_eq")
        payload = []
        for t, rho, tdev, dist in zip(traj.times, traj.states, traj.trace_dev, traj.dist_eq):
            fields = (t, rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
                      tdev, dist)
            payload.append(dict(zip(header, (repr(float(x)) for x in fields))))
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("rho0", ["excited", "coherent"])
    def test_csv_equals_row_by_row_formatting(self, rho0, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--delta", "0.5", "--d", "1.3", "--gamma", "4", "--rho0", rho0,
                    "--t-max", "5", "--dt", "0.01", "--out", str(out)]) == 0
        traj = lindblad_ep.evolve_rotating(lindblad_ep.ModelParams(0.5, 1.3, 4.0),
                                           lindblad_ep.initial_state(rho0), 5.0, 0.01)
        lines = ["t,re_ee,re_gg,re_eg,im_eg,trace_dev,dist_eq"]
        for t, rho, tdev, dist in zip(traj.times, traj.states, traj.trace_dev, traj.dist_eq):
            fields = (t, rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
                      tdev, dist)
            lines.append(",".join(repr(float(x)) for x in fields))
        assert len(lines) == 502
        assert out.read_text() == "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, tol, tmp_path, capsys):
        out = tmp_path / "frame.json"
        assert run(["verify-frame", "--tol", tol, "--out", str(out)]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_is_accepted(self, tmp_path):
        out = tmp_path / "frame.json"
        rc = run(["verify-frame", "--t-max", "2", "--dt", "0.01", "--tol", "0", "--out", str(out)])
        assert rc == (0 if json.loads(out.read_text())["deviation"] == 0 else 1)

    # A zero deviation has no logarithm: a zero coarse one used to raise ValueError.
    @pytest.mark.parametrize("coarse, fine, order", [
        (0.0, 1e-15, -math.inf), (1e-15, 0.0, math.inf), (0.0, 0.0, math.inf),
    ])
    def test_zero_deviation_gives_an_infinite_order(self, coarse, fine, order, tmp_path,
                                                    monkeypatch):
        deviations = iter([1e-12, coarse, fine])
        # The command reads verify_frame_equivalence from its home module when it runs.
        monkeypatch.setattr(lindblad_ep.dynamics, "verify_frame_equivalence",
                            lambda *args: next(deviations))
        out = tmp_path / "frame.json"
        assert run(["verify-frame", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["measured_order"] == order

    def test_unstable_lab_step_exits_3(self, tmp_path, capsys):
        # the rotating step is stable at dt = 1.6 here; the lab step is not
        out = tmp_path / "frame.json"
        assert run(["verify-frame", "--dt", "1.6", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "integrator error: dt = 1.6 is unstable: a mode grows by a factor 3.70117 per step, "
            "over 6 step(s); reduce dt\n"
        )


# Flag values for the integrator commands: zero, unit, subnormal, the scales
# at which steps, products and squares overflow, and the non-finite ones.
EXTREME_VALUES = ["0", "1", "-1", "1e-320", "1e-60", "1e60", "1e154", "1e160", "1e300",
                  "1.7e308", "nan", "inf", "-inf"]

INTEGRATOR_FLAGS = {
    "evolve": ["--t-max", "--dt", "--delta", "--d", "--gamma"],
    "verify-frame": ["--t-max", "--dt", "--order-dt", "--Delta", "--omega", "--d", "--gamma"],
}

# Flag values of every subcommand for the property test: the values above, grid
# counts from 1 to 3, and always a cheap subset of the verify checks.
ANY_FLAG_VALUES = {
    **{command: dict.fromkeys(flags, EXTREME_VALUES) for command, flags in INTEGRATOR_FLAGS.items()},
    "phase-diagram": {**dict.fromkeys(["--delta", "--d-min", "--d-max", "--gamma-min",
                                       "--gamma-max"], EXTREME_VALUES),
                      "--nd": ["1", "2", "3"], "--ngamma": ["1", "2", "3"]},
    "ep-curve": {"--d-min": EXTREME_VALUES, "--d-max": EXTREME_VALUES, "--nd": ["1", "2", "3"]},
    "spectrum": dict.fromkeys(["--delta", "--d", "--gamma"], EXTREME_VALUES),
    "ep3": {},
    "verify": {"--seed": EXTREME_VALUES, "--tol-scale": EXTREME_VALUES},
}
CHEAP_CHECKS = ["gamma0,ep3", "ep3", "gamma0"]


@st.composite
def any_flag_argv(draw) -> list[str]:
    """A subcommand with any of its flags set to values of ANY_FLAG_VALUES."""
    command = draw(st.sampled_from(list(ANY_FLAG_VALUES)))
    argv = [command]
    for flag, values in ANY_FLAG_VALUES[command].items():
        value = draw(st.none() | st.sampled_from(values), label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    if command == "verify":
        argv.append(f"--checks={draw(st.sampled_from(CHEAP_CHECKS), label='--checks')}")
    return argv


class TestIntegratorCommands:
    @pytest.mark.parametrize("command", list(INTEGRATOR_FLAGS))
    @pytest.mark.parametrize("t_max, dt", [
        ("inf", "inf"), ("inf", "0.001"), ("nan", "0.001"), ("10.0", "nan"), ("10.0", "inf"),
        ("1e+300", "1e-60"),
    ])
    def test_non_finite_schedule_is_usage_error(self, command, t_max, dt, capsys):
        assert run([command, f"--t-max={t_max}", f"--dt={dt}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need ")
        assert f"dt={dt}, t_max={t_max}" in err

    def test_overflowing_drive_phase_is_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify-frame", "--omega=1e300", "--t-max=1e160"]) == 2
        assert capsys.readouterr().err == (
            "error: the drive phase overflows, got omega=1e+300, t_max=1e+160\n"
        )

    # The generator's eigenvalues are about 2.4e308: no step size can be named.
    @pytest.mark.parametrize("argv", [
        ["evolve", "--delta=1.7e308", "--d=1.7e308", "--gamma=1e154"],
        ["verify-frame", "--Delta=1.7e308", "--d=1.7e308", "--gamma=1e154"],
    ])
    def test_overflowing_generator_is_usage_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: arithmetic overflow at this parameter scale: "
            "the generator's eigenvalues overflow a double\n"
        )

    def test_verify_frame_past_int64_steps(self, tmp_path, hang_guard):
        out = tmp_path / "frame.json"
        with hang_guard(60):
            assert run(["verify-frame", "--t-max=1e160", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["deviation"] < 1e-8
        assert abs(payload["measured_order"] - 4.0) < 0.3

    # Roundoff in the step matrix refuses these stable steps (exit 3); the
    # overflowing powers behind the refusal print no RuntimeWarning.  The
    # rotating frame names a step (its value is not pinned: it is wrong for
    # these runs); the lab frame, whose generator depends on time, cannot.
    @pytest.mark.parametrize("argv", [
        ["evolve", "--t-max=1e300", "--delta=1e-60", "--gamma=1e-320"],
        ["evolve", "--t-max=1e154", "--gamma=0"],
        ["verify-frame", "--t-max=1e154", "--dt=1e-60", "--gamma=0"],
    ])
    def test_astronomically_long_run_exits_3_without_a_warning(self, argv, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integrator error: state is not finite") and "Warning" not in err
        _, remedy = err.split("; the step is unstable, ")
        if argv[0] == "evolve":
            step = remedy.removeprefix("the largest stable step is dt = ")
            assert float(step) > 0
        else:
            assert remedy == "reduce dt\n"

    # L and its eigenvalues are finite, but the change to trace coordinates overflows:
    # no step mends that, so it is refused before the gate, as the lab frame refuses it.
    @pytest.mark.parametrize("command", list(INTEGRATOR_FLAGS))
    def test_overflowing_trace_coordinates_exit_2_without_a_warning(self, command, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--t-max=1e-320", "--dt=1e-320", "--gamma=1.7e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arithmetic overflow at this parameter scale: the generator")
        assert "Warning" not in err

    def test_subnormal_damping_remedy_names_the_undamped_limit(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--d=0", "--gamma=1e-320", "--t-max=60", "--dt=3"]) == 3
        err = capsys.readouterr().err
        assert err.endswith("; the largest stable step is dt = 2.82843\n")
        assert "Traceback" not in err

    # LAPACK's null eigenvalue lies just above the real axis here; the remedy read dt = 0.
    def test_roundoff_null_mode_remedy_names_a_positive_step(self, capsys):
        assert run(["evolve", "--delta", "1.4085138489444233", "--d", "-1.4459041021118297",
                    "--gamma", "8.970154768949008", "--t-max", "60", "--dt", "3"]) == 3
        assert capsys.readouterr().err.endswith("; the largest stable step is dt = 0.327406\n")

    # The example's generator is finite, but its change to trace coordinates overflows:
    # it printed numpy's warning, an error under -W error, before the refusal.
    @settings(max_examples=150, deadline=None)
    @given(argv=any_flag_argv())
    @example(argv=["evolve", "--t-max=1e-320", "--dt=1e-320", "--gamma=1.7e308"])
    def test_any_flag_values_end_in_an_exit_code(self, argv, hang_guard):
        out, err = io.StringIO(), io.StringIO()
        with hang_guard(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert type(rc) is int and rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_fast_subset_passes(self, capsys):
        assert run(["verify", "--checks", "gamma0,ep3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    # Every selected check still prints its line; only the all-passed line goes, and
    # stderr names the failed check.
    def test_failed_check_exits_1_and_is_named(self, monkeypatch, capsys):
        from lindblad_ep import verify

        monkeypatch.setitem(verify.CHECKS, "gamma0", lambda seed, tol_scale: verify.CheckResult(
            "gamma0", False, {"worst_residual": 1.0}))
        assert run(["verify", "--checks", "ep3,gamma0"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["PASS ep3", "FAIL gamma0"]
        assert lines[1] == "FAIL gamma0: worst_residual=1"
        assert "verify: all" not in captured.out
        assert captured.err == "verify: FAILED checks: gamma0\n"

    def test_negative_tolerance_is_usage_error(self):
        assert run(["verify", "--tol-scale", "-1"]) == 2

    # An infinite scale used to pass every check, and a NaN to fail every one.
    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_tolerance_is_usage_error(self, scale, capsys):
        assert run(["verify", "--checks", "ep3", "--tol-scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tolerance scale must be positive and finite, got {scale}" in captured.err

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["verify", "--checks", "gamma0", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_default_output_is_byte_identical(self, capsys):
        # The full report at the default seed, as printed before the checks
        # moved onto the array closed form and the batched bisection; the
        # frame deviation and the worst Hermiticity defect re-pinned at
        # roundoff when the lab path moved to powers of one step matrix; the ep3 and
        # ep2-curve errors re-pinned when their reference became the exact roots.
        assert run(["verify"]) == 0
        assert capsys.readouterr().out == VERIFY_DEFAULT_STDOUT

    def test_run_checks_records_elapsed_time_outside_the_summary(self):
        from lindblad_ep.verify import CheckResult, run_checks

        for result in run_checks(["gamma0", "ep3"]):
            assert result.elapsed_s > 0.0
            bare = CheckResult(result.name, result.passed, result.details)
            assert bare.elapsed_s is None
            assert result.summary() == bare.summary()
            assert "elapsed" not in result.summary()

    def test_unknown_check_is_usage_error(self):
        assert run(["verify", "--checks", "bogus"]) == 2

    # A selection of no check used to print "verify: all 0 checks passed".
    @pytest.mark.parametrize("checks", [",", " , ", ""])
    def test_empty_selection_is_usage_error(self, checks, capsys):
        assert run(["verify", "--checks", checks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no checks selected; available: ['ep3', ")

    def test_run_checks_refuses_an_empty_selection(self):
        from lindblad_ep.verify import run_checks

        for names in ([], iter(())):
            with pytest.raises(lindblad_ep.DomainError, match="no checks selected"):
                run_checks(names)


class TestParserPlumbing:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["spectrum", "--frobnicate"]) == 2
        capsys.readouterr()

    # JSON is all these commands print, so they take no --format.
    @pytest.mark.parametrize("command", ["spectrum", "ep3", "verify-frame"])
    def test_format_is_only_a_table_flag(self, command, capsys):
        assert run([command, "--format", "csv"]) == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

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
