"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/smoke.py

Each reference check must pass on the package's real output and flag a
deliberately corrupted copy of it, so the correctness gate is not vacuous.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import lindblad_ep  # noqa: E402
import lindblad_ep.cli  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reported_metrics_match_benchmark_json():
    spec = _spec()
    fake = W.PassResult(op_seconds=[1.0], outcomes=[None])
    e2e = run.end_to_end([fake], [0.5], True)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_counts_are_per_operation_not_per_pass():
    ok, defect, bad = None, ("scale", "x"), (None, "y")
    passes = [W.PassResult(outcomes=[ok, defect, ok, ok]),
              W.PassResult(outcomes=[ok, defect, bad, ok]),
              W.PassResult(outcomes=[ok, defect, ok, ok])]
    assert run.outcome_counts(passes) == (4, 2, 1)
    assert run.outcome_counts(passes[:1]) == (4, 1, 0)


def test_reference_seconds_follow_the_kernel():
    with hostspeed.SpeedProbe() as clock:
        mark = clock.mark()
        for _ in range(40):
            hostspeed.kernel()
        wall, seconds = clock.since(mark)
    speeds = [hostspeed.REF_KERNEL_S / k for k in clock.samples[mark[2] - hostspeed.CONTEXT:]]
    assert len(speeds) > hostspeed.CONTEXT
    assert 0.0 < wall < 10.0
    assert seconds == pytest.approx(wall * sum(speeds) / len(speeds))
    with pytest.raises(RuntimeError):
        hostspeed.SpeedProbe().since((0.0, 0.0, 0))


def test_generator_matches_package():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = (rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(0, 10))
        L = lindblad_ep.build_lindblad(lindblad_ep.ModelParams(*p))
        assert np.max(np.abs(ref.generator(*p) - L)) <= 1e-15


def test_queries_are_seeded():
    assert W.make_queries(7, 40) == W.make_queries(7, 40)
    assert W.make_queries(7, 40) != W.make_queries(8, 40)
    queries = W.make_queries(7, 40)
    assert sum(q.log10_s is not None for q in queries) == 10
    assert [q.kind for q in queries].count("ep3") == 4


def test_point_queries_pass_and_flag_corruption(tmp_path):
    workload = W.PointQueries(3, tmp_path, n=40)
    result = workload.run_pass(lindblad_ep)
    assert result.attempted == 40 and result.failed_unexpected == 0, result.errors
    q, expect = next((q, e) for q, e in zip(workload.queries, workload.references)
                     if q.kind == "bulk" and q.log10_s is None)
    out = W.run_query(lindblad_ep, q)
    assert W.check_query(out, expect) is None
    wrong_region = "AllImaginary" if out.region == "SplitPair" else "SplitPair"
    shifted = out.closed + np.array([0, 10 * expect.tol, 0, 0])
    corrupted = [
        replace(out, region=wrong_region),
        replace(out, closed=shifted),
        replace(out, numeric=out.numeric[::-1] * 1.001),
        replace(out, residuals=[r + 1e-3 for r in out.residuals]),
        replace(out, spectrum=None),
        replace(out, rho_t=None),
        replace(out, rho_t=out.rho_t + 1e-6),
    ]
    for bad in corrupted:
        assert W.check_query(bad, expect) is not None


def test_trajectories_pass_and_flag_corruption(tmp_path):
    workload = W.Trajectories(5, tmp_path, t_max=2.0)
    result = workload.run_pass(lindblad_ep)
    assert result.attempted == 5 and result.failed == 0, result.errors
    argv, out, _ = next(iter(workload.operations()))
    assert lindblad_ep.cli.main(argv) == 0
    text = out.read_text()
    rho0 = ref.INITIAL_STATES["excited"]
    assert W.check_trajectory(text, workload.exact, rho0) is None
    lines = text.splitlines()
    row = lines[5].split(",")
    bad_state = [*row[:1], repr(float(row[1]) + 1e-6), *row[2:]]
    bad_trace = [*row[:5], "1e-9", *row[6:]]
    for bad in (bad_state, bad_trace):
        corrupted = "\n".join(lines[:5] + [",".join(bad)] + lines[6:]) + "\n"
        assert W.check_trajectory(corrupted, workload.exact, rho0) is not None
    assert W.check_trajectory(text, workload.exact, ref.INITIAL_STATES["ground"]) is not None
    frame = json.loads((tmp_path / "frame.json").read_text())
    assert W.check_verify_frame(json.dumps(frame)) is None
    assert W.check_verify_frame(json.dumps({**frame, "measured_order": 3.0})) is not None
    assert W.check_verify_frame(json.dumps({**frame, "deviation": 1e-6})) is not None


def test_phase_sweep_pass_and_flag_corruption(tmp_path):
    workload = W.PhaseSweep(0, tmp_path)
    result = workload.run_pass(lindblad_ep)
    assert result.attempted == 2 and result.failed == 0, result.errors
    phase = workload.phase_out.read_text()
    assert W.check_phase_csv(phase.replace("SplitPair", "AllImaginary", 1)) is not None
    curve = workload.curve_out.read_text()
    lines = curve.splitlines()
    row = lines[50].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-3))
    assert W.check_ep_curve("\n".join(lines[:50] + [",".join(row)] + lines[51:])) is not None
    assert W.check_ep_curve("\n".join(lines[:-1])) is not None


def test_verify_output_check(tmp_path):
    workload = W.VerifySuite(0, tmp_path, checks=("ep3", "gamma0"))
    result = workload.run_pass(lindblad_ep)
    assert result.attempted == 1 and result.failed == 0, result.errors
    rc, _, stdout, _ = W.run_cli(lindblad_ep.cli, ["verify", "--checks", "ep3,gamma0"])
    assert W.check_verify_output(rc, stdout, 2) is None
    assert W.check_verify_output(1, stdout, 2) is not None
    assert W.check_verify_output(rc, stdout.replace("PASS", "FAIL", 1), 2) is not None
    assert W.check_verify_output(rc, stdout, 9) is not None


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_traced_run_reports_every_layer_metric():
    proc = _bench(ROOT, "--workload", "point_queries", "--seed", "1",
                  "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert [n for n, _ in tracing.metric_names()] == list(result["metrics"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["exceptional.cardano_per_classify"] == pytest.approx(2.0, abs=0.05)
    assert metrics["exceptional.classify.calls"] > 1000
    assert metrics["bench.queries"] == 1000


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "phase_sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
