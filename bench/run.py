"""Benchmark of the lindblad_ep package: one workload per run, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the run measures set-up time in fresh interpreters, then
repeats passes of the workload for S seconds and reports the end-to-end
metrics.  Timings are in reference seconds: wall time scaled to a fixed host
speed by a kernel timed alongside (hostspeed.py).  With --trace 1 it spends
half the time on untraced passes and half on passes with a span around each
listed package function, and reports the per-layer metrics and the tracing
overhead.  Every output is checked against the benchmark's own references.
The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS: the workloads are scalar and 4x4, and the box is shared.
# Set before numpy loads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "_out"

SETUP_SAMPLES = 5
MIN_PASSES = 2
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import lindblad_ep, lindblad_ep.cli\n"
    "lindblad_ep.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)


def import_package():
    """Import lindblad_ep from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "lindblad_ep" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {src / 'lindblad_ep'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import lindblad_ep
    import lindblad_ep.cli

    if Path(lindblad_ep.__file__).resolve().parent != src / "lindblad_ep":
        raise SystemExit(f"bench: imported lindblad_ep from {lindblad_ep.__file__}, not {src}")
    return lindblad_ep


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """import lindblad_ep plus cli.build_parser() in fresh interpreters; one warm-up.

    Returns (reference, wall) seconds per sample.  Each sample is scaled by
    the mean of the import-speed samples (hostspeed.IMPORT_CODE) taken in
    fresh interpreters just before and just after it.
    """
    env = {**os.environ, **THREAD_ENV}

    def child(code: str) -> float:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    ref_times, wall_times = [], []
    before = child(hostspeed.IMPORT_CODE)
    for i in range(samples + 1):
        wall = child(SETUP_CODE)
        after = child(hostspeed.IMPORT_CODE)
        if i:
            speed = 0.5 * (hostspeed.REF_IMPORT_S / before + hostspeed.REF_IMPORT_S / after)
            wall_times.append(wall)
            ref_times.append(wall * speed)
        before = after
    return ref_times, wall_times


def clear_package_caches() -> None:
    """Empty every functools cache in the package, as a fresh CLI process would start."""
    for name, module in list(sys.modules.items()):
        if name == "lindblad_ep" or name.startswith("lindblad_ep."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def measure(workload, pkg, seconds: float, min_passes: int) -> list:
    """Whole passes until the next one would end past ``seconds``, timed by a SpeedProbe."""
    passes = []
    walls = []
    start = time.perf_counter()
    with hostspeed.SpeedProbe() as clock:
        while True:
            clear_package_caches()
            begin = time.perf_counter()
            passes.append(workload.run_pass(pkg, clock))
            walls.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
                return passes


def op_medians(passes: list) -> list[float]:
    """Each operation's median time over the passes.

    The host preempts the process for 10 to 30 ms now and then; a median per
    operation drops the passes in which one landed on that operation.
    """
    return [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]


def outcome_counts(passes: list) -> tuple[int, int, int]:
    """(attempted, failed, failed outside known defects) over the distinct operations.

    Every pass repeats the same operations, so an operation counts once, as
    failed if it failed in any pass: the counts depend on the seed alone, not
    on how many passes fit in the run.
    """
    per_op = list(zip(*(p.outcomes for p in passes)))
    failed = [[o for o in op if o is not None] for op in per_op]
    return (len(per_op), sum(bool(f) for f in failed),
            sum(any(o[0] is None for o in f) for f in failed))


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(passes: list, setup: list[float], ops_are_queries: bool) -> dict:
    """Timings in reference seconds (hostspeed.py), from each operation's median.

    A pass takes ``job_s``, the sum of its operations' medians.  A query is one
    operation where ``ops_are_queries``, else the whole pass.
    """
    per_op = op_medians(passes)
    job = sum(per_op)
    queries = per_op if ops_are_queries else [job]
    attempted, failed, _ = outcome_counts(passes)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (job, "s"),
        "queries_per_s": (len(queries) / job, "1/s"),
        "query_us.p50": (percentile(queries, 50) * 1e6, "us"),
        "query_us.p99": (percentile(queries, 99) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lindblad_ep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    git_sha = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        git_sha = target.read_text().strip() if target and target.is_file() else ref
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    setup, setup_wall = ([], []) if args.trace else measure_setup(SETUP_SAMPLES)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # An untimed pass first: lazy imports, first-call costs and the first
        # touch of the memory a pass needs stay out of the timings.
        clear_package_caches()
        workload.run_pass(pkg)
        if args.trace:
            untraced = measure(workload, pkg, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            passes = measure(workload, pkg, args.seconds / 2, 1)
            metrics = tracing.layer_metrics(
                tracer, len(passes), passes[0].attempted if workload.ops_are_queries else 1,
                statistics.median(p.output_bytes for p in passes),
                sum(op_medians(untraced)), sum(op_medians(passes)))
            passes += untraced
        else:
            passes = measure(workload, pkg, args.seconds, MIN_PASSES)
            metrics = end_to_end(passes, setup, workload.ops_are_queries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failed_unexpected = outcome_counts(passes)
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy"),
                    "platform": platform.platform()},
        "source": source_identity(),
        "inputs": workload.inputs,
        "samples": {"passes": len(passes), "operations": sum(p.attempted for p in passes),
                    "setup": len(setup), "pass_s": [p.seconds for p in passes]},
        "wall": {"job_s": statistics.median(p.wall_seconds for p in passes),
                 "setup_s": statistics.median(setup_wall) if setup_wall else None,
                 "pass_s": [p.wall_seconds for p in passes]},
        "fail_ratio": failed / attempted,
        "errors": sorted({e for p in passes for e in p.errors}, key=lambda e: "[unexpected]" not in e)[:10],
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"run": run, "spans": tracer.table()}, indent=1) + "\n")
        run["trace_file"] = str(trace_file.relative_to(ROOT))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"run": run}))
    # Failures inside a documented defect's input domain (workloads.known_defect)
    # count in `failed` and pass_ratio but do not make the run incorrect.
    correct = failed_unexpected == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.pop("LINDBLAD_EP_WORKERS", None)
    sys.exit(main())
