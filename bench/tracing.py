"""Spans around the package's public functions, recorded from outside the package.

Each listed function is replaced by a wrapper at every module of the package
that binds it (``cli`` and ``verify`` import functions by name), and the checks
in ``verify.CHECKS`` get a span each.  Spans are folded into per-name totals
in memory as they close: calls, total time and self time, which is the span
minus its child spans.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# The layers are the package's modules; these are their functions on the
# paths the workloads exercise.
TARGETS = {
    "model": ("hamiltonian_rwa", "rotate_to_lab", "devectorize"),
    "superop": ("build_lindblad", "lindblad_rhs", "equilibrium_state"),
    "spectrum": ("cardano_params", "eigenvalues_closed_form", "eigenvalues_numeric",
                 "characteristic_residual", "match_distance", "full_spectrum",
                 "eigenvectors_closed_form"),
    "exceptional": ("classify", "ep2_gamma", "scaled_discriminant", "ep2_locate_numeric"),
    "dynamics": ("step_rk4", "evolve_rotating", "evolve_lab", "verify_frame_equivalence",
                 "spectral_evolve"),
    "verify": ("run_checks",),
    "cli": ("main",),
}

VERIFY_CHECKS = ("equilibrium", "frame", "phase-diagram", "spectra", "ep2-curve")

# Calls of the first span made while the second is open, for the ratio
# exceptional.cardano_per_classify.
NESTED = ("spectrum.cardano_params", "exceptional.classify")


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, seconds spent in children]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.open = Counter()
        self.nested_calls = 0

    def wrap(self, name: str, fn):
        stack, open_, inner, outer = self.stack, self.open, *NESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == inner and open_[outer]:
                self.nested_calls += 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            open_[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - frame[1]
                stack.pop()
                open_[name] -= 1
                self.calls[name] += 1
                self.total_s[name] += seconds
                self.self_s[name] += seconds - frame[2]
                if stack:
                    stack[-1][2] += seconds

        return traced

    def install(self, package_name: str = "lindblad_ep") -> None:
        """Wrap every target at each module of the package that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package_name or n.startswith(package_name + ".")]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"{package_name}.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        checks = sys.modules[f"{package_name}.verify"].CHECKS
        for check in VERIFY_CHECKS:
            if check in checks:
                checks[check] = self.wrap(f"verify.check.{check}", checks[check])

    def table(self) -> dict:
        """Per-span totals, for the trace file."""
        return {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module_name, functions in TARGETS.items():
        for fn_name in functions:
            names += [(f"{module_name}.{fn_name}.calls", "count"),
                      (f"{module_name}.{fn_name}.self_s", "s")]
    names += [(f"verify.check.{check}.total_s", "s") for check in VERIFY_CHECKS]
    names += [
        ("cli.output_bytes", "bytes"),
        ("spectrum.closed_form_evals_per_query", "calls/query"),
        ("exceptional.cardano_per_classify", "calls/call"),
        ("bench.queries", "count"),
        ("trace.untraced_job_s", "s"),
        ("trace.traced_job_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def layer_metrics(tracer: Tracer, passes: int, queries: int, output_bytes: float,
                  untraced_job_s: float, traced_job_s: float) -> dict:
    """Per-layer values per traced pass; ratios with their bases reported alongside."""
    values = {}
    for module_name, functions in TARGETS.items():
        for fn_name in functions:
            name = f"{module_name}.{fn_name}"
            values[f"{name}.calls"] = tracer.calls[name] / passes
            values[f"{name}.self_s"] = tracer.self_s[name] / passes
    for check in VERIFY_CHECKS:
        values[f"verify.check.{check}.total_s"] = tracer.total_s[f"verify.check.{check}"] / passes
    closed = tracer.calls["spectrum.eigenvalues_closed_form"]
    classify = tracer.calls["exceptional.classify"]
    values.update({
        "cli.output_bytes": output_bytes,
        "spectrum.closed_form_evals_per_query": closed / passes / queries,
        "exceptional.cardano_per_classify": tracer.nested_calls / classify if classify else 0.0,
        "bench.queries": queries,
        "trace.untraced_job_s": untraced_job_s,
        "trace.traced_job_s": traced_job_s,
        "trace.overhead_s": traced_job_s - untraced_job_s,
    })
    units = dict(metric_names())
    return {name: {"value": values[name], "unit": units[name]} for name in units}
