"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every package module that holds it, which is where its callers look it up:
``rate_functions.f4`` is replaced in ``rate_functions`` (the scenario modules
call ``rf.f4``), ``scalar_opt.maximize_min`` in ``scalar_opt``,
``scenario_one`` and ``scenario_two`` (they import the name), and
``analysis.no_secrecy_compare`` in ``analysis`` and ``cli``.  Each wrapper
records a span: its calls, its inclusive time and its self time (inclusive
time less the time of the traced calls made inside it).  Calls of f1..f7 are
split into scalar and vector calls by the shape of ``rho``.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

TARGETS = {
    "rate_functions": ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f5_inverse"),
    "scalar_opt": ("maximize_min", "bisect_root"),
    "scenario_one": ("bounds", "upper_bound", "scheme_rates"),
    "scenario_two": ("bounds", "upper_bound", "scheme_rates"),
    "analysis": ("capacity_condition", "detect_thresholds", "pdf_gap_vs_power", "no_secrecy_compare"),
    "oracles": ("validate_closed_forms", "gaussian_mi"),
    "cli": ("main",),
}
_RATES = {f"rate_functions.f{i}" for i in range(1, 8)}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # span -> [calls, inclusive ns, self ns]
        self.counts: dict[str, int] = {"vector_points": 0, "scalar_in_maximize": 0}
        self._stack: list[list[int]] = []  # traced time of the children of each open span
        self._maximize_depth = 0
        self._patched = []

    # -- wrappers --

    def _wrap(self, name, fn):
        stack, stats, counts = self._stack, self.stats, self.counts
        tracer = self

        def span(key, args, kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0, 0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]

        if name in _RATES:
            def rate(*args, **kwargs):
                rho = args[1] if len(args) > 1 else kwargs["rho"]
                if np.ndim(rho) == 0:
                    if tracer._maximize_depth:
                        counts["scalar_in_maximize"] += 1
                    return span("rate_functions.scalar", args, kwargs)
                counts["vector_points"] += np.size(rho)
                return span("rate_functions.vector", args, kwargs)
            return rate

        if name == "scalar_opt.maximize_min":
            def maximize(*args, **kwargs):
                tracer._maximize_depth += 1
                try:
                    return span(name, args, kwargs)
                finally:
                    tracer._maximize_depth -= 1
            return maximize

        def plain(*args, **kwargs):
            return span(name, args, kwargs)
        return plain

    def install(self) -> None:
        import diamond_wiretap.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "diamond_wiretap" or n.startswith("diamond_wiretap.")]
        for modname, names in TARGETS.items():
            mod = sys.modules.get(f"diamond_wiretap.{modname}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapped = self._wrap(f"{modname}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- failed operations leave no trace --

    def snapshot(self):
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counts)

    def restore(self, snap) -> None:
        stats, counts = snap
        self.stats.clear()
        self.stats.update({k: list(v) for k, v in stats.items()})
        self.counts.update(counts)
        self._stack.clear()
        self._maximize_depth = 0

    # -- per-layer metrics --

    def per_layer(self, ops: int, needed: dict[str, int], imports: dict[str, float]) -> dict:
        def st(key):
            return self.stats.get(key, [0, 0, 0])

        def per_op(x):
            return x / ops

        def ms(ns):
            return ns / 1e6 / ops

        def useful(module):
            calls = st(f"{module}.upper_bound")[0]
            return min(1.0, needed[module] / calls) if calls else 1.0

        maximize_calls = st("scalar_opt.maximize_min")[0]
        detect_calls = st("analysis.detect_thresholds")[0]
        scheme_calls = st("scenario_one.scheme_rates")[0] + st("scenario_two.scheme_rates")[0]
        m = {
            "rate_functions.scalar_calls": (per_op(st("rate_functions.scalar")[0]), "count"),
            "rate_functions.scalar_ms": (ms(st("rate_functions.scalar")[1]), "ms"),
            "rate_functions.vector_calls": (per_op(st("rate_functions.vector")[0]), "count"),
            "rate_functions.vector_points": (per_op(self.counts["vector_points"]), "count"),
            "rate_functions.vector_ms": (ms(st("rate_functions.vector")[1]), "ms"),
            "rate_functions.f5_inverse_ms": (ms(st("rate_functions.f5_inverse")[1]), "ms"),
            "scalar_opt.maximize_min_calls": (per_op(maximize_calls), "count"),
            "scalar_opt.maximize_min_self_ms": (ms(st("scalar_opt.maximize_min")[2]), "ms"),
            "scalar_opt.scalar_evals_per_maximize": (
                self.counts["scalar_in_maximize"] / maximize_calls if maximize_calls else 0.0, "count"),
            "scalar_opt.bisect_root_calls": (per_op(st("scalar_opt.bisect_root")[0]), "count"),
            "scenario_one.bounds_ms": (ms(st("scenario_one.bounds")[1]), "ms"),
            "scenario_two.bounds_ms": (ms(st("scenario_two.bounds")[1]), "ms"),
            "scenario_one.upper_bound_calls": (per_op(st("scenario_one.upper_bound")[0]), "count"),
            "scenario_two.upper_bound_calls": (per_op(st("scenario_two.upper_bound")[0]), "count"),
            "scenario_one.useful_ratio": (useful("scenario_one"), "ratio"),
            "scenario_two.useful_ratio": (useful("scenario_two"), "ratio"),
            "scenario_one.scheme_rates_calls": (per_op(st("scenario_one.scheme_rates")[0]), "count"),
            "scenario_two.scheme_rates_calls": (per_op(st("scenario_two.scheme_rates")[0]), "count"),
            "analysis.evals_per_threshold_call": (scheme_calls / detect_calls if detect_calls else 0.0, "count"),
            "analysis.detect_thresholds_ms": (ms(st("analysis.detect_thresholds")[1]), "ms"),
            "analysis.capacity_condition_ms": (ms(st("analysis.capacity_condition")[1]), "ms"),
            "analysis.pdf_gap_vs_power_ms": (ms(st("analysis.pdf_gap_vs_power")[1]), "ms"),
            "analysis.no_secrecy_compare_ms": (ms(st("analysis.no_secrecy_compare")[1]), "ms"),
            "cli.numpy_import_ms": (imports["numpy"], "ms"),
            "cli.package_import_ms": (imports["package"], "ms"),
            "cli.main_self_ms": (ms(st("cli.main")[2]), "ms"),
            "oracles.validate_closed_forms_ms": (ms(st("oracles.validate_closed_forms")[1]), "ms"),
            "oracles.gaussian_mi_calls": (per_op(st("oracles.gaussian_mi")[0]), "count"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(root: str, env: dict, runs: int = 3) -> dict[str, float]:
    """Median over ``runs`` CLI starts of numpy's import time (cumulative) and
    the package's own import time (the self time of its modules), in ms."""
    numpy_ms, package_ms = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "diamond_wiretap", "--help"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        numpy_us = package_us = 0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            name = m.group(4)
            if name == "numpy":
                numpy_us = int(m.group(2))
            elif name == "diamond_wiretap" or name.startswith("diamond_wiretap."):
                package_us += int(m.group(1))
        numpy_ms.append(numpy_us / 1e3)
        package_ms.append(package_us / 1e3)
    return {"numpy": statistics.median(numpy_ms), "package": statistics.median(package_ms)}
