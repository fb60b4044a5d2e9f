"""Traced runs: timing wrappers around the public functions of each
pouspec layer, installed from the benchmark's side, and the per-layer
metrics computed from the recorded spans.

A span is (name, start, end, parent span, analysis id). Spans are kept in
flat in-memory arrays while the run lasts and written out once at the end.
A target that no longer exists in the program is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (layer, module, attribute path). Only the layer's public entry points:
# checks.py and errors.py hold record types that do no work.
TARGETS = (
    ("cli", "pouspec.cli", "main"),
    ("report", "pouspec.report", "parse_config"),
    ("report", "pouspec.report", "build_operator"),
    ("report", "pouspec.report", "run_analyze"),
    ("report", "pouspec.report", "emit_report"),
    ("report", "pouspec.report", "emit_svg"),
    ("operators", "pouspec.operators", "OperatorSpec.__post_init__"),
    ("operators", "pouspec.operators", "bernstein_operator"),
    ("operators", "pouspec.operators", "kantorovich_operator"),
    ("operators", "pouspec.operators", "schoenberg_operator"),
    ("operators", "pouspec.operators", "hat_dirac_operator"),
    ("operators", "pouspec.operators", "verify_positivity"),
    ("operators", "pouspec.operators", "verify_constant_reproduction"),
    ("operators", "pouspec.operators", "verify_norm_bound"),
    ("operators", "pouspec.operators", "kernel_witness_report"),
    ("bases", "pouspec.bases", "BasisSystem.values"),
    ("bases", "pouspec.bases", "check_partition_of_unity"),
    ("bases", "pouspec.bases", "check_nonnegativity"),
    ("bases", "pouspec.bases", "make_bernstein_basis"),
    ("bases", "pouspec.bases", "make_bspline_basis"),
    ("bases", "pouspec.bases", "make_hat_basis"),
    ("functions", "pouspec.functions", "Function.values"),
    ("functions", "pouspec.functions", "Function.__call__"),
    ("functions", "pouspec.functions", "random_function"),
    ("functionals", "pouspec.functionals", "DiracFunctional.__call__"),
    ("functionals", "pouspec.functionals", "IntervalAverageFunctional.__call__"),
    ("functionals", "pouspec.functionals", "WeightedQuadratureFunctional.__call__"),
    ("functionals", "pouspec.functionals", "integrate_gauss_legendre"),
    ("functionals", "pouspec.functionals", "check_functional_normalization"),
    ("functionals", "pouspec.functionals", "make_kantorovich_functionals"),
    ("spectra", "pouspec.spectra", "build_collocation_matrix"),
    ("spectra", "pouspec.spectra", "gershgorin_disks"),
    ("spectra", "pouspec.spectra", "eigenvalues"),
    ("spectra", "pouspec.spectra", "classify_spectrum"),
    ("spectra", "pouspec.spectra", "iterate_limit"),
)

FUNCTIONAL_CALLS = ("DiracFunctional.__call__", "IntervalAverageFunctional.__call__",
                    "WeightedQuadratureFunctional.__call__")

#: Per-layer metrics and their units, in report order.
METRIC_UNITS = {
    "cli.self_s": "s",
    "report.parse_s": "s",
    "report.build_operator_s": "s",
    "report.run_analyze_self_s": "s",
    "report.emit_s": "s",
    "report.emit_bytes": "bytes",
    "operators.positivity_s": "s",
    "operators.constant_reproduction_s": "s",
    "operators.norm_estimate_s": "s",
    "operators.kernel_witness_s": "s",
    "operators.self_s": "s",
    "bases.values_calls": "count",
    "bases.values_points": "count",
    "bases.values_s": "s",
    "bases.pou_check_s": "s",
    "bases.values_repeat_ratio": "ratio",
    "functions.values_calls": "count",
    "functions.self_s": "s",
    "functionals.apply_calls": "count",
    "functionals.self_s": "s",
    "functionals.normalization_s": "s",
    "spectra.collocation_s": "s",
    "spectra.collocation_entries": "count",
    "spectra.eigensolve_s": "s",
    "spectra.eigensolve_calls": "count",
    "spectra.classify_s": "s",
    "spectra.iterate_s": "s",
    "spectra.eig_err_max": "abs",
    "trace.overhead_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, value), or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Look in the owner's own namespace so an inherited method is not
    # mistaken for the target.
    value = vars(owner).get(parts[-1])
    return None if value is None else (owner, parts[-1], value)


class Tracer:
    """Span recorder. ``analysis`` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.analysis_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.analysis = -1
        self.counters: dict[int, Counter] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._seen_points: dict[int, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        stack = self._stack
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.analysis_id.append(self.analysis)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count(self, key: str, amount: int) -> None:
        self.counters.setdefault(self.analysis, Counter())[key] += amount

    def _basis_values_hook(self, args, result) -> None:
        basis, xs = args[0], np.asarray(args[1], dtype=float)
        self._count("values_points", int(result.size))
        seen = self._seen_points.setdefault(self.analysis, set())
        key = (id(basis), xs.size, hash(xs.tobytes()))
        if key in seen:
            self._count("values_repeats", 1)
        seen.add(key)

    def _emit_hook(self, args, result) -> None:
        self._count("emit_bytes", len(result.encode()))

    def _collocation_hook(self, args, result) -> None:
        self._count("collocation_entries", int(result.n) ** 2)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {"BasisSystem.values": self._basis_values_hook,
                 "emit_report": self._emit_hook, "emit_svg": self._emit_hook,
                 "build_collocation_matrix": self._collocation_hook}
        modules = [m for name, m in sys.modules.items()
                   if name == "pouspec" or name.startswith("pouspec.")]
        for layer, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, path, layer, hooks.get(path))
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; replace each binding.
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name_id, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "analysis": np.frombuffer(self.analysis_id, dtype=np.int64),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                            **self.arrays())


def exclusive_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = (end - start).astype(float)
    has_parent = parent >= 0
    child_total = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=duration.size)
    return duration - child_total


def layer_metrics(tracer: Tracer, analyses: set[int], eig_err_max: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, each a mean per analysis in ``analyses`` (the
    well-formed ones), except the ratio, the maximum and the overhead."""
    cols = tracer.arrays()
    excl = exclusive_times(cols["start_ns"], cols["end_ns"], cols["parent"]) / 1e9
    dur = (cols["end_ns"] - cols["start_ns"]) / 1e9
    keep = np.isin(cols["analysis"], np.fromiter(analyses, dtype=np.int64))
    layer_of = np.array(tracer.layers + [""])[cols["name"]]
    count = max(len(analyses), 1)

    def spans(*wanted: str) -> np.ndarray:
        ids = [i for i, name in enumerate(tracer.names) if name in wanted]
        return keep & np.isin(cols["name"], ids)

    def total(*wanted: str) -> float:
        return float(dur[spans(*wanted)].sum()) / count

    def calls(*wanted: str) -> float:
        return float(spans(*wanted).sum()) / count

    def self_time(layer: str) -> float:
        return float(excl[keep & (layer_of == layer)].sum()) / count

    def counter(key: str) -> float:
        return sum(tracer.counters.get(a, Counter())[key] for a in analyses) / count

    basis_calls = float(spans("BasisSystem.values").sum())
    return {
        "cli.self_s": self_time("cli"),
        "report.parse_s": total("parse_config"),
        "report.build_operator_s": total("build_operator"),
        "report.run_analyze_self_s": float(excl[spans("run_analyze")].sum()) / count,
        "report.emit_s": total("emit_report", "emit_svg"),
        "report.emit_bytes": counter("emit_bytes"),
        "operators.positivity_s": total("verify_positivity"),
        "operators.constant_reproduction_s": total("verify_constant_reproduction"),
        "operators.norm_estimate_s": total("verify_norm_bound"),
        "operators.kernel_witness_s": total("kernel_witness_report"),
        "operators.self_s": self_time("operators"),
        "bases.values_calls": calls("BasisSystem.values"),
        "bases.values_points": counter("values_points"),
        "bases.values_s": total("BasisSystem.values"),
        "bases.pou_check_s": total("check_partition_of_unity"),
        "bases.values_repeat_ratio": (counter("values_repeats") * count / basis_calls
                                      if basis_calls else 0.0),
        "functions.values_calls": calls("Function.values"),
        "functions.self_s": self_time("functions"),
        "functionals.apply_calls": calls(*FUNCTIONAL_CALLS),
        "functionals.self_s": self_time("functionals"),
        "functionals.normalization_s": total("check_functional_normalization"),
        "spectra.collocation_s": total("build_collocation_matrix"),
        "spectra.collocation_entries": counter("collocation_entries"),
        "spectra.eigensolve_s": total("eigenvalues"),
        "spectra.eigensolve_calls": calls("eigenvalues"),
        "spectra.classify_s": total("classify_spectrum"),
        "spectra.iterate_s": total("iterate_limit"),
        "spectra.eig_err_max": eig_err_max,
        "trace.overhead_s": overhead_s,
    }
