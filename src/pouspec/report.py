"""Batch analysis pipeline: configuration, full run, and report emission.

A configuration is a single JSON map (schema ``version: 1``) that names one
operator from the catalog (or a custom basis/functional combination) plus
grid, tolerance, iteration, seed, and output settings. ``run_analyze``
executes the whole pipeline deterministically for a fixed seed: construct
the operator, verify the lemma properties, assemble the collocation matrix,
solve and classify the spectrum, and search for the limit of matrix powers.
Reports serialize to JSON (17 significant digits, stable key order), to a
flat eigenvalue CSV, and to a static SVG of the disks and eigenvalues.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

import numpy as np

from .bases import (DEFAULT_GRID_POINTS, check_partition_of_unity, make_bernstein_basis,
                    make_bspline_basis, make_hat_basis)
from .checks import CheckResult
from .errors import ConfigError, UnsupportedSizeError
from .functionals import (DiracFunctional, IntervalAverageFunctional,
                          WeightedQuadratureFunctional)
from .operators import (OperatorSpec, bernstein_operator, hat_dirac_operator,
                        kantorovich_operator, kernel_witness_report,
                        schoenberg_operator, verify_constant_reproduction,
                        verify_norm_bound, verify_positivity)
from .spectra import (CLASSIFICATION_CONFORMS, MAX_DIMENSION, CollocationMatrix,
                      IterateResult, SpectrumReport, build_collocation_matrix,
                      classify_spectrum, eigenvalues, gershgorin_disks, iterate_limit)

SCHEMA_VERSION = 1

OPERATOR_KINDS = ("bernstein", "kantorovich", "schoenberg", "hat-dirac", "custom")

#: Largest verification grid. The checks hold one ``n x grid_points`` array
#: of basis values; at n = MAX_DIMENSION this bound keeps it near 400 MB.
MAX_GRID_POINTS = 100_001

#: Largest ``iterate.m_max``: at most 30 doublings of the power search.
MAX_ITERATE_M = 2 ** 30


@dataclass(frozen=True)
class Tolerances:
    pou: float = 1e-10
    stochastic: float = 1e-10
    peripheral: float = 1e-8
    norm: float = 1e-10


@dataclass(frozen=True)
class IterateSettings:
    m_max: int = 65536
    tol: float = 1e-10


@dataclass(frozen=True)
class OutputFlags:
    json: bool = False
    csv: bool = False
    svg: bool = False


@dataclass(frozen=True)
class AnalysisConfig:
    operator: str
    params: dict
    grid_points: int = DEFAULT_GRID_POINTS
    tolerances: Tolerances = field(default_factory=Tolerances)
    iterate: IterateSettings = field(default_factory=IterateSettings)
    seed: int = 42
    outputs: OutputFlags = field(default_factory=OutputFlags)
    version: int = SCHEMA_VERSION

    def with_seed(self, seed: int) -> "AnalysisConfig":
        return replace(self, seed=_seed(seed))

    def echo(self) -> dict:
        """Canonical plain mapping; parsing it back yields an equal config."""
        out: dict[str, Any] = {"version": self.version, "operator": self.operator}
        out.update(self.params)
        out["grid_points"] = self.grid_points
        out["tolerances"] = asdict(self.tolerances)
        out["iterate"] = asdict(self.iterate)
        out["seed"] = self.seed
        out["outputs"] = asdict(self.outputs)
        return out


# --------------------------------------------------------------------------
# Configuration parsing
# --------------------------------------------------------------------------

def _finite(value: int | float) -> bool:
    """Whether a JSON number is a finite float (an integer past the float
    range is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_number(value: Any) -> bool:
    """An int or float; JSON ``true`` and ``false`` are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(data: dict, key: str, types, context: str):
    if key not in data:
        raise ConfigError(f"{context}: missing required field '{key}'")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{context}: field '{key}' has invalid type "
                          f"{type(value).__name__}")
    if float in types and not _finite(value):
        raise ConfigError(f"{context}: '{key}' must be a finite number")
    return value


def _seed(value: Any) -> int:
    """A valid random seed: numpy's generators take integers >= 0 only."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"config: 'seed' must be an integer >= 0, got {value!r}")
    return value


def _positive_int(data: dict, key: str, context: str, minimum: int = 1) -> int:
    value = _require(data, key, (int,), context)
    if value < minimum:
        raise ConfigError(f"{context}: '{key}' must be an integer >= {minimum}")
    return value


def _float_list(data: dict, key: str, context: str) -> list[float]:
    value = _require(data, key, (list,), context)
    if not all(_is_number(v) for v in value):
        raise ConfigError(f"{context}: '{key}' must be a list of numbers")
    if not all(_finite(v) for v in value):
        raise ConfigError(f"{context}: '{key}' must hold finite numbers only")
    return [float(v) for v in value]


def _parse_operator_params(kind: str, data: dict) -> dict:
    if kind in ("bernstein", "kantorovich"):
        return {"n": _positive_int(data, "n", f"operator '{kind}'")}
    if kind == "schoenberg":
        degree = _positive_int(data, "degree", "operator 'schoenberg'")
        return {"knots": _float_list(data, "knots", "operator 'schoenberg'"),
                "degree": degree}
    if kind == "hat-dirac":
        return {"nodes": _float_list(data, "nodes", "operator 'hat-dirac'")}
    if kind == "custom":
        basis = _require(data, "basis", (dict,), "operator 'custom'")
        functionals = _require(data, "functionals", (list,), "operator 'custom'")
        return {"basis": _parse_basis_spec(basis),
                "functionals": [_parse_functional_spec(s, i)
                                for i, s in enumerate(functionals)]}
    raise ConfigError(f"unknown operator kind '{kind}' "
                      f"(expected one of {', '.join(OPERATOR_KINDS)})")


def _parse_basis_spec(spec: dict) -> dict:
    kind = _require(spec, "kind", (str,), "custom basis")
    if kind == "bernstein":
        return {"kind": "bernstein", "n": _positive_int(spec, "n", "custom basis")}
    if kind == "bspline":
        return {"kind": "bspline",
                "knots": _float_list(spec, "knots", "custom basis"),
                "degree": _positive_int(spec, "degree", "custom basis", minimum=0)}
    if kind == "hat":
        return {"kind": "hat", "nodes": _float_list(spec, "nodes", "custom basis")}
    raise ConfigError(f"custom basis: unknown kind '{kind}'")


def _parse_functional_spec(spec: Any, index: int) -> dict:
    context = f"functional[{index}]"
    if not isinstance(spec, dict):
        raise ConfigError(f"{context}: must be a map")
    kind = _require(spec, "kind", (str,), context)
    if kind == "dirac":
        return {"kind": "dirac", "x": float(_require(spec, "x", (int, float), context))}
    if kind == "interval-average":
        a = float(_require(spec, "a", (int, float), context))
        b = float(_require(spec, "b", (int, float), context))
        if a >= b:
            raise ConfigError(f"{context}: requires a < b")
        return {"kind": "interval-average", "a": a, "b": b}
    if kind == "weighted-quadrature":
        return {"kind": "weighted-quadrature",
                "nodes": _float_list(spec, "nodes", context),
                "weights": _float_list(spec, "weights", context)}
    raise ConfigError(f"{context}: unknown kind '{kind}'")


def config_from_mapping(data: dict) -> AnalysisConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a single top-level map")
    version = data.get("version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version!r} "
                          f"(this build reads version {SCHEMA_VERSION})")
    kind = _require(data, "operator", (str,), "config")
    params = _parse_operator_params(kind, data)

    grid_points = data.get("grid_points", DEFAULT_GRID_POINTS)
    if (not isinstance(grid_points, int) or isinstance(grid_points, bool)
            or not 11 <= grid_points <= MAX_GRID_POINTS):
        raise ConfigError(f"config: 'grid_points' must be an integer in [11, {MAX_GRID_POINTS}]")

    tol_data = data.get("tolerances", {})
    if not isinstance(tol_data, dict):
        raise ConfigError("config: 'tolerances' must be a map")
    tol_kwargs = {}
    for tol_field in fields(Tolerances):
        name = tol_field.name
        value = tol_data.get(name, tol_field.default)
        if not _is_number(value) or not _finite(value) or value <= 0:
            raise ConfigError(f"config: tolerance '{name}' must be a finite positive number")
        tol_kwargs[name] = float(value)

    it_data = data.get("iterate", {})
    if not isinstance(it_data, dict):
        raise ConfigError("config: 'iterate' must be a map")
    it_defaults = IterateSettings()
    m_max = it_data.get("m_max", it_defaults.m_max)
    if (not isinstance(m_max, int) or isinstance(m_max, bool)
            or not 2 <= m_max <= MAX_ITERATE_M):
        raise ConfigError(f"config: iterate 'm_max' must be an integer in [2, {MAX_ITERATE_M}]")
    it_tol = it_data.get("tol", it_defaults.tol)
    if not _is_number(it_tol) or not _finite(it_tol) or it_tol <= 0:
        raise ConfigError("config: iterate 'tol' must be a finite positive number")

    seed = _seed(data.get("seed", 42))

    out_data = data.get("outputs", {})
    if not isinstance(out_data, dict):
        raise ConfigError("config: 'outputs' must be a map")
    flags = {}
    for flag in fields(OutputFlags):
        name = flag.name
        value = out_data.get(name, flag.default)
        if not isinstance(value, bool):
            raise ConfigError(f"config: output flag '{name}' must be a boolean")
        flags[name] = value

    return AnalysisConfig(
        operator=kind,
        params=params,
        grid_points=grid_points,
        tolerances=Tolerances(**tol_kwargs),
        iterate=IterateSettings(m_max=m_max, tol=float(it_tol)),
        seed=seed,
        outputs=OutputFlags(**flags),
        version=SCHEMA_VERSION,
    )


def parse_config(text: str) -> AnalysisConfig:
    """Parse and validate a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return config_from_mapping(data)


# --------------------------------------------------------------------------
# Operator construction from a config
# --------------------------------------------------------------------------

def _build_custom_basis(spec: dict):
    if spec["kind"] == "bernstein":
        return make_bernstein_basis(spec["n"])
    if spec["kind"] == "bspline":
        return make_bspline_basis(spec["knots"], spec["degree"])
    return make_hat_basis(spec["nodes"])


def _build_custom_functional(spec: dict):
    if spec["kind"] == "dirac":
        return DiracFunctional(spec["x"])
    if spec["kind"] == "interval-average":
        return IntervalAverageFunctional(spec["a"], spec["b"])
    return WeightedQuadratureFunctional(spec["nodes"], spec["weights"])


def _dimension(kind: str, params: dict) -> int:
    """Basis size of the configured operator, read off its parameters."""
    if kind in ("bernstein", "kantorovich"):
        return params["n"] + 1
    if kind == "schoenberg":
        return len(params["knots"]) - params["degree"] - 1
    if kind == "hat-dirac":
        return len(params["nodes"])
    return len(params["functionals"])


def build_operator(config: AnalysisConfig) -> OperatorSpec:
    """The configured operator, validated. Its size is checked against
    ``MAX_DIMENSION`` before anything is built or evaluated."""
    kind = config.operator
    params = config.params
    n = _dimension(kind, params)
    if n > MAX_DIMENSION:
        raise UnsupportedSizeError(f"operator '{kind}' has dimension {n}; the dense "
                                   f"eigensolver supports n <= {MAX_DIMENSION}")
    if kind == "bernstein":
        return bernstein_operator(params["n"])
    if kind == "kantorovich":
        return kantorovich_operator(params["n"])
    if kind == "schoenberg":
        return schoenberg_operator(params["knots"], params["degree"])
    if kind == "hat-dirac":
        return hat_dirac_operator(params["nodes"])
    basis = _build_custom_basis(params["basis"])
    funcs = tuple(_build_custom_functional(s) for s in params["functionals"])
    return OperatorSpec(basis, funcs, name="custom")


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    config: AnalysisConfig
    operator_name: str
    checks: dict[str, CheckResult]
    matrix: CollocationMatrix
    row_sum_max_dev: float
    diag_min: float
    spectrum: SpectrumReport
    iterates: IterateResult
    timings: dict[str, float]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def rate(self) -> float | None:
        """Rate at which the powers approach their limit: the spectrum's
        subdominant modulus when they converged, else ``None``."""
        return self.spectrum.subdominant_modulus if self.iterates.converged else None


def run_checks(op: OperatorSpec, config: AnalysisConfig) -> dict[str, CheckResult]:
    """The lemma checks of an operator, in report order, seeded from the
    config. The verification grid of ``config.grid_points`` points is built
    here once, and every check measures on that one array."""
    grid = op.basis.domain.grid(config.grid_points)
    tol = config.tolerances
    return {
        "partition_of_unity": check_partition_of_unity(op.basis, grid, tol.pou),
        "positivity": verify_positivity(op, grid, trials=100, tol=tol.norm,
                                        seed=config.seed),
        "constant_reproduction": verify_constant_reproduction(op, grid, tol.norm),
        "norm_estimate": verify_norm_bound(op, grid, trials=200, seed=config.seed + 1,
                                           tol=tol.norm),
        "kernel_residual": kernel_witness_report(op, grid),
    }


def run_analyze(config: AnalysisConfig) -> AnalysisReport:
    """Execute the full pipeline for one configured operator.

    The run is deterministic for a fixed config (seed included). A LAPACK
    failure in the eigensolve is re-raised as
    :class:`numpy.linalg.LinAlgError` naming the operator and the stage;
    no report with a partial spectrum is produced.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    op = build_operator(config)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    checks = run_checks(op, config)
    timings["checks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrix = build_collocation_matrix(op)
    row_sum_max_dev = float(np.max(np.abs(matrix.row_sums() - 1.0)))
    diag_min = matrix.diagonal_min()
    timings["matrix"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    disks = gershgorin_disks(matrix)
    try:
        eigs = eigenvalues(matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"operator {op.name}: eigensolve failed: {exc}") from exc
    spectrum = classify_spectrum(eigs, disks, config.tolerances.peripheral)
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    iterates = iterate_limit(matrix, tol=config.iterate.tol, m_max=config.iterate.m_max)
    timings["iterates"] = time.perf_counter() - t0

    return AnalysisReport(
        config=config,
        operator_name=op.name,
        checks=checks,
        matrix=matrix,
        row_sum_max_dev=row_sum_max_dev,
        diag_min=diag_min,
        spectrum=spectrum,
        iterates=iterates,
        timings=timings,
    )


def exit_code_for(report: AnalysisReport) -> int:
    """0 when every check passed and the spectrum conforms, else 1."""
    ok = (report.all_checks_passed
          and report.spectrum.classification == CLASSIFICATION_CONFORMS)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _format_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return "%.17g" % x


def _json_fragment(obj: Any, indent: int, level: int) -> str:
    if type(obj) is float:  # the n^2 matrix entries: test the common case first
        return _format_number(obj)
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_number(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_fragment(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_json_fragment(v, indent, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _json_fragment(obj, indent, 0) + "\n"


def _eigenvalue_rows(spectrum: SpectrumReport):
    """``(re, im, modulus, in_disk_union)`` of each eigenvalue as Python
    scalars, the modulus read from ``spectrum.moduli``."""
    eigs = spectrum.eigenvalues
    return zip(eigs.real.tolist(), eigs.imag.tolist(), spectrum.moduli.tolist(),
               spectrum.in_disk_union.tolist())


def report_to_mapping(report: AnalysisReport) -> dict:
    """Plain mapping mirror of a report with the documented key paths."""
    spectrum = report.spectrum
    eig_rows = [{"re": re, "im": im, "modulus": modulus, "in_disk_union": inside}
                for re, im, modulus, inside in _eigenvalue_rows(spectrum)]
    centers, radii = spectrum.disks
    return {
        "config": report.config.echo(),
        "operator": report.operator_name,
        "checks": {name: check.as_dict() for name, check in report.checks.items()},
        "matrix": {
            "entries": report.matrix.entries.tolist(),
            "row_sum_max_dev": report.row_sum_max_dev,
            "diag_min": report.diag_min,
        },
        "spectrum": {
            "eigenvalues": eig_rows,
            "disks": [{"center": c, "radius": r}
                      for c, r in zip(centers.tolist(), radii.tolist())],
            "classification": spectrum.classification,
            "diagnostics": spectrum.diagnostics,
        },
        "iterates": {
            "converged": report.iterates.converged,
            "rate": report.rate,
            "m_used": report.iterates.m_used,
            "message": report.iterates.message,
        },
        "timings": dict(report.timings),
    }


def emit_report(report: AnalysisReport, format: str = "json") -> str:
    """Serialize a report: nested JSON, or the flat eigenvalue CSV with
    columns (index, re, im, modulus, in_disk_union)."""
    if report.spectrum.eigenvalues.size == 0:
        raise ValueError("report has an empty eigenvalue list; the matrix "
                         "dimension is at least one, so this is a bug upstream")
    if format == "json":
        return dumps_json(report_to_mapping(report))
    if format == "csv":
        lines = ["index,re,im,modulus,in_disk_union"]
        for i, (re, im, modulus, inside) in enumerate(_eigenvalue_rows(report.spectrum),
                                                      start=1):
            lines.append(f"{i},{re!r},{im!r},{modulus!r},{'true' if inside else 'false'}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format '{format}' (expected json or csv)")


# --------------------------------------------------------------------------
# SVG plot
# --------------------------------------------------------------------------

SVG_SIZE = 800
SVG_SPAN = 1.2  # plot window is [-SPAN, SPAN]^2


def _svg_x(re: float) -> float:
    return (re + SVG_SPAN) * SVG_SIZE / (2 * SVG_SPAN)


def _svg_y(im: float) -> float:
    return (SVG_SPAN - im) * SVG_SIZE / (2 * SVG_SPAN)


def _svg_r(r: float) -> float:
    return r * SVG_SIZE / (2 * SVG_SPAN)


def emit_svg(report: AnalysisReport) -> str:
    """Static plot: unit circle, one circle per Gershgorin disk (centers on
    the real axis), one cross marker per eigenvalue."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'  <rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
        f'  <line x1="0" y1="{_svg_y(0):.2f}" x2="{SVG_SIZE}" y2="{_svg_y(0):.2f}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'  <line x1="{_svg_x(0):.2f}" y1="0" x2="{_svg_x(0):.2f}" y2="{SVG_SIZE}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'  <circle cx="{_svg_x(0):.2f}" cy="{_svg_y(0):.2f}" r="{_svg_r(1.0):.2f}" '
        'fill="none" stroke="#444444" stroke-width="1.5" stroke-dasharray="6,4"/>',
    ]
    centers, radii = report.spectrum.disks
    for center, radius in zip(centers.tolist(), radii.tolist()):
        parts.append(
            f'  <circle cx="{_svg_x(center):.2f}" cy="{_svg_y(0):.2f}" '
            f'r="{max(_svg_r(radius), 1.0):.2f}" fill="#1f77b4" '
            'fill-opacity="0.08" stroke="#1f77b4" stroke-width="1"/>')
    arm = 6.0
    for lam in report.spectrum.eigenvalues:
        cx, cy = _svg_x(lam.real), _svg_y(lam.imag)
        parts.append(
            f'  <path d="M {cx - arm:.2f} {cy - arm:.2f} L {cx + arm:.2f} {cy + arm:.2f} '
            f'M {cx - arm:.2f} {cy + arm:.2f} L {cx + arm:.2f} {cy - arm:.2f}" '
            'stroke="#d62728" stroke-width="2" fill="none"/>')
    parts.append(
        f'  <text x="16" y="28" font-family="monospace" font-size="16" fill="#222222">'
        f'{report.operator_name}: {report.spectrum.classification}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
