"""Batch analysis pipeline: configuration, full run, and report emission.

A configuration is a single JSON map (schema ``version: 1``) that names one
operator from the catalog (or a custom basis/functional combination) plus
the settings of the verdict: the verification grid, its tolerances and the
seed. The iterate tolerance and the row-sum tolerance of ``verify`` are
constants (``spectra.ITERATE_TOL``, ``spectra.TOL_STOCHASTIC``), and the
output paths are command-line flags. ``run_analyze``
executes the whole pipeline deterministically for a fixed seed: construct
the operator, verify the lemma properties, assemble the collocation matrix,
solve and classify the spectrum, and find the limit of matrix powers.
Reports serialize to JSON (17 significant digits, stable key order), to a
flat eigenvalue CSV, and to a static SVG of the disks and eigenvalues.

Each kind a config can name is one row of a table: ``OPERATORS`` for the
``operator`` field, ``BASES`` and ``FUNCTIONALS`` for a custom operator's
basis and functional specs. A row declares the kind's fields in config
order with their parsers, its constructor, and for operators and bases
its size. Parsing reads the named row's fields (for ``custom`` that reads
its basis and functional specs through their rows), then the grid,
tolerances and seed; only once every value is valid are the config's maps
checked for unknown keys, against the same rows. ``build_operator`` checks
the row's size against ``MAX_DIMENSION`` before anything is built, then
calls the constructor with the parsed fields as keyword arguments. Adding
a kind is adding a row (and its entry in ``cli.CATALOG_TEXT``).

The emitters work on whole arrays, with the same bytes as formatting each
number on its own:

- the collocation matrix goes to the JSON writer as the read-only array. A
  row at least half nonzero is one ``"%.17g"`` template; a sparser row
  writes each ``+0.0`` entry as the literal ``0`` (the text ``"%.17g"``
  gives) and formats the others. ``report_to_mapping`` still returns the
  entries as lists of Python floats.
- a list of maps with one key order and one float, bool or str type per
  key (the eigenvalue rows, the disks, a config's functionals of one kind)
  is one template per map, with one finiteness test per float column.
- the SVG disks and eigenvalue markers are one ``%`` template per element
  kind over the coordinate arrays.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from typing import Any, Callable

import numpy as np

from .bases import (DEFAULT_GRID_POINTS, TOL_POU, check_partition_of_unity,
                    make_bernstein_basis, make_bspline_basis, make_hat_basis)
from .checks import CheckResult
from .errors import ConfigError, UnsupportedSizeError
from .functions import grid
from .functionals import (dirac_functionals, interval_average_functionals, join,
                          quadrature_functionals)
from .operators import (WITNESS_RESIDUAL_TOL, OperatorSpec, bernstein_operator,
                        hat_dirac_operator, kantorovich_operator, kernel_witness_report,
                        schoenberg_operator, verify_constant_reproduction,
                        verify_norm_bound, verify_positivity)
from .spectra import (CLASSIFICATION_CONFORMS, MAX_DIMENSION, TOL_PERIPHERAL,
                      CollocationMatrix, IterateResult, SpectrumReport,
                      build_collocation_matrix, classify_spectrum, eigenvalues,
                      gershgorin_disks, iterate_limit)

SCHEMA_VERSION = 1

#: Largest verification grid. ``run_checks`` evaluates the basis on the grid
#: once and every check reads that one ``n x grid_points`` array; at
#: n = MAX_DIMENSION this bound keeps it near 400 MB.
MAX_GRID_POINTS = 100_001


@dataclass(frozen=True)
class Tolerances:
    pou: float = TOL_POU
    peripheral: float = TOL_PERIPHERAL
    norm: float = WITNESS_RESIDUAL_TOL


@dataclass(frozen=True)
class AnalysisConfig:
    operator: str
    params: dict
    grid_points: int = DEFAULT_GRID_POINTS
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 42
    version: int = SCHEMA_VERSION

    def with_seed(self, seed: int) -> "AnalysisConfig":
        return replace(self, seed=_seed(seed))

    def echo(self) -> dict:
        """Canonical plain mapping; parsing it back yields an equal config."""
        out: dict[str, Any] = {"version": self.version, "operator": self.operator}
        out.update(self.params)
        out["grid_points"] = self.grid_points
        out["tolerances"] = asdict(self.tolerances)
        out["seed"] = self.seed
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


def _is_int(value: Any) -> bool:
    """An int; JSON ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not _is_int(value) or value < 0:
        raise ConfigError(f"config: 'seed' must be an integer >= 0, got {value!r}")
    return value


def _integer_at_least(minimum: int) -> Callable[[dict, str, str], int]:
    """Parser of an integer field that is at least ``minimum``."""
    def parse(data: dict, key: str, context: str) -> int:
        value = _require(data, key, (int,), context)
        if value < minimum:
            raise ConfigError(f"{context}: '{key}' must be an integer >= {minimum}")
        return value
    return parse


def _number(data: dict, key: str, context: str) -> float:
    return float(_require(data, key, (int, float), context))


def _float_list(data: dict, key: str, context: str) -> list[float]:
    value = _require(data, key, (list,), context)
    if not all(_is_number(v) for v in value):
        raise ConfigError(f"{context}: '{key}' must be a list of numbers")
    if not all(_finite(v) for v in value):
        raise ConfigError(f"{context}: '{key}' must hold finite numbers only")
    return [float(v) for v in value]


def _reject_unknown(data: dict, allowed, context: str) -> None:
    """:class:`ConfigError` naming the first key of ``data`` (in sorted
    order) that is not in ``allowed``."""
    unknown = sorted(set(data) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"{context}: unknown field {unknown[0]!r} "
                          f"(expected one of {', '.join(allowed)})")


@dataclass(frozen=True)
class Kind:
    """One operator, basis or functional kind of a config: its fields in
    config order, each with its parser ``(data, key, context) -> value``;
    the constructor, which takes the parsed fields as keyword arguments (a
    functional kind's takes each field as a list over its specs, and
    builds them all in one call); and for operators and bases the size of
    what it builds, read off the parsed fields before anything is
    built."""

    params: dict[str, Callable[[dict, str, str], Any]]
    build: Callable[..., Any]
    size: Callable[[dict], int] | None = None

    def parse(self, data: dict, context: str) -> dict:
        return {name: parse(data, name, context) for name, parse in self.params.items()}

    def construct(self, parsed: dict):
        """What the parsed fields build; other keys of ``parsed`` (a spec's
        ``kind``) are left out."""
        return self.build(**{name: parsed[name] for name in self.params})

    def construct_all(self, specs: list[dict]):
        """What the parsed specs of a functional kind build, in order, in
        one call."""
        return self.build(**{name: [spec[name] for spec in specs] for name in self.params})


def _spec(table: dict[str, Kind], data: dict, context: str) -> dict:
    """A basis or functional spec, parsed: ``kind``, then that kind's fields."""
    kind = _require(data, "kind", (str,), context)
    if kind not in table:
        raise ConfigError(f"{context}: unknown kind '{kind}'")
    return {"kind": kind, **table[kind].parse(data, context)}


def _basis_spec(data: dict, key: str, context: str) -> dict:
    return _spec(BASES, _require(data, key, (dict,), context), "custom basis")


def _functional_specs(data: dict, key: str, context: str) -> list[dict]:
    specs = []
    for index, spec in enumerate(_require(data, key, (list,), context)):
        if not isinstance(spec, dict):
            raise ConfigError(f"functional[{index}]: must be a map")
        specs.append(_spec(FUNCTIONALS, spec, f"functional[{index}]"))
    return specs


def _custom_operator(basis: dict, functionals: list[dict]) -> OperatorSpec:
    """The operator of a parsed basis spec and functional specs, the specs
    of each kind built in one call and joined in config order. An error
    building functional ``i`` is prefixed ``functional[i]: ``; the first
    spec that fails on its own is named, as building them in order would."""
    system = BASES[basis["kind"]].construct(basis)
    by_kind: dict[str, list[int]] = {}
    for index, spec in enumerate(functionals):
        by_kind.setdefault(spec["kind"], []).append(index)
    try:
        parts = [FUNCTIONALS[kind].construct_all([functionals[i] for i in indices])
                 for kind, indices in by_kind.items()]
    except ConfigError:
        for index, spec in enumerate(functionals):
            try:
                FUNCTIONALS[spec["kind"]].construct_all([spec])
            except ConfigError as exc:
                raise ConfigError(f"functional[{index}]: {exc}") from exc
        raise
    return OperatorSpec(system, join(parts, list(chain.from_iterable(by_kind.values()))),
                        name="custom")


#: Basis kinds of a custom operator's ``basis`` spec.
BASES = {
    "bernstein": Kind({"n": _integer_at_least(1)}, make_bernstein_basis,
                      lambda p: p["n"] + 1),
    "bspline": Kind({"knots": _float_list, "degree": _integer_at_least(0)},
                    make_bspline_basis, lambda p: len(p["knots"]) - p["degree"] - 1),
    "hat": Kind({"nodes": _float_list}, make_hat_basis, lambda p: len(p["nodes"])),
}

#: Functional kinds of a custom operator's ``functionals`` specs.
FUNCTIONALS = {
    "dirac": Kind({"x": _number}, dirac_functionals),
    "interval-average": Kind({"a": _number, "b": _number}, interval_average_functionals),
    "weighted-quadrature": Kind({"nodes": _float_list, "weights": _float_list},
                                quadrature_functionals),
}

#: Operator kinds of a config's ``operator`` field. A catalog operator has
#: the size of its basis; a custom one the larger of its basis size and
#: its functional count.
OPERATORS = {
    "bernstein": Kind({"n": _integer_at_least(1)}, bernstein_operator,
                      BASES["bernstein"].size),
    "kantorovich": Kind({"n": _integer_at_least(1)}, kantorovich_operator,
                        BASES["bernstein"].size),
    "schoenberg": Kind({"knots": _float_list, "degree": _integer_at_least(1)},
                       schoenberg_operator, BASES["bspline"].size),
    "hat-dirac": Kind({"nodes": _float_list}, hat_dirac_operator, BASES["hat"].size),
    "custom": Kind({"basis": _basis_spec, "functionals": _functional_specs},
                   _custom_operator,
                   lambda p: max(BASES[p["basis"]["kind"]].size(p["basis"]),
                                 len(p["functionals"]))),
}

def _tolerances(data: dict) -> Tolerances:
    """The ``tolerances`` map of ``data``, each missing tolerance at its
    default. Each is a finite number in (0, 1): one of 1 or more would let
    its check pass without testing anything."""
    section = data.get("tolerances", {})
    if not isinstance(section, dict):
        raise ConfigError("config: 'tolerances' must be a map")
    values = {}
    for setting in fields(Tolerances):
        value = section.get(setting.name, setting.default)
        if not (_is_number(value) and _finite(value) and value > 0):
            raise ConfigError(f"config: tolerance '{setting.name}' must be "
                              "a finite positive number")
        if value >= 1:
            raise ConfigError(f"config: tolerance '{setting.name}' must be below 1, "
                              f"got {value!r}")
        values[setting.name] = float(value)
    return Tolerances(**values)


def config_from_mapping(data: dict) -> AnalysisConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a single top-level map")
    version = data.get("version", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version!r} "
                          f"(this build reads version {SCHEMA_VERSION})")
    kind = _require(data, "operator", (str,), "config")
    if kind not in OPERATORS:
        raise ConfigError(f"unknown operator kind '{kind}' "
                          f"(expected one of {', '.join(OPERATORS)})")
    params = OPERATORS[kind].parse(data, f"operator '{kind}'")
    grid_points = data.get("grid_points", DEFAULT_GRID_POINTS)
    if not _is_int(grid_points) or not 11 <= grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"config: 'grid_points' must be an integer in [11, {MAX_GRID_POINTS}]")
    tolerances = _tolerances(data)
    seed = _seed(data.get("seed", AnalysisConfig.seed))

    # Unknown keys are named only once every value has passed its check.
    common = [f.name for f in fields(AnalysisConfig) if f.name != "params"]
    _reject_unknown(data, [*common, *params], "config")
    _reject_unknown(data.get("tolerances", {}), [f.name for f in fields(Tolerances)],
                    "config: 'tolerances'")
    if kind == "custom":
        _reject_unknown(data["basis"], params["basis"], "custom basis")
        for index, (spec, parsed) in enumerate(zip(data["functionals"],
                                                   params["functionals"])):
            _reject_unknown(spec, parsed, f"functional[{index}]")

    return AnalysisConfig(operator=kind, params=params, grid_points=grid_points,
                          tolerances=tolerances, seed=seed, version=SCHEMA_VERSION)


def parse_config(text: str) -> AnalysisConfig:
    """Parse and validate a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("configuration is not valid JSON: nested too deeply") from exc
    return config_from_mapping(data)


# --------------------------------------------------------------------------
# Operator construction from a config
# --------------------------------------------------------------------------

def build_operator(config: AnalysisConfig) -> OperatorSpec:
    """The configured operator, validated. Its size is checked against
    ``MAX_DIMENSION`` before anything is built or evaluated."""
    kind = OPERATORS[config.operator]
    n = kind.size(config.params)
    if n > MAX_DIMENSION:
        raise UnsupportedSizeError(f"operator '{config.operator}' has dimension {n}; the "
                                   f"dense eigensolver supports n <= {MAX_DIMENSION}")
    return kind.construct(config.params)


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


def run_checks(op: OperatorSpec, config: AnalysisConfig) -> tuple[
        dict[str, CheckResult], dict[str, float]]:
    """The lemma checks of an operator, in report order, seeded from the
    config, and the seconds each check took, keyed ``checks.<name>``. The
    verification grid of ``config.grid_points`` points is built here once
    and the basis evaluated on it once, or not at all on the default grid,
    where the operator keeps the values its construction evaluated; every
    check reads those two arrays."""
    xs = grid(config.grid_points)
    values = op.default_values
    if config.grid_points != DEFAULT_GRID_POINTS:
        values = op.basis.values(xs)
    tol = config.tolerances
    checks = {
        "partition_of_unity": lambda: check_partition_of_unity(values, xs, tol.pou),
        "positivity": lambda: verify_positivity(op, xs, values, tol=tol.norm,
                                                seed=config.seed),
        "constant_reproduction": lambda: verify_constant_reproduction(op, xs, values,
                                                                      tol.norm),
        "norm_estimate": lambda: verify_norm_bound(op, xs, values, seed=config.seed + 1,
                                                   tol=tol.norm),
        "kernel_residual": lambda: kernel_witness_report(op, xs, values),
    }
    results, timings = {}, {}
    for name, check in checks.items():
        t0 = time.perf_counter()
        results[name] = check()
        timings[f"checks.{name}"] = time.perf_counter() - t0
    return results, timings


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
    checks, check_timings = run_checks(op, config)
    timings["checks"] = time.perf_counter() - t0
    timings.update(check_timings)

    t0 = time.perf_counter()
    matrix = build_collocation_matrix(op)
    row_sum_max_dev = float(np.max(np.abs(matrix.entries.sum(axis=1) - 1.0)))
    diag_min = float(np.min(np.diag(matrix.entries)))
    timings["matrix"] = time.perf_counter() - t0
    # The operator holds its basis values on the default grid; the later
    # stages need only its name, so the values are freed before them.
    name = op.name
    del op

    t0 = time.perf_counter()
    disks = gershgorin_disks(matrix)
    try:
        eigs = eigenvalues(matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"operator {name}: eigensolve failed: {exc}") from exc
    spectrum = classify_spectrum(eigs, disks, config.tolerances.peripheral)
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    iterates = iterate_limit(matrix)
    timings["iterates"] = time.perf_counter() - t0

    return AnalysisReport(
        config=config,
        operator_name=name,
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

#: Spaces per nesting level of the JSON report.
JSON_INDENT = 2


def _format_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return "%.17g" % x


def _write_matrix(arr: np.ndarray, level: int, out: list[str]) -> None:
    """Append a 2-D float array with at least one entry as the JSON list of
    its rows at ``level``, each entry as ``"%.17g"`` writes it. A row at
    least half nonzero goes through one template for the whole row. A
    sparser row writes its ``+0.0`` entries as the literal ``0`` (the text
    ``"%.17g"`` gives) and formats only the others, ``-0.0`` among them."""
    finite = np.isfinite(arr)
    if not finite.all():
        _format_number(float(arr.flat[np.argmin(finite)]))  # raises, naming the first
    width = arr.shape[1]
    inner = " " * (JSON_INDENT * (level + 1))
    cell = " " * (JSON_INDENT * (level + 2))
    zero_cell, row_tail = cell + "0,\n", "\n" + inner + "]"
    dense = "[\n" + ((cell + "%.17g,\n") * width)[:-2] + row_tail
    nonzero = (arr != 0.0) | np.signbit(arr)
    counts = np.count_nonzero(nonzero, axis=1)
    sparse = 2 * counts < width
    # Column and text of each formatted entry of the sparse rows, row-major.
    where = np.nonzero(nonzero & sparse[:, None])
    cols = where[1].tolist()
    texts = ["%.17g" % v for v in arr[where].tolist()]
    ends = np.cumsum(counts * sparse).tolist()
    sep = "[\n"
    start = 0
    for k, is_sparse in enumerate(sparse.tolist()):
        out += (sep, inner)
        sep = ",\n"
        if not is_sparse:
            out.append(dense % tuple(arr[k].tolist()))
            continue
        pieces = ["[\n"]
        prev = 0
        for j, text in zip(cols[start:ends[k]], texts[start:ends[k]]):
            pieces += (zero_cell * (j - prev), cell, text, ",\n")
            prev = j + 1
        pieces.append(zero_cell * (width - prev))
        out += ("".join(pieces)[:-2], row_tail)
        start = ends[k]
    out.append("\n" + " " * (JSON_INDENT * level) + "]")


def _records_body(records: list, level: int) -> str | None:
    """The items of a list of maps as JSON at ``level``, through one template
    for every map, when all the maps share one key order and each key one
    value type (finite float, bool or str); ``None`` for any other list."""
    if not all(type(r) is dict for r in records):
        return None
    keys = tuple(records[0])
    if not keys or any(tuple(r) != keys for r in records):
        return None
    fields, columns = [], []
    for key in keys:
        column = [r[key] for r in records]
        kinds = set(map(type, column))
        if kinds == {float}:
            if not math.isfinite(sum(column)):  # a NaN or inf: per-item path and its error
                return None
            fields.append("%.17g")
        elif kinds == {bool}:
            fields.append("%s")
            column = ["true" if v else "false" for v in column]
        elif kinds == {str}:
            fields.append("%s")
            column = [json.dumps(v) for v in column]
        else:
            return None
        columns.append(column)
    pad = " " * (JSON_INDENT * level)
    inner = " " * (JSON_INDENT * (level + 1))
    record = pad + "{\n" + ",\n".join(
        inner + json.dumps(str(k)).replace("%", "%%") + ": " + field
        for k, field in zip(keys, fields)) + "\n" + pad + "}"
    return ",\n".join([record] * len(records)) % tuple(chain.from_iterable(zip(*columns)))


def _write_json(obj: Any, level: int, out: list[str]) -> None:
    """Append the JSON text of ``obj`` at nesting ``level`` to ``out``."""
    if type(obj) is float:  # check values, tolerances, timings: the commonest scalar
        out.append(_format_number(obj))
        return
    pad = " " * (JSON_INDENT * level)
    inner = " " * (JSON_INDENT * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_number(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == float:
        if obj.size:
            _write_matrix(obj, level, out)
        else:
            _write_json(obj.tolist(), level, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            # A list of nodes: one template for the whole list. The sum is
            # finite only when every item is, so a NaN or inf takes the
            # per-item path below and its error.
            body = ",\n".join([inner + "%.17g"] * len(obj)) % tuple(obj)
        else:
            body = _records_body(obj, level + 1)
        if body is not None:
            out += ("[\n", body)
        else:
            sep = "[\n"
            for value in obj:
                out += (sep, inner)
                sep = ",\n"
                _write_json(value, level + 1, out)
        out.append(f"\n{pad}]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n"
        for key, value in obj.items():
            out.append(f"{sep}{inner}{json.dumps(str(key))}: ")
            sep = ",\n"
            _write_json(value, level + 1, out)
        out.append(f"\n{pad}}}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj: Any) -> str:
    """Deterministic JSON with floats at 17 significant digits, indented by
    ``JSON_INDENT`` spaces per level.

    The text is built as one list of pieces and joined once. Every float is
    written as ``"%.17g"`` writes it, whichever path it takes; the paths
    differ in cost only. A list whose items are all finite Python floats
    goes through one template for the whole list; a list of maps with one
    key order and one float, bool or str type per key through one template
    per map (``_records_body``); a 2-D float array is written as the list
    of its rows (``_write_matrix``)."""
    out: list[str] = []
    _write_json(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _eigenvalue_rows(spectrum: SpectrumReport):
    """``(re, im, modulus, in_disk_union)`` of each eigenvalue as Python
    scalars, the modulus read from ``spectrum.moduli``."""
    eigs = spectrum.eigenvalues
    return zip(eigs.real.tolist(), eigs.imag.tolist(), spectrum.moduli.tolist(),
               spectrum.in_disk_union.tolist())


def _report_mapping(report: AnalysisReport, entries: list | np.ndarray) -> dict:
    """The report as a mapping with the documented key paths and
    ``entries`` as ``matrix.entries``."""
    spectrum = report.spectrum
    eig_rows = [{"re": re, "im": im, "modulus": modulus, "in_disk_union": inside}
                for re, im, modulus, inside in _eigenvalue_rows(spectrum)]
    centers, radii = spectrum.disks
    return {
        "config": report.config.echo(),
        "operator": report.operator_name,
        "checks": {name: check.as_dict() for name, check in report.checks.items()},
        "matrix": {
            "entries": entries,
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
            "m_used": None,
            "message": report.iterates.message,
        },
        "timings": dict(report.timings),
    }


def report_to_mapping(report: AnalysisReport) -> dict:
    """Plain mapping mirror of a report with the documented key paths; the
    matrix entries are lists of Python floats."""
    return _report_mapping(report, report.matrix.entries.tolist())


def emit_report(report: AnalysisReport, format: str = "json") -> str:
    """Serialize a report: nested JSON, or the flat eigenvalue CSV with
    columns (index, re, im, modulus, in_disk_union)."""
    if report.spectrum.eigenvalues.size == 0:
        raise ValueError("report has an empty eigenvalue list; the matrix "
                         "dimension is at least one, so this is a bug upstream")
    if format == "json":
        # The matrix goes to the serializer as the array, never as n^2 floats.
        return dumps_json(_report_mapping(report, report.matrix.entries))
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


def _svg_x(re: float | np.ndarray) -> float | np.ndarray:
    return (re + SVG_SPAN) * SVG_SIZE / (2 * SVG_SPAN)


def _svg_y(im: float | np.ndarray) -> float | np.ndarray:
    return (SVG_SPAN - im) * SVG_SIZE / (2 * SVG_SPAN)


def _svg_r(r: float | np.ndarray) -> float | np.ndarray:
    return r * SVG_SIZE / (2 * SVG_SPAN)


def _svg_elements(template: str, *columns: np.ndarray) -> list[str]:
    """One element per row of the ``columns``, each ``template`` filled with
    that row, as one text of lines through a single ``%``; no text for no
    rows."""
    values = np.column_stack(columns)
    if not values.size:
        return []
    return ["\n".join([template] * len(values)) % tuple(values.ravel().tolist())]


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
    parts += _svg_elements(
        f'  <circle cx="%.2f" cy="{_svg_y(0):.2f}" r="%.2f" fill="#1f77b4" '
        'fill-opacity="0.08" stroke="#1f77b4" stroke-width="1"/>',
        _svg_x(centers), np.maximum(_svg_r(radii), 1.0))
    arm = 6.0
    eigs = report.spectrum.eigenvalues
    cx, cy = _svg_x(eigs.real), _svg_y(eigs.imag)
    parts += _svg_elements(
        '  <path d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" '
        'stroke="#d62728" stroke-width="2" fill="none"/>',
        cx - arm, cy - arm, cx + arm, cy + arm, cx - arm, cy + arm, cx + arm, cy - arm)
    parts.append(
        f'  <text x="16" y="28" font-family="monospace" font-size="16" fill="#222222">'
        f'{report.operator_name}: {report.spectrum.classification}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
