"""Configuration parsing, the analysis pipeline, emitters, and the CLI."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import numpy.testing as nptest
import pytest
import scipy.linalg

from helpers import OVERFLOWING_WEIGHT_CONFIGS, dumps_json_oracle, emit_svg_oracle

import pouspec.cli as cli_module
import pouspec.report as report_module
from pouspec.bases import DEFAULT_GRID_POINTS, LOCAL_CROSSOVER, BasisSystem
from pouspec.cli import build_parser, main
from pouspec.errors import ConfigError
from pouspec.report import (MAX_GRID_POINTS, build_operator, config_from_mapping,
                            dumps_json, emit_report, emit_svg, exit_code_for, parse_config,
                            report_to_mapping, run_analyze)
from pouspec.spectra import CollocationMatrix, SpectrumReport

KANT1_CONFIG = '{"version": 1, "operator": "kantorovich", "n": 1, "seed": 42}'

KANT2_CONFIG = '{"version": 1, "operator": "kantorovich", "n": 2, "seed": 42}'

KANT40_CONFIG = '{"version": 1, "operator": "kantorovich", "n": 40, "seed": 42}'


def _hat_average_config(count: int) -> str:
    """Custom operator: hat basis on ``count`` random nodes, one cell
    average per hat over the cells between the node midpoints."""
    gaps = np.random.default_rng(160).uniform(0.5, 1.5, count - 1)
    nodes = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    nodes[-1] = 1.0
    edges = np.concatenate(([0.0], (nodes[:-1] + nodes[1:]) / 2.0, [1.0]))
    return json.dumps({"version": 1, "operator": "custom",
                       "basis": {"kind": "hat", "nodes": nodes.tolist()},
                       "functionals": [{"kind": "interval-average", "a": a, "b": b}
                                       for a, b in zip(edges[:-1].tolist(),
                                                       edges[1:].tolist())]})


HAT_AVERAGE_160_CONFIG = _hat_average_config(160)

#: Child process: the scipy modules loaded after ``import pouspec.cli`` and
#: whether ``mpmath`` is; after analysing every config path of argv but the
#: last, the exit codes and the scipy modules; after analysing the last,
#: its exit code and whether ``scipy.linalg``, ``scipy.sparse.csgraph`` and
#: ``scipy.optimize`` are loaded. One JSON object on stdout.
_SCIPY_MODULES_CHILD = """
import contextlib, io, json, sys
import pouspec.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def analyze(path):
    with contextlib.redirect_stdout(io.StringIO()):
        return pouspec.cli.main(["analyze", "--config", path])

seen = {"import": [scipy_modules(), "mpmath" in sys.modules]}
seen["analyze"] = [[analyze(path) for path in sys.argv[1:-2]], scipy_modules()]
seen["schoenberg-quadratic"] = [analyze(sys.argv[-2]), *(name in sys.modules for name in (
    "scipy.linalg", "scipy.interpolate"))]
seen["hat-average"] = [analyze(sys.argv[-1]), *(name in sys.modules for name in (
    "scipy.linalg", "scipy.sparse.csgraph", "scipy.optimize", "scipy.interpolate"))]
print(json.dumps(seen))
"""

SWAP_CONFIG = json.dumps({
    "version": 1,
    "operator": "custom",
    "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
    "functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}],
    "seed": 42,
})

# Each hat is read at its own node and the next one, cyclically: a complex
# subdominant pair whose modulus np.abs rounds one ulp away from Python's abs.
CYCLIC_NODES = [0.0, 0.25, 0.5, 0.75, 1.0]
CYCLIC_CONFIG = json.dumps({
    "version": 1, "operator": "custom",
    "basis": {"kind": "hat", "nodes": CYCLIC_NODES},
    "functionals": [{"kind": "weighted-quadrature",
                     "nodes": [CYCLIC_NODES[k], CYCLIC_NODES[(k + 1) % 5]],
                     "weights": [0.3, 0.7]} for k in range(5)]})

HAT_DIRAC_300_CONFIG = json.dumps({"operator": "hat-dirac",
                                   "nodes": np.linspace(0.0, 1.0, 300).tolist()})

SCHOENBERG_QUADRATIC_CONFIG = json.dumps({"operator": "schoenberg", "degree": 2,
                                          "knots": [0.0] * 3 + [0.3, 0.6] + [1.0] * 3})

SCHOENBERG_CUBIC_80_CONFIG = json.dumps({
    "operator": "schoenberg", "degree": 3,
    "knots": [0.0] * 4 + np.linspace(0.0, 1.0, 78)[1:-1].tolist() + [1.0] * 4})

#: One config per catalog kind, plus the swap and a custom operator with
#: mixed functional kinds (so config records with mixed keys).
CATALOG_CONFIGS = pytest.mark.parametrize("text", [
    '{"operator": "bernstein", "n": 4}',
    '{"operator": "kantorovich", "n": 3}',
    SCHOENBERG_QUADRATIC_CONFIG,
    '{"operator": "hat-dirac", "nodes": [0, 0.2, 0.7, 1]}',
    _hat_average_config(6),
    SWAP_CONFIG,
    json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0, 0.4, 1]},
                "functionals": [{"kind": "dirac", "x": 0.0},
                                {"kind": "interval-average", "a": 0.2, "b": 0.7},
                                {"kind": "dirac", "x": 1.0}]}),
    HAT_DIRAC_300_CONFIG,
    CYCLIC_CONFIG,
], ids=["bernstein", "kantorovich", "schoenberg", "hat-dirac", "custom",
        "custom-swap", "custom-mixed", "hat-dirac-300", "custom-cyclic"])

#: The three kinds of the large-operator benchmark workload: a tridiagonal,
#: a banded and an identity matrix.
LARGE_OPERATOR_CONFIGS = pytest.mark.parametrize("text", [
    HAT_AVERAGE_160_CONFIG,
    SCHOENBERG_CUBIC_80_CONFIG,
    json.dumps({"operator": "hat-dirac", "nodes": np.concatenate(
        ([0.0], np.sort(np.random.default_rng(300).uniform(0.0, 1.0, 298)), [1.0])).tolist()}),
], ids=["hat-average-160", "schoenberg-cubic-80", "hat-dirac-300-random"])


class TestParseConfig:
    def test_defaults_filled(self):
        config = parse_config('{"operator": "bernstein", "n": 8}')
        assert config.grid_points == 1001
        assert config.seed == 42
        assert config.tolerances.pou == 1e-10
        assert list(config.echo()) == ["version", "operator", "n", "grid_points",
                                       "tolerances", "seed"]
        assert list(config.echo()["tolerances"]) == ["pou", "peripheral", "norm"]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigError, match="'n' must be an integer >= 1"):
            parse_config('{"operator": "kantorovich", "n": 0}')

    def test_hat_dirac_nodes(self):
        config = parse_config('{"operator": "hat-dirac", "nodes": [0, 0.5, 1]}')
        assert config.params["nodes"] == [0.0, 0.5, 1.0]

    def test_unknown_operator_named(self):
        with pytest.raises(ConfigError, match="unknown operator kind 'fourier'"):
            parse_config('{"operator": "fourier"}')

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="missing required field 'n'"):
            parse_config('{"operator": "bernstein"}')

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance 'pou'"):
            parse_config('{"operator": "bernstein", "n": 2, '
                         '"tolerances": {"pou": 0}}')

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{operator: bernstein}")

    def test_rejects_wrong_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config('{"version": 2, "operator": "bernstein", "n": 2}')

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigError, match="grid_points"):
            parse_config('{"operator": "bernstein", "n": 2, "grid_points": 5}')

    def test_round_trip_through_echo(self):
        config = parse_config(SWAP_CONFIG)
        again = config_from_mapping(json.loads(dumps_json(config.echo())))
        assert again == config

    def test_round_trip_schoenberg(self):
        text = ('{"operator": "schoenberg", "degree": 2, '
                '"knots": [0, 0, 0, 0.5, 1, 1, 1], "seed": 7}')
        config = parse_config(text)
        again = config_from_mapping(json.loads(dumps_json(config.echo())))
        assert again == config


class TestRunAnalyze:
    def test_bernstein2_report(self):
        report = run_analyze(parse_config('{"operator": "bernstein", "n": 2}'))
        nptest.assert_allclose(np.sort_complex(report.spectrum.eigenvalues),
                               [0.5, 1.0, 1.0], atol=1e-12)
        assert report.spectrum.classification == "conforms"
        assert report.all_checks_passed
        assert exit_code_for(report) == 0

    def test_swap_report(self):
        report = run_analyze(parse_config(SWAP_CONFIG))
        assert report.spectrum.classification == "violates-theorem"
        assert "zero diagonal" in report.spectrum.diagnostics
        assert any(abs(lam + 1.0) <= 1e-12 for lam in report.spectrum.eigenvalues)
        assert not report.iterates.converged
        assert exit_code_for(report) == 1

    def test_bernstein_diracs_in_the_slack_read_the_ends(self):
        # Diracs within DOMAIN_SLACK outside [0, 1] read the basis at the
        # nearest end, so rows 0 and 3 are unit rows and both end states
        # are closed classes, one per peripheral eigenvalue. Read where the
        # Diracs are, row 0 was [1 + 3e-13, -3e-13, 3e-26, -1e-39], and the
        # iterates found one closed class beside 2 peripheral eigenvalues.
        report = run_analyze(parse_config(json.dumps({
            "operator": "custom", "basis": {"kind": "bernstein", "n": 3},
            "functionals": [{"kind": "dirac", "x": x}
                            for x in (-1e-13, 1 / 3, 2 / 3, 1 + 1e-13)]})))
        assert report.matrix.entries[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert report.matrix.entries[3].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert report.iterates.message.startswith("converged: 2 closed class(es),")
        assert report.spectrum.diagnostics.startswith("2 peripheral eigenvalue(s)")
        assert exit_code_for(report) == 0

    def test_kantorovich1_report_values(self):
        report = run_analyze(parse_config(KANT1_CONFIG))
        nptest.assert_allclose(report.matrix.entries,
                               [[0.75, 0.25], [0.25, 0.75]], atol=1e-13)
        assert report.iterates.converged
        nptest.assert_allclose(report.iterates.limit, 0.5 * np.ones((2, 2)),
                               atol=1e-10)
        assert report.rate == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("grid_points", [1001, 97])
    @pytest.mark.parametrize("n", [5, 60])
    def test_basis_evaluated_once_per_point_set(self, monkeypatch, n, grid_points):
        # One evaluation on the validation grid of the default 1001 points,
        # which the checks reuse when their grid is the default one, one on a
        # verification grid of another size, and one on the block of
        # collocation nodes, whatever n. Every evaluation goes through
        # BasisSystem.local.
        calls = []
        local = BasisSystem.local

        def counted(basis, xs):
            calls.append(np.size(xs))
            return local(basis, xs)

        monkeypatch.setattr(BasisSystem, "local", counted)
        run_analyze(parse_config(
            f'{{"operator": "bernstein", "n": {n}, "grid_points": {grid_points}}}'))
        verification = [] if grid_points == 1001 else [grid_points]
        assert calls == [1001, *verification, n + 1]

    @CATALOG_CONFIGS
    def test_default_grid_basis_evaluated_once(self, monkeypatch, text):
        # Construction evaluates the basis on the default grid, and every
        # check of the default grid reads that local form. Every evaluation
        # goes through BasisSystem.local.
        calls = []
        local = BasisSystem.local

        def counted(basis, xs):
            calls.append(np.size(xs))
            return local(basis, xs)

        monkeypatch.setattr(BasisSystem, "local", counted)
        run_analyze(parse_config(text))
        assert calls.count(DEFAULT_GRID_POINTS) == 1

    @pytest.mark.parametrize("grid_points", [DEFAULT_GRID_POINTS, 2001])
    @LARGE_OPERATOR_CONFIGS
    def test_no_dense_basis_past_the_crossover(self, monkeypatch, text, grid_points):
        # Hat and B-spline bases with LOCAL_CROSSOVER or more functions per
        # nonzero one: the checks read the local form, and the collocation
        # matrix is assembled from it, so the dense values are never formed.
        config = parse_config(text)
        config = dataclasses.replace(config, grid_points=grid_points)
        op = build_operator(config)
        assert op.n >= LOCAL_CROSSOVER * op.basis.width

        def refused(basis, xs):
            raise AssertionError("BasisSystem.values called")

        monkeypatch.setattr(BasisSystem, "values", refused)
        assert set(run_analyze(config).checks) == {
            "partition_of_unity", "positivity", "constant_reproduction", "norm_estimate",
            "kernel_residual"}
        assert op.default_values.dense is None

    @pytest.mark.parametrize("text", [
        '{"operator": "kantorovich", "n": 3, "grid_points": 97}',
        json.dumps({"operator": "schoenberg", "degree": 3, "grid_points": 97,
                    "knots": [0.0] * 4 + [0.3, 0.6] + [1.0] * 4}),
    ], ids=["kantorovich-3", "schoenberg-cubic"])
    def test_config_grid_reaches_every_check(self, monkeypatch, text):
        # The values of these operators' checks are the same on 97 and 1001
        # points, so each check's grid argument is compared, not only results;
        # all five read one local form of the basis on that grid.
        config = parse_config(text)
        expected = np.linspace(0.0, 1.0, 97)
        received = {}
        originals = {}
        for name in ("check_partition_of_unity", "verify_positivity",
                     "verify_constant_reproduction", "verify_norm_bound",
                     "kernel_witness_report"):
            originals[name] = getattr(report_module, name)

            def recording(*args, _name=name, **kwargs):
                received[_name] = args
                return originals[_name](*args, **kwargs)

            monkeypatch.setattr(report_module, name, recording)
        report = run_analyze(config)
        assert set(received) == set(originals)
        shared, pou_grid = received.pop("check_partition_of_unity")[:2]
        nptest.assert_array_equal(pou_grid, expected)
        for name, (_, grid, values, *_) in received.items():
            nptest.assert_array_equal(grid, expected, err_msg=name)
            assert values is shared, name

        op = build_operator(config)
        first, local = op.basis.local(expected)
        nptest.assert_array_equal(shared.first, first)
        nptest.assert_array_equal(shared.values, local)
        values = op.basis.on(expected)
        tol = config.tolerances
        assert report.checks == {
            "partition_of_unity": originals["check_partition_of_unity"](
                values, expected, tol.pou),
            "positivity": originals["verify_positivity"](
                op, expected, values, trials=100, tol=tol.norm, seed=config.seed),
            "constant_reproduction": originals["verify_constant_reproduction"](
                op, expected, values, tol.norm),
            "norm_estimate": originals["verify_norm_bound"](
                op, expected, values, trials=200, seed=config.seed + 1, tol=tol.norm),
            "kernel_residual": originals["kernel_witness_report"](op, expected, values),
        }

    def test_mapping_key_paths(self):
        report = run_analyze(parse_config(KANT1_CONFIG))
        data = report_to_mapping(report)
        for name in ("partition_of_unity", "positivity", "constant_reproduction",
                     "norm_estimate", "kernel_residual"):
            assert "passed" in data["checks"][name]
        assert data["matrix"]["row_sum_max_dev"] <= 1e-12
        assert data["matrix"]["diag_min"] == pytest.approx(0.75)
        assert data["spectrum"]["classification"] == "conforms"
        assert {"re", "im", "modulus", "in_disk_union"} <= set(
            data["spectrum"]["eigenvalues"][0])
        assert data["iterates"]["converged"] is True
        assert data["iterates"]["m_used"] is None
        assert "timings" in data


ALIASED_WITNESS_CONFIGS = pytest.mark.parametrize("text", [
    '{"operator": "bernstein", "n": 10, "grid_points": 11}',
    '{"operator": "kantorovich", "n": 49, "grid_points": 101}',
    '{"operator": "kantorovich", "n": 99, "grid_points": 101}',
    '{"operator": "kantorovich", "n": 499}',
    json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 0.5, 1.0]},
                "functionals": [{"kind": "interval-average", "a": 0.0, "b": 0.6},
                                {"kind": "interval-average", "a": 0.4, "b": 1.0},
                                {"kind": "interval-average", "a": 0.0, "b": 1.0}]}),
], ids=["bernstein-10-grid-11", "kantorovich-49-grid-101", "kantorovich-99-grid-101",
        "kantorovich-499", "hat-overlapping-averages"])


@ALIASED_WITNESS_CONFIGS
def test_kernel_witness_on_aliasing_grids_and_overlapping_cells(text):
    # On these grids a sine that vanishes at every node vanishes at every
    # grid point too, and the last operator's cells overlap: its witness
    # must depend on neither.
    report = run_analyze(parse_config(text))
    check = report.checks["kernel_residual"]
    assert check.passed and check.value == 0.0, check.detail
    assert exit_code_for(report) == 0


@pytest.fixture(scope="module")
def kant1_report():
    return run_analyze(parse_config(KANT1_CONFIG))


class TestEmit:
    def test_json_contains_classification_path(self, kant1_report):
        text = emit_report(kant1_report, "json")
        data = json.loads(text)
        assert data["spectrum"]["classification"] == "conforms"

    def test_json_floats_survive_round_trip(self, kant1_report):
        # 17 significant digits reproduce the binary doubles exactly.
        data = json.loads(emit_report(kant1_report, "json"))
        assert data["matrix"]["entries"] == [list(row) for row in
                                             kant1_report.matrix.entries]
        assert data["matrix"]["entries"][0][0] == pytest.approx(0.75, abs=1e-13)
        for config in (KANT40_CONFIG, HAT_AVERAGE_160_CONFIG):
            report = run_analyze(parse_config(config))
            data = json.loads(emit_report(report, "json"))
            assert data["matrix"]["entries"] == report.matrix.entries.tolist()
            entries = report_to_mapping(report)["matrix"]["entries"]
            assert all(type(x) is float for row in entries for x in row)

    @CATALOG_CONFIGS
    def test_json_layout_matches_json_dumps_oracle(self, text):
        report = run_analyze(parse_config(text))
        mapping = report_to_mapping(report)
        assert dumps_json(mapping) == dumps_json_oracle(mapping)
        assert emit_report(report, "json") == dumps_json_oracle(mapping)

    @LARGE_OPERATOR_CONFIGS
    def test_large_operator_json_matches_json_dumps_oracle(self, text):
        report = run_analyze(parse_config(text))
        assert emit_report(report, "json") == dumps_json_oracle(report_to_mapping(report))

    @pytest.mark.parametrize("entries", [
        [[0.5, -0.0, 0.0, 0.0, 0.0, 0.5],      # exactly half zero, a -0.0 among the rest
         [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],       # all zero
         [0.0, -0.0, 0.0, 0.0, 0.0, 0.0],      # sparse, its one formatted entry -0.0
         [0.0, 0.0, 0.0, 0.0, 1e-300, 5e-324],
         [1.0 / 3.0, 0.1, 0.0, 0.0, 0.0, 0.0],
         [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]],
        [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [-0.0, -0.0, 1.0]],
        [[1.0]], [[0.0]], [[-0.0]],
    ], ids=["sparse-dense-mix-6", "three-by-three", "one", "zero", "minus-zero"])
    def test_matrix_json_matches_json_dumps_oracle(self, kant1_report, entries):
        report = dataclasses.replace(kant1_report, matrix=CollocationMatrix(np.array(entries)))
        mapping = report_to_mapping(report)
        assert mapping["matrix"]["entries"] == entries
        assert all(type(x) is float for row in mapping["matrix"]["entries"] for x in row)
        assert emit_report(report, "json") == dumps_json_oracle(mapping)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
    @pytest.mark.parametrize("entries", [
        lambda x: [[x]],
        lambda x: [[0.0, 0.0, 0.0, x], [1.0, 0.0, 0.0, 0.0]],   # a sparse row
        lambda x: [[0.5, 0.5], [0.25, x]],                      # a dense row
        lambda x: [[0.0, 1.0], [x, -x]],                        # the first one is named
    ], ids=["one", "sparse-row", "dense-row", "two-bad"])
    def test_emit_rejects_non_finite_matrix_entry(self, kant1_report, bad, entries):
        matrix = types.SimpleNamespace(entries=np.array(entries(bad)))
        broken = dataclasses.replace(kant1_report, matrix=matrix)
        with pytest.raises(ValueError,
                           match=rf"^cannot serialize non-finite number {bad!r}$"):
            emit_report(broken, "json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
    def test_emit_rejects_non_finite_eigenvalue_record(self, kant1_report, bad):
        spectrum = kant1_report.spectrum
        moduli = spectrum.moduli.copy()
        moduli[-1] = bad
        broken = dataclasses.replace(
            kant1_report, spectrum=dataclasses.replace(spectrum, moduli=moduli))
        with pytest.raises(ValueError,
                           match=rf"^cannot serialize non-finite number {bad!r}$"):
            emit_report(broken, "json")

    def test_matrix_rows_formatted_without_per_item_calls(self, monkeypatch):
        # The matrix, the config's node list and the eigenvalue and disk
        # records each go through templates; what is formatted one at a time
        # is a fixed set of check values, tolerances, timings and matrix and
        # iterate scalars, the same count at every n. Before the templates:
        # n^2 + 6n + 26, then 5n + 26 with one template per matrix row.
        calls = []
        format_number = report_module._format_number

        def counted(x):
            calls.append(x)
            return format_number(x)

        monkeypatch.setattr(report_module, "_format_number", counted)
        counts = []
        for n in (30, 300):
            report = run_analyze(parse_config(json.dumps(
                {"operator": "hat-dirac", "nodes": np.linspace(0.0, 1.0, n).tolist()})))
            calls.clear()
            emit_report(report, "json")
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 30

    @CATALOG_CONFIGS
    def test_svg_matches_per_element_oracle(self, text):
        report = run_analyze(parse_config(text))
        assert emit_svg(report) == emit_svg_oracle(report)

    def test_csv_leading_row_is_eigenvalue_one(self, kant1_report):
        lines = emit_report(kant1_report, "csv").splitlines()
        assert lines[0] == "index,re,im,modulus,in_disk_union"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
        assert float(first[2]) == 0.0
        assert float(first[3]) == pytest.approx(1.0, abs=1e-10)
        assert first[4] == "true"

    def test_rate_equals_its_printed_modulus(self):
        config = parse_config(CYCLIC_CONFIG)
        data = json.loads(emit_report(run_analyze(config), "json"))
        moduli = [row["modulus"] for row in data["spectrum"]["eigenvalues"]]
        below = [m for m in moduli if m < 1.0 - config.tolerances.peripheral]
        assert data["iterates"]["rate"] == max(below)

    def test_emitted_moduli_are_the_report_moduli(self, kant1_report):
        moduli = kant1_report.spectrum.moduli.tolist()
        rows = json.loads(emit_report(kant1_report, "json"))["spectrum"]["eigenvalues"]
        assert [row["modulus"] for row in rows] == moduli
        csv_rows = emit_report(kant1_report, "csv").splitlines()[1:]
        assert [float(row.split(",")[3]) for row in csv_rows] == moduli

    def test_unknown_format_rejected(self, kant1_report):
        with pytest.raises(ConfigError):
            emit_report(kant1_report, "yaml")

    def test_empty_eigenvalue_list_rejected(self, kant1_report):
        empty_spectrum = SpectrumReport(
            eigenvalues=np.empty(0, dtype=complex),
            moduli=np.empty(0),
            disks=kant1_report.spectrum.disks, subdominant_modulus=0.0,
            in_disk_union=np.empty(0, dtype=bool),
            classification="conforms", diagnostics="")
        broken = dataclasses.replace(kant1_report, spectrum=empty_spectrum)
        with pytest.raises(ValueError, match="empty eigenvalue list"):
            emit_report(broken, "json")

    def test_svg_structure(self, kant1_report):
        svg = emit_svg(kant1_report)
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 800"' in svg
        assert svg.count("<circle") == 3  # unit circle + two disks
        assert svg.count("<path") == 2    # two eigenvalue markers

    def test_svg_swap_marker_at_minus_one(self):
        svg = emit_svg(run_analyze(parse_config(SWAP_CONFIG)))
        # Real axis maps [-1.2, 1.2] to [0, 800]; -1 lands at x = 66.67.
        assert "M 60.67" in svg

    def test_dumps_json_17_digits(self):
        text = dumps_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text


SERIALIZER_EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 1e17,
                          0.1, 1.0 / 3.0, 1e300)


def _random_finite_doubles(count: int, seed: int) -> list[float]:
    """``count`` finite doubles from uniformly random 64-bit patterns."""
    rng = np.random.default_rng(seed)
    values = np.frombuffer(rng.bytes(8 * (count + count // 100)), dtype=np.float64)
    finite = values[np.isfinite(values)][:count]
    assert finite.size == count
    return finite.tolist()


def _dumped_items(items: list) -> list[str]:
    """The item lines of ``dumps_json`` of a flat list."""
    return [line.strip().rstrip(",") for line in dumps_json(items).splitlines()[1:-1]]


class TestSerializer:
    @pytest.mark.parametrize("value", SERIALIZER_EDGE_VALUES, ids=repr)
    def test_edge_values_match_17g_and_round_trip(self, value):
        line = dumps_json(value).rstrip("\n")
        assert line == format(value, ".17g")
        assert float(line) == value
        assert float(line).hex() == value.hex()

    def test_random_bit_patterns_match_17g_and_round_trip(self):
        values = _random_finite_doubles(10_000, seed=20140)
        lines = _dumped_items(values)
        assert lines == [format(v, ".17g") for v in values]
        assert [float(line).hex() for line in lines] == [v.hex() for v in values]

    def test_other_number_types_keep_their_text(self):
        items = [np.float64(0.1), np.float32(0.1), 2 ** 53 + 1, np.int64(-3), True, False]
        assert _dumped_items(items) == ["0.10000000000000001", "0.10000000149011612",
                                        "9007199254740993", "-3", "true", "false"]

    def test_mixed_float_and_float64_row_keeps_its_text(self):
        items = [0.1, np.float64(0.1), 1.0 / 3.0, np.float64(1.0 / 3.0), -0.0]
        assert _dumped_items(items) == ["0.10000000000000001", "0.10000000000000001",
                                        "0.33333333333333331", "0.33333333333333331",
                                        "-0"]

    @pytest.mark.parametrize("obj", [
        [], [[]], {"a": [], "b": {}}, [[], [0.5]],
        [0.5], [[0.5]], {"row": [0.25]},
        [-0.0, 5e-324, 1e300], [[1.0, -0.0], [5e-324, 1e300], [0.1, 1.0 / 3.0]],
        [[0.5, np.float64(0.25), 1, True], [np.float64(0.1), 0.1],
         [2 ** 53 + 1, 0.5], [False, 0.5], [np.float32(0.1), np.int64(-3), 0.5]],
        {"m": {"entries": [[0.75, 0.25], [0.25, 0.75]], "dev": 0.0},
         "rows": [{"re": 1.0, "ok": True, "note": "x"}], "n": None},
        [{"re": 0.5, "ok": True, "note": 'a"%s\u00e9'}, {"re": -0.0, "ok": False, "note": ""},
         {"re": 5e-324, "ok": True, "note": "%%"}],
        {"rows": [{"100%": 0.5, "%s": "b"}, {"100%": 1e300, "%s": "c"}]},
        [{"a": 0.5}, {"b": 0.5}],
        [{"a": 0.5, "b": 1.0}, {"b": 0.5, "a": 1.0}],
        [{"a": 0.5}, {"a": 1}], [{"a": 0.5}, {"a": np.float64(0.5)}], [{"a": True}, {"a": 1.0}],
        [{"a": 1e308, "b": True}, {"a": 1e308, "b": False}],
        [{"nodes": [0.5], "k": "x"}, {"nodes": [0.25], "k": "y"}],
        [{}, {}], [{"a": None}, {"a": None}], [{"a": 0.5}, 0.5], [0.5, {"a": 0.5}],
    ], ids=["empty", "empty-row", "empty-containers", "empty-and-one", "one-item",
            "one-item-row", "one-item-in-dict", "edge-row", "edge-matrix", "mixed-rows",
            "report-shape", "records", "records-percent-keys", "records-mixed-keys",
            "records-key-order", "records-float-and-int", "records-float-and-float64",
            "records-bool-and-float", "records-sum-overflows", "records-list-column",
            "records-empty", "records-null", "record-then-float", "float-then-record"])
    def test_layout_matches_json_dumps_oracle(self, obj):
        assert dumps_json(obj) == dumps_json_oracle(obj)

    @pytest.mark.parametrize("arr", [
        np.empty((0, 3)), np.empty((2, 0)), np.eye(5), -np.eye(3), np.eye(4)[::-1].T,
        np.array([[0.0, -0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0], [1e-300, 0.0, 0.0, 0.0]]),
        np.where(np.random.default_rng(7).uniform(size=(9, 7)) < 0.6, 0.0,
                 np.random.default_rng(8).standard_normal((9, 7))),
    ], ids=["no-rows", "no-columns", "identity", "minus-identity", "strided",
            "mixed", "random-sparse"])
    def test_float_matrix_written_as_its_rows(self, arr):
        assert dumps_json({"m": arr}) == dumps_json_oracle({"m": arr.tolist()})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
    @pytest.mark.parametrize("place", [
        lambda x: x,
        lambda x: [x, 0.5, 0.25],
        lambda x: [0.5, x, 0.25],
        lambda x: [0.5, 0.25, x],
        lambda x: {"matrix": {"entries": [[0.5, 0.5], [0.25, x]]}},
        lambda x: np.float64(x),
        lambda x: [0.5, x, float("-inf") if math.isnan(x) else float("nan")],
        lambda x: [0.5] * 299 + [x],
        lambda x: [{"re": 0.5, "ok": True}, {"re": x, "ok": False}],
        lambda x: {"rows": [{"a": 0.5, "b": x},
                            {"a": float("-inf") if math.isnan(x) else float("nan"), "b": 0.5}]},
    ], ids=["scalar", "list-first", "list-middle", "list-last", "nested-matrix", "float64",
            "row-two-bad", "row-300-last", "record-last", "record-first-named"])
    def test_non_finite_rejected(self, bad, place):
        with pytest.raises(ValueError,
                           match=rf"^cannot serialize non-finite number {bad!r}$"):
            dumps_json(place(bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_emit_rejects_non_finite_check_value(self, kant1_report, bad):
        checks = dict(kant1_report.checks)
        checks["positivity"] = dataclasses.replace(checks["positivity"], value=bad)
        broken = dataclasses.replace(kant1_report, checks=checks)
        with pytest.raises(ValueError,
                           match=rf"^cannot serialize non-finite number {bad!r}$"):
            emit_report(broken, "json")


class TestDeterminism:
    def test_identical_runs_identical_json(self):
        config = parse_config(KANT1_CONFIG)
        first = report_to_mapping(run_analyze(config))
        second = report_to_mapping(run_analyze(config))
        first.pop("timings")
        second.pop("timings")
        assert dumps_json(first) == dumps_json(second)

    def test_seed_changes_norm_samples_not_conclusions(self):
        base = parse_config(KANT1_CONFIG)
        report_a = run_analyze(base)
        report_b = run_analyze(base.with_seed(7))
        assert report_a.spectrum.classification == report_b.spectrum.classification
        nptest.assert_allclose(report_a.matrix.entries, report_b.matrix.entries)


def _hat_custom(functionals: list) -> str:
    """A custom operator on the two-hat basis over [0, 1]."""
    return json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
                       "functionals": functionals})


class TestCli:
    def test_analyze_writes_outputs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        out_json = tmp_path / "out.json"
        out_csv = tmp_path / "out.csv"
        out_svg = tmp_path / "out.svg"
        code = main(["analyze", "--config", str(config), "--json", str(out_json),
                     "--csv", str(out_csv), "--svg", str(out_svg)])
        assert code == 0
        assert json.loads(out_json.read_text())["spectrum"]["classification"] == "conforms"
        assert out_csv.read_text().startswith("index,")
        assert out_svg.read_text().startswith("<svg")
        assert "classification: conforms" in capsys.readouterr().out

    def test_swap_exits_one(self, tmp_path):
        config = tmp_path / "swap.json"
        config.write_text(SWAP_CONFIG, encoding="utf-8")
        assert main(["analyze", "--config", str(config)]) == 1

    def test_missing_file_exits_two(self):
        assert main(["analyze", "--config", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("text, named, command", [
        *((text, named, ["analyze"]) for text, named in [
            ('{"operator": "kantorovich", "n": 0}', "'n'"),
            ('{"operator": "kantorovich", "n": 2, "tolerances": {"peripheral": NaN}}',
             "tolerance 'peripheral'"),
            ('{"operator": "kantorovich", "n": 2, "tolerances": {"norm": Infinity}}',
             "tolerance 'norm'"),
            ('{"operator": "kantorovich", "n": 2, "tolerances": {"pou": NaN}}',
             "config: tolerance 'pou' must be a finite positive number"),
            ('{"operator": "bernstein", "n": 3, "tolerances": {"pou": 1e300}}',
             "config: tolerance 'pou' must be below 1, got 1e+300"),
            ('{"operator": "bernstein", "n": 3, "tolerances": {"peripheral": 1.5}}',
             "config: tolerance 'peripheral' must be below 1, got 1.5"),
            ('{"operator": "bernstein", "n": 3, "tolerances": {"norm": 1.0}}',
             "config: tolerance 'norm' must be below 1, got 1.0"),
            (json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
                         "functionals": [{"kind": "dirac", "x": 1.5},
                                         {"kind": "dirac", "x": 0.0}]}),
             "functional 0 (dirac(1.5)): x=1.5 outside domain"),
            (_hat_custom([{"kind": "dirac", "x": float("nan")}, {"kind": "dirac", "x": 0.0}]),
             "functional[0]: 'x' must be a finite number"),
            (_hat_custom([{"kind": "interval-average", "a": 0.0, "b": float("inf")},
                          {"kind": "dirac", "x": 0.0}]),
             "functional[0]: 'b' must be a finite number"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "weighted-quadrature", "nodes": [0.5, float("nan")],
                           "weights": [0.5, 0.5]}]),
             "functional[1]: 'nodes' must hold finite numbers only"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "weighted-quadrature", "nodes": [0.5, 0.6],
                           "weights": [float("inf"), 0.5]}]),
             "functional[1]: 'weights' must hold finite numbers only"),
            ('{"operator": "schoenberg", "degree": 1, "knots": [0, 0, NaN, 1, 1]}',
             "'knots' must hold finite numbers only"),
            ('{"operator": "schoenberg", "degree": 1, "knots": [0, 0, 1, 2, 2]}',
             "knot vector must span [0.0, 1.0] exactly, got [0.0, 2.0]"),
            (json.dumps({"operator": "custom",
                         "basis": {"kind": "bspline", "degree": 0, "knots": [-1.0, 0.5, 1.0]},
                         "functionals": [{"kind": "dirac", "x": 0.0},
                                         {"kind": "dirac", "x": 1.0}]}),
             "knot vector must span [0.0, 1.0] exactly, got [-1.0, 1.0]"),
            ('{"operator": "schoenberg", "degree": 2, '
             '"knots": [0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1]}',
             "knot 0.5 is repeated 4 times, more than degree + 1 = 3: "
             "B-spline 3 has empty support"),
            # De Boor's recurrence would overflow on knots this close.
            ('{"operator": "schoenberg", "degree": 1, "knots": [0, 0, 5e-324, 1, 1]}',
             "knots 0.0 and 5e-324 are too close: the reciprocal of their spacing overflows"),
            (json.dumps({"operator": "custom",
                         "basis": {"kind": "bspline", "degree": 1, "knots": [0, 0, 0.5, 1, 1, 1]},
                         "functionals": [{"kind": "dirac", "x": x}
                                         for x in (0.0, 0.5, 1.0, 1.0)]}),
             "knot 1.0 is repeated 3 times, more than degree + 1 = 2: "
             "B-spline 3 has empty support"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "weighted-quadrature", "nodes": [0.5, 0.5000001],
                           "weights": [1.2, -0.2]}]),
             "min weight -0.2 at node 0.5000001"),
            ('{"operator": "bernstein", "n": 3, "seed": -5}',
             "'seed' must be an integer >= 0, got -5"),
            ('{"operator": "kantorovich", "n": 2, "tolerances": {"pou": true}}',
             "tolerance 'pou' must be a finite positive number"),
            (_hat_custom([{"kind": "dirac", "x": True}, {"kind": "dirac", "x": 0.0}]),
             "functional[0]: field 'x' has invalid type bool"),
            (_hat_custom([{"kind": "dirac", "x": 10**400}, {"kind": "dirac", "x": 0.0}]),
             "functional[0]: 'x' must be a finite number"),
            (json.dumps({"operator": "hat-dirac", "nodes": [0, 10**400, 1]}),
             "'nodes' must hold finite numbers only"),
            ('{"operator": "hat-dirac", "nodes": [0, "0.5", 1]}',
             "'nodes' must be a list of numbers"),
            ('{"operator": "hat-dirac", "nodes": [0, 5e-324, 1]}',
             "hat basis nodes 0.0 and 5e-324 are too close"),
            (json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0, 5e-324, 1]},
                         "functionals": [{"kind": "dirac", "x": x} for x in (0.0, 0.5, 1.0)]}),
             "hat basis nodes 0.0 and 5e-324 are too close"),
            ('{"version": true, "operator": "kantorovich", "n": 2}',
             "unsupported config version True"),
            (json.dumps({"operator": "kantorovich", "n": 2,
                         "tolerances": {"peripheral": 10**4000}}),
             "config: tolerance 'peripheral' must be a finite positive number"),
            ('{"operator": "kantorovich", "n": 2, "iterate": {"m_max": 64}}',
             "config: unknown field 'iterate' (expected one of operator, grid_points, "
             "tolerances, seed, version, n)"),
            ('{"operator": "bernstein", "n": 3, "grid_point": 11, "tolerence": {"pou": 1e-9}}',
             "config: unknown field 'grid_point'"),
            ('{"operator": "bernstein", "n": 3, "degree": 2}',
             "config: unknown field 'degree'"),
            ('{"operator": "bernstein", "n": 3, "tolerances": {"pu": 1e-9}}',
             "config: 'tolerances': unknown field 'pu'"),
            ('{"operator": "bernstein", "n": 3, "tolerances": {"stochastic": 1e-10}}',
             "config: 'tolerances': unknown field 'stochastic' "
             "(expected one of pou, peripheral, norm)"),
            ('{"operator": "bernstein", "n": 3, "iterate": {"mmax": 8}}',
             "config: unknown field 'iterate'"),
            ('{"operator": "bernstein", "n": 3, "outputs": {"jsn": true}}',
             "config: unknown field 'outputs'"),
            (_hat_custom([{"kind": "dirac", "x": 0.0, "a": 0.0}, {"kind": "dirac", "x": 1.0}]),
             "functional[0]: unknown field 'a'"),
            (json.dumps({"operator": "custom",
                         "basis": {"kind": "hat", "nodes": [0.0, 1.0], "n": 1},
                         "functionals": [{"kind": "dirac", "x": 0.0},
                                         {"kind": "dirac", "x": 1.0}]}),
             "custom basis: unknown field 'n'"),
            ('{"version": 1.0, "operator": "bernstein", "n": 3}',
             "unsupported config version 1.0"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "weighted-quadrature", "nodes": [0.5, 1.0],
                           "weights": [1.0]}]),
             "functional[1]: functional nodes and weights differ in length"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "weighted-quadrature", "nodes": [], "weights": []}]),
             "functional[1]: functional needs at least one node"),
            (_hat_custom([{"kind": "dirac", "x": 0.0},
                          {"kind": "interval-average", "a": 0.5, "b": 0.2}]),
             "functional[1]: interval average requires a < b, got [0.5, 0.2]"),
            (b'\xff\xfe{"operator": "bernstein", "n": 3}',
             "configuration is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"),
            ("[" * 100_000, "configuration is not valid JSON: nested too deeply"),
            # The whole line: a numpy warning of the overflowing sum would
            # add lines (and the suite raises it as an error).
            *((text, stderr.removeprefix("error: "))
              for text, stderr in OVERFLOWING_WEIGHT_CONFIGS.values()),
        ]),
        (KANT1_CONFIG, "'seed' must be an integer >= 0, got -1", ["verify", "--seed", "-1"]),
    ], ids=["n-zero", "nan-tolerance", "infinite-norm-tolerance", "nan-pou-tolerance",
            "pou-tolerance-above-one", "peripheral-tolerance-above-one", "norm-tolerance-one",
            "dirac-outside-domain", "nan-dirac", "infinite-interval-bound",
            "nan-quadrature-node", "infinite-quadrature-weight", "nan-knot",
            "knots-past-one", "custom-knots-below-zero", "inner-knot-empty-support",
            "knot-spacing-overflow", "end-knot-empty-support", "negative-quadrature-weight",
            "negative-seed", "boolean-tolerance", "boolean-dirac", "huge-integer-dirac",
            "huge-integer-node", "string-node", "hat-slope-overflow",
            "custom-hat-slope-overflow", "boolean-version", "huge-integer-tolerance",
            "removed-m-max", "unknown-top-level-key", "other-kind-parameter", "unknown-tolerance",
            "removed-stochastic-tolerance", "unknown-iterate-key", "unknown-output-flag",
            "dirac-with-a", "hat-basis-with-n", "float-version", "quadrature-lengths-differ", "empty-quadrature",
            "average-a-above-b", "not-utf8", "nested-too-deeply",
            *(f"overflowing-weights-{name}" for name in OVERFLOWING_WEIGHT_CONFIGS),
            "negative-seed-override"])
    def test_bad_config_exits_two(self, tmp_path, capsys, text, named, command):
        config = tmp_path / "bad.json"
        if isinstance(text, bytes):
            config.write_bytes(text)
        else:
            config.write_text(text, encoding="utf-8")
        assert main([*command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, named", [
        ('{"operator": "bernstein", "n": 500}', "dimension 501"),
        (json.dumps({"operator": "hat-dirac",
                     "nodes": np.linspace(0.0, 1.0, 1000).tolist()}), "dimension 1000"),
        ('{"operator": "kantorovich", "n": 2, "grid_points": 100002}',
         "'grid_points' must be an integer in [11, 100001]"),
        (json.dumps({"operator": "custom", "basis": {"kind": "bernstein", "n": 2000},
                     "functionals": [{"kind": "dirac", "x": 0.0},
                                     {"kind": "dirac", "x": 1.0}]}),
         "operator 'custom' has dimension 2001"),
    ], ids=["bernstein-501", "hat-dirac-1000", "grid-points-100002",
            "custom-bernstein-2000"])
    def test_size_limits_checked_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                 text, named):
        def never(*_args, **_kwargs):
            raise AssertionError("work started on an oversized config")

        monkeypatch.setattr("pouspec.report.run_checks", never)
        monkeypatch.setattr(BasisSystem, "__post_init__", never)
        monkeypatch.setattr(BasisSystem, "values", never)
        config = tmp_path / "big.json"
        config.write_text(text, encoding="utf-8")
        assert main(["analyze", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eigensolve_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # Kantorovich n = 2 has a full 3x3 matrix, so it reaches geev.
        def fail(_a):
            raise np.linalg.LinAlgError("geev did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        config = tmp_path / "config.json"
        config.write_text(KANT2_CONFIG, encoding="utf-8")
        json_path = tmp_path / "report.json"
        assert main(["analyze", "--config", str(config), "--json", str(json_path)]) == 1
        assert capsys.readouterr().err == ("error: operator kantorovich(n=2): eigensolve "
                                           "failed: geev did not converge\n")
        assert not json_path.exists()

    def test_tridiagonal_eigensolve_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # Kantorovich n = 1 has a symmetric 2x2 matrix, so it reaches the
        # symmetric tridiagonal solver.
        def fail(_d, _e):
            raise np.linalg.LinAlgError("stemr did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", fail)
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        json_path = tmp_path / "report.json"
        assert main(["analyze", "--config", str(config), "--json", str(json_path)]) == 1
        assert capsys.readouterr().err == ("error: operator kantorovich(n=1): eigensolve "
                                           "failed: stemr did not converge\n")
        assert not json_path.exists()

    def test_catalog_lists_kinds(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for kind in ("bernstein", "kantorovich", "schoenberg", "hat-dirac", "custom"):
            assert kind in out

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        assert main(["catalog"]) == 0 and main(["catalog"]) == 0
        assert built == []
        args = build_parser().parse_args(["verify", "--config", "c.json", "--seed", "3"])
        assert args == cli_module.PARSER.parse_args(["verify", "--config", "c.json",
                                                      "--seed", "3"])

    def test_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        # A Bernstein (reachability of the support), a Kantorovich (positive
        # band, dense spectrum), a hat-Dirac config (diagonal), a cubic
        # Schoenberg (banded) and cubic B-splines read by interval averages
        # (dense) need no scipy; a quadratic Schoenberg and a hat average
        # need scipy.linalg's tridiagonal solver, and B-splines never need
        # scipy.interpolate.
        bspline_averages = json.dumps({
            "operator": "custom",
            "basis": {"kind": "bspline", "degree": 3, "knots": [0.0] * 4 + [0.4] + [1.0] * 4},
            "functionals": [{"kind": "interval-average", "a": a, "b": a + 0.2}
                            for a in (0.0, 0.2, 0.4, 0.6, 0.8)]})
        paths = []
        for name, text in [("bernstein", '{"operator": "bernstein", "n": 4}'),
                           ("kantorovich", KANT2_CONFIG), ("hat-dirac", HAT_DIRAC_300_CONFIG),
                           ("schoenberg-cubic", SCHOENBERG_CUBIC_80_CONFIG),
                           ("bspline-averages", bspline_averages),
                           ("schoenberg-quadratic", SCHOENBERG_QUADRATIC_CONFIG),
                           ("hat-average", HAT_AVERAGE_160_CONFIG)]:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(text, encoding="utf-8")
        src = Path(cli_module.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", _SCIPY_MODULES_CHILD, *map(str, paths)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout) == {
            "import": [[], False], "analyze": [[0, 0, 0, 0, 0], []],
            "schoenberg-quadratic": [0, True, False],
            "hat-average": [0, True, False, False, False]}

    def test_verify_checks_only(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        assert main(["verify", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "row_stochastic" in out
        assert "eigenvalue" not in out

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_one_cell_off_the_origin_has_a_witness(self, tmp_path, capsys, command):
        # One interval average on [0.25, 0.75]: grid points left of the only
        # cell lie before every node, where the witness must be defined too.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "operator": "custom", "basis": {"kind": "bspline", "knots": [0, 1], "degree": 0},
            "functionals": [{"kind": "interval-average", "a": 0.25, "b": 0.75}]}),
            encoding="utf-8")
        assert main([command, "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert "  kernel_residual: pass" in out
        assert err == ""

    def test_oracle_cross_check(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 0
        assert "max matched distance" in capsys.readouterr().out

    def test_oracle_labels_align(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["  LAPACK eigenvalues: 1+0j, 0.5+0j",
                              "  oracle eigenvalues: 1+0j, 0.5+0j"]

    def test_oracle_one_by_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "operator": "custom", "basis": {"kind": "bspline", "knots": [0, 1], "degree": 0},
            "functionals": [{"kind": "dirac", "x": 0.5}]}), encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["  LAPACK eigenvalues: 1+0j", "  oracle eigenvalues: 1+0j"]

    def test_oracle_resolves_double_eigenvalue(self, tmp_path, capsys):
        # Bernstein n = 4 has the eigenvalue 1 twice.
        config = tmp_path / "config.json"
        config.write_text('{"operator": "bernstein", "n": 4}', encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 0
        line = capsys.readouterr().out.splitlines()[3]
        assert line.startswith("  max matched distance: ")
        assert float(line.split()[3]) <= 1e-14

    def test_oracle_largest_size(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"operator": "hat-dirac",
                                      "nodes": np.linspace(0.0, 1.0, 30).tolist()}),
                          encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 0
        assert "(n = 30)" in capsys.readouterr().out

    def test_oracle_oversize_exits_two(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"operator": "bernstein", "n": 30}', encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 2

    def test_oracle_checks_size_before_assembly(self, tmp_path, capsys, monkeypatch):
        def never(_op):
            raise AssertionError("collocation matrix assembled for an oversized oracle")

        monkeypatch.setattr("pouspec.cli.build_collocation_matrix", never)
        config = tmp_path / "config.json"
        config.write_text('{"operator": "kantorovich", "n": 30}', encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 2
        assert capsys.readouterr().err == ("error: oracle cross-check supports matrices "
                                           "up to 30x30, got 31x31\n")

    @pytest.mark.parametrize("text, size", [
        ('{"operator": "bernstein", "n": 499}', 500),
        ('{"operator": "kantorovich", "n": 30}', 31),
        (json.dumps({"operator": "hat-dirac", "nodes": np.linspace(0.0, 1.0, 31).tolist()}), 31),
    ], ids=["bernstein-499", "kantorovich-30", "hat-dirac-31"])
    def test_oracle_checks_size_before_building(self, tmp_path, capsys, monkeypatch,
                                                text, size):
        def never(*_args, **_kwargs):
            raise AssertionError("work started on an oversized oracle")

        monkeypatch.setattr("pouspec.cli.build_operator", never)
        monkeypatch.setattr(BasisSystem, "__post_init__", never)
        monkeypatch.setattr(BasisSystem, "values", never)
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert main(["oracle", "--config", str(config)]) == 2
        assert capsys.readouterr().err == ("error: oracle cross-check supports matrices "
                                           f"up to 30x30, got {size}x{size}\n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_report_value_exits_one(self, tmp_path, capsys, monkeypatch, bad):
        def broken(config):
            report = run_analyze(config)
            check = dataclasses.replace(report.checks["positivity"], value=bad)
            return dataclasses.replace(report, checks={**report.checks, "positivity": check})

        monkeypatch.setattr("pouspec.cli.run_analyze", broken)
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        paths = [tmp_path / name for name in ("r.json", "r.csv", "r.svg")]
        argv = ["analyze", "--config", str(config)]
        for flag, path in zip(("--json", "--csv", "--svg"), paths):
            argv += [flag, str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: operator kantorovich(n=1): emit failed: "
                                           f"cannot serialize non-finite number {bad!r}\n")
        assert not any(path.exists() for path in paths)

    def test_seed_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(KANT1_CONFIG, encoding="utf-8")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["analyze", "--config", str(config), "--json", str(out_a),
                     "--seed", "99"]) == 0
        assert main(["analyze", "--config", str(config), "--json", str(out_b),
                     "--seed", "99"]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["config"]["seed"] == 99
        a.pop("timings"); b.pop("timings")
        assert a == b


#: Child process: runs ``python -m pouspec`` with its argv as its only child
#: and prints that child's exit code and peak RSS (``ru_maxrss``, KB on
#: Linux) as one JSON list.
_PEAK_RSS_CHILD = """
import json, resource, subprocess, sys
code = subprocess.run([sys.executable, "-m", "pouspec", *sys.argv[1:]],
                      stdout=subprocess.DEVNULL).returncode
print(json.dumps([code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))
"""

#: The largest hat and cubic B-spline operators on the largest grid.
LARGEST_GRID_CONFIGS = {
    "hat-dirac-500": {"operator": "hat-dirac", "nodes": np.linspace(0.0, 1.0, 500).tolist(),
                      "grid_points": MAX_GRID_POINTS},
    "schoenberg-cubic-500": {"operator": "schoenberg", "degree": 3,
                             "knots": [0.0] * 3 + np.linspace(0.0, 1.0, 498).tolist()
                             + [1.0] * 3,
                             "grid_points": MAX_GRID_POINTS},
}


class TestLargestGrid:
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("name", LARGEST_GRID_CONFIGS)
    def test_peak_memory(self, tmp_path, name, command):
        # 500 functions on 100001 points: their dense values alone take
        # 400 MB, and an analysis that read them peaked at 427 MB (hats) and
        # 430 MB (cubic B-splines). The local form takes 2.4 MB.
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(LARGEST_GRID_CONFIGS[name]), encoding="utf-8")
        assert build_operator(parse_config(config.read_text())).n == 500
        src = Path(cli_module.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src),
                   **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
        run = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, command,
                              "--config", str(config)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, "")
        code, peak_kb = json.loads(run.stdout)
        assert code == 0
        assert peak_kb < 150 * 1024
