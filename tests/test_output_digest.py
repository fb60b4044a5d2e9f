"""Smoke tests of ``tools/output_diff.py``, which runs every benchmark pool
config through two source trees and shows what an output change changed."""

from __future__ import annotations

import io
import json
import shutil
import sys
import types
import warnings
from pathlib import Path

import pytest

from helpers import output_diff_tool

from pouspec.cli import main
from pouspec.errors import ConfigError
from pouspec.report import (build_operator, emit_report, parse_config, report_to_mapping,
                            run_analyze)
from pouspec.spectra import MAX_DIMENSION

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def output_diff():
    return output_diff_tool()


def test_run_texts_is_repeatable(output_diff, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = '{"version": 1, "operator": "kantorovich", "n": 2}\n'
    code, texts, stdout, stderr = first = output_diff.run_texts(main, config)
    assert code == "0"
    assert None not in texts
    assert stdout.startswith("operator: kantorovich(n=2)") and stderr == ""
    assert output_diff.run_texts(main, config) == first


def test_run_texts_malformed_writes_nothing(output_diff, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, texts, stdout, stderr = output_diff.run_texts(main, '{"operator": "bernstein"}\n')
    assert (code, texts, stdout) == ("2", [None, None, None], "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_run_texts_shows_a_warning_on_every_call(output_diff, tmp_path, monkeypatch):
    # Python's default action shows a warning once per code location and
    # process; each config's stderr must still show its own.
    monkeypatch.chdir(tmp_path)

    def warns(argv):
        warnings.warn("weights overflow", RuntimeWarning)
        return 2

    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.resetwarnings()
        warnings.showwarning = to_stderr  # as outside pytest, which records warnings
        stderrs = [output_diff.run_texts(warns, "{}")[3] for _ in range(2)]
    assert all("RuntimeWarning: weights overflow\n" in stderr for stderr in stderrs)


def test_without_timings_cuts_only_timings(output_diff):
    report = run_analyze(parse_config('{"operator": "kantorovich", "n": 2}'))
    # One flat entry per stage and per check: no map nested in the timings.
    checks = [f"checks.{name}" for name in report.checks]
    assert list(report.timings) == ["build", "checks", *checks, "matrix", "spectrum",
                                    "iterates"]
    text = emit_report(report, "json")
    assert all(f'"{key}": ' in text for key in report.timings)
    expected = report_to_mapping(report)
    del expected["timings"]
    cut = output_diff.without_timings(text)
    assert json.loads(cut) == json.loads(json.dumps(expected))
    # Only the tail is cut: everything before the timings map is untouched.
    assert cut.endswith("\n}\n") and text.startswith(cut[:-len("\n}\n")])
    assert output_diff.without_timings(cut) == cut
    assert "checks." not in cut


def _record(code="0", report=None, stdout="", stderr=""):
    return {"config": "w e", "stratum": "w/s", "exit": code, "json": report,
            "csv": None, "svg": None, "stdout": stdout, "stderr": stderr}


def test_compare_names_transitions_paths_and_lines(output_diff):
    old = {"config": {"tolerances": {"pou": 1e-10, "stochastic": 1e-10}},
           "spectrum": {"classification": "conforms", "eigenvalues": [{"re": 1.0}, {"re": 0.5}]},
           "iterates": {"m_used": 4}}
    new = {"config": {"tolerances": {"pou": 1e-10}},
           "spectrum": {"classification": "violates-theorem",
                        "eigenvalues": [{"re": 1.0}, {"re": 0.4}]},
           "iterates": {"m_used": None}}
    changes = output_diff.compare(_record("0", old, "a\nb\n"), _record("1", new, "a\nc\n"))
    assert changes == {
        "exit": ["exit: 0 -> 1"],
        "classification": ["classification: conforms -> violates-theorem"],
        "config.tolerances.stochastic": ["config.tolerances.stochastic: 1e-10 -> (absent)"],
        "spectrum.classification": ['spectrum.classification: "conforms" -> '
                                    '"violates-theorem"'],
        "spectrum.eigenvalues[].re": ["spectrum.eigenvalues[].re: 0.5 -> 0.4 (rel 2.00e-01)"],
        "iterates.m_used": ["iterates.m_used: 4 -> null"],
        "stdout": ["stdout:", "  -b", "  +c"],
    }
    assert output_diff.compare(_record("0", old), _record("0", old)) == {}
    assert output_diff.compare(_record("0", old), _record("2")) == {
        "exit": ["exit: 0 -> 2"], "classification": ["classification: conforms -> None"],
        "json": ["json: written -> not written"]}


def test_summary_gives_each_numeric_path_its_largest_relative_difference(output_diff, capsys):
    # Two changed configs: the estimate moves by 2 and by 3 ulp of 1.0, the
    # flag only in the second. A path whose values are not numbers keeps
    # its bare count.
    old = {"spectrum": {"classification": "conforms"},
           "checks": {"norm_estimate": {"value": 1.0, "passed": True}}}
    news = [{"spectrum": {"classification": "conforms"},
             "checks": {"norm_estimate": {"value": 1.0 + 4.4e-16, "passed": True}}},
            {"spectrum": {"classification": "conforms"},
             "checks": {"norm_estimate": {"value": 1.0 + 6.7e-16, "passed": False}}}]
    children = [types.SimpleNamespace(stdout=io.StringIO("".join(
        json.dumps(_record("0", report)) + "\n" for report in reports)), wait=lambda: 0)
        for reports in ([old, old], news)]
    assert output_diff._compare_children(children) == 1
    out = capsys.readouterr().out
    assert out.endswith("by key path:\n"
                        "  checks.norm_estimate.passed: 1\n"
                        "  checks.norm_estimate.value: 2 (max rel 6.66e-16)\n")


def test_largest_configs_reach_the_top_dimension(output_diff):
    configs = output_diff.largest_configs()
    assert [c["config"] for c in configs] == [
        "largest bernstein-499", "largest kantorovich-499", "largest hat-dirac-500",
        "largest schoenberg-cubic-500", "largest hat-average-500"]
    names = []
    for config in configs:
        assert config["stratum"] == "largest"
        op = build_operator(parse_config(config["text"]))
        assert op.n == MAX_DIMENSION
        names.append(op.name)
    assert names == ["bernstein(n=499)", "kantorovich(n=499)", "hat-dirac(500)",
                     "schoenberg(deg 3, n=500)", "custom"]


def test_witness_configs_parse(output_diff):
    configs = output_diff.witness_configs()
    assert [c["config"] for c in configs] == [
        "witness bernstein-10-grid-11", "witness kantorovich-49-grid-101",
        "witness kantorovich-99-grid-101", "witness kantorovich-499",
        "witness hat-overlapping-averages"]
    parsed = [parse_config(c["text"]) for c in configs]
    assert {c["stratum"] for c in configs} == {"witness"}
    assert [c.grid_points for c in parsed] == [11, 101, 101, 1001, 1001]


def test_edge_configs_parse_and_the_overflowing_ones_exit_two(output_diff, tmp_path,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs = output_diff.edge_configs()
    assert [c["config"] for c in configs] == [
        "edge quadrature-overflow-2", "edge quadrature-overflow-3", "edge bernstein-underflow"]
    assert {c["stratum"] for c in configs} == {"edge"}
    assert build_operator(parse_config(configs[2]["text"])).n == 3
    messages = []
    for config in configs[:2]:
        assert output_diff.run_texts(main, config["text"])[0] == "2"
        with pytest.raises(ConfigError) as raised:
            build_operator(parse_config(config["text"]))
        messages.append(str(raised.value))
    assert messages == [
        "custom: functional 0 (quad(2 nodes)) is not a nonnegative rule of unit mass "
        "(min weight 1e+308 at node 0.4, |sum w - 1| = inf)",
        "custom: functional 0 (quad(3 nodes)) is not a nonnegative rule of unit mass "
        "(min weight -1e+308 at node 0.6, |sum w - 1| = inf)"]


def test_seed_configs_parse_and_differ_only_in_their_seed(output_diff):
    configs = output_diff.seed_configs()
    assert len(configs) == 300 and {c["stratum"] for c in configs} == {"seed"}
    assert [c["config"] for c in configs[::100]] == [
        "seed bernstein-5 0", "seed kantorovich-7 0", "seed hat-average-12 0"]
    parsed = [parse_config(c["text"]) for c in configs]
    assert [c.seed for c in parsed] == list(range(100)) * 3
    assert [build_operator(c).n for c in parsed[::100]] == [6, 8, 12]
    for start in (0, 100, 200):
        texts = {json.dumps({**json.loads(c["text"]), "seed": 0})
                 for c in configs[start:start + 100]}
        assert len(texts) == 1


def _small_pool(output_diff, monkeypatch):
    """A two-entry stand-in for the benchmark pools, a one-entry stand-in
    for the largest configs and no witness, edge or seed configs."""
    texts = {"kantorovich": '{"operator": "kantorovich", "n": 2}\n',
             "bernstein": '{"operator": "bernstein", "n": 3}\n'}
    workloads = types.ModuleType("perfbench.workloads")
    workloads.WORKLOADS = ("only",)
    workloads.pool = lambda workload: {
        name: types.SimpleNamespace(stratum=name, text=lambda text=text: text)
        for name, text in texts.items()}
    monkeypatch.setitem(sys.modules, "perfbench.workloads", workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))
    swap = ('{"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]}, '
            '"functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}]}\n')
    monkeypatch.setattr(output_diff, "largest_configs", lambda: [
        {"config": "largest swap", "stratum": "largest", "text": swap}])
    monkeypatch.setattr(output_diff, "witness_configs", lambda: [])
    monkeypatch.setattr(output_diff, "edge_configs", lambda: [])
    monkeypatch.setattr(output_diff, "seed_configs", lambda: [])


def test_output_diff_of_a_tree_against_itself_is_identical(output_diff, monkeypatch, capsys):
    _small_pool(output_diff, monkeypatch)
    src = str(ROOT / "src")
    assert output_diff.main([src, src]) == 0
    assert capsys.readouterr().out == "identical (3 configs)\n"


def test_output_diff_names_exactly_a_mutant_changed_paths(output_diff, tmp_path, monkeypatch,
                                                           capsys):
    # A default iterate tolerance far below rounding: the limits found are
    # rejected, and nothing but the iterates moves.
    _small_pool(output_diff, monkeypatch)
    mutant = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "pouspec", mutant / "pouspec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spectra = mutant / "pouspec" / "spectra.py"
    text = spectra.read_text(encoding="utf-8")
    assert "\nITERATE_TOL = 1e-10\n" in text
    spectra.write_text(text.replace("\nITERATE_TOL = 1e-10\n", "\nITERATE_TOL = 1e-20\n"),
                       encoding="utf-8")
    assert output_diff.main([str(ROOT / "src"), str(mutant)]) == 1
    out = capsys.readouterr().out
    summary = out[out.index("\n2 of 3 configs changed\n") + 1:].splitlines()
    # The swap matrix has no limit either way, so none of its output moves.
    assert summary[1:] == [
        "by stratum:", "  only/kantorovich: 1 of 1", "  only/bernstein: 1 of 1",
        "by key path:", "  iterates.converged: 2", "  iterates.message: 2",
        "  iterates.rate: 2", "  stdout: 2"]
    assert out.startswith("only kantorovich\n"
                          "  iterates.converged: true -> false\n"
                          "  iterates.rate: 0.6666666666666667 -> null\n")
