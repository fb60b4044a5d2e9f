"""Smoke tests of ``tools/output_diff.py``, which runs every benchmark pool
config through two source trees and shows what an output change changed."""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
import types
from pathlib import Path

import pytest

from pouspec.cli import main
from pouspec.report import emit_report, parse_config, report_to_mapping, run_analyze

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "tools" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_without_timings_cuts_only_timings(output_diff):
    report = run_analyze(parse_config('{"operator": "kantorovich", "n": 2}'))
    text = emit_report(report, "json")
    expected = report_to_mapping(report)
    del expected["timings"]
    cut = output_diff.without_timings(text)
    assert json.loads(cut) == json.loads(json.dumps(expected))
    # Only the tail is cut: everything before the timings map is untouched.
    assert cut.endswith("\n}\n") and text.startswith(cut[:-len("\n}\n")])
    assert output_diff.without_timings(cut) == cut


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


def _small_pool(monkeypatch):
    """A three-entry stand-in for the benchmark pools."""
    texts = {"kantorovich": '{"operator": "kantorovich", "n": 2}\n',
             "bernstein": '{"operator": "bernstein", "n": 3}\n',
             "swap": '{"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]}, '
                     '"functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}]}\n'}
    workloads = types.ModuleType("perfbench.workloads")
    workloads.WORKLOADS = ("only",)
    workloads.pool = lambda workload: {
        name: types.SimpleNamespace(stratum=name, text=lambda text=text: text)
        for name, text in texts.items()}
    monkeypatch.setitem(sys.modules, "perfbench.workloads", workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_output_diff_of_a_tree_against_itself_is_identical(output_diff, monkeypatch, capsys):
    _small_pool(monkeypatch)
    src = str(ROOT / "src")
    assert output_diff.main([src, src]) == 0
    assert capsys.readouterr().out == "identical (3 configs)\n"


def test_output_diff_names_exactly_a_mutant_changed_paths(output_diff, tmp_path, monkeypatch,
                                                           capsys):
    # A default iterate tolerance far below rounding: the limits found are
    # rejected, and nothing but the iterates moves.
    _small_pool(monkeypatch)
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
