"""Smoke tests of ``tools/output_digest.py``, the byte-identity check run
over the benchmark pools, and of ``tools/output_diff.py``, which shows what
an output change changed."""

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
TOOL = ROOT / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_one_is_repeatable(digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = '{"version": 1, "operator": "kantorovich", "n": 2}\n'
    first, err = digest.run_one(main, config)
    assert first.startswith("exit=0 json=")
    assert "=-" not in first
    assert err == ""
    assert digest.run_one(main, config) == (first, err)


def test_run_one_malformed_writes_nothing(digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    line, err = digest.run_one(main, '{"operator": "bernstein"}\n')
    assert line.startswith("exit=2 json=- csv=- svg=- ")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_without_timings_cuts_only_timings(digest):
    report = run_analyze(parse_config('{"operator": "kantorovich", "n": 2}'))
    text = emit_report(report, "json")
    expected = report_to_mapping(report)
    del expected["timings"]
    cut = digest.without_timings(text)
    assert json.loads(cut) == json.loads(json.dumps(expected))
    # Only the tail is cut: everything before the timings map is untouched.
    assert cut.endswith("\n}\n") and text.startswith(cut[:-len("\n}\n")])
    assert digest.without_timings(cut) == cut


def _crash(argv):
    raise RuntimeError("analysis crashed")


def _warn_then_fail(argv):
    # A warning printed before the error line breaks the one-line contract.
    print("RuntimeWarning: overflow encountered in divide", file=sys.stderr)
    print("error: analysis failed", file=sys.stderr)
    return 2


@pytest.mark.parametrize("analyze, status, expected", [
    (main, 0, "exit=0 json="),
    (_crash, 1, "exit=raised:RuntimeError "),
    (_warn_then_fail, 1, "exit=2 json=- "),
], ids=["clean", "raised", "multi-line-stderr"])
def test_main_fails_on_a_raised_config(digest, monkeypatch, capsys, analyze, status,
                                       expected):
    # A one-entry pool, so only the exit status and the printed line matter.
    entry = types.SimpleNamespace(text=lambda: '{"operator": "kantorovich", "n": 2}\n')
    workloads = types.ModuleType("perfbench.workloads")
    workloads.WORKLOADS = ("only",)
    workloads.pool = lambda workload: {"entry-0": entry}
    monkeypatch.setitem(sys.modules, "perfbench.workloads", workloads)
    monkeypatch.setattr(digest, "import_main", lambda src: analyze)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in digest.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert digest.main([str(ROOT / "src")]) == status
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"only entry-0 {expected}")


@pytest.fixture(scope="module")
def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "tools" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(code="0", report=None, stdout="", stderr=""):
    return {"config": "w e", "stratum": "w/s", "exit": code, "json": report,
            "csv": None, "svg": None, "stdout": stdout, "stderr": stderr}


def test_compare_names_transitions_paths_and_lines(output_diff):
    old = {"config": {"iterate": {"tol": 1e-10, "m_max": 64}},
           "spectrum": {"classification": "conforms", "eigenvalues": [{"re": 1.0}, {"re": 0.5}]},
           "iterates": {"m_used": 4}}
    new = {"config": {"iterate": {"tol": 1e-10}},
           "spectrum": {"classification": "violates-theorem",
                        "eigenvalues": [{"re": 1.0}, {"re": 0.4}]},
           "iterates": {"m_used": None}}
    changes = output_diff.compare(_record("0", old, "a\nb\n"), _record("1", new, "a\nc\n"))
    assert changes == {
        "exit": ["exit: 0 -> 1"],
        "classification": ["classification: conforms -> violates-theorem"],
        "config.iterate.m_max": ["config.iterate.m_max: 64 -> (absent)"],
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
    summary = out[out.index("\n3 of 3 configs changed\n") + 1:].splitlines()
    # The swap matrix has no limit either way; only its echoed tolerance moves.
    assert summary[1:] == [
        "by stratum:", "  only/kantorovich: 1 of 1", "  only/bernstein: 1 of 1",
        "  only/swap: 1 of 1", "by key path:", "  config.iterate.tol: 3",
        "  iterates.converged: 2", "  iterates.message: 2", "  iterates.rate: 2", "  stdout: 2"]
    assert out.startswith("only kantorovich\n"
                          "  config.iterate.tol: 1e-10 -> 1e-20 (rel 1.00e+00)\n"
                          "  iterates.converged: true -> false\n"
                          "  iterates.rate: 0.6666666666666667 -> null\n")
