"""Smoke test of ``tools/output_digest.py``, the byte-identity check run
over the benchmark pools."""

from __future__ import annotations

import importlib.util
import json
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
