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
    first = digest.run_one(main, config)
    assert first.startswith("exit=0 json=")
    assert "=-" not in first
    assert digest.run_one(main, config) == first


def test_run_one_malformed_writes_nothing(digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    line = digest.run_one(main, '{"operator": "bernstein"}\n')
    assert line.startswith("exit=2 json=- csv=- svg=- ")


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


@pytest.mark.parametrize("analyze, status", [(main, 0), (_crash, 1)],
                         ids=["clean", "raised"])
def test_main_fails_on_a_raised_config(digest, monkeypatch, capsys, analyze, status):
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
    expected = "exit=raised:RuntimeError " if status else "exit=0 json="
    assert line.startswith(f"only entry-0 {expected}")
