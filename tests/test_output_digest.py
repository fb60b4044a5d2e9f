"""Smoke test of ``tools/output_digest.py``, the byte-identity check run
over the benchmark pools."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from pouspec.cli import main
from pouspec.report import emit_report, parse_config, report_to_mapping, run_analyze

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


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
