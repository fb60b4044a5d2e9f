"""Every benchmark pool config against the benchmark's own reference.

Each config of the three pools (``perfbench/workloads.py``) is analysed
once through ``pouspec.cli.main``, writing the JSON, CSV and SVG outputs,
and judged by ``perfbench/checker.py`` against
``perfbench/reference/<workload>.json.gz``: a result passes when it has no
problem or reproduces a defect recorded in the reference, the rule of the
benchmark's ``correct``. The perfbench modules are only imported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from pouspec.cli import main
from pouspec.spectra import CLASSIFICATION_CONFORMS

# The benchmark's modules import one another by their bare names.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import checker  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

POOLS = {workload: workloads.pool(workload) for workload in workloads.WORKLOADS}
REFERENCES = {workload: harness.load_reference(workload, entries)
              for workload, entries in POOLS.items()}

#: Well-formed configs whose spectrum conforms but whose analysis exits 1,
#: by the cause of the failing check.
FALSE_FAILURES = {
    **{("catalog-sweep", entry_id): "norm_estimate reads 1.0004 to 1.0086, above its "
       "bound 1 + 1e-10, on a positive operator of norm 1"
       for entry_id in ("schoenberg-d1-8b", "hat-dirac-a2b", "hat-dirac-c7a",
                        "hat-dirac-d1a")},
    **{("catalog-sweep", f"custom-mixed-{i}"): "kernel_residual fails: no kernel witness "
       "is built for mixed Dirac and interval-average functionals" for i in range(5)},
}


def _cases(select, xfails: dict | None = None) -> list:
    """``(workload, entry_id)`` of every pool entry that ``select(entry,
    reference)`` accepts; an entry of ``xfails`` is a strict xfail for the
    reason it maps to."""
    cases = []
    for workload, entries in POOLS.items():
        for entry_id, entry in entries.items():
            if not select(entry, REFERENCES[workload][entry_id]):
                continue
            reason = (xfails or {}).get((workload, entry_id))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            cases.append(pytest.param(workload, entry_id, marks=marks,
                                      id=f"{workload}/{entry_id}"))
    return cases


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    """``analyse(workload, entry_id)``: the outcome, the checker's verdict
    and the reported classification (``None`` when no report was written)
    of one analysis, run the first time it is asked for."""
    work = tmp_path_factory.mktemp("pool")
    config = work / "config.json"
    results = {}

    def analyse(workload: str, entry_id: str):
        key = (workload, entry_id)
        if key not in results:
            entry = POOLS[workload][entry_id]
            expect = REFERENCES[workload][entry_id]
            config.write_text(entry.text(), encoding="utf-8")
            outcome = harness.analyze(main, config, work)
            paths = harness.output_paths(work)
            if entry.malformed:
                verdict = checker.check_malformed(outcome, expect)
            else:
                verdict = checker.check_report(entry.config, expect, outcome, *paths)
            classification = None
            if paths[0].exists():
                report = json.loads(paths[0].read_text(encoding="utf-8"))
                classification = report["spectrum"]["classification"]
            results[key] = outcome, verdict, classification
        return results[key]

    return analyse


@pytest.mark.parametrize("workload, entry_id", _cases(lambda entry, expect: True))
def test_matches_the_benchmark_reference(analysed, workload, entry_id):
    _, verdict, _ = analysed(workload, entry_id)
    assert verdict.known or not verdict.failed, verdict.problems


@pytest.mark.parametrize("workload, entry_id", _cases(
    lambda entry, expect: not entry.malformed
    and expect["classification"] == CLASSIFICATION_CONFORMS, FALSE_FAILURES))
def test_conforming_spectrum_exits_zero(analysed, workload, entry_id):
    outcome, _, classification = analysed(workload, entry_id)
    assert classification == CLASSIFICATION_CONFORMS
    assert outcome.code == 0
