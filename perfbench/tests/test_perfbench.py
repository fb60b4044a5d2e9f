"""Tests of the benchmark itself: seeded config generation, the output
checker and self-time accounting.

    python3 -m pytest perfbench/tests
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calibration  # noqa: E402
import checker  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _generated(directory: Path, workload: str, seed: int, blocks: int = 3) -> dict[str, bytes]:
    entries = workloads.pool(workload)
    directory.mkdir()
    for index in range(blocks):
        workloads.write_block(workloads.block(workload, entries, seed, index), directory, index)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs_and_another_seed_differs(tmp_path, workload):
    first = _generated(tmp_path / "a", workload, 7)
    again = _generated(tmp_path / "b", workload, 7)
    other = _generated(tmp_path / "c", workload, 8)
    assert first == again
    assert first != other


def test_blocks_keep_the_stratum_mix():
    entries = workloads.pool("catalog-sweep")
    for seed in (1, 2):
        strata = sorted(e.stratum for e in workloads.block("catalog-sweep", entries, seed, 0))
        assert strata == sorted(workloads.BLOCK_STRATA["catalog-sweep"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_the_pool(workload):
    entries = workloads.pool(workload)
    reference = harness.load_reference(workload, entries)
    assert set(entries) <= set(reference)


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    """One real analysis (Bernstein n = 4) with its outputs and reference."""
    work = tmp_path_factory.mktemp("analysis")
    config = {"operator": "bernstein", "n": 4}
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    outcome = harness.analyze(harness.import_cli().main, path, work)
    paths = harness.output_paths(work)
    expect = checker.reference_record(config, outcome, paths[0])
    return config, expect, outcome, paths


def _mutated(paths, tmp_path: Path, change) -> tuple:
    report = json.loads(paths[0].read_text(encoding="utf-8"))
    change(report)
    json_path = tmp_path / "report.json"
    json_path.write_text(json.dumps(report), encoding="utf-8")
    return json_path, paths[1], paths[2]


def test_checker_accepts_the_unchanged_report(analysed):
    config, expect, outcome, paths = analysed
    verdict = checker.check_report(config, expect, outcome, *paths)
    assert not verdict.failed, verdict.problems
    assert verdict.eig_err < 1e-12


def test_checker_rejects_a_flipped_classification(analysed, tmp_path):
    config, expect, outcome, paths = analysed

    def flip(report):
        report["spectrum"]["classification"] = "violates-theorem"

    verdict = checker.check_report(config, expect, outcome, *_mutated(paths, tmp_path, flip))
    assert any("classification" in p for p in verdict.problems)


def test_checker_rejects_a_shifted_eigenvalue(analysed, tmp_path):
    config, expect, outcome, paths = analysed

    def shift(report):
        report["spectrum"]["eigenvalues"][2]["re"] += 1e-6

    verdict = checker.check_report(config, expect, outcome, *_mutated(paths, tmp_path, shift))
    assert any("reference" in p and "eigenvalues" in p for p in verdict.problems)
    assert any("oracle" in p for p in verdict.problems)


def test_checker_rejects_a_wrong_exit_code(analysed):
    config, expect, outcome, paths = analysed
    wrong = checker.Outcome(code=1, raised=None, stderr="", seconds=outcome.seconds)
    verdict = checker.check_report(config, expect, wrong, *paths)
    assert any(p.startswith("exit 1") for p in verdict.problems)


def test_malformed_contract_and_known_defects():
    expect = {"seed_outcome": "raised DomainError"}
    ok = checker.Outcome(code=2, raised=None, stderr="error: bad node\n", seconds=0.0)
    assert not checker.check_malformed(ok, expect).failed
    known = checker.Outcome(code=None, raised="DomainError", stderr="", seconds=0.0)
    verdict = checker.check_malformed(known, expect)
    assert verdict.failed and verdict.known
    new = checker.Outcome(code=0, raised=None, stderr="", seconds=0.0)
    verdict = checker.check_malformed(new, expect)
    assert verdict.failed and not verdict.known


def test_self_time_on_a_hand_built_span_tree():
    # 0 cli [0, 100]
    # +- 1 report [10, 90]
    #    +- 2 operators [20, 50]
    #    |  +- 3 bases [25, 45]
    #    +- 4 operators [60, 80]
    start = np.array([0, 10, 20, 25, 60])
    end = np.array([100, 90, 50, 45, 80])
    parent = np.array([-1, 0, 1, 2, 1])
    excl = spans.exclusive_times(start, end, parent)
    assert excl.tolist() == [20.0, 30.0, 10.0, 20.0, 20.0]

    tracer = spans.Tracer()
    tracer.names = ["main", "run_analyze", "verify_positivity", "BasisSystem.values"]
    tracer.layers = ["cli", "report", "operators", "bases"]
    tracer.name_id.extend([0, 1, 2, 3, 2])
    tracer.parent.extend(parent.tolist())
    tracer.analysis_id.extend([0] * 5)
    tracer.start.extend((start * 10**9).tolist())
    tracer.end.extend((end * 10**9).tolist())
    metrics = spans.layer_metrics(tracer, {0}, eig_err_max=0.0, overhead_s=0.0)
    assert metrics["cli.self_s"] == 20.0
    assert metrics["report.run_analyze_self_s"] == 30.0
    assert metrics["operators.self_s"] == 30.0
    assert metrics["operators.positivity_s"] == 50.0
    assert metrics["bases.values_s"] == 20.0
    assert metrics["bases.values_calls"] == 1.0


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    harness.import_cli()
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("spectra", "pouspec.spectra", "no_such_function"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["pouspec.spectra.no_such_function"]


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 10) is None
    p, _, n = run.tail([float(i) for i in range(40)])
    assert (p, n) == (75.0, 40)


def test_speed_sampler_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedSampler(period_s=0.02) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(sampler.units) >= 4 and sampler.busy_s > 0.0
    middle = sampler.times[len(sampler.times) // 2]
    assert sampler.unit_s(middle, middle) > 0.0
    assert calibration.at_reference_speed(2.0, 2 * calibration.REFERENCE_UNIT_S) == 1.0
