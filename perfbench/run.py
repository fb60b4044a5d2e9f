"""pouspec benchmark: closed-loop ``pouspec analyze`` requests on one
workload, with every output checked.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 20 --trace 0

One process, one client, one thread, BLAS pinned to one thread. Each
request calls ``pouspec.cli.main`` in-process and writes the JSON, CSV and
SVG outputs to a temporary directory under ``.perfbench/`` in the
checkout. Requests run in whole blocks (see ``workloads.py``) until the
next block would overrun ``--seconds``; at least one block runs. With
``--trace 0`` those are seconds at the reference machine speed (see
below), so that a slow phase of a shared machine does not change how many
blocks a run measures; a run stops anyway after ``WALL_LIMIT`` times
``--seconds`` of wall time.

``--trace 0`` reports the end-to-end metrics. Times are given at the
reference machine speed, measured by a calibration kernel sampled through
the run (see ``calibration.py``); the raw wall times are printed as
``raw.*`` lines. ``setup_s`` is the median over several fresh
processes that each import the program, generate the first block and run
one warm-up analysis.

``--trace 1`` runs the same blocks twice, untraced and then with timing
wrappers around each layer's public functions, and reports the per-layer
metrics (see ``spans.py``); the spans are written to ``.perfbench/traces``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts every request
that broke the README contract or differed from the reference, known
defects included; ``correct`` is false, and the exit code 1, when a
failure is not a known defect recorded at the seed commit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checker  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = harness.ROOT / ".perfbench"
SETUP_PROBES = 7
SNAPSHOT_S = 0.05  # calibration before and after each set-up probe
PROBE_TIMEOUT_S = 60
WALL_LIMIT = 3.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Result:
    entry: workloads.Entry
    outcome: checker.Outcome
    verdict: checker.Verdict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def warm_up(main, workload: str, seed: int, work: Path) -> checker.Outcome:
    """Config generation for the first block plus one warm-up analysis:
    everything a run does before its first timed request."""
    entries = workloads.pool(workload)
    workloads.write_block(workloads.block(workload, entries, seed, 0), work, 0)
    warm = entries[workloads.WARMUP_ID[workload]]
    path = work / "warmup.json"
    path.write_text(warm.text(), encoding="utf-8")
    return harness.analyze(main, path, work)


def probe_setup(args) -> int:
    """Child process for ``setup_s``: import, generate, warm up, exit."""
    cli = harness.import_cli()
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR))
    try:
        outcome = warm_up(cli.main, args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if outcome.code in (0, 1) and not outcome.raised else 1


def measure_setup(args) -> tuple[float, float]:
    """Median set-up time of fresh processes: (raw, at reference speed).
    Each probe is scaled by calibration snapshots taken just before and
    just after it, while no probe runs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    raw, scaled = [], []
    before = calibration.unit_seconds(SNAPSHOT_S)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PROBE_TIMEOUT_S, text=True)
        raw.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        after = calibration.unit_seconds(SNAPSHOT_S)
        scaled.append(calibration.at_reference_speed(raw[-1], (before + after) / 2.0))
        before = after
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs blocks of one workload and checks every output."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.entries = workloads.pool(workload)
        self.reference = harness.load_reference(workload, self.entries)
        self.on_request = None
        self.sampler = None  # a SpeedSampler while one is active

    def request(self, entry: workloads.Entry, path: Path) -> Result:
        gc.collect()
        busy = self.sampler.busy_s if self.sampler else 0.0
        # Looked up per call so that the traced run sees the wrapped main.
        outcome = harness.analyze(self.cli.main, path, self.work)
        if self.sampler:
            outcome.seconds -= self.sampler.busy_s - busy
        expect = self.reference[entry.id]
        if entry.malformed:
            verdict = checker.check_malformed(outcome, expect)
        else:
            verdict = checker.check_report(entry.config, expect, outcome,
                                           *harness.output_paths(self.work))
        return Result(entry, outcome, verdict)

    def run_block(self, index: int) -> list[Result]:
        chosen = workloads.block(self.workload, self.entries, self.seed, index)
        paths = workloads.write_block(chosen, self.work, index)
        results = []
        for entry, path in zip(chosen, paths):
            if self.on_request is not None:
                self.on_request(entry)
            results.append(self.request(entry, path))
            path.unlink()
        return results

    def run_for(self, seconds: float) -> tuple[list[Result], int]:
        """Whole blocks until the next one would end past ``seconds``,
        counted at the reference speed while a sampler is active."""
        results: list[Result] = []
        start = time.perf_counter()
        index = 0
        while True:
            block_start = time.perf_counter()
            results.extend(self.run_block(index))
            index += 1
            now = time.perf_counter()
            scale = (calibration.at_reference_speed(1.0, self.sampler.unit_s())
                     if self.sampler else 1.0)
            if (scale * (2 * now - start - block_start) > seconds
                    or now - start > WALL_LIMIT * seconds):
                return results, index


def tail(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it:
    (percentile, value, sample count), or None for ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, int(round(p / 100.0 * (n - 1))))
            return p, ordered[rank], n
    return None


def end_to_end(args, runner: Runner, setup: tuple[float, float]) -> tuple[list[Result], dict]:
    with calibration.SpeedSampler() as sampler:
        runner.sampler = sampler
        results, _ = runner.run_for(args.seconds)
        runner.sampler = None
    timed = [r.outcome for r in results if not r.entry.malformed and not r.outcome.raised]
    raw = [o.seconds for o in timed]
    scaled = [calibration.at_reference_speed(
        o.seconds, sampler.unit_s(o.started, o.started + o.seconds)) for o in timed]
    metrics = {
        "setup_s": (setup[1], "s"),
        "analyses_per_s": (len(scaled) / sum(scaled), "1/s"),
        "analyze_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"raw.setup_s {setup[0]:.6g} s")
    print(f"raw.analyses_per_s {len(raw) / sum(raw):.6g} 1/s")
    print(f"raw.analyze_p50_s {statistics.median(raw):.6g} s")
    print(f"calibration unit {sampler.unit_s():.6g} s ({len(sampler.units)} samples, "
          f"reference {calibration.REFERENCE_UNIT_S:g} s)")
    failed = sum(r.verdict.failed for r in results)
    print(f"failed_ratio {failed / len(results):.6g} ratio "
          f"({failed} of {len(results)} configs, malformed included)")
    found = tail(scaled)
    if found:
        p, value, n = found
        print(f"analyze_tail_s {value:.6g} s (p{p:g} of {n} well-formed analyses)")
    else:
        print(f"analyze_tail_s not reported: {len(scaled)} well-formed analyses, "
              "needs more than 10")
    return results, metrics


def traced(args, runner: Runner) -> tuple[list[Result], dict]:
    plain, blocks = runner.run_for(args.seconds / 2.0)
    tracer = spans.Tracer()
    counter = iter(range(len(plain)))

    def stamp(entry):
        tracer.analysis = next(counter)

    tracer.install()
    runner.on_request = stamp
    try:
        traced_results = [r for index in range(blocks) for r in runner.run_block(index)]
    finally:
        runner.on_request = None
        tracer.uninstall()
    tracer.write(WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.npz")
    well = {i for i, r in enumerate(traced_results) if not r.entry.malformed}
    overhead = (sum(r.outcome.seconds for r in traced_results)
                - sum(r.outcome.seconds for r in plain)) / max(len(well), 1)
    eig_err = max((r.verdict.eig_err for r in plain + traced_results), default=0.0)
    values = spans.layer_metrics(tracer, well, eig_err, overhead)
    if tracer.absent:
        print(f"absent trace targets: {', '.join(tracer.absent)}")
    metrics = {name: (values[name], unit) for name, unit in spans.METRIC_UNITS.items()}
    return plain + traced_results, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        WORK_DIR.mkdir(exist_ok=True)
        if args.probe_setup:
            return probe_setup(args)
        cli = harness.import_cli()
        setup = measure_setup(args) if args.trace == 0 else (0.0, 0.0)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    try:
        runner = Runner(cli, args.workload, args.seed, work)
        warm_up(cli.main, args.workload, args.seed, work)
        gc.collect()
        gc.freeze()
        print("environment " + json.dumps(harness.environment(), sort_keys=True))
        if args.trace:
            results, metrics = traced(args, runner)
        else:
            results, metrics = end_to_end(args, runner, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.verdict.failed]
    unknown = [r for r in failed if not r.verdict.known]
    for r in failed[:20]:
        kind = "known defect" if r.verdict.known else "FAILURE"
        print(f"{kind}: {r.entry.id}: {'; '.join(r.verdict.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not unknown else 1


if __name__ == "__main__":
    sys.exit(main())
