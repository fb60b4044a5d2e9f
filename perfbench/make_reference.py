"""Record the reference outcome of every pool configuration.

Run from the repository root at the commit whose behaviour is the
reference (the benchmark compares every later analysis with it):

    python3 perfbench/make_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json.gz``. Well-formed entries
record exit code, classification, checks, matrix and eigenvalues; each is
first checked against the independent eigenvalue oracle. Malformed entries
record how the program handled them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import gzip  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checker  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, main, scratch) -> dict:
    out = {}
    for entry_id, entry in workloads.pool(workload).items():
        path = scratch / "config.json"
        path.write_text(entry.text(), encoding="utf-8")
        outcome = harness.analyze(main, path, scratch)
        rec = {"digest": entry.digest(), "malformed": entry.malformed}
        if entry.malformed:
            rec["seed_outcome"] = outcome.signature()
        else:
            if outcome.raised or outcome.code not in (0, 1):
                raise RuntimeError(f"{entry_id}: well-formed config gave {outcome.signature()}")
            json_path, csv_path, svg_path = harness.output_paths(scratch)
            rec.update(checker.reference_record(entry.config, outcome, json_path))
            verdict = checker.check_report(entry.config, rec, outcome,
                                           json_path, csv_path, svg_path)
            if verdict.failed:
                raise RuntimeError(f"{entry_id}: {'; '.join(verdict.problems)}")
        out[entry_id] = rec
        print(f"{workload} {entry_id}: {outcome.signature()} "
              f"{rec.get('classification', '')} {outcome.seconds:.2f}s", flush=True)
    return out


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    cli = harness.import_cli()
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=harness.REFERENCE_DIR)
    try:
        for workload in names:
            entries = record(workload, cli.main, Path(scratch))
            data = {"environment": harness.environment(), "entries": entries}
            text = json.dumps(data, sort_keys=True, separators=(",", ":"))
            with open(harness.reference_path(workload), "wb") as raw, \
                    gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(text.encode())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
