"""Digest what ``pouspec analyze`` writes for every benchmark pool config.

Usage, from the repository root::

    python3 tools/output_digest.py SRC_DIR > digests.txt

``SRC_DIR`` is the directory that holds the ``pouspec`` package (``src`` of
a checkout). Every config of the three benchmark pools
(``perfbench.workloads.pool``, read from this checkout) is analysed
in-process through ``pouspec.cli.main`` with BLAS pinned to one thread. One
line per config gives its exit code and sha256 digests (first 16 hex
digits) of the JSON report without its ``timings`` map, the CSV, the SVG,
stdout and stderr; ``-`` marks an output that was not written. Run it on
two checkouts and ``diff`` the files: equal files mean byte-identical
output on the whole pool.

The exit status is 1 when any config ended in an exception that
``pouspec.cli.main`` let through (a line reading ``exit=raised:``) or wrote
more than one line to stderr (the CLI's contract is one ``error:`` line at
most), else 0; every line is printed either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUTS = ("report.json", "report.csv", "report.svg")


def _digest(text: str | None) -> str:
    if text is None:
        return "-"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def without_timings(report: str) -> str:
    """The JSON report with its ``timings`` map and the comma before it cut
    out (the only part that differs between runs); the rest still parses."""
    head, found, tail = report.partition(',\n  "timings": {')
    if not found:
        return report
    close = '\n  }'
    return head + tail[tail.index(close) + len(close):]


def import_main(src: Path):
    """``pouspec.cli.main`` imported from ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    import pouspec.cli
    where = Path(pouspec.cli.__file__).resolve().parent
    if where != src / "pouspec":
        raise ImportError(f"pouspec imported from {where}, not {src}")
    return pouspec.cli.main


def run_texts(main, config_text: str) -> tuple[str, list[str | None], str, str]:
    """Exit code, outputs (JSON without its ``timings``, CSV, SVG; ``None``
    when not written), stdout and stderr of one ``pouspec analyze`` call,
    run in the current directory with relative file names."""
    for name in OUTPUTS:
        Path(name).unlink(missing_ok=True)
    Path("config.json").write_text(config_text, encoding="utf-8")
    argv = ["analyze", "--config", "config.json", "--json", OUTPUTS[0],
            "--csv", OUTPUTS[1], "--svg", OUTPUTS[2]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = f"exit:{exc.code}"
        except Exception as exc:  # a traceback a user would see; recorded by type
            code = f"raised:{type(exc).__name__}"
    texts = [Path(name).read_text(encoding="utf-8") if Path(name).exists() else None
             for name in OUTPUTS]
    if texts[0] is not None:
        texts[0] = without_timings(texts[0])
    return code, texts, stdout.getvalue(), stderr.getvalue()


def run_one(main, config_text: str) -> tuple[str, str]:
    """Exit code and output digests of one ``pouspec analyze`` call, and
    its stderr."""
    code, texts, stdout, stderr = run_texts(main, config_text)
    parts = [f"exit={code}"]
    parts += [f"{label}={_digest(text)}"
              for label, text in zip(("json", "csv", "svg"), texts)]
    parts += [f"stdout={_digest(stdout)}", f"stderr={_digest(stderr)}"]
    return " ".join(parts), stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", type=Path,
                        help="directory holding the pouspec package")
    args = parser.parse_args(argv)
    src = args.src_dir.resolve()
    if not (src / "pouspec" / "cli.py").is_file():
        parser.error(f"no pouspec package under {src}")

    # Pinned before numpy is first imported; summation order may depend on it.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, pool

    analyze = import_main(src)
    failed = False
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for workload in WORKLOADS:
            for entry_id, entry in pool(workload).items():
                line, err = run_one(analyze, entry.text())
                failed |= line.startswith("exit=raised:") or len(err.splitlines()) > 1
                print(f"{workload} {entry_id} {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
