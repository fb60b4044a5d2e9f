"""One benchmark request, the program import, references and the recorded
environment. Shared by ``run.py`` and ``make_reference.py``."""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

from checker import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_cli():
    """``pouspec.cli`` from this checkout's ``src``; never an installed copy."""
    if not (SRC / "pouspec" / "cli.py").is_file():
        raise FileNotFoundError(f"no pouspec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pouspec.cli
    if Path(pouspec.cli.__file__).resolve().parent != SRC / "pouspec":
        raise ImportError(f"pouspec imported from {pouspec.cli.__file__}, not {SRC}")
    return pouspec.cli


def output_paths(directory: Path) -> tuple[Path, Path, Path]:
    return directory / "report.json", directory / "report.csv", directory / "report.svg"


def analyze(main, config_path: Path, out_dir: Path) -> Outcome:
    """``pouspec analyze`` in-process through ``pouspec.cli.main``, writing
    the JSON, CSV and SVG outputs to ``out_dir``. Only the call is timed."""
    json_path, csv_path, svg_path = output_paths(out_dir)
    for path in (json_path, csv_path, svg_path):
        path.unlink(missing_ok=True)
    argv = ["analyze", "--config", str(config_path), "--json", str(json_path),
            "--csv", str(csv_path), "--svg", str(svg_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback the user would see; recorded as such
            raised = type(exc).__name__
        seconds = time.perf_counter() - start
    return Outcome(code=code, raised=raised, stderr=stderr.getvalue(), seconds=seconds,
                   started=start)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, entries: dict) -> dict:
    """Expected outcomes by entry id; refuses a reference that does not
    match the pool the workload generates."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        recorded = json.load(fh)["entries"]
    stale = [i for i, e in entries.items()
             if i not in recorded or recorded[i]["digest"] != e.digest()]
    if stale:
        raise ValueError(f"reference for {workload} does not match the pool "
                         f"({len(stale)} entries, e.g. {stale[0]}); rerun make_reference.py")
    return recorded


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
