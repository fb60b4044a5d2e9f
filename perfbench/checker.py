"""Output checks: every analysis against the reference recorded at the
seed commit and against an eigenvalue oracle that shares no code with the
program's eigensolver.

Tolerances are no looser than the acceptance suite's: matrix entries to
1e-12, check values to 1e-10, eigenvalues to 1e-8.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

MATRIX_TOL = 1e-12
CHECK_VALUE_TOL = 1e-10
EIG_TOL = 1e-8

CHECK_NAMES = ("partition_of_unity", "positivity", "constant_reproduction",
               "norm_estimate", "kernel_residual")

#: Documented key paths of the JSON report (README, "Report").
KEY_PATHS = (("config",),
             *(("checks", name) for name in CHECK_NAMES),
             ("matrix", "entries"), ("matrix", "row_sum_max_dev"), ("matrix", "diag_min"),
             ("spectrum", "eigenvalues"), ("spectrum", "disks"),
             ("spectrum", "classification"), ("spectrum", "diagnostics"),
             ("iterates", "converged"), ("iterates", "rate"), ("iterates", "m_used"))


@dataclass
class Outcome:
    """What one in-process ``pouspec analyze`` call produced."""

    code: int | None
    raised: str | None
    stderr: str
    seconds: float
    started: float = 0.0  # time.perf_counter() at the call

    def signature(self) -> str:
        return f"raised {self.raised}" if self.raised else f"exit {self.code}"


@dataclass
class Verdict:
    """``failed`` is any departure from the contract or the reference;
    ``known`` marks a failure that reproduces the outcome recorded at the
    seed commit (a known defect), which does not make the run incorrect."""

    problems: list[str] = field(default_factory=list)
    known: bool = False
    eig_err: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def matched_distance(left, right) -> float:
    """Largest distance under the minimal-cost matching of two multisets."""
    a = np.asarray(left, dtype=complex)
    b = np.asarray(right, dtype=complex)
    if a.size != b.size:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def bernstein_spectrum(n: int) -> np.ndarray:
    """Closed-form spectrum of the point-evaluation Bernstein matrix
    (Cooper & Waldron 2000): ``lambda_k = prod_{i<k} (1 - i/n)``."""
    return np.array([math.prod(1.0 - i / n for i in range(k)) for k in range(n + 1)])


def oracle_spectrum(config: dict, entries: np.ndarray) -> np.ndarray:
    if config.get("operator") == "bernstein":
        return bernstein_spectrum(config["n"])
    return np.linalg.eigvals(entries)


def dense_matrix(n: int, triplets: list) -> np.ndarray:
    out = np.zeros((n, n))
    for i, j, v in triplets:
        out[i, j] = v
    return out


def check_malformed(outcome: Outcome, expect: dict) -> Verdict:
    """README contract: exit 2 with a one-line message, no traceback."""
    verdict = Verdict()
    lines = [line for line in outcome.stderr.splitlines() if line.strip()]
    if outcome.raised:
        verdict.problems.append(f"uncaught {outcome.raised}")
    elif outcome.code != 2:
        verdict.problems.append(f"exit {outcome.code}, expected 2")
    elif len(lines) != 1:
        verdict.problems.append(f"{len(lines)}-line error message, expected one line")
    verdict.known = verdict.failed and outcome.signature() == expect["seed_outcome"]
    return verdict


def _lookup(data: dict, path: tuple) -> bool:
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return False
        data = data[key]
    return True


def _close(value, ref, tol: float) -> bool:
    if value is None or ref is None:
        return value is ref
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def check_report(config: dict, expect: dict, outcome: Outcome,
                 json_path: Path, csv_path: Path, svg_path: Path) -> Verdict:
    """Compare one well-formed analysis with its reference and the oracle."""
    verdict = Verdict()
    problems = verdict.problems
    if outcome.raised:
        problems.append(f"uncaught {outcome.raised}")
        return verdict
    if outcome.code != expect["exit"]:
        problems.append(f"exit {outcome.code}, reference {expect['exit']}")
    try:
        report = json.loads(json_path.read_text(encoding="utf-8"))
        csv_rows = csv_path.read_text(encoding="utf-8").splitlines()
        svg = svg_path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        return verdict
    missing = [".".join(p) for p in KEY_PATHS if not _lookup(report, p)]
    if missing:
        problems.append(f"JSON lacks {', '.join(missing)}")
        return verdict

    spectrum = report["spectrum"]
    if spectrum["classification"] != expect["classification"]:
        problems.append(f"classification {spectrum['classification']}, "
                        f"reference {expect['classification']}")
    for name in CHECK_NAMES:
        check = report["checks"][name]
        ref_passed, ref_value = expect["checks"][name]
        if check.get("passed") != ref_passed:
            problems.append(f"check {name} passed={check.get('passed')}, reference {ref_passed}")
        if not _close(check.get("value"), ref_value, CHECK_VALUE_TOL):
            problems.append(f"check {name} value {check.get('value')!r}, reference {ref_value!r}")

    n = expect["n"]
    entries = np.asarray(report["matrix"]["entries"], dtype=float)
    if entries.shape != (n, n):
        problems.append(f"matrix shape {entries.shape}, reference ({n}, {n})")
        return verdict
    matrix_dev = float(np.max(np.abs(entries - dense_matrix(n, expect["matrix"]))))
    if matrix_dev > MATRIX_TOL:
        problems.append(f"matrix entries differ from reference by {matrix_dev:.3e}")

    eigs = np.array([complex(e["re"], e["im"]) for e in spectrum["eigenvalues"]])
    ref_eigs = np.array([complex(re, im) for re, im in expect["eigs"]])
    ref_dev = matched_distance(eigs, ref_eigs)
    if ref_dev > EIG_TOL:
        problems.append(f"eigenvalues differ from reference by {ref_dev:.3e}")
    verdict.eig_err = matched_distance(eigs, oracle_spectrum(config, entries))
    if verdict.eig_err > EIG_TOL:
        problems.append(f"eigenvalues differ from the oracle by {verdict.eig_err:.3e}")

    if csv_rows[:1] != ["index,re,im,modulus,in_disk_union"] or len(csv_rows) != n + 1:
        problems.append(f"CSV has {len(csv_rows) - 1} rows, expected {n}")
    markers = svg.count("<path ")
    if markers != n:
        problems.append(f"SVG has {markers} eigenvalue markers, expected {n}")
    return verdict


def reference_record(config: dict, outcome: Outcome, json_path: Path) -> dict:
    """The reference entry for one well-formed analysis, as recorded at the
    seed commit: exit code, classification, checks, sparse matrix and
    eigenvalues."""
    report = json.loads(json_path.read_text(encoding="utf-8"))
    entries = report["matrix"]["entries"]
    return {
        "exit": outcome.code,
        "classification": report["spectrum"]["classification"],
        "checks": {name: [report["checks"][name]["passed"], report["checks"][name]["value"]]
                   for name in CHECK_NAMES},
        "n": len(entries),
        "matrix": [[i, j, v] for i, row in enumerate(entries)
                   for j, v in enumerate(row) if v != 0.0],
        "eigs": [[e["re"], e["im"]] for e in report["spectrum"]["eigenvalues"]],
    }
