"""Uniform pass/fail record for numerical verifications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single numerical check.

    ``value`` is the measured extremal quantity the check is about (a maximum
    deviation, a minimum sample, a residual norm, an estimate). It is ``None``
    only when the quantity could not be computed at all, in which case
    ``detail`` says why.
    """

    name: str
    passed: bool
    value: float | None
    threshold: float
    worst_x: float | None = None
    detail: str = ""

    @classmethod
    def deviation_from_one(cls, name: str, values: np.ndarray, grid: np.ndarray,
                           tol: float) -> "CheckResult":
        """Max of ``|values - 1|`` over the grid, passing iff it is at most
        ``tol``; ``values[j]`` is taken at ``grid[j]``."""
        dev = np.abs(values - 1.0)
        worst = int(np.argmax(dev))
        return cls(name=name, passed=bool(dev[worst] <= tol), value=float(dev[worst]),
                   threshold=tol, worst_x=float(grid[worst]))

    def as_dict(self) -> dict:
        out: dict = {
            "passed": self.passed,
            "value": self.value,
            "threshold": self.threshold,
        }
        if self.worst_x is not None:
            out["worst_x"] = self.worst_x
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = f" at x={self.worst_x:.6g}" if self.worst_x is not None else ""
        val = "n/a" if self.value is None else f"{self.value:.3e}"
        return f"{self.name}: {status} (value {val}, threshold {self.threshold:.1e}{where})"
