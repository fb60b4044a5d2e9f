"""Uniform pass/fail record for numerical verifications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def nonempty_grid(grid, form, check: str) -> np.ndarray:
    """``grid`` as a float array, or :class:`ConfigError` naming ``check``
    when it holds no point or when ``form``, the basis' local form on it
    (:class:`~pouspec.bases.LocalForm`), has not one column per point.
    Every check that measures on a grid calls this first."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError(f"{check} check needs a non-empty grid")
    if form.points != grid.size:
        raise ConfigError(f"{check} check needs the basis' local form on {grid.size} "
                          f"points, of shape (width, {grid.size}), got "
                          f"{form.values.shape}")
    return grid


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
