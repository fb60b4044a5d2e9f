"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Evaluation or integration was requested outside a function's domain."""


class ConfigError(ValueError):
    """Invalid construction parameters or a malformed analysis configuration."""


class NotConstructibleError(RuntimeError):
    """No verified kernel witness: the operator's functionals mix interval
    averages with point rules, which get no witness, or the built witness
    failed its own check. For interval averages the witness annihilates the
    quadrature rule that the operator applies, not the exact average."""


class UnsupportedSizeError(ValueError):
    """Matrix dimension outside the supported range of an operation."""

