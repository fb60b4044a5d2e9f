"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Evaluation or integration was requested outside a function's domain."""


class ConfigError(ValueError):
    """Invalid construction parameters or a malformed analysis configuration."""


class UnsupportedSizeError(ValueError):
    """Matrix dimension outside the supported range of an operation."""

