"""Exception types and the named check record shared across the package.

Two failure categories exist and map onto the CLI exit codes: malformed or
inconsistent input data (exit 2) versus a mathematical hypothesis or check
that does not hold for otherwise well-formed data (exit 1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named pass/fail verdict with the quantity and the bound it was held to."""

    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None


class InputError(ValueError):
    """Raised for malformed input: bad files, shape mismatches, invalid parameters."""


class CheckError(ValueError):
    """Raised when a named mathematical hypothesis fails on valid input.

    ``check`` is a short stable identifier (e.g. ``"non-commuting K"``),
    ``value``/``threshold`` carry the offending quantity when one exists.
    ``checks`` holds every Check evaluated before the raise; by default it is
    the single failed check, named by ``check``.
    """

    def __init__(self, check: str, message: str, value: float | None = None,
                 threshold: float | None = None, checks: tuple[Check, ...] = ()):
        super().__init__(message)
        self.check = check
        self.value = value
        self.threshold = threshold
        self.checks = tuple(checks) or (Check(check, False, value, threshold),)
