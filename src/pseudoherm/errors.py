"""Exception types and the named check record shared across the package.

Two failure categories exist and map onto the CLI exit codes: malformed or
inconsistent input data (exit 2) versus a mathematical hypothesis or check
that does not hold for otherwise well-formed data (exit 1), which the library
raises only through _require, as a named Check.  The finite-real rule for
scalars from outside the program lives here too, so that parsing numbers needs
nothing beyond the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from numbers import Real


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

    ``check`` is a short stable identifier of the failure (e.g. ``"non-commuting
    K"``), and ``checks`` holds every Check evaluated before the raise, under the
    names the reports use.  ``value`` and ``threshold`` are those of the first
    failed check.  Raised only by _require.
    """

    def __init__(self, check: str, message: str, checks: tuple[Check, ...]):
        super().__init__(message)
        self.check, self.checks = check, tuple(checks)
        self.value, self.threshold = next((c.value, c.threshold) for c in checks if not c.passed)


def _require(outcomes, checks: tuple[Check, ...] = ()) -> tuple[Check, ...]:
    """checks plus those of the (Check, CheckError id, message) outcomes; raise at a failure."""
    checks += tuple(check for check, _, _ in outcomes)
    for check, check_id, message in outcomes:
        if not check.passed:
            raise CheckError(check_id, message, checks)
    return checks


def _finite_real(value, name: str) -> float:
    """value as a float, for any ``numbers.Real`` but a bool.

    Raises InputError naming name for anything else, and for inf, nan or a
    value beyond the double range.
    """
    if not isinstance(value, Real) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int or Fraction beyond the double range
        number = inf
    if not isfinite(number):
        raise InputError(f"{name} must be finite and within the double range")
    return number
