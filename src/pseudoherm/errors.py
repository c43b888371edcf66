"""Exception types and the named check record shared across the package.

Two failure categories exist and map onto the CLI exit codes: malformed or
inconsistent input data (exit 2) versus a mathematical hypothesis or check
that does not hold for otherwise well-formed data (exit 1), which the library
raises only through _require, as a named Check.  The default tolerance and
the one rule for a tolerance (check_tol), the finite-real rule for scalars
from outside the program and ``RealPolynomial`` (the real coefficient list of
a potential or of f) live here too, so that parsing numbers, tolerances and
polynomials needs nothing beyond the standard library.

The package's plain-data records are ``typing.NamedTuple``s and those with behaviour derive
from _Record: neither generates code per class at import, which would add milliseconds to
the start of every CLI process.
"""

from __future__ import annotations

import re
from math import inf, isfinite
from numbers import Real
from typing import NamedTuple

# The relative tolerance of every check, unless a caller passes its own
DEFAULT_TOL = 1e-10


def check_tol(tol: float) -> float:
    """tol, if positive and a finite real number by the rule of _finite_real; else InputError."""
    try:
        number = _finite_real(tol, "tol")
    except InputError:  # one message for every refused tolerance: bool, str, array, 10**400 ...
        number = 0.0
    if not 0 < number < inf:
        raise InputError("tol must be positive and finite")
    return tol


class Check(NamedTuple):
    """One named pass/fail verdict with the quantity and the bound it was held to."""

    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None

    @classmethod
    def at_most(cls, name: str, value: float, threshold: float) -> "Check":
        """The check name that passes when ``value <= threshold`` (so never on a nan)."""
        return cls(name, value <= threshold, value, threshold)


class _Record:
    """Base of the immutable records with behaviour.  ``__init__`` fills ``vars(self)``; the
    fields named in ``_fields``, in order, give value equality, the hash and the repr."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class InputError(ValueError):
    """Raised for malformed input: bad files, shape mismatches, invalid parameters."""


class CheckError(ValueError):
    """Raised when a named mathematical hypothesis fails on valid input.

    ``check`` is a short stable identifier of the failure (e.g. ``"non-commuting
    K"``), and ``checks`` holds every Check evaluated before the raise, under the
    names the reports use.  ``value`` and ``threshold`` are those of the first
    failed check, and the message is ``"{check} ({name}: value {value:.3e}, threshold
    {threshold:.3e})"`` of it.  Raised only by _require.
    """

    def __init__(self, check: str, checks: tuple[Check, ...]):
        failed = next(c for c in checks if not c.passed)
        super().__init__(f"{check} ({failed.name}: value {failed.value:.3e}, "
                         f"threshold {failed.threshold:.3e})")
        self.check, self.checks = check, tuple(checks)
        self.value, self.threshold = failed.value, failed.threshold


def _require(outcomes, checks: tuple[Check, ...] = ()) -> tuple[Check, ...]:
    """checks plus those of the (Check, CheckError id) outcomes; raise at a failure."""
    checks += tuple(check for check, _ in outcomes)
    for check, check_id in outcomes:
        if not check.passed:
            raise CheckError(check_id, checks)
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


_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class RealPolynomial(_Record):
    """Polynomial with real coefficients, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial has an empty coefficient tuple and degree -1.  A bool, complex
    or non-finite coefficient is rejected (the rule of ``_finite_real``).
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = [_finite_real(c, "a polynomial coefficient") for c in coeffs]
        while cleaned and cleaned[-1] == 0.0:
            cleaned.pop()
        vars(self)["coeffs"] = tuple(cleaned)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def parse(cls, text: str) -> "RealPolynomial":
        """Parse the comma-separated flag format, e.g. ``"0,3"`` for 3x."""
        parts = [p.strip() for p in str(text).split(",")]
        coeffs = []
        for p in parts:
            if not p:
                raise InputError(f"empty coefficient in polynomial {text!r}")
            if not _NUMBER.match(p):
                raise InputError(f"polynomial coefficient {p!r} is not a real number")
            coeffs.append(float(p))
        return cls(coeffs)

    def __str__(self) -> str:
        return ",".join(repr(c) for c in self.coeffs) if self.coeffs else "0"
