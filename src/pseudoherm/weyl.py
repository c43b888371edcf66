"""Exact normal-ordered polynomial algebra in position x and momentum p.

Convention: ``[x, p] = i`` (p = -i d/dx, hbar = 1).  Every element is kept in
normal order, all x factors to the left of all p factors, which makes the
representation canonical: two polynomials are equal exactly when their term
maps coincide.  Reordering uses

    p^b x^c = sum_k  C(b, k) C(c, k) k! (-i)^k  x^(c-k) p^(b-k).

Coefficients are exact complex rationals (a pair of ``fractions.Fraction``),
so "residual is zero" is a statement about integers, not floating point.
Floats entering through parameters are converted exactly to their binary
rational value.

Conjugation by the momentum boost ``exp(-theta p)`` fixes p and constants and
shifts x to x + i theta; on polynomials this substitution is an exact algebra
homomorphism.  That is what certifies Hamiltonians
``p^2 + f(p) + alpha V(x - beta - i gamma)`` as pseudo-Hermitian with boost
parameter theta = 2 gamma: the boosted Hamiltonian equals its adjoint
coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from numbers import Rational

import numpy as np

from .errors import InputError
from .perturbation import RealPolynomial

# i^k and (-i)^k as (real, imag) rational pairs, indexed by k mod 4
_I_POW = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
          (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))
_NEG_I_POW = (_I_POW[0], _I_POW[3], _I_POW[2], _I_POW[1])


def _to_fraction(value) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        if not np.isfinite(value):
            raise InputError("coefficients must be finite")
        return Fraction(value)
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, np.floating):
        return Fraction(float(value))
    raise InputError(f"cannot interpret {value!r} as an exact real number")


class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    @classmethod
    def from_value(cls, value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value, 0)

    def __setattr__(self, name, _value):
        raise AttributeError(f"RationalComplex is immutable, cannot set {name!r}")

    def __add__(self, other):
        other = RationalComplex.from_value(other)
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = RationalComplex.from_value(other)
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return RationalComplex.from_value(other) - self

    def __mul__(self, other):
        other = RationalComplex.from_value(other)
        return RationalComplex(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        try:
            other = RationalComplex.from_value(other)
        except (InputError, TypeError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        return f"RationalComplex({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_ZERO = RationalComplex(0, 0)
_ONE = RationalComplex(1, 0)


def _reorder(b: int, c: int):
    """Normal-order p^b x^c as ``[(k_drop, coefficient)]`` over x^(c-k) p^(b-k)."""
    for k in range(min(b, c) + 1):
        re, im = _NEG_I_POW[k % 4]
        scale = comb(b, k) * comb(c, k) * factorial(k)
        yield k, RationalComplex(re * scale, im * scale)


class WeylPolynomial:
    """Normal-ordered polynomial ``sum c_ab x^a p^b`` with exact coefficients.

    The term map never stores zero coefficients, so equality of term maps is
    equality of operators.  Instances are treated as immutable; all arithmetic
    returns new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned: dict[tuple[int, int], RationalComplex] = {}
        for key, coeff in (terms or {}).items():
            a, b = key
            if a < 0 or b < 0 or int(a) != a or int(b) != b:
                raise InputError(f"exponents must be nonnegative integers, got {key}")
            coeff = RationalComplex.from_value(coeff)
            if not coeff.is_zero():
                cleaned[(int(a), int(b))] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, _value):
        raise AttributeError(f"WeylPolynomial is immutable, cannot set {name!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "WeylPolynomial":
        return cls({(0, 0): RationalComplex.from_value(value)})

    @classmethod
    def position(cls, power: int = 1) -> "WeylPolynomial":
        return cls({(power, 0): _ONE})

    @classmethod
    def momentum(cls, power: int = 1) -> "WeylPolynomial":
        return cls({(0, power): _ONE})

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "WeylPolynomial":
        return cls({(a, b): RationalComplex.from_value(coeff)})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, _ZERO) + coeff
        return WeylPolynomial(acc)

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, _ZERO) - coeff
        return WeylPolynomial(acc)

    def __neg__(self) -> "WeylPolynomial":
        return WeylPolynomial({k: -c for k, c in self.terms.items()})

    def scale(self, value) -> "WeylPolynomial":
        value = RationalComplex.from_value(value)
        return WeylPolynomial({k: c * value for k, c in self.terms.items()})

    def __mul__(self, other) -> "WeylPolynomial":
        """Exact normal-ordered product (associative, bilinear); scalars scale."""
        if not isinstance(other, WeylPolynomial):
            return self.scale(other)
        acc: dict[tuple[int, int], RationalComplex] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                c12 = c1 * c2
                for k, reorder_coeff in _reorder(b1, a2):
                    key = (a1 + a2 - k, b1 + b2 - k)
                    acc[key] = acc.get(key, _ZERO) + c12 * reorder_coeff
        return WeylPolynomial(acc)

    def __rmul__(self, other) -> "WeylPolynomial":
        # only scalars reach here; scalars commute with everything
        return self.scale(other)

    def adjoint(self) -> "WeylPolynomial":
        """Operator adjoint: ``(c x^a p^b)^dag = conj(c) p^b x^a``, renormal-ordered."""
        acc: dict[tuple[int, int], RationalComplex] = {}
        for (a, b), c in self.terms.items():
            cc = c.conjugate()
            for k, reorder_coeff in _reorder(b, a):
                key = (a - k, b - k)
                acc[key] = acc.get(key, _ZERO) + cc * reorder_coeff
        return WeylPolynomial(acc)

    def boost(self, theta) -> "WeylPolynomial":
        """Conjugation by ``exp(-theta p)``: substitute x -> x + i theta, keep p.

        An exact algebra homomorphism on polynomials; invertible via -theta.
        """
        t = _to_fraction(theta)
        if t == 0:
            return self
        acc: dict[tuple[int, int], RationalComplex] = {}
        for (a, b), c in self.terms.items():
            for j in range(a + 1):
                m = a - j
                re, im = _I_POW[m % 4]
                shift = RationalComplex(re * comb(a, j) * t ** m,
                                        im * comb(a, j) * t ** m)
                key = (j, b)
                acc[key] = acc.get(key, _ZERO) + c * shift
        return WeylPolynomial(acc)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[tuple[int, int], RationalComplex]]:
        """Terms sorted by (x power, p power); a deterministic presentation."""
        return sorted(self.terms.items(), key=lambda item: item[0])

    def coefficient(self, a: int, b: int) -> RationalComplex:
        return self.terms.get((a, b), _ZERO)

    def max_coefficient(self) -> float:
        """Largest coefficient magnitude, for float-tolerance comparisons."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def to_float_terms(self) -> dict[tuple[int, int], complex]:
        return {key: complex(c) for key, c in self.terms.items()}

    def __repr__(self) -> str:
        if self.is_zero():
            return "WeylPolynomial(0)"
        pieces = []
        for (a, b), c in self.sorted_terms():
            factors = [f"({c})"]
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if b:
                factors.append("p" if b == 1 else f"p^{b}")
            pieces.append(" ".join(factors))
        return "WeylPolynomial(" + " + ".join(pieces) + ")"


@dataclass(frozen=True)
class ShiftedPotentialSpec:
    """Data for ``H = p^2 + f(p) + alpha V(x - beta - i gamma)``.

    The boost parameter is always ``theta = 2 gamma``, recomputed on access
    and never stored independently.  V and f must have real coefficients;
    alpha, beta, gamma must be finite reals.
    """

    V: RealPolynomial
    alpha: float
    beta: float
    gamma: float
    f: RealPolynomial

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if isinstance(value, complex) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise InputError(f"{name} must be a real number, got {value!r}")
            if not np.isfinite(float(value)):
                raise InputError(f"{name} must be finite")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.V, RealPolynomial) or not isinstance(self.f, RealPolynomial):
            raise InputError("V and f must be RealPolynomial instances")

    @property
    def theta(self) -> float:
        return 2.0 * self.gamma


def build_shifted_hamiltonian(spec: ShiftedPotentialSpec) -> WeylPolynomial:
    """Expand ``p^2 + f(p) + alpha V(x - beta - i gamma)`` into normal order.

    The potential involves x only, so its expansion is a plain binomial in
    the commutative variable x with the exact complex shift -beta - i gamma.
    """
    H = WeylPolynomial.momentum(2)
    for degree, c in enumerate(spec.f.coeffs):
        if c != 0.0:
            H = H + WeylPolynomial.monomial(0, degree, c)
    if not spec.V.is_zero and spec.alpha != 0.0:
        alpha = RationalComplex(spec.alpha, 0)
        shift = RationalComplex(-Fraction(spec.beta), -Fraction(spec.gamma))
        x_shifted = WeylPolynomial({(1, 0): _ONE, (0, 0): shift})
        power = WeylPolynomial.constant(1)
        potential = WeylPolynomial.zero()
        for degree, c in enumerate(spec.V.coeffs):
            if degree > 0:
                power = power * x_shifted
            if c != 0.0:
                potential = potential + power.scale(c)
        H = H + potential.scale(alpha)
    return H


def check_symbolic(spec: ShiftedPotentialSpec,
                   theta_override: float | None = None) -> WeylPolynomial:
    """Residual ``boost(H, theta) - adjoint(H)`` for the shifted-potential Hamiltonian.

    With the derived theta = 2 gamma the residual is exactly zero, which
    certifies pseudo-Hermiticity under the momentum boost.  A nonzero
    residual (e.g. under ``theta_override``) is a result, not an error; its
    terms identify exactly where the identity fails.
    """
    H = build_shifted_hamiltonian(spec)
    if theta_override is None:
        theta = 2 * Fraction(spec.gamma)
    else:
        theta = _to_fraction(theta_override)
    return H.boost(theta) - H.adjoint()
