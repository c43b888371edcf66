"""Exact normal-ordered polynomial algebra in position x and momentum p.

Convention: ``[x, p] = i`` (p = -i d/dx, hbar = 1).  Every element is kept in
normal order, all x factors to the left of all p factors, which makes the
representation canonical: two polynomials are equal exactly when their term
maps coincide.  Reordering uses

    p^b x^c = sum_k  C(b, k) C(c, k) k! (-i)^k  x^(c-k) p^(b-k).

Coefficients are exact complex rationals.  A polynomial keeps them as
Gaussian-integer numerators ``(re, im)`` over one positive common
denominator, reduced so that no factor divides the denominator and every
numerator; equality is then a comparison of integers, and "residual is zero"
is a statement about integers, not floating point.  With dyadic
(float-derived) coefficients the reduction is mostly by a power of two, done
with shifts.  ``RationalComplex`` (a pair of ``fractions.Fraction``) is how
single coefficients enter and leave.  Floats entering through parameters are
converted exactly to their binary rational value.  ``RealPolynomial``, the
real coefficient list of the potential and of f, comes from ``errors``, so
this module needs nothing beyond the standard library.

Conjugation by the momentum boost ``exp(-theta p)`` fixes p and constants and
shifts x to x + i theta; on polynomials this substitution is an exact algebra
homomorphism, computed as a Taylor shift of the integer numerators.  That is
what certifies Hamiltonians ``p^2 + f(p) + alpha V(x - beta - i gamma)`` as
pseudo-Hermitian with boost parameter theta = 2 gamma: the boosted
Hamiltonian equals its adjoint coefficient by coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd, isfinite, lcm
from numbers import Integral, Rational

from .errors import InputError, RealPolynomial, _finite_real, _Record

# (-i)^k as a Gaussian integer (re, im), indexed by k mod 4
_NEG_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _rational_text(q: Fraction) -> str:
    """str(q) at any size; str() of an int raises beyond 4300 digits, Decimal does not."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def _to_fraction(value) -> Fraction:
    if isinstance(value, Rational):
        # int() keeps fixed-width integers, which wrap around, out of the exact arithmetic
        return Fraction(int(value.numerator), int(value.denominator))
    return Fraction(_finite_real(value, "an exact value"))


class RationalComplex:
    """One exact complex rational coefficient; its arithmetic runs on constant polynomials."""

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

    def __repr__(self) -> str:
        return f"RationalComplex({_rational_text(self.re)}, {_rational_text(self.im)})"

    def __str__(self) -> str:
        if self.im == 0:
            return _rational_text(self.re)
        if self.re == 0:
            return f"{_rational_text(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{_rational_text(self.re)}{sign}{_rational_text(abs(self.im))}i"


_ZERO = RationalComplex(0, 0)


def _numerator(value: Fraction, den: int) -> int:
    """Numerator of value over den, a multiple of its own denominator."""
    return value.numerator * (den // value.denominator)


def _gmul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (re, im) pairs."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _add_to(acc: dict, key: tuple[int, int], re: int, im: int) -> None:
    old = acc.get(key)
    acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _canonical(num: dict, den: int) -> tuple[dict, int]:
    """Drop zero numerators and divide out the common factor of den and the rest.

    Its power of two is shifted out; gcd runs on the odd part of den, and not
    at all when that is 1 (den dyadic), and only an odd gcd g > 1 is divided
    out.  The zero polynomial comes out as ``({}, 1)``.
    """
    num = {key: c for key, c in num.items() if c[0] or c[1]}
    low = den
    for re, im in num.values():
        low |= re | im
    t = (low & -low).bit_length() - 1
    odd = den >> (den & -den).bit_length() - 1
    g = gcd(odd, *(part for c in num.values() for part in c)) if odd > 1 else 1
    if t or g > 1:
        den = (den >> t) // g
        num = ({key: ((re >> t) // g, (im >> t) // g) for key, (re, im) in num.items()} if g > 1
               else {key: (re >> t, im >> t) for key, (re, im) in num.items()})
    return num, den


def _reorder(b: int, c: int):
    """Normal-order p^b x^c as ``[(k_drop, w)]`` over x^(c-k) p^(b-k).

    Each w = C(b, k) C(c, k) k! (-i)^k is a Gaussian integer.
    """
    for k in range(min(b, c) + 1):
        re, im = _NEG_I_POW[k % 4]
        scale = comb(b, k) * comb(c, k) * factorial(k)
        yield k, (re * scale, im * scale)


class _TermView(Mapping):
    """Read-only term map ``{(a, b): RationalComplex}`` of a polynomial.

    A coefficient is converted when it is read, so length, keys and
    membership cost no conversion.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, key) -> RationalComplex:
        re, im = self._num[key]
        return RationalComplex(Fraction(re, self._den), Fraction(im, self._den))

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __contains__(self, key) -> bool:
        return key in self._num

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class WeylPolynomial:
    """Normal-ordered polynomial ``sum c_ab x^a p^b`` with exact coefficients.

    Stored as Gaussian-integer numerators ``{(a, b): (re, im)}`` over one
    positive common denominator, in canonical form: no zero numerator, no
    factor shared by the denominator and every numerator, denominator 1 for
    the zero polynomial.  Equality of that form is equality of operators.
    Instances are treated as immutable; all arithmetic returns new
    polynomials.  Coefficients leave as ``RationalComplex``; they enter through
    ``RationalComplex.from_value``, except a finite float (``float.as_integer_ratio``).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        """From a term map; a float coefficient enters as its exact integer ratio, if finite."""
        parts = {}  # (a, b) -> (nr, dr, ni, di): coefficient nr/dr + i ni/di
        for key, coeff in (terms or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(
                    (type(e) is int or isinstance(e, Integral) and not isinstance(e, bool))
                    and e >= 0 for e in key)):
                raise InputError(f"exponents must be nonnegative integers, got {key!r}")
            if type(coeff) is float and isfinite(coeff):  # no Fraction: the ratio is exact
                parts[(int(key[0]), int(key[1]))] = (*coeff.as_integer_ratio(), 0, 1)
            else:
                c = RationalComplex.from_value(coeff)
                parts[(int(key[0]), int(key[1]))] = (*c.re.as_integer_ratio(),
                                                     *c.im.as_integer_ratio())
        den = lcm(*(d for _, dr, _, di in parts.values() for d in (dr, di)))
        self._set(*_canonical({key: (nr * (den // dr), ni * (den // di))
                               for key, (nr, dr, ni, di) in parts.items()}, den))

    @classmethod
    def _from(cls, num: dict, den: int) -> "WeylPolynomial":
        """Polynomial from Gaussian-integer numerators over den > 0."""
        self = object.__new__(cls)
        self._set(*_canonical(num, den))
        return self

    def _set(self, num: dict, den: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, _value):
        raise AttributeError(f"WeylPolynomial is immutable, cannot set {name!r}")

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "WeylPolynomial":
        return cls({(a, b): coeff})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        """``self + -other`` in one pass over other and with one reduction."""
        return self._combine(other, -1)

    def _combine(self, other: "WeylPolynomial", sign: int) -> "WeylPolynomial":
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        acc = {key: (re * f, im * f) for key, (re, im) in self._num.items()}
        for key, (re, im) in other._num.items():
            _add_to(acc, key, re * g, im * g)
        return WeylPolynomial._from(acc, den)

    def __neg__(self) -> "WeylPolynomial":
        return WeylPolynomial._from({k: (-re, -im) for k, (re, im) in self._num.items()},
                                    self._den)

    def scale(self, value) -> "WeylPolynomial":
        value = RationalComplex.from_value(value)
        den = lcm(value.re.denominator, value.im.denominator)
        w = (_numerator(value.re, den), _numerator(value.im, den))
        return WeylPolynomial._from({k: _gmul(c, w) for k, c in self._num.items()},
                                    self._den * den)

    def __mul__(self, other) -> "WeylPolynomial":
        """Exact normal-ordered product (associative, bilinear); scalars scale."""
        if not isinstance(other, WeylPolynomial):
            return self.scale(other)
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for (a1, b1), c1 in self._num.items():
            for (a2, b2), c2 in other._num.items():
                c12 = _gmul(c1, c2)
                for k, w in _reorder(b1, a2):
                    _add_to(acc, (a1 + a2 - k, b1 + b2 - k), *_gmul(c12, w))
        return WeylPolynomial._from(acc, self._den * other._den)

    def __rmul__(self, other) -> "WeylPolynomial":
        # only scalars reach here; scalars commute with everything
        return self.scale(other)

    def adjoint(self) -> "WeylPolynomial":
        """Operator adjoint: ``(c x^a p^b)^dag = conj(c) p^b x^a``, renormal-ordered;
        a term with a == 0 or b == 0 is already in normal order and is only conjugated."""
        acc = {(a, b): (re, -im) for (a, b), (re, im) in self._num.items() if not (a and b)}
        for (a, b), (re, im) in self._num.items():
            if a and b:
                for k, w in _reorder(b, a):
                    _add_to(acc, (a - k, b - k), *_gmul((re, -im), w))
        return WeylPolynomial._from(acc, self._den)

    def boost(self, theta) -> "WeylPolynomial":
        """Conjugation by ``exp(-theta p)``: substitute x -> x + i theta, keep p.

        An exact algebra homomorphism on polynomials; invertible via -theta.
        """
        return self._shift_x(RationalComplex(0, theta))

    def _shift_x(self, shift: RationalComplex) -> "WeylPolynomial":
        """Substitute x -> x + shift for a constant shift; p and normal order stay.

        With shift = s/v, s a Gaussian integer, and top the highest x power,
        each p^b part q(x) becomes ``v^-top r(v x + s)`` with
        ``r(y) = v^top q(y/v)``: a Taylor shift by s = sr + i si, Horner's rule in two
        passes over the real and imaginary numerator lists: by sr on each list with a
        nonzero entry, then by i si, coupling the two.  A pass whose part of s is zero
        is skipped, so a step costs two products in a boost and three for a real V.
        """
        if shift.is_zero() or not self._num:
            return self
        v = lcm(shift.re.denominator, shift.im.denominator)
        sr, si = _numerator(shift.re, v), _numerator(shift.im, v)
        t = (v & -v).bit_length() - 1
        top = max(a for a, _ in self._num)
        odd_pow = [(v >> t) ** j for j in range(top + 1)]  # v^j is odd_pow[j] << t*j
        acc: dict[tuple[int, int], tuple[int, int]] = {}
        for b in {b for _, b in self._num}:
            degree = max(a for a, b_ in self._num if b_ == b)
            real, imag = [], []
            for a in range(degree + 1):
                re, im = self._num.get((a, b), (0, 0))
                m = top - a
                real.append((re * odd_pow[m]) << t * m)
                imag.append((im * odd_pow[m]) << t * m)
            # Horner's Taylor shifts; c, or (re, im), is the entry j + 1, just updated
            for part in (real, imag) if sr else ():
                for i in range(degree if any(part) else 0):
                    c = part[degree]
                    for j in range(degree - 1, i - 1, -1):
                        c = part[j] = part[j] + sr * c
            for i in range(degree if si else 0):
                re, im = real[degree], imag[degree]
                for j in range(degree - 1, i - 1, -1):
                    re, im = real[j] - si * im, imag[j] + si * re
                    real[j], imag[j] = re, im
            for j in range(degree + 1):
                acc[(j, b)] = ((real[j] * odd_pow[j]) << t * j, (imag[j] * odd_pow[j]) << t * j)
        return WeylPolynomial._from(acc, (self._den * odd_pow[top]) << t * top)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, int], RationalComplex]:
        """Term map ``{(a, b): coefficient}``; it never holds a zero coefficient."""
        return _TermView(self._num, self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, int], RationalComplex]]:
        """Terms sorted by (x power, p power); a deterministic presentation."""
        return sorted(self.terms.items(), key=lambda item: item[0])

    def coefficient(self, a: int, b: int) -> RationalComplex:
        return self.terms.get((a, b), _ZERO)

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


class ShiftedPotentialSpec(_Record):
    """Data for ``H = p^2 + f(p) + alpha V(x - beta - i gamma)``.

    The boost parameter is always ``theta = 2 gamma``, recomputed exactly on
    access and never stored independently.  V and f must have real
    coefficients; alpha, beta, gamma must pass the finite-real rule of
    ``_finite_real`` and are stored as floats.
    """

    _fields = ("V", "alpha", "beta", "gamma", "f")

    def __init__(self, V: RealPolynomial, alpha: float, beta: float, gamma: float,
                 f: RealPolynomial):
        vars(self).update(V=V, alpha=_finite_real(alpha, "alpha"), beta=_finite_real(beta, "beta"),
                          gamma=_finite_real(gamma, "gamma"), f=f)
        if not isinstance(V, RealPolynomial) or not isinstance(f, RealPolynomial):
            raise InputError("V and f must be RealPolynomial instances")

    @property
    def theta(self) -> Fraction:
        """The exact rational 2 gamma; it may lie beyond the double range."""
        return 2 * Fraction(self.gamma)


def build_shifted_hamiltonian(spec: ShiftedPotentialSpec) -> WeylPolynomial:
    """Expand ``p^2 + f(p) + alpha V(x - beta - i gamma)`` into normal order.

    Every coefficient is a finite float, so a dyadic rational: ``p^2 + f(p) +
    alpha V(x)`` is written at once as integer numerators over the largest of
    their denominators, a power of two, with alpha multiplied into V's numerators
    and colliding terms summed.  The potential involves x only, so one Taylor
    shift x -> x - beta - i gamma expands it and leaves ``p^2 + f(p)`` alone.
    """
    na, da = spec.alpha.as_integer_ratio()
    f, V = (map(float.as_integer_ratio, poly.coeffs) for poly in (spec.f, spec.V))
    parts = [((0, 2), 1, 1), *(((0, b), n, d) for b, (n, d) in enumerate(f)),
             *(((a, 0), na * n, da * d) for a, (n, d) in enumerate(V))]
    den = max(d for _, _, d in parts)
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for key, n, d in parts:
        _add_to(acc, key, n * (den // d), 0)
    return WeylPolynomial._from(acc, den)._shift_x(RationalComplex(-spec.beta, -spec.gamma))


def boost_residual(H: WeylPolynomial, theta) -> WeylPolynomial:
    """Residual ``boost(H, theta) - adjoint(H)``: zero exactly when the momentum
    boost ``exp(-theta p)`` intertwines H with its adjoint."""
    return H.boost(theta) - H.adjoint()


def check_symbolic(spec: ShiftedPotentialSpec,
                   theta_override: float | None = None) -> WeylPolynomial:
    """Boost residual of the shifted-potential Hamiltonian (see ``boost_residual``).

    With the derived theta = 2 gamma the residual is exactly zero, which
    certifies pseudo-Hermiticity under the momentum boost.  A nonzero
    residual (e.g. under ``theta_override``) is a result, not an error; its
    terms identify exactly where the identity fails.
    """
    theta = spec.theta if theta_override is None else theta_override
    return boost_residual(build_shifted_hamiltonian(spec), theta)
