import ast
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_weyl_adjoint,
    fraction_weyl_boost,
    fraction_weyl_mul,
    fraction_weyl_shift,
    gcd_canonical,
    oscillator_basis_matrices,
    weyl_terms_to_matrix,
)
from pseudoherm import (
    InputError,
    RationalComplex,
    RealPolynomial,
    ShiftedPotentialSpec,
    WeylPolynomial,
    boost_residual,
    build_shifted_hamiltonian,
    check_symbolic,
    weyl,
)

X = WeylPolynomial.monomial(1, 0)
P = WeylPolynomial.monomial(0, 1)


def random_poly(rng, max_degree=4, span=5):
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        a = int(rng.integers(0, max_degree + 1))
        b = int(rng.integers(0, max_degree + 1 - a))
        terms[(a, b)] = RationalComplex(int(rng.integers(-span, span + 1)),
                                        int(rng.integers(-span, span + 1)))
    return WeylPolynomial(terms)


def spec_of(V, alpha=1.0, beta=0.0, gamma=1.0, f=()):
    return ShiftedPotentialSpec(V=RealPolynomial(V), alpha=alpha, beta=beta,
                                gamma=gamma, f=RealPolynomial(f))


# Rationals with non-dyadic denominators, so a common denominator is not
# always a power of two.
rationals = st.one_of(st.sampled_from([Fraction(1, 3), Fraction(-5, 7), Fraction(0)]),
                      st.fractions(min_value=-4, max_value=4, max_denominator=15))
polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.builds(RationalComplex, rationals, rationals),
                        max_size=4).map(WeylPolynomial)
nonzero = rationals.filter(lambda q: q != 0)

# Doubles at the ends of the exponent range, subnormals included: their
# common denominators are powers of two up to 2^1074.
dyadics = st.one_of(
    st.sampled_from([5e-324, -2.0 ** -1022, 1e-300, 1.0, 1e300, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False)).map(Fraction)
dyadic_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.builds(RationalComplex, dyadics, dyadics),
                               max_size=4).map(WeylPolynomial)


complex_rationals = st.builds(RationalComplex, rationals, rationals)
shift_values = st.one_of(nonzero, st.sampled_from([Fraction(7, 48), Fraction(5, 3 * 2 ** 60)]),
                         dyadics.filter(bool))


def shift_polys(coefficients):
    """Up to six terms x^a p^b, a <= 6 and b <= 3: several p-parts, several Horner steps."""
    return st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)), coefficients,
                           min_size=1, max_size=6).map(WeylPolynomial)


@st.composite
def colliding_polys(draw):
    """A mixed term x^a p^b (a, b >= 1), the pure term its last reordering
    lands on, x^(a-m) p^(b-m) with m = min(a, b), and up to three more terms."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                 complex_rationals, max_size=3))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = min(a, b)
    for key in ((a, b), (a - m, b - m)):
        terms[key] = draw(st.builds(RationalComplex, nonzero, rationals))
    return WeylPolynomial(terms)


@st.composite
def numerator_maps(draw):
    """Gaussian-integer numerators over den = 2^k * odd, k up to 3000, sharing
    an odd factor and powers of two of their own."""
    shared = draw(st.sampled_from([1, 3, 35, 3 ** 40]))
    den = (shared * (2 * draw(st.integers(0, 10 ** 6)) + 1)) << draw(st.integers(0, 3000))
    part = st.one_of(st.just(0), st.builds(lambda m, k: shared * m << k,
                                           st.integers(-2 ** 70, 2 ** 70), st.integers(0, 3000)))
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         unique=True, max_size=6))
    return {key: (draw(part), draw(part)) for key in keys}, den


def fraction_terms(poly):
    return {key: (c.re, c.im) for key, c in poly.terms.items()}


def fraction_sub(A, B):
    out = dict(A)
    for key, (re, im) in B.items():
        old = out.get(key, (0, 0))
        out[key] = (old[0] - re, old[1] - im)
    return {key: z for key, z in out.items() if z[0] or z[1]}


def fraction_shifted_hamiltonian(spec):
    """p^2 + f(p) + alpha V(x - beta - i gamma) by term-by-term Fraction products."""
    one = (Fraction(1), Fraction(0))
    terms = {(0, 2): one}
    for degree, c in enumerate(spec.f.coeffs):
        old = terms.get((0, degree), (Fraction(0), Fraction(0)))
        terms[(0, degree)] = (old[0] + Fraction(c), old[1])
    x_shifted = {(1, 0): one, (0, 0): (-Fraction(spec.beta), -Fraction(spec.gamma))}
    power = {(0, 0): one}
    for degree, c in enumerate(spec.V.coeffs):
        if degree > 0:
            power = fraction_weyl_mul(power, x_shifted)
        for key, (re, im) in power.items():
            old = terms.get(key, (Fraction(0), Fraction(0)))
            scale = Fraction(spec.alpha) * Fraction(c)
            terms[key] = (old[0] + scale * re, old[1] + scale * im)
    return {key: z for key, z in terms.items() if z[0] or z[1]}


class TestRationalComplex:
    def test_exact_arithmetic(self):
        # coefficient arithmetic runs on constant polynomials
        z = WeylPolynomial.monomial(0, 0, RationalComplex(Fraction(1, 3), Fraction(1, 2)))
        w = WeylPolynomial.monomial(0, 0, RationalComplex(2, -1))
        assert (z * w).coefficient(0, 0).re == Fraction(2, 3) + Fraction(1, 2)
        assert (z + w).coefficient(0, 0).im == Fraction(-1, 2)
        assert z * w == w * z
        assert (WeylPolynomial.monomial(0, 0) - z).coefficient(0, 0) == \
            RationalComplex(Fraction(2, 3), Fraction(-1, 2))
        assert hash(RationalComplex(Fraction(4, 2), 0)) == hash(RationalComplex(2, 0))
        c = z.coefficient(0, 0)
        assert c != "1/3+1/2i" and c != [c.re, c.im]  # no RationalComplex: not equal

    def test_conjugate_and_zero(self):
        z = WeylPolynomial.monomial(0, 0, RationalComplex(0, 1))
        assert z.adjoint().coefficient(0, 0) == RationalComplex(0, -1)
        assert (z - z).is_zero() and (z - z).coefficient(0, 0).is_zero()

    def test_float_conversion_is_exact(self):
        z = RationalComplex(0.1, 0.0)
        assert z.re == Fraction(0.1)  # binary value, not 1/10

    def test_immutable(self):
        z = RationalComplex(1, 2)
        with pytest.raises(AttributeError):
            z.re = Fraction(3)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(), st.fractions())
    @example(Fraction(0), Fraction(-3, 2))  # purely imaginary
    def test_text_is_that_of_str_of_the_fractions(self, re, im):
        z = RationalComplex(re, im)
        if im == 0:
            text = str(re)
        elif re == 0:
            text = f"{im}i"
        else:
            text = f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
        assert str(z) == text
        assert repr(z) == f"RationalComplex({re}, {im})"

    def test_polynomial_repr(self):
        H = ((P * X).scale(RationalComplex(Fraction(-3, 4), 2))
             + WeylPolynomial.monomial(2, 0, Fraction(1, 3))
             + WeylPolynomial.monomial(0, 0, -0.5j))
        assert repr(H) == "WeylPolynomial((2+1/4i) + (-3/4+2i) x p + (1/3) x^2)"
        assert repr(H.terms) == ("{(1, 1): RationalComplex(-3/4, 2), (0, 0): RationalComplex(2, 1/4), "
                                 "(2, 0): RationalComplex(1/3, 0)}")
        assert repr(WeylPolynomial()) == "WeylPolynomial(0)"


class TestNormalMultiply:
    def test_already_ordered(self):
        assert (X * P).terms == {(1, 1): RationalComplex(1)}

    def test_defining_commutator(self):
        out = P * X
        assert out.terms == {(1, 1): RationalComplex(1), (0, 0): RationalComplex(0, -1)}

    def test_p2_x2(self):
        out = (P * P) * (X * X)
        assert out.terms == {(2, 2): RationalComplex(1),
                             (1, 1): RationalComplex(0, -4),
                             (0, 0): RationalComplex(-2)}

    def test_p2_x2_against_truncated_basis_oracle(self):
        levels = 12
        x, p = oscillator_basis_matrices(levels)
        direct = p @ p @ x @ x
        ordered = weyl_terms_to_matrix(((P * P) * (X * X)).terms, x, p)
        inner = levels - 4
        assert np.allclose(direct[:inner, :inner], ordered[:inner, :inner], atol=1e-12)

    def test_random_products_against_oracle(self):
        rng = np.random.default_rng(17)
        levels = 16
        x, p = oscillator_basis_matrices(levels)
        for _ in range(10):
            A = random_poly(rng, max_degree=3)
            B = random_poly(rng, max_degree=3)
            product = weyl_terms_to_matrix((A * B).terms, x, p)
            direct = weyl_terms_to_matrix(A.terms, x, p) @ weyl_terms_to_matrix(B.terms, x, p)
            inner = levels - 8
            assert np.allclose(direct[:inner, :inner], product[:inner, :inner],
                               atol=1e-9 * max(1.0, np.abs(direct).max()))

    def test_associative_and_bilinear(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            A, B, C = (random_poly(rng) for _ in range(3))
            assert (A * B) * C == A * (B * C)
            assert A * (B + C) == A * B + A * C

    def test_no_zero_coefficients_stored(self):
        cancel = X * P - X * P
        assert cancel.terms == {}
        assert cancel.is_zero()


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        h = X * X + P * P
        assert h.adjoint() == h

    def test_coefficient_conjugated(self):
        assert X.scale(RationalComplex(0, 1)).adjoint() == X.scale(RationalComplex(0, -1))

    def test_xp_adjoint_reorders(self):
        out = (X * P).adjoint()
        assert out.terms == {(1, 1): RationalComplex(1), (0, 0): RationalComplex(0, -1)}

    def test_involution_and_antihomomorphism(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            A, B = random_poly(rng), random_poly(rng)
            assert A.adjoint().adjoint() == A
            assert (A * B).adjoint() == B.adjoint() * A.adjoint()


class TestBoost:
    def test_momentum_invariant(self):
        p3 = WeylPolynomial.monomial(0, 3)
        assert p3.boost(1.7) == p3

    def test_constant_invariant(self):
        c = WeylPolynomial.monomial(0, 0, RationalComplex(2, -3))
        assert c.boost(0.4) == c

    def test_x_squared_shift(self):
        out = (X * X).boost(2)
        assert out.terms == {(2, 0): RationalComplex(1),
                             (1, 0): RationalComplex(0, 4),
                             (0, 0): RationalComplex(-4)}

    def test_homomorphism_and_inverse(self):
        rng = np.random.default_rng(31)
        theta = Fraction(3, 7)
        for _ in range(30):
            A, B = random_poly(rng), random_poly(rng)
            assert (A * B).boost(theta) == A.boost(theta) * B.boost(theta)
            assert A.boost(theta).boost(-theta) == A


class TestTwoPassShift:
    """``_shift_x`` in each of its branches (real pass, imaginary pass, both,
    neither) against the binomial theorem in Fractions."""

    @pytest.mark.parametrize("kind", ["real", "imaginary", "complex", "zero"])
    @pytest.mark.parametrize("coefficients", [st.builds(RationalComplex, rationals),
                                              complex_rationals], ids=["real-V", "complex-V"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_the_binomial_theorem(self, kind, coefficients, data):
        A = data.draw(shift_polys(coefficients))
        re = data.draw(shift_values) if kind in ("real", "complex") else Fraction(0)
        im = data.draw(shift_values) if kind in ("imaginary", "complex") else Fraction(0)
        assert fraction_terms(A._shift_x(RationalComplex(re, im))) == \
            fraction_weyl_shift(fraction_terms(A), (re, im))


class TestAdjointAndDifference:
    """Copied pure terms and reordered mixed ones landing on the same key."""

    @settings(max_examples=100, deadline=None)
    @given(colliding_polys())
    @example(WeylPolynomial({(2, 2): 1, (0, 0): RationalComplex(0, 1)}))
    def test_adjoint_matches_fractions(self, A):
        assert fraction_terms(A.adjoint()) == fraction_weyl_adjoint(fraction_terms(A))

    @settings(max_examples=100, deadline=None)
    @given(colliding_polys(), st.one_of(colliding_polys(), polys, dyadic_polys))
    def test_difference_matches_fractions_and_the_negated_sum(self, A, B):
        for left, right in ((A, B), (B, A), (A.boost(Fraction(1, 3)), A.adjoint())):
            difference = left - right
            assert fraction_terms(difference) == \
                fraction_sub(fraction_terms(left), fraction_terms(right))
            assert difference == left + (-right)


class TestBuildShiftedHamiltonian:
    def test_quadratic_potential(self):
        out = build_shifted_hamiltonian(spec_of([0, 0, 1]))
        assert out.terms == {(0, 2): RationalComplex(1),
                             (2, 0): RationalComplex(1),
                             (1, 0): RationalComplex(0, -2),
                             (0, 0): RationalComplex(-1)}

    def test_momentum_interaction_added(self):
        out = build_shifted_hamiltonian(spec_of([0, 0, 1], f=[0, 2]))
        assert out.coefficient(0, 1) == RationalComplex(2)
        assert out.coefficient(0, 2) == RationalComplex(1)
        assert out.coefficient(1, 0) == RationalComplex(0, -2)

    def test_free_hamiltonian(self):
        out = build_shifted_hamiltonian(spec_of([], gamma=0.5))
        assert out == WeylPolynomial.monomial(0, 2)

    def test_beta_enters_real_shift(self):
        out = build_shifted_hamiltonian(spec_of([0, 1], beta=3.0, gamma=0.0))
        assert out.coefficient(0, 0) == RationalComplex(-3)


class TestCheckSymbolic:
    def test_derived_theta_certifies(self):
        assert check_symbolic(spec_of([0, 0, 1])).is_zero()

    def test_theta_zero_fails_with_linear_term(self):
        out = check_symbolic(spec_of([0, 0, 1]), theta_override=0.0)
        # boost(H, 0) - adjoint(H) = (x - i)^2 - (x + i)^2 = -4i x
        assert out.terms == {(1, 0): RationalComplex(0, -4)}

    def test_pure_momentum_any_theta(self):
        spec = spec_of([], f=[1.5, 0.25, 0, 2], gamma=0.8)
        for theta in (0.0, 1.0, -2.5):
            assert check_symbolic(spec, theta_override=theta).is_zero()

    def test_exact_for_random_specs(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            v = rng.uniform(-2, 2, size=int(rng.integers(1, 10)))
            f = rng.uniform(-2, 2, size=int(rng.integers(0, 5)))
            spec = spec_of(v, alpha=float(rng.uniform(-3, 3)),
                           beta=float(rng.uniform(-3, 3)),
                           gamma=float(rng.uniform(-3, 3)), f=f)
            assert check_symbolic(spec).is_zero()

    def test_perturbed_theta_detected(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            gamma = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0.001, 0.1))
            spec = spec_of([0, 1, 1], alpha=1.5, beta=0.3, gamma=gamma)
            assert not check_symbolic(spec, theta_override=2 * gamma + delta).is_zero()

    def test_float_theta_override_matching_derived_value(self):
        spec = spec_of([0, 0, 1], gamma=0.3)
        # 2*gamma in doubles is exact (power-of-two scaling)
        assert check_symbolic(spec, theta_override=2 * 0.3).is_zero()


class TestShiftedPotentialSpec:
    def test_theta_recomputed(self):
        spec = spec_of([1], gamma=1.25)
        assert spec.theta == 2.5

    def test_theta_is_exact_beyond_the_double_range(self):
        spec = spec_of([0, 0, 1], gamma=1e308)
        assert spec.theta == 2 * Fraction(1e308)
        assert isinstance(spec.theta, Fraction)
        assert check_symbolic(spec).is_zero()

    def test_complex_parameter_rejected(self):
        with pytest.raises(InputError):
            ShiftedPotentialSpec(V=RealPolynomial([1]), alpha=1j, beta=0.0,
                                 gamma=0.0, f=RealPolynomial([]))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            spec_of([1], gamma=np.inf)

    def test_polynomials_must_be_real_polynomials(self):
        with pytest.raises(InputError, match="V and f must be RealPolynomial instances"):
            ShiftedPotentialSpec(V=[0, 0, 1], alpha=1.0, beta=0.0, gamma=1.0,
                                 f=RealPolynomial([]))


# (value, its exact rational) for every kind of real the finite-real rule accepts
ACCEPTED_REALS = [(3, Fraction(3)), (2.5, Fraction(5, 2)), (Fraction(1, 3), Fraction(1, 3)),
                  (np.int64(3), Fraction(3)), (np.float32(0.5), Fraction(1, 2))]
REJECTED_REALS = [True, 1j, np.complex128(1), "1", np.inf, np.nan,
                  pytest.param(10**400, id="10**400")]
REAL_PARAMETERS = {
    "RealPolynomial": lambda v: RealPolynomial([0, v]).coeffs[1],
    "alpha": lambda v: spec_of([1], alpha=v).alpha,
    "beta": lambda v: spec_of([1], beta=v).beta,
    "gamma": lambda v: spec_of([1], gamma=v).gamma,
}


class TestFiniteRealRule:
    @pytest.mark.parametrize("value, exact", ACCEPTED_REALS)
    @pytest.mark.parametrize("parameter", list(REAL_PARAMETERS))
    def test_accepted_as_float(self, parameter, value, exact):
        stored = REAL_PARAMETERS[parameter](value)
        assert type(stored) is float
        assert stored == float(exact)

    @pytest.mark.parametrize("value", REJECTED_REALS)
    @pytest.mark.parametrize("parameter", list(REAL_PARAMETERS))
    def test_rejected(self, parameter, value):
        with pytest.raises(InputError):
            REAL_PARAMETERS[parameter](value)

    @pytest.mark.parametrize("value, exact", ACCEPTED_REALS)
    def test_constant_is_exact(self, value, exact):
        assert WeylPolynomial.monomial(0, 0, value).coefficient(0, 0) == RationalComplex(exact)

    @pytest.mark.parametrize("value", ["1", np.inf, np.nan, True, np.True_], ids=repr)
    def test_constant_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(InputError):
            WeylPolynomial.monomial(0, 0, value)

    def test_constant_takes_any_rational_and_complex_values(self):
        # exact coefficients have no double range; complex values are split into parts
        assert WeylPolynomial.monomial(0, 0, 10**400).coefficient(0, 0) == \
            RationalComplex(10**400)
        assert WeylPolynomial.monomial(0, 0, np.complex128(1)) == WeylPolynomial.monomial(0, 0, 1)
        assert WeylPolynomial.monomial(0, 0, 1j) == \
            WeylPolynomial.monomial(0, 0, RationalComplex(0, 1))
        assert WeylPolynomial.monomial(0, 0, np.complex64(1 + 2j)) == \
            WeylPolynomial.monomial(0, 0, RationalComplex(1, 2))

    def test_fixed_width_integers_become_python_integers(self):
        # an int64 numerator would wrap around on the first sum
        big = WeylPolynomial.monomial(0, 0, np.int64(2**62))
        assert big + big == WeylPolynomial.monomial(0, 0, 2**63)
        assert big.scale(Fraction(1, 3**50)).coefficient(0, 0) == \
            RationalComplex(Fraction(2**62, 3**50))


# Every kind of coefficient a term map takes, floats from the whole double range
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.0 ** -1074 * 3, 2.0 ** -1022, 1e-308,
                     1.7976931348623157e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))
coefficients = st.one_of(
    finite_floats, finite_floats.map(np.float64), st.integers(-10 ** 30, 10 ** 30), rationals,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(RationalComplex, rationals, dyadics))


class TestFloatCoefficients:
    """A finite float enters a term map as its exact integer ratio, every other value
    through RationalComplex.from_value: both give the polynomial of the Fraction values."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), coefficients,
                           max_size=8))
    def test_term_map_equals_the_sum_of_fraction_monomials(self, terms):
        expected = sum((WeylPolynomial.monomial(a, b, Fraction(c) if isinstance(c, float) else c)
                        for (a, b), c in terms.items()), WeylPolynomial())
        poly = WeylPolynomial(terms)
        assert poly == expected
        assert (poly._num, poly._den) == (expected._num, expected._den)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float64(np.inf)], ids=repr)
    def test_non_finite_floats_raise_the_from_value_error(self, value):
        with pytest.raises(InputError) as expected:
            RationalComplex.from_value(value)
        with pytest.raises(InputError) as excinfo:
            WeylPolynomial({(1, 0): 0.5, (0, 1): value})
        assert str(excinfo.value) == str(expected.value)

    def test_numpy_float_accepted(self):
        assert WeylPolynomial({(1, 0): np.float64(0.1)}).coefficient(1, 0) == \
            RationalComplex(Fraction(0.1))

    @settings(max_examples=100, deadline=None)
    @given(finite_floats)
    def test_p_squared_in_f_adds_exactly(self, c):
        H = build_shifted_hamiltonian(spec_of([0, 1], f=[0, 0, c]))
        assert H.coefficient(0, 2) == RationalComplex(1 + Fraction(c))

    def test_rational_complex_values_do_not_grow_with_the_degree(self, monkeypatch):
        # float coefficients, and the Taylor shift, make no RationalComplex per term
        made = []
        init = RationalComplex.__init__

        def counted(self, re=0, im=0):
            made.append(1)
            init(self, re, im)

        monkeypatch.setattr(RationalComplex, "__init__", counted)
        rng = np.random.default_rng(7)
        counts = []
        for degree in (4, 32):
            spec = spec_of(rng.standard_normal(degree + 1).tolist(), alpha=1.25, beta=0.3,
                           gamma=0.7, f=rng.standard_normal(5).tolist())
            made.clear()
            assert check_symbolic(spec).is_zero()
            assert not check_symbolic(spec, theta_override=0.5).is_zero()
            counts.append(len(made))
        assert counts[0] == counts[1]


def test_weyl_module_needs_only_the_standard_library():
    tree = ast.parse(Path(weyl.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "") if node.level
                         else node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {".errors"}


class TestWeylPolynomialBasics:
    def test_negative_exponents_rejected(self):
        with pytest.raises(InputError):
            WeylPolynomial({(-1, 0): 1})

    @pytest.mark.parametrize("key", [("2", 0), (None, 0), (True, 0), (0, False), (2.0, 0),
                                     (1, 2, 3), 5])
    def test_non_integer_exponents_rejected_naming_the_key(self, key):
        with pytest.raises(InputError) as excinfo:
            WeylPolynomial({key: 1})
        assert str(excinfo.value).endswith(repr(key))

    def test_numpy_integer_exponents_accepted(self):
        poly = WeylPolynomial({(np.int64(2), np.uint8(1)): 3})
        assert poly == WeylPolynomial.monomial(2, 1, 3)
        assert all(type(e) is int for key in poly.terms for e in key)

    def test_equality_is_term_map_equality(self):
        assert X * P + WeylPolynomial.monomial(0, 0, RationalComplex(0, -1)) == P * X
        assert X != {(1, 0): 1} and X != 0  # only a WeylPolynomial compares
        assert (1, 0) in X.terms and (0, 1) not in X.terms

    def test_immutable(self):
        with pytest.raises(AttributeError, match="WeylPolynomial is immutable"):
            X.terms = {}

    def test_sorted_terms_deterministic(self):
        poly = P * P + X + WeylPolynomial.monomial(0, 0, 5)
        assert [key for key, _ in poly.sorted_terms()] == [(0, 0), (0, 2), (1, 0)]

    def test_scalar_multiplication(self):
        assert (2 * X).coefficient(1, 0) == RationalComplex(2)
        assert (X * Fraction(1, 2)).coefficient(1, 0) == RationalComplex(Fraction(1, 2))


class TestExactProperties:
    """Algebra laws on coefficients whose common denominator is not dyadic."""

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_product_associative(self, A, B, C):
        assert (A * B) * C == A * (B * C)

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_adjoint_involution(self, A):
        assert A.adjoint().adjoint() == A

    @settings(max_examples=60, deadline=None)
    @given(polys, rationals)
    def test_boost_inverse(self, A, theta):
        assert A.boost(theta).boost(-theta) == A

    @settings(max_examples=60, deadline=None)
    @given(polys, nonzero)
    def test_built_two_ways_equal_and_hash_equal(self, A, q):
        for B in (A.scale(3).scale(Fraction(1, 3)), A.scale(q).scale(1 / q),
                  sum((WeylPolynomial.monomial(a, b, c) for (a, b), c in A.terms.items()),
                      WeylPolynomial())):
            assert B == A
            assert hash(B) == hash(A)
            assert B.terms == A.terms

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_stored_form_is_canonical(self, A, B):
        for poly in (A * B, A + B, A - B, A - A, A.adjoint(), A.boost(Fraction(2, 3))):
            parts = [part for c in poly._num.values() for part in c]
            assert poly._den > 0
            assert all(c != (0, 0) for c in poly._num.values())
            assert gcd(poly._den, *parts) == 1
            if not parts:
                assert poly._den == 1


    @settings(max_examples=60, deadline=None)
    @given(dyadic_polys, dyadic_polys, dyadic_polys)
    def test_dyadic_extremes_product_associative_and_matches_fractions(self, A, B, C):
        assert (A * B) * C == A * (B * C)
        assert fraction_terms(A * B) == fraction_weyl_mul(fraction_terms(A), fraction_terms(B))

    @settings(max_examples=60, deadline=None)
    @given(dyadic_polys, dyadic_polys, dyadics)
    def test_dyadic_extremes_boost_homomorphism_and_inverse(self, A, B, theta):
        assert (A * B).boost(theta) == A.boost(theta) * B.boost(theta)
        assert A.boost(theta).boost(-theta) == A
        assert fraction_terms(A.boost(theta)) == fraction_weyl_boost(fraction_terms(A), theta)
        for poly in (A * B, A.boost(theta), A.adjoint() - B):
            assert gcd(poly._den, *(part for c in poly._num.values() for part in c)) == 1


class TestCanonicalForm:
    """The stored form against a plain-gcd reduction of the same numerators."""

    @settings(max_examples=200, deadline=None)
    @given(numerator_maps())
    def test_matches_gcd_reduction(self, num_den):
        num, den = num_den
        assert weyl._canonical(dict(num), den) == gcd_canonical(num, den)

    @pytest.mark.parametrize("num, den", [
        ({}, 1), ({}, 2 ** 3000 * 3), ({(0, 0): (0, 0)}, 8),
        ({(0, 0): (-12, 0), (1, 0): (0, 40)}, 48),
        ({(0, 0): (2 ** 3000, -(2 ** 7)), (2, 1): (0, 2 ** 5)}, 2 ** 2999),
    ])
    def test_edge_cases(self, num, den):
        assert weyl._canonical(dict(num), den) == gcd_canonical(num, den)


class TestScaleSweep:
    """Degree-32 specs whose shifts sit at the ends of the double range."""

    V = np.random.default_rng(32).standard_normal(33).tolist()

    @pytest.fixture(params=[(1e-300, 1e-300), (5e-324, 5e-324), (1e300, 1e300),
                            (1e-300, 1e300), (1e300, 5e-324), (-5e-324, 1e-300)],
                    ids=["1e-300", "5e-324", "1e300", "tiny-beta", "tiny-gamma", "subnormal-beta"])
    def spec(self, request):
        beta, gamma = request.param
        return spec_of(self.V, alpha=1.375, beta=beta, gamma=gamma, f=[0.5, -2.0, 0.25])

    def test_derived_theta_certifies(self, spec):
        assert check_symbolic(spec).is_zero()

    def test_wrong_theta_gives_the_exact_leading_residual(self, spec):
        theta = 3 * spec.theta
        residual = check_symbolic(spec, theta_override=theta)
        assert all(b == 0 and a <= 31 for a, b in residual.terms)
        lead = 32 * Fraction(spec.alpha) * Fraction(self.V[-1]) * (theta - 2 * Fraction(spec.gamma))
        assert residual.coefficient(31, 0) == RationalComplex(0, lead)

    def test_repr_beyond_the_int_string_limit(self):
        # at gamma = 1e-300, H's constant term has more digits than str() of an int allows
        H = build_shifted_hamiltonian(spec_of(self.V, alpha=1.375, beta=0.5, gamma=1e-300,
                                              f=[0.25]))
        c = H.coefficient(0, 0)
        im = f"{Decimal(c.im.numerator)}/{Decimal(c.im.denominator)}"
        assert len(im) > 2 * sys.get_int_max_str_digits()
        assert str(c).endswith(("+" if c.im > 0 else "-") + im.lstrip("-") + "i")
        assert repr(c).endswith(f", {im})")
        assert f"({c})" in repr(H)
        assert repr(c) in repr(H.terms)

    def test_mixed_denominator_shift_matches_fractions(self):
        # shift denominators 48 = 3 * 2^4 and 3 * 2^60: odd and power-of-two parts
        H = build_shifted_hamiltonian(spec_of(self.V, alpha=1.375, beta=-0.3, gamma=0.7,
                                              f=[0.5, -2.0, 0.25]))
        ref = fraction_terms(H)
        shift = RationalComplex(Fraction(7, 48), Fraction(5, 3 * 2 ** 60))
        assert fraction_terms(H._shift_x(shift)) == fraction_weyl_shift(ref, (shift.re, shift.im))
        for theta in (shift.re, shift.im):
            assert fraction_terms(H.boost(theta)) == fraction_weyl_boost(ref, theta)


# Spec coefficients from the whole double range, subnormals included
spec_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False), st.floats(-4, 4))
shifted_specs = st.builds(spec_of, st.lists(spec_floats, max_size=9), alpha=spec_floats,
                          beta=spec_floats, gamma=spec_floats,
                          f=st.lists(spec_floats, max_size=5))


def edge_spec(c):
    """A spec whose every coefficient and shift is c or -c."""
    return spec_of([c, -c, 0.5, c], alpha=c, beta=-c, gamma=c, f=[c, -c, c])


class TestFractionReference:
    """The one-pass build, boost, adjoint, product and residual against term-by-term
    Fraction arithmetic, on specs from the whole double range."""

    @settings(max_examples=100, deadline=None)
    @given(shifted_specs)
    @example(spec_of([1.0, -2.0, 0.5], alpha=0.0, beta=0.3, gamma=0.7, f=[0.25]))
    @example(spec_of([1.0, -2.0, 0.5], alpha=-0.0, beta=0.3, gamma=0.7, f=[0.25]))
    @example(spec_of([], alpha=1.5, beta=0.3, gamma=0.7, f=[0.25, 1.0, -3.0]))  # empty V
    # f's constant and p^2 cancel alpha V's constant and the kinetic p^2 exactly
    @example(spec_of([0.75, 1.0], alpha=1.25, beta=0.0, gamma=0.0, f=[-0.9375, 0.0, -1.0]))
    @example(spec_of([0.75, 1.0, -2.0], alpha=1.25, beta=-0.3, gamma=0.7, f=[0.5, 0.0, 2.0]))
    @example(edge_spec(5e-324))
    @example(edge_spec(1e-300))
    @example(edge_spec(1e300))
    @example(edge_spec(1.7976931348623157e308))
    # the benchmark's degree, 32
    @example(spec_of(np.random.default_rng(43).standard_normal(33).tolist(), alpha=1.375,
                     beta=-0.3, gamma=0.7, f=[0.5, -2.0, 0.25]))
    def test_build_and_residual_match(self, spec):
        ref = fraction_shifted_hamiltonian(spec)
        assert fraction_terms(build_shifted_hamiltonian(spec)) == ref
        assert check_symbolic(spec).is_zero()
        wrong = spec.theta + Fraction(1, 3)
        for theta, override in ((spec.theta, None), (wrong, wrong)):
            expected = fraction_sub(fraction_weyl_boost(ref, theta), fraction_weyl_adjoint(ref))
            assert fraction_terms(check_symbolic(spec, theta_override=override)) == expected

    @settings(max_examples=50, deadline=None)
    @given(shifted_specs)
    @example(edge_spec(5e-324))
    @example(edge_spec(1.7976931348623157e308))
    def test_boost_adjoint_and_product_match(self, spec):
        H = build_shifted_hamiltonian(spec)
        ref = fraction_terms(H)
        for theta in (spec.theta, spec.theta + Fraction(1, 3)):
            assert fraction_terms(H.boost(theta)) == fraction_weyl_boost(ref, theta)
        assert fraction_terms(H.adjoint()) == fraction_weyl_adjoint(ref)
        assert fraction_terms(H * H.adjoint()) == \
            fraction_weyl_mul(ref, fraction_weyl_adjoint(ref))
