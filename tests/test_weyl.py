from fractions import Fraction

import numpy as np
import pytest

from oracles import oscillator_basis_matrices, weyl_terms_to_matrix
from pseudoherm import (
    InputError,
    RationalComplex,
    RealPolynomial,
    ShiftedPotentialSpec,
    WeylPolynomial,
    build_shifted_hamiltonian,
    check_symbolic,
)

X = WeylPolynomial.position()
P = WeylPolynomial.momentum()


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


class TestRationalComplex:
    def test_exact_arithmetic(self):
        z = RationalComplex(Fraction(1, 3), Fraction(1, 2))
        w = RationalComplex(2, -1)
        assert (z * w).re == Fraction(2, 3) + Fraction(1, 2)
        assert (z + w).im == Fraction(-1, 2)
        assert z * w == w * z

    def test_conjugate_and_zero(self):
        z = RationalComplex(0, 1)
        assert z.conjugate() == RationalComplex(0, -1)
        assert (z - z).is_zero()

    def test_float_conversion_is_exact(self):
        z = RationalComplex(0.1, 0.0)
        assert z.re == Fraction(0.1)  # binary value, not 1/10

    def test_immutable(self):
        z = RationalComplex(1, 2)
        with pytest.raises(AttributeError):
            z.re = Fraction(3)


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
        ordered = weyl_terms_to_matrix(((P * P) * (X * X)).to_float_terms(), x, p)
        inner = levels - 4
        assert np.allclose(direct[:inner, :inner], ordered[:inner, :inner], atol=1e-12)

    def test_random_products_against_oracle(self):
        rng = np.random.default_rng(17)
        levels = 16
        x, p = oscillator_basis_matrices(levels)
        for _ in range(10):
            A = random_poly(rng, max_degree=3)
            B = random_poly(rng, max_degree=3)
            product = weyl_terms_to_matrix((A * B).to_float_terms(), x, p)
            direct = (weyl_terms_to_matrix(A.to_float_terms(), x, p)
                      @ weyl_terms_to_matrix(B.to_float_terms(), x, p))
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
        p3 = WeylPolynomial.momentum(3)
        assert p3.boost(1.7) == p3

    def test_constant_invariant(self):
        c = WeylPolynomial.constant(RationalComplex(2, -3))
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
        assert out == WeylPolynomial.momentum(2)

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

    def test_complex_parameter_rejected(self):
        with pytest.raises(InputError):
            ShiftedPotentialSpec(V=RealPolynomial([1]), alpha=1j, beta=0.0,
                                 gamma=0.0, f=RealPolynomial([]))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            spec_of([1], gamma=np.inf)


class TestWeylPolynomialBasics:
    def test_negative_exponents_rejected(self):
        with pytest.raises(InputError):
            WeylPolynomial({(-1, 0): 1})

    def test_equality_is_term_map_equality(self):
        assert X * P + WeylPolynomial.constant(RationalComplex(0, -1)) == P * X

    def test_sorted_terms_deterministic(self):
        poly = P * P + X + WeylPolynomial.constant(5)
        assert [key for key, _ in poly.sorted_terms()] == [(0, 0), (0, 2), (1, 0)]

    def test_scalar_multiplication(self):
        assert (2 * X).coefficient(1, 0) == RationalComplex(2)
        assert (X * Fraction(1, 2)).coefficient(1, 0) == RationalComplex(Fraction(1, 2))
