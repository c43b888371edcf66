import numpy as np
import pytest

import pseudoherm
from oracles import random_pseudo_hermitian
from pseudoherm import (
    CheckError,
    InputError,
    RealPolynomial,
    auto_K,
    classify_metric,
    commutator_defect,
    find_metric,
    matrix_poly,
    perturb,
    residual,
    solve_metric_space,
)

SY = np.array([[0.0, 1j], [-1j, 0.0]])
HYPOTHESES = ["eta_hermitian", "eta_is_metric", "k_hermitian", "k_commutes_with_eta",
              "hamiltonian_non_hermitian"]


class TestRealPolynomial:
    def test_one_class_and_one_default_tolerance_in_every_module(self):
        # both live in the stdlib-only errors module, so perturb loads no Weyl algebra
        from pseudoherm import errors, metric, perturbation, weyl

        assert RealPolynomial is errors.RealPolynomial is weyl.RealPolynomial \
            is perturbation.RealPolynomial
        assert pseudoherm.DEFAULT_TOL is errors.DEFAULT_TOL is metric.DEFAULT_TOL == 1e-10

    def test_parse_flag_format(self):
        f = RealPolynomial.parse("0,3")
        assert f.coeffs == (0.0, 3.0)
        assert f.degree == 1

    def test_trailing_zeros_stripped(self):
        assert RealPolynomial([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        f = RealPolynomial([0.0, 0.0])
        assert f.is_zero and f.degree == -1
        assert RealPolynomial.parse("0").is_zero

    def test_complex_coefficient_rejected(self):
        with pytest.raises(InputError):
            RealPolynomial([1.0, 2j])
        with pytest.raises(InputError):
            RealPolynomial.parse("1,2i")

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            RealPolynomial([np.nan])

    def test_garbage_string_rejected(self):
        with pytest.raises(InputError):
            RealPolynomial.parse("1,,2")


class TestCommutatorDefect:
    def test_identity_commutes(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert commutator_defect(np.eye(3), b) <= 1e-15

    def test_powers_commute(self):
        eta = SY + 2 * np.eye(2)
        cubed = eta @ eta @ eta
        assert commutator_defect(eta, cubed) <= 1e-15

    def test_known_noncommuting_pair(self):
        # hand oracle: [sigma_x, diag(1,2)] = [[0,1],[-1,0]],
        # defect = sqrt(2)/(sqrt(2)*sqrt(5)) = 1/sqrt(5)
        value = commutator_defect(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0]))
        assert value == pytest.approx(np.sqrt(2.0 / 10.0), rel=1e-12)
        assert value > 0.3

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_finite_beyond_squaring_range(self, scale):
        # at 1e200 the plain products overflow to inf - inf
        eta = scale * SY
        assert commutator_defect(eta, eta) == 0.0
        value = commutator_defect(scale * np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  scale * np.diag([1.0, 2.0]))
        assert value == pytest.approx(np.sqrt(2.0 / 10.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            commutator_defect(np.eye(2), np.eye(3))


class TestMatrixPoly:
    def test_diagonal_square(self):
        out = matrix_poly(np.diag([1.0, 2.0]), RealPolynomial([0.0, 0.0, 1.0]))
        assert np.allclose(out, np.diag([1.0, 4.0]), atol=0)

    def test_affine(self):
        out = matrix_poly(np.array([[0.0, 1.0], [1.0, 0.0]]), RealPolynomial([1.0, 1.0]))
        assert np.allclose(out, np.ones((2, 2)), atol=0)

    def test_metric_squares_to_identity(self):
        assert np.allclose(matrix_poly(SY, RealPolynomial([0.0, 0.0, 1.0])), np.eye(2), atol=1e-15)

    def test_zero_polynomial_gives_zero(self):
        assert np.array_equal(matrix_poly(np.diag([3.0, 4.0]), RealPolynomial([])), np.zeros((2, 2)))

    @pytest.mark.parametrize("evaluate", [matrix_poly, auto_K], ids=["matrix_poly", "auto_K"])
    @pytest.mark.parametrize("scale, coeffs", [(1e-200, [0.0, 0.0, 1.0]),
                                               (2.0 ** -540, [0.0, 1e-300, 1.0]),
                                               (1e-200, [0.0, 0.0, 0.0, 0.0, 1e300])])
    def test_complete_underflow_is_beyond_the_range(self, evaluate, scale, coeffs):
        # every term c_j K^j is nonzero but below the smallest normal number, so the
        # computed f(K) is exactly zero
        with pytest.raises(InputError, match=r"^f\(K\) is beyond the double range$"):
            evaluate(scale * np.eye(2), RealPolynomial(coeffs))

    @pytest.mark.parametrize("K, coeffs", [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0, 1.0]),  # nilpotent: K^2 = 0
        (np.eye(2), [-1.0, 1.0]),  # K - I = 0, with no term near the range's end
    ])
    def test_exact_zero_stays(self, K, coeffs):
        assert np.array_equal(matrix_poly(K, RealPolynomial(coeffs)), np.zeros((2, 2)))

    def test_hermitian_input_hermitian_output(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = (raw + raw.conj().T) / 2
        out = matrix_poly(k, RealPolynomial([0.5, -1.0, 2.0, 0.25]))
        assert np.allclose(out, out.conj().T, atol=1e-12)

    def test_horner_from_the_top_coefficient(self, monkeypatch):
        # starting from c_top I skips the product 0 @ K of a zero start: equal values
        # (array_equal ignores the sign of a zero), degree products
        def from_zeros(K, coeffs):
            result = np.zeros(K.shape, dtype=complex)
            for c in reversed(coeffs):
                result = result @ K + c * np.eye(len(K), dtype=complex)
            return result

        matmul, products = np.matmul, []

        def counted(*args, **kwargs):
            products.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, degree = int(rng.integers(1, 9)), int(rng.integers(0, 6))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            K, f = g + g.conj().T, RealPolynomial(rng.standard_normal(degree + 1).tolist())
            products.clear()
            assert np.array_equal(matrix_poly(K, f), from_zeros(K, f.coeffs))
            assert len(products) == f.degree


class TestAutoK:
    def test_linear_scaling(self):
        assert np.allclose(auto_K(SY, RealPolynomial([0.0, 2.0])), 2.0 * SY, atol=0)

    def test_constant_gives_identity_multiple(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        eta = (raw + raw.conj().T) / 2
        assert np.allclose(auto_K(eta, RealPolynomial([2.5])), 2.5 * np.eye(3), atol=0)

    def test_square_of_involution(self):
        assert np.allclose(auto_K(SY, RealPolynomial([0.0, 0.0, 1.0])), np.eye(2), atol=1e-15)

    def test_non_hermitian_eta_rejected(self):
        with pytest.raises(InputError):
            auto_K(np.array([[0.0, 1.0], [0.0, 0.0]]), RealPolynomial([0.0, 1.0]))

    def test_commutes_with_eta_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            eta = (raw + raw.conj().T) / 2
            f = RealPolynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 7))))
            assert commutator_defect(auto_K(eta, f), eta) <= 1e-12


class TestPerturb:
    def test_oscillator_linear_in_eta(self, osc2):
        H, eta = osc2
        out = perturb(H, eta, K=eta, f=RealPolynomial([0.0, 3.0]))
        assert np.allclose(out.H_tilde, np.array([[0.0, 4j], [-7j, 0.0]]), atol=1e-15)
        assert out.residual <= 1e-12
        assert [c.name for c in out.checks] == HYPOTHESES + [
            "perturbed_residual", "anti_hermitian_part_preserved"]
        assert all(c.passed for c in out.checks)

    def test_zero_polynomial_is_identity_perturbation(self, two_point_xi):
        H, eta = two_point_xi
        out = perturb(H, eta, K=eta, f=RealPolynomial([]))
        assert np.array_equal(out.H_tilde, H)

    def test_non_commuting_K_named(self, osc2):
        H, eta = osc2
        with pytest.raises(CheckError) as info:
            perturb(H, eta, K=np.diag([1.0, 2.0]), f=RealPolynomial([0.0, 1.0]))
        assert info.value.check == "non-commuting K"
        assert str(info.value) == ("non-commuting K (k_commutes_with_eta: value 4.472e-01, "
                                   "threshold 1.000e-10)")

    def test_non_hermitian_K_named(self, osc2):
        H, eta = osc2
        with pytest.raises(CheckError) as info:
            perturb(H, eta, K=np.array([[0.0, 1.0], [0.0, 0.0]]), f=RealPolynomial([0.0, 1.0]))
        assert info.value.check == "non-hermitian K"
        assert str(info.value) == ("non-hermitian K (k_hermitian: value 1.414e+00, "
                                   "threshold 1.000e-10)")

    def test_every_hypothesis_evaluated_before_raise(self, osc2):
        # K is neither Hermitian nor commuting with eta: both failures are listed
        H, eta = osc2
        with pytest.raises(CheckError) as info:
            perturb(H, eta, K=np.array([[0.0, 1.0], [0.0, 0.0]]), f=RealPolynomial([0.0, 1.0]))
        assert info.value.check == "non-hermitian K"
        assert str(info.value) == ("non-hermitian K (k_hermitian: value 1.414e+00, "
                                   "threshold 1.000e-10)")
        assert [c.name for c in info.value.checks] == HYPOTHESES
        failed = [c.name for c in info.value.checks if not c.passed]
        assert failed == ["k_hermitian", "k_commutes_with_eta"]

    def test_bad_metric_named(self, osc2):
        H, _ = osc2
        with pytest.raises(CheckError) as info:
            perturb(H, np.eye(2), K=np.eye(2), f=RealPolynomial([1.0]))
        assert info.value.check == "eta not a metric for H"
        assert str(info.value) == ("eta not a metric for H (eta_is_metric: value 7.276e-01, "
                                   "threshold 1.000e-10)")

    def test_hermitian_H_needs_flag(self):
        H = np.diag([1.0, 2.0])
        with pytest.raises(CheckError) as info:
            perturb(H, np.eye(2), K=np.eye(2), f=RealPolynomial([1.0]))
        assert info.value.check == "hermitian H"
        assert str(info.value) == ("hermitian H (hamiltonian_non_hermitian: value 0.000e+00, "
                                   "threshold 1.000e-10)")
        out = perturb(H, np.eye(2), K=np.eye(2), f=RealPolynomial([1.0]), allow_hermitian=True)
        assert np.allclose(out.H_tilde, np.diag([2.0, 3.0]), atol=0)

    def test_anti_hermitian_part_preserved_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            H = random_pseudo_hermitian(n, rng)
            basis = solve_metric_space(H)
            eta = find_metric(basis)
            assert eta is not None
            f = RealPolynomial(rng.uniform(-1, 1, size=4))
            out = perturb(H, eta, K=auto_K(eta, f), f=RealPolynomial([0.0, 1.0]), tol=1e-8)
            drift = (out.H_tilde - out.H_tilde.conj().T) - (H - H.conj().T)
            assert np.linalg.norm(drift) <= 1e-12 * max(1.0, np.linalg.norm(H))
            assert out.residual <= 1e-8

    def test_changed_anti_hermitian_part_fails(self):
        # K passes k_hermitian (defect 0.63 eps), but K^2 has an anti-Hermitian
        # part of 1.03 eps relative to |K^2|_F; with eta = I the perturbed
        # residual is that over sqrt(2), so it still passes.
        eps = 1.2e-10
        K = np.array([[2.0, eps], [0.0, 1.0]])
        with pytest.raises(CheckError) as info:
            perturb(np.zeros((2, 2)), np.eye(2), K, RealPolynomial([0.0, 0.0, 1.0]),
                    allow_hermitian=True)
        assert info.value.check == "anti-hermitian part changed"
        assert str(info.value) == ("anti-hermitian part changed (anti_hermitian_part_preserved: "
                                   "value 1.235e-10, threshold 1.000e-10)")
        *_, residual_check, drift = info.value.checks
        assert residual_check.name == "perturbed_residual" and residual_check.passed
        assert drift.name == "anti_hermitian_part_preserved" and not drift.passed
        assert drift.value == pytest.approx(3.0 * np.sqrt(2.0) * eps / np.sqrt(17.0), rel=1e-6)

    def test_anti_hermitian_part_beyond_half_the_double_range(self):
        # H - H^dag = 2H has entries 2e308; sigma_z anticommutes with H
        H = 1e308 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        sz = np.diag([1.0, -1.0])
        out = perturb(H, sz, sz, RealPolynomial([0.0, 1.0]))
        by_name = {c.name: c for c in out.checks}
        assert all(c.passed for c in out.checks)
        assert by_name["hamiltonian_non_hermitian"].value == 2.0
        assert by_name["anti_hermitian_part_preserved"].value == 0.0

    def test_positive_metric_survives_perturbation(self, osc2):
        H, _ = osc2
        eta = np.diag([4.0, 1.0]) / np.sqrt(17.0)
        assert classify_metric(eta).positive
        out = perturb(H, eta, K=eta, f=RealPolynomial([0.0, 1.0]))
        assert classify_metric(out.eta).positive


class TestSpectrumShift:
    def test_shift_moves_eigenvalues_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            H = rng.uniform(-5, 5, (n, n)) + 1j * rng.uniform(-5, 5, (n, n))
            alpha = float(rng.uniform(-3, 3))
            before = np.sort_complex(np.linalg.eigvals(H))
            after = np.sort_complex(np.linalg.eigvals(H + alpha * np.eye(n)))
            assert np.allclose(after, before + alpha, atol=1e-9)
