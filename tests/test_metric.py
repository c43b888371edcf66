import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import intertwiner_nullspace_dimension, random_pseudo_hermitian
from pseudoherm import (
    InputError,
    catalog_oscillator,
    catalog_two_point,
    classify_metric,
    find_metric,
    residual,
    solve_metric_space,
)
from pseudoherm.metric import _hermitian_frame, frobenius

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def project_onto_basis(basis, target):
    """Orthogonal projection under Re tr(A^dag B); returns the defect of target."""
    proj = np.zeros_like(target)
    for b in basis.basis:
        coeff = np.real(np.trace(b.conj().T @ target))
        proj = proj + coeff * b
    return np.linalg.norm(target - proj) / np.linalg.norm(target)


class TestResidual:
    def test_two_point_metric_is_exact(self, two_point_xi):
        H, eta = two_point_xi
        assert residual(H, eta) <= 1e-12

    def test_hermitian_hamiltonian_identity_metric(self):
        assert residual(np.diag([1.0, 2.0]), np.eye(2)) == 0.0

    def test_identity_is_not_a_metric_for_oscillator(self, osc2):
        H, _ = osc2
        # hand oracle: ||I H - H^dag I||_F = ||[[0,-3i],[-3i,0]]||_F = 3*sqrt(2),
        # denominator max(1, sqrt(17)*sqrt(2)) -> residual = 3/sqrt(17)
        value = residual(H, np.eye(2))
        assert value == pytest.approx(3.0 / np.sqrt(17.0), rel=1e-12)
        assert value > 0.5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            residual(np.eye(2), np.eye(3))

    def test_non_finite_rejected(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            residual(bad, np.eye(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
    def test_multiplied_form_consistent_with_conjugated_form(self, seed, n):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eta = (raw + raw.conj().T) / 2 + 2 * n * np.eye(n)  # Hermitian, invertible
        r_mult = np.linalg.norm(eta @ H - H.conj().T @ eta)
        r_conj = np.linalg.norm(eta @ H @ np.linalg.inv(eta) - H.conj().T)
        svals = np.linalg.svd(eta, compute_uv=False)
        slack = 1e-8
        assert r_mult <= r_conj * svals[0] * (1 + slack) + 1e-12
        assert r_conj <= r_mult / svals[-1] * (1 + slack) + 1e-12


class TestFrobenius:
    def test_in_range_matches_numpy(self):
        rng = np.random.default_rng(3)
        for scale in (1e-140, 1e-6, 1.0, 1e6, 1e140):
            m = scale * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
            assert frobenius(m) == float(np.linalg.norm(m))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_exact_beyond_squaring_range(self, scale):
        norm = frobenius(scale * np.diag([3.0, 4.0j]))
        assert norm == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_zero(self):
        assert frobenius(np.zeros((3, 3), dtype=complex)) == 0.0


class TestClassify:
    def test_indefinite_hermitian(self):
        cls = classify_metric(np.array([[0.0, 1j], [-1j, 0.0]]))
        assert cls.hermitian and cls.invertible and not cls.positive
        assert cls.min_eigenvalue_of_hermitian_part == pytest.approx(-1.0)

    def test_positive_diagonal(self):
        cls = classify_metric(np.diag([4.0, 1.0]))
        assert cls.hermitian and cls.invertible and cls.positive
        assert cls.min_singular_value == pytest.approx(1.0)

    def test_non_hermitian(self):
        cls = classify_metric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not cls.hermitian
        assert not cls.invertible and not cls.positive

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity_every_dimension(self, n):
        cls = classify_metric(np.eye(n))
        assert cls.hermitian and cls.invertible and cls.positive

    def test_flag_implications_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 5)
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if rng.random() < 0.5:
                m = (m + m.conj().T) / 2
            cls = classify_metric(m)
            assert not cls.positive or cls.invertible
            assert not cls.invertible or cls.hermitian


def loop_frame(n):
    """Reference Hermitian frame: diagonal units, then each i < j pair."""
    frame = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        frame.append(e)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = s
            frame.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = 1j * s, -1j * s
            frame.append(e)
    return np.array(frame)


class TestSolveMetricSpace:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_frame_matches_loop_reference(self, n):
        assert np.array_equal(_hermitian_frame(n), loop_frame(n))

    def test_oscillator_solution_space(self, osc2):
        H, eta_paper = osc2
        basis = solve_metric_space(H)
        assert basis.dimension == 2
        for b in basis.basis:
            # closed form [[4d, i*beta], [-i*beta, d]] with d, beta real
            assert b[0, 0] == pytest.approx(4.0 * b[1, 1], abs=1e-10)
            assert abs(b[0, 0].imag) < 1e-10
            assert abs(b[0, 1].real) < 1e-10
            assert residual(H, b) <= 1e-10
        assert project_onto_basis(basis, eta_paper) <= 1e-10

    def test_two_point_solution_space(self, two_point_xi):
        H, eta_paper = two_point_xi
        basis = solve_metric_space(H)
        assert basis.dimension == 2
        for b in basis.basis:
            # closed form [[a, r - i*a], [r + i*a, a]] with a, r real
            assert b[1, 1] == pytest.approx(b[0, 0], abs=1e-10)
            assert abs(b[0, 0].imag) < 1e-10
            assert abs((b[0, 1] + 1j * b[0, 0]).imag) < 1e-10
        assert project_onto_basis(basis, eta_paper) <= 1e-10

    def test_hermitian_diagonal_commutant(self):
        basis = solve_metric_space(np.diag([1.0, 2.0]))
        assert basis.dimension == 2
        for b in basis.basis:
            assert abs(b[0, 1]) < 1e-10
            assert abs(b[0, 0].imag) < 1e-10 and abs(b[1, 1].imag) < 1e-10

    def test_no_metric_exists(self):
        basis = solve_metric_space(np.diag([1j, 2j]))
        assert basis.dimension == 0

    def test_basis_orthonormal_and_sign_fixed(self, osc2):
        H, _ = osc2
        basis = solve_metric_space(H)
        gram = np.array([[np.real(np.trace(a.conj().T @ b)) for b in basis.basis]
                         for a in basis.basis])
        assert np.allclose(gram, np.eye(basis.dimension), atol=1e-12)
        for b in basis.basis:
            parts = [part for z in b.ravel() for part in (z.real, z.imag)]
            first = next(p for p in parts if abs(p) > 1e-12)
            assert first > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_dimension_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        if seed % 2 == 0:
            H = random_pseudo_hermitian(n, rng)
        else:
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = solve_metric_space(H)
        assert basis.dimension == intertwiner_nullspace_dimension(H)

    def test_one_by_one_systems(self):
        real_scalar = solve_metric_space(np.array([[3.0]]))
        assert real_scalar.dimension == 1
        imaginary_scalar = solve_metric_space(np.array([[1j]]))
        assert imaginary_scalar.dimension == 0

    def test_classifications_aligned(self, osc2):
        basis = solve_metric_space(osc2[0])
        assert len(basis.classifications) == basis.dimension
        for b, cls in zip(basis.basis, basis.classifications):
            assert cls.hermitian
            assert cls == classify_metric(b)


class TestFindMetric:
    def test_positive_for_oscillator(self, osc2):
        basis = solve_metric_space(osc2[0])
        m = find_metric(basis, want_positive=True)
        assert m is not None
        cls = classify_metric(m)
        assert cls.positive
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        # positivity region of [[4d, i*beta], [-i*beta, d]]: d > 0, 4d^2 > beta^2
        d = m[1, 1].real
        beta = m[0, 1].imag
        assert d > 0 and 4 * d * d > beta * beta

    def test_positive_for_hermitian_diagonal(self):
        basis = solve_metric_space(np.diag([1.0, 2.0]))
        m = find_metric(basis, want_positive=True)
        assert m is not None
        assert classify_metric(m).positive

    def test_empty_basis_returns_none(self):
        basis = solve_metric_space(np.diag([1j, 2j]))
        assert find_metric(basis, want_positive=True) is None
        assert find_metric(basis, want_positive=False) is None

    def test_no_positive_metric_is_none_not_error(self):
        # complex-conjugate eigenvalue pair: every metric is indefinite
        H, _ = catalog_two_point(1 + 1j, 0.0)
        basis = solve_metric_space(H)
        assert basis.dimension == 2
        assert find_metric(basis, want_positive=True) is None
        assert find_metric(basis, want_positive=False) is not None

    @pytest.mark.parametrize("n", [4, 6, 7, 8, 16])
    def test_positive_for_generic_quasi_hermitian(self, n):
        # S diag(1..n) S^-1 always has the positive metric S^-dag S^-1
        for seed in range(10):
            rng = np.random.default_rng(seed)
            S = rng.standard_normal((n, n))
            H = S @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(S)
            eta = find_metric(solve_metric_space(H), want_positive=True)
            assert eta is not None
            assert residual(H, eta) <= 1e-10
            assert classify_metric(eta).positive

    @pytest.mark.parametrize("H", [
        np.diag([1 + 1j, 1 - 1j, 3]),
        np.diag([1, 1, 1 + 1j, 1 - 1j]),
        np.block([[np.array([[1, 1], [0, 1]]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.diag([1j, -1j])]]),
    ])
    def test_invertible_when_every_basis_element_is_singular(self, H):
        basis = solve_metric_space(H)
        assert not any(cls.invertible for cls in basis.classifications)
        eta = find_metric(basis)
        assert eta is not None
        assert classify_metric(eta).invertible
        assert residual(H, eta) <= 1e-10

    @pytest.mark.parametrize("H", [[[1j, 1], [1, -1j]], [[0, 1], [0, 0]], [[1, 1], [0, 1]]])
    def test_defective_hamiltonian(self, H):
        # no positive metric exists; any warning from the eigenvector step fails
        basis = solve_metric_space(H)
        assert find_metric(basis, want_positive=True) is None
        assert classify_metric(find_metric(basis)).invertible

    def test_deterministic(self, osc2):
        basis = solve_metric_space(osc2[0])
        first = find_metric(basis, want_positive=True)
        second = find_metric(basis, want_positive=True)
        assert np.array_equal(first, second)


class TestCatalogs:
    def test_two_point_zero_y_branch(self):
        H, eta = catalog_two_point(1 + 1j, 0.0)
        assert np.allclose(H, np.diag([1 + 1j, 1 - 1j]), atol=0)
        assert np.array_equal(eta, SX)
        assert residual(H, eta) <= 1e-12

    def test_two_point_nonzero_y_branch(self):
        H, eta = catalog_two_point(1j, 1.0)
        assert np.allclose(H, np.array([[1j, 1.0], [1.0, -1j]]), atol=0)
        assert np.array_equal(eta, SX)
        assert residual(H, eta) <= 1e-12

    def test_two_point_complex_y(self):
        H, eta = catalog_two_point(2 - 3j, 0.5 + 0.25j)
        assert residual(H, eta) <= 1e-12
        assert eta[0, 1] == 0.5 + 0.25j and eta[1, 0] == 0.5 - 0.25j

    def test_two_point_real_x_rejected(self):
        with pytest.raises(InputError):
            catalog_two_point(2.0, 1.0)

    def test_oscillator(self):
        H, eta = catalog_oscillator(2.0)
        assert np.allclose(H, np.array([[0.0, 1j], [-4j, 0.0]]), atol=0)
        assert np.allclose(eta, np.array([[0.0, 1j], [-1j, 0.0]]), atol=0)
        assert residual(H, eta) <= 1e-12

    def test_oscillator_hermitian_edge(self):
        H, eta = catalog_oscillator(1.0)
        assert np.array_equal(H, eta)
        assert residual(H, eta) <= 1e-12

    def test_oscillator_zero_rejected(self):
        with pytest.raises(InputError):
            catalog_oscillator(0.0)

    @pytest.mark.parametrize("omega", [0.5, -1.5, 3.0])
    def test_oscillator_pairs_always_verify(self, omega):
        H, eta = catalog_oscillator(omega)
        assert residual(H, eta) <= 1e-12
