import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudoherm import (
    CheckError,
    InputError,
    classify_metric,
    find_metric,
    induced_hamiltonian,
    induced_inner,
    metric_sqrt,
    residual,
    solve_metric_space,
)


def random_positive(n, rng, floor=0.1):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return raw @ raw.conj().T + floor * np.eye(n)


class TestMetricSqrt:
    def test_diagonal(self):
        form = metric_sqrt(np.diag([4.0, 1.0]))
        assert np.allclose(form.sqrt_eta, np.diag([2.0, 1.0]), atol=1e-14)
        assert np.allclose(form.inv_sqrt_eta, np.diag([0.5, 1.0]), atol=1e-14)

    def test_identity(self):
        form = metric_sqrt(np.eye(3))
        assert np.allclose(form.sqrt_eta, np.eye(3), atol=1e-14)

    def test_indefinite_rejected_with_eigenvalue(self):
        with pytest.raises(CheckError) as info:
            metric_sqrt(np.array([[0.0, 1j], [-1j, 0.0]]))
        assert info.value.check == "metric not positive"
        assert info.value.value == pytest.approx(-1.0)

    def test_sqrt_squares_back_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            eta = random_positive(n, rng)
            form = metric_sqrt(eta)
            assert np.allclose(form.sqrt_eta @ form.sqrt_eta, (eta + eta.conj().T) / 2,
                               atol=1e-12 * np.linalg.norm(eta))
            assert np.allclose(form.sqrt_eta @ form.inv_sqrt_eta, np.eye(n), atol=1e-10)
            assert classify_metric(form.sqrt_eta).positive


class TestInducedHamiltonian:
    def test_oscillator_chain_metric(self, osc2):
        H, _ = osc2
        form = metric_sqrt(np.diag([4.0, 1.0]))
        H_eta = induced_hamiltonian(H, form)
        assert np.allclose(H_eta, np.array([[0.0, 2j], [-2j, 0.0]]), atol=1e-13)
        assert np.allclose(H_eta, H_eta.conj().T, atol=1e-13)
        eigvals = np.sort(np.linalg.eigvalsh(H_eta))
        assert np.allclose(eigvals, [-2.0, 2.0], atol=1e-12)

    def test_identity_metric_fixes_hermitian(self):
        H = np.array([[1.0, 2.0], [2.0, 5.0]])
        form = metric_sqrt(np.eye(2))
        assert np.allclose(induced_hamiltonian(H, form), H, atol=1e-14)

    def test_wrong_metric_rejected_with_residual(self, osc2):
        H, _ = osc2
        form = metric_sqrt(np.eye(2))
        with pytest.raises(CheckError) as info:
            induced_hamiltonian(H, form)
        assert info.value.check == "eta not a metric for H"
        assert info.value.value == pytest.approx(residual(H, np.eye(2)))

    def test_randomized_pipeline_hermitian_real_spectrum(self):
        rng = np.random.default_rng(9)
        done = 0
        while done < 10:
            n = int(rng.integers(2, 6))
            eta0 = random_positive(n, rng, floor=0.5)
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = (raw + raw.conj().T) / 2
            H = np.linalg.solve(eta0, b)
            basis = solve_metric_space(H, tol=1e-8)
            eta = find_metric(basis, want_positive=True, tol=1e-8)
            assert eta is not None
            form = metric_sqrt(eta, tol=1e-8)
            H_eta = induced_hamiltonian(H, form, tol=1e-8)
            scale = max(1.0, np.linalg.norm(H))
            assert np.linalg.norm(H_eta - H_eta.conj().T) <= 1e-10 * scale
            assert np.max(np.abs(np.linalg.eigvals(H_eta).imag)) <= 1e-9 * scale
            # similarity preserves the spectrum
            assert np.allclose(np.sort(np.linalg.eigvalsh((H_eta + H_eta.conj().T) / 2)),
                               np.sort(np.linalg.eigvals(H).real), atol=1e-8 * scale)
            done += 1


class TestInducedInner:
    def test_diagonal_metric(self):
        eta = np.diag([4.0, 1.0])
        assert induced_inner([1, 0], [1, 0], eta) == pytest.approx(4.0)
        assert induced_inner([1, 0], [0, 1], eta) == pytest.approx(0.0)

    def test_identity_metric_is_standard(self):
        phi = np.array([1 + 1j, 2.0])
        psi = np.array([0.5j, -1.0])
        assert induced_inner(phi, psi, np.eye(2)) == pytest.approx(np.vdot(phi, psi))

    def test_indefinite_needs_flag(self):
        eta = np.array([[0.0, 1j], [-1j, 0.0]])
        with pytest.raises(CheckError):
            induced_inner([1, 0], [0, 1], eta)
        value = induced_inner([1, 0], [0, 1], eta, allow_indefinite=True)
        assert value == pytest.approx(1j)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            induced_inner([1, 0, 0], [1, 0], np.eye(2), allow_indefinite=True)

    @settings(max_examples=50, deadline=None)
    @given(
        phi=arrays(np.float64, (2, 3), elements=st.floats(-10, 10)),
        psi=arrays(np.float64, (2, 3), elements=st.floats(-10, 10)),
    )
    def test_inner_product_axioms(self, phi, psi):
        eta = np.array([[2.0, 0.5 + 0.25j, 0.0],
                        [0.5 - 0.25j, 1.0, 0.0],
                        [0.0, 0.0, 3.0]])
        u = phi[0] + 1j * phi[1]
        v = psi[0] + 1j * psi[1]
        left = induced_inner(u, v, eta)
        right = induced_inner(v, u, eta)
        assert left == pytest.approx(np.conj(right), abs=1e-9)
        norm_sq = induced_inner(u, u, eta)
        assert abs(norm_sq.imag) <= 1e-9
        if np.linalg.norm(u) > 1e-6:
            assert norm_sq.real > 0

    def test_isometry_link(self):
        rng = np.random.default_rng(13)
        eta = random_positive(4, rng)
        form = metric_sqrt(eta)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        metric_value = induced_inner(u, v, (eta + eta.conj().T) / 2)
        plain_value = np.vdot(form.sqrt_eta @ u, form.sqrt_eta @ v)
        assert metric_value == pytest.approx(plain_value, rel=1e-10, abs=1e-10)
