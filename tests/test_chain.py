import numpy as np
import pytest

from pseudoherm import (
    CheckError,
    InputError,
    build_chain,
    catalog_two_point,
    chain_via_shift,
    next_eta,
    residual,
    shift_for_invertibility,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestNextEta:
    def test_two_point_step(self):
        H = np.diag([1 + 1j, 1 - 1j])
        out = next_eta(H, SX)
        assert np.allclose(out, np.array([[0.0, 1 - 1j], [1 + 1j, 0.0]]), atol=0)

    def test_oscillator_step(self, osc2):
        H, eta = osc2
        assert np.allclose(next_eta(H, eta), np.diag([4.0, 1.0]), atol=1e-15)

    def test_hermitian_identity(self):
        H = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(next_eta(H, np.eye(2)), H)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            next_eta(np.eye(2), np.eye(3))


class TestBuildChain:
    def test_two_point_closed_form(self):
        H, eta0 = catalog_two_point(1 + 1j, 0.0)
        chain = build_chain(H, eta0, k_max=3)
        x = 1 + 1j
        for k, eta in enumerate(chain.etas):
            expected = np.array([[0.0, np.conj(x) ** k], [x ** k, 0.0]])
            assert np.allclose(eta, expected, rtol=1e-14, atol=0)
        assert all(r <= 1e-12 for r in chain.residuals)
        assert chain.shift_alpha == 0.0
        assert chain.rank == 2

    def test_oscillator_parity(self, osc2):
        H, eta0 = osc2
        chain = build_chain(H, eta0, k_max=4)
        assert np.allclose(chain.etas[1], np.diag([4.0, 1.0]), atol=1e-15)
        assert np.allclose(chain.etas[2], np.array([[0.0, 4j], [-4j, 0.0]]), atol=1e-15)
        for k in range(3):
            assert np.allclose(chain.etas[k + 2], 4.0 * chain.etas[k], rtol=1e-14, atol=0)
        assert chain.rank == 2

    def test_recursion_is_exact(self, osc2):
        H, eta0 = osc2
        chain = build_chain(H, eta0, k_max=5)
        for k in range(5):
            assert np.array_equal(chain.etas[k + 1], H.conj().T @ chain.etas[k])

    def test_elements_stay_hermitian(self, two_point_xi):
        H, eta0 = two_point_xi
        chain = build_chain(H, eta0, k_max=6)
        for eta in chain.etas:
            assert np.allclose(eta, eta.conj().T, atol=1e-12)

    def test_degenerate_element_flagged(self, nilpotent):
        H, eta0 = nilpotent
        chain = build_chain(H, eta0, k_max=1)
        expected = np.array([[1.0, -1j], [1j, 1.0]])
        assert np.allclose(chain.etas[1], expected, atol=1e-15)
        assert chain.degenerate_indices == [1]
        assert not chain.classes[1].invertible

    def test_nilpotent_chain_hits_zero(self, nilpotent):
        H, eta0 = nilpotent
        chain = build_chain(H, eta0, k_max=3)
        assert np.allclose(chain.etas[2], 0.0, atol=1e-15)
        assert np.allclose(chain.etas[3], 0.0, atol=1e-15)
        assert chain.degenerate_indices == [1, 2, 3]

    def test_normalization_scales_only(self, osc2):
        H, eta0 = osc2
        plain = build_chain(H, eta0, k_max=4)
        unit = build_chain(H, eta0, k_max=4, normalize=True)
        assert unit.normalized and not plain.normalized
        for raw, scaled in zip(plain.etas, unit.etas):
            assert np.linalg.norm(scaled) == pytest.approx(1.0, abs=1e-13)
            ratio = np.linalg.norm(raw)
            assert np.allclose(raw, ratio * scaled, rtol=1e-13, atol=1e-13)
        for a, b in zip(plain.classes, unit.classes):
            assert (a.hermitian, a.invertible, a.positive) == (b.hermitian, b.invertible, b.positive)
        for ra, rb in zip(plain.residuals, unit.residuals):
            assert ra == pytest.approx(rb, abs=1e-12)

    def test_rejects_non_hermitian_start(self, osc2):
        H, _ = osc2
        with pytest.raises(InputError, match="hermiticity"):
            build_chain(H, np.array([[0.0, 1.0], [0.0, 0.0]]), k_max=2)

    def test_rejects_non_intertwining_start(self, osc2):
        H, _ = osc2
        with pytest.raises(InputError, match="intertwining"):
            build_chain(H, np.eye(2), k_max=2)

    def test_rejects_negative_k_max(self, osc2):
        H, eta0 = osc2
        with pytest.raises(InputError):
            build_chain(H, eta0, k_max=-1)


class TestShiftForInvertibility:
    def test_invertible_matrix_untouched(self):
        H = np.diag([1 + 1j, 1 - 1j])
        alpha, shifted = shift_for_invertibility(H)
        assert alpha == 0.0
        assert np.array_equal(shifted, H)

    def test_nilpotent_shifted_on_first_rung(self, nilpotent):
        H, _ = nilpotent
        alpha, shifted = shift_for_invertibility(H)
        # ladder step is 1 + ||H||_F = 3; det(H + 3I) = 9 by hand
        assert alpha == pytest.approx(3.0)
        assert abs(np.linalg.det(shifted)) > 1.0

    def test_zero_matrix(self):
        alpha, shifted = shift_for_invertibility(np.zeros((2, 2)))
        assert alpha == pytest.approx(1.0)
        assert np.allclose(shifted, np.eye(2), atol=0)

    def test_exhausted_ladder_is_named_check(self):
        # sigma_min <= |m|_F / sqrt(n), so tol = 0.5 rejects every rung for n >= 4
        with pytest.raises(CheckError) as info:
            shift_for_invertibility(np.diag(np.arange(8.0)), tol=0.5)
        assert info.value.check == "no invertible shift"
        assert [c.name for c in info.value.checks] == ["invertible_shift_found"]
        assert info.value.checks[0].value == 100.0


class TestChainViaShift:
    def test_nilpotent_chain_validates_against_original(self, nilpotent):
        H, eta0 = nilpotent
        chain = chain_via_shift(H, eta0, k_max=3)
        assert chain.shift_alpha != 0.0
        assert chain.degenerate_indices == []
        for eta in chain.etas:
            assert residual(H, eta) <= 1e-10
        assert all(r <= 1e-10 for r in chain.residuals)

    def test_invertible_hamiltonian_matches_plain_chain(self, osc2):
        H, eta0 = osc2
        shifted = chain_via_shift(H, eta0, k_max=3)
        plain = build_chain(H, eta0, k_max=3)
        assert shifted.shift_alpha == 0.0
        for a, b in zip(shifted.etas, plain.etas):
            assert np.array_equal(a, b)

    def test_degenerate_oscillator(self):
        H = np.array([[0.0, 1j], [0.0, 0.0]])
        eta0 = np.array([[0.0, 1j], [-1j, 0.0]])
        chain = chain_via_shift(H, eta0, k_max=2)
        for eta in chain.etas:
            assert residual(H, eta) <= 1e-10
            assert np.allclose(eta, eta.conj().T, atol=1e-12)

    def test_precondition_checked_against_original(self, nilpotent):
        H, _ = nilpotent
        with pytest.raises(InputError, match="intertwining"):
            chain_via_shift(H, np.eye(2), k_max=2)
