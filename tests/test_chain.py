import os
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    classification_of_one,
    exact_chain,
    gaussian_unimodular,
    jordan_dimension,
    jordan_matrix,
    rational_rank,
    realified_rank,
    unimodular,
)
from pseudoherm import (
    InputError,
    build_chain,
    catalog_two_point,
    chain_via_shift,
    hermiticity_defect,
    residual,
    shift_for_invertibility,
    solve_metric_space,
)
from pseudoherm import chain as chain_module
from pseudoherm import metric
from pseudoherm.chain import _real_rank
from pseudoherm.metric import adjoint, frobenius

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestNextEta:
    """One chain step, ``H^dag eta``."""

    def test_two_point_step(self):
        H = np.diag([1 + 1j, 1 - 1j])
        out = adjoint(H) @ SX
        assert np.allclose(out, np.array([[0.0, 1 - 1j], [1 + 1j, 0.0]]), atol=0)

    def test_oscillator_step(self, osc2):
        H, eta = osc2
        assert np.allclose(adjoint(H) @ eta, np.diag([4.0, 1.0]), atol=1e-15)

    def test_hermitian_identity(self):
        H = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(adjoint(H) @ np.eye(2), H)


# Beyond the hermiticity band, room for the rounding of the two SVDs.
SVD_ROUNDING = 1e-14


def _agrees_outside_band(etas, tol=1e-10):
    """Assert that _real_rank gives the realified oracle's rank and return True,
    unless an oracle singular value lies within ``max_k defect_k |stack|_F`` of
    the threshold ``tol |stack|_F``, where the two may differ: then return False."""
    rank, svals = realified_rank(etas, tol)
    band = max(hermiticity_defect(e) for e in etas) + SVD_ROUNDING
    if np.min(np.abs(svals - tol)) <= band:
        return False
    assert _real_rank(np.stack(etas), tol) == rank
    return True


def _placed_stack(seed, n, k, factor, skew, tol):
    """k Hermitian n x n elements whose stack has k - 1 singular values 1 and one at
    factor * tol * |stack|_F, each element then given a hermiticity defect skew * tol."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    g = g + g.conj().transpose(0, 2, 1)
    rows = np.concatenate((g.real, g.imag), axis=1).reshape(k, -1)
    q, _ = np.linalg.qr(rows.T)  # orthonormal realified Hermitian matrices
    frame = (q[:n * n] + 1j * q[n * n:]).T.reshape(k, n, n)
    frame = (frame + frame.conj().transpose(0, 2, 1)) / 2
    s = np.ones(k)
    s[-1] = factor * tol * np.sqrt((k - 1) / (1 - (factor * tol) ** 2))
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    etas = np.tensordot(u * s, frame, axes=1)
    g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    anti = g - g.conj().transpose(0, 2, 1)
    size = np.linalg.norm(etas, axis=(1, 2)) / np.linalg.norm(anti, axis=(1, 2))
    return list(etas + anti * (skew * tol * size / 2)[:, None, None])


class TestRankOracle:
    """The packed rank of _real_rank against the realified rank of tests/oracles.py."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_random_hermitian_chains(self, n, normalize, shifted):
        checked = []
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S_inv = np.linalg.inv(S)
            spectrum = rng.uniform(0.5, 2.0, n)
            if shifted:
                spectrum[0] = 0.0
            eta0 = adjoint(S_inv) @ S_inv
            build = chain_via_shift if shifted else build_chain
            chain = build(S @ np.diag(spectrum) @ S_inv, (eta0 + adjoint(eta0)) / 2,
                          k_max=2 * n, normalize=normalize)
            assert (chain.shift_alpha > 0) == shifted
            checked.append(_agrees_outside_band(chain.etas))
        assert sum(checked) >= 4

    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("skew", [0.0, 0.004])
    def test_placed_singular_value(self, factor, skew):
        # the placed value sits 0.01 tol |stack|_F or more from the threshold, and
        # the defects move it by at most skew tol |stack|_F / 2: outside the band
        for seed in range(5):
            etas = _placed_stack(seed, 4, 6, factor, skew, 1e-10)
            assert _agrees_outside_band(etas)
            assert _real_rank(np.stack(etas), 1e-10) == (6 if factor > 1 else 5)

    @pytest.mark.parametrize("k_max", [0, 3])
    def test_packing_within_the_double_range(self, k_max):
        # |Re z + Im z| = 2c = |eta|_F for z = c (1 + i): packing reaches, but does
        # not pass, 1.7e308; the stack of 4 has a joint norm beyond it
        eta0 = 8.5e307 * np.array([[0.0, 1 + 1j], [1 - 1j, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = build_chain(np.eye(2), eta0, k_max=k_max)
        assert frobenius(chain.etas[0]) == pytest.approx(1.7e308, rel=1e-15)
        assert chain.rank == 1


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

    def test_real_rank_matches_loop_reference(self):
        # real combinations of 3 Hermitian matrices, and a fourth Hermitian matrix
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        base = g + g.conj().transpose(0, 2, 1)
        etas = list(np.tensordot(rng.standard_normal((7, 3)), base[:3], axes=1)) + [base[3]]
        assert _real_rank(np.stack(etas), 1e-10) == realified_rank(etas, 1e-10)[0] == 4

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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            build_chain(np.eye(2), np.eye(3), k_max=1)

    def test_at_most_one_svd(self, osc2, svd_calls):
        # building and classifying take none, the shift the one of H; the rank is
        # computed on first read, by one SVD of the packed stack, and then cached
        chain = build_chain(*osc2, k_max=8)
        assert svd_calls == []
        chain_via_shift(*osc2, k_max=8)
        assert len(svd_calls) == 1 and np.array_equal(svd_calls[0][0], osc2[0])
        rank = chain.rank
        assert len(svd_calls) == 2 and svd_calls[1][0].shape == (4, 9)
        assert chain.rank == rank and len(svd_calls) == 2
        assert rank == _real_rank(np.stack(chain.etas), chain.tol) == 2

    def test_rejects_negative_k_max(self, osc2):
        H, eta0 = osc2
        with pytest.raises(InputError):
            build_chain(H, eta0, k_max=-1)

    # the rule of _finite_real (a bool, nan, inf, a str, None and 10**5000, beyond the double
    # range, whose 5001 digits the memory guard would fail to format), then a whole number >= 0
    @pytest.mark.parametrize("k_max", [2.5, np.nan, np.inf, "3", None, True,
                                       pytest.param(10 ** 5000, id="10**5000")])
    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_refused_k_max_is_input_error(self, osc2, builder, k_max):
        with pytest.raises(InputError, match="^k_max must be"):
            builder(*osc2, k_max=k_max)

    @pytest.mark.parametrize("k_max", [3.0, np.int64(3), Fraction(6, 2)],
                             ids=["float", "int64", "Fraction"])
    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_whole_k_max_of_any_real_type(self, osc2, builder, k_max):
        chain, reference = builder(*osc2, k_max=k_max), builder(*osc2, k_max=3)
        assert len(chain) == 4 and np.array_equal(chain.etas, reference.etas)
        assert (chain.residuals, chain.classes) == (reference.residuals, reference.classes)

    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_whole_k_max_beyond_memory_meets_the_memory_guard(self, osc2, builder):
        with pytest.raises(InputError, match=f"^k_max = {10 ** 30}: {10 ** 30 + 1} elements "):
            builder(*osc2, k_max=10 ** 30)

    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_stack_beyond_physical_memory_is_input_error(self, osc2, builder, monkeypatch):
        # 10^12 + 1 elements at n = 2 take 64 TB: refused before numpy allocates anything
        shapes, empty = [], np.empty
        monkeypatch.setattr(np, "empty", lambda shape, *args, **kw: shapes.append(shape)
                            or empty(shape, *args, **kw))
        with pytest.raises(InputError, match="^k_max = 1000000000000: 1000000000001 elements "
                                             "at n = 2 need more memory"):
            builder(*osc2, k_max=10 ** 12)
        assert shapes == []

    @pytest.mark.parametrize("pages, refused", [(575, True), (576, False), (None, True)])
    def test_stack_bound_is_the_physical_memory(self, osc2, monkeypatch, pages, refused):
        # the stack of k_max + 1 = 9 elements at n = 2 is 16 * 4 * 9 = 576 bytes, in pages of
        # one byte; without os.sysconf, numpy's MemoryError is refused the same way
        def no_memory(*args, **kw):
            raise MemoryError("cannot allocate")

        if pages is None:
            monkeypatch.delattr(os, "sysconf")
            monkeypatch.setattr(np, "empty", no_memory)
        else:
            sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        if refused:
            with pytest.raises(InputError, match="^k_max = 8: 9 elements at n = 2 need more"):
                build_chain(*osc2, k_max=8)
        else:
            assert len(build_chain(*osc2, k_max=8)) == 9

    def test_no_memory_figure_is_no_bound(self, no_memory_figure):
        # a page count or size below 1 or a failed os.sysconf: the chain is built unbounded
        chain = build_chain(np.diag([1.0, 2.0]), np.eye(2), 3)
        assert len(chain) == 4 and all(c.passed for c in chain.checks)

    def test_checks_of_a_passing_chain(self, osc2):
        H, eta0 = osc2
        chain = build_chain(H, eta0, k_max=4, tol=1e-9)
        assert [c.name for c in chain.checks] == [
            "chain_residual_max", "all_elements_hermitian", "all_elements_invertible"]
        assert all(c.passed for c in chain.checks)
        residual_max, hermitian, invertible = chain.checks
        assert (residual_max.value, residual_max.threshold) == (max(chain.residuals), 1e-9)
        assert hermitian.value == max(c.hermiticity_defect for c in chain.classes)
        assert (invertible.value, invertible.threshold) == (0.0, 0.0)

    def test_checks_of_a_degenerate_chain(self, nilpotent):
        H, eta0 = nilpotent
        residual_max, hermitian, invertible = build_chain(H, eta0, k_max=3).checks
        assert residual_max.passed and hermitian.passed
        assert not invertible.passed and invertible.value == 3.0


class TestShiftForInvertibility:
    def test_invertible_matrix_untouched(self):
        H = np.diag([1 + 1j, 1 - 1j])
        alpha, shifted = shift_for_invertibility(H)
        assert alpha == 0.0
        assert np.array_equal(shifted, H)

    def test_nilpotent_shifted_on_first_rung(self, nilpotent):
        H, _ = nilpotent
        alpha, shifted = shift_for_invertibility(H)
        # alpha = 2 ||H||_F = 4; det(H + 4I) = (4 + i)(4 - i) - 1 = 16 by hand
        assert alpha == pytest.approx(4.0)
        assert np.linalg.det(shifted) == pytest.approx(16.0)

    def test_zero_matrix(self):
        alpha, shifted = shift_for_invertibility(np.zeros((2, 2)))
        assert alpha == pytest.approx(1.0)
        assert np.allclose(shifted, np.eye(2), atol=0)

    def test_exhausted_ladder_is_named_check(self):
        # sigma_min <= |m|_F / sqrt(n), so tol = 0.5 rejects every matrix for n >= 4;
        # the closed-form shift needs no test on H + alpha I
        H = np.diag(np.arange(8.0))
        alpha, shifted = shift_for_invertibility(H, tol=0.5)
        assert alpha == 2.0 * np.sqrt(140.0)
        assert np.array_equal(shifted, H + alpha * np.eye(8))
        assert np.linalg.svd(shifted, compute_uv=False)[-1] == pytest.approx(alpha)

    def test_one_svd_for_a_singular_matrix(self, nilpotent, svd_calls):
        alpha, _ = shift_for_invertibility(nilpotent[0])
        assert alpha == 4.0
        assert len(svd_calls) == 1

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_shift_bound_on_random_singular(self, n):
        # sigma_min(H + alpha I) >= alpha - |H|_2 >= |H|_F for alpha = 2 |H|_F
        rng = np.random.default_rng(n)
        for _ in range(5):
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H[:, 0] = H[:, 1:].sum(axis=1)
            norm = np.linalg.norm(H)
            alpha, shifted = shift_for_invertibility(H)
            assert alpha == 2.0 * frobenius(H)
            assert np.linalg.svd(shifted, compute_uv=False)[-1] >= norm * (1.0 - 1e-12)

    def test_beyond_the_double_range_is_input_error(self):
        # alpha = 2 |H|_F overflows from |H|_F near 9e307, H + alpha I from about 6e307
        with pytest.raises(InputError, match="beyond the double range"):
            shift_for_invertibility(1.5e308 * np.diag([0.0, 1.0]))
        alpha, shifted = shift_for_invertibility(1e307 * np.diag([0.0, 1.0]))
        assert alpha == 2e307
        assert np.isfinite(shifted).all()


class TestBeyondTheDoubleRange:
    # eta_3 = H^3 = 2 c^2 H has entries 2 c^3 = 1.5e308 and |eta_3|_F near 3e308
    H = 4.2e102 * np.array([[1.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("k_max", [3, 6])
    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_unnormalized_element_is_input_error(self, builder, k_max):
        with pytest.raises(InputError, match="^eta_3 is beyond the double range$"):
            builder(self.H, np.eye(2), k_max)

    def test_normalized_chain_passes(self):
        chain = build_chain(self.H, np.eye(2), 6, normalize=True)
        assert all(check.passed for check in chain.checks)
        assert chain.rank == 2

    def test_unnormalized_underflow_is_input_error(self, unit_pair):
        # eta_2 = (2^-540 H0^dag)^2 E0 is nonzero, below the smallest subnormal number
        H, eta0 = unit_pair
        for builder in (build_chain, chain_via_shift):
            with pytest.raises(InputError, match="^eta_2 is beyond the double range$"):
                builder(np.ldexp(1.0, -540) * H, eta0, 3)

    def test_exact_zero_stays_degenerate(self, nilpotent):
        # (H^dag)^2 = 0 at every scale: eta_2 and eta_3 are exact zeros, not underflows
        H, eta0 = nilpotent
        for scale in (1.0, np.ldexp(1.0, -300), np.ldexp(1.0, 300)):
            chain = build_chain(scale * H, eta0, 3)
            assert not chain.etas[2].any() and not chain.etas[3].any()
            assert chain.degenerate_indices == [1, 2, 3]

    def test_rank_of_a_stack_beyond_the_double_range(self):
        # each element 1.2e308 I has a finite norm, the stack of two has not
        assert build_chain(np.eye(2), 1.2e308 * np.eye(2), 1).rank == 1


class TestStacks:
    """_chain measures its residuals chunk by chunk as it generates them, in stacks of at
    most 2^15 complex entries, and classifies eta_0 and eta_1 only."""

    @pytest.mark.parametrize("shifted", [False, True])
    def test_eta0_and_eta1_classified_and_residuals_in_bounded_stacks(self, monkeypatch, shifted):
        n, k_max = 64, 64
        if shifted:  # a singular H: chain_via_shift generates from G = H + alpha I
            H, eta0 = _similar_pair(n, 2, singular=True)
        else:
            rng = np.random.default_rng(0)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            eta0 = (q * rng.uniform(0.5, 1.5, n)) @ q.conj().T
            eta0 = (eta0 + eta0.conj().T) / 2
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = np.linalg.solve(eta0, g + g.conj().T)  # eta0 H = g + g^dag = H^dag eta0
        classified, measured, products, generated = [], [], [], []
        eigvalsh, kernel, form = np.linalg.eigvalsh, metric._bilinear_ratio, metric._intertwining
        matmul = np.matmul

        def recorded(a, *args, **kwargs):
            classified.append(a)
            return eigvalsh(a, *args, **kwargs)

        def counted(form, A, B, norms, product=None):
            measured.append(B)
            return kernel(form, A, B, norms, product)

        def intertwining(h, e, product=None):
            # the generation buffer is reused for the next chunk: keep a copy
            products.append(None if product is None else product.copy())
            return form(h, e, product)

        def generation(*args, **kwargs):
            generated.append(args[1].copy())
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        monkeypatch.setattr(metric, "_bilinear_ratio", counted)
        monkeypatch.setattr(metric, "_intertwining", intertwining)
        monkeypatch.setattr(np, "matmul", generation)
        chain = (chain_via_shift if shifted else build_chain)(H, eta0, k_max, normalize=True)
        etas = np.array(chain.etas)
        assert (chain.shift_alpha != 0.0) == shifted
        assert len(classified) == 1
        assert np.array_equal(classified[0], (etas[:2] + adjoint(etas[:2])) / 2)
        assert len(measured[0]) == 1 and products[0] is None  # eta0, before the chain is built
        assert all(b.size <= 2 ** 15 for b in measured[1:])
        assert np.array_equal(np.concatenate(measured[1:]), etas)
        assert len(products) == len(measured)
        # products X^dag eta_k of the chain: G^dag eta_k generating it, and H^dag eta_k
        # where a residual forms its own; eta_{k_max + 1} is never needed
        formed = sum(len(b) for b, p in zip(measured[1:], products[1:]) if p is None)
        if shifted:  # each residual forms H^dag eta_k; G^dag eta_k_max is not formed
            assert all(p is None for p in products)
            assert len(generated) + formed == 2 * (k_max + 1) - 1
            assert np.array_equal(np.array(generated), etas[:-1])
        else:  # alpha = 0: each chunk's H^dag eta_k is the generation's product
            assert all(p is not None for p in products[1:])
            assert np.array_equal(np.concatenate(products[1:]), adjoint(chain.H) @ etas)
            assert len(generated) + formed == k_max + 1

    @pytest.mark.parametrize("shifted", [False, True])
    def test_each_defect_measured_once(self, monkeypatch, shifted):
        # eta0's hypothesis check, then each of the k_max + 1 elements once, chunk by chunk:
        # eta_0 and eta_1 are classified with the defects their chunk measured
        n, k_max, seen = 64, 20, []
        H, eta0 = _similar_pair(n, 2, singular=shifted)
        defects = metric._defects

        def recorded(stack, norms):
            seen.append(stack.copy())  # a chunk of the chain's own stack
            return defects(stack, norms)

        monkeypatch.setattr(metric, "_defects", recorded)
        monkeypatch.setattr(chain_module, "_defects", recorded)
        chain = (chain_via_shift if shifted else build_chain)(H, eta0, k_max)
        assert (chain.shift_alpha != 0.0) == shifted
        assert [len(s) for s in seen] == [1, 8, 8, 5]
        assert np.array_equal(np.concatenate(seen), [eta0] + chain.etas)
        assert [c.hermiticity_defect for c in chain.classes] == [
            hermiticity_defect(eta) for eta in chain.etas]

    def test_peak_memory_near_the_elements(self):
        # beyond the elements: one chunk's product buffer and its measuring temporaries
        n, k_max = 64, 64
        H, eta0 = _similar_pair(n, 1)
        tracemalloc.start()
        try:
            build_chain(H, eta0, k_max, normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (k_max + 1) * 16 * n * n + 4 * 2 ** 20


class TestResidualOracle:
    """Every chain residual is residual(H, eta_k) bit for bit: the reused generation
    product is H^dag eta_k exactly, and a windowed or shifted chunk forms it again."""

    # unnormalized elements grow like 2^(j k): k_max keeps them in the double range
    K_MAX = {-1000: 1, -300: 3, 0: 40, 300: 3, 1000: 1}

    @pytest.mark.parametrize("j", sorted(K_MAX))
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_residuals_match_the_one_matrix_residual(self, builder, singular, normalize, j):
        H, eta0 = _similar_pair(64, 2, singular)
        H = np.ldexp(H.view(float), j).view(complex)  # 2^j H, exactly
        chain = builder(H, eta0, 40 if normalize else self.K_MAX[j], normalize=normalize)
        assert (chain.shift_alpha != 0.0) == (builder is chain_via_shift and singular)
        expected = [residual(H, eta).hex() for eta in chain.etas]
        assert [r.hex() for r in chain.residuals] == expected

    def test_products_shared_after_a_reformed_element(self, monkeypatch):
        # |H^dag eta_k|_F = 1e-295 lies below the window, so each element after eta_0 is formed
        # again from unit peaks; |H|_F and every |eta_k|_F lie inside it, so the residuals of
        # the one chunk reuse the generation's products all the same
        H, eta0 = np.diag([1.0, 1e-295]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        reformed, shared = [], []
        unit_product, form = chain_module._unit_product, metric._intertwining

        def reform(*args):
            reformed.append(args)
            return unit_product(*args)

        def intertwining(h, e, product=None):
            shared.append(product is not None)
            return form(h, e, product)

        monkeypatch.setattr(chain_module, "_unit_product", reform)
        monkeypatch.setattr(metric, "_intertwining", intertwining)
        chain = build_chain(H, eta0, 3, normalize=True)
        assert (len(reformed), shared) == (3, [False, True])  # eta0's check, then the chunk
        assert all(np.array_equal(eta, eta0) for eta in chain.etas)
        expected = [residual(H, eta).hex() for eta in chain.etas]
        assert [r.hex() for r in chain.residuals] == expected


class TestNormalization:
    """A normalized element is ``p / |p|_F`` for ``p = G^dag eta_k-1``, as numpy's complex
    division computes it, value for value: _chain multiplies the real and imaginary parts
    by the reciprocal of the norm, which is what that division does for a real divisor."""

    @pytest.mark.parametrize("j", sorted(TestResidualOracle.K_MAX))
    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_elements_equal_the_complex_division(self, builder, singular, j):
        H, eta0 = _similar_pair(64, 2, singular)
        H = np.ldexp(H.view(float), j).view(complex)  # 2^j H, exactly
        chain = builder(H, eta0, 40, normalize=True)
        G = shift_for_invertibility(H)[1] if chain.shift_alpha else H
        divided = 0
        for k in range(1, len(chain)):
            p = adjoint(G) @ chain.etas[k - 1]
            norm = frobenius(p)
            if metric._in_window(norm):  # else _chain forms p again from unit peaks
                assert np.array_equal(chain.etas[k], p / norm)
                divided += 1
        assert divided == (40 if abs(j) < 1000 else 0)

    @pytest.mark.parametrize("layout", [np.asfortranarray,
                                        lambda m: m[::-1, ::-1].copy()[::-1, ::-1]])
    def test_any_layout_of_eta0(self, layout):
        H, eta0 = _similar_pair(8, 3)
        expected = build_chain(H, eta0, 4, normalize=True).etas
        assert np.array_equal(build_chain(H, layout(eta0), 4, normalize=True).etas, expected)

    def test_reciprocal_multiply_is_numpys_complex_division(self):
        # numpy divides a + bi by the real x as (a + b 0) (1 / x) and (b - a 0) (1 / x):
        # the same products as below, but for the sign of an exact zero
        parts = [0.0, -0.0, 5e-324, -2.5e-320, np.finfo(float).tiny, 1.0, -1 / 3, np.pi,
                 np.ldexp(1.0, 1000), np.ldexp(-1.5, -1000), 1.7e308]
        m = np.array([complex(a, b) for a in parts for b in parts])
        for x in [1.0, 3.0, 0.1, 7e-300, 1e300, np.ldexp(1.0, 1000), np.ldexp(1.0, -1000),
                  np.ldexp(1.5, -1040), 1.7e308]:
            with np.errstate(all="ignore"):
                got, want = (m.view(float) * (1 / x)).view(complex), m / x
            assert np.array_equal(got, want, equal_nan=True)
            got, want = got.view(float), want.view(float)
            differ = got.view(np.int64) != want.view(np.int64)
            assert np.all((got[differ] == 0) & (want[differ] == 0)), x


def _similar_pair(n, seed, singular=False):
    """H = S diag(uniform(0.5, 3)) S^-1, with a zero first eigenvalue if singular, and
    its metric eta0 = S^-dag S^-1, for a complex Gaussian S from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S_inv = np.linalg.inv(S)
    eta0 = adjoint(S_inv) @ S_inv
    spectrum = rng.uniform(0.5, 3.0, n)
    if singular:
        spectrum[0] = 0.0
    return S @ np.diag(spectrum) @ S_inv, (eta0 + adjoint(eta0)) / 2


def _similar_chain(n, seed, k_max):
    """The normalized chain of _similar_pair(n, seed)."""
    return build_chain(*_similar_pair(n, seed), k_max, normalize=True)


class TestTheorem:
    """The chain's flags by congruence: eta_k has the inertia of eta_{k mod 2} when
    eta_0 and eta_1 are invertible, and det eta_k = 0 decides when one is not."""

    @pytest.mark.parametrize("n, seed, k_max", [(8, 3, 24), (64, 1, 64)])
    def test_ill_conditioned_elements_stay_metrics(self, n, seed, k_max):
        # cond(eta_k) grows like 6^k: measured one by one, these chains flagged
        # k = 17..24 (n = 8) and 58 of 65 elements (n = 64) as singular
        chain = _similar_chain(n, seed, k_max)
        invertible = chain.checks[2]
        assert (invertible.name, invertible.passed, invertible.value) == (
            "all_elements_invertible", True, 0.0)
        assert chain.degenerate_indices == []
        assert all(c.positive for c in chain.classes)

    def test_singular_generator_degenerates_from_eta1(self):
        rng = np.random.default_rng(11)
        S = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        S_inv = np.linalg.inv(S)
        spectrum = rng.uniform(0.5, 3.0, 8)
        spectrum[3] = 0.0
        eta0 = adjoint(S_inv) @ S_inv
        chain = build_chain(S @ np.diag(spectrum) @ S_inv, (eta0 + adjoint(eta0)) / 2, 6,
                            normalize=True)
        assert chain.degenerate_indices == list(range(1, 7))
        assert [c.name for c in chain.checks if not c.passed] == ["all_elements_invertible"]

    def test_singular_eta0_degenerates_everywhere(self):
        chain = build_chain(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), 5)
        assert chain.degenerate_indices == list(range(6))
        assert [c.name for c in chain.checks if not c.passed] == ["all_elements_invertible"]
        assert chain.checks[2].value == 6.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 6), st.booleans(), st.booleans(),
           st.integers(0, 10_000))
    def test_flags_match_the_per_element_oracle(self, n, k_max, definite, normalize, seed):
        # eta_k = S^-dag diag(signs lambda^k) S^-1 with cond(S) <= 10 and |lambda| in
        # [0.5, 2]: cond(eta_k) <= 10^2 4^6, far below 1 / tol, so measuring each
        # element agrees with the theorem
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = rng.uniform(1.0, 10.0, n)
        S, S_inv = (u * d) @ v, (adjoint(v) / d) @ adjoint(u)
        spectrum = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        signs = np.ones(n) if definite else rng.choice([-1.0, 1.0], n)
        eta0 = (adjoint(S_inv) * signs) @ S_inv
        chain = build_chain(S @ np.diag(spectrum) @ S_inv, (eta0 + adjoint(eta0)) / 2, k_max,
                            normalize=normalize)
        for k, (eta, c) in enumerate(zip(chain.etas, chain.classes, strict=True)):
            oracle = classification_of_one(eta, chain.tol)
            assert (c.hermitian, c.invertible, c.positive) == (
                oracle.hermitian, oracle.invertible, oracle.positive)
            assert c.hermiticity_defect == hermiticity_defect(eta)
            measured = (c.min_abs_eigenvalue_of_hermitian_part,
                        c.min_eigenvalue_of_hermitian_part)
            assert (measured == (None, None)) == (k >= 2)


class TestExactChains:
    """build_chain against the closed form eta_k = S^-dag diag(lambda^k) S^-1 of
    tests/oracles.py, for H = S diag(lambda) S^-1 with integer lambda (zero included)
    and a Gaussian-integer S of determinant 1: every entry is an integer below 2^53,
    so the chain is exact.  By Sylvester's law of inertia eta_k has the inertia of
    diag(lambda^k), which decides its invertible and positive flags."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=4), st.integers(1, 5),
           st.integers(0, 10_000))
    def test_entries_rank_and_inertia(self, lam, k_max, seed):
        n = len(lam)
        H, etas = exact_chain(lam, *gaussian_unimodular(n, np.random.default_rng(seed), n + 1),
                              k_max)
        chain = build_chain(H, etas[0], k_max)
        assert all(np.array_equal(a, b) for a, b in zip(chain.etas, etas, strict=True))
        assert chain.rank == rational_rank(etas)
        powers = [[x ** k for x in lam] for k in range(k_max + 1)]
        assert [c.invertible for c in chain.classes] == [0 not in p for p in powers]
        assert [c.positive for c in chain.classes] == [min(p) > 0 for p in powers]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=4), st.integers(0, 10_000))
    def test_chain_span_against_the_solve(self, lam, seed):
        # The paper's chain as a second exact oracle for the solve: the real span of eta_k =
        # S^-dag diag(lambda^k) S^-1, k < n, is a Vandermonde span of one dimension per
        # distinct lambda, and the Hermitian solutions are S^-dag M S^-1 with M Hermitian on
        # each eigenspace, sum m^2 dimensions for multiplicities m.  The chain spans them
        # exactly when no lambda repeats (H nonderogatory).
        n, multiplicities = len(lam), Counter(lam).values()
        H, etas = exact_chain(lam, *gaussian_unimodular(n, np.random.default_rng(seed), n + 1),
                              n - 1)
        rank, dimension = build_chain(H, etas[0], n - 1).rank, solve_metric_space(H).dimension
        assert rank == len(multiplicities)
        assert dimension == sum(m * m for m in multiplicities)
        assert (rank == dimension) == (len(multiplicities) == n)

    # J_n(lambda), n = 2..4; J_2(1) + J_2(-1); the derogatory J_2(lambda) + J_1(lambda)
    JORDAN = [*([(lam, n)] for n in (2, 3, 4) for lam in (-2, -1, 1, 2)), [(1, 2), (-1, 2)],
              *([(lam, 2), (lam, 1)] for lam in (-2, -1, 1, 2))]

    @pytest.mark.parametrize("blocks", JORDAN, ids=str)
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_jordan_chain_span_against_the_solve(self, blocks, seed):
        # The same two oracles for a defective H = S J S^-1, S an integer unimodular matrix
        # and J real: eta0 = S^-dag E S^-1, E the exchange matrix of each block (E J = J^T E),
        # is a metric.  The chain spans the polynomials in H, one dimension per degree of its
        # minimal polynomial, and the solve has the Cecioni-Frobenius dimension; they agree,
        # at n, exactly when H is nonderogatory.
        n = sum(p for _, p in blocks)
        S, S_inv = unimodular(n, np.random.default_rng(seed), n + 1)
        E, start = np.zeros((n, n), dtype=np.int64), 0
        for _, p in blocks:
            E[start:start + p, start:start + p] = np.eye(p, dtype=np.int64)[::-1]
            start += p
        H = S @ jordan_matrix(blocks) @ S_inv
        eta0 = (S_inv.T @ E @ S_inv).astype(complex)
        assert np.array_equal(eta0 @ H, adjoint(H) @ eta0)  # exact: integer entries
        rank, dimension = build_chain(H, eta0, n - 1).rank, solve_metric_space(H).dimension
        assert dimension == jordan_dimension(blocks)
        if len({lam for lam, _ in blocks}) == len(blocks):  # nonderogatory
            assert rank == dimension == n
        else:
            assert (rank, dimension) == (2, 5)


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

    def test_checks_of_a_shifted_chain(self, nilpotent):
        H, eta0 = nilpotent
        chain = chain_via_shift(H, eta0, k_max=3)
        assert [(c.name, c.passed) for c in chain.checks] == [
            ("chain_residual_max", True), ("all_elements_hermitian", True),
            ("all_elements_invertible", True)]
        assert chain.checks[0].value == max(chain.residuals)

    def test_each_residual_measured_once(self, nilpotent, monkeypatch):
        # eta0 once, then each of the k_max + 1 elements once, all against H
        calls = []
        kernel = metric._bilinear_ratio

        def counted(form, A, B, norms, product=None):
            calls.append((form, A, len(B)))
            return kernel(form, A, B, norms, product)

        monkeypatch.setattr(metric, "_bilinear_ratio", counted)  # chains measure through metric
        H, eta0 = nilpotent
        chain = chain_via_shift(H, eta0, k_max=5)
        assert chain.shift_alpha != 0.0
        assert sum(count for _, _, count in calls) == 5 + 2
        assert calls[0][2] == 1  # eta0, before the chain is built
        assert all(form is metric._intertwining and np.array_equal(A, H)
                   for form, A, _ in calls)

    def test_k_max_checked_before_the_shift_ladder(self, nilpotent, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("shift ladder ran")

        monkeypatch.setattr(chain_module, "shift_for_invertibility", fail)
        H, eta0 = nilpotent
        with pytest.raises(InputError, match="k_max"):
            chain_via_shift(H, eta0, k_max=-1)


class TestScaleCovariance:
    """chain_via_shift(c H) is the unit-scale chain at every c: alpha = 2 |c H|_F."""

    SCALES = (np.ldexp(1.0, -1022), np.ldexp(1.0, -1000), 1e-300, 1e-12, 1.0, 1e12, 1e300)

    @staticmethod
    def singular_pair():
        rng = np.random.default_rng(11)
        n = 8
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S_inv = np.linalg.inv(S)
        spectrum = rng.uniform(0.5, 3.0, n)
        spectrum[3] = 0.0
        H = S @ np.diag(spectrum) @ S_inv
        eta0 = S_inv.conj().T @ S_inv
        eta0 = (eta0 + eta0.conj().T) / 2.0
        return H / np.linalg.norm(H), eta0 / np.linalg.norm(eta0)

    @staticmethod
    def rank_one_pair():
        # H = -u u^dag with unit u is Hermitian, so eta0 = I is a metric
        u = np.random.default_rng(12).standard_normal(8)
        u /= np.linalg.norm(u)
        return -np.outer(u, u), np.eye(8)

    @pytest.mark.parametrize("pair", ["singular_pair", "rank_one_pair"])
    def test_same_chain_at_every_scale(self, pair):
        H, eta0 = getattr(self, pair)()
        base = chain_via_shift(H, eta0, 8, normalize=True)
        for c in self.SCALES:
            chain = chain_via_shift(c * H, eta0, 8, normalize=True)
            assert chain.shift_alpha == 2.0 * frobenius(chain.H)
            assert chain.rank == base.rank
            assert chain.degenerate_indices == []
            for a, b in zip(chain.etas, base.etas):
                assert np.abs(a - b).max() <= 1e-14

    @pytest.mark.parametrize("builder", [build_chain, chain_via_shift])
    def test_invertible_pair_at_every_scale(self, builder, unit_pair):
        # at 2^-1022 the norm of eta_1 is subnormal, so normalizing it must not divide by it
        H, eta0 = unit_pair
        base = builder(H, eta0, 6, normalize=True)
        assert base.rank == 4 and base.shift_alpha == 0.0
        for c in self.SCALES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                chain = builder(c * H, eta0, 6, normalize=True)
            assert chain.rank == 4
            assert [check.passed for check in chain.checks] == [True, True, True]
            for a, b in zip(chain.etas, base.etas):
                assert frobenius(a) == pytest.approx(1.0, abs=1e-15)
                assert np.abs(a - b).max() <= 1e-14
