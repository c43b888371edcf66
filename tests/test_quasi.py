import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudoherm import (
    Check,
    CheckError,
    InputError,
    classify_metric,
    find_metric,
    hermiticity_defect,
    induced_hamiltonian,
    induced_inner,
    metric_sqrt,
    quasi_hermitian,
    residual,
    solve_metric_space,
)
from pseudoherm import cli, metric, quasi
from pseudoherm.io import write_matrix
from pseudoherm.quasi import _eta_positive


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

    @pytest.mark.parametrize("c_H, c_eta", [(1.0, 1.0), (1e300, 1e300), (1e300, 1e-300),
                                            (1e-300, 1e300), (1e-300, 1e-300)])
    def test_extreme_scales(self, osc2, c_H, c_eta):
        # sqrt(eta) H alone overflows at 1e300 and underflows to 0 at 1e-300
        H, _ = osc2
        eta = find_metric(solve_metric_space(H), want_positive=True)
        H_eta = induced_hamiltonian(c_H * H, metric_sqrt(c_eta * eta))
        assert hermiticity_defect(H_eta) <= 1e-10
        eigvals = np.linalg.eigvals(H_eta)
        assert np.allclose(np.sort(eigvals.real), [-2.0 * c_H, 2.0 * c_H], rtol=1e-12, atol=0)
        assert np.max(np.abs(eigvals.imag)) <= 1e-10 * c_H

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
            eta = find_metric(basis, want_positive=True)
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


INDEFINITE = np.array([[0.0, 1j], [-1j, 0.0]])


class TestCheckErrors:
    """Each function raises its failed hypothesis as the one named check a quasi report
    lists, valued and thresholded as the report values it; exc.check stays the id, and the
    message is the id, then the check's name, value and threshold.
    eta_positive is held to tol |eta|_F, the threshold of the positive verdict."""

    TOL = 1e-9
    CASES = {
        "metric_sqrt": (lambda: metric_sqrt(INDEFINITE, TestCheckErrors.TOL),
                        "metric not positive", "eta_positive",
                        classify_metric(INDEFINITE).min_eigenvalue_of_hermitian_part,
                        TOL * np.linalg.norm(INDEFINITE),
                        "metric not positive (eta_positive: value -1.000e+00, "
                        "threshold 1.414e-09)"),
        "induced_hamiltonian": (lambda: induced_hamiltonian(
            np.array([[0.0, 1j], [-4j, 0.0]]), metric_sqrt(np.eye(2)), TestCheckErrors.TOL),
            "eta not a metric for H", "eta_is_metric",
            residual(np.array([[0.0, 1j], [-4j, 0.0]]), np.eye(2)), TOL,
            "eta not a metric for H (eta_is_metric: value 7.276e-01, threshold 1.000e-09)"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_named_check(self, name):
        call, check_id, check_name, value, threshold, hint = self.CASES[name]
        with pytest.raises(CheckError) as info:
            call()
        exc = info.value
        assert str(exc) == hint
        assert (exc.check, exc.value, exc.threshold) == (check_id, value, threshold)
        assert exc.checks == (Check(check_name, False, value, threshold),)

    def test_eta_positive_threshold_finite_where_the_norm_is_not(self):
        # |eta|_F = 2.1e308 is beyond the double range; the threshold is scaled back
        # from eta / 2^k, the rescale the verdict is taken on
        with pytest.raises(CheckError) as info:
            metric_sqrt(np.diag([1.5e308, -1.5e308]), 1e-10)
        assert info.value.checks == (Check("eta_positive", False, -1.5e308,
                                           pytest.approx(2.1213e298, rel=1e-4)),)

    def test_eta_positive_passes_above_its_threshold_where_the_norm_overflows(self):
        _, positive = _eta_positive(1.5e308 * np.eye(2), 1e-10)
        assert positive.passed and positive.value == 1.5e308
        assert positive.threshold == pytest.approx(2.1213e298, rel=1e-4)


class TestInducedInner:
    def test_diagonal_metric(self):
        eta = np.diag([4.0, 1.0])
        assert induced_inner([1, 0], [1, 0], eta) == pytest.approx(4.0)
        assert induced_inner([1, 0], [0, 1], eta) == pytest.approx(0.0)

    def test_identity_metric_is_standard(self):
        phi = np.array([1 + 1j, 2.0])
        psi = np.array([0.5j, -1.0])
        assert induced_inner(phi, psi, np.eye(2)) == pytest.approx(np.vdot(phi, psi))

    def test_any_metric_gives_the_plain_form(self):
        # positivity is the caller's check: an indefinite or negative eta gives its form,
        # and quasi_hermitian fails eta_positive on it
        for eta, psi, value in ((INDEFINITE, [0, 1], 1j), (-np.eye(2), [1, 0], -1.0),
                                (np.zeros((2, 2)), [1, 0], 0.0)):
            assert induced_inner([1, 0], psi, eta) == value
        assert not quasi_hermitian(np.eye(2), INDEFINITE).checks[0].passed

    def test_takes_no_tolerance_or_flag(self):
        for extra in ({"tol": 1e-10}, {"allow_indefinite": True}):
            with pytest.raises(TypeError):
                induced_inner([1, 0], [1, 0], np.eye(2), **extra)

    def test_dimension_mismatch(self):
        for phi, message in (([1, 0, 0], "dimension mismatch"),
                             ([[1, 0]], "phi: expected a nonempty vector"),
                             ([], "phi: expected a nonempty vector"),
                             ([np.inf, 0], "phi: non-finite entries")):
            with pytest.raises(InputError, match=message):
                induced_inner(phi, [1, 0], np.eye(2))

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

    def test_subnormal_metric_rounds_once(self, unit_pair):
        # eta psi is formed on eta over the power of two of its peak entry and the
        # value scaled back once: each part is the value for the rounded input at unit
        # scale, rounded once to the subnormal numbers, so within one spacing 2^-1074
        _, eta = unit_pair
        phi, psi = np.random.default_rng(1).standard_normal((2, 4))
        for k in range(-1068, -1000, 3):
            scaled = np.ldexp(eta.view(float), k).view(complex)
            rounded = np.ldexp(scaled.view(float), -k).view(complex)
            want = induced_inner(phi, psi, rounded)
            got = induced_inner(phi, psi, scaled)
            spacing = np.ldexp(1.0, -1074 - k)
            assert abs(np.ldexp(got.real, -k) - want.real) <= spacing, k
            assert abs(np.ldexp(got.imag, -k) - want.imag) <= spacing, k

    def test_isometry_link(self):
        rng = np.random.default_rng(13)
        eta = random_positive(4, rng)
        form = metric_sqrt(eta)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        metric_value = induced_inner(u, v, (eta + eta.conj().T) / 2)
        plain_value = np.vdot(form.sqrt_eta @ u, form.sqrt_eta @ v)
        assert metric_value == pytest.approx(plain_value, rel=1e-10, abs=1e-10)


class TestQuasiHermitian:
    """quasi_hermitian classifies eta and takes its residual once, and returns a failed
    hypothesis as a failed check; the quasi report lists its checks as they are."""

    H = np.array([[0.0, 1j], [-4j, 0.0]])  # the omega = 2 oscillator; diag(4, 1) is a metric
    NAMES = ["eta_positive", "eta_is_metric", "induced_hermitian", "spectrum_real"]

    @staticmethod
    def report_checks(tmp_path, H, eta):
        write_matrix(tmp_path / "h.json", H)
        write_matrix(tmp_path / "e.json", eta)
        cli.main(["quasi", "--hamiltonian", str(tmp_path / "h.json"), "--eta",
                  str(tmp_path / "e.json"), "--out", str(tmp_path / "report.json")])
        return json.loads((tmp_path / "report.json").read_text())["checks"]

    def test_positive_metric_gives_the_induced_picture(self, tmp_path):
        eta = np.diag([4.0, 1.0])
        out = quasi_hermitian(self.H, eta)
        assert [c.name for c in out.checks] == self.NAMES and all(c.passed for c in out.checks)
        assert out.checks[:2] == (_eta_positive(eta, 1e-10)[1],
                                  Check("eta_is_metric", True, residual(self.H, eta), 1e-10))
        form = metric_sqrt(eta)
        assert np.array_equal(out.form.sqrt_eta, form.sqrt_eta)
        assert np.array_equal(out.form.inv_sqrt_eta, form.inv_sqrt_eta)
        assert np.array_equal(out.hamiltonian, induced_hamiltonian(self.H, form))
        assert np.allclose(out.eigenvalues, [-2.0, 2.0], atol=1e-12)
        assert self.report_checks(tmp_path, self.H, eta) == [
            {"name": c.name, "passed": c.passed, "value": c.value, "threshold": c.threshold}
            for c in out.checks]

    @pytest.mark.parametrize("eta, failed", [(INDEFINITE, "eta_positive"),
                                             (np.eye(2), "eta_is_metric")],
                             ids=["indefinite", "wrong"])
    def test_failed_hypothesis_is_returned(self, tmp_path, eta, failed):
        out = quasi_hermitian(self.H, eta)
        assert (out.form, out.hamiltonian, out.eigenvalues) == (None, None, None)
        assert [c.name for c in out.checks] == self.NAMES[:2]
        assert [c.name for c in out.checks if not c.passed] == [failed]
        assert out.eta_classification == classify_metric(eta)
        assert out.residual == residual(self.H, eta)
        assert self.report_checks(tmp_path, self.H, eta) == [
            {"name": c.name, "passed": c.passed, "value": c.value, "threshold": c.threshold}
            for c in out.checks]

    def test_one_classification_and_one_residual_per_run(self, monkeypatch, tmp_path):
        calls = []
        for name in ("classify_metric", "residual"):
            original = getattr(metric, name)
            for module in (metric, quasi):
                monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original:
                                    calls.append(_name) or _original(*args))
        eta = np.diag([4.0, 1.0])
        quasi_hermitian(self.H, eta)
        assert sorted(calls) == ["classify_metric", "residual"]
        calls.clear()
        self.report_checks(tmp_path, self.H, eta)
        assert sorted(calls) == ["classify_metric", "residual"]
