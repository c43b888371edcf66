import json
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import pseudoherm
from oracles import random_pseudo_hermitian
from pseudoherm import (
    build_shifted_hamiltonian,
    catalog_oscillator,
    catalog_two_point,
    find_metric,
    hermiticity_defect,
    residual,
    solve_metric_space,
)
from pseudoherm import cli
from pseudoherm.cli import main
from pseudoherm.io import matrix_from_dict, parse_matrix, parse_weyl_spec, write_matrix

# (H scale, eta scale) pairs; sqrt(eta) H alone leaves the double range at 1e+-300
EXTREME_SCALES = [(1.0, 1.0), (1e300, 1e300), (1e300, 1e-300), (1e-300, 1e300), (1e-300, 1e-300)]

TIMESTAMP = re.compile(r'^\s*"generated_at".*$', re.MULTILINE)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def fixtures(tmp_path):
    H, eta = catalog_oscillator(2.0)
    paths = {
        "H": tmp_path / "osc2.json",
        "eta": tmp_path / "sigma_y.json",
        "identity": tmp_path / "identity.json",
        "diag41": tmp_path / "diag41.json",
        "diag12": tmp_path / "diag12.json",
        "weyl": tmp_path / "harmonic_gamma1.json",
        "nilpotent_H": tmp_path / "nilpotent.json",
        "sigma_x": tmp_path / "sigma_x.json",
        "nilpotent_K": tmp_path / "nilpotent_K.json",
    }
    write_matrix(paths["H"], H)
    write_matrix(paths["eta"], eta)
    write_matrix(paths["identity"], np.eye(2))
    write_matrix(paths["diag41"], np.diag([4.0, 1.0]))
    write_matrix(paths["diag12"], np.diag([1.0, 2.0]))
    write_matrix(paths["nilpotent_H"], np.array([[1j, 1.0], [1.0, -1j]]))
    write_matrix(paths["sigma_x"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    write_matrix(paths["nilpotent_K"], np.array([[0.0, 1.0], [0.0, 0.0]]))
    paths["weyl"].write_text(json.dumps(
        {"V": [0, 0, 1], "alpha": 1, "beta": 0, "gamma": 1, "f": []}))
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (_strict_json(out) if out.lstrip().startswith("{") else out)


class TestVerify:
    def test_catalog_pair_passes(self, fixtures, capsys):
        code, report = run_cli(capsys, "verify", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"])
        assert code == 0
        assert report["status"] == "pass"
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["intertwining_residual"]["value"] <= 1e-10

    def test_wrong_eta_fails(self, fixtures, capsys):
        code, report = run_cli(capsys, "verify", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["identity"])
        assert code == 1
        assert report["status"] == "fail"

    def test_missing_file_is_input_error(self, fixtures, capsys):
        code, report = run_cli(capsys, "verify", "--hamiltonian", "missing.json",
                               "--eta", fixtures["eta"])
        assert code == 2
        assert report["status"] == "input_error"
        assert "missing.json" in report["error"]

    def test_malformed_file_is_input_error(self, tmp_path, fixtures, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, report = run_cli(capsys, "verify", "--hamiltonian", bad,
                               "--eta", fixtures["eta"])
        assert code == 2
        assert report["status"] == "input_error"


    def test_small_norm_is_relative(self, tmp_path, capsys):
        # the same pair at unit scale has residual 1.0
        write_matrix(tmp_path / "tiny.json", 1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        write_matrix(tmp_path / "identity.json", np.eye(2))
        code, report = run_cli(capsys, "verify", "--hamiltonian", tmp_path / "tiny.json",
                               "--eta", tmp_path / "identity.json")
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["intertwining_residual"]["value"] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("tol", ["inf", "nan", "1e400", "0", "-1e-10", "abc"])
    def test_tol_must_be_positive_and_finite(self, fixtures, tol, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--hamiltonian", str(fixtures["H"]),
                  "--eta", str(fixtures["identity"]), f"--tol={tol}"])
        assert info.value.code == 2
        reason = "'abc' is not a number" if tol == "abc" else "must be positive and finite"
        assert reason in capsys.readouterr().err


class TestSolve:
    def test_solution_space_with_positive_representative(self, fixtures, capsys):
        code, report = run_cli(capsys, "solve", "--hamiltonian", fixtures["H"],
                               "--positive")
        assert code == 0
        assert report["results"]["dimension"] == 2
        assert report["results"]["solver"] == "spectral"
        assert report["results"]["metric_classification"]["positive"] is True

    def test_no_metric_is_a_failed_check(self, tmp_path, capsys):
        write_matrix(tmp_path / "no_metric.json", np.diag([1j, 2j]))
        code, report = run_cli(capsys, "solve", "--hamiltonian",
                               tmp_path / "no_metric.json")
        assert code == 1
        assert report["results"]["dimension"] == 0
        assert report["results"]["metric"] is None

    def test_missing_file(self, capsys):
        code, report = run_cli(capsys, "solve", "--hamiltonian", "missing.json")
        assert code == 2

    def test_realified_path_near_the_double_range(self, tmp_path, capsys):
        # |H|_F = 1.45e308: the report matches the unit-scale one
        reports = []
        for scale in (1.0, 1e308):
            write_matrix(tmp_path / "h.json", scale * np.array([[1j, 0.3], [0.0, 1j]]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, report = run_cli(capsys, "solve", "--hamiltonian", tmp_path / "h.json")
            reports.append((code, report["status"], report["results"]["solver"],
                            report["results"]["dimension"]))
        assert reports[0] == reports[1] == (1, "fail", "realified", 0)

    def test_frame_beyond_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # a Jordan block takes the frame of n^2 Hermitian matrices, its map 8 n^4 bytes
        def no_memory(H):
            raise MemoryError(f"cannot allocate {8 * len(H) ** 4} bytes")

        monkeypatch.setattr(pseudoherm.metric, "_frame_map", no_memory)
        write_matrix(tmp_path / "h.json", np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                                    [0.0, 0.0, 2.0]]))
        code, report = run_cli(capsys, "solve", "--hamiltonian", tmp_path / "h.json")
        assert code == 2
        assert report["status"] == "input_error"
        assert "n = 3" in report["error"] and "traceback" not in report

    def test_frame_beyond_physical_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # 84 n^4 = 6804 bytes for the frame of a 3x3 Jordan matrix against 1 page of 4096
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}.__getitem__)
        write_matrix(tmp_path / "h.json", np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                                    [0.0, 0.0, 2.0]]))
        code, report = run_cli(capsys, "solve", "--hamiltonian", tmp_path / "h.json")
        assert (code, report["status"]) == (2, "input_error")
        assert report["error"] == ("H: the realified solve at n = 3 needs more memory than "
                                   "this machine has (its arrays grow as n^4)")

    @pytest.mark.parametrize("H, solver", [
        (random_pseudo_hermitian(5, np.random.default_rng(2)), "spectral"),
        (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]), "realified"),
    ])
    def test_basis_residual_max_recomputed(self, tmp_path, capsys, H, solver):
        write_matrix(tmp_path / "h.json", H)
        _, report = run_cli(capsys, "solve", "--hamiltonian", tmp_path / "h.json")
        assert report["results"]["solver"] == solver
        H = parse_matrix(tmp_path / "h.json")
        recomputed = max(residual(H, matrix_from_dict(b)) for b in report["results"]["basis"])
        (check,) = [c for c in report["checks"] if c["name"] == "basis_residual_max"]
        assert abs(check["value"] - recomputed) <= 1e-15
        assert [c["name"] for c in report["checks"]] == ["basis_residual_max", "metric_found"]

    def test_positive_pick_is_reproducible(self, fixtures, capsys):
        _, first = run_cli(capsys, "solve", "--hamiltonian", fixtures["H"], "--positive")
        _, second = run_cli(capsys, "solve", "--hamiltonian", fixtures["H"], "--positive")
        assert first["results"]["metric"] == second["results"]["metric"]


class TestChain:
    def test_oscillator_chain_normalized_by_default(self, fixtures, capsys):
        code, report = run_cli(capsys, "chain", "--hamiltonian", fixtures["H"],
                               "--eta0", fixtures["eta"], "--k-max", "4")
        assert code == 0
        assert report["results"]["normalized"] is True
        assert report["results"]["rank"] == 2
        for eta in report["results"]["etas"]:
            entries = np.array(eta["entries"])
            norm = np.linalg.norm(entries[..., 0] + 1j * entries[..., 1])
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_chain_fails_invertibility_check(self, fixtures, capsys):
        code, report = run_cli(capsys, "chain", "--hamiltonian",
                               fixtures["nilpotent_H"], "--eta0", fixtures["sigma_x"],
                               "--k-max", "2")
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["all_elements_invertible"]["passed"] is False
        assert report["results"]["degenerate_indices"] == [1, 2]

    def test_via_shift_recovers(self, fixtures, capsys):
        code, report = run_cli(capsys, "chain", "--hamiltonian",
                               fixtures["nilpotent_H"], "--eta0", fixtures["sigma_x"],
                               "--k-max", "2", "--via-shift")
        assert code == 0
        assert report["results"]["shift_alpha"] != 0.0
        assert report["results"]["degenerate_indices"] == []

    def test_invalid_eta0_is_input_error(self, fixtures, capsys):
        code, report = run_cli(capsys, "chain", "--hamiltonian", fixtures["H"],
                               "--eta0", fixtures["identity"], "--k-max", "2")
        assert code == 2
        assert "intertwining" in report["error"]

    def test_exhausted_shift_ladder_is_failed_check(self, tmp_path):
        # sigma_min <= |m|_F / sqrt(n): at tol 0.5 no element of the shifted chain
        # counts as invertible, so the chain fails that check
        write_matrix(tmp_path / "h.json", np.diag(np.arange(8.0)))
        write_matrix(tmp_path / "i.json", np.eye(8))
        out = tmp_path / "report.json"
        code = main(["chain", "--hamiltonian", str(tmp_path / "h.json"), "--eta0",
                     str(tmp_path / "i.json"), "--via-shift", "--tol", "0.5", "--out", str(out)])
        assert code == 1
        report = _strict_json(out.read_text())
        assert report["status"] == "fail"
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("chain_residual_max", True), ("all_elements_hermitian", True),
            ("all_elements_invertible", False)]
        assert report["checks"][2]["value"] == 5.0
        assert report["results"]["shift_alpha"] == 2.0 * np.sqrt(140.0)
        assert set(report["inputs"]) == {"hamiltonian", "eta0"}

    def test_subnormal_hamiltonian_passes(self, unit_pair, tmp_path, capsys):
        # entries near 1e-309: the norm of eta_1 is subnormal before it is normalized
        H, eta0 = unit_pair
        write_matrix(tmp_path / "h.json", np.ldexp(1.0, -1022) * H)
        write_matrix(tmp_path / "e.json", eta0)
        code = main(["chain", "--hamiltonian", str(tmp_path / "h.json"), "--eta0",
                     str(tmp_path / "e.json"), "--k-max", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert _strict_json(captured.out)["status"] == "pass"
        assert captured.err == ""

    def test_linalg_error_is_input_error(self, fixtures, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("pseudoherm.chain.chain_via_shift", fail)
        out = tmp_path / "report.json"
        code = main(["chain", "--hamiltonian", str(fixtures["nilpotent_H"]), "--eta0",
                     str(fixtures["sigma_x"]), "--via-shift", "--out", str(out)])
        assert code == 2
        report = _strict_json(out.read_text())
        assert report["status"] == "input_error"
        assert "SVD did not converge" in report["error"]


class TestHugeScale:
    """Entries near 1e200 overflow a plain Frobenius norm; reports stay valid JSON."""

    @pytest.fixture
    def huge(self, tmp_path):
        write_matrix(tmp_path / "h.json", 1e200 * np.diag([0.0, 1.0, 2.0]))
        write_matrix(tmp_path / "i.json", np.eye(3))
        write_matrix(tmp_path / "p.json", np.eye(3)[[1, 0, 2]])
        write_matrix(tmp_path / "p_huge.json", 1e200 * np.eye(3)[[1, 0, 2]])
        H, eta = catalog_oscillator(2.0)
        write_matrix(tmp_path / "osc.json", H)
        write_matrix(tmp_path / "osc_eta_huge.json", 1e200 * eta)
        return tmp_path

    def test_verify_reports_finite_residual(self, huge, capsys):
        code = main(["verify", "--hamiltonian", str(huge / "h.json"),
                     "--eta", str(huge / "p.json")])
        report = _strict_json(capsys.readouterr().out)
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        # |P D - D P|_F / (|D|_F |P|_F) = sqrt(2) / (sqrt(5) sqrt(3))
        assert by_name["intertwining_residual"]["value"] == pytest.approx(
            np.sqrt(2.0 / 15.0), rel=1e-12)
        assert report["inputs"]["hamiltonian"]["frobenius_norm"] == pytest.approx(
            np.sqrt(5.0) * 1e200, rel=1e-12)

    def test_verify_huge_eta_reports_finite_residual(self, huge, capsys):
        # eta H overflows before any norm is taken
        code = main(["verify", "--hamiltonian", str(huge / "h.json"),
                     "--eta", str(huge / "p_huge.json")])
        report = _strict_json(capsys.readouterr().out)
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["intertwining_residual"]["value"] == pytest.approx(
            np.sqrt(2.0 / 15.0), rel=1e-12)

    def test_chain_via_shift_passes(self, huge, capsys):
        code = main(["chain", "--hamiltonian", str(huge / "h.json"),
                     "--eta0", str(huge / "i.json"), "--via-shift"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "pass"
        assert report["results"]["shift_alpha"] == pytest.approx(2.0 * np.sqrt(5.0) * 1e200,
                                                                 rel=1e-12)

    def test_chain_via_shift_beyond_the_double_range_is_input_error(self, tmp_path, capsys):
        # alpha = 2 |H|_F = 3e308 overflows
        write_matrix(tmp_path / "h.json", 1.5e308 * np.diag([0.0, 1.0]))
        write_matrix(tmp_path / "i.json", np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["chain", "--hamiltonian", str(tmp_path / "h.json"),
                         "--eta0", str(tmp_path / "i.json"), "--via-shift"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "input_error"
        assert report["error"] == "H + alpha I is beyond the double range"

    @pytest.mark.parametrize("k_max", [3, 6])
    def test_chain_element_beyond_the_double_range_is_input_error(self, tmp_path, capsys,
                                                                  k_max):
        # eta_3 = 2 c^3 [[1, 1], [1, -1]] has finite entries but |eta_3|_F near 3e308
        write_matrix(tmp_path / "h.json", 4.2e102 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        write_matrix(tmp_path / "i.json", np.eye(2))
        argv = ["chain", "--hamiltonian", tmp_path / "h.json", "--eta0", tmp_path / "i.json",
                "--k-max", k_max]
        code, report = run_cli(capsys, *argv, "--no-normalize")
        assert code == 2
        assert report["status"] == "input_error"
        assert report["error"] == "eta_3 is beyond the double range"
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["results"]["rank"] == 2

    def test_chain_via_shift_below_the_double_limit_passes(self, tmp_path, capsys):
        write_matrix(tmp_path / "h.json", 1e307 * np.diag([0.0, 1.0]))
        write_matrix(tmp_path / "i.json", np.eye(2))
        code = main(["chain", "--hamiltonian", str(tmp_path / "h.json"),
                     "--eta0", str(tmp_path / "i.json"), "--via-shift"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["shift_alpha"] == 2e307

    def test_verify_eta_norm_near_the_double_limit(self, tmp_path, capsys):
        # |eta|_F = 1.4e308 is finite, eta + eta^dag is not
        write_matrix(tmp_path / "i.json", np.eye(2))
        write_matrix(tmp_path / "e.json", np.diag([1e308, 1e308]))
        code = main(["verify", "--hamiltonian", str(tmp_path / "i.json"),
                     "--eta", str(tmp_path / "e.json")])
        report = _strict_json(capsys.readouterr().out)
        assert code == 0
        cls = report["results"]["eta_classification"]
        assert cls["positive"] and cls["min_eigenvalue_of_hermitian_part"] == 1e308

    def test_input_norm_beyond_the_double_range_is_input_error(self, tmp_path, capsys):
        write_matrix(tmp_path / "i.json", np.eye(2))
        write_matrix(tmp_path / "e.json", np.diag([1e308, 1.5e308]))
        code = main(["verify", "--hamiltonian", str(tmp_path / "i.json"),
                     "--eta", str(tmp_path / "e.json")])
        report = _strict_json(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "input_error"
        assert report["error"].startswith("--eta:")


    def test_verify_eta_near_the_double_limit(self, tmp_path, capsys):
        # eta - eta^dag has entries 2e308, beyond the double range
        write_matrix(tmp_path / "i.json", np.eye(2))
        write_matrix(tmp_path / "e.json", np.array([[0.0, 1e308], [-1e308, 0.0]]))
        code = main(["verify", "--hamiltonian", str(tmp_path / "i.json"),
                     "--eta", str(tmp_path / "e.json")])
        report = _strict_json(capsys.readouterr().out)
        assert code == 1
        failed = [(c["name"], c["value"]) for c in report["checks"] if not c["passed"]]
        assert failed == [("eta_hermitian", 2.0)]

    def test_perturb_with_huge_eta_passes(self, huge, capsys):
        # K defaults to eta, whose plain self-commutator overflows to inf - inf
        code = main(["perturb", "--hamiltonian", str(huge / "osc.json"),
                     "--eta", str(huge / "osc_eta_huge.json"), "--poly", "0,1"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["k_commutes_with_eta"]["value"] == 0.0


class TestPerturb:
    def test_default_K_is_eta(self, fixtures, capsys):
        code, report = run_cli(capsys, "perturb", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"], "--poly", "0,3")
        assert code == 0
        entries = report["results"]["hamiltonian_tilde"]["entries"]
        assert entries == [[[0.0, 0.0], [0.0, 4.0]], [[0.0, -7.0], [0.0, 0.0]]]

    def test_non_commuting_K_fails_named_check(self, fixtures, capsys):
        code, report = run_cli(capsys, "perturb", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"], "--poly", "0,1",
                               "--k", fixtures["diag12"])
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["k_commutes_with_eta"]["passed"] is False

    def test_failed_hypotheses_all_listed(self, fixtures, capsys):
        code, report = run_cli(capsys, "perturb", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"], "--poly", "0,1",
                               "--k", fixtures["nilpotent_K"])
        assert code == 1
        assert [c["name"] for c in report["checks"]] == [
            "eta_hermitian", "eta_is_metric", "k_hermitian", "k_commutes_with_eta",
            "hamiltonian_non_hermitian"]
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["k_hermitian", "k_commutes_with_eta"]
        assert set(report["inputs"]) == {"hamiltonian", "eta", "poly", "k"}
        assert report["error"] and report["results"] == {}

    def test_hermitian_H_needs_flag(self, fixtures, capsys):
        code, report = run_cli(capsys, "perturb", "--hamiltonian", fixtures["diag12"],
                               "--eta", fixtures["identity"], "--poly", "1")
        assert code == 1
        code, report = run_cli(capsys, "perturb", "--hamiltonian", fixtures["diag12"],
                               "--eta", fixtures["identity"], "--poly", "1",
                               "--allow-hermitian")
        assert code == 0

    def test_bad_polynomial_is_input_error(self, fixtures, capsys):
        code, _ = run_cli(capsys, "perturb", "--hamiltonian", fixtures["H"],
                          "--eta", fixtures["eta"], "--poly", "1,2i")
        assert code == 2


class TestQuasi:
    def test_positive_chain_metric(self, fixtures, capsys):
        code, report = run_cli(capsys, "quasi", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["diag41"])
        assert code == 0
        eigs = np.array(report["results"]["eigenvalues"])
        assert np.allclose(eigs, [[-2.0, 0.0], [2.0, 0.0]], atol=1e-10)
        induced = matrix_from_dict(report["results"]["induced_hamiltonian"])
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["induced_hermitian"]["value"] == pytest.approx(
            hermiticity_defect(induced), rel=1e-12)

    def test_indefinite_metric_fails(self, fixtures, capsys):
        code, report = run_cli(capsys, "quasi", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"])
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["eta_positive"]["passed"] is False

    @pytest.mark.parametrize("eta, passed", [(1e-12 * np.eye(2), True),
                                             (np.diag([1e12, 1e-8]), False)],
                             ids=["tiny", "spread"])
    def test_eta_positive_passes_exactly_above_its_threshold(self, fixtures, tmp_path, capsys,
                                                             eta, passed):
        # the verdict holds the least eigenvalue to tol |eta|_F, and so does the report
        write_matrix(tmp_path / "e.json", eta)
        code, report = run_cli(capsys, "quasi", "--hamiltonian", fixtures["diag12"],
                               "--eta", tmp_path / "e.json")
        assert code == (0 if passed else 1)
        check = report["checks"][0]
        assert (check["name"], check["passed"]) == ("eta_positive", passed)
        assert (check["value"] > check["threshold"]) is passed
        assert check["threshold"] == 1e-10 * np.linalg.norm(eta)

    @pytest.mark.parametrize("c_H, c_eta", EXTREME_SCALES)
    def test_extreme_scales(self, tmp_path, capsys, c_H, c_eta):
        H, _ = catalog_oscillator(2.0)
        eta = find_metric(solve_metric_space(H), want_positive=True)
        write_matrix(tmp_path / "h.json", c_H * H)
        write_matrix(tmp_path / "e.json", c_eta * eta)
        code, report = run_cli(capsys, "quasi", "--hamiltonian", tmp_path / "h.json",
                               "--eta", tmp_path / "e.json")
        assert code == 0
        eigs = np.array(report["results"]["eigenvalues"])
        assert np.allclose(eigs[:, 0], [-2.0 * c_H, 2.0 * c_H], rtol=1e-12, atol=0)


class TestWeyl:
    def test_derived_theta_passes(self, fixtures, capsys):
        code, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"])
        assert code == 0
        assert report["results"]["theta"] == "2"
        assert report["results"]["residual_terms"] == []

    def test_theta_zero_fails_with_terms(self, fixtures, capsys):
        code, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"],
                               "--theta", "0")
        assert code == 1
        assert report["results"]["residual_terms"] == [
            {"a": 1, "b": 0, "re": "0", "im": "-4"}]

    def test_float_mode_thresholds(self, fixtures, capsys):
        code, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"], "--float")
        assert code == 0
        code, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"],
                               "--theta", "0", "--float")
        assert code == 1
        assert report["results"]["residual_terms"][0]["im"] == -4.0

    @pytest.mark.parametrize("spec, theta", [
        # residual (2i theta - 2i) x + theta - theta^2: beyond doubles at 1e200
        ({"V": [0, 0, 1], "alpha": 1, "beta": 0, "gamma": 0.5, "f": [0]}, "1e200"),
        # H itself holds -beta^2 = -1e400
        ({"V": [0, 0, 1], "alpha": 1, "beta": 1e200, "gamma": 0.5, "f": [0]}, None),
    ])
    def test_float_mode_beyond_double_range_is_input_error(self, tmp_path, capsys,
                                                           spec, theta):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["weyl", "--spec", str(path)] + ([] if theta is None else ["--theta", theta])
        code = main(argv + ["--float"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "input_error"
        assert "double range" in report["error"]
        # the exact report holds the same coefficients as rational strings
        code = main(argv)
        report = _strict_json(capsys.readouterr().out)
        assert code == (0 if theta is None else 1)


    def test_derived_theta_beyond_the_double_range_is_exact(self, tmp_path, capsys):
        # theta = 2 gamma = 2e308 has no float value, but certifies exactly
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"V": [0, 0, 1], "alpha": 1, "beta": 0, "gamma": 1e308,
                                    "f": [0]}))
        code, report = run_cli(capsys, "weyl", "--spec", path)
        assert code == 0
        assert report["results"]["theta"] == str(2 * Fraction(1e308))
        assert report["results"]["residual_terms"] == []

    def test_derived_theta_at_a_tiny_gamma_is_exact(self, tmp_path, capsys):
        # a degree-32 V shifted by -i 1e-300: H's constant term has a denominator
        # with more digits than str() converts
        path = tmp_path / "spec.json"
        V = np.random.default_rng(32).standard_normal(33).tolist()
        path.write_text(json.dumps({"V": V, "alpha": 1.375, "beta": 0.5, "gamma": 1e-300,
                                    "f": [0.25]}))
        code, report = run_cli(capsys, "weyl", "--spec", path)
        assert code == 0
        assert report["results"]["theta"] == str(2 * Fraction(1e-300))
        assert report["results"]["residual_terms"] == []
        constant = next(t for t in report["results"]["hamiltonian_terms"]
                        if (t["a"], t["b"]) == (0, 0))
        exact = build_shifted_hamiltonian(parse_weyl_spec(path)).coefficient(0, 0).im
        assert constant["im"] == f"{Decimal(exact.numerator)}/{Decimal(exact.denominator)}"
        assert len(constant["im"]) > 2 * sys.get_int_max_str_digits()

    def test_float_mode_theta_beyond_the_double_range_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"V": [0, 1], "alpha": 1, "beta": 0, "gamma": 1e308,
                                    "f": [0]}))
        code, report = run_cli(capsys, "weyl", "--spec", path, "--float")
        assert code == 2
        assert report["status"] == "input_error"
        assert "double range" in report["error"]

    def test_theta_flag_reported_exactly(self, fixtures, capsys):
        _, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"], "--theta", "0")
        assert report["results"]["theta"] == "0"
        _, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"], "--theta", "0.1")
        assert report["results"]["theta"] == str(Fraction(0.1))
        _, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"], "--theta", "0.1",
                            "--float")
        assert report["results"]["theta"] == 0.1


class TestHugeJsonIntegers:
    """JSON integers have no size limit; one beyond the double range is an input error."""

    @pytest.mark.parametrize("field, value", [("alpha", 10**400), ("V", [0, 10**400])],
                             ids=["alpha", "V"])
    def test_weyl_spec(self, tmp_path, capsys, field, value):
        spec = {"V": [0, 0, 1], "alpha": 1, "beta": 0, "gamma": 1, "f": [0]}
        spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report = run_cli(capsys, "weyl", "--spec", path)
        assert code == 2
        assert report["status"] == "input_error"
        assert str(path) in report["error"]

    def test_matrix_entry(self, fixtures, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 2, "entries": [[[10**400, 0], [0, 0]],
                                                        [[0, 0], [1, 0]]]}))
        code, report = run_cli(capsys, "verify", "--hamiltonian", path,
                               "--eta", fixtures["identity"])
        assert code == 2
        assert report["status"] == "input_error"
        assert "entry (0,0)" in report["error"]


class TestExample:
    def test_oscillator_round_trips(self, tmp_path, capsys):
        code, report = run_cli(capsys, "example", "oscillator", "--omega", "2",
                               "--out-dir", tmp_path / "out")
        assert code == 0
        H = parse_matrix(report["results"]["hamiltonian_path"])
        assert np.array_equal(H, np.array([[0.0, 1j], [-4j, 0.0]]))
        eta = parse_matrix(report["results"]["eta_path"])
        assert np.array_equal(eta, np.array([[0.0, 1j], [-1j, 0.0]]))

    def test_two_point_flags(self, tmp_path, capsys):
        code, report = run_cli(capsys, "example", "two-point", "--x", "1+1i",
                               "--y", "0", "--out-dir", tmp_path)
        assert code == 0
        H = parse_matrix(report["results"]["hamiltonian_path"])
        assert np.array_equal(H, np.diag([1 + 1j, 1 - 1j]))
        expected, _ = catalog_two_point(1 + 1j, 0.0)
        assert np.array_equal(H, expected)

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "example", "oscillator", "--omega", "0",
                          "--out-dir", tmp_path)
        assert code == 2
        code, _ = run_cli(capsys, "example", "two-point", "--x", "2", "--y", "1",
                          "--out-dir", tmp_path)
        assert code == 2
        for name, flag in (("two-point", "--x"), ("oscillator", "--omega")):
            code, report = run_cli(capsys, "example", name, "--out-dir", tmp_path)
            assert (code, report["error"]) == (2, f"example {name} requires {flag}")
        assert not list(tmp_path.iterdir())

    def test_omega_squared_beyond_the_double_range(self, tmp_path, capsys):
        code, report = run_cli(capsys, "example", "oscillator", "--omega", "1e200",
                               "--out-dir", tmp_path)
        assert code == 2
        assert report["status"] == "input_error"
        assert "double range" in report["error"]
        assert not list(tmp_path.iterdir())

    def test_omega_squared_below_the_double_range(self, tmp_path, capsys):
        # 1e-200 squared underflows to 0, which would be the omega = 0 Hamiltonian
        code, report = run_cli(capsys, "example", "oscillator", "--omega", "1e-200",
                               "--out-dir", tmp_path)
        assert code == 2
        assert report["status"] == "input_error"
        assert "double range" in report["error"]
        assert not list(tmp_path.iterdir())

    def test_small_omega_builds(self, tmp_path, capsys):
        code, report = run_cli(capsys, "example", "oscillator", "--omega", "1e-150",
                               "--out-dir", tmp_path)
        assert code == 0
        H = parse_matrix(report["results"]["hamiltonian_path"])
        assert np.array_equal(H, np.array([[0.0, 1j], [-1e-300j, 0.0]]))


class TestReportContract:
    def test_reports_are_deterministic_modulo_timestamp(self, fixtures, tmp_path, capsys):
        argv = ["verify", "--hamiltonian", str(fixtures["H"]),
                "--eta", str(fixtures["eta"]), "--out"]
        main(argv + [str(tmp_path / "one.json")])
        main(argv + [str(tmp_path / "two.json")])
        one = TIMESTAMP.sub("", (tmp_path / "one.json").read_text())
        two = TIMESTAMP.sub("", (tmp_path / "two.json").read_text())
        assert one == two

    def test_text_format(self, fixtures, capsys):
        code, out = run_cli(capsys, "verify", "--hamiltonian", fixtures["H"],
                            "--eta", fixtures["eta"], "--format", "text")
        assert code == 0
        assert "status: pass" in out
        assert "check intertwining_residual: PASS" in out

    def test_text_format_of_an_error(self, fixtures, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--hamiltonian", tmp_path / "missing.json",
                            "--eta", fixtures["eta"], "--format", "text")
        assert code == 2
        assert out == (f"command: verify\nerror: {tmp_path / 'missing.json'}: file not found\n"
                       "status: input_error\n")

    def test_unwritable_out_exits_2(self, fixtures, tmp_path, capsys):
        out_path = tmp_path / "no-such-dir" / "report.json"
        code = main(["verify", "--hamiltonian", str(fixtures["H"]),
                     "--eta", str(fixtures["eta"]), "--out", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cannot write report to {out_path}: ")

    def test_out_file_written(self, fixtures, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--hamiltonian", str(fixtures["H"]),
                     "--eta", str(fixtures["eta"]), "--out", str(out_path)])
        assert code == 0
        report = _strict_json(out_path.read_text())
        assert report["status"] == "pass"

    def test_status_matches_checks(self, fixtures, capsys):
        _, report = run_cli(capsys, "verify", "--hamiltonian", fixtures["H"],
                            "--eta", fixtures["identity"])
        assert report["status"] == "fail"
        assert any(not c["passed"] for c in report["checks"])

    def test_module_entry_point(self, fixtures):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudoherm", "verify",
             "--hamiltonian", str(fixtures["H"]), "--eta", str(fixtures["eta"])],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert _strict_json(proc.stdout)["status"] == "pass"

    @pytest.mark.parametrize("exc", [RuntimeError("handler broke"), MemoryError("no room")],
                             ids=["RuntimeError", "MemoryError"])
    def test_unexpected_exception_is_internal_error(self, fixtures, tmp_path, capsys,
                                                    monkeypatch, exc):
        def fail(args, inputs):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "verify", fail)
        out = tmp_path / "report.json"
        code = main(["verify", "--hamiltonian", str(fixtures["H"]), "--eta", str(fixtures["eta"]),
                     "--out", str(out)])
        assert code == 3
        report = _strict_json(out.read_text())
        assert report["status"] == "internal_error"
        assert report["error"] == f"{type(exc).__name__}: {exc}"
        assert report["traceback"].startswith("Traceback")
        assert report["traceback"].endswith(f"{report['error']}\n")
        assert (report["inputs"], report["results"], report["checks"]) == ({}, {}, [])
        assert "Traceback" not in capsys.readouterr().err


def _imported_modules(*argv):
    """Exit code and the modules that ``python -m pseudoherm argv`` imports."""
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pseudoherm", *map(str, argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


class TestImports:
    """Each subcommand loads only the modules it runs."""

    @pytest.mark.parametrize("command", ["weyl", "help"])
    def test_no_numpy(self, fixtures, tmp_path, command):
        argv = (["weyl", "--spec", fixtures["weyl"], "--out", tmp_path / "r.json"]
                if command == "weyl" else ["--help"])
        code, modules = _imported_modules(*argv)
        assert code == 0
        assert "pseudoherm.cli" in modules
        assert {m for m in modules if m.split(".")[0] == "numpy"} == set()

    def test_verify_loads_no_weyl_algebra(self, fixtures, tmp_path):
        code, modules = _imported_modules("verify", "--hamiltonian", fixtures["H"], "--eta",
                                          fixtures["eta"], "--out", tmp_path / "r.json")
        assert code == 0
        assert "pseudoherm.metric" in modules
        assert "pseudoherm.weyl" not in modules
