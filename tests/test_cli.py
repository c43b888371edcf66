import json
import re
import subprocess
import sys

import numpy as np
import pytest

from pseudoherm import catalog_oscillator, catalog_two_point
from pseudoherm.cli import main
from pseudoherm.io import parse_matrix, write_matrix

TIMESTAMP = re.compile(r'^\s*"generated_at".*$', re.MULTILINE)


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
    return code, (json.loads(out) if out.lstrip().startswith("{") else out)


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


class TestSolve:
    def test_solution_space_with_positive_representative(self, fixtures, capsys):
        code, report = run_cli(capsys, "solve", "--hamiltonian", fixtures["H"],
                               "--positive")
        assert code == 0
        assert report["results"]["dimension"] == 2
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
        write_matrix(tmp_path / "h.json", np.diag(np.arange(8.0)))
        write_matrix(tmp_path / "i.json", np.eye(8))
        out = tmp_path / "report.json"
        code = main(["chain", "--hamiltonian", str(tmp_path / "h.json"), "--eta0",
                     str(tmp_path / "i.json"), "--via-shift", "--tol", "0.5", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["status"] == "fail"
        assert report["checks"] == [{"name": "invertible_shift_found", "passed": False,
                                     "value": 100.0, "threshold": None}]
        assert set(report["inputs"]) == {"hamiltonian", "eta0"}

    def test_linalg_error_is_input_error(self, fixtures, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("pseudoherm.cli.chain_via_shift", fail)
        out = tmp_path / "report.json"
        code = main(["chain", "--hamiltonian", str(fixtures["nilpotent_H"]), "--eta0",
                     str(fixtures["sigma_x"]), "--via-shift", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["status"] == "input_error"
        assert "SVD did not converge" in report["error"]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


class TestHugeScale:
    """Entries near 1e200 overflow a plain Frobenius norm; reports stay valid JSON."""

    @pytest.fixture
    def huge(self, tmp_path):
        write_matrix(tmp_path / "h.json", 1e200 * np.diag([0.0, 1.0, 2.0]))
        write_matrix(tmp_path / "i.json", np.eye(3))
        write_matrix(tmp_path / "p.json", np.eye(3)[[1, 0, 2]])
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

    def test_chain_via_shift_passes(self, huge, capsys):
        code = main(["chain", "--hamiltonian", str(huge / "h.json"),
                     "--eta0", str(huge / "i.json"), "--via-shift"])
        report = _strict_json(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "pass"
        assert report["results"]["shift_alpha"] == pytest.approx(np.sqrt(5.0) * 1e200,
                                                                 rel=1e-12)


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

    def test_indefinite_metric_fails(self, fixtures, capsys):
        code, report = run_cli(capsys, "quasi", "--hamiltonian", fixtures["H"],
                               "--eta", fixtures["eta"])
        assert code == 1
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["eta_positive"]["passed"] is False


class TestWeyl:
    def test_derived_theta_passes(self, fixtures, capsys):
        code, report = run_cli(capsys, "weyl", "--spec", fixtures["weyl"])
        assert code == 0
        assert report["results"]["theta"] == 2.0
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

    def test_out_file_written(self, fixtures, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--hamiltonian", str(fixtures["H"]),
                     "--eta", str(fixtures["eta"]), "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
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
        assert json.loads(proc.stdout)["status"] == "pass"
