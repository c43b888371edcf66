"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import re
import time
from fractions import Fraction

import numpy as np

from oracles import (
    intertwiner_nullspace_dimension,
    oscillator_basis_matrices,
    random_pseudo_hermitian,
    weyl_terms_to_matrix,
)
from pseudoherm import (
    RationalComplex,
    RealPolynomial,
    ShiftedPotentialSpec,
    WeylPolynomial,
    auto_K,
    build_chain,
    catalog_oscillator,
    catalog_two_point,
    chain_via_shift,
    check_symbolic,
    classify_metric,
    find_metric,
    hermiticity_defect,
    induced_hamiltonian,
    metric_sqrt,
    perturb,
    residual,
    solve_metric_space,
)
from pseudoherm.cli import main
from pseudoherm.io import write_matrix
from test_cli import _strict_json


def conclude(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {status}")
    assert not failures, f"criterion {number} ({title}): " + "; ".join(failures)


def test_criterion_1_two_point_chain_reproduction():
    failures = []
    H, eta0 = catalog_two_point(1 + 1j, 0.0)
    start = time.perf_counter()
    chain = build_chain(H, eta0, k_max=8, normalize=False)
    elapsed = time.perf_counter() - start
    x = 1 + 1j
    for k, eta in enumerate(chain.etas):
        expected = np.array([[0.0, np.conj(x) ** k], [x ** k, 0.0]])
        err = np.abs(eta - expected)
        bound = 1e-12 * np.abs(expected) + 1e-300
        if not np.all(err <= bound):
            failures.append(f"k={k}: entrywise relative error {err.max():.3e}")
    if elapsed >= 0.1:
        failures.append(f"runtime {elapsed:.3f}s >= 0.1s")
    conclude(1, "two-point chain closed form", failures)


def test_criterion_2_oscillator_parity_law():
    failures = []
    for omega in (0.5, 2.0, 3.0):
        H, eta0 = catalog_oscillator(omega)
        chain = build_chain(H, eta0, k_max=6, normalize=False)
        for k in range(len(chain.etas) - 2):
            diff = np.linalg.norm(chain.etas[k + 2] - omega ** 2 * chain.etas[k])
            scale = np.linalg.norm(chain.etas[k + 2])
            if diff > 1e-12 * scale:
                failures.append(f"omega={omega}, k={k}: parity defect {diff / scale:.3e}")
        bad = [r for r in chain.residuals if r > 1e-10]
        if bad:
            failures.append(f"omega={omega}: residuals {bad}")
    conclude(2, "oscillator parity law", failures)


def test_criterion_3_metric_space_dimensions():
    failures = []
    cases = [
        ("oscillator omega=2", *catalog_oscillator(2.0)),
        ("two-point x=i y=1", *catalog_two_point(1j, 1.0)),
    ]
    for label, H, eta_paper in cases:
        basis = solve_metric_space(H)
        oracle_dim = intertwiner_nullspace_dimension(H)
        if basis.dimension != 2:
            failures.append(f"{label}: dimension {basis.dimension} != 2")
        if basis.dimension != oracle_dim:
            failures.append(f"{label}: solver {basis.dimension} != oracle {oracle_dim}")
        proj = np.zeros_like(eta_paper)
        for b in basis.basis:
            proj = proj + np.real(np.trace(b.conj().T @ eta_paper)) * b
        defect = np.linalg.norm(eta_paper - proj) / np.linalg.norm(eta_paper)
        if defect > 1e-10:
            failures.append(f"{label}: projection defect {defect:.3e}")
    conclude(3, "metric space dimensions and membership", failures)


def test_criterion_4_perturbation_suite():
    failures = []
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    trials = 0
    attempts = 0
    while trials < 100 and attempts < 200:
        attempts += 1
        n = int(rng.integers(2, 7))
        H = random_pseudo_hermitian(n, rng)
        if hermiticity_defect(H) <= 1e-10:
            continue
        eta = find_metric(solve_metric_space(H, tol=1e-8))
        if eta is None:
            failures.append(f"trial {trials}: no invertible metric found (n={n})")
            break
        f = RealPolynomial(rng.uniform(-1.0, 1.0, size=4))
        K = auto_K(eta, f, tol=1e-8)
        out = perturb(H, eta, K, RealPolynomial([0.0, 1.0]), tol=1e-8)
        if out.residual > 1e-8:
            failures.append(f"trial {trials}: residual {out.residual:.3e}")
        drift = np.linalg.norm((out.H_tilde - out.H_tilde.conj().T) - (H - H.conj().T))
        if drift > 1e-12:
            failures.append(f"trial {trials}: anti-Hermitian drift {drift:.3e}")
        trials += 1
    elapsed = time.perf_counter() - start
    if trials < 100:
        failures.append(f"only {trials} valid trials")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    conclude(4, "perturbation suite, 100 random trials", failures)


def test_criterion_5_quasi_hermitian_pipeline():
    failures = []
    H, eta0 = catalog_oscillator(2.0)
    eta1 = build_chain(H, eta0, k_max=1, normalize=False).etas[1]
    if not np.allclose(eta1, np.diag([4.0, 1.0]), atol=1e-14):
        failures.append(f"eta_1 != diag(4,1): {eta1.tolist()}")
    if not classify_metric(eta1).positive:
        failures.append("eta_1 does not classify positive")
    H_eta = induced_hamiltonian(H, metric_sqrt(eta1))
    if not np.allclose(H_eta, np.array([[0.0, 2j], [-2j, 0.0]]), atol=1e-12):
        failures.append(f"H_eta != [[0,2i],[-2i,0]]: {H_eta.tolist()}")
    herm_defect = np.linalg.norm(H_eta - H_eta.conj().T)
    if herm_defect > 1e-12:
        failures.append(f"H_eta hermiticity defect {herm_defect:.3e}")
    eigs = np.sort(np.linalg.eigvalsh((H_eta + H_eta.conj().T) / 2))
    if not np.allclose(eigs, [-2.0, 2.0], atol=1e-10):
        failures.append(f"eigenvalues {eigs.tolist()} != [-2, 2]")
    conclude(5, "quasi-Hermitian pipeline", failures)


def test_criterion_6_spectrum_shift_workaround():
    failures = []
    singular_cases = [
        ("nilpotent two-point", np.array([[1j, 1.0], [1.0, -1j]])),
        ("degenerate oscillator", np.array([[0.0, 1j], [0.0, 0.0]])),
    ]
    for label, H in singular_cases:
        eta0 = find_metric(solve_metric_space(H))
        if eta0 is None:
            failures.append(f"{label}: no starting metric found")
            continue
        shifted = chain_via_shift(H, eta0, k_max=3)
        bad = [r for r in shifted.residuals if r > 1e-10]
        if bad:
            failures.append(f"{label}: shifted-chain residuals {bad}")
        if not all(residual(H, e) <= 1e-10 for e in shifted.etas):
            failures.append(f"{label}: element fails against original H")
        plain = build_chain(H, eta0, k_max=3)
        if not plain.degenerate_indices:
            failures.append(f"{label}: plain chain flags no degenerate element")
    conclude(6, "spectrum-shift chain construction", failures)


def test_criterion_7_boost_certification():
    failures = []
    potentials = {
        "x^2": [0, 0, 1],
        "x^4+x^2": [0, 0, 1, 0, 1],
        "x^6-2x^3+1": [1, 0, 0, -2, 0, 0, 1],
    }
    rng = np.random.default_rng(77)
    draws = []
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(0.05, 2.0)) * (1 if rng.random() < 0.5 else -1)
        f = rng.uniform(-2.0, 2.0, size=int(rng.integers(0, 5)))
        draws.append((alpha, beta, gamma, f))
    start = time.perf_counter()
    for name, v in potentials.items():
        for alpha, beta, gamma, f in draws:
            spec = ShiftedPotentialSpec(V=RealPolynomial(v), alpha=alpha, beta=beta,
                                        gamma=gamma, f=RealPolynomial(f))
            if not check_symbolic(spec).is_zero():
                failures.append(f"{name}, gamma={gamma}: derived theta not certified")
            probe = check_symbolic(spec, theta_override=2 * gamma + 0.001)
            if probe.is_zero():
                failures.append(f"{name}, gamma={gamma}: perturbed theta not detected")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    conclude(7, "boost certification theta=2*gamma", failures)


def test_criterion_8_algebra_property_suite():
    failures = []
    rng = np.random.default_rng(88)

    def random_poly():
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            a = int(rng.integers(0, 5))
            b = int(rng.integers(0, 5 - a))
            terms[(a, b)] = RationalComplex(int(rng.integers(-5, 6)),
                                            int(rng.integers(-5, 6)))
        return WeylPolynomial(terms)

    polys = [random_poly() for _ in range(200)]
    theta = Fraction(5, 3)
    for i, A in enumerate(polys):
        B = polys[(i + 1) % len(polys)]
        C = polys[(i + 2) % len(polys)]
        if A.adjoint().adjoint() != A:
            failures.append(f"poly {i}: adjoint not an involution")
        if (A * B).adjoint() != B.adjoint() * A.adjoint():
            failures.append(f"poly {i}: adjoint not an anti-homomorphism")
        if (A * B).boost(theta) != A.boost(theta) * B.boost(theta):
            failures.append(f"poly {i}: boost not a homomorphism")
        if A.boost(theta).boost(-theta) != A:
            failures.append(f"poly {i}: boost not invertible")
        if (A * B) * C != A * (B * C):
            failures.append(f"poly {i}: product not associative")
        if failures:
            break
    levels = 12
    x, p = oscillator_basis_matrices(levels)
    ordered = (WeylPolynomial.monomial(0, 2) * WeylPolynomial.monomial(2, 0)).terms
    direct = p @ p @ x @ x
    inner = levels - 4
    if not np.allclose(weyl_terms_to_matrix(ordered, x, p)[:inner, :inner],
                       direct[:inner, :inner], atol=1e-12):
        failures.append("p^2 x^2 disagrees with the truncated-basis oracle")
    conclude(8, "operator algebra property suite", failures)


def test_criterion_9_cli_contract(tmp_path, capsys):
    failures = []
    H, eta = catalog_oscillator(2.0)
    h_path, eta_path = tmp_path / "h.json", tmp_path / "eta.json"
    write_matrix(h_path, H)
    write_matrix(eta_path, eta)
    spec_path = tmp_path / "w.json"
    spec_path.write_text(json.dumps(
        {"V": [0, 0, 1], "alpha": 1, "beta": 0, "gamma": 1, "f": []}))

    code = main(["verify", "--hamiltonian", str(h_path), "--eta", str(eta_path),
                 "--out", str(tmp_path / "ok.json")])
    if code != 0:
        failures.append(f"passing verify exited {code}")
    code = main(["weyl", "--spec", str(spec_path), "--theta", "0",
                 "--out", str(tmp_path / "fail.json")])
    if code != 1:
        failures.append(f"failing weyl exited {code}")
    code = main(["solve", "--hamiltonian", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "err.json")])
    if code != 2:
        failures.append(f"input error exited {code}")
    if _strict_json((tmp_path / "err.json").read_text())["status"] != "input_error":
        failures.append("input_error status missing from report")

    stamp = re.compile(r'^\s*"generated_at".*$', re.MULTILINE)
    argv = ["chain", "--hamiltonian", str(h_path), "--eta0", str(eta_path),
            "--k-max", "3", "--out"]
    main(argv + [str(tmp_path / "one.json")])
    main(argv + [str(tmp_path / "two.json")])
    one = stamp.sub("", (tmp_path / "one.json").read_text())
    two = stamp.sub("", (tmp_path / "two.json").read_text())
    if one.encode() != two.encode():
        failures.append("reports differ beyond the timestamp field")
    conclude(9, "CLI exit codes and determinism", failures)
