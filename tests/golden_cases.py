"""The command-line runs whose reports ``tests/golden`` holds, and the inputs they read.

``CASE_IDS`` names one run for each case of the benchmark's cli-batch table
(``perfbench/workloads.py``, ``_cli_cases``: every subcommand with each exit
code it is expected to give), on n=8 inputs that ``write_inputs`` builds from
fixed seeds, then one run for each flag that table leaves out, then the
command-line examples of the README.  Each run goes in-process through
``cli.main``.  A report is stored with the directory of its files written as
``<tmp>``: a JSON report without its ``generated_at``, a ``--format text``
report as its text.

    PYTHONPATH=src python tests/regenerate_golden.py          # print the diff
    PYTHONPATH=src python tests/regenerate_golden.py --write  # and rewrite
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import defaultdict

import numpy as np

from pseudoherm import catalog_oscillator, cli
from pseudoherm.io import write_matrix

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
N = 8
SEEDS = (18, 1)


def _gauss(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _similarity(rng, n):
    """A random S with condition number at most 4, and its inverse."""
    u, v = np.linalg.qr(_gauss(rng, n))[0], np.linalg.qr(_gauss(rng, n))[0]
    d = rng.uniform(0.5, 2.0, n)
    return (u * d) @ v, (v.conj().T / d) @ u.conj().T


def _hermitian(m):
    return (m + m.conj().T) / 2.0


def _unit(m):
    return m / np.linalg.norm(m)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def write_inputs(directory) -> dict:
    """Write every input file of the cases under directory; the flag values by name.

    The inputs go to ``inputs/`` and the example subcommands write to ``examples/``,
    so no case reads a file another one writes."""
    rng = np.random.default_rng(SEEDS)
    n, pairs = N, N // 4
    S, S_inv = _similarity(rng, n)
    H = _unit(S @ np.diag(rng.uniform(0.5, 3.0, n)) @ S_inv)
    eta = _unit(_hermitian(S_inv.conj().T @ S_inv))
    other_inv = _similarity(rng, n)[1]
    eta_wrong = _unit(_hermitian(other_inv.conj().T @ other_inv))
    S2, S2_inv = _similarity(rng, n)
    S3, S3_inv = _similarity(rng, n)
    # two conjugate pairs and four real eigenvalues; M pairs each with its conjugate
    centres = rng.permutation(np.linspace(-2.0, 2.0, n - pairs))
    widths = rng.uniform(0.5, 1.5, pairs)
    lam = np.concatenate([centres[:pairs] + 1j * widths, centres[:pairs] - 1j * widths,
                          centres[pairs:]])
    M = np.zeros((n, n))
    M[np.arange(pairs), np.arange(pairs) + pairs] = M[np.arange(pairs) + pairs, np.arange(pairs)] = 1
    M[np.arange(2 * pairs, n), np.arange(2 * pairs, n)] = 1
    spectrum = rng.uniform(0.5, 3.0, n)
    spectrum[0] = 0.0
    S4 = _gauss(rng, n)
    U = np.linalg.qr(_gauss(rng, n))[0]
    osc_H, osc_eta = catalog_oscillator(2.0)
    matrices = {
        "H": H, "eta": eta, "eta_wrong": eta_wrong,
        "H_quasi": S4 @ np.diag(np.linspace(-2.0, 2.0, n)) @ np.linalg.inv(S4),
        "H_tiny": 1e-12 * H, "eta_wrong_tiny": 1e-12 * eta_wrong,
        "H_pseudo": S3 @ np.diag(lam) @ S3_inv,
        "eta_pseudo": _hermitian(S3_inv.conj().T @ M @ S3_inv),
        "H_none": S2 @ np.diag(rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(0.5, 3.0, n)) @ S2_inv,
        "H_singular": S2 @ np.diag(spectrum) @ S2_inv,
        "eta_singular": _hermitian(S2_inv.conj().T @ S2_inv),
        "K_noncommuting": _hermitian(rng.standard_normal((n, n)) + 0j),
        "H_hermitian": _hermitian(U @ np.diag(rng.uniform(-1.0, 1.0, n)) @ U.conj().T),
        "identity": np.eye(n),
        # the README's files: what `example oscillator --omega 2` writes, and diag41.json
        "oscillator_hamiltonian": osc_H, "oscillator_eta": osc_eta,
        "diag41": np.diag([4.0, 1.0]),
    }
    inputs = os.path.join(directory, "inputs")
    os.makedirs(inputs, exist_ok=True)
    files = {"root": str(directory), "dir": os.path.join(directory, "examples")}
    for key, m in matrices.items():
        files[key] = os.path.join(inputs, key + ".json")
        write_matrix(files[key], m)
    spec = {"V": rng.standard_normal(9).tolist(), "alpha": float(rng.uniform(0.5, 2.0)),
            "beta": float(rng.standard_normal()), "gamma": float(rng.uniform(0.25, 1.0)),
            "f": rng.standard_normal(3).tolist()}
    readme_spec = {"V": [0, 0, 1], "alpha": 1.0, "beta": 0.0, "gamma": 1.0, "f": [0, 2]}
    for key, obj in {"malformed": {"n": n, "entries": [[[1.0, 0.0]] * n] * (n - 1)},
                     "spec": spec, "shifted": readme_spec,
                     "spec_malformed": {k: v for k, v in spec.items() if k != "gamma"}}.items():
        files[key] = os.path.join(inputs, key + ".json")
        _write_json(files[key], obj)
    files["wrong_theta"] = repr(2 * spec["gamma"] + float(rng.uniform(0.1, 1.0)))
    files["omega"] = repr(float(rng.uniform(0.5, 3.0)))
    return files


def _cases(f) -> dict[str, list[str]]:
    return {
        "verify-0": ["verify", "--hamiltonian", f["H"], "--eta", f["eta"]],
        "verify-1-wrong-eta": ["verify", "--hamiltonian", f["H"], "--eta", f["eta_wrong"]],
        "verify-1-tiny": ["verify", "--hamiltonian", f["H_tiny"], "--eta", f["eta_wrong_tiny"]],
        "verify-2-malformed": ["verify", "--hamiltonian", f["malformed"], "--eta", f["eta"]],
        "solve-0-positive": ["solve", "--hamiltonian", f["H_quasi"], "--positive"],
        "solve-0-pseudo": ["solve", "--hamiltonian", f["H_pseudo"]],
        "solve-1-none": ["solve", "--hamiltonian", f["H_none"]],
        "chain-0": ["chain", "--hamiltonian", f["H"], "--eta0", f["eta"], "--k-max", "4"],
        "chain-0-via-shift": ["chain", "--hamiltonian", f["H_singular"], "--eta0",
                              f["eta_singular"], "--k-max", "4", "--via-shift"],
        "chain-1-singular": ["chain", "--hamiltonian", f["H_singular"], "--eta0",
                             f["eta_singular"], "--k-max", "4"],
        "chain-2-wrong-eta0": ["chain", "--hamiltonian", f["H"], "--eta0", f["eta_wrong"]],
        "perturb-0": ["perturb", "--hamiltonian", f["H"], "--eta", f["eta"], "--poly", "0,0.5"],
        "perturb-1-noncommuting": ["perturb", "--hamiltonian", f["H"], "--eta", f["eta"],
                                   "--poly", "0,0.5", "--k", f["K_noncommuting"]],
        "perturb-1-hermitian": ["perturb", "--hamiltonian", f["H_hermitian"], "--eta",
                                f["identity"], "--poly", "1"],
        "quasi-0": ["quasi", "--hamiltonian", f["H"], "--eta", f["eta"]],
        "quasi-1-indefinite": ["quasi", "--hamiltonian", f["H_pseudo"], "--eta", f["eta_pseudo"]],
        "weyl-0": ["weyl", "--spec", f["spec"]],
        "weyl-1-wrong-theta": ["weyl", "--spec", f["spec"], "--theta", f["wrong_theta"]],
        "weyl-2-malformed": ["weyl", "--spec", f["spec_malformed"]],
        "example-0-two-point": ["example", "two-point", "--x", "1+1i", "--y", "0.5",
                                "--out-dir", f["dir"]],
        "example-0-oscillator": ["example", "oscillator", "--omega", f["omega"],
                                 "--out-dir", f["dir"]],
        "example-2-no-x": ["example", "two-point", "--out-dir", f["dir"]],
        # the flags outside the case table
        "solve-0-tol": ["solve", "--hamiltonian", f["H_quasi"], "--positive", "--tol", "1e-8"],
        "verify-0-text": ["verify", "--hamiltonian", f["H"], "--eta", f["eta"],
                          "--format", "text"],
        "quasi-1-indefinite-text": ["quasi", "--hamiltonian", f["H_pseudo"], "--eta",
                                    f["eta_pseudo"], "--format", "text"],
        "chain-0-no-normalize": ["chain", "--hamiltonian", f["H"], "--eta0", f["eta"],
                                 "--k-max", "4", "--no-normalize"],
        "perturb-0-allow-hermitian": ["perturb", "--hamiltonian", f["H_hermitian"], "--eta",
                                      f["identity"], "--poly", "1", "--allow-hermitian"],
        "example-0-prefix": ["example", "two-point", "--x", "1+1i", "--y", "0.5",
                             "--out-dir", f["dir"], "--prefix", "pair"],
        "readme-example": ["example", "oscillator", "--omega", "2", "--out-dir", f["dir"]],
        "readme-verify": ["verify", "--hamiltonian", f["oscillator_hamiltonian"],
                          "--eta", f["oscillator_eta"]],
        "readme-solve": ["solve", "--hamiltonian", f["oscillator_hamiltonian"], "--positive"],
        "readme-chain": ["chain", "--hamiltonian", f["oscillator_hamiltonian"],
                         "--eta0", f["oscillator_eta"], "--k-max", "4"],
        "readme-perturb": ["perturb", "--hamiltonian", f["oscillator_hamiltonian"],
                           "--eta", f["oscillator_eta"], "--poly", "0,3"],
        "readme-quasi": ["quasi", "--hamiltonian", f["oscillator_hamiltonian"],
                         "--eta", f["diag41"]],
        "readme-weyl": ["weyl", "--spec", f["shifted"]],
        "readme-weyl-theta-0": ["weyl", "--spec", f["shifted"], "--theta", "0"],
    }


CASE_IDS = tuple(_cases(defaultdict(str)))  # the ids need no input files


def run_case(case: str, files: dict) -> dict:
    """Run one case through cli.main; its exit code and report, as stored."""
    out = os.path.join(files["root"], "report.json")
    argv = _cases(files)[case]
    code = cli.main(argv + ["--out", out])
    with open(out, encoding="utf-8") as handle:
        report = handle.read().replace(files["root"], "<tmp>")
    if cli.build_parser().parse_args(argv).format == "json":
        report = json.loads(report)
        report.pop("generated_at")
    return {"exit_code": code, "report": report}


def dump(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"
