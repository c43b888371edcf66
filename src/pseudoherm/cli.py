"""Command-line front end.

Subcommands: verify, solve, chain, perturb, quasi, weyl, example.  Every run
emits one report (JSON by default, ``--format text`` for humans) containing a
``checks`` array of named pass/fail entries, so CI can assert on named checks
instead of parsing prose.  Exit codes: 0 all checks pass, 1 a mathematical
check failed, 2 input error, 3 internal error (an unexpected exception, reported
with its type and message).  For the same flags, input files and BLAS build,
reports differ only in ``generated_at``: ``python -m pseudoherm`` and the
``pseudoherm`` script default ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1, a value the user set wins, and ``main()`` sets none.

``_COMMANDS`` declares each subcommand once: the module it runs, its matrix-file flags and
its handler.  ``run`` imports that module (so ``weyl`` and ``--help`` start without loading
numpy), calls the ``loaded`` callback of ``main``, so that the process entry can keep the
collector off while the imports run, reads the files and calls the handler with the module
and the matrices; called without a callback, ``main`` leaves the collector alone.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import io
from .errors import (DEFAULT_TOL, Check, CheckError, InputError, RealPolynomial, _finite_real,
                     check_tol)

if TYPE_CHECKING:
    import numpy as np


def _read(args, inputs, *flags) -> list[np.ndarray]:
    """Parse the matrix file named by each flag into inputs; an infinite norm is an InputError.
    With no flag it imports nothing, so a subcommand without matrix files loads no numpy."""
    if not flags:
        return []
    from . import metric

    paths = [getattr(args, flag) for flag in flags]
    matrices = [io.parse_matrix(path) for path in paths]
    for flag, path, m in zip(flags, paths, matrices):
        norm = metric.frobenius(m)
        if norm == math.inf:
            raise InputError(f"--{flag}: the Frobenius norm is beyond the double range")
        inputs[flag] = {"path": str(path), "n": int(m.shape[0]), "frobenius_norm": norm}
    return matrices


def _tol(text: str) -> float:
    """The --tol value: a number that check_tol accepts."""
    try:
        return check_tol(float(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                        help="relative tolerance for all checks (default %(default)s)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")

    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Construct, classify, chain, and verify metric operators "
                    "for pseudo-Hermitian Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        # argparse reads a token that starts with "-" as an option unless it looks like "-1" or
        # "-.5", so "--theta -1e5" had no value.  Each subcommand reads a token that starts with
        # one "-" and names none of its options as a value, as in the "--opt=value" form.
        p = sub.add_parser(name, parents=[common], help=help)
        p._negative_number_matcher = re.compile(r"-[^-]")
        for flag in _COMMANDS[name][1]:
            p.add_argument(f"--{flag}", required=True, metavar="PATH")
        return p

    add("verify", "check that eta intertwines H with its adjoint")

    p = add("solve", "solve for all Hermitian metrics of H")
    p.add_argument("--positive", action="store_true",
                   help="search for a positive representative")

    p = add("chain", "generate the metric chain eta_k = (H^dag)^k eta_0")
    p.add_argument("--k-max", type=int, default=4, metavar="K")
    p.add_argument("--no-normalize", action="store_true",
                   help="keep raw chain elements instead of unit-norm ones")
    p.add_argument("--via-shift", action="store_true",
                   help="build on H + alpha*I when H is singular, then "
                        "validate against the original H")

    p = add("perturb", "form H + f(K) and verify the metric still works")
    p.add_argument("--poly", required=True, metavar="COEFFS",
                   help='real coefficients, constant first, e.g. "0,3" for 3x')
    p.add_argument("--k", default=None, metavar="PATH",
                   help="Hermitian K commuting with eta (default: K = eta)")
    p.add_argument("--allow-hermitian", action="store_true",
                   help="accept a Hermitian input Hamiltonian")

    add("quasi", "metric square root and induced Hermitian Hamiltonian")

    p = add("weyl", "certify a shifted-potential Hamiltonian symbolically")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--theta", type=float, default=None,
                   help="boost parameter (default: 2*gamma from the spec)")

    p = add("example", "write a catalog Hamiltonian/metric pair to files")
    p.add_argument("name", choices=("two-point", "oscillator"))
    p.add_argument("--x", default=None, metavar="COMPLEX",
                   help='two-point diagonal entry, e.g. "1+1i"')
    p.add_argument("--y", default="0", metavar="COMPLEX",
                   help="two-point off-diagonal entry (default 0)")
    p.add_argument("--omega", type=float, default=None,
                   help="oscillator frequency")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--prefix", default=None,
                   help="output file prefix (default: the example name)")
    return parser


def _cmd_verify(args, inputs, metric, H, eta):
    r = metric.residual(H, eta)
    cls = metric.classify_metric(eta, args.tol)
    checks = [Check.at_most("eta_hermitian", cls.hermiticity_defect, args.tol),
              Check.at_most("intertwining_residual", r, args.tol)]
    results = {"residual": r, "eta_classification": io.classification_to_dict(cls)}
    return results, checks


def _cmd_solve(args, inputs, metric, H):
    basis = metric.solve_metric_space(H, args.tol)
    representative = metric.find_metric(basis, want_positive=args.positive)
    checks = [*basis.checks, Check("metric_found", representative is not None)]
    results = io.basis_to_dict(basis)
    results["metric"] = None if representative is None else io.matrix_to_dict(representative)
    results["metric_classification"] = (
        None if representative is None
        else io.classification_to_dict(metric.classify_metric(representative, args.tol)))
    return results, checks


def _cmd_chain(args, inputs, chain, H, eta0):
    builder = chain.chain_via_shift if args.via_shift else chain.build_chain
    out = builder(H, eta0, args.k_max, normalize=not args.no_normalize, tol=args.tol)
    return io.chain_to_dict(out), out.checks


def _cmd_perturb(args, inputs, perturbation, H, eta):
    f = RealPolynomial.parse(args.poly)
    inputs["poly"] = str(f)
    K = eta if args.k is None else _read(args, inputs, "k")[0]
    out = perturbation.perturb(H, eta, K, f, args.tol, allow_hermitian=args.allow_hermitian)
    results = {"commutator_defect": out.commutator_defect,
               "hamiltonian_tilde": io.matrix_to_dict(out.H_tilde),
               "residual": out.residual}
    return results, out.checks


def _cmd_quasi(args, inputs, quasi, H, eta):
    out = quasi.quasi_hermitian(H, eta, args.tol)
    results = {"eta_classification": io.classification_to_dict(out.eta_classification),
               "residual": out.residual}
    if out.form is not None:
        results["sqrt_eta"] = io.matrix_to_dict(out.form.sqrt_eta)
        results["induced_hamiltonian"] = io.matrix_to_dict(out.hamiltonian)
        results["eigenvalues"] = [[float(z.real), float(z.imag)] for z in out.eigenvalues]
    return results, out.checks


def _cmd_weyl(args, inputs, weyl):
    from fractions import Fraction

    spec = io.parse_weyl_spec(args.spec)
    inputs["spec"] = {"path": str(args.spec), "potential_degree": spec.V.degree,
                      "momentum_degree": spec.f.degree, "alpha": spec.alpha,
                      "beta": spec.beta, "gamma": spec.gamma}
    theta = _finite_real(args.theta, "--theta") if args.theta is not None else spec.theta
    H = weyl.build_shifted_hamiltonian(spec)
    residual_poly = weyl.boost_residual(H, theta)
    results = {"theta": str(Fraction(theta)),  # the theta checked, exact like the terms
               "hamiltonian_terms": io.weyl_terms_to_list(H),
               "residual_terms": io.weyl_terms_to_list(residual_poly)}
    return results, [Check.at_most("residual_zero", float(len(residual_poly.terms)), 0.0)]


def _cmd_example(args, inputs, metric):
    if args.name == "two-point":
        if args.x is None:
            raise InputError("example two-point requires --x")
        x = io.parse_complex_scalar(args.x)
        y = io.parse_complex_scalar(args.y)
        H, eta = metric.catalog_two_point(x, y)
        params = {"x": [x.real, x.imag], "y": [y.real, y.imag]}
    else:
        if args.omega is None:
            raise InputError("example oscillator requires --omega")
        H, eta = metric.catalog_oscillator(args.omega)
        params = {"omega": args.omega}
    prefix = args.prefix if args.prefix is not None else args.name.replace("-", "_")
    h_path = os.path.join(args.out_dir, f"{prefix}_hamiltonian.json")
    eta_path = os.path.join(args.out_dir, f"{prefix}_eta.json")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        io.write_matrix(h_path, H)
        io.write_matrix(eta_path, eta)
    except OSError as exc:
        raise InputError(f"--out-dir: cannot write the pair to {args.out_dir} ({exc})") from None
    r = metric.residual(H, eta)
    inputs.update(example=args.name, params=params)
    checks = [Check.at_most("intertwining_residual", r, args.tol)]
    results = {"hamiltonian_path": h_path, "eta_path": eta_path, "residual": r,
               "hamiltonian": io.matrix_to_dict(H), "eta": io.matrix_to_dict(eta)}
    return results, checks


# Each subcommand's module, its required matrix-file flags in the handler's order, and its
# handler, called as handler(args, inputs, module, *matrices); importing the module loads
# every module the handler needs.
_COMMANDS = {
    "verify": ("metric", ("hamiltonian", "eta"), _cmd_verify),
    "solve": ("metric", ("hamiltonian",), _cmd_solve),
    "chain": ("chain", ("hamiltonian", "eta0"), _cmd_chain),
    "perturb": ("perturbation", ("hamiltonian", "eta"), _cmd_perturb),
    "quasi": ("quasi", ("hamiltonian", "eta"), _cmd_quasi),
    "weyl": ("weyl", (), _cmd_weyl),
    "example": ("metric", (), _cmd_example),
}


def _is_linalg_error(exc: Exception) -> bool:
    """Whether exc is numpy's LinAlgError, which only a loaded numpy can raise."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(exc, np.linalg.LinAlgError)


def run(args: argparse.Namespace, loaded=None) -> tuple[dict, int]:
    """Execute one parsed command; returns (report, exit_code) and never raises
    on an exception from a handler or from the import of its module.

    The subcommand's module (``_COMMANDS``) is imported first, then ``loaded``, if
    given, is called, then its matrix files are read into ``inputs``.  The handler
    takes the module and the matrices, adds any other inputs as it parses them and
    returns (results, checks).  A CheckError from the library becomes a failing report
    that keeps those inputs and lists ``exc.checks``; a LinAlgError counts as an
    input error.  Any other exception is an internal error (exit 3) whose report
    names its type and message and keeps its traceback.
    """
    report = {
        "command": args.command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tol": args.tol,
    }
    inputs = {}
    error = None
    try:
        name, files, handler = _COMMANDS[args.command]
        module = getattr(__import__(f"{__package__}.{name}"), name)
        if loaded is not None:
            loaded()
        results, checks = handler(args, inputs, module, *_read(args, inputs, *files))
    except CheckError as exc:
        results, checks, error = {}, exc.checks, str(exc)
    except Exception as exc:
        report.update(inputs={}, results={}, checks=[])
        if isinstance(exc, InputError) or _is_linalg_error(exc):
            report.update(status="input_error", error=str(exc))
            return report, 2
        import traceback

        report.update(status="internal_error", error=f"{type(exc).__name__}: {exc}",
                      traceback=traceback.format_exc())
        return report, 3
    report["inputs"] = inputs
    report["results"] = results
    report["checks"] = [c._asdict() for c in checks]
    passed = all(c.passed for c in checks)
    report["status"] = "pass" if passed else "fail"
    if error is not None:
        report["error"] = error
    return report, 0 if passed else 1


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report.get("error"):
        lines.append(f"error: {report['error']}")
    for name, digest in sorted(report.get("inputs", {}).items()):
        lines.append(f"input {name}: {json.dumps(digest, sort_keys=True)}")
    for check in report.get("checks", []):
        verdict = "PASS" if check["passed"] else "FAIL"
        detail = ""
        if check["value"] is not None:
            detail = f" (value={check['value']:.6g}"
            if check["threshold"] is not None:
                detail += f", threshold={check['threshold']:.6g}"
            detail += ")"
        lines.append(f"check {check['name']}: {verdict}{detail}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def main(argv=None, loaded=None) -> int:
    """Run one command line and write its report; returns the exit code.  ``loaded``, if
    given, is called once the subcommand's modules are imported, before it runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report, code = run(args, loaded)
    if args.format == "text":
        rendered = render_text(report)
    else:
        rendered = json.dumps(report, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return code
