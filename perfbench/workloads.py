"""The four benchmark workloads: seeded problem lists, the calls into
pseudoherm, and a ground-truth oracle for every answer.

Every problem carries the answer its construction guarantees.  The oracle
compares the program's answer with it outside the timed region and returns
one of three verdicts:

* ``"ok"``: the answer matches the ground truth;
* ``"known:<defect>"``: the answer is wrong in exactly the way a defect
  listed in ``KNOWN_DEFECTS`` predicts; it counts against ``ops_ok_share``
  but is not an unexpected failure;
* ``"fail:<reason>"``: any other wrong answer, traceback or missing report.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import pseudoherm as ph
from pseudoherm import cli

# The library's default relative tolerance; every library call below uses it.
TOL = ph.DEFAULT_TOL

KNOWN_DEFECTS = {
    "positive-search-miss":
        "find_metric(want_positive=True) returns None for a quasi-Hermitian H "
        "although S^-dag S^-1 is a positive metric",
    "absolute-floor":
        "max(1, .) floors make residual, hermiticity and invertibility checks "
        "absolute for inputs of norm below 1, so verdicts change with scale",
}

# Scales applied independently to H and eta in dense-certify.  Every
# (H scale, eta scale) combination occurs the same number of times in every
# list, so the share of problems that meet a scale defect does not depend on
# the seed.
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


@dataclass
class Problem:
    kind: str
    inputs: dict
    expect: dict


# -- shared helpers -------------------------------------------------------


def _adj(m):
    return m.conj().T


def _fro(m):
    return float(np.linalg.norm(m))


def _unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _similarity(rng, n):
    """A random S with condition number at most 4, and its inverse."""
    d = rng.uniform(0.5, 2.0, n)
    u, v = _unitary(rng, n), _unitary(rng, n)
    return (u * d) @ v, (_adj(v) / d) @ _adj(u)


def _hermitian(m):
    return (m + _adj(m)) / 2.0


def _unit(m):
    return m / _fro(m)


def _real_spectrum(rng, n, low=-2.0, high=2.0):
    """n distinct reals in [low, high], at least (high-low)/(2n) apart."""
    grid = np.linspace(low, high, n)
    jitter = rng.uniform(-0.25, 0.25, n) * (high - low) / n
    return rng.permutation(grid + jitter)


def rel_residual(H, eta):
    """``|eta H - H^dag eta|_F / (|H|_F |eta|_F)``, with no floor."""
    denom = _fro(H) * _fro(eta)
    return _fro(eta @ H - _adj(H) @ eta) / denom if denom > 0 else float("inf")


def rel_defect(m):
    """``|m - m^dag|_F / |m|_F``, with no floor."""
    norm = _fro(m)
    return _fro(m - _adj(m)) / norm if norm > 0 else float("inf")


def _classes(rng, shares: dict) -> list[str]:
    """Each class ``shares[kind]`` times, in a seeded order."""
    kinds = [k for k, count in shares.items() for _ in range(count)]
    return [str(k) for k in rng.permutation(kinds)]


# -- dense-solve ----------------------------------------------------------


class DenseSolve:
    """solve_metric_space then find_metric on generated H at one size.

    Classes (fixed counts per list): quasi-Hermitian ``S diag(real) S^-1``,
    which must give a positive metric; pseudo-Hermitian with complex
    conjugate pairs, which must give an invertible (indefinite) metric; and
    ``S J S^-1`` with J one Jordan block, which must give an invertible one.
    """

    name = "dense-solve"
    reference = "mixed"
    n = 16
    shares = {"quasi": 34, "pseudo": 33, "jordan": 33}

    def generate(self, rng, work_dir, n=None, shares=None):
        n = n or self.n
        shares = shares or self.shares
        problems = []
        for kind in _classes(rng, shares):
            S, S_inv = _similarity(rng, n)
            if kind == "quasi":
                core = np.diag(_real_spectrum(rng, n))
            elif kind == "pseudo":
                pairs = n // 4
                centres = _real_spectrum(rng, n - pairs)
                widths = rng.uniform(0.5, 1.5, pairs)
                spectrum = np.concatenate([centres[:pairs] + 1j * widths,
                                           centres[:pairs] - 1j * widths,
                                           centres[pairs:n - pairs]])
                core = np.diag(spectrum)
            else:
                core = np.diag(np.full(n, rng.uniform(-1.0, 1.0)))
                core += np.diag(np.ones(n - 1), 1)
            H = S @ core @ S_inv
            problems.append(Problem(kind, {"H": H, "positive": kind == "quasi"},
                                    {"dimension": n}))
        return problems

    def warm_up(self, rng, work_dir):
        for p in self.generate(rng, work_dir, n=4, shares={"quasi": 1, "pseudo": 1, "jordan": 1}):
            self.run(p)

    def run(self, p, in_process=False):
        basis = ph.solve_metric_space(p.inputs["H"])
        return basis, ph.find_metric(basis, want_positive=p.inputs["positive"])

    def check(self, p, answer):
        basis, eta = answer
        H = p.inputs["H"]
        if basis.dimension != p.expect["dimension"]:
            return f"fail:dimension {basis.dimension} != {p.expect['dimension']}"
        for b in basis.basis:
            if rel_defect(b) > TOL or rel_residual(H, b) > TOL:
                return "fail:basis element is not a Hermitian intertwiner"
        if eta is None:
            return "known:positive-search-miss" if p.inputs["positive"] else "fail:no metric"
        if rel_defect(eta) > TOL or rel_residual(H, eta) > TOL:
            return "fail:representative is not a Hermitian intertwiner"
        eigs = np.linalg.eigvalsh(_hermitian(eta))
        floor = TOL * _fro(eta)
        if np.min(np.abs(eigs)) <= floor:
            return "fail:representative is singular"
        if p.inputs["positive"] and eigs[0] <= floor:
            return "fail:representative is not positive"
        return "ok"

    def corrupt(self, p, answer):
        basis, eta = answer
        noise = _hermitian(np.random.default_rng(0).standard_normal(eta.shape))
        return basis, eta + 1e-3 * noise


# -- dense-certify --------------------------------------------------------

# Verdicts of the certify pipeline at unit scale, by construction.
_PASS_ALL = {"verify": (True, True, True), "chain": "ok", "perturb": "ok",
             "sqrt": "ok", "induced": "ok"}
_CERTIFY_EXPECT = {
    "good": _PASS_ALL,
    "good-shift": _PASS_ALL,
    "singular": dict(_PASS_ALL, chain="ok-shifted"),
    "wrong-eta": {"verify": (False, True, True), "chain": "rejected",
                  "perturb": "eta not a metric for H", "sqrt": "ok",
                  "induced": "eta not a metric for H"},
}
_SHIFTED_CHAIN = ("good-shift", "singular")
# f(K) added by perturb, with K = auto_K(eta, x) = eta.
_PERTURB_F = (0.0, 0.5)


class DenseCertify:
    """Check-mode pipeline on known (H, eta) pairs copied across scales.

    H = S D S^-1 with real D and eta = S^-dag S^-1, both normalised to unit
    Frobenius norm, then scaled by independent factors from SCALES.  Per
    problem: residual and classify_metric; build_chain, or chain_via_shift
    for the singular class and for ``good-shift``; perturb with
    K = auto_K(eta); metric_sqrt and induced_hamiltonian.  ``wrong-eta``
    pairs H with the metric of another similarity, ``singular`` has one zero
    eigenvalue.  The verdicts must equal the unit-scale ones at every scale.
    """

    name = "dense-certify"
    reference = "mixed"
    n = 64
    k_max = 64
    # Cost classes: wrong-eta rejected early (cheapest), build_chain (good),
    # chain_via_shift (good-shift, singular; slowest).  These shares keep p50
    # inside the build_chain class and p90 inside the shifted one.
    shares = {"good": 45, "good-shift": 15, "singular": 20, "wrong-eta": 20}

    def generate(self, rng, work_dir, n=None, shares=None):
        n = n or self.n
        shares = shares or self.shares
        scale_pairs = [(a, b) for a in SCALES for b in SCALES]
        problems = []
        seen = {kind: 0 for kind in shares}
        for kind in _classes(rng, shares):
            # stride 7 is coprime to 25, so every class spreads over all pairs
            c_H, c_eta = scale_pairs[7 * seen[kind] % len(scale_pairs)]
            seen[kind] += 1
            S, S_inv = _similarity(rng, n)
            spectrum = rng.uniform(0.5, 3.0, n)
            if kind == "singular":
                spectrum[rng.integers(n)] = 0.0
            H = _unit(S @ np.diag(spectrum) @ S_inv)
            if kind == "wrong-eta":
                _, S_inv = _similarity(rng, n)
            eta = _unit(_hermitian(_adj(S_inv) @ S_inv))
            problems.append(Problem(kind, {"H": c_H * H, "eta": c_eta * eta,
                                           "scales": (c_H, c_eta)},
                                    dict(_CERTIFY_EXPECT[kind])))
        return problems

    def warm_up(self, rng, work_dir):
        shares = {kind: 1 for kind in self.shares}
        for p in self.generate(rng, work_dir, n=4, shares=shares):
            self.run(p)

    def run(self, p, in_process=False):
        H, eta = p.inputs["H"], p.inputs["eta"]
        out = {}
        cls = ph.classify_metric(eta)
        out["verify"] = (ph.residual(H, eta) <= TOL, cls.hermitian, cls.positive)
        builder = ph.chain_via_shift if p.kind in _SHIFTED_CHAIN else ph.build_chain
        try:
            out["chain"] = builder(H, eta, self.k_max, normalize=True)
        except ph.InputError:
            out["chain"] = "rejected"
        f = ph.RealPolynomial(_PERTURB_F)
        try:
            out["perturb"] = ph.perturb(H, eta, ph.auto_K(eta, ph.RealPolynomial((0.0, 1.0))), f)
        except ph.CheckError as exc:
            out["perturb"] = exc.check
        try:
            form = ph.metric_sqrt(eta)
            out["sqrt"] = form
            out["induced"] = ph.induced_hamiltonian(H, form)
        except ph.CheckError as exc:
            out.setdefault("sqrt", exc.check)
            out["induced"] = exc.check
        return out

    def verdicts(self, p, out):
        """Reduce an answer to the verdict tuple; check the numbers it carries."""
        H, eta = p.inputs["H"], p.inputs["eta"]
        got = {"verify": tuple(bool(v) for v in out["verify"])}
        chain = out["chain"]
        if isinstance(chain, str):
            got["chain"] = chain
        elif max(chain.residuals) > TOL or len(chain.etas) != self.k_max + 1:
            got["chain"] = "bad-chain"
        else:
            got["chain"] = "ok-shifted" if chain.shift_alpha != 0.0 else "ok"
        pert = out["perturb"]
        if isinstance(pert, str):
            got["perturb"] = pert
        else:
            expected = H + _PERTURB_F[1] * eta
            got["perturb"] = ("ok" if _fro(pert.H_tilde - expected) <= 1e-12 * _fro(expected)
                              else "bad-perturbation")
        form = out["sqrt"]
        if isinstance(form, str):
            got["sqrt"] = form
        else:
            ok = _fro(form.sqrt_eta @ form.sqrt_eta - eta) <= TOL * _fro(eta)
            got["sqrt"] = "ok" if ok else "bad-sqrt"
        induced = out["induced"]
        if isinstance(induced, str):
            got["induced"] = induced
        else:
            got["induced"] = "ok" if rel_defect(induced) <= TOL else "bad-induced"
        return got

    def check(self, p, answer):
        got = self.verdicts(p, answer)
        wrong = sorted(k for k in p.expect if got[k] != p.expect[k])
        if not wrong:
            return "ok"
        # Below unit scale the floors make checks absolute.  A wrong
        # acceptance there is the known defect, and so is the garbage the
        # pipeline then computes from the accepted input; a wrong number
        # from a valid input is not.
        c_H, c_eta = p.inputs["scales"]
        garbage = [k for k in wrong if p.expect[k] == "ok" and str(got[k]).startswith("bad-")]
        if min(c_H, c_eta) < 1.0 and not garbage:
            return "known:absolute-floor"
        return "fail:" + ", ".join(f"{k}={got[k]!r} expected {p.expect[k]!r}" for k in wrong)

    def corrupt(self, p, answer):
        form = answer["sqrt"]
        return dict(answer, sqrt=ph.InducedForm(form.eta, form.sqrt_eta * (1 + 1e-6),
                                                form.inv_sqrt_eta))


# -- weyl-certify ---------------------------------------------------------


class WeylCertify:
    """check_symbolic on shifted-potential specs with full-precision floats.

    V has degree 32 and f degree 0..4, all coefficients standard normal
    doubles (53-bit dyadic rationals).  A fixed quarter of the list passes a
    wrong ``theta_override``; its residual must be nonzero with the exact
    x^31 coefficient ``32 i alpha v_32 (theta - 2 gamma)``.
    """

    name = "weyl-certify"
    reference = "python"
    degree = 32
    shares = {"derived-theta": 75, "wrong-theta": 25}

    def generate(self, rng, work_dir, degree=None, shares=None):
        degree = degree or self.degree
        shares = shares or self.shares
        problems = []
        for i, kind in enumerate(_classes(rng, shares)):
            V = rng.standard_normal(degree + 1)
            spec = ph.ShiftedPotentialSpec(
                V=ph.RealPolynomial(V.tolist()),
                alpha=float(rng.uniform(0.5, 2.0)), beta=float(rng.standard_normal()),
                gamma=float(rng.uniform(0.25, 1.0)),
                f=ph.RealPolynomial(rng.standard_normal(i % 5 + 1).tolist()))
            theta = None
            expect = {"zero": True}
            if kind == "wrong-theta":
                theta = spec.theta + float(rng.uniform(0.1, 1.0))
                lead = degree * Fraction(spec.alpha) * Fraction(V[-1]) * (
                    Fraction(theta) - 2 * Fraction(spec.gamma))
                expect = {"zero": False, "degree": degree - 1, "lead_im": lead}
            problems.append(Problem(kind, {"spec": spec, "theta": theta}, expect))
        return problems

    def warm_up(self, rng, work_dir):
        for p in self.generate(rng, work_dir, degree=4, shares={"derived-theta": 1, "wrong-theta": 1}):
            self.run(p)

    def run(self, p, in_process=False):
        return ph.check_symbolic(p.inputs["spec"], theta_override=p.inputs["theta"])

    def check(self, p, residual):
        if p.expect["zero"]:
            return "ok" if residual.is_zero() else f"fail:{len(residual.terms)} residual terms"
        d = p.expect["degree"]
        if any(b != 0 or a > d for a, b in residual.terms):
            return "fail:residual has terms beyond x^%d" % d
        lead = residual.coefficient(d, 0)
        if lead.re != 0 or lead.im != p.expect["lead_im"]:
            return f"fail:x^{d} coefficient {lead} != {p.expect['lead_im']}i"
        return "ok"

    def corrupt(self, p, residual):
        return residual + ph.WeylPolynomial.monomial(0, 1, 1)


# -- cli-batch ------------------------------------------------------------


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def _cli_cases(files, n):
    """Per subcommand: (argv, expected exit, failed checks, extra expectations)."""
    f = files
    return {
        "verify": [
            (["verify", "--hamiltonian", f["H"], "--eta", f["eta"]], 0, set(), {}),
            (["verify", "--hamiltonian", f["H"], "--eta", f["eta_wrong"]], 1,
             {"intertwining_residual"}, {}),
            (["verify", "--hamiltonian", f["H_tiny"], "--eta", f["eta_wrong_tiny"]], 1,
             {"intertwining_residual"}, {"floor": True}),
            (["verify", "--hamiltonian", f["malformed"], "--eta", f["eta"]], 2, set(), {}),
        ],
        "solve": [
            (["solve", "--hamiltonian", f["H_quasi"], "--positive"], 0, set(),
             {"dimension": n, "positive_search": True}),
            (["solve", "--hamiltonian", f["H_pseudo"]], 0, set(), {"dimension": n}),
            (["solve", "--hamiltonian", f["H_none"]], 1, {"metric_found"}, {"dimension": 0}),
        ],
        "chain": [
            (["chain", "--hamiltonian", f["H"], "--eta0", f["eta"], "--k-max", "4"], 0, set(), {}),
            (["chain", "--hamiltonian", f["H_singular"], "--eta0", f["eta_singular"],
              "--k-max", "4", "--via-shift"], 0, set(), {"shifted": True}),
            (["chain", "--hamiltonian", f["H_singular"], "--eta0", f["eta_singular"],
              "--k-max", "4"], 1, {"all_elements_invertible"}, {}),
            (["chain", "--hamiltonian", f["H"], "--eta0", f["eta_wrong"]], 2, set(), {}),
        ],
        "perturb": [
            (["perturb", "--hamiltonian", f["H"], "--eta", f["eta"], "--poly", "0,0.5"], 0, set(), {}),
            (["perturb", "--hamiltonian", f["H"], "--eta", f["eta"], "--poly", "0,0.5",
              "--k", f["K_noncommuting"]], 1, {"k_commutes_with_eta"}, {}),
            (["perturb", "--hamiltonian", f["H_hermitian"], "--eta", f["identity"],
              "--poly", "1"], 1, {"hamiltonian_non_hermitian"}, {}),
        ],
        "quasi": [
            (["quasi", "--hamiltonian", f["H"], "--eta", f["eta"]], 0, set(), {}),
            (["quasi", "--hamiltonian", f["H_pseudo"], "--eta", f["eta_pseudo"]], 1,
             {"eta_positive"}, {}),
        ],
        "weyl": [
            (["weyl", "--spec", f["spec"]], 0, set(), {}),
            (["weyl", "--spec", f["spec"], "--theta", f["wrong_theta"]], 1, {"residual_zero"}, {}),
            (["weyl", "--spec", f["spec_malformed"]], 2, set(), {}),
        ],
        "example": [
            (["example", "two-point", "--x", "1+1i", "--y", "0.5", "--out-dir", f["dir"]], 0, set(), {}),
            (["example", "oscillator", "--omega", f["omega"], "--out-dir", f["dir"]], 0, set(), {}),
            (["example", "two-point", "--out-dir", f["dir"]], 2, set(), {}),
        ],
    }


class CliBatch:
    """One ``python -m pseudoherm`` subprocess per problem, cycling through
    all seven subcommands, on n=8 input files written during set-up."""

    name = "cli-batch"
    reference = "spawn"
    n = 8
    cycles = 15

    def __init__(self):
        self.peak_rss_kb = 0

    def _write_inputs(self, rng, work_dir, n):
        inputs = os.path.join(work_dir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        S, S_inv = _similarity(rng, n)
        H = _unit(S @ np.diag(rng.uniform(0.5, 3.0, n)) @ S_inv)
        eta = _unit(_hermitian(_adj(S_inv) @ S_inv))
        _, other_inv = _similarity(rng, n)
        eta_wrong = _unit(_hermitian(_adj(other_inv) @ other_inv))
        spectrum = rng.uniform(0.5, 3.0, n)
        spectrum[0] = 0.0
        S2, S2_inv = _similarity(rng, n)
        pairs = n // 4
        widths = rng.uniform(0.5, 1.5, pairs)
        centres = _real_spectrum(rng, n - pairs)
        lam = np.concatenate([centres[:pairs] + 1j * widths, centres[:pairs] - 1j * widths,
                              centres[pairs:n - pairs]])
        # M pairs each eigenvalue with its conjugate: M lam = conj(lam) M.
        M = np.zeros((n, n))
        for i in range(pairs):
            M[i, i + pairs] = M[i + pairs, i] = 1.0
        for i in range(2 * pairs, n):
            M[i, i] = 1.0
        S3, S3_inv = _similarity(rng, n)
        U = _unitary(rng, n)
        # A Gaussian S, as in the positive-search defect report, for solve.
        S4 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrices = {
            "H": H, "eta": eta, "eta_wrong": eta_wrong,
            "H_quasi": S4 @ np.diag(_real_spectrum(rng, n)) @ np.linalg.inv(S4),
            "H_tiny": 1e-12 * H, "eta_wrong_tiny": 1e-12 * eta_wrong,
            "H_pseudo": S3 @ np.diag(lam) @ S3_inv,
            "eta_pseudo": _hermitian(_adj(S3_inv) @ M @ S3_inv),
            "H_none": S2 @ np.diag(rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(0.5, 3.0, n)) @ S2_inv,
            "H_singular": S2 @ np.diag(spectrum) @ S2_inv,
            "eta_singular": _hermitian(_adj(S2_inv) @ S2_inv),
            "K_noncommuting": _hermitian(rng.standard_normal((n, n)) + 0j),
            "H_hermitian": _hermitian(U @ np.diag(rng.uniform(-1, 1, n)) @ _adj(U)),
            "identity": np.eye(n),
        }
        files = {"dir": os.path.join(work_dir, "examples")}
        for key, m in matrices.items():
            files[key] = os.path.join(inputs, key + ".json")
            ph.io.write_matrix(files[key], m)
        files["malformed"] = os.path.join(inputs, "malformed.json")
        _write(files["malformed"], {"n": n, "entries": [[[1.0, 0.0]] * n] * (n - 1)})
        spec = {"V": rng.standard_normal(9).tolist(), "alpha": float(rng.uniform(0.5, 2.0)),
                "beta": float(rng.standard_normal()), "gamma": float(rng.uniform(0.25, 1.0)),
                "f": rng.standard_normal(3).tolist()}
        files["spec"] = os.path.join(inputs, "spec.json")
        _write(files["spec"], spec)
        files["wrong_theta"] = repr(2 * spec["gamma"] + float(rng.uniform(0.1, 1.0)))
        files["spec_malformed"] = os.path.join(inputs, "spec_malformed.json")
        _write(files["spec_malformed"], {k: v for k, v in spec.items() if k != "gamma"})
        files["omega"] = repr(float(rng.uniform(0.5, 3.0)))
        return files

    def generate(self, rng, work_dir, n=None, cycles=None):
        n = n or self.n
        cases = _cli_cases(self._write_inputs(rng, work_dir, n), n)
        reports = os.path.join(work_dir, "reports")
        os.makedirs(reports, exist_ok=True)
        problems = []
        for cycle in range(cycles or self.cycles):
            for command, variants in cases.items():
                argv, code, failed, extra = variants[cycle % len(variants)]
                out = os.path.join(reports, f"{len(problems):03d}-{command}.json")
                problems.append(Problem(command, {"argv": argv + ["--out", out], "out": out},
                                        dict(extra, code=code, failed=failed)))
        return problems

    def warm_up(self, rng, work_dir):
        for p in self.generate(rng, work_dir, n=4, cycles=1):
            self.run(p, in_process=True)

    def run(self, p, in_process=False):
        if os.path.exists(p.inputs["out"]):
            os.remove(p.inputs["out"])
        if in_process:
            code = cli.main(p.inputs["argv"])
        else:
            argv = [sys.executable, "-m", "pseudoherm"] + p.inputs["argv"]
            null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
            pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=null)
            _, status, usage = os.wait4(pid, 0)
            code = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        try:
            with open(p.inputs["out"], encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = None
        return code, report

    def check(self, p, answer):
        code, report = answer
        e = p.expect
        if report is None:
            return f"fail:no report (exit {code})"
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        results = report["results"]
        if p.kind == "solve" and code in (0, 1) and results.get("dimension") != e.get("dimension"):
            return f"fail:dimension {results.get('dimension')} != {e.get('dimension')}"
        if code == e["code"] and failed == e["failed"]:
            if e.get("shifted") and not results.get("shift_alpha"):
                return "fail:chain was not shifted"
            return "ok"
        if e.get("positive_search") and code == 1 and failed == {"metric_found"}:
            return "known:positive-search-miss"
        if e.get("floor") and code == 0:
            return "known:absolute-floor"
        return f"fail:exit {code} failed {sorted(failed)}, expected exit {e['code']} failed {sorted(e['failed'])}"

    def corrupt(self, p, answer):
        code, report = answer
        return (code + 1) % 3, report


WORKLOADS = {w.name: w for w in (DenseSolve(), DenseCertify(), WeylCertify(), CliBatch())}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
