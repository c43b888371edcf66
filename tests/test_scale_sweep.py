"""One scale sweep over every matrix-taking entry point of the library and every
CLI subcommand: a fixed n = 4 input family, each matrix scaled by 2^k for k from
-1074 (the smallest subnormal) to 1023.

Where the scaled input is exact (``ldexp(ldexp(m, k), -k) == m``) the answer
must be covariant with the unit-scale one: equal verdicts, and every value
equal to the unit-scale value times 2^(p k) for its known power p.  An
InputError that names the double range is accepted there only when such a
value is itself beyond the double range.  Where the input is not exact, the
reference is the answer for the rounded input scaled back to unit scale, and
a covariant answer or a double-range InputError is accepted.  No run may
warn (pyproject turns every warning into an error) or leave a traceback.
"""

import inspect
import json
import math

import numpy as np
import pytest

import pseudoherm as ph
from pseudoherm import cli
from pseudoherm.metric import frobenius

N = 4
# Dense near the bottom of the range, where the scaled inputs lose bits, and at
# the edges of the range window; every 37th power elsewhere.
SCALES = sorted({*range(-1074, 1024, 37), *range(-1074, -1000, 3), -1022, -1000, -970,
                 -540, -500, -150, 0, 150, 500, 540, 970, 1000, 1021, 1022, 1023})
CLI_SCALES = SCALES[::2] + [SCALES[-1]]
RANGE = "beyond the double range"
POLY = ph.RealPolynomial([0.0, 0.5])  # homogeneous: f(2^k K) = 2^k f(K)
SQUARE = ph.RealPolynomial([0.0, 0.0, 1.0])  # f(2^k K) = 2^(2k) f(K)


def _family():
    """H = S diag(0.5, 1, 2, -1.5) S^-1, its metric S^-dag S^-1 and the singular
    H with eigenvalue 0 for 0.5, each scaled to a unit peak entry (its largest real
    or imaginary part in [0.5, 1)): so no matrix rounds to 0 at 2^-1074, where an
    answer for 0 would be compared with no scaled answer."""
    rng = np.random.default_rng(0)
    S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    S_inv = np.linalg.inv(S)
    eta = S_inv.conj().T @ S_inv
    family = {"H": S @ np.diag([0.5, 1.0, 2.0, -1.5]) @ S_inv,
              "H_singular": S @ np.diag([0.0, 1.0, 2.0, -1.5]) @ S_inv,
              "eta": (eta + eta.conj().T) / 2.0}
    return {name: _ldexp(m, -math.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])
            for name, m in family.items()}


def _ldexp(m, k):
    """m * 2^k, exact where the result is a double; complex m too."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), k).view(complex)


FAMILY = _family()
PHI, PSI = np.random.default_rng(1).standard_normal((2, N))


# -- answers as verdicts and scaled values ------------------------------------

class Value:
    """A number or array expected to scale by 2^(power k), compared to within
    1e-12 times unit: its own norm by default, 1 for a ratio, the norm of the
    matrix for an eigenvalue."""

    def __init__(self, value, power, unit=None):
        self.value, self.power = np.asarray(value, dtype=complex), power
        self.unit = frobenius(self.value) if unit is None else unit


def ratio(value):
    return Value(value, 0, 1.0)


def classification(c, power, unit):
    """A MetricClass (or its report dict) of a matrix with norm unit, scaling by 2^(power k);
    an eigenvalue that was not measured (None, a chain element k >= 2) stays None."""
    c = c if isinstance(c, dict) else vars(c)
    eigenvalues = (c["min_abs_eigenvalue_of_hermitian_part"], c["min_eigenvalue_of_hermitian_part"])
    return [c["hermitian"], c["invertible"], c["positive"], ratio(c["hermiticity_defect"]),
            *(v if v is None else Value(v, power, unit) for v in eigenvalues)]


def checks(items):
    """Each check's name, verdict, value and threshold; those of SCALED_CHECKS scale
    with its power, the threshold compared to within 1e-12 of itself."""
    out = []
    for c in items:
        power = SCALED_CHECKS.get(c.name, (0, None))[0]
        out += [c.name, bool(c.passed), Value(c.value or 0.0, power, None if power else 1.0),
                Value(c.threshold or 0.0, power)]
    return out


def _refused(run):
    """The CheckError run raises: its id and its checks."""
    with pytest.raises(ph.CheckError) as info:
        run()
    return ["CheckError", info.value.check, *checks(info.value.checks)]


def chain(c, powers):
    # the rank is invariant only when every element scales by the same power
    out = [len(c), c.rank if len(set(powers)) == 1 else None, c.degenerate_indices,
           Value(c.shift_alpha, 1), *checks(c.checks)]
    for eta, r, cls, p in zip(c.etas, c.residuals, c.classes, powers):
        out += [Value(eta, p), ratio(r), *classification(cls, p, frobenius(eta))]
    return out


def shifted_chain(c):
    """A chain of chain_via_shift with the generator H + alpha I it was built on."""
    with np.errstate(over="ignore", invalid="ignore"):
        return chain(c, [0] * len(c)) + [Value(c.H + c.shift_alpha * np.eye(N), 1)]


def basis(b):
    out = [b.dimension, b.solver, b.spectral_metric is None, *checks(b.checks)]
    for element, r, cls in zip(b.basis, b.residuals, b.classifications):
        out += [Value(element, 0), ratio(r), *classification(cls, 0, 1.0)]
    return out + ([] if b.spectral_metric is None else [Value(b.spectral_metric, 0)])


def _found(metric):
    return [metric is None] + ([] if metric is None else [Value(metric, 0)])


def _perturbed(out):
    return [Value(out.H_tilde, 1), ratio(out.residual), ratio(out.commutator_defect),
            *checks(out.checks)]


def _form(form):
    return [Value(form.sqrt_eta, 0.5), Value(form.inv_sqrt_eta, -0.5)]


UNNORMALIZED = [j + 1 for j in range(7)]  # eta_j = (2^k H^dag)^j 2^k eta

# name -> answer for the scaled family m, as a list of verdicts and Values
LIBRARY = {
    "build_chain": lambda m: (chain(ph.build_chain(m["H"], m["eta"], 6, normalize=True), [0] * 7)
                              + chain(ph.build_chain(m["H"], m["eta"], 6), UNNORMALIZED)),
    "chain_via_shift": lambda m: shifted_chain(
        ph.chain_via_shift(m["H_singular"], m["eta"], 6, normalize=True)),
    "shift_for_invertibility": lambda m: [
        Value(x, 1) for x in ph.shift_for_invertibility(m["H_singular"])],
    "classify_metric": lambda m: classification(ph.classify_metric(m["eta"]), 1,
                                                frobenius(m["eta"])),
    "solve_metric_space": lambda m: basis(ph.solve_metric_space(m["H"])),
    "find_metric": lambda m: _found(ph.find_metric(ph.solve_metric_space(m["H"]),
                                                   want_positive=True)),
    "hermiticity_defect": lambda m: [ratio(ph.hermiticity_defect(m["H"]))],
    "residual": lambda m: [ratio(ph.residual(m["H"], m["eta"])),
                           ratio(ph.residual(m["H"], m["H"]))],
    "commutator_defect": lambda m: [ratio(ph.commutator_defect(m["H"], m["eta"]))],
    "matrix_poly": lambda m: [Value(ph.matrix_poly(m["eta"], POLY), 1),
                              Value(ph.matrix_poly(m["eta"], SQUARE), 2)],
    "auto_K": lambda m: [Value(ph.auto_K(m["eta"], POLY), 1),
                         Value(ph.auto_K(m["eta"], SQUARE), 2)],
    "perturb": lambda m: _perturbed(ph.perturb(m["H"], m["eta"], m["eta"], POLY)),
    "metric_sqrt": lambda m: (_form(ph.metric_sqrt(m["eta"]))
                              + _refused(lambda: ph.metric_sqrt(-m["eta"]))),
    "induced_hamiltonian": lambda m: [
        Value(ph.induced_hamiltonian(m["H"], ph.metric_sqrt(m["eta"])), 1)],
    "induced_inner": lambda m: [Value(ph.induced_inner(PHI, PSI, m["eta"]), 1),
                                *_refused(lambda: ph.induced_inner(PHI, PSI, -m["eta"]))],
}


# -- the CLI, in process --------------------------------------------------------

# subcommand -> argv with {name} for a file of the scaled family matrix name
CLI = {
    "verify": ["verify", "--hamiltonian", "{H}", "--eta", "{eta}"],
    "solve": ["solve", "--hamiltonian", "{H}", "--positive"],
    "chain": ["chain", "--hamiltonian", "{H}", "--eta0", "{eta}", "--k-max", "6"],
    "perturb": ["perturb", "--hamiltonian", "{H}", "--eta", "{eta}", "--poly", "0,0.5"],
    "quasi": ["quasi", "--hamiltonian", "{H}", "--eta", "{eta}"],
    "weyl": ["weyl", "--spec", "{spec}"],
    "example": ["example", "two-point", "--x", "{x}", "--y", "{y}", "--out-dir", "{dir}"],
}

# Check values and thresholds that scale with an input, by (power, input whose norm is
# the unit of the value); every other value is a ratio or a count, every other
# threshold tol or 0.
SCALED_CHECKS = {"eta_positive": (1, "eta"), "spectrum_real": (1, "hamiltonian")}


def _matrix(d):
    entries = np.array(d["entries"], dtype=float)
    return entries[..., 0] + 1j * entries[..., 1]


def _cli_results(command, results, norms):
    """The verdicts and Values of a report's results; norms holds the Frobenius norm
    of each input matrix by flag."""
    if command == "verify":
        return [ratio(results["residual"]),
                *classification(results["eta_classification"], 1, norms["eta"])]
    if command == "solve":
        out = [results["dimension"], results["solver"], results["metric"] is None]
        out += [Value(_matrix(b), 0) for b in results["basis"]]
        out += [x for c in results["classifications"] for x in classification(c, 0, 1.0)]
        return out + ([] if results["metric"] is None else [Value(_matrix(results["metric"]), 0)])
    if command == "chain":
        out = [results["rank"], results["degenerate_indices"], Value(results["shift_alpha"], 1)]
        out += [Value(_matrix(e), 0) for e in results["etas"]]
        return out + [x for c in results["classes"] for x in classification(c, 0, 1.0)]
    if command == "perturb":
        return [Value(_matrix(results["hamiltonian_tilde"]), 1), ratio(results["residual"]),
                ratio(results["commutator_defect"])]
    if command == "quasi":
        out = [ratio(results["residual"]),
               *classification(results["eta_classification"], 1, norms["eta"])]
        if "sqrt_eta" in results:
            out += [Value(_matrix(results["sqrt_eta"]), 0.5),
                    Value(_matrix(results["induced_hamiltonian"]), 1),
                    Value([complex(*z) for z in results["eigenvalues"]], 1, norms["hamiltonian"])]
        return out
    if command == "weyl":
        return [len(results["residual_terms"])]
    return [Value(_matrix(results["hamiltonian"]), 1), Value(_matrix(results["eta"]), 1),
            ratio(results["residual"])]


def _run_cli(command, m, k, tmp_path, capsys):
    """The answer of one in-process run on the family m; the weyl spec and the
    example parameters are scaled by 2^k."""
    files = {"dir": str(tmp_path / "example")}
    for name, matrix in m.items():
        files[name] = str(tmp_path / f"{name}.json")
        ph.io.write_matrix(files[name], matrix)
    files["spec"] = str(tmp_path / "spec.json")
    with open(files["spec"], "w", encoding="utf-8") as handle:
        json.dump({"V": [0.0, 0.0, math.ldexp(1.0, k)], "alpha": 1.0, "beta": 0.0,
                   "gamma": 1.0, "f": [0.0, 2.0]}, handle)
    files["x"] = f"{math.ldexp(1.0, k)!r}+{math.ldexp(1.0, k)!r}i"
    files["y"] = repr(math.ldexp(1.0, k))
    out = tmp_path / "report.json"
    code = cli.main([arg.format(**files) for arg in CLI[command]] + ["--out", str(out)])
    report = json.loads(out.read_text())
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""
    assert code != 3 and "traceback" not in report, report.get("error")
    if code == 2:
        return RANGE if RANGE in report["error"] else [2, report["error"].split(":")[0]]
    norms = {flag: d["frobenius_norm"] for flag, d in report["inputs"].items()
             if isinstance(d, dict) and "frobenius_norm" in d}
    answer = [code, report["status"]]
    for c in report["checks"]:
        power, unit = SCALED_CHECKS.get(c["name"], (0, None))
        answer += [c["name"], c["passed"], Value(c["value"] or 0.0, power,
                                                 norms[unit] if unit else 1.0),
                   Value(c["threshold"] or 0.0, power)]
    return answer + (_cli_results(command, report["results"], norms) if report["results"] else [])


# -- covariance -----------------------------------------------------------------

def _outcome(run):
    try:
        return run()
    except ph.InputError as exc:
        return RANGE if RANGE in str(exc) else ["InputError", str(exc).split(":")[0]]
    except ph.CheckError as exc:
        return ["CheckError", exc.check, *checks(exc.checks)]


def _representable(answer, k):
    """Whether every Value of answer, scaled by 2^(power k), has a norm within the
    double range (an exact zero is)."""
    for v in answer:
        if isinstance(v, Value):
            norm = frobenius(v.value)
            if norm and not -1022 <= math.log2(norm) + v.power * k < 1024:
                return False
    return True


def _mismatch(got, ref, k):
    """None when got is covariant with ref: equal verdicts, and each value of got
    times 2^(-power k) within 1e-12 units of the reference, or within N^3 times
    the spacing of the subnormal numbers its computation may have rounded to.
    Otherwise the first difference."""
    if isinstance(got, str) or isinstance(ref, str) or len(got) != len(ref):
        return f"{got if isinstance(got, str) else len(got)} items against " \
               f"{ref if isinstance(ref, str) else len(ref)}"
    for i, (g, r) in enumerate(zip(got, ref)):
        if not isinstance(r, Value) or not isinstance(g, Value):
            if g != r:
                return f"item {i}: {g!r} against {r!r}"
            continue
        e = -r.power * k
        back = _ldexp(g.value, math.floor(e)) * 2.0 ** (e - math.floor(e))
        with np.errstate(over="ignore"):
            bound = 1e-12 * r.unit + np.ldexp(float(N ** 3 * r.value.size), -1074 + math.ceil(e))
        if g.value.shape != r.value.shape or not frobenius(back - r.value) <= bound:
            return f"item {i}: {back} against {r.value}"
    return None


def _check_sweep(answer, scales, matrices):
    """Check answer(m, k), the answer for the family m scaled by 2^k, at every
    scale against the unit-scale answer or that of the rounded input."""
    reference = {}
    for k in scales:
        scaled = {name: _ldexp(m, k) for name, m in matrices.items()}
        back = {name: _ldexp(m, -k) for name, m in scaled.items()}
        exact = all(np.array_equal(back[name], m) for name, m in matrices.items())
        key = b"".join(m.tobytes() for m in back.values())
        if key not in reference:
            reference[key] = answer(back, 0)
        ref, got = reference[key], answer(scaled, k)
        if got == RANGE:
            assert not exact or not _representable(ref, k), f"k = {k}: {RANGE}"
        else:
            assert _mismatch(got, ref, k) is None, f"k = {k}: {_mismatch(got, ref, k)}"


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library(name):
    _check_sweep(lambda m, k: _outcome(lambda: LIBRARY[name](m)), SCALES, FAMILY)


@pytest.mark.parametrize("command", sorted(CLI))
def test_cli(command, tmp_path, capsys):
    _check_sweep(lambda m, k: _run_cli(command, m, k, tmp_path, capsys), CLI_SCALES, FAMILY)


def _takes_a_matrix(name):
    obj = getattr(ph, name)
    if inspect.isclass(obj) or not callable(obj) or ph._MODULE_OF[name] == "weyl":
        return False
    return bool({"H", "eta", "eta0", "m", "A", "B", "K", "basis"}
                & set(inspect.signature(obj).parameters))


def test_every_entry_point_is_swept():
    assert set(LIBRARY) == {name for name in ph.__all__ if _takes_a_matrix(name)}
    assert set(CLI) == set(cli._HANDLERS)
