"""Metric operators for pseudo-Hermitian Hamiltonians.

Numerical tools for dense complex matrices (intertwining residuals, metric
solution spaces, metric chains, perturbations, quasi-Hermitian similarity
transforms) and an exact symbolic checker for shifted-potential Hamiltonians
in the Weyl algebra of x and p.

Names are exported lazily (PEP 562): ``pseudoherm.residual`` imports
``pseudoherm.metric``, and with it numpy, on first use, while
``pseudoherm.check_symbolic`` needs only the standard library.  An exported
name is looked up in its module on every access and never bound here, so it
always is the module's current attribute.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "chain": ("EtaChain", "build_chain", "chain_via_shift", "shift_for_invertibility"),
    "errors": ("Check", "CheckError", "DEFAULT_TOL", "InputError", "RealPolynomial"),
    "metric": ("MetricBasis", "MetricClass", "catalog_oscillator", "catalog_two_point",
               "classify_metric", "find_metric", "hermiticity_defect", "residual",
               "solve_metric_space"),
    "perturbation": ("PerturbedHamiltonian", "auto_K", "commutator_defect", "matrix_poly",
                     "perturb"),
    "quasi": ("InducedForm", "QuasiHermitian", "induced_hamiltonian", "induced_inner",
              "metric_sqrt", "quasi_hermitian"),
    "weyl": ("RationalComplex", "ShiftedPotentialSpec", "WeylPolynomial", "boost_residual",
             "build_shifted_hamiltonian", "check_symbolic"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = (*_EXPORTS, "cli", "io")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if (module := _MODULE_OF.get(name)) is not None:
        # the submodule bound here by its import, so that only a first access imports it
        return getattr(globals().get(module) or __getattr__(module), name)
    if name in _SUBMODULES:
        # __import__ binds the submodule here, where later accesses find it without this
        # call.  Unlike importlib.import_module it is timed and listed by python -X importtime.
        return getattr(__import__(f"{__name__}.{name}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
