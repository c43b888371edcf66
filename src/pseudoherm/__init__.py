"""Metric operators for pseudo-Hermitian Hamiltonians.

Numerical tools for dense complex matrices (intertwining residuals, metric
solution spaces, metric chains, perturbations, quasi-Hermitian similarity
transforms) and an exact symbolic checker for shifted-potential Hamiltonians
in the Weyl algebra of x and p.
"""

from .chain import (
    EtaChain,
    build_chain,
    chain_via_shift,
    next_eta,
    shift_for_invertibility,
)
from .errors import Check, CheckError, InputError
from .metric import (
    DEFAULT_TOL,
    MetricBasis,
    MetricClass,
    catalog_oscillator,
    catalog_two_point,
    classify_metric,
    find_metric,
    hermiticity_defect,
    residual,
    solve_metric_space,
)
from .perturbation import (
    PerturbedHamiltonian,
    RealPolynomial,
    auto_K,
    commutator_defect,
    matrix_poly,
    perturb,
)
from .quasi import InducedForm, induced_hamiltonian, induced_inner, metric_sqrt
from .weyl import (
    RationalComplex,
    ShiftedPotentialSpec,
    WeylPolynomial,
    build_shifted_hamiltonian,
    check_symbolic,
)

__version__ = "0.1.0"

__all__ = [
    "Check",
    "CheckError",
    "DEFAULT_TOL",
    "EtaChain",
    "InducedForm",
    "InputError",
    "MetricBasis",
    "MetricClass",
    "PerturbedHamiltonian",
    "RationalComplex",
    "RealPolynomial",
    "ShiftedPotentialSpec",
    "WeylPolynomial",
    "auto_K",
    "build_chain",
    "build_shifted_hamiltonian",
    "catalog_oscillator",
    "catalog_two_point",
    "chain_via_shift",
    "check_symbolic",
    "classify_metric",
    "commutator_defect",
    "find_metric",
    "hermiticity_defect",
    "induced_hamiltonian",
    "induced_inner",
    "matrix_poly",
    "metric_sqrt",
    "next_eta",
    "perturb",
    "residual",
    "shift_for_invertibility",
    "solve_metric_space",
]
