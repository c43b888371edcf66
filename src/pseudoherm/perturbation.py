"""Perturbations that keep a metric valid: ``H + f(K)`` with K Hermitian, [K, eta] = 0.

If eta is a metric for H and K is Hermitian and commutes with eta, then eta
is still a metric for H + f(K) for any real polynomial f, and the
anti-Hermitian part of the Hamiltonian is untouched.  The hypotheses are
enforced as named checks rather than trusted, because silent misuse
produces plausible-looking garbage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import Check, CheckError, InputError
from .metric import (
    DEFAULT_TOL,
    as_matrix,
    check_scale,
    frobenius,
    hermiticity_defect,
    residual,
)

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real coefficients, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial has an empty coefficient tuple and degree -1.  Complex or
    non-finite coefficients are rejected.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs=()):
        cleaned = []
        for c in coeffs:
            if isinstance(c, complex) or not isinstance(c, (int, float, np.integer, np.floating)):
                raise InputError(f"polynomial coefficients must be real, got {c!r}")
            c = float(c)
            if not np.isfinite(c):
                raise InputError("polynomial coefficients must be finite")
            cleaned.append(c)
        while cleaned and cleaned[-1] == 0.0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def parse(cls, text: str) -> "RealPolynomial":
        """Parse the comma-separated flag format, e.g. ``"0,3"`` for 3x."""
        parts = [p.strip() for p in str(text).split(",")]
        coeffs = []
        for p in parts:
            if not p:
                raise InputError(f"empty coefficient in polynomial {text!r}")
            if not _NUMBER.match(p):
                raise InputError(f"polynomial coefficient {p!r} is not a real number")
            coeffs.append(float(p))
        return cls(coeffs)

    def __str__(self) -> str:
        return ",".join(repr(c) for c in self.coeffs) if self.coeffs else "0"


@dataclass(frozen=True)
class PerturbedHamiltonian:
    """Result of a verified perturbation ``H_tilde = H + f(K)``.

    ``checks`` are the hypotheses perturb verified, then perturbed_residual.
    """

    H: np.ndarray
    K: np.ndarray
    f: RealPolynomial
    H_tilde: np.ndarray
    eta: np.ndarray
    residual: float
    commutator_defect: float
    checks: tuple[Check, ...]


def commutator_defect(A, B) -> float:
    """Size of [A, B]: ``|AB - BA|_F / max(1, |A|_F |B|_F)``."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise InputError(f"dimension mismatch: A is {A.shape[0]}x{A.shape[0]}, "
                         f"B is {B.shape[0]}x{B.shape[0]}")
    return frobenius(A @ B - B @ A) / check_scale(frobenius(A) * frobenius(B))


def matrix_poly(K, f: RealPolynomial) -> np.ndarray:
    """Evaluate f(K) by Horner's rule, with ``K^0 = I``.

    The result is Hermitian whenever K is, and commutes with anything K and
    the identity commute with.
    """
    K = as_matrix(K, "K")
    n = K.shape[0]
    result = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for c in reversed(f.coeffs):
        result = result @ K + c * eye
    return result


def auto_K(eta, f: RealPolynomial, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The automatic commuting family ``K = f(eta)`` for Hermitian eta.

    Such K is Hermitian and commutes with eta by construction, so it always
    satisfies the perturbation hypotheses for that eta.
    """
    eta = as_matrix(eta, "eta")
    defect = hermiticity_defect(eta)
    if defect > tol:
        raise InputError(f"eta must be Hermitian for auto_K: defect {defect:.3e} "
                         f"exceeds tolerance {tol:.3e}")
    return matrix_poly(eta, f)


def perturb(H, eta, K, f: RealPolynomial, tol: float = DEFAULT_TOL,
            allow_hermitian: bool = False) -> PerturbedHamiltonian:
    """Form ``H_tilde = H + f(K)`` after verifying every hypothesis by name.

    Evaluates, in order: eta_hermitian; eta_is_metric (eta intertwines H);
    k_hermitian; k_commutes_with_eta; hamiltonian_non_hermitian (skipped via
    allow_hermitian, every step stays valid for Hermitian H).  If any fails,
    CheckError names the first failure and carries all of them in ``checks``.
    On success the perturbed residual is verified as a sixth check, and the
    anti-Hermitian part of H is preserved exactly.
    """
    H = as_matrix(H, "H")
    eta = as_matrix(eta, "eta")
    K = as_matrix(K, "K")
    if not (H.shape == eta.shape == K.shape):
        raise InputError("H, eta and K must share one dimension, got "
                         f"{H.shape[0]}, {eta.shape[0]}, {K.shape[0]}")

    defect_eta = hermiticity_defect(eta)
    r0 = residual(H, eta)
    defect_K = hermiticity_defect(K)
    cd = commutator_defect(K, eta)
    # (check, CheckError id, message) per hypothesis, in reporting order
    hypotheses = [
        (Check("eta_hermitian", defect_eta <= tol, defect_eta, tol), "non-hermitian eta",
         f"eta is not Hermitian (defect {defect_eta:.3e})"),
        (Check("eta_is_metric", r0 <= tol, r0, tol), "eta not a metric for H",
         f"eta does not intertwine H (residual {r0:.3e})"),
        (Check("k_hermitian", defect_K <= tol, defect_K, tol), "non-hermitian K",
         f"K is not Hermitian (defect {defect_K:.3e})"),
        (Check("k_commutes_with_eta", cd <= tol, cd, tol), "non-commuting K",
         f"K does not commute with eta (defect {cd:.3e})"),
    ]
    if not allow_hermitian:
        defect_H = hermiticity_defect(H)
        hypotheses.append((Check("hamiltonian_non_hermitian", defect_H > tol, defect_H, tol),
                           "hermitian H", "H is Hermitian; pass allow_hermitian=True to proceed"))
    checks = tuple(check for check, _, _ in hypotheses)
    for check, check_id, message in hypotheses:
        if not check.passed:
            raise CheckError(check_id, message, check.value, tol, checks)

    H_tilde = H + matrix_poly(K, f)
    r = residual(H_tilde, eta)
    checks += (Check("perturbed_residual", r <= tol, r, tol),)
    if r > tol:
        raise CheckError("perturbed residual",
                         f"perturbed Hamiltonian failed verification (residual {r:.3e})",
                         value=r, threshold=tol, checks=checks)
    return PerturbedHamiltonian(H=H, K=K, f=f, H_tilde=H_tilde, eta=eta,
                                residual=r, commutator_defect=cd, checks=checks)
