"""Perturbations that keep a metric valid: ``H + f(K)`` with K Hermitian, [K, eta] = 0.

If eta is a metric for H and K is Hermitian and commutes with eta, then eta
is still a metric for H + f(K) for any real polynomial f, and the
anti-Hermitian part of the Hamiltonian is untouched.  The hypotheses are
enforced as named checks rather than trusted, because silent misuse
produces plausible-looking garbage.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import Check, InputError, RealPolynomial, _require
from .metric import (
    DEFAULT_TOL,
    _bilinear_ratio,
    _norms,
    _scaled,
    _unit_peak,
    _windowed,
    adjoint,
    as_matrix,
    check_tol,
    frobenius,
    hermiticity_defect,
    residual,
    same_size,
)


class PerturbedHamiltonian(NamedTuple):
    """Result of a verified perturbation ``H_tilde = H + f(K)``.

    ``checks`` are the hypotheses perturb verified, then perturbed_residual
    and anti_hermitian_part_preserved.
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
    """Relative size of [A, B]: ``|AB - BA|_F / (|A|_F |B|_F)``, 0 if either is 0."""
    A, B = same_size(A, B, ("A", "B"))
    return float(_bilinear_ratio(lambda a, b: a @ b - b @ a, A, B[None], _norms(B[None]))[0])


def matrix_poly(K, f: RealPolynomial) -> np.ndarray:
    """Evaluate f(K) by Horner's rule from ``c_top I``, with ``K^0 = I``: degree products.

    The result is Hermitian whenever K is, and commutes with anything K and
    the identity commute with.  InputError when it leaves the double range
    (see metric._scaled), or is zero because a nonzero term ``c_j K^j`` underflowed.
    """
    K = as_matrix(K, "K")
    eye = np.eye(K.shape[0], dtype=complex)
    result = (f.coeffs[-1] if f.coeffs else 0.0) * eye  # the zero polynomial gives zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(f.coeffs[:-1]):
            result = np.matmul(result, K) + c * eye
        if not result.any():  # an exact zero (a nilpotent K), or every term underflowed:
            # |c_j K^j|_F = |c_j| |U^j|_F 2^(j k) for K = 2^k U, U of unit peak, in logs
            unit, k = _unit_peak(K)
            for j, c in enumerate(f.coeffs[1:], 1):
                norm = frobenius(np.linalg.matrix_power(unit, j))
                if c and norm and np.log2(abs(c)) + np.log2(norm) + j * k < -1022:
                    raise InputError("f(K) is beyond the double range")
    return _scaled(result, 0, "f(K)")[0]


def auto_K(eta, f: RealPolynomial, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The automatic commuting family ``K = f(eta)`` for Hermitian eta.

    Such K is Hermitian and commutes with eta by construction, so it always
    satisfies the perturbation hypotheses for that eta.
    """
    check_tol(tol)
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
    Then H_tilde must pass perturbed_residual and anti_hermitian_part_preserved
    (the change of the anti-Hermitian part over ``max(|H|_F, |H_tilde|_F)``).
    InputError when H_tilde leaves the double range (see metric._scaled).
    """
    check_tol(tol)
    H, eta = same_size(H, eta, ("H", "eta"))
    H, K = same_size(H, K, ("H", "K"))

    cd = commutator_defect(K, eta)
    hypotheses = [
        (Check.at_most("eta_hermitian", hermiticity_defect(eta), tol), "non-hermitian eta"),
        (Check.at_most("eta_is_metric", residual(H, eta), tol), "eta not a metric for H"),
        (Check.at_most("k_hermitian", hermiticity_defect(K), tol), "non-hermitian K"),
        (Check.at_most("k_commutes_with_eta", cd, tol), "non-commuting K"),
    ]
    if not allow_hermitian:
        defect_H = hermiticity_defect(H)
        hypotheses.append((Check("hamiltonian_non_hermitian", defect_H > tol, defect_H, tol),
                           "hermitian H"))
    checks = _require(hypotheses)

    with np.errstate(over="ignore", invalid="ignore"):
        H_tilde, _ = _scaled(H + matrix_poly(K, f), 0, "H + f(K)")
    r = residual(H_tilde, eta)
    pair = np.stack((H, H_tilde))[None]  # one power of two for both, by their joint norm
    (A, B), = _windowed(pair, _norms(pair), 1.0)[0]
    drift = frobenius((B - adjoint(B)) - (A - adjoint(A)))
    drift = drift / max(frobenius(A), frobenius(B)) if drift else 0.0
    checks = _require([
        (Check.at_most("perturbed_residual", r, tol), "perturbed residual"),
        (Check.at_most("anti_hermitian_part_preserved", drift, tol),
         "anti-hermitian part changed"),
    ], checks)
    return PerturbedHamiltonian(H=H, K=K, f=f, H_tilde=H_tilde, eta=eta,
                                residual=r, commutator_defect=cd, checks=checks)
