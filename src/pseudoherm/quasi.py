"""Positive metrics: square root, induced Hermitian Hamiltonian, induced inner product.

A positive metric eta admits a principal square root, and
``sqrt(eta) H inv_sqrt(eta)`` is a Hermitian matrix similar to H, so the
spectrum of H is real.  Equivalently H acts Hermitianly in the inner product
``<phi|psi>_eta = <phi|eta psi>``, and ``sqrt(eta)`` is an isometry between
the two pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Check, InputError, _require
from .metric import (
    DEFAULT_TOL,
    MetricClass,
    _norms,
    _scaled,
    _unit_peak,
    _windowed,
    adjoint,
    as_matrix,
    as_vector,
    check_tol,
    classify_metric,
    frobenius,
    residual,
)


@dataclass(frozen=True)
class InducedForm:
    """A positive metric together with its principal square root and inverse root."""

    eta: np.ndarray
    sqrt_eta: np.ndarray
    inv_sqrt_eta: np.ndarray


def _eta_positive(eta: np.ndarray, tol: float) -> tuple[MetricClass, Check]:
    """classify_metric(eta, tol) and the check ``eta_positive``: the least eigenvalue of
    eta's Hermitian part against ``tol |eta|_F``, the threshold of that verdict, taken as
    ``2^k tol |eta / 2^k|_F`` from _unit_peak: finite where |eta|_F alone is not."""
    cls = classify_metric(eta, tol)
    unit, k = _unit_peak(eta)
    with np.errstate(over="ignore"):
        threshold = float(np.ldexp(tol * frobenius(unit), k))
    return cls, Check("eta_positive", cls.positive, cls.min_eigenvalue_of_hermitian_part,
                      threshold)


def metric_sqrt(eta, tol: float = DEFAULT_TOL) -> InducedForm:
    """Principal square root of a positive metric via Hermitian eigendecomposition.

    A metric that is not positive fails the check ``eta_positive``, the least eigenvalue
    of its Hermitian part against ``tol |eta|_F``: CheckError "metric not positive".
    eta is symmetrized first (once positive, its hermiticity defect is within tol).
    Outside the window, eta / 2^k (k even) is decomposed, the roots scaled back.
    """
    eta = as_matrix(eta, "eta")
    _, positive = _eta_positive(eta, tol)
    _require([(positive, "metric not positive", "metric not positive: minimum eigenvalue "
               f"of the Hermitian part is {positive.value:.6g}")])
    (unit,), _, (k,) = _windowed(eta[None], _norms(eta[None]), 1.0)
    unit, k = (2.0 * unit, k - 1) if k % 2 else (unit, k)
    eigvals, vecs = np.linalg.eigh((unit + adjoint(unit)) * 0.5)
    roots = np.ldexp(np.sqrt(eigvals), k // 2)
    sqrt_eta = (vecs * roots) @ adjoint(vecs)
    inv_sqrt_eta = (vecs / roots) @ adjoint(vecs)
    # eigh reconstruction is Hermitian only to rounding; make it exact
    sqrt_eta = (sqrt_eta + adjoint(sqrt_eta)) * 0.5
    inv_sqrt_eta = (inv_sqrt_eta + adjoint(inv_sqrt_eta)) * 0.5
    return InducedForm(eta=eta, sqrt_eta=sqrt_eta, inv_sqrt_eta=inv_sqrt_eta)


def induced_hamiltonian(H, form: InducedForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Similarity transform ``sqrt(eta) H inv_sqrt(eta)``.

    Needs the check ``eta_is_metric`` (else CheckError "eta not a metric for H");
    the result is then Hermitian within tol, with the (hence real) spectrum of H.
    """
    check_tol(tol)
    H = as_matrix(H, "H")
    r = residual(H, form.eta)
    _require([(Check("eta_is_metric", r <= tol, r, tol), "eta not a metric for H",
               f"eta does not intertwine H (residual {r:.3e} exceeds tolerance {tol:.3e})")])
    # On H / 2^k with a unit peak entry the product is bounded by cond(sqrt_eta),
    # whatever the scales of H and eta.
    unit, k = _unit_peak(H)
    core = form.sqrt_eta @ unit @ form.inv_sqrt_eta
    return _scaled(core, k, "the induced Hamiltonian")[0]


def induced_inner(phi, psi, eta, allow_indefinite: bool = False,
                  tol: float = DEFAULT_TOL) -> complex:
    """Metric inner product ``sum_i conj(phi_i) (eta psi)_i``.

    Positive eta gives a true inner product (conjugate symmetric, positive definite).
    Any other eta fails ``eta_positive`` (threshold ``tol |eta|_F``, CheckError
    "metric not positive") unless ``allow_indefinite`` asks for a mere sesquilinear form.
    """
    check_tol(tol)
    phi = as_vector(phi, "phi")
    psi = as_vector(psi, "psi")
    eta = as_matrix(eta, "eta")
    if phi.shape != psi.shape or phi.shape[0] != eta.shape[0]:
        raise InputError(f"dimension mismatch: phi has {phi.shape[0]}, psi has "
                         f"{psi.shape[0]}, eta is {eta.shape[0]}x{eta.shape[0]}")
    if not allow_indefinite:
        _require([(_eta_positive(eta, tol)[1], "metric not positive", "metric not positive: "
                   "pass allow_indefinite=True for a plain sesquilinear form")])
    # eta psi on eta / 2^k from _unit_peak, scaled back once: at eta's own scale a
    # subnormal eta would round every product and sum.
    unit, k = _unit_peak(eta)
    z = np.vdot(phi, unit @ psi)
    return complex(np.ldexp(z.real, k), np.ldexp(z.imag, k))
