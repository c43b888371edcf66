"""Positive metrics: square root, induced Hermitian Hamiltonian, induced inner product.

A positive metric eta admits a principal square root, and
``sqrt(eta) H inv_sqrt(eta)`` is a Hermitian matrix similar to H, so the
spectrum of H is real.  Equivalently H acts Hermitianly in the inner product
``<phi|psi>_eta = <phi|eta psi>``, and ``sqrt(eta)`` is an isometry between
the two pictures.
"""

from __future__ import annotations

from typing import NamedTuple

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
    hermiticity_defect,
    residual,
)


class InducedForm(NamedTuple):
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


def _eta_is_metric(H, eta: np.ndarray, tol: float) -> Check:
    """The check ``eta_is_metric``: residual(H, eta) against tol."""
    r = residual(H, eta)
    return Check("eta_is_metric", r <= tol, r, tol)


def _root_form(eta: np.ndarray) -> InducedForm:
    """The InducedForm of metric_sqrt for a positive eta."""
    (unit,), _, (k,) = _windowed(eta[None], _norms(eta[None]), 1.0)
    unit, k = (2.0 * unit, k - 1) if k % 2 else (unit, k)
    eigvals, vecs = np.linalg.eigh((unit + adjoint(unit)) * 0.5)
    roots = np.ldexp(np.sqrt(eigvals), k // 2)
    roots_of_eta = ((vecs * roots) @ adjoint(vecs), (vecs / roots) @ adjoint(vecs))
    # eigh reconstruction is Hermitian only to rounding; make it exact
    return InducedForm(eta, *((m + adjoint(m)) * 0.5 for m in roots_of_eta))


def _induced(H: np.ndarray, form: InducedForm) -> np.ndarray:
    """The induced_hamiltonian of a matrix H for which form.eta is a metric."""
    # On H / 2^k with a unit peak entry the product is bounded by cond(sqrt_eta),
    # whatever the scales of H and eta.
    unit, k = _unit_peak(H)
    return _scaled(form.sqrt_eta @ unit @ form.inv_sqrt_eta, k, "the induced Hamiltonian")[0]


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
    return _root_form(eta)


def induced_hamiltonian(H, form: InducedForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Similarity transform ``sqrt(eta) H inv_sqrt(eta)``.

    Needs the check ``eta_is_metric`` (else CheckError "eta not a metric for H");
    the result is then Hermitian within tol, with the (hence real) spectrum of H.
    """
    check_tol(tol)
    H = as_matrix(H, "H")
    is_metric = _eta_is_metric(H, form.eta, tol)
    _require([(is_metric, "eta not a metric for H", "eta does not intertwine H (residual "
               f"{is_metric.value:.3e} exceeds tolerance {tol:.3e})")])
    return _induced(H, form)


class QuasiHermitian(NamedTuple):
    """The checks of quasi_hermitian; form, hamiltonian (the induced Hamiltonian) and its sorted
    eigenvalues are None unless ``eta_positive`` and ``eta_is_metric`` pass."""

    eta_classification: MetricClass
    residual: float
    checks: tuple[Check, ...]
    form: InducedForm | None = None
    hamiltonian: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None


def quasi_hermitian(H, eta, tol: float = DEFAULT_TOL) -> QuasiHermitian:
    """``eta_positive`` and ``eta_is_metric`` on one classification and one residual, failures
    returned, not raised; if both pass, ``induced_hermitian`` (the induced Hamiltonian's defect
    at tol) and ``spectrum_real`` (its eigenvalues' largest |Im| at ``tol |H|_F``)."""
    eta = as_matrix(eta, "eta")
    (cls, positive), is_metric = _eta_positive(eta, tol), _eta_is_metric(H, eta, tol)
    if not (positive.passed and is_metric.passed):
        return QuasiHermitian(cls, is_metric.value, (positive, is_metric))
    H, form = as_matrix(H, "H"), _root_form(eta)
    H_eta = _induced(H, form)
    defect, eigvals = hermiticity_defect(H_eta), np.sort_complex(np.linalg.eigvals(H_eta))
    max_imag, bound = float(np.max(np.abs(eigvals.imag))), tol * frobenius(H)
    checks = (positive, is_metric, Check("induced_hermitian", defect <= tol, defect, tol),
              Check("spectrum_real", max_imag <= bound, max_imag, bound))
    return QuasiHermitian(cls, is_metric.value, checks, form, H_eta, eigvals)


def induced_inner(phi, psi, eta) -> complex:
    """Metric form ``sum_i conj(phi_i) (eta psi)_i``, for any eta.

    A positive eta gives a true inner product (conjugate symmetric, positive definite); whether
    eta is positive is the caller's check, by quasi_hermitian or classify_metric.
    """
    phi = as_vector(phi, "phi")
    psi = as_vector(psi, "psi")
    eta = as_matrix(eta, "eta")
    if phi.shape != psi.shape or phi.shape[0] != eta.shape[0]:
        raise InputError(f"dimension mismatch: phi has {phi.shape[0]}, psi has "
                         f"{psi.shape[0]}, eta is {eta.shape[0]}x{eta.shape[0]}")
    # eta psi on eta / 2^k from _unit_peak, scaled back once: at eta's own scale a
    # subnormal eta would round every product and sum.
    unit, k = _unit_peak(eta)
    z = np.vdot(phi, unit @ psi)
    return complex(np.ldexp(z.real, k), np.ldexp(z.imag, k))
