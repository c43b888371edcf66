"""Metric chains: eta_k = (H^dag)^k eta_0, with a spectrum-shift fallback.

Starting from one metric eta_0 for H, left-multiplying by H^dag produces
further Hermitian intertwiners.  Each element stays a genuine metric as long
as H^dag is invertible; otherwise the chain degenerates and the offending
elements are flagged rather than discarded.  For singular H the shift
``H + alpha I`` (alpha real, off the spectrum) restores invertibility while
leaving the set of intertwiners unchanged, so a chain built on the shifted
Hamiltonian is validated directly against the original one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Check, CheckError, InputError
from .metric import (
    DEFAULT_TOL,
    NULLSPACE_RTOL,
    MetricClass,
    adjoint,
    as_matrix,
    check_scale,
    classify_metric,
    frobenius,
    hermiticity_defect,
    residual,
)

# Number of rungs tried by the deterministic shift ladder 1, -1, 2, -2, ...
SHIFT_LADDER_RUNGS = 100


@dataclass(frozen=True)
class EtaChain:
    """A sequence eta_0 .. eta_K of intertwiners for H with per-element diagnostics.

    ``residuals`` are intertwining residuals against H (the original,
    unshifted Hamiltonian).  ``rank`` is the real-linear rank of the chain
    elements viewed as vectors, which makes periodicity up to scalars
    visible.  ``shift_alpha`` is 0 unless the chain was built via a spectrum
    shift.
    """

    H: np.ndarray
    etas: list[np.ndarray]
    residuals: list[float]
    classes: list[MetricClass]
    normalized: bool
    shift_alpha: float = 0.0
    rank: int = field(default=0)

    @property
    def degenerate_indices(self) -> list[int]:
        """Positions whose element is singular (Theorem hypotheses fail there)."""
        return [k for k, c in enumerate(self.classes) if not c.invertible]

    def __len__(self) -> int:
        return len(self.etas)


def next_eta(H, eta) -> np.ndarray:
    """One chain step: ``H^dag @ eta``.

    If eta is Hermitian and intertwines H, the result is Hermitian again.
    """
    H = as_matrix(H, "H")
    eta = as_matrix(eta, "eta")
    if H.shape != eta.shape:
        raise InputError(f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
                         f"eta is {eta.shape[0]}x{eta.shape[0]}")
    return adjoint(H) @ eta


def _real_rank(etas: list[np.ndarray]) -> int:
    rows = np.array([np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in etas])
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > NULLSPACE_RTOL * svals[0]))


def _validate_start(H: np.ndarray, eta0: np.ndarray, tol: float) -> None:
    defect = hermiticity_defect(eta0)
    if defect > tol:
        raise InputError(f"eta0 failed the hermiticity check: defect {defect:.3e} "
                         f"exceeds tolerance {tol:.3e}")
    r = residual(H, eta0)
    if r > tol:
        raise InputError(f"eta0 failed the intertwining check: residual {r:.3e} "
                         f"exceeds tolerance {tol:.3e}")


def build_chain(H, eta0, k_max: int, normalize: bool = False,
                tol: float = DEFAULT_TOL) -> EtaChain:
    """Build the chain eta_0, H^dag eta_0, (H^dag)^2 eta_0, ... up to k_max.

    Parameters
    ----------
    H, eta0 : array_like
        Hamiltonian and a verified starting metric.  eta0 must be Hermitian
        and intertwine H within ``tol``; violations raise InputError naming
        the failed check.
    k_max : int
        Largest power; the chain has k_max + 1 elements.
    normalize : bool
        Rescale every element to unit Frobenius norm.  The scaling is a
        positive real, so Hermiticity, invertibility, positivity and the
        intertwining relation are unaffected.

    Unnormalized chains satisfy ``etas[k+1] == H^dag @ etas[k]`` exactly;
    normalized ones up to a positive scalar.  Elements whose smallest
    singular value falls below threshold are flagged via their
    classification (this happens exactly when H^dag is singular).
    """
    H = as_matrix(H, "H")
    eta0 = as_matrix(eta0, "eta0")
    if H.shape != eta0.shape:
        raise InputError(f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
                         f"eta0 is {eta0.shape[0]}x{eta0.shape[0]}")
    if k_max < 0 or int(k_max) != k_max:
        raise InputError("k_max must be a nonnegative integer")
    _validate_start(H, eta0, tol)

    def scaled(e: np.ndarray) -> np.ndarray:
        if not normalize:
            return e
        norm = frobenius(e)
        return e / norm if norm > 0.0 else e

    Hd = adjoint(H)
    etas = [scaled(eta0)]
    for _ in range(int(k_max)):
        etas.append(scaled(Hd @ etas[-1]))
    residuals = [residual(H, e) for e in etas]
    classes = [classify_metric(e, tol) for e in etas]
    return EtaChain(H=H, etas=etas, residuals=residuals, classes=classes,
                    normalized=normalize, shift_alpha=0.0, rank=_real_rank(etas))


def shift_for_invertibility(H, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Find real alpha with ``H + alpha I`` invertible; alpha = 0 if H already is.

    Candidates come from the deterministic ladder
    ``{1, -1, 2, -2, ...} * (1 + |H|_F)``, so no eigensolve is needed; any
    real alpha off the finite spectrum works.  Raises CheckError
    ``"no invertible shift"`` when every rung fails the invertibility test.
    """
    H = as_matrix(H, "H")
    if tol <= 0:
        raise InputError("tol must be positive")

    def invertible(m: np.ndarray) -> bool:
        svals = np.linalg.svd(m, compute_uv=False)
        return svals[-1] > tol * check_scale(frobenius(m))

    if invertible(H):
        return 0.0, H
    eye = np.eye(H.shape[0], dtype=complex)
    step = 1.0 + frobenius(H)
    for rung in range(1, SHIFT_LADDER_RUNGS + 1):
        magnitude = (rung + 1) // 2
        sign = 1.0 if rung % 2 == 1 else -1.0
        alpha = sign * magnitude * step
        shifted = H + alpha * eye
        if invertible(shifted):
            return alpha, shifted
    rungs = float(SHIFT_LADDER_RUNGS)
    raise CheckError("no invertible shift", "shift ladder exhausted; no invertible "
                     f"shift found in {SHIFT_LADDER_RUNGS} rungs", value=rungs,
                     checks=(Check("invertible_shift_found", False, rungs),))


def chain_via_shift(H, eta0, k_max: int, normalize: bool = False,
                    tol: float = DEFAULT_TOL) -> EtaChain:
    """Build a chain on ``H + alpha I`` and validate it against the original H.

    eta intertwines H exactly when it intertwines H + alpha I for real
    alpha (the shift is Hermitian and commutes with everything), so the
    chain generated for the shifted, invertible Hamiltonian works for H.
    Residuals in the returned chain are computed against the original H.
    """
    H = as_matrix(H, "H")
    eta0 = as_matrix(eta0, "eta0")
    if H.shape != eta0.shape:
        raise InputError(f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
                         f"eta0 is {eta0.shape[0]}x{eta0.shape[0]}")
    _validate_start(H, eta0, tol)
    alpha, shifted = shift_for_invertibility(H, tol)
    chain = build_chain(shifted, eta0, k_max, normalize=normalize, tol=tol)
    residuals = [residual(H, e) for e in chain.etas]
    return EtaChain(H=H, etas=chain.etas, residuals=residuals,
                    classes=chain.classes, normalized=normalize,
                    shift_alpha=alpha, rank=chain.rank)
