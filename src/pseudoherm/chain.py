"""Metric chains: eta_k = (H^dag)^k eta_0, with a spectrum-shift fallback.

Starting from one metric eta_0 for H, left-multiplying by H^dag produces
further Hermitian intertwiners, each a metric when eta_0 is and H^dag is
invertible (the paper's theorem).  For G = H + alpha I, alpha real, the
congruences ``eta_2m = (G^dag)^m eta_0 G^m`` and ``eta_2m+1 = (G^dag)^m eta_1 G^m``
give every element the inertia of eta_{k mod 2} (Sylvester), so only eta_0 and
eta_1 are classified.  For singular H the shift with alpha = 2 |H|_F is
invertible and has the same intertwiners, so its chain is validated against H.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import Check, InputError, _Record, _finite_real, check_tol
from .metric import (
    _STACK_ENTRIES,
    DEFAULT_TOL,
    MetricClass,
    _classify,
    _defects,
    _in_window,
    _measure,
    _norms,
    _scaled,
    _unit_peak,
    _windowed,
    _within_memory,
    adjoint,
    as_matrix,
    frobenius,
    hermiticity_defect,
    residual,
    same_size,
)


class EtaChain(_Record):
    """A sequence eta_0 .. eta_K of intertwiners for H with per-element diagnostics.

    ``residuals[k]`` is ``residual(H, eta_k)`` for the original, unshifted H, measured as the
    chain is generated, and ``classes`` the classifications at ``tol``.  An
    eta_k with k >= 2 has the flags of eta_{k mod 2} (see degenerate_indices when
    eta_0 or eta_1 is singular), its own measured hermiticity defect, whose drift
    sets no flag, and None for the eigenvalues, which are not measured.
    ``rank`` (computed on first read, then cached; no check reads it) is the real-linear
    rank of the elements as vectors, which shows periodicity up to scalars, up to rounding
    in the band ``max_k delta_k |stack|_F`` around its threshold (see _real_rank): chain
    71 of dense-certify seed 1 has a singular value at 1.00016x the threshold, inside
    that band.  ``shift_alpha`` is 0 unless chain_via_shift shifted H.  An exact zero
    from a singular H^dag is kept, flagged; an underflow raises.
    """

    _fields = ("H", "etas", "residuals", "classes", "normalized", "shift_alpha", "tol")

    def __init__(self, H: np.ndarray, etas: list[np.ndarray], residuals: list[float],
                 classes: list[MetricClass], normalized: bool, shift_alpha: float, tol: float):
        vars(self).update(H=H, etas=etas, residuals=residuals, classes=classes,
                          normalized=normalized, shift_alpha=shift_alpha, tol=tol)

    @cached_property
    def rank(self) -> int:
        """_real_rank of the stacked elements at ``tol``, from one values-only SVD."""
        return _real_rank(np.stack(self.etas), self.tol)

    @property
    def degenerate_indices(self) -> list[int]:
        """Singular elements, as det eta_k = det(G^dag)^k det eta_0: all if eta_0 is,
        all but eta_0 if eta_1 (so G) is, else none (the theorem's hypothesis holds)."""
        return [k for k, c in enumerate(self.classes) if not c.invertible]

    @property
    def checks(self) -> tuple[Check, ...]:
        """chain_residual_max, all_elements_hermitian and all_elements_invertible."""
        max_residual = max(self.residuals)
        max_defect = max(c.hermiticity_defect for c in self.classes)
        degenerate = float(len(self.degenerate_indices))
        return (Check.at_most("chain_residual_max", max_residual, self.tol),
                Check.at_most("all_elements_hermitian", max_defect, self.tol),
                Check.at_most("all_elements_invertible", degenerate, 0.0))

    def __len__(self) -> int:
        return len(self.etas)


def _real_rank(etas: np.ndarray, tol: float) -> int:
    """Real-linear rank of a (k, n, n) Hermitian stack: singular values above ``tol |stack|_F``.

    They are taken of the real (n^2, k) stack of ``Re eta_k + Im eta_k``, which
    has the singular values of the (2n^2, k) stack of ``[Re eta_k; Im eta_k]``
    (see metric._unpack) and is faster to factor.  For elements with
    hermiticity defects delta_k the two sets differ by at most
    ``max_k delta_k |stack|_F``, so the rank can only differ where a singular
    value lies that close to the threshold.
    """
    flat = np.asarray(etas).reshape(1, len(etas), -1)
    (flat,), (norm,), _ = _windowed(flat, _norms(flat), 1.0)
    # |Re z + Im z| <= sqrt(2) |z|, within |eta_k|_F for an off-diagonal z: no overflow
    svals = np.linalg.svd((flat.real + flat.imag).T, compute_uv=False)
    return int(np.sum(svals > tol * norm))


def _validate_start(H, eta0, k_max: int, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """H and eta0 as matrices and k_max as an int, after InputError checks of each and of tol."""
    check_tol(tol)
    H, eta0 = same_size(H, eta0, ("H", "eta0"))
    if _finite_real(k_max, "k_max") < 0 or int(k_max) != k_max:
        raise InputError("k_max must be a nonnegative integer")
    for check, measure, value in (("hermiticity", "defect", hermiticity_defect(eta0)),
                                  ("intertwining", "residual", residual(H, eta0))):
        if value > tol:
            raise InputError(f"eta0 failed the {check} check: {measure} {value:.3e} "
                             f"exceeds tolerance {tol:.3e}")
    return H, eta0, int(k_max)


def _unit_product(Gd: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, int]:
    """(m, k) with ``Gd @ eta = 2^k m`` and m of unit peak, exactly, from unit peaks."""
    (g, i), (e, j) = _unit_peak(Gd), _unit_peak(eta)
    m, k = _unit_peak(g @ e)
    return m, i + j + k


def _chain(H: np.ndarray, G: np.ndarray, eta0: np.ndarray, k_max: int,
           normalize: bool, tol: float, alpha: float) -> EtaChain:
    """The chain ``(G^dag)^k eta0`` for ``G = H + alpha I``, measured once against H by chunks
    as they are generated.  Each ``G^dag eta_k`` of the stored eta_k goes to a chunk buffer;
    for alpha = 0 it is ``H^dag eta_k``, reused where metric._bilinear_ratio rescales neither."""
    with _within_memory(16 * H.size * (k_max + 1), f"k_max = {k_max}: {k_max + 1} elements "
                        f"at n = {len(H)} need more memory than this machine has"):
        Gd, etas = adjoint(G), np.empty((k_max + 1,) + H.shape, dtype=complex)
    size = max(1, _STACK_ENTRIES // H.size)
    products = np.empty((min(size, len(etas)),) + H.shape, dtype=complex)
    residuals, defects, norms = [], [], np.empty(len(etas))
    for k in range(len(etas)):
        e = products[(k - 1) % size] if k else eta0
        norm = frobenius(e)
        if not _in_window(norm):
            m, shift = _unit_product(Gd, etas[k - 1]) if k else _unit_peak(eta0)
            e, norm = (m, frobenius(m)) if normalize else _scaled(m, shift, f"eta_{k}")
        if normalize and norm > 0.0:  # numpy's complex / real, without its division loop
            np.multiply(np.ascontiguousarray(e).view(float), 1.0 / norm, out=etas[k].view(float))
        else:
            etas[k] = e
        if k < k_max or not alpha:  # a shifted chain never reads G^dag eta_k_max
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(Gd, etas[k], out=products[k % size])
        if k % size == size - 1 or k == k_max:  # the chunk is whole: measure it
            chunk, part = etas[k - k % size:k + 1], slice(k - k % size, k + 1)
            r, norms[part] = _measure(H, chunk, None if alpha else products[:len(chunk)])
            residuals, defects = residuals + r, defects + _defects(chunk, norms[part])
    classes = _classify(etas[:2], tol, norms[:2], np.array(defects[:2]))
    held = all(c.invertible for c in classes)  # the theorem's hypothesis
    classes[1:] = [c._replace(invertible=held, positive=held and c.positive) for c in classes[1:]]
    classes += [MetricClass(classes[k % 2].hermitian, held, held and classes[k % 2].positive,
                            None, None, defect) for k, defect in enumerate(defects[2:])]
    return EtaChain(H=H, etas=list(etas), residuals=residuals, classes=classes,
                    normalized=normalize, shift_alpha=alpha, tol=tol)


def build_chain(H, eta0, k_max: int, normalize: bool = False,
                tol: float = DEFAULT_TOL) -> EtaChain:
    """Build the chain eta_0, H^dag eta_0, (H^dag)^2 eta_0, ... up to k_max.

    Parameters
    ----------
    H, eta0 : array_like
        Hamiltonian and a verified starting metric.  eta0 must be Hermitian and intertwine H
        within ``tol``; violations raise InputError naming the failed check.
    k_max : int
        Largest power, a nonnegative whole number under the rule of _finite_real (3, 3.0 or
        np.int64(3); a bool, nan or str is an InputError); k_max + 1 elements, an InputError if
        they exceed the physical memory.
    normalize : bool
        Rescale every element to unit Frobenius norm.  The scaling is a
        positive real, so Hermiticity, invertibility, positivity and the
        intertwining relation are unaffected.

    Unnormalized chains satisfy ``etas[k+1] == H^dag @ etas[k]`` exactly; normalized ones up to a
    positive scalar.  Flags follow from eta_0 and eta_1 (see EtaChain): from k = 1 on none is
    invertible when H^dag is singular.  A nonzero unnormalized element whose norm is infinite or
    below the smallest normal number raises InputError.
    """
    H, eta0, k_max = _validate_start(H, eta0, k_max, tol)
    return _chain(H, H, eta0, k_max, normalize, tol, 0.0)


def shift_for_invertibility(H, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Real alpha with ``H + alpha I`` invertible: 0 if H already is, else 2 |H|_F.

    H is invertible when ``sigma_min(H) > tol |H|_F``.  For alpha = 2 |H|_F (1
    for H = 0), ``sigma_min(H + alpha I) >= alpha - |H|_2 >= |H|_F``, so one SVD
    decides.  Raises InputError when ``H + alpha I`` leaves the double range.
    """
    H = as_matrix(H, "H")
    check_tol(tol)
    norm = frobenius(H)
    if np.linalg.svd(H, compute_uv=False)[-1] > tol * norm:
        return 0.0, H
    alpha = 2.0 * norm if norm else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = H + alpha * np.eye(H.shape[0])
    return alpha, _scaled(shifted, 0, "H + alpha I")[0]


def chain_via_shift(H, eta0, k_max: int, normalize: bool = False,
                    tol: float = DEFAULT_TOL) -> EtaChain:
    """Build a chain on ``H + alpha I`` and validate it against the original H.

    eta intertwines H exactly when it intertwines H + alpha I for real
    alpha (the shift is Hermitian and commutes with everything), so the
    chain generated for the shifted, invertible Hamiltonian works for H.
    eta0 is checked, and residuals computed, against H alone; flags as in build_chain.
    """
    H, eta0, k_max = _validate_start(H, eta0, k_max, tol)
    alpha, shifted = shift_for_invertibility(H, tol)
    return _chain(H, shifted, eta0, k_max, normalize, tol, alpha)
