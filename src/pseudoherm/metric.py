"""Dense complex-matrix foundation for metric operators.

A Hermitian invertible eta is a metric for a Hamiltonian H when the
intertwining relation ``eta H = H^dag eta`` holds.  Everything here works in
that multiplied-through form, so singular candidates are handled without ever
inverting eta.  All functions are pure: inputs are never mutated and there is
no global state, so concurrent use is safe.  Results can depend on the BLAS
thread count in their last bits: SVDs and ``eig`` from n = 66, norms from 71,
the tall QR from 80 and the square QR from 112 (measured on random input).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from functools import partial
from numbers import Complex
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_TOL, Check, InputError, _finite_real, check_tol


def _finite(value, name: str, ndim: int, expected: str) -> np.ndarray:
    """value as a finite complex array of ndim equal, nonzero axes; else InputError naming name."""
    try:
        a = np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name}: entries are not complex numbers ({exc})") from None
    if a.ndim != ndim or a.size == 0 or len(set(a.shape)) != 1:
        raise InputError(f"{name}: expected {expected}, got shape {a.shape}")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise InputError(f"{name}: non-finite entries are not allowed")
    return a


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and coerce to a square, finite complex matrix."""
    return _finite(value, name, 2, "a square matrix")


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Validate and coerce to a finite complex vector."""
    return _finite(value, name, 1, "a nonempty vector")


def same_size(A, B, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """A and B as matrices (see as_matrix) of one size, named in errors by names."""
    A, B = as_matrix(A, names[0]), as_matrix(B, names[1])
    if A.shape != B.shape:
        raise InputError(f"dimension mismatch: {names[0]} is {A.shape[0]}x{A.shape[0]}, "
                         f"{names[1]} is {B.shape[0]}x{B.shape[0]}")
    return A, B


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


# A norm is the root of one BLAS ddot over the row-major doubles of its matrix (real and
# imaginary parts interleaved), whatever the layout.  The unit-stride kernel sums with several
# accumulators, within the sequential sum's error bound (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.1); on 224 random matrices (n <= 64, scales 1e-140..1e140)
# it was at most 1.2 ulps from the exact norm.
def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a finite m by one ddot (see above), ``_norms(m[None])[0]`` bit for bit in
    any layout; inf where the norm is beyond the double range (``np.full((2, 2), 1.7e308)``)."""
    x = np.ascontiguousarray(m).view(float).ravel()
    with np.errstate(over="ignore", under="ignore"):  # _norms' dot product, for one matrix
        norm = math.sqrt(x.dot(x))
    return norm if 1e-150 <= norm < math.inf else float(_norms(x[None])[0])


def _norms(stack: np.ndarray) -> np.ndarray:
    """frobenius of each array of a stack by one batched ddot, within 2 ulps; out of the squaring
    range (no overflow or underflow), of the array exactly scaled by _unit_peak, scaled back."""
    x = np.ascontiguousarray(stack).view(float).reshape(len(stack), 1, -1)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.sqrt(x @ x.swapaxes(1, 2)).ravel()
        for i in np.flatnonzero(np.isinf(norms) | (norms < 1e-150)):
            if x[i].any():
                scaled, k = _unit_peak(x[i, 0])
                norms[i] = np.ldexp(math.sqrt(scaled.dot(scaled)), k)
    return norms


def _unit_peak(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m / 2^k (exact) for k the exponent of its largest real or imaginary part, and k."""
    peak = max(np.max(np.abs(m.real), initial=0.0), np.max(np.abs(m.imag), initial=0.0))
    k = int(np.frexp(peak)[1])
    if k < -1000:  # 2^-k overflows for a subnormal peak: scale up in two exact steps
        return m * np.ldexp(1.0, 1000) * np.ldexp(1.0, -k - 1000), k
    return m * np.ldexp(1.0, -k), k


def _scaled(m: np.ndarray, k: int, name: str) -> tuple[np.ndarray, float]:
    """2^k m, exact, and its norm; InputError when m is nonzero and that norm is infinite
    or below the smallest normal number, where the entries have lost bits or all."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.ldexp(np.ascontiguousarray(m).view(float), k).view(complex)
        norm = frobenius(out)
    if m.any() and not np.finfo(float).tiny <= norm < np.inf:
        raise InputError(f"{name} is beyond the double range")
    return out, norm


def _in_window(scale):
    """Whether the norm (or product of norms) a kernel divides by lets no entry or sum
    it bounds overflow or fall to subnormal numbers: the window [1e-290, 1e300]."""
    return (scale >= 1e-290) & (scale <= 1e300)


def _windowed(stack: np.ndarray, norms: np.ndarray,
              factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stack with each element whose ``factor * norm`` lies outside the window divided
    exactly by 2^k to a unit peak entry, its norms, and each k: 0 inside the window, and where
    the norm or the factor is 0 (tested apart: their product underflows for nonzero ones)."""
    shift = np.zeros(len(stack), dtype=int)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # 0 * inf
        out = np.flatnonzero(~_in_window(factor * norms) & (norms != 0) & (factor != 0))
    if out.size:
        stack, norms = stack.copy(), norms.copy()
        for i in out:
            stack[i], shift[i] = _unit_peak(stack[i])
        norms[out] = _norms(stack[out])
    return stack, norms, shift


def _ratio(numerators: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """numerators / scales, 0 for a zero numerator (which defines 0 / 0); a NaN stays NaN."""
    return np.divide(numerators, scales, out=np.zeros(len(scales)), where=numerators != 0)


def _bilinear_ratio(form, A: np.ndarray, B: np.ndarray, norms: np.ndarray,
                    product: np.ndarray | None = None) -> np.ndarray:
    """``|form(A, b)|_F / (|A|_F |b|_F)`` for each b of a (k, n, n) stack B with
    Frobenius norms ``norms``, 0 for a zero numerator.  The denominator bounds the
    entries of the form: A is windowed on its norm, then each b on the product.
    ``product``, which the caller formed from the unscaled A and B, is passed to the
    form only where neither A nor any b was rescaled."""
    (A,), (norm,), a = _windowed(A[None], _norms(A[None]), 1.0)
    B, norms, b = _windowed(B, norms, norm)
    if product is not None and not (a.any() or b.any()):
        form = partial(form, product=product)
    return _ratio(_norms(form(A, B)), norm * norms)


def _intertwining(h: np.ndarray, e: np.ndarray, product: np.ndarray | None = None) -> np.ndarray:
    """``e h - h^dag e``, with ``product`` for ``h^dag e`` when the caller already formed it;
    ``e h`` of a whole (k, n, n) stack is one (k n, n) product."""
    out = (e.reshape(-1, len(h)) @ h).reshape(e.shape)
    out -= adjoint(h) @ e if product is None else product
    return out


# (m + m^dag) / 2 of a matrix or stack, exactly Hermitian: at (a, b) and (b, a) the real parts
# are one sum and the imaginary parts opposite differences; m itself for such an m.
def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) * 0.5


def hermiticity_defect(m) -> float:
    """Relative deviation from Hermiticity, ``|m - m^dag|_F / |m|_F`` (0 for m = 0)."""
    m = as_matrix(m, "m")
    return _defects(m[None], _norms(m[None]))[0]


def _defects(stack: np.ndarray, norms: np.ndarray) -> list[float]:
    """hermiticity_defect of each matrix of a (k, n, n) stack with Frobenius norms ``norms``."""
    stack, norms, _ = _windowed(stack, norms, 1.0)
    # m^dag copied C-ordered: for a C-ordered stack the subtraction is contiguous and in place
    diff = np.conjugate(stack.swapaxes(-1, -2), order="C")
    return _ratio(_norms(np.subtract(stack, diff, out=diff)), norms).tolist()


def residual(H, eta) -> float:
    """Intertwining residual ``|eta H - H^dag eta|_F / (|H|_F |eta|_F)``, 0 if either is 0.

    Zero (up to floating-point error) exactly when eta intertwines H with its
    adjoint, at every scale of H and eta.  No invertibility of eta is needed.
    """
    H, eta = same_size(H, eta, ("H", "eta"))
    return float(_bilinear_ratio(_intertwining, H, eta[None], _norms(eta[None]))[0])


class MetricClass(NamedTuple):
    """Classification of a metric candidate at a given relative tolerance.

    The boolean flags are consistent by construction: positive implies invertible implies
    hermitian.  The two values are the smallest |eigenvalue| and the smallest eigenvalue of
    ``(eta + eta^dag) / 2``, None where not measured: chain elements k >= 2, classified by
    congruence, and spectral basis elements singular by structure (see _spectral_basis), set
    hermitian and not invertible.  The defect of a solve's exactly Hermitian matrix is 0.0, given.
    """

    hermitian: bool
    invertible: bool
    positive: bool
    min_abs_eigenvalue_of_hermitian_part: float | None
    min_eigenvalue_of_hermitian_part: float | None
    hermiticity_defect: float


def classify_metric(eta, tol: float = DEFAULT_TOL) -> MetricClass:
    """Classify eta as hermitian / invertible / positive by one ``eigvalsh``.

    The threshold is ``tol |eta|_F``, so the flags are invariant under positive
    rescaling.  Invertible: hermitian, and the smallest |eigenvalue| of the
    Hermitian part above it (for a hermitian eta within ``(tol / 2) |eta|_F`` of
    sigma_min, by Weyl's inequality).  Positive: the smallest eigenvalue too.
    Outside the window of _in_window, eta / 2^k from _unit_peak is classified
    and the values scaled back; InputError if they leave the double range.
    """
    eta = as_matrix(eta, "eta")
    check_tol(tol)
    return _classify(eta[None], tol, _norms(eta[None]))[0]


def _classify(stack: np.ndarray, tol: float, norms: np.ndarray,
              defects: np.ndarray | None = None) -> list[MetricClass]:
    """classify_metric of each matrix of a (k, n, n) stack with Frobenius norms ``norms``, by one
    ``eigvalsh``, on the stack windowed once: its hermiticity_defects are the caller's
    ``defects`` or, for None, measured there.  Where every defect is 0.0 the elements are
    exactly Hermitian, their own Hermitian parts, and eigvalsh takes them without a copy."""
    stack, norms, shift = _windowed(stack, norms, 1.0)  # exact scaling: Hermitian stays so
    defects = np.array(_defects(stack, norms)) if defects is None else defects
    hermitian = defects <= tol
    eigs = np.linalg.eigvalsh(_hermitian_part(stack) if defects.any() else stack)  # k = 0 too
    min_abs, min_eig = np.min(np.abs(eigs), axis=1), eigs[:, 0]
    invertible = hermitian & (min_abs > tol * norms)
    positive = invertible & (min_eig > tol * norms)
    with np.errstate(over="ignore"):
        # + 0.0 turns the -0.0 that an eigenvalue of a subnormal element can round to into 0.0
        min_abs, min_eig = np.ldexp(min_abs, shift) + 0.0, np.ldexp(min_eig, shift) + 0.0
    if np.isinf(min_eig).any():  # min_abs <= |min_eig|
        raise InputError("eta: an eigenvalue of its Hermitian part is beyond the double range")
    return list(map(MetricClass, hermitian.tolist(), invertible.tolist(), positive.tolist(),
                    min_abs.tolist(), min_eig.tolist(), defects.tolist()))


# Stacks are measured in chunks of at most 2^15 complex entries (512 KiB, 8
# elements at n = 64).  On ten of dense-certify's seed-1 chains (n = 64, 65
# elements each, one BLAS thread, norms by one dot product each), chunks of 8
# ran 1.52x as fast as one element at a time, 1.03x as fast as chunks of 4,
# 1.04x as fast as chunks of 16 (9 of 10 alternating runs; 8, 9 and 10 of 10
# in three more runs of 8 against 16), 1.32x as fast as chunks of 32 and 1.26x
# as fast as whole 65-element stacks, with bit-identical values.  A chain's
# traced peak is 5.5 MB with chunks of 8, 6.6 MB with 16 and 13.0 MB with
# whole stacks.  Two readers: _measure cuts a stack into chunks by it, and chain._chain
# sizes its buffer of H^dag eta_k products by it and measures each chunk as it closes.
_STACK_ENTRIES = 2 ** 15


def _measure(H: np.ndarray, stack: np.ndarray, products=None) -> tuple[list, np.ndarray]:
    """Residuals against H of a (k, n, n) stack, by chunks, and the Frobenius norms of its
    elements.  Given ``products = H^dag @ stack``, each chunk's go to _bilinear_ratio, which
    reuses them where it rescales neither H nor an element of the chunk."""
    residuals, norms = [], np.empty(len(stack))
    size = max(1, _STACK_ENTRIES // H.size)
    for start in range(0, len(stack), size):
        chunk, part = stack[start:start + size], slice(start, start + size)
        norms[part] = _norms(chunk)
        product = None if products is None else products[part]
        residuals += _bilinear_ratio(_intertwining, H, chunk, norms[part], product).tolist()
    return residuals, norms


class MetricBasis(NamedTuple):
    """Real-linear basis of the Hermitian solutions of ``eta H = H^dag eta``.

    Basis elements and the spectral metric are exactly Hermitian, ``b == b^dag`` bit for bit,
    and of unit Frobenius norm; the elements are pairwise orthogonal under ``Re tr(A^dag B)``.
    Element k has ``residuals[k] = residual(H, b)`` and ``classifications[k] =
    classify_metric(b, tol)`` bit for bit, its defect the 0.0 of an exactly Hermitian b, given,
    not measured, and both values None where it is singular by structure.  ``solver`` names the
    candidates (see solve_metric_space): ``"spectral"`` for eigenvector products,
    ``"realified"`` for the frame of all Hermitian matrices, a nullspace on either certified or
    counted and solved by _realified_basis.  ``spectral_metric`` is the unit-norm ``V^{-dag}
    V^{-1}`` of ``H = V diag(lambda) V^{-1}``, or None when V is singular; the solve measures
    it with the basis, in the same stack: ``spectral_residual = residual(H, spectral_metric)``
    and ``spectral_classification = classify_metric(spectral_metric, tol)``, None without it.
    """

    H: np.ndarray
    dimension: int
    basis: list[np.ndarray]
    residuals: list[float]
    classifications: list[MetricClass]
    solver: str
    spectral_metric: np.ndarray | None
    spectral_residual: float | None
    spectral_classification: MetricClass | None
    tol: float

    @property
    def checks(self) -> tuple[Check, ...]:
        """``basis_residual_max``: the largest element residual, held to tol."""
        return (Check.at_most("basis_residual_max", max(self.residuals, default=0.0), self.tol),)


def _unpack(P: np.ndarray) -> np.ndarray:
    """The exactly Hermitian ``(P + P^T) / 2 + i (P - P^T) / 2`` of each real (n, n) P of a
    stack.  For X Hermitian (or anti-Hermitian) Re X and Im X are symmetric and antisymmetric,
    orthogonal under ``tr(A^T B)``, so the packing ``P = Re X + Im X`` is an isometry onto the
    real matrices, with this inverse; the packing of ``_unpack(E_ab)`` is E_ab."""
    Pt = P.swapaxes(-1, -2)
    return (P + Pt + 1j * (P - Pt)) * 0.5


def _frame_map(H: np.ndarray) -> np.ndarray:
    """A^T, the real (n, n, n, n) map of _realified_basis on the frame: at [a, b] the packed
    image of the unit ``_unpack(E_ab)`` (E_aa on the diagonal), ``e_a Re H_b - (Re H_a) e_b^T
    + e_b Im H_a + (Im H_b) e_a^T`` for the rows H_a of H, placed in that order: on E_aa the
    real parts cancel exactly before 2 Im H_aa is added, and every entry is correctly rounded."""
    n, d = len(H), np.arange(len(H))
    out = np.zeros((n, n, n, n))
    out[d, :, d] += H.real  # [a, b, a, :] = Re H_b
    out[:, d, :, d] -= H.real  # [a, b, :, b] -= Re H_a
    out[:, d, d] += H.imag[:, None]  # [a, b, b, :] += Im H_a
    out[d, :, :, d] += H.imag  # [a, b, :, a] += Im H_b
    return out


def _fix_sign(stack: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack, each element negated in place whose first entry above 1e-12 in
    magnitude (row-major, real part before imaginary part) is negative; one with none keeps it."""
    # the (k, 2 n^2) real parts, row-major as the rule reads them, also for k = 0, and the first
    # part above 1e-12 of each (the first part where no part is that large)
    parts = np.ascontiguousarray(stack).reshape(-1, stack.shape[-1] ** 2).view(float)
    first = np.take_along_axis(parts, np.argmax(np.abs(parts) > 1e-12, axis=1)[:, None], 1)
    return np.negative(stack, out=stack, where=(first < -1e-12)[..., None])


def _inverse_step(R: np.ndarray, p: int, perturbed: bool = False) -> tuple[np.ndarray, ...]:
    """q of one inverse-iteration step ``R^-1 B`` on a fixed (k, p) B, and the SVD of ``R q``;
    perturbed or at an exact zero pivot, q of ``(R + eps C)^-1 B`` (below), with R's values."""
    # Rayleigh-Ritz on one step of inverse iteration: Ipsen, SIAM Rev. 39 (1997) 254.  An exact
    # zero pivot (the frame map of an exact Jordan block has exactly zero columns) takes the
    # step with R + eps C: C the fixed table cos((i + 1/2)(j + 3/2)) at unit norm, eps =
    # 2^-48 |R|_F, or 2^-48 for R = 0, which every vector solves.  A diagonal shift does not
    # mend such a map (its least singular value falls as a power of the shift); a dense C does.
    k, x = len(R), None
    start = np.cos(np.outer(np.arange(k), np.arange(1, p + 1)))  # fixed, not drawn
    with suppress(np.linalg.LinAlgError):
        x = None if perturbed else np.linalg.solve(R, start)
    if x is None:
        C = np.cos(np.outer(np.arange(k) + 0.5, np.arange(k) + 1.5))
        C *= 2.0 ** -48 * (frobenius(R) or 1.0) / frobenius(C)
        x = np.linalg.solve(np.add(C, R, out=C), start)  # k x k arrays: R, C, the LU copy
    q, _ = np.linalg.qr(x)
    return (q, *np.linalg.svd(R @ q, full_matrices=False)[1:])


def _gap_certified(G: np.ndarray, ritz: np.ndarray, Y: np.ndarray, threshold: float) -> bool:
    """Whether a Cholesky of ``G + mu Y^T Y - tau I`` proves ``sigma_{d+1}(R) > threshold``, mu
    the square of the first Ritz value above threshold and ``tau = threshold^2 + gamma_N (1 +
    gamma_N) (trace G + mu d)``, N = 2k + d + 4, bounding the rounding of the matrix and factor."""
    # G is the computed R^T R of a (k, k) R, and is overwritten; Y holds, as (d, k) rows, the
    # Ritz vectors of the d values of ritz (descending) at most threshold.
    # M = R^T R + mu Y^T Y is R^T R plus rank d, so lambda_min(M) <= sigma_{d+1}^2 (Weyl), and a
    # factor L that runs to completion makes M - tau I + E = L L^T positive definite.  E sums
    # the rounding (Higham, Accuracy and Stability of Numerical Algorithms, 3.5 and Thm 10.5)
    # of the Gram (|dG| <= gamma_k |R|^T |R|), of Y^T Y, of two sums and of the factor
    # (|dM| <= gamma_{k+1} |L| |L^T|): in the 2-norm each is within gamma times |R|_F^2 =
    # trace G or trace M.  The first Ritz value above threshold is at least sigma_{d+1}
    # (interlacing), and an exact Y makes lambda_min(M) = sigma_{d+1}^2.  With no such value
    # (a full block), or mu <= tau, the Cholesky cannot succeed and is not run.
    k, d = len(G), len(Y)
    gamma = (2 * k + d + 4) / (2.0 ** 53 - (2 * k + d + 4))  # N u / (1 - N u), u = 2^-53
    mu = ritz[-d - 1] ** 2 if d < len(ritz) else 0.0
    tau = threshold ** 2 + gamma * (1 + gamma) * (np.trace(G) + mu * d)
    with suppress(np.linalg.LinAlgError):  # raised when M - tau I is not positive definite
        if mu > tau:
            G += (mu * Y.T) @ Y
            G.flat[::k + 1] -= tau
            return np.linalg.cholesky(G)[-1, -1] > 0
    return False


def _realified_basis(H: np.ndarray, candidates: np.ndarray | None, tol: float,
                     need: int = 0) -> np.ndarray:
    """Nullspace of the realified map ``eta -> eta H - H^dag eta`` on the real span of an
    orthonormal (k, n, n) stack of exactly Hermitian candidates F, or of the frame of all
    Hermitian matrices (_frame_map) for None; none if fewer than ``need`` or than one.

    The images ``F H - (F H)^dag``, packed as ``Re + Im`` (an isometry on the anti-Hermitian
    images, see _unpack), are the columns of a real (n^2, k) A, so a unit element b of
    the span has singular value ``|b H - H^dag b|_F``; d of them (of A, or R in A = QR) are at
    most ``theta = tol |H|_F``.  Ritz values of an _inverse_step on ``min(k, max(need, n) + 8)``
    columns prove ``sigma_d <= theta`` (interlacing), _gap_certified ``sigma_{d+1} > theta``,
    else R's values give d.  The step on ``min(k, d + 8)`` columns (the first if that wide)
    gives the elements, smallest singular value first; a Ritz value of theirs above theta takes
    the step on R + eps C, and InputError if that fails too or R + eps C is singular."""
    n = H.shape[0]
    if candidates is None:  # A written from H; a coefficient vector is the packed element
        A, lift = _frame_map(H).reshape(n * n, n * n).T, lambda c: _unpack(c.reshape(-1, n, n))
    else:
        images = (candidates.reshape(-1, n) @ H).reshape(-1, n, n)  # F H in one product
        images = (images - adjoint(images)).reshape(len(candidates), n * n)
        # a combination's (a, b) and (b, a) entries can round apart: its Hermitian part is exact
        A, lift = (images.real + images.imag).T, lambda c: _hermitian_part(
            np.tensordot(c, candidates, axes=1))
    k, threshold = A.shape[1], tol * frobenius(H)
    R = A if k == n * n else np.linalg.qr(A, mode="r")  # A's singular values, right vectors
    with suppress(np.linalg.LinAlgError):  # a singular R + eps C: the nullspace is unresolved
        q, ritz, wt = _inverse_step(R, min(k, max(need, n) + 8))  # n: nonderogatory H's dim.
        d, G = np.count_nonzero(ritz <= threshold), R.T @ R
        A = R = None if candidates is None else R  # the frame's Gram takes A's place
        # d stands if the gap is proved; G goes before A is rebuilt, for the count of an
        # unproved d or for a step towards an answer that is not empty
        d, G = d if _gap_certified(G, ritz, wt[::-1][:d] @ q.T, threshold) else None, None
        if R is None and (d is None or max(need, 1) <= d and len(ritz) != min(k, d + 8)):
            R = _frame_map(H).reshape(n * n, n * n).T
        d = np.count_nonzero(np.linalg.svd(R, compute_uv=False) <= threshold) if d is None else d
        if d < max(need, 1):  # none, or too few for the caller, which retries on the frame
            return np.zeros((0, n, n), dtype=complex)
        p = min(k, d + 8)
        q, ritz, wt = (q, ritz, wt) if len(ritz) == p else _inverse_step(R, p)
        if not (ritz[p - d:] <= threshold).all():  # a pivot that rounding left nonzero
            R = _frame_map(H).reshape(n * n, n * n).T if R is None else R
            q, ritz, wt = _inverse_step(R, p, perturbed=True)
        if (ritz[p - d:] <= threshold).all():
            return lift(wt[p - d:][::-1] @ q.T)
    raise InputError(f"H: the nullspace was not resolved at tol = {tol:g}")


def _spectral_basis(W: np.ndarray, linked: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal (k, n, n) stack spanning ``W M W^dag``, M Hermitian on the linked pairs,
    and how many leading elements are singular by structure.

    Pair i <= j contributes ``w_i w_i^dag`` when i = j, else ``w_i w_j^dag + w_j w_i^dag`` and
    ``i (w_i w_j^dag - w_j w_i^dag)``; QR under ``Re tr(A^dag B)`` orthonormalizes them in that
    order, on their real packings (see _unpack).  Element k lies in the span of the first k + 1,
    so its M has a zero row until every eigenvalue has entered a pair, and (W invertible,
    Sylvester's law of inertia) it is singular; every element is if one never enters.
    """
    n = W.shape[0]
    i, j = np.nonzero(np.triu(linked))
    outer = W.T[i][:, :, None] * W.T[j].conj()[:, None, :]  # w_i w_j^dag
    outer_h = outer.conj().transpose(0, 2, 1)
    # i (w_i w_i^dag - w_i w_i^dag) = 0: a self-link gives one element, at slot[p] for pair p
    two = i != j
    slot = np.cumsum(1 + two) - 1 - two
    elements = np.empty((i.size + np.count_nonzero(two), n, n), dtype=complex)
    elements[slot] = outer + outer_h
    elements[slot[two] + 1] = 1j * (outer[two] - outer_h[two])
    q, _ = np.linalg.qr((elements.real + elements.imag).reshape(-1, n * n).T)
    # each candidate's two eigenvalues in order, flattened (candidate c at 2c and 2c + 1):
    # eigenvalue e enters at the first candidate that holds it
    entered, first = np.unique(np.repeat(np.stack((i, j), 1), 1 + two, 0), return_index=True)
    singular = first.max() // 2 if len(entered) == n else len(elements)
    return _unpack(q.T.reshape(-1, n, n)), int(singular)


def _measured(H: np.ndarray, unit: np.ndarray, stack: np.ndarray, solver: str, tol: float,
              spectral: np.ndarray | None, singular: int = 0) -> MetricBasis:
    """The MetricBasis of H from solver's stack, measured against unit (H exactly scaled): each
    element's sign fixed (norms and residuals stay), its residuals by _measure, then the spectral
    metric's (sign kept), measured after it in the same stack, or None and None for none.  The
    first ``singular`` elements are singular by structure; _classify takes the rest with defects
    0.0, as all are exactly Hermitian (_unpack, _realified_basis's lift, ``X + X^dag``)."""
    k = len(stack)  # one copy: stack, then the spectral metric, signs fixed in place
    both = np.concatenate((stack, stack[:0] if spectral is None else spectral[None]))
    _fix_sign(both[:k])
    residuals, norms = _measure(unit, both)
    classes = [MetricClass(True, False, False, None, None, 0.0)] * singular + _classify(
        both[singular:], tol, norms[singular:], np.zeros(len(both) - singular))
    return MetricBasis(H, k, list(both[:k]), residuals[:k], classes[:k], solver, spectral,
                       *(residuals[k:] + classes[k:] or [None, None]), tol)


@contextmanager
def _within_memory(size: int, message: str):
    """InputError(message) for size bytes beyond the physical memory, or numpy's MemoryError."""
    try:  # no bound where os.sysconf is missing, fails, or gives a page count or size below 1
        with suppress(AttributeError, ValueError, OSError):
            pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
            if min(pages, page) > 0 and size > pages * page:
                raise MemoryError
        yield
    except MemoryError:
        raise InputError(message) from None


# The frame solve's peak RSS grew by at most 40.5 n^4 bytes at n = 24..40 (one BLAS thread):
# 27-32 n^4 on dense-solve-style Jordan draws S J_n S^-1 (the Gram matrix, its Cholesky factor
# and LAPACK's copy of it), 28-40.5 n^4 on the J_2 family, whose values-only SVD counts d, and
# 35-38 n^4 on the exact 0.3 I + N (the map, its perturbed copy and the LU solve's copy of
# that).  A bound about 12% above the largest reading refuses what beyond the physical memory
# would get the process killed, not a MemoryError.
_FRAME_BYTES_PER_N4 = 45
# The spectral solve's peak RSS grew by at most 102.5 k n^2 bytes for k candidates at n = 64..192
# (fresh processes, one BLAS thread): 89-99.9 on the quasi family, 81-91.5 on the pseudo family
# and 89-102.5 on a near pair (d_1 = d_0 + 1e-6) that the candidates' nullspace resolves (up to
# n = 160; at 192 it falls to the frame), each largest at n = 64.  The bound is about 12% above
# the largest reading.
_SPECTRAL_BYTES_PER_KN2 = 115


def solve_metric_space(H, tol: float = DEFAULT_TOL) -> MetricBasis:
    """Compute every Hermitian solution of ``eta H = H^dag eta``.

    With ``H = V diag(lambda) V^{-1}`` and ``W = V^{-dag}``, the solutions are
    ``W M W^dag`` for Hermitian M with ``M_ij = 0`` unless ``lambda_j =
    conj(lambda_i)`` (Mostafazadeh, J. Math. Phys. 43, 205 (2002)).  Eigenvalue
    i has the radius ``r_i = tol |H|_2 kappa_i``, with Wilkinson's condition
    number ``kappa_i = |v_i| |w_i|`` (Golub & Van Loan, Matrix Computations,
    7.2.2).  Pairs with ``|lambda_j - conj(lambda_i)| <= r_i + r_j`` are linked,
    and the window holds those within ten times that distance.  The window's
    pairs give the candidates (_spectral_basis), over the eigenvalues sorted by
    real, then imaginary part.

    The candidates as they are form the basis, ``solver`` ``"spectral"``, when every window pair
    is linked and their record (_measured) passes its ``basis_residual_max`` check (a NaN residual
    fails it); else, also ``"spectral"``, the nullspace of the intertwining map on their span,
    smallest singular value first (_realified_basis: Ritz values and a Cholesky gap test, or else
    singular values, give its dimension), when it has as many elements as the links give.  Else,
    or when ``max(tol, 2^-52) cond(V) >= 1``, the frame of all n^2 Hermitian matrices takes their
    place, ``solver`` ``"realified"``: a numerically defective cluster, such as a Jordan block.
    The frame takes up to about 40 n^4 bytes; InputError names n when _FRAME_BYTES_PER_N4 n^4
    (45 n^4) bytes exceed the physical memory (by os.sysconf, where it exists) or fail to allocate.
    So does the spectral attempt on k candidates for _SPECTRAL_BYTES_PER_KN2 k n^2 (115 k n^2).

    The sign of each element's first significant entry is made positive, and an element singular
    by structure (_spectral_basis) takes no eigvalsh.  The spectral metric is measured with the
    basis, after its elements in the same stack (_measured).  Dimension 0 means no Hermitian metric.
    """
    H = as_matrix(H, "H")
    check_tol(tol)
    unit, _ = _unit_peak(H)  # exact scaling: the same eigenvector matrix and solutions
    lam, V = np.linalg.eig(unit)
    order = np.lexsort((lam.imag, lam.real))
    lam, V = lam[order], V[:, order]
    u, s, xh = np.linalg.svd(V)
    # V^{-dag} V^{-1} = U diag(1/s^2) U^dag, scaled by s_min^2 so that nothing
    # is inverted and nothing overflows.
    spectral = None
    if s[-1] > 0:
        spectral = (u * (s[-1] / s) ** 2) @ adjoint(u)
        spectral = spectral + adjoint(spectral)
        spectral = spectral / frobenius(spectral)
    measure = partial(_measured, H, unit, tol=tol, spectral=spectral)
    # max(tol, eps) cond(V) < 1: the candidates carry rounding of about eps cond(V), and below
    # it W = V^{-dag} can overflow
    if max(tol, 2.0 ** -52) * s[0] < s[-1]:
        W = (u / s) @ xh  # V^{-dag} = U S^-1 X^dag
        radii = (tol * np.linalg.norm(unit, 2)
                 * np.linalg.norm(V, axis=0) * np.linalg.norm(W, axis=0))
        reach = radii[:, None] + radii[None, :]
        dist = np.abs(lam[None, :] - lam.conj()[:, None])  # |lambda_j - conj(lambda_i)|
        # Both tests are symmetric in (i, j), so each gives one element per entry it holds;
        # the links lie in the window, so the counts agree when every window pair is linked.
        window, need = dist <= 10.0 * reach, np.count_nonzero(dist <= reach)
        with _within_memory(_SPECTRAL_BYTES_PER_KN2 * np.count_nonzero(window) * len(H) ** 2,
                            f"H: the spectral solve at n = {len(H)} needs more memory than this "
                            "machine has (its arrays grow as n^2 per candidate)"):
            stack, singular = _spectral_basis(W, window)
            if len(stack) == need:
                basis = measure(stack, "spectral", singular=singular)
                if basis.checks[0].passed:  # basis_residual_max
                    return basis
            members = _realified_basis(unit, stack, tol, need)
            if len(members) >= need:
                return measure(members, "spectral")
    with _within_memory(_FRAME_BYTES_PER_N4 * len(H) ** 4,
                        f"H: the realified solve at n = {len(H)} needs more memory than "
                        "this machine has (its arrays grow as n^4)"):
        return measure(_realified_basis(unit, None, tol), "realified")


def _metric_candidates(basis: MetricBasis):
    """The candidates of find_metric, each with its classification when the solve
    already made it (else None), in order, each computed when reached."""
    yield from zip(basis.basis, basis.classifications)
    if basis.spectral_metric is not None and basis.spectral_residual <= basis.tol:
        yield basis.spectral_metric, basis.spectral_classification
    # Distinct weights make the combination generic: unit weights cancel on
    # structured bases and miss invertible members that exist.
    weights = np.sqrt(np.arange(basis.dimension) + 2.0)
    combination = np.tensordot(weights, basis.basis, axes=1)
    yield combination / frobenius(combination), None


def find_metric(basis: MetricBasis, want_positive: bool = False) -> np.ndarray | None:
    """Pick an invertible (optionally positive) metric from the solution space.

    Every verdict is taken at the tol of the solve, ``basis.tol``.  Candidates,
    in order: each basis element, with the classification the solve made; the
    solve's spectral metric ``V^{-dag} V^{-1}`` when its residual is at most
    tol, with the residual and classification the solve measured with the basis;
    the fixed combination ``sum_k sqrt(k + 2) b_k``, the one candidate classified
    here.  Returns the first one classified as wanted, a unit-Frobenius-norm
    Hermitian matrix, or None; None is a result, not an error.
    """
    if basis.dimension == 0:
        return None
    for candidate, cls in _metric_candidates(basis):
        cls = cls or classify_metric(candidate, basis.tol)
        if cls.positive if want_positive else cls.invertible:
            return candidate
    return None


def catalog_two_point(x: complex, y: complex) -> tuple[np.ndarray, np.ndarray]:
    """Two-site Hamiltonian ``[[x, y], [conj(y), conj(x)]]`` with its metric.

    The metric is ``[[0, y], [conj(y), 0]]`` for nonzero y and the exchange
    matrix otherwise.  x and y are any ``numbers.Complex`` but a bool, and their
    parts are held to the rule of _finite_real.  Im(x) = 0 is rejected: the
    Hamiltonian would be Hermitian, outside this constructor's scope.
    """
    if not all(isinstance(z, Complex) and not isinstance(z, bool) for z in (x, y)):
        raise InputError(f"two-point parameters must be complex numbers, got {x!r}, {y!r}")
    x, y = (complex(_finite_real(z.real, "two-point parameters"),
                    _finite_real(z.imag, "two-point parameters")) for z in (x, y))
    if x.imag == 0.0:
        raise InputError("two-point constructor requires Im(x) != 0 "
                         "(the Hamiltonian would be Hermitian)")
    H = np.array([[x, y], [np.conj(y), np.conj(x)]], dtype=complex)
    w = y if y != 0 else 1.0
    return H, np.array([[0.0, w], [np.conj(w), 0.0]], dtype=complex)


def catalog_oscillator(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-level Hamiltonian ``[[0, i], [-i omega^2, 0]]`` with metric ``[[0, i], [-i, 0]]``.

    omega = 0 is rejected: the determinant vanishes and the standard metric
    construction degenerates (use the raw-matrix path plus the spectrum-shift
    machinery instead).  So is an omega that _finite_real refuses, and one whose
    square overflows, or underflows to 0 and so gives the omega = 0 Hamiltonian.
    """
    omega = _finite_real(omega, "omega")
    if omega == 0.0:
        raise InputError("oscillator constructor requires omega != 0")
    if not 0.0 < omega * omega < np.inf:  # float * float gives inf or 0, where ** raises
        raise InputError("omega must be finite, with omega^2 within the double range")
    H = np.array([[0.0, 1j], [-1j * (omega * omega), 0.0]], dtype=complex)
    eta = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
    return H, eta
