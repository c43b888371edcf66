"""Dense complex-matrix foundation for metric operators.

A Hermitian invertible eta is a metric for a Hamiltonian H when the
intertwining relation ``eta H = H^dag eta`` holds.  Everything here works in
that multiplied-through form, so singular candidates are handled without ever
inverting eta.  All functions are pure: inputs are never mutated and there is
no global state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Relative tolerance used by every verification predicate unless overridden.
DEFAULT_TOL = 1e-10

# Singular values below NULLSPACE_RTOL times the largest one count as zero
# when extracting nullspaces and numerical ranks.
NULLSPACE_RTOL = 1e-8


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and coerce to a square, finite complex matrix."""
    try:
        m = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: entries are not complex numbers ({exc})") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InputError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError(f"{name}: non-finite entries are not allowed")
    return m


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Validate and coerce to a finite complex vector."""
    try:
        v = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: entries are not complex numbers ({exc})") from None
    if v.ndim != 1 or v.size == 0:
        raise InputError(f"{name}: expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InputError(f"{name}: non-finite entries are not allowed")
    return v


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm that neither overflows nor underflows for finite m.

    np.linalg.norm squares the entries; a result out of its range is recomputed
    on m divided by the power of two at its largest entry, an exact scaling.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(m))
        if np.isinf(norm) or norm < 1e-150:
            scaled, k = _unit_peak(m)
            norm = float(np.ldexp(np.linalg.norm(scaled), k))
    return norm


def _unit_peak(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m divided by the power of two k at its largest entry (exact), and k."""
    k = int(np.frexp(np.max(np.abs(m), initial=0.0))[1])
    return m * np.ldexp(1.0, -k), k


def check_scale(norm: float) -> float:
    """Scale a relative check divides by: the norm floored at 1.

    Below unit norm the floor makes every check absolute.
    """
    return max(1.0, norm)


def hermiticity_defect(m: np.ndarray) -> float:
    """Relative deviation from Hermiticity, ``|m - m^dag|_F / max(1, |m|_F)``."""
    m = np.asarray(m, dtype=complex)
    return frobenius(m - adjoint(m)) / check_scale(frobenius(m))


def residual(H, eta) -> float:
    """Intertwining residual ``|eta H - H^dag eta|_F / max(1, |H|_F |eta|_F)``.

    Zero (up to floating-point error) exactly when eta intertwines H with its
    adjoint.  The multiplied-through form needs no invertibility of eta.
    """
    H = as_matrix(H, "H")
    eta = as_matrix(eta, "eta")
    if H.shape != eta.shape:
        raise InputError(f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
                         f"eta is {eta.shape[0]}x{eta.shape[0]}")
    scale = frobenius(H) * frobenius(eta)
    if scale > 1e300:
        # Entries of eta H, bounded by |H| |eta|, could overflow: take the same
        # ratio on H and eta scaled exactly to a unit peak entry (no floor
        # applies this far above 1).
        (H, _), (eta, _) = _unit_peak(H), _unit_peak(eta)
        return frobenius(eta @ H - adjoint(H) @ eta) / (frobenius(H) * frobenius(eta))
    return frobenius(eta @ H - adjoint(H) @ eta) / check_scale(scale)


@dataclass(frozen=True)
class MetricClass:
    """Classification of a metric candidate at a given relative tolerance.

    The boolean flags are consistent by construction:
    positive implies invertible implies hermitian.
    """

    hermitian: bool
    invertible: bool
    positive: bool
    min_singular_value: float
    min_eigenvalue_of_hermitian_part: float
    hermiticity_defect: float


def classify_metric(eta, tol: float = DEFAULT_TOL) -> MetricClass:
    """Classify eta as hermitian / invertible / positive.

    Thresholds are relative to the Frobenius norm of eta, so the flags are
    invariant under positive rescaling.
    """
    eta = as_matrix(eta, "eta")
    if tol <= 0:
        raise InputError("tol must be positive")
    norm = frobenius(eta)
    scale = tol * norm
    defect_abs = frobenius(eta - adjoint(eta))
    svals = np.linalg.svd(eta, compute_uv=False)
    min_sv = float(svals[-1]) if svals.size else 0.0
    min_eig = float(np.linalg.eigvalsh((eta + adjoint(eta)) / 2.0)[0])
    hermitian = defect_abs <= scale
    invertible = hermitian and min_sv > scale
    positive = invertible and min_eig > scale
    return MetricClass(
        hermitian=hermitian,
        invertible=invertible,
        positive=positive,
        min_singular_value=min_sv,
        min_eigenvalue_of_hermitian_part=min_eig,
        hermiticity_defect=defect_abs / check_scale(norm),
    )


@dataclass(frozen=True)
class MetricBasis:
    """Real-linear basis of the Hermitian solutions of ``eta H = H^dag eta``.

    Basis elements are Hermitian, have unit Frobenius norm and are pairwise
    orthogonal under the real inner product ``Re tr(A^dag B)``.
    """

    H: np.ndarray
    dimension: int
    basis: list[np.ndarray]
    classifications: list[MetricClass]


def _hermitian_frame(n: int) -> np.ndarray:
    """Orthonormal basis of the n^2-dimensional real space of Hermitian matrices.

    Stacked as an (n^2, n, n) array: the n diagonal units, then for each
    i < j in row-major order the real and the imaginary off-diagonal element.
    """
    frame = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    frame[d, d, d] = 1.0
    i, j = np.triu_indices(n, 1)
    k = n + 2 * np.arange(i.size)
    s = 1.0 / np.sqrt(2.0)
    frame[k, i, j] = s
    frame[k, j, i] = s
    frame[k + 1, i, j] = 1j * s
    frame[k + 1, j, i] = -1j * s
    return frame


def _fix_sign(b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    # Sign convention: first entry (row-major, real part before imaginary part)
    # larger than eps in magnitude is made positive.
    for z in b.ravel():
        for part in (z.real, z.imag):
            if abs(part) > eps:
                return -b if part < 0 else b
    return b


def solve_metric_space(H, tol: float = DEFAULT_TOL) -> MetricBasis:
    """Compute every Hermitian solution of ``eta H = H^dag eta``.

    The map ``eta -> eta H - H^dag eta`` is real-linear on the space of
    Hermitian matrices; its realified matrix is assembled from the images of
    an orthonormal Hermitian frame and the nullspace is read off an SVD.
    Singular values below ``NULLSPACE_RTOL`` times the largest count as zero.

    Returns a MetricBasis with orthonormal Hermitian basis elements, ordered
    from most nearly null (smallest singular value) to least, with the sign
    of the first significant entry made positive.  Dimension 0 is a valid
    outcome meaning no Hermitian metric exists.
    """
    H = as_matrix(H, "H")
    if tol <= 0:
        raise InputError("tol must be positive")
    n = H.shape[0]
    frame = _hermitian_frame(n)
    images = (frame @ H - adjoint(H) @ frame).reshape(n * n, n * n)
    cols = np.concatenate((images.real, images.imag), axis=1).T
    _, svals, vt = np.linalg.svd(cols, full_matrices=False)
    cutoff = NULLSPACE_RTOL * (svals[0] if svals[0] > 0 else 1.0)
    null = vt[svals <= cutoff][::-1]  # smallest singular value first
    basis = [_fix_sign(b) for b in np.tensordot(null, frame, axes=1)]
    classifications = [classify_metric(b, tol) for b in basis]
    return MetricBasis(H=H, dimension=len(basis), basis=basis,
                       classifications=classifications)


def _spectral_metric(H: np.ndarray) -> np.ndarray | None:
    """``V^{-dag} V^{-1}`` at unit norm for ``H = V diag(lambda) V^{-1}``, or None.

    Positive by construction; a metric when the spectrum is real.  Formed as
    ``U diag((s_min / s)^2) U^dag`` from ``V = U diag(s) W^dag``, so nothing is
    inverted and nothing overflows.
    """
    _, V = np.linalg.eig(H)
    u, s, _ = np.linalg.svd(V)
    if not s[-1] > 0:
        return None
    d = (s[-1] / s) ** 2
    eta = (u * d) @ adjoint(u)
    eta = eta + adjoint(eta)
    return eta / frobenius(eta)


def _metric_candidates(basis: MetricBasis, tol: float):
    """The candidates of find_metric, in order, each computed when reached."""
    yield from basis.basis
    spectral = _spectral_metric(basis.H)
    if spectral is not None and residual(basis.H, spectral) <= tol:
        yield spectral
    # Distinct weights make the combination generic: unit weights cancel on
    # structured bases and miss invertible members that exist.
    weights = np.sqrt(np.arange(basis.dimension) + 2.0)
    combination = np.tensordot(weights, basis.basis, axes=1)
    yield combination / frobenius(combination)


def find_metric(basis: MetricBasis, want_positive: bool = False,
                tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Pick an invertible (optionally positive) metric from the solution space.

    Candidates, in order: each basis element; ``_spectral_metric(H)`` when its
    residual is at most tol; the fixed combination ``sum_k sqrt(k + 2) b_k``.
    Returns the first one classified as wanted, a unit-Frobenius-norm
    Hermitian matrix, or None; None is a result, not an error.
    """
    if basis.dimension == 0:
        return None
    for candidate in _metric_candidates(basis, tol):
        cls = classify_metric(candidate, tol)
        if cls.positive if want_positive else cls.invertible:
            return candidate
    return None


def catalog_two_point(x: complex, y: complex) -> tuple[np.ndarray, np.ndarray]:
    """Two-site Hamiltonian ``[[x, y], [conj(y), conj(x)]]`` with its metric.

    The metric is ``[[0, y], [conj(y), 0]]`` for nonzero y and the exchange
    matrix otherwise.  Im(x) = 0 is rejected: the Hamiltonian would be
    Hermitian, outside this constructor's scope.
    """
    x = complex(x)
    y = complex(y)
    if not (np.isfinite(x.real) and np.isfinite(x.imag)
            and np.isfinite(y.real) and np.isfinite(y.imag)):
        raise InputError("two-point parameters must be finite")
    if x.imag == 0.0:
        raise InputError("two-point constructor requires Im(x) != 0 "
                         "(the Hamiltonian would be Hermitian)")
    H = np.array([[x, y], [np.conj(y), np.conj(x)]], dtype=complex)
    if y != 0:
        eta = np.array([[0.0, y], [np.conj(y), 0.0]], dtype=complex)
    else:
        eta = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return H, eta


def catalog_oscillator(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-level Hamiltonian ``[[0, i], [-i omega^2, 0]]`` with metric ``[[0, i], [-i, 0]]``.

    omega = 0 is rejected: the determinant vanishes and the standard metric
    construction degenerates (use the raw-matrix path plus the spectrum-shift
    machinery instead).
    """
    omega = float(omega)
    if not np.isfinite(omega):
        raise InputError("omega must be finite")
    if omega == 0.0:
        raise InputError("oscillator constructor requires omega != 0")
    H = np.array([[0.0, 1j], [-1j * omega ** 2, 0.0]], dtype=complex)
    eta = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
    return H, eta
