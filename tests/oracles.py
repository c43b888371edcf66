"""Independent brute-force oracles used to cross-check library results.

These deliberately avoid the library's own machinery: the nullspace oracle
parametrizes a general complex matrix by its 2n^2 real unknowns and imposes
hermiticity as extra linear constraints, the frame nullspace takes the full
SVD of the intertwining map on a Hermitian frame built by a loop, the rank
oracle realifies every matrix into those 2n^2 real numbers, and the
operator-algebra oracle represents x and p as matrices on a truncated
harmonic-oscillator basis.
The Fraction Weyl reference works term by term on ``{(a, b): (re, im)}``
maps of ``fractions.Fraction`` pairs, one coefficient product at a time, and
the canonical-form reference reduces integer numerators by a plain gcd.  The
exact chain reference builds ``H = S diag(lambda) S^-1`` and its metric chain
in closed form in Python integers, for a Gaussian-integer S of determinant 1,
and the rational rank and nullspace eliminate in Fractions, the latter also on the
exact frame map: the packed images of ``U H - H^dag U`` for the n^2 unpacked units U,
multiplied out in Fractions.  The per-matrix residual and
classification references take one matrix at a time, with np.linalg.norm and
one eigvalsh each, by the arithmetic the library's stacked kernels must
reproduce bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, sqrt

import numpy as np

from pseudoherm import InputError, MetricClass


def intertwiner_nullspace_dimension(H: np.ndarray, rtol: float = 1e-8) -> int:
    """Dimension of {eta Hermitian : eta H = H^dag eta} by raw realified elimination.

    Unknowns are the 2n^2 real and imaginary parts of a general complex
    matrix; the constraint rows are eta H - H^dag eta = 0 (realified) plus
    eta - eta^dag = 0 (realified).
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    Hd = H.conj().T

    def constraint(eta: np.ndarray) -> np.ndarray:
        inter = eta @ H - Hd @ eta
        herm = eta - eta.conj().T
        return np.concatenate([inter.real.ravel(), inter.imag.ravel(),
                               herm.real.ravel(), herm.imag.ravel()])

    columns = []
    for idx in range(n * n):
        unit = np.zeros((n, n), dtype=complex)
        unit.flat[idx] = 1.0
        columns.append(constraint(unit))
    for idx in range(n * n):
        unit = np.zeros((n, n), dtype=complex)
        unit.flat[idx] = 1j
        columns.append(constraint(unit))
    system = np.array(columns).T
    svals = np.linalg.svd(system, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 2 * n * n
    return int(np.sum(svals <= rtol * svals[0]))


def frame_nullspace(H: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal (d, n, n) stack spanning the Hermitian eta with
    ``|eta H - H^dag eta|_F <= tol |H|_F |eta|_F``, by one full SVD.

    The frame is the n diagonal units and, for each i < j, the real and the
    imaginary off-diagonal pair over sqrt(2), built one matrix at a time; the
    images of its elements, realified into [Re; Im] columns of 2n^2 rows, give
    the map, and its right singular vectors with singular value at most
    ``tol |H|_F`` give the elements.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    frame = []
    for i in range(n):
        for j in range(i, n):
            for unit in ([1.0] if i == j else [1 / np.sqrt(2.0), 1j / np.sqrt(2.0)]):
                e = np.zeros((n, n), dtype=complex)
                e[i, j], e[j, i] = unit, np.conj(unit)
                frame.append(e)
    images = [e @ H - H.conj().T @ e for e in frame]
    A = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in images]).T
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    return np.tensordot(vt[svals <= tol * np.linalg.norm(H)], np.array(frame), axes=1)


def jordan_matrix(blocks) -> np.ndarray:
    """The block-diagonal matrix of one Jordan block ``J_p(lambda)`` per (lambda, p)."""
    n = sum(p for _, p in blocks)
    J = np.zeros((n, n), dtype=complex)
    start = 0
    for lam, p in blocks:
        J[start:start + p, start:start + p] = lam * np.eye(p) + np.diag(np.ones(p - 1), 1)
        start += p
    return J


def jordan_dimension(blocks) -> int:
    """Dimension of {eta Hermitian : eta H = H^dag eta} for H with the Jordan blocks
    ``J_p(lambda)`` given as (lambda, p), by the Cecioni-Frobenius count.

    The solutions of ``X H = H^dag X`` form a complex space of dimension
    ``sum min(p_i, p_j)`` over ordered pairs of blocks with ``lambda_j =
    conj(lambda_i)`` (Gantmacher, The Theory of Matrices, vol. 1, ch. VIII,
    section 1).  It is closed under ``X -> X^dag``, so its Hermitian part has
    that real dimension.  Eigenvalues are compared exactly.
    """
    return sum(min(p, q) for lam, p in blocks for mu, q in blocks
               if complex(mu) == complex(lam).conjugate())


def unimodular(n: int, rng: np.random.Generator, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """A random integer S with determinant 1 and its exact integer inverse: a product
    of ``steps`` elementary operations, row i plus or minus row j."""
    S, S_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, 2, replace=False)
        E, E_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
        E[i, j] = rng.choice([-1, 1])
        E_inv[i, j] = -E[i, j]
        S, S_inv = S @ E, E_inv @ S_inv
    return S, S_inv


def _gaussian_product(A, B):
    """The product of Gaussian-integer matrices given as (re, im) pairs of integer arrays."""
    (a, b), (c, d) = A, B
    return a @ c - b @ d, a @ d + b @ c


def gaussian_unimodular(n: int, rng: np.random.Generator, steps: int) -> tuple:
    """A random Gaussian-integer S with determinant 1 and its exact inverse, each a (re, im)
    pair of Python-integer arrays: a product of ``steps`` elementary operations, column j
    plus u times column i, for a unit u in {1, -1, i, -i}."""
    eye = np.eye(n, dtype=int).astype(object)
    S = S_inv = (eye, 0 * eye)
    for _ in range(steps):
        i, j = rng.choice(n, 2, replace=False)
        u = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
        E, E_inv = (eye.copy(), 0 * eye), (eye.copy(), 0 * eye)
        for part in range(2):  # (I + u e_i e_j^T)^-1 = I - u e_i e_j^T for i != j
            E[part][i, j], E_inv[part][i, j] = u[part], -u[part]
        S, S_inv = _gaussian_product(S, E), _gaussian_product(E_inv, S_inv)
    return S, S_inv


def exact_chain(lam, S, S_inv, k_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """H = S diag(lam) S^-1 and its chain from eta_0 = S^-dag S^-1 in closed form, for
    integer lam and a Gaussian-integer S from gaussian_unimodular: eta_k = (H^dag)^k eta_0
    = S^-dag diag(lam^k) S^-1, k = 0..k_max.  Computed in Python integers and returned as
    complex arrays, exactly: every entry stays below 2^53."""
    adj = (S_inv[0].T, -S_inv[1].T)

    def times(powers, M):  # diag(powers) M
        column = np.array(powers, dtype=object)[:, None]
        return M[0] * column, M[1] * column

    exact = [_gaussian_product(S, times(lam, S_inv))]
    exact += [_gaussian_product(adj, times([x ** k for x in lam], S_inv)) for k in range(k_max + 1)]
    assert all(abs(x) < 2 ** 53 for re, im in exact for x in [*re.flat, *im.flat])
    H, *etas = [re.astype(float) + 1j * im.astype(float) for re, im in exact]
    return H, etas


def rational_rank(matrices) -> int:
    """Rank over Q of the rows [Re m, Im m] of integer-valued complex matrices: their
    number less the dimension of their rational_nullspace."""
    rows = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in matrices]
    return len(rows) - len(rational_nullspace(rows))


def exact_frame_map(H: np.ndarray) -> list[list[Fraction]]:
    """For each unpacked unit ``U = (E_ab + E_ba) / 2 + i (E_ab - E_ba) / 2`` (a, b row-major;
    E_aa for a = b), the packing ``Re X + Im X`` (row-major) of ``X = U H - H^dag U``, with
    every float entry of H taken exactly and the products multiplied out in Fractions."""
    H = np.asarray(H, dtype=complex)
    n, half, zero = len(H), Fraction(1, 2), (Fraction(0), Fraction(0))
    h = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in H]
    columns = []
    for a in range(n):
        for b in range(n):
            U = [[zero] * n for _ in range(n)]
            U[a][b] = (half, half)
            U[b][a] = (U[b][a][0] + half, U[b][a][1] - half)  # 1 for a = b
            column = []
            for i in range(n):
                for j in range(n):
                    x = zero
                    for k in range(n):
                        u_h = _cmul(U[i][k], h[k][j])
                        hd_u = _cmul((h[k][i][0], -h[k][i][1]), U[k][j])
                        x = (x[0] + u_h[0] - hd_u[0], x[1] + u_h[1] - hd_u[1])
                    column.append(x[0] + x[1])
            columns.append(column)
    return columns


def rational_nullspace(columns) -> list[list[Fraction]]:
    """A basis over Q of the c with ``sum_k c_k columns[k] = 0``, by Gauss-Jordan elimination
    in Fractions: one vector per non-pivot column k, 1 at k and 0 at the other such columns."""
    rows, pivots = [list(map(Fraction, row)) for row in zip(*columns)], []
    for col in range(len(columns)):
        pivot = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        r = len(pivots)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for other in range(len(rows)):
            if other != r and rows[other][col]:
                factor = rows[other][col]
                rows[other] = [x - factor * y for x, y in zip(rows[other], rows[r])]
        pivots.append(col)
    basis = []
    for free in (k for k in range(len(columns)) if k not in pivots):
        c = [Fraction(0)] * len(columns)
        c[free] = Fraction(1)
        for r, col in enumerate(pivots):
            c[col] = -rows[r][free]
        basis.append(c)
    return basis


def realified_rank(etas, tol: float) -> tuple[int, np.ndarray]:
    """Real-linear rank of complex matrices taken as vectors of their 2n^2 real
    and imaginary parts, and the singular values of that (k, 2n^2) stack over
    its Frobenius norm: the rank counts those above tol."""
    rows = np.array([np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in etas])
    svals = np.linalg.svd(rows, compute_uv=False) / np.linalg.norm(rows)
    return int(np.sum(svals > tol)), svals


def svd_invertible(eta: np.ndarray, tol: float) -> bool:
    """The invertibility verdict by singular values: eta is Hermitian within tol,
    ``|eta - eta^dag|_F <= tol |eta|_F``, and ``sigma_min(eta) > tol |eta|_F``."""
    eta = np.asarray(eta, dtype=complex)
    norm = np.linalg.norm(eta)
    hermitian = np.linalg.norm(eta - eta.conj().T) <= tol * norm
    return bool(hermitian and np.linalg.svd(eta, compute_uv=False)[-1] > tol * norm)


def oscillator_basis_matrices(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated matrix representations of x and p with [x, p] = i.

    Built from ladder operators: x = (a + a^dag)/sqrt(2),
    p = i (a^dag - a)/sqrt(2); exact away from the truncation boundary.
    """
    lower = np.zeros((levels, levels), dtype=complex)
    for k in range(1, levels):
        lower[k - 1, k] = np.sqrt(k)
    raise_ = lower.conj().T
    x = (lower + raise_) / np.sqrt(2.0)
    p = 1j * (raise_ - lower) / np.sqrt(2.0)
    return x, p


def weyl_terms_to_matrix(terms, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate a normal-ordered term map {(a, b): coeff} (a polynomial's ``terms``) on the
    truncated basis, each coefficient as a complex float."""
    total = np.zeros_like(x)
    for (a, b), coeff in terms.items():
        total = total + complex(coeff) * (np.linalg.matrix_power(x, a)
                                          @ np.linalg.matrix_power(p, b))
    return total


def random_pseudo_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random non-Hermitian H guaranteed to admit a Hermitian invertible metric.

    H = eta0^{-1} B with eta0 Hermitian, invertible and well-conditioned and
    B Hermitian: then eta0 H = B = (eta0 H)^dag = H^dag eta0.
    """
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(raw)
    signs = np.where(rng.standard_normal(n) < 0, -1.0, 1.0)
    magnitudes = rng.uniform(0.5, 1.5, size=n)
    eta0 = (q * (signs * magnitudes)) @ q.conj().T
    raw_b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (raw_b + raw_b.conj().T) / 2.0
    return np.linalg.solve(eta0, b)


def _cmul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _accumulate(acc, key, z):
    old = acc.get(key, (Fraction(0), Fraction(0)))
    acc[key] = (old[0] + z[0], old[1] + z[1])


def _nonzero(acc):
    return {key: z for key, z in acc.items() if z[0] or z[1]}


def _reorder(b: int, c: int):
    """p^b x^c = sum_k C(b, k) C(c, k) k! (-i)^k x^(c-k) p^(b-k), as (k, coefficient)."""
    for k in range(min(b, c) + 1):
        s = Fraction(comb(b, k) * comb(c, k) * factorial(k))
        re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[k % 4]
        yield k, (re * s, im * s)


def fraction_weyl_mul(A: dict, B: dict) -> dict:
    """Normal-ordered product of two Fraction term maps."""
    acc = {}
    for (a1, b1), c1 in A.items():
        for (a2, b2), c2 in B.items():
            c12 = _cmul(c1, c2)
            for k, w in _reorder(b1, a2):
                _accumulate(acc, (a1 + a2 - k, b1 + b2 - k), _cmul(c12, w))
    return _nonzero(acc)


def fraction_weyl_adjoint(A: dict) -> dict:
    """(c x^a p^b)^dag = conj(c) p^b x^a, normal-ordered."""
    acc = {}
    for (a, b), (re, im) in A.items():
        for k, w in _reorder(b, a):
            _accumulate(acc, (a - k, b - k), _cmul((re, -im), w))
    return _nonzero(acc)


def fraction_weyl_boost(A: dict, theta) -> dict:
    """Substitute x -> x + i theta by the binomial theorem, one power of theta per term."""
    return fraction_weyl_shift(A, (Fraction(0), Fraction(theta)))


def fraction_weyl_shift(A: dict, shift: tuple) -> dict:
    """Substitute x -> x + shift, a (re, im) pair of Fractions, by the binomial
    theorem, one power of the shift per term."""
    acc = {}
    for (a, b), c in A.items():
        power = (Fraction(1), Fraction(0))
        for m in range(a + 1):
            s = comb(a, m)
            _accumulate(acc, (a - m, b), _cmul(c, (s * power[0], s * power[1])))
            power = _cmul(power, shift)
    return _nonzero(acc)


def gcd_canonical(num: dict, den: int) -> tuple[dict, int]:
    """Gaussian-integer numerators over den > 0 with zero numerators dropped and
    the gcd of den and every numerator divided out by long division; the zero
    map comes out over 1."""
    num = {key: c for key, c in num.items() if c[0] or c[1]}
    g = gcd(den, *(part for c in num.values() for part in c))
    return {key: (re // g, im // g) for key, (re, im) in num.items()}, den // g


def _unit_peak(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m / 2^k (exact) for k the exponent of its largest real or imaginary part, and k."""
    peak = max(np.max(np.abs(m.real), initial=0.0), np.max(np.abs(m.imag), initial=0.0))
    k = int(np.frexp(peak)[1])
    if k < -1000:  # 2^-k overflows for a subnormal peak: scale up in two exact steps
        return m * np.ldexp(1.0, 1000) * np.ldexp(1.0, -k - 1000), k
    return m * np.ldexp(1.0, -k), k


def _frobenius(m: np.ndarray) -> float:
    """The root of one dot product over the row-major doubles of m (real and imaginary
    parts interleaved), recomputed on m over the power of two at its peak entry when the
    squares leave the double range."""
    x = np.ascontiguousarray(m).view(float).ravel()
    with np.errstate(over="ignore", under="ignore"):
        norm = sqrt(x.dot(x))
        if (np.isinf(norm) or norm < 1e-150) and x.any():
            scaled, k = _unit_peak(x)
            norm = float(np.ldexp(sqrt(scaled.dot(scaled)), k))
    return norm


def residual_of_one(H: np.ndarray, eta: np.ndarray) -> float:
    """``|eta H - H^dag eta|_F / (|H|_F |eta|_F)`` for one matrix eta, 0 for a zero
    numerator; H is first scaled exactly to a unit peak entry when its norm lies
    outside [1e-290, 1e300], then eta when the product of the two norms does."""
    A, B = np.asarray(H, dtype=complex), np.asarray(eta, dtype=complex)
    if not 1e-290 <= _frobenius(A) <= 1e300:
        A, _ = _unit_peak(A)
    scale = _frobenius(A) * _frobenius(B)
    if not 1e-290 <= scale <= 1e300:
        B, _ = _unit_peak(B)
        scale = _frobenius(A) * _frobenius(B)
    defect = _frobenius(B @ A - A.conj().T @ B)
    return defect / scale if defect else 0.0


def classification_of_one(eta: np.ndarray, tol: float) -> MetricClass:
    """The classification of one matrix: Hermitian when ``|eta - eta^dag|_F <= tol
    |eta|_F``, invertible (positive) when also the smallest |eigenvalue| (the
    smallest eigenvalue) of ``(eta + eta^dag) / 2`` exceeds ``tol |eta|_F``.
    For a norm outside [1e-290, 1e300], eta is scaled exactly to a unit peak entry
    and the two eigenvalues scaled back; InputError when they leave the double range.
    A minimum that rounds to zero is +0.0, as in metric._classify: the sign of that zero can
    differ between a matrix classified alone and in a stack."""
    eta = np.asarray(eta, dtype=complex)
    norm, k = _frobenius(eta), 0
    if not 1e-290 <= norm <= 1e300:
        eta, k = _unit_peak(eta)
        norm = _frobenius(eta)
    scale = tol * norm
    defect = _frobenius(eta - eta.conj().T)  # entries below 1e300: no overflow
    defect = defect / norm if defect else 0.0
    eigs = np.linalg.eigvalsh((eta + eta.conj().T) / 2.0)
    min_abs, min_eig = float(np.min(np.abs(eigs))), float(eigs[0])
    hermitian = defect <= tol
    invertible = hermitian and min_abs > scale
    positive = invertible and min_eig > scale
    with np.errstate(over="ignore"):  # + 0.0: a zero minimum reads 0.0, whatever its rounding
        min_abs, min_eig = (np.ldexp([min_abs, min_eig], k) + 0.0).tolist()
    if np.isinf(min_eig):  # min_abs <= |min_eig|
        raise InputError("eta: an eigenvalue of its Hermitian part is beyond the double range")
    return MetricClass(hermitian=hermitian, invertible=invertible, positive=positive,
                       min_abs_eigenvalue_of_hermitian_part=min_abs,
                       min_eigenvalue_of_hermitian_part=min_eig, hermiticity_defect=defect)
