"""Independent brute-force oracles used to cross-check library results.

These deliberately avoid the library's own machinery: the nullspace oracle
parametrizes a general complex matrix by its 2n^2 real unknowns and imposes
hermiticity as extra linear constraints, the rank oracle realifies every
matrix into those 2n^2 real numbers, and the operator-algebra oracle
represents x and p as matrices on a truncated harmonic-oscillator basis.
The Fraction Weyl reference works term by term on ``{(a, b): (re, im)}``
maps of ``fractions.Fraction`` pairs, one coefficient product at a time, and
the canonical-form reference reduces integer numerators by a plain gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

import numpy as np


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


def weyl_terms_to_matrix(terms: dict[tuple[int, int], complex],
                         x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate a normal-ordered term map {(a, b): coeff} on the truncated basis."""
    total = np.zeros_like(x)
    for (a, b), coeff in terms.items():
        total = total + coeff * (np.linalg.matrix_power(x, a)
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
