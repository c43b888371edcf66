"""JSON file formats and scalar parsing.

Matrices: ``{"n": int, "entries": [[[re, im], ...], ...]}`` row-major.
Shifted-potential specs: ``{"V": [c0, ...], "alpha": r, "beta": r,
"gamma": r, "f": [c0, ...]}``.

Complex scalars on command-line flags use the human form ``a+bi``; files use
``[re, im]`` pairs.  Serialization relies on Python's shortest round-trip
float formatting, so emit-then-parse is lossless at full double precision.

numpy and the other library modules are imported by the functions that use
them, so reading a spec loads no numpy and reading a matrix no Weyl algebra.
"""

from __future__ import annotations

import cmath
import json
import os
import re
from typing import TYPE_CHECKING, Any

from .errors import InputError, _finite_real

if TYPE_CHECKING:
    import numpy as np

    from .chain import EtaChain
    from .metric import MetricBasis, MetricClass
    from .weyl import ShiftedPotentialSpec, WeylPolynomial


def load_json(path) -> Any:
    if not os.path.exists(path):
        raise InputError(f"{path}: file not found")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # bad JSON, not UTF-8, an integer beyond int's digit limit, or nested beyond the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None


def _complex_from_pair(pair, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(_finite_real(pair[0], f"{where}: re"), _finite_real(pair[1], f"{where}: im"))


def matrix_from_dict(obj, where: str = "matrix") -> np.ndarray:
    from .metric import as_matrix

    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise InputError(f'{where}: expected an object with "n" and "entries"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise InputError(f'{where}: "n" must be a positive integer, got {n!r}')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise InputError(f"{where}: expected {n} rows, got "
                         f"{len(entries) if isinstance(entries, list) else type(entries).__name__}")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}: row {i} must have {n} entries")
        rows.append([_complex_from_pair(z, f"{where}: entry ({i},{j})")
                     for j, z in enumerate(row)])
    return as_matrix(rows, where)


def parse_matrix(path) -> np.ndarray:
    """Read one matrix file, validating squareness and finiteness strictly."""
    return matrix_from_dict(load_json(path), where=str(path))


def matrix_to_dict(m: np.ndarray) -> dict:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return {
        "n": int(m.shape[0]),
        # + 0.0 normalizes negative zeros away
        "entries": [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row] for row in m],
    }


def write_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix_to_dict(m), handle, indent=2)
        handle.write("\n")


def parse_complex_scalar(text: str) -> complex:
    """Parse the flag syntax ``a+bi`` (also accepts j as the imaginary unit)."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise InputError("empty complex scalar")
    try:  # the imaginary unit i ends the number; the i of inf is no unit
        value = complex(re.sub(r"i(?=\)?$)", "j", s.lower()))
    except ValueError:
        raise InputError(f"cannot parse complex scalar {text!r}; "
                         'use forms like "2", "i", "1+2i", "1.5e-2-0.3i"') from None
    if not cmath.isfinite(value):  # nan, inf, or a decimal beyond the double range
        raise InputError(f"complex scalar {text!r} must be finite")
    return value


def weyl_spec_from_dict(obj, where: str = "spec") -> ShiftedPotentialSpec:
    from .weyl import RealPolynomial, ShiftedPotentialSpec

    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    missing = [k for k in ("V", "alpha", "beta", "gamma", "f") if k not in obj]
    if missing:
        raise InputError(f"{where}: missing keys {missing}")
    for name in ("V", "f"):
        if not isinstance(obj[name], list):
            raise InputError(f"{where}: {name}: expected a list of real coefficients")
    try:
        return ShiftedPotentialSpec(V=RealPolynomial(obj["V"]), alpha=obj["alpha"],
                                    beta=obj["beta"], gamma=obj["gamma"],
                                    f=RealPolynomial(obj["f"]))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def parse_weyl_spec(path) -> ShiftedPotentialSpec:
    return weyl_spec_from_dict(load_json(path), where=str(path))


def weyl_terms_to_list(poly: WeylPolynomial) -> list[dict]:
    """Serialize the term map, each coefficient part as an exact rational string."""
    from .weyl import _rational_text

    return [{"a": a, "b": b, "re": _rational_text(c.re), "im": _rational_text(c.im)}
            for (a, b), c in poly.sorted_terms()]


def classification_to_dict(cls: MetricClass) -> dict:
    return cls._asdict()


def basis_to_dict(basis: MetricBasis) -> dict:
    return {
        "dimension": basis.dimension,
        "solver": basis.solver,
        "basis": [matrix_to_dict(b) for b in basis.basis],
        "residuals": list(basis.residuals),
        "classifications": [classification_to_dict(c) for c in basis.classifications],
    }


def chain_to_dict(chain: EtaChain) -> dict:
    return {
        "shift_alpha": chain.shift_alpha,
        "normalized": chain.normalized,
        "etas": [matrix_to_dict(e) for e in chain.etas],
        "residuals": list(chain.residuals),
        "classes": [classification_to_dict(c) for c in chain.classes],
        "rank": chain.rank,
        "degenerate_indices": chain.degenerate_indices,
    }
