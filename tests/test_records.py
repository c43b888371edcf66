"""The contract of the package's records: the fields, in order, of positional and keyword
construction, value equality, immutability and the ``Name(field=value, ...)`` repr.

Plain data are NamedTuples, the records with behaviour (RealPolynomial,
ShiftedPotentialSpec, EtaChain) immutable classes; both list their fields in ``_fields``.
"""

import math

import numpy as np
import pytest

import pseudoherm as ph
from pseudoherm import InputError

H, ETA = ph.catalog_oscillator(2.0)
CLASS = ph.MetricClass(True, True, False, 0.5, -0.5, 0.0)
CHECK = ph.Check("eta_positive", True, 0.25, 1e-10)
FORM = ph.InducedForm(ETA, 2 * ETA, 3 * ETA)
POLY = ph.RealPolynomial((0.0, 3.0))

# name: (fields in order, values, a changed field for an unequal record or None where every
# field is an array, which == cannot compare); the values are normalized, so the
# constructors keep them
RECORDS = {
    "Check": (("name", "passed", "value", "threshold"), CHECK, {"passed": False}),
    "MetricClass": (("hermitian", "invertible", "positive",
                     "min_abs_eigenvalue_of_hermitian_part",
                     "min_eigenvalue_of_hermitian_part", "hermiticity_defect"), CLASS,
                    {"hermiticity_defect": 1e-3}),
    "MetricBasis": (("H", "dimension", "basis", "residuals", "classifications", "solver",
                     "spectral_metric", "spectral_residual", "spectral_classification", "tol"),
                    (H, 1, [ETA], [0.0], [CLASS], "spectral", ETA, 0.0, CLASS, 1e-10),
                    {"dimension": 2}),
    "InducedForm": (("eta", "sqrt_eta", "inv_sqrt_eta"), FORM, None),
    "QuasiHermitian": (("eta_classification", "residual", "checks", "form", "hamiltonian",
                        "eigenvalues"), (CLASS, 0.0, (CHECK,), FORM, H, np.ones(2)),
                       {"residual": 1.0}),
    "PerturbedHamiltonian": (("H", "K", "f", "H_tilde", "eta", "residual",
                              "commutator_defect", "checks"),
                             (H, ETA, POLY, H + 3 * ETA, ETA, 0.0, 0.0, (CHECK,)),
                             {"residual": 1.0}),
    "RealPolynomial": (("coeffs",), ((0.0, 3.0),), {"coeffs": (1.0,)}),
    "ShiftedPotentialSpec": (("V", "alpha", "beta", "gamma", "f"),
                             (ph.RealPolynomial((0.0, 0.0, 1.0)), 1.0, 0.0, 0.5, POLY),
                             {"gamma": 1.0}),
    "EtaChain": (("H", "etas", "residuals", "classes", "normalized", "shift_alpha", "tol"),
                 (H, [ETA, H.conj().T @ ETA], [0.0, 0.0], [CLASS, CLASS], False, 0.0, 1e-10),
                 {"normalized": True}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls = getattr(ph, name)
    fields, values, changed = RECORDS[name]
    values = tuple(values)
    assert cls._fields == fields
    record = cls(*values)
    # tuple == compares identical objects (the arrays here) as equal without calling ==
    assert tuple(getattr(record, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == record and not cls(*values) != record
    if changed is not None:
        other = cls(**dict(zip(fields, values), **changed))
        assert other != record and not other == record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"


def test_defaults():
    assert ph.Check("x", True) == ph.Check("x", True, None, None)
    quasi = ph.QuasiHermitian(CLASS, 0.0, ())
    assert (quasi.form, quasi.hamiltonian, quasi.eigenvalues) == (None, None, None)
    assert ph.RealPolynomial().coeffs == ()


def test_hashable_records_hash_by_value():
    for make in (lambda: ph.Check("x", True, 1.0),
                 lambda: ph.RealPolynomial([1, 2]),
                 lambda: ph.ShiftedPotentialSpec(ph.RealPolynomial([1]), 1, 0, 0.5,
                                                 ph.RealPolynomial())):
        assert len({make(), make()}) == 1


def test_real_polynomial_strips_trailing_zeros():
    poly = ph.RealPolynomial([1, 0, 2, 0.0, 0])
    assert poly.coeffs == (1.0, 0.0, 2.0) and poly.degree == 2
    assert poly == ph.RealPolynomial((1.0, 0.0, 2.0))
    assert ph.RealPolynomial([0, 0]).coeffs == () and ph.RealPolynomial([0]).is_zero


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 10 ** 400])
def test_shifted_potential_spec_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(InputError, match="alpha must be finite"):
        ph.ShiftedPotentialSpec(POLY, alpha, 0.0, 1.0, POLY)


@pytest.mark.parametrize("V", [[0.0, 1.0], (0.0, 1.0), None])
def test_shifted_potential_spec_rejects_a_non_polynomial(V):
    with pytest.raises(InputError, match="V and f must be RealPolynomial instances"):
        ph.ShiftedPotentialSpec(V, 1.0, 0.0, 1.0, POLY)
    with pytest.raises(InputError, match="V and f must be RealPolynomial instances"):
        ph.ShiftedPotentialSpec(POLY, 1.0, 0.0, 1.0, V)


def test_shifted_potential_spec_stores_floats():
    spec = ph.ShiftedPotentialSpec(POLY, 2, 0, 1, POLY)
    assert [type(getattr(spec, f)) for f in ("alpha", "beta", "gamma")] == [float] * 3
    assert spec == ph.ShiftedPotentialSpec(POLY, 2.0, 0.0, 1.0, POLY) and spec.theta == 2


def test_eta_chain_rank_is_one_svd_for_two_reads(svd_calls):
    chain = ph.build_chain(H, ETA, k_max=4)
    assert svd_calls == []
    assert chain.rank == chain.rank == 2
    assert len(svd_calls) == 1
    assert len(chain) == 5


def test_every_check_holds_a_bool_and_floats():
    # what a report writes of a check is its _asdict(): no numpy scalar may reach it
    positive = np.diag([4.0, 1.0])  # a positive metric of H
    with pytest.raises(ph.CheckError) as failed:  # I is no metric of H
        ph.perturb(H, np.eye(2), np.eye(2), POLY)
    checks = [*ph.build_chain(H, ETA, 3).checks, *ph.chain_via_shift(H, ETA, 3).checks,
              *ph.solve_metric_space(H).checks, *ph.perturb(H, ETA, ETA, POLY).checks,
              *failed.value.checks,
              *ph.quasi_hermitian(H, positive).checks, *ph.quasi_hermitian(H, ETA).checks]
    assert len(checks) == 3 + 3 + 1 + 7 + 5 + 4 + 2
    for check in checks:
        assert type(check.passed) is bool
        assert {type(check.value), type(check.threshold)} <= {float, type(None)}
