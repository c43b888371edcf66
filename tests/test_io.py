import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pseudoherm import InputError, RationalComplex, WeylPolynomial, catalog_oscillator
from pseudoherm.io import (
    matrix_to_dict,
    parse_complex_scalar,
    parse_matrix,
    parse_weyl_spec,
    weyl_spec_from_dict,
    weyl_terms_to_list,
    write_matrix,
)


def dump(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestMatrixFiles:
    def test_parse_oscillator_serialization(self, tmp_path):
        path = dump(tmp_path, "h.json",
                    {"n": 2, "entries": [[[0, 0], [0, 1]], [[0, -4], [0, 0]]]})
        m = parse_matrix(path)
        assert np.array_equal(m, np.array([[0.0, 1j], [-4j, 0.0]]))

    def test_one_by_one(self, tmp_path):
        path = dump(tmp_path, "h.json", {"n": 1, "entries": [[[1, 0]]]})
        assert np.array_equal(parse_matrix(path), np.array([[1.0]]))

    def test_round_trip_preserves_doubles(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        again = parse_matrix(path)
        assert np.array_equal(m, again)

    def test_ragged_rejected(self, tmp_path):
        for entries, message in (([[[1, 0]]], "expected 2 rows, got 1"),
                                 ([[[1, 0]], [[1, 0], [0, 0]]], "row 0 must have 2 entries")):
            path = dump(tmp_path, "h.json", {"n": 2, "entries": entries})
            with pytest.raises(InputError, match=message):
                parse_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            parse_matrix(tmp_path / "nope.json")
        with pytest.raises(InputError, match="cannot read"):  # a directory: open fails
            parse_matrix(tmp_path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="malformed"):
            parse_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = dump(tmp_path, "h.json", {"n": 1, "entries": [[[1e999, 0]]]})
        with pytest.raises(InputError):
            parse_matrix(path)

    def test_bad_pair_rejected(self, tmp_path):
        path = dump(tmp_path, "h.json", {"n": 1, "entries": [[[1, 0, 0]]]})
        with pytest.raises(InputError, match=r"\[re, im\]"):
            parse_matrix(path)

    def test_wrong_n_rejected(self, tmp_path):
        bad_n, no_keys = '"n" must be a positive integer', 'expected an object with "n" and "entries"'
        for obj, message in (
                ({"n": 3, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "expected 3 rows"),
                ({"n": 0, "entries": []}, bad_n), ({"n": True, "entries": [[[1, 0]]]}, bad_n),
                ({"n": "1", "entries": [[[1, 0]]]}, bad_n),
                ({"entries": [[[1, 0]]]}, no_keys), ([[[1, 0]]], no_keys)):
            path = dump(tmp_path, "h.json", obj)
            with pytest.raises(InputError, match=message):
                parse_matrix(path)

    def test_negative_zero_normalized_on_write(self, tmp_path):
        _, eta = catalog_oscillator(2.0)
        path = tmp_path / "eta.json"
        write_matrix(path, eta)
        assert "-0.0" not in path.read_text()


class TestComplexScalars:
    @pytest.mark.parametrize("text,expected", [
        ("2", 2 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("1+1i", 1 + 1j),
        ("2-3i", 2 - 3j),
        ("1.5e-2+0.3i", 0.015 + 0.3j),
        ("1+2j", 1 + 2j),
        (" 1 + 1i ", 1 + 1j),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_complex_scalar(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1+", "inf", "nan+1i", "1+1k",
                                      "1e400", "1e400i", "-1e400+1i"])
    def test_rejected_forms(self, text):
        with pytest.raises(InputError):
            parse_complex_scalar(text)


class TestWeylSpecFiles:
    def test_parse_and_round_trip(self, tmp_path):
        obj = {"V": [0, 0, 1], "alpha": 1.5, "beta": 0.25, "gamma": -0.5, "f": [0, 2]}
        spec = parse_weyl_spec(dump(tmp_path, "w.json", obj))
        assert spec.V.coeffs == (0.0, 0.0, 1.0)
        assert spec.theta == -1.0
        fields = {"V": list(spec.V.coeffs), "alpha": spec.alpha, "beta": spec.beta,
                  "gamma": spec.gamma, "f": list(spec.f.coeffs)}
        assert fields == {"V": [0.0, 0.0, 1.0], "alpha": 1.5, "beta": 0.25,
                          "gamma": -0.5, "f": [0.0, 2.0]}
        assert weyl_spec_from_dict(fields) == spec

    def test_missing_key(self, tmp_path):
        path = dump(tmp_path, "w.json", {"V": [1], "alpha": 1, "beta": 0, "gamma": 0})
        with pytest.raises(InputError, match="missing"):
            parse_weyl_spec(path)
        with pytest.raises(InputError, match="expected a JSON object"):
            parse_weyl_spec(dump(tmp_path, "list.json", [[1], 1, 0, 0, []]))

    def test_non_real_coefficient_rejected(self, tmp_path):
        path = dump(tmp_path, "w.json",
                    {"V": ["1"], "alpha": 1, "beta": 0, "gamma": 0, "f": []})
        with pytest.raises(InputError, match="real"):
            parse_weyl_spec(path)

    def test_complex_alpha_rejected(self, tmp_path):
        path = dump(tmp_path, "w.json",
                    {"V": [1], "alpha": "1+1i", "beta": 0, "gamma": 0, "f": []})
        with pytest.raises(InputError):
            parse_weyl_spec(path)

    @pytest.mark.parametrize("field, value", [("alpha", True), ("gamma", 1e999), ("V", [True]),
                                              ("f", [10**400]), ("V", 1)],
                             ids=["bool", "inf", "bool-coefficient", "huge-integer", "not-a-list"])
    def test_rejection_names_the_file(self, tmp_path, field, value):
        obj = {"V": [1], "alpha": 1, "beta": 0, "gamma": 0, "f": []}
        obj[field] = value
        path = dump(tmp_path, "w.json", obj)
        with pytest.raises(InputError, match="^" + re.escape(str(path))):
            parse_weyl_spec(path)

    def test_bool_matrix_entry_rejected(self, tmp_path):
        path = dump(tmp_path, "h.json", {"n": 1, "entries": [[[True, 0]]]})
        with pytest.raises(InputError, match=r"entry \(0,0\): re must be a real number"):
            parse_matrix(path)


class TestWeylTerms:
    def test_exact_strings_are_str_of_the_fractions(self):
        poly = WeylPolynomial({(0, 0): RationalComplex(Fraction(-7, 48), 0),
                               (1, 2): RationalComplex(3, Fraction(5, 3 * 2 ** 60)),
                               (2, 0): RationalComplex(-(10 ** 40), Fraction(1e-300))})
        assert weyl_terms_to_list(poly) == [
            {"a": a, "b": b, "re": str(c.re), "im": str(c.im)} for (a, b), c in poly.sorted_terms()]

    def test_exact_strings_beyond_the_int_string_limit(self):
        big = Fraction(-(3 ** 20000), 2 ** 20000)
        [term] = weyl_terms_to_list(WeylPolynomial.monomial(0, 0, big))
        numerator, denominator = term["re"].split("/")
        assert len(numerator) > sys.get_int_max_str_digits()
        assert (Decimal(numerator), Decimal(denominator)) == (Decimal(big.numerator),
                                                              Decimal(big.denominator))
        assert term["im"] == "0"


class TestMatrixToDict:
    def test_schema(self):
        d = matrix_to_dict(np.array([[1j]]))
        assert d == {"n": 1, "entries": [[[0.0, 1.0]]]}
