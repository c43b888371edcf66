"""Every golden case's report against the one stored in tests/golden.

Exit code, status, check names, verdicts, keys, strings, integers and list
lengths must be equal; a float may differ by at most the units in the last
place that ULPS gives for the field it sits in.  A ``--format text`` report is
a string, so it must be equal character for character.  tests/golden_cases.py names
the cases and tests/regenerate_golden.py rewrites the files.
"""

import copy
import json
import re
import struct

import numpy as np
import pytest

from golden_cases import CASE_IDS, GOLDEN, _cases, run_case, write_inputs
from pseudoherm import cli

# Units in the last place a float may move, by the name of the innermost field
# holding it.  Values copied from the command line stay exact; anything computed
# may move by a few ulps of rounding.
ULPS = {"tol": 0, "omega": 0, "x": 0, "y": 0, "alpha": 0, "beta": 0, "gamma": 0}
DEFAULT_ULPS = 4


def _ordinal(x: float) -> int:
    """The position of x among the doubles, so that adjacent doubles differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def mismatches(expected, actual, field="", where="") -> list[str]:
    """Where actual differs from expected beyond the rules above; [] when it does not."""
    if type(expected) is not type(actual):
        return [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return [f"{where}: keys {list(expected)} != {list(actual)}"]
        return [m for key in expected
                for m in mismatches(expected[key], actual[key], key, f"{where}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, field, f"{where}[{i}]")]
    if isinstance(expected, float):
        bound = ULPS.get(field, DEFAULT_ULPS)
        if abs(_ordinal(expected) - _ordinal(actual)) > bound:
            return [f"{where}: {expected!r} != {actual!r} (more than {bound} ulps)"]
        return []
    return [] if expected == actual else [f"{where}: {expected!r} != {actual!r}"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def _stored(case):
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASE_IDS)


@pytest.mark.parametrize("case", CASE_IDS)
def test_report_matches_golden(case, files):
    assert mismatches(_stored(case), run_case(case, files)) == []


def test_every_check_is_reported_as_built(files):
    # a report's check entries are the library's Check records as dicts: each verdict a
    # bool, each value and threshold a float or None
    parse = cli.build_parser().parse_args
    entries = [entry for case in CASE_IDS
               for entry in cli.run(parse(_cases(files)[case]))[0]["checks"]]
    assert len(entries) > 50
    assert [entry for entry in entries if type(entry["passed"]) is not bool
            or not all(type(entry[key]) in (float, type(None)) for key in ("value", "threshold"))
            ] == []


def _checks(report) -> list[tuple]:
    """(name, passed, value, threshold) of each check of a report, JSON or ``--format text``."""
    if isinstance(report, str):
        lines = re.findall(r"^check (\w+): (PASS|FAIL) \(value=(\S+), threshold=(\S+)\)$",
                           report, re.MULTILINE)
        return [(name, verdict == "PASS", float(value), float(threshold))
                for name, verdict, value, threshold in lines]
    return [(c["name"], c["passed"], c["value"], c["threshold"])
            for c in report.get("checks", [])]


def _follows_its_rule(name, passed, value, threshold) -> bool:
    if name == "hamiltonian_non_hermitian":  # H is non-Hermitian beyond the threshold
        return passed == (value > threshold)
    if name == "eta_positive":  # a positive eta's least eigenvalue exceeds the threshold
        return not passed or value > threshold
    return passed == (value <= threshold)  # every other check: value at most threshold


def test_every_stored_verdict_follows_its_rule():
    checks = [(path.stem, *check) for path in sorted(GOLDEN.glob("*.json"))
              for check in _checks(json.loads(path.read_text(encoding="utf-8"))["report"])
              if None not in check[2:]]
    assert len(checks) > 50
    assert [(case, name) for case, name, *verdict in checks
            if not _follows_its_rule(name, *verdict)] == []


def test_one_ulp_in_a_solve_entry_passes_and_a_flipped_verdict_fails():
    golden = _stored("solve-0-positive")
    moved = copy.deepcopy(golden)
    entry = moved["report"]["results"]["basis"][0]["entries"][0][0]  # [re, im]
    value = entry[0]
    entry[0] = float(np.nextafter(value, np.inf))
    assert mismatches(golden, moved) == []
    entry[0] = value + 10 * float(np.spacing(value))  # at least 5 ulps
    assert len(mismatches(golden, moved)) == 1
    flipped = copy.deepcopy(golden)
    flipped["report"]["checks"][0]["passed"] = False
    assert mismatches(golden, flipped) == [
        ".report.checks[0].passed: True != False"]
    renamed = copy.deepcopy(golden)
    renamed["report"]["results"]["metric_found"] = renamed["report"]["results"].pop("metric")
    assert len(mismatches(golden, renamed)) == 1
