"""Run every golden case and print how its report differs from tests/golden.

    PYTHONPATH=src python tests/regenerate_golden.py          # print the diff only
    PYTHONPATH=src python tests/regenerate_golden.py --write  # also rewrite the files

After the line diff of a case comes one summary line: how many floats moved, the largest
distance in units in the last place (test_golden's ordinals) and where, then every
difference that is not a float's value (a type, key, length, integer, string or flag).
Exits 1 when a report differs (before --write rewrites it), else 0.
"""

import argparse
import difflib
import json
import sys
import tempfile

from golden_cases import CASE_IDS, GOLDEN, dump, run_case, write_inputs
from test_golden import _ordinal


def _lines(stored: str) -> list[str]:
    """The lines of a stored record to diff; a text report's own lines in place of its string."""
    record = json.loads(stored) if stored else {}
    if isinstance(record.get("report"), str):
        return [f"exit_code: {record['exit_code']}\n"] + record["report"].splitlines(True)
    return stored.splitlines(True)


def _differences(old, new, where=""):
    """(description, ulps) for each float of old that moved in new, (description, None) for
    every other difference; a record stored as JSON and its new form compared field by field."""
    if type(old) is float and type(new) is float:
        if repr(old) != repr(new):
            yield f"{where}: {old!r} -> {new!r}", abs(_ordinal(old) - _ordinal(new))
    elif type(old) is dict and type(new) is dict and list(old) == list(new):
        for key in old:
            yield from _differences(old[key], new[key], f"{where}.{key}")
    elif type(old) is list and type(new) is list and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield f"{where}: {old!r} != {new!r}", None


def _summary(case: str, old: str, new: str) -> str:
    """One line: the floats of a case that moved, the largest ulp distance, and every other
    difference."""
    if not old:
        return f"{case}: new case"
    found = list(_differences(json.loads(old), json.loads(new)))
    moved = [(u, where) for where, u in found if u is not None]
    other = [where for where, u in found if u is None]
    floats = "no float moved"
    if moved:
        ulps, where = max(moved)
        floats = f"{len(moved)} floats moved, largest {ulps} ulps ({where})"
    return f"{case}: {floats}; " + ("; ".join(other) if other else "no other difference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    args = parser.parse_args(argv)
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(tmp)
        for case in CASE_IDS:
            path = GOLDEN / f"{case}.json"
            old = path.read_text(encoding="utf-8") if path.exists() else ""
            new = dump(run_case(case, files))
            if new == old:
                continue
            changed += 1
            sys.stdout.writelines(difflib.unified_diff(
                _lines(old), _lines(new), f"a/{path.name}", f"b/{path.name}"))
            print(_summary(case, old, new))
            if args.write:
                GOLDEN.mkdir(exist_ok=True)
                path.write_text(new, encoding="utf-8")
    print(f"{changed} of {len(CASE_IDS)} reports differ" + (", rewritten" if args.write and changed else ""))
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
