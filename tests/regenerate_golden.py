"""Run every golden case and print how its report differs from tests/golden.

    PYTHONPATH=src python tests/regenerate_golden.py          # print the diff only
    PYTHONPATH=src python tests/regenerate_golden.py --write  # also rewrite the files

Exits 1 when a report differs (before --write rewrites it), else 0.
"""

import argparse
import difflib
import json
import sys
import tempfile

from golden_cases import CASE_IDS, GOLDEN, dump, run_case, write_inputs


def _lines(stored: str) -> list[str]:
    """The lines of a stored record to diff; a text report's own lines in place of its string."""
    record = json.loads(stored) if stored else {}
    if isinstance(record.get("report"), str):
        return [f"exit_code: {record['exit_code']}\n"] + record["report"].splitlines(True)
    return stored.splitlines(True)


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
            if args.write:
                GOLDEN.mkdir(exist_ok=True)
                path.write_text(new, encoding="utf-8")
    print(f"{changed} of {len(CASE_IDS)} reports differ" + (", rewritten" if args.write and changed else ""))
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
