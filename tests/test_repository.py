import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    try:
        inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout")
    listed = subprocess.run(["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    assert listed.stdout == ""
