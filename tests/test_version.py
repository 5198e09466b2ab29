"""The package version agrees with the project metadata."""

import re
from pathlib import Path

import presdim


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # tomllib only exists from Python 3.11 on
    match = re.search(r'^\[project\][^\[]*?^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert presdim.__version__ == match.group(1)
