"""The package's metadata agrees with itself."""

import re
from pathlib import Path

import takerate

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex rather than tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M)
    assert match is not None
    assert match.group(1) == takerate.__version__
