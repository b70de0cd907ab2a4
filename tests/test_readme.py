"""README's "Library use" example runs and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_its_comments(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    share, optimum, best = capsys.readouterr().out.splitlines()
    assert float(share) == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert optimum.startswith("(0.0999")
    assert best.startswith("EquilibriumResult(t1=0.97, l1=0.005, ")
    assert "rev1=0.1669" in best
