"""README's "Library use" example runs and prints what its comments say, its
config example sets every key the config parser accepts, and it names every
public name of the package."""

import re
from pathlib import Path

import pytest

import takerate
from takerate.data_io import KEY_TYPES, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading, language):
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def library_use_block():
    return block("## Library use", "python")


def test_library_use_example_prints_its_comments(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    share, optimum, best = capsys.readouterr().out.splitlines()
    assert float(share) == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert optimum.startswith("(0.0999")
    assert best.startswith("EquilibriumResult(t1=0.97, l1=0.005, ")
    assert "rev1=0.1669" in best


def test_config_example_sets_every_key_the_parser_accepts(tmp_path):
    text = block("## Scenario config format", "ini")
    path = tmp_path / "example.cfg"
    path.write_text(text)
    load_config(path)  # raises on any key or value the parser refuses
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    keys = [line.partition("=")[0].strip() for line in lines if line.strip()]
    assert sorted(keys) == sorted(KEY_TYPES)


def test_every_public_name_is_named():
    text = README.read_text()
    missing = [
        name for name in takerate.__all__
        if not name.startswith("__") and not re.search(rf"`{name}\b", text)
    ]
    assert missing == []
