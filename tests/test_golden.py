"""Golden outputs: every file the CLI writes for the shipped configs is fixed.

``simulate --compare`` and ``analyze`` run on each ``configs/*.cfg`` and the
SHA-256 of every file they write must equal the digest recorded in
``golden_outputs.json``.  A refactor that changes any output byte fails here,
naming the config and the file.  After a deliberate output change, re-record
the digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from takerate.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
GOLDEN = Path(__file__).with_name("golden_outputs.json")
COMMANDS = {
    "simulate": ["simulate", "--compare"],
    "analyze": ["analyze"],
}


def digests(config: Path, command: str, out_dir: Path) -> dict[str, str]:
    """Run one CLI command on one config; SHA-256 of each file it wrote."""
    args = COMMANDS[command]
    assert main([args[0], str(config), *args[1:], "--out-dir", str(out_dir)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_every_config_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == [c.name for c in CONFIGS]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_golden_digests(config, command, tmp_path):
    expected = json.loads(GOLDEN.read_text())[config.name][command]
    got = digests(config, command, tmp_path)
    assert sorted(got) == sorted(expected), f"{config.name} {command}: files written"
    for name, digest in expected.items():
        assert got[name] == digest, f"{config.name} {command}: {name} differs"


if __name__ == "__main__":
    import tempfile

    record = {}
    for config in CONFIGS:
        record[config.name] = {}
        for command in sorted(COMMANDS):
            with tempfile.TemporaryDirectory() as tmp:
                record[config.name][command] = digests(config, command, Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
