"""Golden outputs: every file the CLI writes for the shipped configs is fixed.

``simulate`` and ``analyze`` run on each ``configs/*.cfg`` and the
SHA-256 of every file they write must equal the digest recorded in
``golden_outputs.json``.  A refactor that changes any output byte fails here,
naming the config and the file.  After a deliberate output change, re-record
the digests with ``PYTHONPATH=src python tests/test_golden.py``, which prints
one line per digest it changes (config, command, file: old -> new) and
nothing else.
"""

import hashlib
import json
from pathlib import Path

import pytest

from takerate import simulation
from takerate.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
GOLDEN = Path(__file__).with_name("golden_outputs.json")
COMMANDS = ("analyze", "simulate")
# The replays each config's simulate sweep runs, forked or not.  A bracket
# reads an edge cell only once it reaches it; when every search also read
# cells 1 and m-1 first, the sweeps ran 108, 158, 118, 111 and 4, and no
# count here may exceed those.
SWEEP_REPLAYS = {
    "established_competitor": 108,
    "established_competitor_sticky": 157,
    "fork": 118,
    "fork_sticky_liquidity": 111,
    "no_stickiness": 4,
}


def digests(config: Path, command: str, out_dir: Path) -> dict[str, str]:
    """Run one CLI command on one config; SHA-256 of each file it wrote."""
    assert main([command, str(config), "--out-dir", str(out_dir)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_every_config_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == [c.name for c in CONFIGS]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_golden_digests(config, command, tmp_path, monkeypatch):
    tables = []

    class Recording(simulation._CellTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(simulation, "_CellTable", Recording)
    expected = json.loads(GOLDEN.read_text())[config.name][command]
    got = digests(config, command, tmp_path)
    replays = [SWEEP_REPLAYS[config.stem]] if command == "simulate" else []
    assert [table.replays for table in tables] == replays, f"{config.name} {command}: replays"
    assert sorted(got) == sorted(expected), f"{config.name} {command}: files written"
    for name, digest in expected.items():
        assert got[name] == digest, f"{config.name} {command}: {name} differs"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record = {}
    for config in CONFIGS:
        record[config.name] = {}
        for command in COMMANDS:
            # the CLI's own summary lines would bury the changes
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                record[config.name][command] = digests(config, command, Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name in sorted(old.keys() | record.keys()):
        for command in COMMANDS:
            before = old.get(name, {}).get(command, {})
            after = record.get(name, {}).get(command, {})
            for file in sorted(before.keys() | after.keys()):
                if before.get(file) != after.get(file):
                    print(f"{name} {command} {file}: {before.get(file)} -> {after.get(file)}")
