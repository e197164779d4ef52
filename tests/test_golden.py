"""The README command-line examples, replayed byte for byte.

tests/golden/commands.json lists each example's argv and exit code; the
matching <name>.out file holds its exact stdout.
"""

import json
from pathlib import Path

import pytest

from gradedhh.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("case", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_readme_command_output_is_unchanged(case, capsys):
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()
