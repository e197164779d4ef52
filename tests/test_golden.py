"""The README command-line examples, replayed byte for byte.

tests/golden/commands.json lists each example's argv and exit code; the
matching <name>.out file holds its exact stdout.  tests/replay.py does the
replay, so the same check also runs without pytest.
"""

import pytest

from replay import CASES, replay


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_readme_command_output_is_unchanged(case):
    assert replay(case) == ""
