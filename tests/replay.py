"""Replay the golden CLI requests through cli.main, with the standard library only.

    python tests/replay.py

Runs each request of tests/golden/commands.json in process and compares its
stdout with tests/golden/<name>.out, byte for byte, and its exit code with the
recorded one.  It imports the package from this checkout's src/, needs no
pytest, and so runs on any supported interpreter.  Prints one line per
request and exits 1 if any differs.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from gradedhh.cli import main  # noqa: E402  (after the path insert)

CASES = json.loads((GOLDEN / "commands.json").read_text())


def replay(case) -> str:
    """'' when the request reproduces its golden stdout and exit code, else why not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
    if code != case["exit"]:
        return f"exit {code}, want {case['exit']}: {err.getvalue().strip()}"
    want = (GOLDEN / f"{case['name']}.out").read_bytes()
    if out.getvalue().encode() != want:
        return "stdout differs from the golden file"
    return ""


def run() -> int:
    failed = 0
    for case in CASES:
        problem = replay(case)
        failed += bool(problem)
        print(f"{'FAIL' if problem else 'ok':4} {case['name']}{': ' + problem if problem else ''}")
    print(f"{len(CASES) - failed} of {len(CASES)} golden requests reproduced "
          f"under Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
