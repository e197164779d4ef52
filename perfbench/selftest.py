"""Self-test of the benchmark, on small requests of every workload.

    python3 perfbench/selftest.py

Checks that:
- the untraced and the traced run both gate every request and pass, where
  the references are the untraced outputs, so tracing must leave stdout
  and exit codes byte-identical;
- untraced passes install no wrappers and traced passes do;
- every metric BENCHMARK.json names appears, with its unit, and no other;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys

import run
from workloads import TINY


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload, requests in TINY.items():
        _, plain = run.run_worker(requests)
        reference = {r["id"]: (r["exit"], r["stdout"]) for r in plain["requests"]}
        for trace in (0, 1):
            result = run.measure(requests, reference, 0, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} requests failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(units[trace].items()))}")
        print(f"{workload}: checked")

    bare = run.ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        bench["command"] + ["--workload", "hkr-sweep", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without sources did not fail cleanly")

    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
