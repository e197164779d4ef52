"""Record every workload request's stdout and exit code as its reference.

    python3 perfbench/make_reference.py

The references pin today's output byte for byte; run.py fails any request
whose output differs.  Re-record them only for a change that is meant to
alter the CLI output, and say so in that change.
"""

import json
import sys

from run import REFERENCE, request_problems, run_worker
from workloads import WORKLOADS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    codes = {}
    for workload, requests in WORKLOADS.items():
        _, doc = run_worker(requests)
        codes[workload] = {}
        for result in doc["requests"]:
            problems = request_problems(result, None)
            if problems:
                sys.stderr.write(f"{workload} {result['id']}: {'; '.join(problems)}\n")
                return 1
            (REFERENCE / f"{workload}.{result['id']}.out").write_text(result["stdout"])
            codes[workload][result["id"]] = result["exit"]
        print(f"{workload}: pass of {doc['wall_s']:.2f} s recorded")
    (REFERENCE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
