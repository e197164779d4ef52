"""gradedhh benchmark: time CLI workloads end to end, or split them by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package measured is the
checkout's ``src/gradedhh``.  Every pass runs in a fresh interpreter (see
worker.py), one at a time, and calls ``gradedhh.cli.main`` in process with
the workload's fixed argv lists, in the order the seed picks.

--trace 0 prints the end-to-end metrics: median pass wall time, median
set-up time and median peak RSS.  --trace 1 prints the per-layer metrics of
tracer.py, from one untraced pass and as many traced passes as fit.

Every request of every pass is checked: its exit code and stdout must equal
the stored reference byte for byte, it must print no traceback, and the
report's own checks must hold.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  Details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import WORKLOADS, ordered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
TRACE_DIR = ROOT / ".perfbench-out"

SETUP_STARTS = 8        # set-up starts per untraced run, each after a baseline start
# Set-up is timed against a baseline start made just before it: a fresh
# interpreter that imports only the standard-library modules gradedhh.cli
# imports.  The ratio holds steady where the probe does not fit (process
# start-up slows less than the probe in a slow vCPU phase); it is scaled to
# seconds by the baseline's time on an uncontended vCPU of the reference
# machine.
BASELINE_START_S = 0.05
MIN_PASSES = 2          # untraced passes per run, however long they take
WORKER_TIMEOUT = 150.0  # seconds; one hh-large pass takes 13-25 s
TRACEBACK = "Traceback (most recent call last)"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed request)."""


def run_worker(requests, trace=False, mode="pass", trace_out=None):
    """Start one worker; return (raw seconds to "ready", pass document).

    The pass document is None in the "setup" and "baseline" modes.
    """
    spec = {"mode": mode, "src": str(SRC), "requests": [list(r) for r in requests],
            "trace": trace, "trace_out": str(trace_out) if trace_out else None}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup, json.loads(out) if mode == "pass" else None


def load_reference(workload):
    codes = json.loads((REFERENCE / "exit_codes.json").read_text())[workload]
    return {rid: (code, (REFERENCE / f"{workload}.{rid}.out").read_text())
            for rid, code in codes.items()}


def request_problems(result, reference):
    """Why one request failed the gate; empty when it passed."""
    problems = list(result["problems"])
    if TRACEBACK in result["stderr"]:
        problems.append("traceback on stderr")
    if reference is not None:
        code, stdout = reference[result["id"]]
        if result["exit"] != code:
            problems.append(f"exit {result['exit']}, reference {code}")
        if result["stdout"] != stdout:
            problems.append("stdout differs from the reference")
    return problems


class Tally:
    """Gate every request of every pass; count attempts and failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, doc, traced):
        if doc["wrappers"] != traced:
            raise BenchError(f"wrappers installed: {doc['wrappers']}, traced: {traced}")
        for result in doc["requests"]:
            self.attempted += 1
            problems = request_problems(result, self.reference)
            if problems:
                self.failed += 1
                sys.stderr.write(f"FAILED {result['id']}: {'; '.join(problems)}\n")


def pass_seconds(doc):
    """A pass's wall time at reference speed, request by request."""
    return sum(r["seconds"] for r in doc["requests"])


def spread(values):
    if len(values) < 2:
        return f"n={len(values)} median={statistics.median(values):.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def measure(requests, reference, seconds, trace, trace_out=None):
    """One benchmark run; returns the result object printed as JSON."""
    tally = Tally(reference)
    if trace:
        metrics = traced(requests, seconds, tally, trace_out)
    else:
        metrics = untraced(requests, seconds, tally)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def untraced(requests, seconds, tally):
    run_worker(requests, mode="setup")  # byte-compiles a fresh checkout
    raw_setups, setups = [], []
    for _ in range(SETUP_STARTS):
        baseline, _ = run_worker(requests, mode="baseline")
        raw, _ = run_worker(requests, mode="setup")
        raw_setups.append(raw)
        setups.append(raw * BASELINE_START_S / baseline)
    raw_walls, walls, rss, costs = [], [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _, doc = run_worker(requests)
        costs.append(time.perf_counter() - t0)
        tally.check(doc, traced=False)
        raw_walls.append(doc["wall_s"])
        walls.append(pass_seconds(doc))
        rss.append(doc["peak_rss_mb"])
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(costs) > seconds:
            break
    sys.stderr.write(f"raw wall_s {spread(raw_walls)}\nwall_s {spread(walls)}\n"
                     f"raw setup_s {spread(raw_setups)}\nsetup_s {spread(setups)}\n"
                     f"peak_rss_mb {spread(rss)}\n")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced(requests, seconds, tally, trace_out):
    started = time.perf_counter()
    _, plain = run_worker(requests)
    tally.check(plain, traced=False)
    passes, costs = [], []
    while True:
        t0 = time.perf_counter()
        _, doc = run_worker(requests, trace=True,
                            trace_out=None if passes else trace_out)
        costs.append(time.perf_counter() - t0)
        tally.check(doc, traced=True)
        passes.append(doc)
        if time.perf_counter() - started + statistics.median(costs) > seconds:
            break
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        values = [p["layers"][name] for p in passes]
        if unit == "s":
            value = statistics.median(v * p["speed"] for v, p in zip(values, passes))
        elif len(set(values)) > 1:
            raise BenchError(f"work counter {name} differs between passes: {values}")
        else:
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    walls = [pass_seconds(p) for p in passes]
    untraced_wall = pass_seconds(plain)
    sys.stderr.write(f"traced wall_s {spread(walls)}; untraced {untraced_wall:.4f}\n")
    metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(walls) / untraced_wall, "unit": "ratio"}
    metrics["trace.spans"] = {"value": passes[0]["spans"], "unit": "count"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradedhh" / "cli.py").is_file():
        sys.stderr.write(f"error: no gradedhh sources under {SRC}\n")
        return 2
    requests = ordered(WORKLOADS[args.workload], args.seed)
    sys.stderr.write(f"{args.workload} seed {args.seed}: "
                     f"{' '.join(rid for rid, _ in requests)}\n")
    trace_out = None
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    try:
        result = measure(requests, load_reference(args.workload), args.seconds,
                         args.trace, trace_out)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
