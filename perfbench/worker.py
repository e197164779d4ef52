"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py SPEC, with SPEC a JSON object:
  mode        "pass" runs the requests; "setup" stops once gradedhh.cli is
              imported and its parser built; "baseline" only imports the
              standard-library modules gradedhh.cli pulls in
  src         directory holding the gradedhh package to measure
  requests    [[id, argv], ...] in the order to run them
  trace       true to install tracer.Tracer around the library's layers
  trace_out   optional path for the pass's spans (traced passes only)

The first stdout line, "ready", is written once the mode's imports are done;
the parent times set-up up to that line.  In "pass" mode the second line is
one JSON object describing the pass; its "speed" is the probe.py factor
that turns this process's raw seconds into seconds at reference speed.
"""

import json
import sys


def wrappers_installed(modules) -> bool:
    """Does any gradedhh function or method carry a tracer wrapper?"""
    for module in modules:
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            if any(hasattr(m, "_perfbench_original") for m in members):
                return True
    return False


def report_checks(rid, stdout) -> list:
    """Independent checks the report carries, plus HKR for ``hh``."""
    from gradedhh import hochschild
    from gradedhh.chromatic_presets import parse_preset

    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = [
        f"{key} is {report[key]!r}"
        for key in ("all_ok", "all_equal", "dims_match_quotient")
        if key in report and report[key] is not True
    ]
    if rid == "hh":
        pres = parse_preset(report["preset"])
        m = hochschild.multidegree_from_dict(pres, report["multidegree"])
        predicted = hochschild.hkr_predicted_dims(pres, m)
        if report["dims"] != {str(k): v for k, v in predicted.items()}:
            problems.append("dims differ from hkr_predicted_dims")
    return problems


def run_requests(cli, requests, tracer, sampler):
    import contextlib
    import io
    import time
    import traceback

    results = []
    for index, (rid, argv) in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin_request(index) if tracer else None
        first = len(sampler.samples)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_request(span)
        speed = sampler.speed(first, len(sampler.samples))
        results.append({"id": rid, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "seconds": seconds * speed})
    return results


def ready():
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "baseline":
        import argparse, dataclasses, fractions, functools, itertools, re  # noqa: F401

        ready()
        return 0
    sys.path.insert(0, spec["src"])
    from gradedhh import cli

    cli.build_parser()
    ready()
    if spec["mode"] == "setup":
        return 0

    import os
    import resource
    import time

    from probe import Sampler

    sampler = Sampler()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.stderr.write(f"gradedhh imported from {cli.__file__}, not {spec['src']}\n")
        return 2
    modules = [m for n, m in sys.modules.items()
               if n == "gradedhh" or n.startswith("gradedhh.")]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with sampler:
        t0 = time.perf_counter()
        results = run_requests(cli, spec["requests"], tracer, sampler)
        wall = time.perf_counter() - t0
    doc = {"wall_s": wall, "speed": sampler.speed(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "wrappers": wrappers_installed(modules)}
    if tracer:
        tracer.uninstall()
        doc["layers"] = tracer.metrics()
        doc["spans"] = len(tracer.start)
        if spec["trace_out"]:
            tracer.write(spec["trace_out"], {"requests": spec["requests"], "wall_s": wall})
    for r in results:
        r["problems"] = report_checks(r["id"], r["stdout"])
    doc["requests"] = results
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
