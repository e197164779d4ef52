"""Checks at size: CLI requests and library checks too slow for tier-1.

    PYTHONPATH=src python -m pytest -q tests/at_size.py

Tier-1 (`pytest -q`) does not collect this module, since its name does not
match `test_*.py`.  Each row of `ROWS` is one CLI request, with a hard time
limit, a peak-RSS bound or None, the exit code it must return and the check
its stdout must pass.  `run` starts each request from a fresh interpreter
that runs the CLI and reports the CLI's own peak RSS.  The CLI is never
spawned from the pytest process: a child's `ru_maxrss` starts at its
parent's resident size.  The library checks at the end run in process, each
under its own time limit.
"""

import contextlib
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from gradedhh import cli, dg_complexes, hochschild
from gradedhh.chromatic_presets import ChromaticParams, a_q, parse_preset
from gradedhh.dg_complexes import GradedComplex, commutative_model_check, cone_report
from gradedhh.graded_algebra import element_from_string
from test_dg_complexes import _labelwise_realize, _piece_count_per_degree
from test_properties import _augmented, assert_echelon_form

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs `python -m gradedhh.cli ARGV` with a limit of LIMIT seconds, then writes
# one JSON line [exit code or None past the limit, the CLI's peak RSS in MB]
# and the CLI's stdout; ru_maxrss is in KiB on Linux, and the CLI is the only
# child.  It imports nothing from the package, so the CLI starts small.
_DRIVER = """
import json, resource, subprocess, sys
try:
    done = subprocess.run([sys.executable, '-m', 'gradedhh.cli', *sys.argv[2:]],
                          capture_output=True, timeout=float(sys.argv[1]))
    code, out, err = done.returncode, done.stdout, done.stderr
except subprocess.TimeoutExpired:
    code, out, err = None, b'', b''
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
sys.stdout.buffer.write(json.dumps([code, peak_mb]).encode() + b'\\n' + out)
sys.stderr.buffer.write(err)
"""


def run(argv, limit):
    """(exit code or None past the limit, peak RSS in MB, stdout bytes,
    stderr text) of one CLI request."""
    done = subprocess.run([sys.executable, "-c", _DRIVER, str(limit), *argv],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=SRC),
                          check=True)
    head, _, out = done.stdout.partition(b"\n")
    code, peak_mb = json.loads(head)
    return code, peak_mb, out, done.stderr.decode()


def hkr_dims(preset, weights, literal=None):
    """An `hh` request at `weights` and the check that its dims are the HKR
    prediction, and `literal` when given."""
    multidegree = ",".join(f"{name}:{e}" for name, e in weights.items())

    def check(out):
        pres = parse_preset(preset)
        m = hochschild.multidegree_from_dict(pres, weights)
        want = {str(t): d for t, d in hochschild.hkr_predicted_dims(pres, m).items()}
        got = json.loads(out)["dims"]
        assert got == want, (got, want)
        if literal is not None:
            assert got == literal, got

    return f"hh --preset {preset} --multidegree {multidegree}", check


def md5(digest):
    def check(out):
        assert hashlib.md5(out).hexdigest() == digest, out[:200]
    return check


def fields(sizes=None, **want):
    """The report's fields equal `want`, and the collections named in `sizes`
    have those lengths."""
    sizes = sizes or {}

    def check(out):
        report = json.loads(out)
        assert {key: report[key] for key in want} == want, report
        assert {key: len(report[key]) for key in sizes} == sizes
    return check


def row(case_id, argv, check, limit, rss_mb=None, code=0):
    return pytest.param(argv, check, limit, rss_mb, code, id=case_id)


def mdga_structure(size):
    return fields(structure={"basis_size": size, "pairs_checked": size ** 2,
                             "d_squared_zero": True, "derivation_law": True})


def quotient_cone(length):
    return fields(regular=True, dims_match_quotient=True, sizes={"homology_dims": length})


CONE_BP_2_4_600 = "da48ba9c28082edff0f31bacf809a3f6"

ROWS = [
    row("hh-a:2:2-(10,1)", *hkr_dims("a:2:2", {"v1": 10, "eps": 1},
                                     {"13": 1, "14": 2, "15": 1}), 120),
    row("hh-a:2:2-(12,1)", *hkr_dims("a:2:2", {"v1": 12, "eps": 1},
                                     {"17": 1, "18": 2, "19": 1}), 180, 120),
    row("hh-a:2:3-(4,4,1)", *hkr_dims("a:2:3", {"v1": 4, "v2": 4, "eps": 1},
                                      {"17": 1, "18": 3, "19": 3, "20": 1}), 60, 100),
    row("hh-a:2:2-(14,1)", *hkr_dims("a:2:2", {"v1": 14, "eps": 1},
                                     {"21": 1, "22": 2, "23": 1}), 60, 120),
    row("hh-a:2:2-(40,1)", *hkr_dims("a:2:2", {"v1": 40, "eps": 1},
                                     {"73": 1, "74": 2, "75": 1}), 60),
    row("hh-hh_a:2:3-(3,2,2,1)",
        *hkr_dims("hh_a:2:3", {"v1": 3, "v2": 2, "delta": 2, "eps": 1},
                  {"-25": 1, "-24": 4, "-23": 6, "-22": 4, "-21": 1}), 120),
    row("hh-hh_a:2:3-(3,3,2,2,3,2)", *hkr_dims(
        "hh_a:2:3", {"v1": 3, "v2": 3, "sigma1": 2, "sigma2": 2, "delta": 3, "eps": 2}), 60, 60),
    # 12 odd generators: 4,096 crossing masks
    row("hh-hh_a:2:12-v1", *hkr_dims("hh_a:2:12", {"v1": 1}), 5, 40),
    row("matrix-dga-(2,3)-80:40", "matrix-dga --p 2 --n 3 --window -80:40",
        mdga_structure(597), 60),
    row("matrix-dga-(2,3)-120:60", "matrix-dga --p 2 --n 3 --window -120:60",
        mdga_structure(1529), 5),
    row("quasi-iso-(2,3)-120:60", "quasi-iso --p 2 --n 3 --window -120:60",
        fields(all_ok=True), 5),
    row("quasi-iso-(2,3)-480:240", "quasi-iso --p 2 --n 3 --window -480:240",
        fields(all_ok=True), 5),
    # stdout md5s of the enumerated route (about 29 s and 46-73 s, 1.2 GB each)
    row("matrix-dga-(2,3)-1920:960", "matrix-dga --p 2 --n 3 --window -1920:960",
        md5("b7072a0658298185da94295577359234"), 10, 60),
    row("quasi-iso-(2,3)-1920:960", "quasi-iso --p 2 --n 3 --window -1920:960",
        md5("f1f1553620d3ccd5151d0d4dbf766ad5"), 10, 60),
    row("obstruction-(2,2)-8", "obstruction --p 2 --n 2 --exponents 8",
        fields(all_ok=True, is_cycle=True, nonzero_in_HH=True), 60),
    row("obstruction-(2,2)-20", "obstruction --p 2 --n 2 --exponents 20",
        fields(**{"class": "v1^20 eps", "all_ok": True, "nonzero_in_HH": True}), 60, 100),
    row("obstruction-(2,3)-40,40", "obstruction --p 2 --n 3 --exponents 40,40",
        fields(**{"class": "v1^40 v2^40 eps", "all_ok": True, "nonzero_in_HH": True}),
        60, 60),
    row("ore-check-bp:2:2-v2-0:40", "ore-check --preset bp:2:2 --s v2 --window 0:40 --cap 6",
        fields(verdict="satisfied"), 60),
    row("ore-check-matrix-units", "ore-check --table matrix-units --s e11",
        fields(verdict="violated", condition=1, witness={"x": "e21", "s": "e11"}), 60,
        code=1),
    row("hkr-check-a:2:3-6", "hkr-check --preset a:2:3 --max-weight 6",
        fields(all_equal=True, sizes={"rows": 84}), 60),
    row("hkr-check-hh_a:2:3-6", "hkr-check --preset hh_a:2:3 --max-weight 6",
        fields(all_equal=True, sizes={"rows": 924}), 5),
    row("hkr-check-bp:2:6-6", "hkr-check --preset bp:2:6 --max-weight 6",
        fields(all_equal=True, sizes={"rows": 924}), 60, 30),
    row("hkr-check-hh_a:2:5-4", "hkr-check --preset hh_a:2:5 --max-weight 4",
        fields(all_equal=True, sizes={"rows": 1001}), 10),
    row("hkr-check-hh_a:2:12-1", "hkr-check --preset hh_a:2:12 --max-weight 1",
        fields(all_equal=True, sizes={"rows": 25}), 5, 40),
    row("cone-bp:3:3-v3-0:800", "cone --preset bp:3:3 --element v3 --window 0:800",
        quotient_cone(801), 60),
    row("cone-bp:2:4-v4-0:300", "cone --preset bp:2:4 --element v4 --window 0:300",
        quotient_cone(301), 60),
    row("cone-bp:2:4-v4-0:600", "cone --preset bp:2:4 --element v4 --window 0:600",
        md5(CONE_BP_2_4_600), 10, 60),
    # the cap reaches no monomial of the window: the uncapped run's stdout
    row("cone-bp:2:4-v4-0:600-cap", "cone --preset bp:2:4 --element v4 --window 0:600 "
        "--cap 100000", md5(CONE_BP_2_4_600), 10, 30),
    row("cone-bp:2:4-v4-0:5000", "cone --preset bp:2:4 --element v4 --window 0:5000",
        quotient_cone(5001), 10),
    row("cone-bp:3:3-two-terms-0:800",
        "cone --preset bp:3:3 --element 'v3 + v1^13' --window 0:800", quotient_cone(801), 60),
    row("cone-bp:2:4-two-terms-0:300",
        "cone --preset bp:2:4 --element 'v4 + v1^15' --window 0:300", quotient_cone(301), 60),
    row("cone-bp:2:4-two-terms-0:600",
        "cone --preset bp:2:4 --element 'v4 + v1^15' --window 0:600",
        md5("1b31342b071e25dea83c8bfc042b5ea7"), 10, 60),
    row("cone-a:2:3-zero-divisor",
        "cone --preset a:2:3 --element 'v1^8 eps + v1^5 v2 eps' --window -1000:2000",
        fields(regular=False, comparison_binding=False, sizes={"homology_dims": 3001}), 60),
    row("cone-hh_a:2:3-realized",
        "cone --preset hh_a:2:3 --element 'v1^2 v2 delta^4 eps + sigma1 sigma2 delta^4 eps' "
        "--window -6:31 --cap 4", md5("be1440ee07487005f2dcb445cef034c5"), 10),
]


@pytest.mark.parametrize("argv, check, limit, rss_mb, code", ROWS)
def test_cli_at_size(capsys, argv, check, limit, rss_mb, code):
    got, peak_mb, out, err = run(shlex.split(argv), limit)
    with capsys.disabled():
        print(f"\n{peak_mb:6.1f} MB peak RSS  {argv}", end="")
    assert got is not None, f"over its {limit} s limit: {argv}"
    assert got == code, (got, err)
    if rss_mb is not None:
        assert peak_mb < rss_mb, peak_mb
    check(out)


@contextlib.contextmanager
def time_limit(seconds):
    """Stop the body with TimeoutError once `seconds` of wall time pass."""
    def over(signum, frame):
        raise TimeoutError(f"over its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_morse_complex_equals_the_unreduced_bar_complex():
    with time_limit(120):
        for preset, weights in [("a:2:2", {"v1": 12, "eps": 1}),
                                ("a:2:3", {"v1": 4, "v2": 4, "eps": 1})]:
            pres = parse_preset(preset)
            m = hochschild.multidegree_from_dict(pres, weights)
            top = sum(e if pres.is_odd(i) else min(e, 1) for i, e in enumerate(m))  # top critical level
            window = hochschild.morse_complex(pres, m)[0]
            assert window.hi == top + 1, (preset, window.hi)
            morse = window.homology_dims((0, top))
            bar = hochschild.bar_window(pres, m)
            assert morse == bar.homology_dims((0, top)), preset
            assert not any(bar.homology_dims((top + 1, sum(m))).values()), preset


def test_streamed_cone_equals_the_realized_window():
    cases = [("bp:3:3", "v3", (0, 200), None), ("a:2:2", "eps", (-40, 10), 3),
             ("bp:2:2", "1/2 v2 + 2/3 v1^3", (-4, 12), None),
             ("a:2:3", "v1^3 eps + v2 eps", (-20, 4), 9),
             ("hh_a:2:2", "v1^3 sigma1 delta^4 + sigma1 delta^3", (-5, 3), 3)]
    with time_limit(60):
        for preset, element, (lo, hi), caps in cases:
            pres = parse_preset(preset)
            r = element_from_string(pres, element)
            c = GradedComplex(pres, r)
            win = c.realize((lo, hi + max(0, c.degree)), caps)
            shifted = {t: sum(term == 1 for term, _ in labels) for t, labels in win.basis.items()}
            want = {
                "homology_dims": win.homology_dims((lo, hi)),
                "quotient_dims": {t: len(win.basis[t]) - shifted[t] - win.rank(t + 1)
                                  for t in range(lo, hi + 1)},
                "regular": all(win.rank(t) == shifted[t] for t in win.diff),
            }
            got = cone_report(pres, r, (lo, hi), caps)
            assert {key: got[key] for key in want} == want, (preset, element)


def test_realized_cone_equals_the_labelwise_reference():
    with time_limit(60):
        for preset, element, window, caps in [("bp:3:3", "v3", (0, 200), None),
                                              ("a:2:2", "eps", (-40, 10), 3)]:
            pres = parse_preset(preset)
            c = GradedComplex(pres, element_from_string(pres, element))
            padded = (window[0], window[1] + max(0, c.degree))  # the degrees cone_report ranks
            got, want = c.realize(padded, caps), _labelwise_realize(c, padded, caps)
            assert got.basis == want.basis, preset
            assert got.diff == want.diff, preset


def test_echelon_form_at_size():
    with time_limit(60):
        pres = parse_preset("bp:3:3")
        c = GradedComplex(pres, element_from_string(pres, "v3"))
        windows = {"bp:3:3 v3 0:200 cone": c.realize((0, 200 + c.degree)),  # the degrees cone_report ranks
                   "a:2:2 (6, 1) bar window": hochschild.bar_window(a_q(ChromaticParams(2, 2)), (6, 1))}
        for window in windows.values():
            for m in window.diff.values():
                assert_echelon_form(m.data, m.cols)
                assert_echelon_form(_augmented(m), m.cols)


def test_quasi_iso_per_degree_equals_the_piece_counts():
    with time_limit(60):
        for p, n, window in [(2, 3, (-120, 60)), (3, 2, (-60, 30)), (5, 2, (-300, 150))]:
            got = commutative_model_check(p, n, window)["per_degree"]
            assert got == _piece_count_per_degree(p, n, window), (p, n)


def test_matrix_dga_refuses_a_broken_differential(capsys, monkeypatch):
    true_rule = dict(dg_complexes._DIFF_RULE)
    with time_limit(60):
        # a and d as cycles keeps d compose d; c losing its right term breaks it
        for broken in ({"a": (), "d": ()}, {"c": (("a", True),)}):
            monkeypatch.setattr(dg_complexes, "_DIFF_RULE", {**true_rule, **broken})
            for command in ("matrix-dga", "quasi-iso"):
                code = cli.main([command, "--p", "2", "--n", "2", "--window", "-12:8"])
                out, err = capsys.readouterr()
                lines = err.splitlines()
                assert code == 1 and out == "", (command, broken, code)
                assert len(lines) == 1, lines
                assert lines[0].startswith("error: class-shape certificate failed: "), lines
