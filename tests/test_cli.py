"""The command-line interface: JSON output, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedhh import cli, exact_linear, graded_algebra, hochschild, trace_obstruction
from gradedhh.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    doc = json.loads(out)
    assert doc["families"] == ["a", "bp", "en", "hh_a"]


def test_presets_with_parameters(capsys):
    code, out, _ = run_cli(capsys, "presets", "--p", "2", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["bp:2:2"]["generators"] == [
        {"name": "v1", "degree": 2, "laurent": False},
        {"name": "v2", "degree": 6, "laurent": False},
    ]
    assert doc["en:2:2"]["generators"][1]["laurent"] is True
    # a family that refuses the parameters is an error entry, not a failed request
    code, out, err = run_cli(capsys, "presets", "--p", "2", "--n", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "a:2:0": {"error": "a_q needs n >= 1: it models the cone on v_n"},
        "bp:2:0": {"generators": []},
        "en:2:0": {"error": "en_q needs n >= 1: there is no v_0 to invert"},
        "hh_a:2:0": {"error": "hh_a_predicted needs n >= 1"},
    }


def test_presets_requires_both_parameters(capsys):
    code, _, err = run_cli(capsys, "presets", "--p", "2")
    assert code == 2
    assert "both" in err


def test_hh_dims_output(capsys):
    code, out, _ = run_cli(
        capsys, "hh", "--preset", "a:2:2", "--multidegree", "v1:1,eps:1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"-5": 1, "-4": 2, "-3": 1}
    assert doc["internal_degree"] == -5
    assert doc["level_bound"] == 2


def test_hh_empty_multidegree(capsys):
    code, out, _ = run_cli(capsys, "hh", "--preset", "bp:2:1", "--multidegree", "0")
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 1}


def test_hh_unknown_preset_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hh", "--preset", "xx:2:1", "--multidegree", "0")
    assert code == 2
    assert "unknown preset" in err


def test_hh_bad_multidegree_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hh", "--preset", "bp:2:1", "--multidegree", "v9:1")
    assert code == 2


def test_hh_duplicate_generator_in_multidegree_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "hh", "--preset", "a:2:2",
                             "--multidegree", "v1:1,v1:2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "'v1'" in err


def test_hkr_check_passes(capsys):
    code, out, _ = run_cli(
        capsys, "hkr-check", "--preset", "a:2:2", "--max-weight", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True
    assert len(doc["rows"]) == 10


def test_obstruction_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "obstruction", "--p", "2", "--n", "2",
                           "--exponents", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["D_display"] == "v1^4 d(eps) + 4 v1^3 eps d(v1)"

    code, _, err = run_cli(capsys, "obstruction", "--p", "2", "--n", "1")
    assert code == 2
    assert "positive total degree" in err

    code, _, err = run_cli(capsys, "obstruction", "--p", "2", "--n", "2",
                           "--exponents", "x")
    assert code == 2


def test_matrix_dga_with_negative_window(capsys):
    code, out, _ = run_cli(capsys, "matrix-dga", "--p", "2", "--n", "1",
                           "--window", "-8:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["homology"]["dims_match"] is True
    assert doc["eps"]["degree"] == -3
    assert doc["structure"]["d_squared_zero"] is True
    assert doc["all_ok"] is True


def test_quasi_iso_command(capsys):
    code, out, _ = run_cli(capsys, "quasi-iso", "--p", "2", "--n", "1",
                           "--window", "-6:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["graded_commutative"] is True


def test_ore_check_matrix_units(capsys):
    code, out, _ = run_cli(capsys, "ore-check", "--table", "matrix-units",
                           "--s", "e11")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    assert doc["witness"] == {"x": "e21", "s": "e11"}


def test_ore_check_preset_satisfied(capsys):
    code, out, _ = run_cli(capsys, "ore-check", "--preset", "bp:2:2",
                           "--s", "v2", "--window", "0:12", "--cap", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"


def _count_kernel_bases(monkeypatch):
    calls = []
    original = graded_algebra.kernel_basis

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(graded_algebra, "kernel_basis", counted)
    return calls


def test_ore_check_structural_proof_needs_no_elimination(capsys, monkeypatch):
    calls = _count_kernel_bases(monkeypatch)
    code, out, _ = run_cli(capsys, "ore-check", "--preset", "bp:2:2", "--s", "v2",
                           "--window", "0:40", "--cap", "6")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"
    assert calls == []
    # matrix units have no structural proof: one elimination per closure element
    code, out, _ = run_cli(capsys, "ore-check", "--table", "matrix-units",
                           "--s", "e11")
    assert code == 1
    assert len(calls) == len(json.loads(out)["s_closure"]) == 2


def test_ore_check_bp_2_3_two_generators_within_budget(capsys):
    """bp:2:3 with S = <v1, v3> on 0:60: a 31-element closure, decided by proof."""
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "ore-check", "--preset", "bp:2:3", "--s", "v1,v3",
                           "--window", "0:60", "--cap", "6")
    elapsed = time.monotonic() - start
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "satisfied"
    assert doc["commutative"] is True
    assert doc["truncated"] is True
    assert len(doc["s_closure"]) == 31
    assert elapsed < 0.5, f"ore-check on bp:2:3 0:60 took {elapsed:.2f}s"


@pytest.mark.parametrize("s, closure, truncated", [
    ("2", ["1"], False),
    ("2 v1,v1", ["1", "2 v1", "4 v1^2", "8 v1^3", "16 v1^4"], True),
])
def test_ore_check_closure_identifies_scalar_multiples(capsys, s, closure,
                                                       truncated):
    code, out, _ = run_cli(capsys, "ore-check", "--preset", "bp:2:2",
                           "--s", s, "--window", "0:8")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_closure"] == closure
    assert doc["truncated"] is truncated
    assert doc["verdict"] == "satisfied"


def test_ore_check_s_of_zero_is_degenerate(capsys):
    code, out, _ = run_cli(capsys, "ore-check", "--preset", "bp:2:2", "--s", "0",
                           "--window", "0:8")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "degenerate"
    assert doc["s_closure"] == ["1", "0"]
    assert doc["notes"] == ["S contains 0: the localization is the zero ring"]


@pytest.mark.parametrize("argv, label, window", [
    (("--preset", "a:2:2", "--s", "eps", "--window", "-3:3"), "eps", "-3:3"),
    (("--preset", "bp:2:2", "--s", "v2", "--window", "0:12", "--cap", "0"),
     "v2", "0:12"),
])
def test_ore_check_s_outside_the_table_names_window_and_cap(capsys, argv, label,
                                                            window):
    code, out, err = run_cli(capsys, "ore-check", *argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: --s term {label!r} lies outside the window {window} "
                   "or is cut off by --cap\n")


def test_ore_check_needs_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "ore-check", "--s", "e11")
    assert code == 2
    code, _, err = run_cli(capsys, "ore-check", "--preset", "bp:2:1",
                           "--table", "matrix-units", "--s", "e11")
    assert code == 2


def test_cone_command(capsys):
    code, out, _ = run_cli(capsys, "cone", "--preset", "bp:2:2",
                           "--element", "v2", "--window", "-4:8")
    assert code == 0
    doc = json.loads(out)
    assert doc["regular"] is True
    assert doc["dims_match_quotient"] is True
    assert doc["homology_dims"]["0"] == 1


def test_cone_negative_degree_zero_divisor_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "cone", "--preset", "a:2:2",
                           "--element", "eps", "--window", "-20:-13")
    assert code == 0
    doc = json.loads(out)
    assert doc["regular"] is False
    assert doc["dims_match_quotient"] is False


def test_localize_command(capsys):
    code, out, _ = run_cli(capsys, "localize", "--preset", "bp:2:2",
                           "--generator", "v2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["generators"][1]["laurent"] is True


def test_bad_window_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "matrix-dga", "--p", "2", "--n", "1",
                           "--window", "4:-8")
    assert code == 2
    assert "LO" in err


def test_out_writes_identical_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "hh", "--preset", "bp:2:1",
                           "--multidegree", "v1:2", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_unwritable_out_is_usage_error_with_empty_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "presets", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out file") and err.count("\n") == 1
    assert not path.exists()


def test_output_is_deterministic(capsys):
    args = ("obstruction", "--p", "2", "--n", "2", "--exponents", "4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("matrix-dga", "--p", "2", "--n", "2", "--window", "-12:8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("argv", [
    ("localize", "--preset", "bp:2:2", "--generator", "zz"),
    ("cone", "--preset", "bp:2:2", "--element", "1/0", "--window", "0:4"),
    ("ore-check", "--preset", "bp:2:2", "--s", "1/0", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", "v2 +", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", "+", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", "-", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", "v1 - - v2", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", "", "--window", "0:4"),
    ("cone", "--preset", "bp:2:2", "--element", " ", "--window", "0:4"),
    ("ore-check", "--preset", "bp:2:2", "--s", "v2,", "--window", "0:8"),
    ("ore-check", "--preset", "bp:2:2", "--s", "", "--window", "0:8"),
    ("ore-check", "--table", "matrix-units", "--s", "e11,"),
    ("ore-check", "--table", "foo", "--s", "e11"),
    ("ore-check", "--preset", "bp:2:2", "--s", "v1"),
    ("hh", "--preset", "a:2:2", "--multidegree", "v1"),
    ("hh", "--preset", "a:2:2", "--multidegree", "v1:x"),
    ("hkr-check", "--preset", "a:2:2", "--max-weight", "-1"),
])
def test_malformed_input_is_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [
    ("--window", "1:2:3", "--cap", "5"),
    ("--window", "0:4"),
    ("--cap", "2"),
])
def test_ore_check_table_rejects_window_and_cap(capsys, extra):
    code, out, err = run_cli(capsys, "ore-check", "--table", "matrix-units",
                             "--s", "e11", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: --window and --cap apply only with --preset\n"


def test_a_failed_kernel_certificate_under_ore_check_exits_1(capsys, monkeypatch):
    def failed(m):
        raise ArithmeticError("kernel certificate failed: m k != 0")

    monkeypatch.setattr(graded_algebra, "kernel_basis", failed)
    code, out, err = run_cli(capsys, "ore-check", "--table", "matrix-units", "--s", "e11")
    assert (code, out) == (1, "")
    assert err == "error: kernel certificate failed: m k != 0\n"


def test_a_failed_in_span_certificate_under_ore_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(exact_linear, "_back_substitute",
                        lambda pivots, x: {0: Fraction(7)})
    code, out, err = run_cli(capsys, "ore-check", "--table", "matrix-units", "--s", "e11")
    assert (code, out) == (1, "")
    assert err == "error: in_span certificate failed: m x != v\n"


def test_a_tripped_morse_guard_exits_1_with_one_error_line(capsys, monkeypatch):
    faces = hochschild._faces
    monkeypatch.setattr(hochschild, "_faces", lambda *args: (
        (face, 2 * sign) for face, sign in faces(*args)))
    code, out, err = run_cli(capsys, "obstruction", "--p", "2", "--n", "2", "--exponents", "4")
    assert (code, out) == (1, "")
    assert err == "error: Morse coefficient -2 is not a unit\n"
    # hh runs no flow: the HKR cycle's certificate trips instead
    code, out, err = run_cli(capsys, "hh", "--preset", "a:2:2", "--multidegree", "v1:2,eps:1")
    assert (code, out) == (1, "")
    assert err == "error: faces of the HKR cycle of [(1, 0)] do not cancel\n"


def test_a_failed_derivation_contract_exits_1_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(trace_obstruction, "D_map", lambda chain: 0)
    code, out, err = run_cli(capsys, "obstruction", "--p", "2", "--n", "2", "--exponents", "4")
    assert (code, out) == (1, "")
    assert err == "error: derivation contract failed: D(trace) != d(x)\n"


# ---------------------------------------------------------------------------
# Fuzzing the contract: every input exits 0, 1 or 2 and never prints a
# traceback.  Values mix well-formed and malformed text; windows, weights and
# exponents stay small so that each example runs in milliseconds.

def mostly(valid, malformed):
    """Draw from valid three times in four, from malformed otherwise."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else malformed)


PRESETS = mostly(
    st.sampled_from(["a:2:2", "bp:2:2", "hh_a:2:2", "en:2:2", "bp:3:1", "a:3:1",
                     "hh_a:3:1", "bp:2:3"]),
    st.one_of(
        st.builds("{}:{}:{}".format, st.sampled_from(["a", "bp", "en", "hh_a", "zz"]),
                  st.integers(-1, 5), st.integers(-1, 3)),
        st.sampled_from(["", "a:2", "bp:2:2:2", "a:x:2", ":::", "bp:2:"]),
    ),
)
NAMES = mostly(st.sampled_from(["v1", "v2", "eps", "delta"]),
               st.sampled_from(["v3", "sigma1", "zz", "", "v1^2", "v1^-1", "1"]))
PRIMES = mostly(st.sampled_from(["2", "3"]), st.sampled_from(["0", "1", "-1", "4", "x"]))
HEIGHTS = mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "x"]))
CAPS = mostly(st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(["-1", "x", ""]))


@st.composite
def windows(draw):
    lo = draw(st.integers(-14, 10))
    hi = lo + draw(st.integers(-2, 8))
    return draw(mostly(
        st.just(f"{lo}:{hi}"),
        st.sampled_from(["", "3", "1:2:3", "a:b", ":", "-2:"]),
    ))


@st.composite
def multidegrees(draw):
    counts = mostly(st.sampled_from(["0", "1", "2"]), st.sampled_from(["-1", "x", "", " 1"]))
    entries = draw(st.lists(st.tuples(NAMES, counts), max_size=3))
    text = ",".join(f"{name}:{count}" if count else name for name, count in entries)
    return draw(mostly(st.just(text), st.sampled_from(["0", "", ",", "v1:1,v1:1"])))


@st.composite
def elements(draw):
    coeff = draw(mostly(st.sampled_from(["", "2 ", "-1/2 "]),
                        st.sampled_from(["1/0 ", "0 ", "x "])))
    factors = draw(st.lists(NAMES, max_size=3))
    tail = draw(mostly(st.just(""), st.sampled_from([" + 1", " -", " ^", " * v1", ","])))
    return coeff + " ".join(factors) + tail


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(
        ["hh", "hkr-check", "obstruction", "matrix-dga", "quasi-iso",
         "ore-check", "cone", "localize", "presets", "nope"]))
    p, n = ["--p", draw(PRIMES)], ["--n", draw(HEIGHTS)]
    preset = ["--preset", draw(PRESETS)]
    table = ["--table", draw(st.sampled_from(["matrix-units", "zz"]))]
    window = ["--window", draw(windows())]
    cap = ["--cap", draw(CAPS)]
    exponents = ["--exponents", draw(mostly(
        st.sampled_from(["", "1", "4", "5", "4,1"]), st.sampled_from(["x", "1,,2", "-1"])))]
    max_weight = ["--max-weight", draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
    flags = {
        "hh": [preset, ["--multidegree", draw(multidegrees())]],
        "hkr-check": [preset, max_weight],
        "obstruction": [p, n, exponents],
        "matrix-dga": [p, n, window],
        "quasi-iso": [p, n, window],
        "ore-check": [draw(st.sampled_from([preset, table])), ["--s", draw(st.one_of(
                          elements(), st.sampled_from(["e11", "e12,e22", "e11,"])))],
                      window, cap],
        "cone": [preset, ["--element", draw(elements())], window, cap],
        "localize": [preset, ["--generator", draw(NAMES)]],
        "presets": [p, n],
        "nope": [],
    }[command]
    kept = [flag for flag in flags if draw(st.integers(0, 9))]  # each kept 9 in 10
    return [command] + [token for flag in kept for token in flag]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(cli_argv())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "" and err.strip(), argv
    else:
        json.loads(out)


# ---------------------------------------------------------------------------
# One subparser per request: build_parser(name) must parse, print help and
# fail exactly as the full parser does.

GOLDEN_ARGV = [case["argv"] for case in
               json.loads((Path(__file__).parent / "golden" / "commands.json").read_text())]


def subparsers(parser):
    """The registered subparsers of a main parser, by name, in order."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_prints_the_full_parsers_help(name):
    alone = subparsers(cli.build_parser(name))
    assert list(alone) == [name]
    assert alone[name].format_help() == subparsers(cli.build_parser())[name].format_help()


def test_full_parser_registers_every_command_in_order():
    assert list(subparsers(cli.build_parser())) == [
        "presets", "hh", "hkr-check", "obstruction", "matrix-dga",
        "quasi-iso", "ore-check", "cone", "localize",
    ]


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=lambda argv: " ".join(argv))
def test_golden_argv_parse_alike_under_both_parsers(argv):
    argv = cli._merge_negative_values(argv)
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["hh", "--preset", "a:2:2", "--multidegree", "0", "--bogus"],
    ["presets", "presets"],
    ["hh", "--preset", "a:2:2"],
    ["obstruction", "--p", "2"],
    ["hkr-check", "--preset", "a:2:2", "--max-weight", "x"],
    ["presets", "--out"],
    ["cone", "--preset", "bp:2:2", "--element", "v1", "--window", "-3:4"],
    [], ["-h"], ["bogus"], ["-h", "hh"],
] + [[name, "-h"] for name in cli.COMMANDS], ids=lambda argv: " ".join(argv) or "bare")
def test_main_answers_as_through_the_full_parser(argv, monkeypatch):
    """Usage, help and error text, byte for byte: the main usage line must
    still list every command when only one subparser is registered."""
    ours = run_captured(argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: full())
    assert ours == run_captured(argv)


def test_a_request_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["hh", "--preset", "a:2:2", "--multidegree", "0"]) == 0
    assert built == ["hh"]


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gradedhh", "presets"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["families"] == ["a", "bp", "en", "hh_a"]


@pytest.mark.parametrize("argv,code", [(["presets"], 0), (["presets", "--p", "2"], 2)])
def test_entry_exits_with_the_requests_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gradedhh"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
