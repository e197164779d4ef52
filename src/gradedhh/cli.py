"""Command-line reports over the library, as deterministic JSON.

Every subcommand prints one JSON document to stdout (and to --out FILE when
given) with byte-identical output across runs.  Exit codes: 0 when the
requested computation verifies (or is a plain computation), 1 when a
mathematical check is falsified (a report's own check, or an exact
certificate or Morse-matching guard that raises ArithmeticError, reported
as one "error: ..." line on stderr), 2 for usage errors (unknown commands or
presets, malformed flags, violated preconditions, an unwritable --out FILE).

The commands live in one table, COMMANDS: name -> (help, handler, flags).
A request for a known command builds only that command's subparser; help,
a bare ``gradedhh`` and unknown commands get the parser with every command.

Reports are written by _dumps, whose bytes equal json.dumps(obj, indent=2)
but which leaves the pure-Python encoder aside.  A report must be a tree of
dicts, lists and scalars: _dumps does no circular-reference check.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dg_complexes, graded_algebra, hochschild, trace_obstruction
from .chromatic_presets import parse_preset, preset_families, _FAMILIES, ChromaticParams
from .graded_algebra import (
    element_from_string,
    localize,
    matrix_units_table,
    ore_check,
    presentation_to_json,
    table_from_presentation,
)

_NEGATIVE_VALUE_FLAGS = ("--window", "--element", "--s")


def _merge_negative_values(argv):
    """Let "--window -10:4" parse: argparse treats "-10:4" as a flag."""
    out = []
    for tok in argv:
        if out and out[-1] in _NEGATIVE_VALUE_FLAGS and tok.startswith("-") and len(tok) > 1:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse_window(text: str):
    try:
        lo_str, hi_str = text.split(":")
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise ValueError(f"window must be LO:HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"window must satisfy LO <= HI, got {text!r}")
    return lo, hi


def _parse_multidegree(pres, text: str):
    weights = {}
    text = text.strip()
    if text not in ("", "0"):
        for chunk in text.split(","):
            name, _, count = chunk.partition(":")
            name = name.strip()
            if not count:
                raise ValueError(f"multidegree entries are name:count, got {chunk!r}")
            if name in weights:
                raise ValueError(f"generator {name!r} given twice in multidegree")
            try:
                weights[name] = int(count)
            except ValueError:
                raise ValueError(f"bad multidegree count in {chunk!r}") from None
    try:
        return hochschild.multidegree_from_dict(pres, weights)
    except KeyError as exc:
        raise ValueError(f"unknown generator in multidegree: {exc.args[0]}") from None


def _parse_element(pres, text: str, flag: str):
    """element_from_string, but empty text is a usage error here: the library
    reads it as the zero element."""
    if not text.strip():
        raise ValueError(f"empty element in {flag}")
    return element_from_string(pres, text)


_CONTAINERS = (list, tuple, dict)
_LEVELS = {}  # depth -> (C encoder, item separator, opening and closing indent)


def _level(depth):
    sep = ",\n" + "  " * (depth + 1)
    enc = json.encoder.c_make_encoder(None, json.JSONEncoder().default,
                                      json.encoder.encode_basestring_ascii,
                                      None, ": ", sep, False, False, True)
    return _LEVELS.setdefault(depth, (enc, sep, "\n" + "  " * (depth + 1), "\n" + "  " * depth))


def _dumps(obj, depth=0) -> str:
    """json.dumps(obj, indent=2), byte for byte, for obj nested `depth` deep.

    Only containers that hold containers are walked.  Scalars and containers
    of scalars go to the C encoder, whose item separator carries the newline
    and indent of their depth.  A walked dict's non-str keys are written by
    the C encoder through a one-key dict.  No circular-reference check.
    """
    enc, sep, head, tail = _LEVELS.get(depth) or _level(depth)
    if not isinstance(obj, _CONTAINERS):
        return "".join(enc(obj, 0))
    is_dict = isinstance(obj, dict)
    for value in obj.values() if is_dict else obj:
        if isinstance(value, _CONTAINERS):
            break
    else:
        text = "".join(enc(obj, 0))  # joined first: its chunks are not tokens
        return text if len(text) == 2 else text[0] + head + text[1:-1] + tail + text[-1]
    if not is_dict:
        return "[" + head + sep.join([_dumps(v, depth + 1) for v in obj]) + tail + "]"
    items = [(json.encoder.encode_basestring_ascii(k) if isinstance(k, str)
              else "".join(enc({k: None}, 0))[1:-7]) + ": " + _dumps(v, depth + 1)
             for k, v in obj.items()]
    return "{" + head + sep.join(items) + tail + "}"


def _emit(obj, out_path=None) -> None:
    """Write obj as _dumps writes it, json.dumps(obj, indent=2) byte for byte,
    plus a newline.  obj must be a tree: _dumps does no circular-reference
    check.  --out FILE is written first, so that an unwritable FILE leaves
    stdout empty."""
    text = _dumps(obj) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers return (json object, exit code).


def cmd_presets(args):
    if (args.p is None) != (args.n is None):
        raise ValueError("give both --p and --n, or neither")
    if args.p is None:
        return {
            "families": preset_families(),
            "address_format": "family:p:n",
            "examples": ["bp:2:2", "en:2:2", "a:2:2", "hh_a:3:1"],
        }, 0
    params = ChromaticParams(args.p, args.n)
    out = {}
    for family in preset_families():
        address = f"{family}:{args.p}:{args.n}"
        try:
            out[address] = presentation_to_json(_FAMILIES[family](params))
        except ValueError as exc:
            out[address] = {"error": str(exc)}
    return out, 0


def cmd_hh(args):
    pres = parse_preset(args.preset)
    m = _parse_multidegree(pres, args.multidegree)
    return {
        "preset": args.preset,
        "multidegree": hochschild.multidegree_to_dict(pres, m),
        "internal_degree": hochschild.internal_degree(pres, m),
        "level_bound": sum(m),
        "dims": hochschild.hh_dims(pres, m),
    }, 0


def cmd_hkr_check(args):
    pres = parse_preset(args.preset)
    if args.max_weight < 0:
        raise ValueError("--max-weight must be nonnegative")
    multidegrees = hochschild.multidegrees_up_to(pres, args.max_weight)
    report = hochschild.hkr_check(pres, multidegrees)
    obj = {"preset": args.preset, "max_weight": args.max_weight}
    obj.update(report.to_json())
    return obj, 0 if report.all_equal else 1


def cmd_obstruction(args):
    exponents = []
    if args.exponents.strip():
        try:
            exponents = [int(x) for x in args.exponents.split(",")]
        except ValueError:
            raise ValueError(
                f"--exponents must be comma-separated integers, got {args.exponents!r}"
            ) from None
    report = trace_obstruction.obstruction_report(args.p, args.n, exponents)
    return report.to_json(), 0 if report.all_ok else 1


def cmd_matrix_dga(args):
    window = _parse_window(args.window)
    ring = dg_complexes.homology_ring_check(args.p, args.n, window)
    structure = dg_complexes.dga_structure_check(args.p, args.n, window)
    ok = ring["all_ok"] and structure["d_squared_zero"] and structure["derivation_law"]
    obj = {
        "p": args.p,
        "n": args.n,
        "window": list(window),
        "homology": {
            "computed_dims": ring["computed_dims"],
            "expected_product_dims": ring["expected_product_dims"],
            "expected_splitting_dims": ring["expected_splitting_dims"],
            "dims_match": ring["dims_match"],
        },
        "eps": {
            "degree": ring["eps_degree"],
            "is_cycle": ring["eps_is_cycle"],
            "nonzero_in_homology": ring["eps_nonzero_in_homology"],
            "square_zero": ring["eps_square_zero"],
            "central": ring["eps_central"],
        },
        "v_classes_nonzero": ring["v_classes_nonzero"],
        "structure": {
            "basis_size": structure["basis_size"],
            "pairs_checked": structure["pairs_checked"],
            "d_squared_zero": structure["d_squared_zero"],
            "derivation_law": structure["derivation_law"],
        },
        "all_ok": ok,
    }
    return obj, 0 if ok else 1


def cmd_quasi_iso(args):
    window = _parse_window(args.window)
    report = dg_complexes.commutative_model_check(args.p, args.n, window)
    obj = {key: value for key, value in report.items() if key != "per_degree"}
    return obj, 0 if report["all_ok"] else 1


def cmd_ore_check(args):
    if (args.preset is None) == (args.table is None):
        raise ValueError("give exactly one of --preset or --table")
    if args.table is not None:
        if args.table != "matrix-units":
            raise ValueError(f"unknown built-in table {args.table!r}")
        if args.window is not None or args.cap is not None:
            raise ValueError("--window and --cap apply only with --preset")
        table = matrix_units_table()
        s_elements = [s.strip() for s in args.s.split(",")]
        source = {"table": args.table}
    else:
        pres = parse_preset(args.preset)
        if args.window is None:
            raise ValueError("--window is required with --preset")
        window = _parse_window(args.window)
        table = table_from_presentation(pres, window, caps=args.cap)
        s_elements = []
        for chunk in args.s.split(","):
            el = _parse_element(pres, chunk.strip(), "--s")
            combo = {}
            for mono, coeff in el.terms.items():
                label = graded_algebra.mono_str(pres, mono)
                if label not in table.degree:
                    raise ValueError(f"--s term {label!r} lies outside the window "
                                     "{}:{} or is cut off by --cap".format(*window))
                combo[label] = coeff
            s_elements.append(combo)
        source = {"preset": args.preset, "window": list(window)}
    report = ore_check(table, s_elements)
    obj = dict(source)
    obj["s"] = args.s
    obj.update(report.to_json())
    return obj, 1 if report.verdict == "violated" else 0


def cmd_cone(args):
    pres = parse_preset(args.preset)
    window = _parse_window(args.window)
    r = _parse_element(pres, args.element, "--element")
    report = dg_complexes.cone_report(pres, r, window, caps=args.cap)
    obj = {
        "preset": args.preset,
        "element": graded_algebra.poly_str(r),
        "window": report["window"],
        "homology_dims": report["homology_dims"],
        "quotient_dims": report["quotient_dims"],
        "regular": report["regular"],
        "dims_match_quotient": report["dims_match_quotient"],
        "comparison_binding": report["comparison_binding"],
    }
    failed = report["regular"] and not report["dims_match_quotient"]
    return obj, 1 if failed else 0


def cmd_localize(args):
    pres = parse_preset(args.preset)
    try:
        new = localize(pres, args.generator)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return {
        "preset": args.preset,
        "generator": args.generator,
        "result": presentation_to_json(new),
    }, 0


_WINDOW = ("--window", {"required": True, "help": "LO:HI total degree window"})
_P_N = (("--p", {"type": int, "required": True}), ("--n", {"type": int, "required": True}))
_OUT = ("--out", {"help": "also write the JSON to FILE"})

# name -> (help, handler, ((flag, add_argument keywords), ...)); --out is added
# to every command, and the order here is the order of the help listing.
COMMANDS = {
    "presets": ("list preset families or print them", cmd_presets, (
        ("--p", {"type": int}),
        ("--n", {"type": int}),
    )),
    "hh": ("Hochschild homology dims for one multidegree", cmd_hh, (
        ("--preset", {"required": True}),
        ("--multidegree", {"required": True,
                           "help": 'e.g. "v1:1,eps:1"; "0" for the empty multidegree'}),
    )),
    "hkr-check": ("computed vs predicted dims for all small multidegrees", cmd_hkr_check, (
        ("--preset", {"required": True}),
        ("--max-weight", {"type": int, "required": True}),
    )),
    "obstruction": ("trace-image obstruction report", cmd_obstruction, _P_N + (
        ("--exponents", {"default": "",
                         "help": "comma-separated v_i exponents (n-1 of them)"}),
    )),
    "matrix-dga": ("homology ring and structure checks of the cone DGA", cmd_matrix_dga,
                   _P_N + (_WINDOW,)),
    "quasi-iso": ("commutative cycle subalgebra vs the full DGA", cmd_quasi_iso,
                  _P_N + (_WINDOW,)),
    "ore-check": ("right Ore condition on a window table", cmd_ore_check, (
        ("--preset", {}),
        ("--table", {"help": 'built-in table name (only "matrix-units")'}),
        ("--s", {"required": True,
                 "help": "comma-separated generators of the multiplicative set"}),
        ("--window", {"help": "LO:HI degree window"}),
        ("--cap", {"type": int, "help": "per-generator exponent cap for the table basis"}),
    )),
    "cone": ("cone homology vs quotient dims", cmd_cone, (
        ("--preset", {"required": True}),
        ("--element", {"required": True}),
        _WINDOW,
        ("--cap", {"type": int}),
    )),
    "localize": ("invert an even generator of a preset", cmd_localize, (
        ("--preset", {"required": True}),
        ("--generator", {"required": True}),
    )),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser with every command, or with the command `only` alone.

    The main usage line spells its choices from the registered subparsers, so
    with `only` set the metavar lists all of COMMANDS; it stays None without
    `only`, where it would change argparse's "invalid choice" and "required"
    errors."""
    parser = argparse.ArgumentParser(
        prog="gradedhh",
        description="Exact Hochschild homology and DG algebra reports",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, handler, flags) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in flags + (_OUT,):
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        obj, code = args.handler(args)
        _emit(obj, args.out)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ZeroDivisionError, OverflowError):
        raise  # a fault in the program, not a falsified check
    except ArithmeticError as exc:  # a failed exact certificate or Morse guard
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
