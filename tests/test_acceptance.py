"""Acceptance suite: one test per headline guarantee, exact arithmetic only.

Each test prints a single CRITERION line (visible with ``pytest -s`` or in
the captured output of a failure) and enforces its runtime budget.  A timed
test prints its seconds on a TIMING line of its own, so that the CRITERION
lines of two runs of the same code are equal.
"""

import itertools
import time
from fractions import Fraction

from gradedhh.chromatic_presets import ChromaticParams, a_q, bp_q, en_q
from gradedhh.dg_complexes import (
    commutative_model_check,
    dga_structure_check,
    homology_ring_check,
    matrix_dga,
    mdga_window_labels,
)
from gradedhh.exact_linear import RationalMatrix, in_span
from gradedhh.graded_algebra import (
    Element,
    kahler_d,
    koszul_mul,
    localize,
    make_presentation,
    matrix_units_table,
    mono_degree,
    ore_check,
    table_from_presentation,
)
from gradedhh.hochschild import (
    BarChain,
    D_map,
    bar_basis,
    bar_window,
    hh_dims,
    hkr_predicted_dims,
    hochschild_diff,
    multidegrees_up_to,
)
from gradedhh.trace_obstruction import obstruction_report, trace_class


MAX_WEIGHT = 5

HOMOLOGY_CASES = [(2, 1, (-8, 4)), (2, 2, (-12, 8)), (3, 1, (-10, 6))]

OBSTRUCTION_CASES = [(2, 2, (4,)), (3, 2, (5,))]


def _hkr_presets():
    return [
        ("one even generator", make_presentation([("v", 2, False)])),
        ("one odd generator", make_presentation([("y", 3, False)])),
        ("a:2:2", a_q(ChromaticParams(2, 2))),
        ("a:3:2", a_q(ChromaticParams(3, 2))),
    ]


def _report(number: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status} - {label}")
    if elapsed is not None:
        print(f"TIMING {number}: {elapsed:.1f}s")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_homology_matches_prediction():
    start = time.monotonic()
    ok = True
    for _, pres in _hkr_presets():
        for m in multidegrees_up_to(pres, MAX_WEIGHT):
            if hh_dims(pres, m) != hkr_predicted_dims(pres, m):
                ok = False
    elapsed = time.monotonic() - start
    _report(1, f"computed dims equal predicted dims, weight <= {MAX_WEIGHT} "
               "on 4 presets", ok and elapsed < 60, elapsed)


def test_criterion_2_matrix_dga_homology_and_structure():
    start = time.monotonic()
    ok = True
    for p, n, window in HOMOLOGY_CASES:
        ring = homology_ring_check(p, n, window)
        structure = dga_structure_check(p, n, window)
        case_ok = (
            ring["dims_match"]
            and ring["all_ok"]
            and structure["d_squared_zero"]
            and structure["derivation_law"]
        )
        if not case_ok:
            ok = False
    elapsed = time.monotonic() - start
    _report(2, "matrix DGA homology matches the product ring and the "
               "two-summand splitting on 3 cases",
            ok and elapsed < 30, elapsed)


def test_criterion_3_commutative_cycle_model():
    start = time.monotonic()
    ok = all(
        commutative_model_check(p, n, window)["all_ok"]
        for p, n, window in HOMOLOGY_CASES
    )
    elapsed = time.monotonic() - start
    _report(3, "commutative cycle subalgebra is quasi-isomorphic on 3 cases",
            ok and elapsed < 30, elapsed)


def test_criterion_4_obstruction_classes():
    start = time.monotonic()
    ok = True

    report = obstruction_report(2, 2, [4])
    j = report.to_json()
    ok &= j["D_display"] == "v1^4 d(eps) + 4 v1^3 eps d(v1)"
    ok &= j["is_cycle"] and j["nonzero_in_HH"]
    ok &= not j["in_subalgebra_image"]
    ok &= j["eps_count_excludes_image"] and j["routes_agree"] and j["all_ok"]

    # independent recheck of nonvanishing: rebuild the bar window at
    # multidegree (v1:4, eps:1) and test the chain against the boundary span
    pres = a_q(ChromaticParams(2, 2))
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    chain = trace_class(v1**4 * eps).normalized
    window = bar_window(pres, (4, 1))
    index = {tensor: i for i, tensor in enumerate(window.basis[1])}
    vec = {index[tensor]: coeff for tensor, coeff in chain.terms.items()}
    column = RationalMatrix.from_columns([vec], len(window.basis[1]))
    ok &= window.diff[1].matmul(column).is_zero()
    ok &= not in_span(window.diff[2], vec).in_span

    second = obstruction_report(3, 2, [5]).to_json()
    ok &= second["all_ok"] and not second["in_subalgebra_image"]

    elapsed = time.monotonic() - start
    _report(4, "one-form classes are nonzero and outside the even-subring "
               "image, two heights", ok and elapsed < 120, elapsed)


def test_criterion_5_height_one_negative_control():
    ok = True
    for p in (2, 3):
        try:
            obstruction_report(p, 1, [])
            ok = False
        except ValueError as exc:
            ok &= "positive total degree" in str(exc)
    _report(5, "height one rejects every exponent vector with the "
               "positive-degree error", ok)


def _criteria_bar_multidegrees():
    for _, pres in _hkr_presets():
        for m in multidegrees_up_to(pres, MAX_WEIGHT):
            yield pres, m
    yield a_q(ChromaticParams(2, 2)), (4, 1)
    yield a_q(ChromaticParams(3, 2)), (5, 1)


def test_criterion_6_structural_suites():
    start = time.monotonic()
    ok = True

    seen_monomials = {}
    for pres, m in _criteria_bar_multidegrees():
        basis = bar_basis(pres, m)
        weight = sum(m)
        monos = seen_monomials.setdefault(pres, set())
        for level, tensors in basis.items():
            ok &= 0 <= level <= weight
            for tensor in tensors:
                monos.update(tensor)
                x = BarChain(pres, level, {tensor: Fraction(1)})
                d = hochschild_diff(x)
                ok &= hochschild_diff(d).is_zero()
                if not d.is_zero():
                    ok &= d.multidegree() == m
                if level == 2:
                    ok &= D_map(d).is_zero()

    # slot monomials from the matrix DGA windows feed the same sign laws
    for p, n, window in HOMOLOGY_CASES:
        dga = matrix_dga(p, n)
        monos = seen_monomials.setdefault(dga.pres, set())
        for labels in mdga_window_labels(dga, (window[0] - 1, window[1] + 1)).values():
            for _slot, mono in labels:
                monos.add(mono)

    for pres, monos in seen_monomials.items():
        monos = sorted(monos)
        elements = [Element.monomial(pres, mo) for mo in monos]
        for a, b in itertools.product(monos, repeat=2):
            ab = koszul_mul(pres, a, b)
            ba = koszul_mul(pres, b, a)
            if ab is None:
                ok &= ba is None
            else:
                parity = mono_degree(pres, a) % 2 and mono_degree(pres, b) % 2
                ok &= ab[1] == ba[1] and ab[0] == (-ba[0] if parity else ba[0])
        for x, y in itertools.product(elements, repeat=2):
            sx, sy = x.degree() % 2, y.degree() % 2
            sign = -1 if (sx and sy) else 1
            ok &= kahler_d(x * y) == x * kahler_d(y) + sign * (y * kahler_d(x))
        for x, y, z in itertools.product(elements, repeat=3):
            ok &= (x * y) * z == x * (y * z)

    elapsed = time.monotonic() - start
    _report(6, "differential squares to zero, gradings are preserved, and "
               "sign laws hold on every enumerated basis",
            ok and elapsed < 120, elapsed)


def test_criterion_7_localization_and_ore():
    ok = True

    commutative = table_from_presentation(
        bp_q(ChromaticParams(2, 2)), (0, 12), caps=3
    )
    ok &= ore_check(commutative, ["v2"]).verdict == "satisfied"

    violated = ore_check(matrix_units_table(), ["e11"])
    ok &= violated.verdict == "violated"
    ok &= violated.witness == ("e21", "e11")

    nilpotent = table_from_presentation(
        a_q(ChromaticParams(2, 2)), (-20, 0), caps=2
    )
    ok &= ore_check(nilpotent, ["eps"]).verdict == "degenerate"

    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        params = ChromaticParams(p, n)
        ok &= localize(bp_q(params), f"v{n}") == en_q(params)

    _report(7, "Ore verdicts (satisfied / violated with witness / "
               "degenerate) and localization agree with the presets", ok)
