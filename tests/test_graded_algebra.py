"""Graded-commutative algebras, Kähler differentials, localization, Ore."""

import itertools
import time
from fractions import Fraction

import pytest

from gradedhh.chromatic_presets import parse_preset
from gradedhh.graded_algebra import (
    Element,
    KahlerElement,
    MalformedTableError,
    MulTable,
    degree_dims,
    degree_pieces,
    element_from_string,
    kahler_d,
    koszul_mul,
    localize,
    make_presentation,
    matrix_units_table,
    mono_degree,
    mono_one,
    mono_str,
    monomial_basis,
    ore_check,
    poly_str,
    presentation_to_json,
    table_from_presentation,
)


def poly_ring():
    return make_presentation([("v1", 2, False), ("v2", 6, False)])


def mixed_ring():
    return make_presentation([("v1", 2, False), ("eps", -3, False)])


def two_odds():
    return make_presentation([("a", 1, False), ("b", 3, False)])


# -- presentation validation -------------------------------------------------


def test_presentation_rejects_duplicate_names():
    with pytest.raises(ValueError):
        make_presentation([("v", 2, False), ("v", 4, False)])


def test_presentation_rejects_bad_identifier():
    with pytest.raises(ValueError):
        make_presentation([("2v", 2, False)])


def test_presentation_rejects_laurent_odd_generator():
    with pytest.raises(ValueError):
        make_presentation([("eps", -3, True)])


def test_presentation_index_and_parity():
    pres = mixed_ring()
    assert pres.index("eps") == 1
    assert pres.is_odd(1) and not pres.is_odd(0)
    with pytest.raises(KeyError):
        pres.index("nope")


def test_presentation_json_round_trip():
    pres = make_presentation([("v1", 2, False), ("v2", 6, True)])
    generators = presentation_to_json(pres)["generators"]
    assert make_presentation((g["name"], g["degree"], g["laurent"]) for g in generators) == pres


# -- monomials and elements ----------------------------------------------------


def test_monomial_degree_and_str():
    pres = mixed_ring()
    assert mono_degree(pres, (3, 1)) == 3
    assert mono_str(pres, (0, 0)) == "1"
    assert mono_str(pres, (3, 1)) == "v1^3 eps"


def test_odd_generator_squares_to_zero():
    pres = mixed_ring()
    eps = Element.gen(pres, "eps")
    assert eps * eps == Element.zero(pres)


def test_odd_generators_anticommute():
    pres = two_odds()
    a, b = Element.gen(pres, "a"), Element.gen(pres, "b")
    assert a * b == -(b * a)


def test_even_generator_commutes_with_everything():
    pres = mixed_ring()
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    assert v1 * eps == eps * v1


def test_element_arithmetic_and_degree():
    pres = poly_ring()
    v1, v2 = Element.gen(pres, "v1"), Element.gen(pres, "v2")
    x = 2 * v1**3 - v2
    assert x.degree() == 6
    assert x.is_homogeneous()
    assert not (v1 + v2).is_homogeneous()
    assert (v1 + v2).degree() is None
    assert (x - x) == Element.zero(pres)
    assert poly_str(x) == "2 v1^3 - v2"


def test_negative_exponents_require_laurent_flag():
    plain = make_presentation([("v", 2, False)])
    with pytest.raises(ValueError):
        Element.monomial(plain, (-1,))
    inverted = localize(plain, "v")
    x = Element.monomial(inverted, (-1,))
    assert x.degree() == -2
    assert poly_str(x) == "v^-1"
    assert x * Element.gen(inverted, "v") == Element.one(inverted)


def test_element_from_string_round_trip():
    pres = mixed_ring()
    x = element_from_string(pres, "4 v1^3 eps - 1/2 v1")
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    assert x == 4 * v1**3 * eps - Fraction(1, 2) * v1
    assert element_from_string(pres, poly_str(x)) == x
    assert element_from_string(pres, "2*v1^2") == 2 * v1**2


def test_element_from_string_rejects_unknown_generator():
    with pytest.raises(ValueError):
        element_from_string(poly_ring(), "3 w")


def test_element_from_string_sign_needs_a_term():
    pres = poly_ring()
    v1, v2 = Element.gen(pres, "v1"), Element.gen(pres, "v2")
    assert element_from_string(pres, "- v1 + 2 * v2") == 2 * v2 - v1
    assert element_from_string(pres, "") == Element.zero(pres)
    for text in ["v2 +", "+", "-", "v1 - - v2", "v1 + * -2"]:
        with pytest.raises(ValueError, match="sign must be followed by a term"):
            element_from_string(pres, text)


# -- Koszul sign properties (exhaustive over small monomial windows) -----------


def _small_monomials(pres, max_exp):
    ranges = []
    for i in range(pres.ngens):
        hi = 1 if pres.is_odd(i) else max_exp
        ranges.append(range(hi + 1))
    return [tuple(e) for e in itertools.product(*ranges)]


def test_koszul_sign_symmetry_exhaustive():
    pres = make_presentation([("a", 1, False), ("v", 2, False), ("b", 3, False)])
    monos = _small_monomials(pres, 2)
    for x in monos:
        for y in monos:
            xy = koszul_mul(pres, x, y)
            yx = koszul_mul(pres, y, x)
            if xy is None:
                assert yx is None
                continue
            px = mono_degree(pres, x) % 2
            py = mono_degree(pres, y) % 2
            expected = -1 if (px and py) else 1
            assert xy[1] == yx[1]
            assert xy[0] == expected * yx[0]


def test_koszul_multiplication_is_associative_exhaustive():
    pres = make_presentation([("a", 1, False), ("v", 2, False), ("b", 3, False)])
    monos = _small_monomials(pres, 1)
    elements = [Element.monomial(pres, m) for m in monos]
    for x in elements:
        for y in elements:
            for z in elements:
                assert (x * y) * z == x * (y * z)


def test_scalar_multiplication_both_sides():
    pres = poly_ring()
    v1 = Element.gen(pres, "v1")
    assert 3 * v1 == v1 * 3 == Fraction(3) * v1


# -- monomial bases ------------------------------------------------------------


def test_monomial_basis_polynomial_example():
    pres = poly_ring()
    basis = monomial_basis(pres, 6, caps=5)
    assert [mono_str(pres, m) for m in basis] == ["v1^3", "v2"]


def test_monomial_basis_exterior_example():
    pres = make_presentation([("eps", -7, False)])
    assert monomial_basis(pres, -7) == [(1,)]
    assert monomial_basis(pres, -14) == []


def test_monomial_basis_degree_zero_is_unit():
    pres = poly_ring()
    assert monomial_basis(pres, 0) == [(0, 0)]


def test_monomial_basis_localized_needs_caps():
    pres = localize(poly_ring(), "v2")
    with pytest.raises(ValueError):
        monomial_basis(pres, 0)
    basis = monomial_basis(pres, 0, caps=3)
    assert (0, 0) in basis
    assert (3, -1) in basis


def test_monomial_basis_mixed_signs_need_caps():
    pres = mixed_ring()
    basis = monomial_basis(pres, -1, caps=4)
    assert basis == [(1, 1)]


def test_monomial_basis_caps_dict():
    pres = poly_ring()
    basis = monomial_basis(pres, 6, caps={"v1": 2, "v2": 1})
    assert [mono_str(pres, m) for m in basis] == ["v2"]


def test_monomial_basis_is_sorted_and_duplicate_free():
    pres = mixed_ring()
    for degree in range(-9, 10):
        basis = monomial_basis(pres, degree, caps=5)
        assert basis == sorted(set(basis), reverse=True)
        for m in basis:
            assert mono_degree(pres, m) == degree


def test_degree_pieces_bp_2_4_window_32_301_within_budget():
    """The cone bp:2:4 rung's enumeration: every piece of -32..301 at once."""
    pres = parse_preset("bp:2:4")
    start = time.monotonic()
    pieces = degree_pieces(pres, (-32, 301))
    elapsed = time.monotonic() - start
    assert sorted(pieces) == list(range(-32, 302))
    assert sum(map(len, pieces.values())) == 94022
    assert pieces[300] == monomial_basis(pres, 300)
    assert elapsed < 1, f"degree_pieces on bp:2:4 -32..301 took {elapsed:.2f}s"


@pytest.mark.parametrize("preset, window, caps, loose", [
    ("bp:2:4", (0, 600), None, 10**6),
    ("bp:3:3", (-20, 300), None, 10**6),
    ("a:2:3", (-200, 300), None, 10**6),
    ("en:2:2", (-60, 60), {"v2": 3}, {"v1": 10**6, "v2": 3}),
])
def test_a_loose_cap_leaves_degree_dims_and_pieces_as_they_are(preset, window, caps, loose):
    """A cap no monomial of the window reaches changes no piece, and costs
    no more than the exponents the window can use."""
    pres = parse_preset(preset)
    start = time.monotonic()
    assert degree_dims(pres, window, loose) == degree_dims(pres, window, caps)
    lo, hi = window
    pieces = (lo, min(hi, lo + 200))
    assert degree_pieces(pres, pieces, loose) == degree_pieces(pres, pieces, caps)
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"{preset} over {window} at a loose cap took {elapsed:.2f}s"


# -- Kähler differentials --------------------------------------------------------


def test_kahler_d_of_generator():
    pres = mixed_ring()
    d = kahler_d(Element.gen(pres, "v1"))
    assert d == KahlerElement(pres, {(pres.index("v1"), mono_one(pres)): 1})
    assert d.display() == "d(v1)"


def test_kahler_d_power_rule():
    pres = poly_ring()
    v1 = Element.gen(pres, "v1")
    d = kahler_d(v1**4)
    assert d.coefficients()[pres.index("v1")] == 4 * v1**3
    assert d.display() == "4 v1^3 d(v1)"


def test_kahler_d_mixed_product():
    pres = mixed_ring()
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    d = kahler_d(v1**2 * eps)
    assert d.coefficients()[pres.index("eps")] == v1**2
    assert d.coefficients()[pres.index("v1")] == 2 * v1 * eps
    assert d.display() == "v1^2 d(eps) + 2 v1 eps d(v1)"


def test_kahler_d_is_linear_and_kills_constants():
    pres = poly_ring()
    v1, v2 = Element.gen(pres, "v1"), Element.gen(pres, "v2")
    assert kahler_d(Element.one(pres)).is_zero()
    assert kahler_d(3 * v1 + v2) == 3 * kahler_d(v1) + kahler_d(v2)


def test_kahler_leibniz_rule_exhaustive():
    pres = make_presentation([("a", 1, False), ("v", 2, False)])
    monos = _small_monomials(pres, 2)
    for xm in monos:
        for ym in monos:
            x = Element.monomial(pres, xm)
            y = Element.monomial(pres, ym)
            lhs = kahler_d(x * y)
            sign = -1 if (mono_degree(pres, xm) % 2 and mono_degree(pres, ym) % 2) else 1
            rhs = x * kahler_d(y) + sign * (y * kahler_d(x))
            assert lhs == rhs, (xm, ym)


def test_kahler_d_power_rule_with_negative_exponent():
    pres = localize(make_presentation([("v", 2, False)]), "v")
    x = Element.monomial(pres, (-1,))
    d = kahler_d(x)
    assert d.coefficients()[pres.index("v")] == -1 * Element.monomial(pres, (-2,))


def test_kahler_to_json():
    pres = mixed_ring()
    d = kahler_d(Element.gen(pres, "v1") ** 2)
    assert d.to_json() == {"v1": "2 v1"}


# -- localization ----------------------------------------------------------------


def test_localize_marks_only_target():
    pres = poly_ring()
    loc = localize(pres, "v2")
    assert loc.laurent == (False, True)
    assert localize(loc, "v2") == loc


def test_localize_rejects_odd_or_unknown():
    pres = mixed_ring()
    with pytest.raises(ValueError):
        localize(pres, "eps")
    with pytest.raises(KeyError):
        localize(pres, "w")


# -- multiplication tables and the Ore checker ------------------------------------


def test_table_from_presentation_shape():
    pres = make_presentation([("v", 2, False)])
    table = table_from_presentation(pres, (0, 4), caps=2)
    assert set(table.labels) == {"1", "v", "v^2"}
    assert table.products[("v", "v")] == {"v^2": 1}
    assert table.products[("v", "v^2")] is None  # escapes the window
    assert table.one == {"1": Fraction(1)}


@pytest.mark.parametrize("preset, window", [
    ("bp:2:3", (0, 40)), ("a:2:2", (-10, 12)), ("en:2:2", (-12, 12)), ("hh_a:2:2", (-8, 8)),
])
@pytest.mark.parametrize("caps", [None, 1, 2])
def test_table_is_complete_exactly_without_caps(preset, window, caps):
    pres = parse_preset(preset)
    if caps is None and (any(pres.laurent) or preset.startswith("hh_a")):
        with pytest.raises(ValueError, match="cap"):
            table_from_presentation(pres, window, caps)
        return
    table = table_from_presentation(pres, window, caps)
    lo, hi = window
    clipped = [pair for pair, hit in table.products.items() if hit is None
               and lo <= table.degree[pair[0]] + table.degree[pair[1]] <= hi]
    assert table.complete_degrees is (caps is None)
    # without caps every in-window piece is whole: no product escapes into it
    assert caps is not None or not clipped


def test_mul_table_validation():
    bad = MulTable(
        labels=("x", "y"),
        degree={"x": 0, "y": 0},
        products={("x", "x"): {"x": 1}},
    )
    with pytest.raises(MalformedTableError):
        bad.validate()
    worse = MulTable(
        labels=("x",),
        degree={"x": 0},
        products={("x", "x"): {"ghost": 1}},
    )
    with pytest.raises(MalformedTableError):
        worse.validate()


def test_mul_table_validation_rejects_a_product_of_the_wrong_degree():
    # x x = y, but |y| = 1 is not |x| + |x| = 0; unchecked, S = {x} would
    # close to {x, y, 0} and read "degenerate"
    table = MulTable(("x", "y"), {"x": 0, "y": 1},
                     {("x", "x"): {"y": 1}, ("x", "y"): {}, ("y", "x"): {},
                      ("y", "y"): None})
    with pytest.raises(MalformedTableError, match="of degree 1, not 0"):
        table.validate()
    with pytest.raises(MalformedTableError):
        ore_check(table, ["x"])


def test_mul_table_validation_rejects_a_unit_with_an_unknown_label():
    table = MulTable(("x0",), {"x0": 0}, {("x0", "x0"): {"x0": 1}}, one={"u": 1})
    with pytest.raises(MalformedTableError, match="unit mentions unknown label 'u'"):
        ore_check(table, ["x0"])


def test_mul_table_validation_rejects_a_unit_of_nonzero_degree():
    table = MulTable(("x0", "x2"), {"x0": 0, "x2": 2},
                     {("x0", "x0"): {"x0": 1}, ("x0", "x2"): {"x2": 1},
                      ("x2", "x0"): {"x2": 1}, ("x2", "x2"): None},
                     one={"x2": 1})
    with pytest.raises(MalformedTableError, match="nonzero degree 2"):
        table.validate()


def test_ore_satisfied_on_commutative_table():
    pres = poly_ring()
    table = table_from_presentation(pres, (0, 12), caps=3)
    report = ore_check(table, ["v2"])
    assert report.verdict == "satisfied"
    assert report.commutative


def test_ore_satisfied_on_graded_commutative_table_with_even_s():
    pres = make_presentation([("v1", 2, False), ("sigma1", 3, False),
                              ("delta", -6, False), ("eps", -7, False)])
    table = table_from_presentation(pres, (-10, 10), caps=2)
    report = ore_check(table, ["v1"])
    assert report.verdict == "satisfied"
    assert not report.commutative  # sigma1 eps = -eps sigma1
    assert report.notes[-1].startswith("graded-commutative ring, S even")


def test_ore_graded_commutative_proof_needs_even_s():
    # x and y anticommute; x^2 leaves the window, so S = {x} is odd and alive
    labels = ("1", "x", "y", "z")
    products = {(a, b): None for a in labels for b in labels}
    products.update({("1", a): {a: 1} for a in labels})
    products.update({(a, "1"): {a: 1} for a in labels})
    products.update({("x", "y"): {"z": 1}, ("y", "x"): {"z": -1}})
    table = MulTable(labels=labels, degree={"1": 0, "x": 1, "y": 1, "z": 2},
                     products=products, one={"1": 1}, complete_degrees=False)
    assert ore_check(table, ["x"]).verdict == "inconclusive"


def test_ore_violated_on_matrix_units():
    report = ore_check(matrix_units_table(), ["e11"])
    assert report.verdict == "violated"
    assert report.condition == 1
    assert report.witness == ("e21", "e11")


@pytest.mark.parametrize("s", [{"e11": 1, "e22": 1}, {"e11": 1, "e21": 1, "e22": 1}],
                         ids=["unit", "unipotent"])
def test_ore_satisfied_when_s_consists_of_units(s):
    report = ore_check(matrix_units_table(), [s])
    assert report.verdict == "satisfied"
    assert report.notes[-1].startswith("S consists of units")


def test_ore_unit_proof_checks_every_product():
    # x0 x0 = x0 (the table's unit is its own inverse), but x1 x0 = x1 while
    # x0 x1 = 0: x1 x0 is no x0 y, in this table that is no algebra
    table = MulTable(("x0", "x1"), {"x0": 0, "x1": 0},
                     {("x0", "x0"): {"x0": 1}, ("x0", "x1"): {},
                      ("x1", "x0"): {"x1": 1}, ("x1", "x1"): {}}, one={"x0": 1})
    report = ore_check(table, ["x0"])
    assert (report.verdict, report.condition, report.witness) == ("violated", 1, ("x1", "x0"))


def test_ore_violated_on_condition_2():
    # x1 x0 = x0 and x0 x0 = x0, so no t in S = {x0} ever kills x1, while
    # x0 x1 = 0.  Not associative; the checker reads only the table.
    table = MulTable(("x0", "x1"), {"x0": 0, "x1": 0},
                     {("x0", "x0"): {"x0": 1}, ("x0", "x1"): {},
                      ("x1", "x0"): {"x0": 1}, ("x1", "x1"): {}})
    report = ore_check(table, ["x0"])
    assert report.verdict == "violated"
    assert report.condition == 2
    assert report.witness == ("x1", "x0")


def test_ore_degenerate_when_closure_hits_zero():
    pres = mixed_ring()
    table = table_from_presentation(pres, (-20, 0), caps=2)
    report = ore_check(table, ["eps"])
    assert report.verdict == "degenerate"
    assert "0" in report.closure


def test_ore_inconclusive_on_incomplete_table():
    pres = poly_ring()
    # capped table: degreewise incomplete, and v2·v1^3 escapes the window
    table = table_from_presentation(pres, (0, 6), caps=1)
    report = ore_check(table, ["v2"])
    assert report.verdict in ("satisfied", "inconclusive")
    # matrix-units truncated to a partial window must never report violated
    partial = MulTable(
        labels=("e11", "e21"),
        degree={"e11": 0, "e21": 0},
        products={
            ("e11", "e11"): {"e11": 1},
            ("e11", "e21"): {},
            ("e21", "e11"): {"e21": 1},
            ("e21", "e21"): {},
        },
        complete_degrees=False,
    )
    report2 = ore_check(partial, ["e11"])
    assert report2.verdict == "inconclusive"


def test_ore_report_json_shape():
    report = ore_check(matrix_units_table(), ["e11"])
    j = report.to_json()
    assert j["verdict"] == "violated"
    assert j["witness"] == {"x": "e21", "s": "e11"}
