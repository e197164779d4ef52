"""Trace classes of algebra elements and the one-form obstruction report."""

import time
from fractions import Fraction

import pytest

from gradedhh import hochschild
from gradedhh.chromatic_presets import ChromaticParams, a_q
from gradedhh.graded_algebra import Element, kahler_d, make_presentation
from gradedhh.hochschild import BarChain, D_map, hochschild_diff
from gradedhh.trace_obstruction import (
    constant_loops_chain,
    displayed_obstruction_class,
    membership_test,
    obstruction_report,
    trace_class,
)


def one_even():
    return make_presentation([("v", 2, False)])


# -- constant-loop chains -----------------------------------------------------


def test_constant_loops_level_one():
    pres = one_even()
    v = Element.gen(pres, "v")
    chain = constant_loops_chain([v])
    assert chain.level == 1
    assert chain.terms == {
        ((0,), (1,)): Fraction(1),
        ((1,), (0,)): Fraction(-1),
    }


def test_constant_loops_level_two():
    pres = one_even()
    v = Element.gen(pres, "v")
    chain = constant_loops_chain([v, v])
    # subtracted term carries the sum of the inputs at position zero
    assert chain.terms == {
        ((0,), (1,), (0,)): Fraction(1),
        ((0,), (0,), (1,)): Fraction(1),
        ((1,), (0,), (0,)): Fraction(-2),
    }


def test_constant_loops_zero_inputs_give_zero_chain():
    pres = one_even()
    chain = constant_loops_chain([Element.zero(pres)])
    assert chain.is_zero()


def test_constant_loops_rejects_mixed_presentations():
    v = Element.gen(one_even(), "v")
    w = Element.gen(make_presentation([("w", 2, False)]), "w")
    with pytest.raises(ValueError):
        constant_loops_chain([v, w])


def test_constant_loops_rejects_inhomogeneous_input():
    pres = make_presentation([("a", 2, False), ("b", 4, False)])
    x = Element.gen(pres, "a") + Element.gen(pres, "b")
    with pytest.raises(ValueError):
        constant_loops_chain([x])


# -- trace classes and the derivation contract ---------------------------------


def test_trace_class_of_generator():
    pres = one_even()
    v = Element.gen(pres, "v")
    tc = trace_class(v)
    assert tc.normalized.terms == {((0,), (1,)): Fraction(1)}
    assert tc.D_value == kahler_d(v)
    assert hochschild_diff(tc.chain).is_zero()


def test_trace_class_of_power():
    pres = one_even()
    v = Element.gen(pres, "v")
    tc = trace_class(v**3)
    assert tc.D_value == kahler_d(v**3)
    assert tc.D_value.coefficients()[pres.index("v")] == 3 * v**2


def test_trace_class_requires_positive_degree():
    pres = make_presentation([("eps", -3, False)])
    with pytest.raises(ValueError):
        trace_class(Element.gen(pres, "eps"))
    with pytest.raises(ValueError):
        trace_class(Element.one(pres))
    with pytest.raises(ValueError):
        trace_class(Element.zero(pres))


def test_trace_class_json_round():
    pres = one_even()
    tc = trace_class(Element.gen(pres, "v"))
    j = tc.to_json()
    assert j["D_display"] == "d(v)"
    assert set(j) == {"chain", "normalized", "D_value", "D_display"}


# -- membership of one-forms in the even-subring image ---------------------------


def test_membership_detects_d_eps_component():
    pres = a_q(ChromaticParams(2, 2))
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    omega = v1**4 * kahler_d(eps) + 4 * v1**3 * eps * kahler_d(v1)
    result = membership_test(omega)
    assert not result.in_image
    assert result.witness_generator == "d(eps)"
    assert result.witness_coefficient == "v1^4"

    also_out = eps * kahler_d(v1)
    r2 = membership_test(also_out)
    assert not r2.in_image
    assert r2.witness_generator == "d(v1)"
    assert r2.witness_coefficient == "eps"

    inside = v1**2 * kahler_d(v1)
    assert membership_test(inside).in_image


def test_membership_requires_exactly_one_odd_generator():
    even_only = make_presentation([("v", 2, False)])
    with pytest.raises(ValueError):
        membership_test(kahler_d(Element.gen(even_only, "v")))


# -- obstruction reports -----------------------------------------------------------


def test_obstruction_report_height_two():
    report = obstruction_report(2, 2, [4])
    j = report.to_json()
    assert j["class"] == "v1^4 eps"
    assert j["total_degree"] == 1
    assert j["D_display"] == "v1^4 d(eps) + 4 v1^3 eps d(v1)"
    assert j["is_cycle"]
    assert j["nonzero_in_HH"]
    assert not j["in_subalgebra_image"]
    assert j["matches_displayed_class"]
    assert j["eps_count_excludes_image"]
    assert j["routes_agree"]
    assert j["all_ok"]


def test_obstruction_displayed_class_formula():
    pres = a_q(ChromaticParams(2, 2))
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    omega = displayed_obstruction_class(pres, (4,))
    assert omega == v1**4 * kahler_d(eps) + 4 * v1**3 * eps * kahler_d(v1)


def test_obstruction_rejects_nonpositive_degree():
    # v1^1 eps at (p, n) = (2, 2) has degree 2 - 7 = -5
    with pytest.raises(ValueError, match="positive total degree"):
        obstruction_report(2, 2, [1])


def test_obstruction_height_one_has_no_candidates():
    for p in (2, 3):
        with pytest.raises(ValueError, match="positive total degree"):
            obstruction_report(p, 1, [])


def test_obstruction_validates_exponent_shape():
    with pytest.raises(ValueError):
        obstruction_report(2, 2, [1, 2])  # needs exactly n-1 = 1 exponents
    with pytest.raises(ValueError):
        obstruction_report(2, 2, [-1])
    with pytest.raises(ValueError):
        obstruction_report(2, 0, [])


def test_obstruction_builds_no_bar_window(monkeypatch):
    # nonvanishing is read through the Morse complex alone
    def refuse(*args):
        raise AssertionError("obstruction_report built a bar complex")

    monkeypatch.setattr(hochschild, "bar_basis", refuse)
    monkeypatch.setattr(hochschild, "bar_window", refuse)
    assert obstruction_report(2, 2, [8]).all_ok


def test_obstruction_exponent_12_within_budget():
    """The exponent-12 rung: a bar complex of 57,344 cells, 4 of them critical."""
    start = time.monotonic()
    report = obstruction_report(2, 2, [12])
    elapsed = time.monotonic() - start
    assert report.all_ok and report.is_cycle and report.nonzero_in_HH
    assert report.to_json()["class"] == "v1^12 eps"
    assert elapsed < 1, f"obstruction_report(2, 2, [12]) took {elapsed:.2f}s"


def test_obstruction_exponent_40_within_budget():
    """The Morse complex holds 4 of the bar complex's about 4.6 * 10^13 cells."""
    start = time.monotonic()
    report = obstruction_report(2, 2, [40])
    elapsed = time.monotonic() - start
    assert report.all_ok and report.is_cycle and report.nonzero_in_HH
    assert report.to_json()["class"] == "v1^40 eps"
    assert elapsed < 2, f"obstruction_report(2, 2, [40]) took {elapsed:.2f}s"


def test_obstruction_at_height_3_exponents_40_40_within_budget():
    """Multidegree (40, 40, 1): 8 critical cells, and a short flow from the trace."""
    start = time.monotonic()
    report = obstruction_report(2, 3, [40, 40])
    elapsed = time.monotonic() - start
    assert report.all_ok and report.is_cycle and report.nonzero_in_HH
    assert report.to_json()["class"] == "v1^40 v2^40 eps"
    assert elapsed < 1, f"obstruction_report(2, 3, [40, 40]) took {elapsed:.2f}s"


def test_obstruction_report_higher_height():
    # v1^5 eps for p = 3: degree 5.4 - 17 = 3 > 0
    report = obstruction_report(3, 2, [5])
    j = report.to_json()
    assert j["class"] == "v1^5 eps"
    assert j["total_degree"] == 3
    assert j["all_ok"]


def test_trace_D_and_kahler_d_agree_on_many_monomials():
    pres = a_q(ChromaticParams(2, 2))
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    for x in [v1, v1**2, v1**5, v1**4 * eps, v1**7 * eps]:
        tc = trace_class(x)
        assert tc.D_value == kahler_d(x)
        assert D_map(tc.chain.normalized()) == kahler_d(x)


def test_trace_chain_is_a_cycle_for_monomials():
    pres = a_q(ChromaticParams(2, 2))
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    for x in [v1, v1**3, v1**4 * eps]:
        tc = trace_class(x)
        assert hochschild_diff(tc.chain).is_zero(), x
