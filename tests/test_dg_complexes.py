"""Chain windows, cones, and the two-by-two matrix DG algebra."""

import json
import time
from fractions import Fraction

import pytest

from gradedhh.chromatic_presets import ChromaticParams, a_q, bp_q, eps_degree
from gradedhh.dg_complexes import (
    ChainWindow,
    GradedComplex,
    MatrixDGAElement,
    _cycle_terms,
    _diff_pairs,
    _product_pairs,
    _vanishes,
    _vn_free_cycle_shape,
    assemble,
    build_mdga_window,
    commutative_model_check,
    cone_report,
    degree_dims,
    dga_diff,
    dga_structure_check,
    homology_ring_check,
    matrix_dga,
    mdga_diag,
    mdga_element,
    mdga_eps,
    mdga_window_labels,
)
import gradedhh.dg_complexes as dg_complexes
from gradedhh.cli import main as cli_main, parse_preset
import gradedhh.exact_linear as exact_linear
from gradedhh.exact_linear import RationalMatrix, combine, rank
from gradedhh.graded_algebra import (
    Element,
    degree_pieces,
    element_from_string,
    koszul_mul,
    make_presentation,
    mono_one,
    monomial_basis,
)
from gradedhh.hochschild import bar_window, morse_complex, multidegrees_up_to
import reference
from reference import coordinates, cycle_labels, cycles_inclusion, from_rows, quasi_iso_check
from test_imports import _load_tracer


def poly_ring():
    return make_presentation([("v1", 2, False), ("v2", 6, False)])


# -- degree dims and chain windows ---------------------------------------------


def test_degree_dims_polynomial():
    dims = degree_dims(poly_ring(), (-2, 8))
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 2,
                    7: 0, 8: 2}


def test_chain_window_rejects_gaps_and_bad_shapes():
    with pytest.raises(ValueError):
        ChainWindow({0: ["x"], 2: ["y"]}, {})
    with pytest.raises(ValueError):
        ChainWindow({0: ["x"], 1: ["y"]}, {})  # missing differential
    with pytest.raises(ValueError):
        ChainWindow({0: ["x"], 1: ["y"]}, {1: RationalMatrix(2, 1)})


def test_chain_window_rejects_nonzero_d_squared():
    one = from_rows([[1]])
    with pytest.raises(ValueError):
        ChainWindow({0: ["x"], 1: ["y"], 2: ["z"]}, {1: one, 2: one})


def test_assemble_sums_pairs_and_rejects_escapes():
    m = assemble(["x", "y"], ["u", "v"],
                 lambda s: [("u", 1), ("u", 2)] if s == "x" else [("v", -1)])
    assert m == from_rows([[3, 0], [0, -1]])
    with pytest.raises(ValueError, match="escaped"):
        assemble(["x"], ["u"], lambda s: [("w", 1)])


def test_chain_window_homology_needs_padding():
    w = ChainWindow(
        {0: ["x"], 1: ["y"], 2: ["z"]},
        {1: from_rows([[1]]), 2: RationalMatrix(1, 1)},
    )
    assert w.homology_dims((1, 1)) == {1: 0}
    with pytest.raises(ValueError):
        w.homology_dims((0, 1))


# -- cones on multiplication maps ------------------------------------------------


def test_cone_on_regular_element_matches_quotient():
    pres = poly_ring()
    v2 = Element.gen(pres, "v2")
    report = cone_report(pres, v2, (-4, 8))
    nonzero = {t: d for t, d in report["homology_dims"].items() if d}
    assert nonzero == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    assert report["regular"]
    assert report["dims_match_quotient"]
    assert report["comparison_binding"]


def test_cone_on_zero_gives_summand_and_shift():
    pres = poly_ring()
    report = cone_report(pres, Element.zero(pres), (-2, 4), caps=3)
    nonzero = {t: d for t, d in report["homology_dims"].items() if d}
    assert nonzero == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert not report["regular"]
    assert not report["comparison_binding"]


def test_cone_on_unit_is_acyclic():
    pres = poly_ring()
    report = cone_report(pres, Element.one(pres), (-2, 4), caps=3)
    assert all(d == 0 for d in report["homology_dims"].values())


def test_cone_requires_homogeneous_attaching_map():
    pres = poly_ring()
    v1, v2 = Element.gen(pres, "v1"), Element.gen(pres, "v2")
    with pytest.raises(ValueError, match="homogeneous"):
        GradedComplex(pres, v1 + v2)


def test_graded_complex_rejects_non_elements_and_foreign_rings():
    pres = poly_ring()
    other = make_presentation([("v1", 2, False)])
    with pytest.raises(ValueError, match="Element over pres"):
        GradedComplex(pres, 1)
    with pytest.raises(ValueError, match="Element over pres"):
        GradedComplex(pres, Element.gen(other, "v1"))


def test_graded_complex_degree_takes_zero_in_degree_zero():
    pres = poly_ring()
    assert GradedComplex(pres, Element.gen(pres, "v2")).degree == 6
    assert GradedComplex(pres, Element.zero(pres)).degree == 0


def test_realized_cone_homology_on_a_regular_element():
    pres = poly_ring()
    c = GradedComplex(pres, Element.gen(pres, "v2"))
    dims = c.realize((0, 4)).homology_dims((0, 4))
    assert dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def _reference_cone_report(pres, r, window, caps):
    """quotient_dims and regular from multiplication matrices on degree pieces."""
    lo, hi = window
    d = r.degree() or 0

    def mult(source):
        return assemble(
            monomial_basis(pres, source, caps),
            monomial_basis(pres, source + d, caps),
            lambda mono: [(hit[1], hit[0] * c) for m, c in r.terms.items()
                          if (hit := koszul_mul(pres, m, mono)) is not None],
        )

    quotient = {
        t: len(monomial_basis(pres, t, caps)) - rank(mult(t - d))
        for t in range(lo, hi + 1)
    }
    # every source degree that homology on [lo, hi] depends on; for d >= 0
    # this is [lo - d - 1, hi]
    sources = range(lo - d - 1, max(hi, hi - d) + 1)
    regular = all(rank(m) == m.cols for m in map(mult, sources))
    return quotient, regular


def _streamed_cone_report(pres, r, window, caps):
    """cone_report as streamed before the count route, the reference of
    every counted cone (one term, or over at most one odd generator): one
    degree_pieces enumeration over the hull, then one multiplication block
    per degree, assembled through koszul_mul, ranked and dropped."""
    lo, hi = window
    d = GradedComplex(pres, r).degree
    top = hi + max(0, d)
    pieces = degree_pieces(pres, (lo - 1 - max(0, d + 1), top + 1 - min(0, d + 1)), caps)
    ranks = {}
    for t in range(lo, top + 2):
        ranks[t] = rank(assemble(
            pieces[t - d - 1], pieces[t - 1],
            lambda mono: [(hit[1], hit[0] * c) for m, c in r.terms.items()
                          if (hit := koszul_mul(pres, m, mono)) is not None],
        ))
    quotient = {t: len(pieces[t]) - ranks[t + 1] for t in range(lo, hi + 1)}
    computed = {t: q + len(pieces[t - d - 1]) - ranks[t] for t, q in quotient.items()}
    regular = all(ranks[t] == len(pieces[t - d - 1]) for t in ranks)
    return {"window": [lo, hi], "homology_dims": computed, "quotient_dims": quotient,
            "regular": regular, "dims_match_quotient": computed == quotient,
            "comparison_binding": regular}


def _outcome(report, *args):
    try:
        return report(*args)
    except ValueError as exc:
        return str(exc)


CONE_REFERENCE_CASES = [
    (preset, element, window, caps)
    for preset, elements, windows, cap_values in [
        ("bp:2:2", ["v2", "v1^2", "v1 v2", "0", "1", "1/2 v2 + 2/3 v1^3"],
         [(-4, 12)], [None, 3, {"v1": 2}]),
        ("a:2:2", ["eps", "v1^4 eps", "v1", "0", "1"],
         [(-20, -13), (-16, 6)], [None, 3]),
        # caps 0 and 1 cap an odd generator out
        ("hh_a:2:2", ["sigma1", "delta", "eps", "v1^4 eps", "0", "1"],
         [(-12, 6)], [0, 1, 2, 4]),
        ("en:2:2", ["v2^-1", "v1 v2^-1"], [(-12, 12)], [0, 1, 2, 3]),
        # several terms over one odd generator: f != 0, and f = 0 (a zero
        # divisor, r = g eps); cap 9 cuts the pieces, and escapes for v1^3 + v2
        ("a:2:3", ["v1^3 + v2", "v1^3 eps + v2 eps"], [(-20, 4)], [None, 9]),
        # several terms over several odd generators: the realized route
        ("hh_a:2:2", ["v1^3 sigma1 delta^4 + sigma1 delta^3"], [(-5, 3)], [2, 3]),
    ]
    for element in elements
    for window in windows
    for caps in cap_values
]


@pytest.mark.parametrize(
    "preset, element, window, caps", CONE_REFERENCE_CASES,
    ids=[f"{p}-{e}-{w[0]}:{w[1]}-caps{c}" for p, e, w, c in CONE_REFERENCE_CASES],
)
def test_cone_report_matches_multiplication_reference(preset, element, window, caps):
    pres = parse_preset(preset)
    r = element_from_string(pres, element)

    def report(*args):
        out = cone_report(*args)
        return out["quotient_dims"], out["regular"]

    got = _outcome(report, pres, r, window, caps)
    assert got == _outcome(_reference_cone_report, pres, r, window, caps)
    streamed = _outcome(_streamed_cone_report, pres, r, window, caps)
    assert _outcome(cone_report, pres, r, window, caps) == streamed
    if not isinstance(got, str):
        full = cone_report(pres, r, window, caps)
        win = GradedComplex(pres, r).realize(window, caps)
        assert full["homology_dims"] == win.homology_dims(window)


def test_cone_report_builds_no_chain_window(monkeypatch):
    cases = [(parse_preset(p), e, w, caps) for p, e, w, caps in CONE_REFERENCE_CASES]
    cases = [(pres, element_from_string(pres, e), w, caps) for pres, e, w, caps in cases]
    # several terms over several odd generators realize the cone's window
    cases = [(pres, r, w, caps) for pres, r, w, caps in cases
             if len(r.terms) < 2 or sum(map(pres.is_odd, range(pres.ngens))) < 2]
    want = [_outcome(cone_report, *case) for case in cases]

    def refuse(self, *args):
        raise AssertionError("cone_report built a ChainWindow")

    monkeypatch.setattr(ChainWindow, "__init__", refuse)
    assert [_outcome(cone_report, *case) for case in cases] == want
    assert dg_complexes._ESCAPED in want and any(isinstance(o, dict) for o in want)


def _labelwise_realize(c, window, caps=None):
    """GradedComplex.realize rebuilt from its definition, the reference it
    is checked against: degree t's basis is term 0 on monomial_basis(t),
    then term 1 on monomial_basis(t - d - 1), and column (1, u) of diff[t]
    is the product r * u of Element.__mul__ on the one-term element u, put
    entry by entry into a RationalMatrix.  A product outside the target
    basis raises _ESCAPED, as assemble does; (0, u) goes to 0."""
    lo, hi = window
    pres, d = c.pres, c.degree
    degrees = range(lo - 1, hi + 2)
    basis = {t: [(0, u) for u in monomial_basis(pres, t, caps)]
             + [(1, u) for u in monomial_basis(pres, t - d - 1, caps)] for t in degrees}
    diff = {}
    for t in degrees[1:]:
        row = {label: i for i, label in enumerate(basis[t - 1])}
        entries = {}
        for j, (term, u) in enumerate(basis[t]):
            for mono, coeff in (c.r * Element.monomial(pres, u)).terms.items() if term else ():
                if (0, mono) not in row:
                    raise ValueError(dg_complexes._ESCAPED)
                entries[row[0, mono], j] = coeff
        diff[t] = RationalMatrix(len(basis[t - 1]), len(basis[t]), entries)
    return ChainWindow(basis, diff)


def _odd_cones():
    """(cone, window, caps) of cones on elements with odd terms, whose
    products meet odd monomials and so take Koszul signs."""
    pres = make_presentation([("x", 3), ("y", 3), ("v", 2)])
    x, y, v = (Element.gen(pres, g) for g in ("x", "y", "v"))
    half = Fraction(1, 2)
    return [
        (GradedComplex(pres, x + y), (-2, 16), None),
        (GradedComplex(pres, half * v * x + half * v * y), (0, 18), None),
        (GradedComplex(pres, x - y), (0, 18), 2),
        (GradedComplex(pres, half * v * x + half * v * y), (0, 18), 2),  # caps too tight
    ]


REALIZE_CASES = [
    (f"cone-{p}-{e}-{w[0]}:{w[1]}-caps{caps}", "cone", (p, e, w, caps))
    for p, e, w, caps in CONE_REFERENCE_CASES
] + [(f"odd-{i}", "odd", i) for i in range(len(_odd_cones()))]


def _realize_case(kind, case):
    if kind == "cone":
        preset, element, (lo, hi), caps = case
        pres = parse_preset(preset)
        c = GradedComplex(pres, element_from_string(pres, element))
        # the degrees cone_report ranks: its blocks are this window's differentials
        return c, (lo, hi + max(0, c.degree)), caps
    return _odd_cones()[case]


@pytest.mark.parametrize("kind, case", [(k, c) for _, k, c in REALIZE_CASES],
                         ids=[name for name, _, _ in REALIZE_CASES])
def test_realize_equals_the_labelwise_reference(kind, case):
    c, window, caps = _realize_case(kind, case)
    want = _outcome(_labelwise_realize, c, window, caps)
    got = _outcome(c.realize, window, caps)
    if isinstance(want, str):
        assert got == want == dg_complexes._ESCAPED
        return
    assert got.basis == want.basis
    assert got.diff == want.diff
    for t, m in got.diff.items():
        assert list(m.data.items()) == list(want.diff[t].data.items()), t
        # the stored form, which == cannot tell from Fraction(2, 1) and the like
        assert all(type(v) is int and v or type(v) is Fraction and v.denominator != 1
                   for row in m.data.values() for v in row.values()), t


def test_realize_reference_cases_raise_escapes_and_meet_odd_signs():
    outcomes = [_outcome(_labelwise_realize, *_realize_case(k, c))
                for _, k, c in REALIZE_CASES]
    escaped = [o for o in outcomes if isinstance(o, str)]
    assert escaped and set(escaped) == {dg_complexes._ESCAPED}
    # some differential has a -1 entry: an odd map met an odd monomial
    assert any(v == -1 for win in outcomes if not isinstance(win, str)
               for m in win.diff.values() for row in m.data.values()
               for v in row.values())


@pytest.mark.parametrize(
    "preset, element, window, caps", CONE_REFERENCE_CASES,
    ids=[f"{p}-{e}-{w[0]}:{w[1]}-caps{c}" for p, e, w, c in CONE_REFERENCE_CASES],
)
def test_cone_report_counts_equal_the_per_label_scan(preset, element, window, caps):
    pres = parse_preset(preset)
    r = element_from_string(pres, element)
    c, padded, _ = _realize_case("cone", (preset, element, window, caps))
    win = _outcome(c.realize, padded, caps)
    if isinstance(win, str):
        assert _outcome(cone_report, pres, r, window, caps) == win
        return
    unshifted = {t: sum(term == 0 for term, _ in labels) for t, labels in win.basis.items()}
    shifted = {t: sum(term == 1 for term, _ in labels) for t, labels in win.basis.items()}
    assert all(unshifted[t] + shifted[t] == len(win.basis[t]) for t in win.basis)
    lo, hi = window
    report = cone_report(pres, r, window, caps)
    assert report["quotient_dims"] == {
        t: unshifted[t] - win.rank(t + 1) for t in range(lo, hi + 1)}
    assert report["regular"] == all(win.rank(t) == shifted[t] for t in win.diff)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(dg_complexes, name)

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(dg_complexes, name, counted)
    return calls


def test_cone_report_counts_over_one_odd_generator_and_realizes_over_several(monkeypatch):
    calls = _count_calls(monkeypatch, "degree_pieces")
    blocks = _count_calls(monkeypatch, "assemble")
    pres = parse_preset("bp:3:3")
    report = cone_report(pres, element_from_string(pres, "v3 + v1^13"), (0, 60))
    assert report["dims_match_quotient"] is True
    # two terms over no odd generator: counted, nothing enumerated and no
    # differential assembled, and the same report as the one term of the
    # same degree
    assert calls == blocks == []
    assert cone_report(pres, Element.gen(pres, "v3"), (0, 60)) == report
    assert calls == blocks == []
    # two terms over two odd generators: realized on [-5, 3] (|r| = -15),
    # one degree_pieces call over the hull and one assemble per degree of
    # [-5, 4]
    pres = parse_preset("hh_a:2:2")
    r = element_from_string(pres, "v1^3 sigma1 delta^4 + sigma1 delta^3")
    realized = cone_report(pres, r, (-5, 3), 3)
    assert calls == [(-6, 18)]
    assert len(blocks) == 10
    assert realized == _streamed_cone_report(pres, r, (-5, 3), 3)


def test_build_mdga_window_enumerates_the_window_once(monkeypatch):
    calls = _count_calls(monkeypatch, "degree_pieces")
    dga = matrix_dga(2, 2)
    win = build_mdga_window(dga, (-12, 8))
    assert calls == [(-13 - dga.offdiag, 9 + dga.offdiag)]
    assert win.basis == {k: mdga_window_labels(dga, (k, k))[k] for k in range(-13, 10)}


def test_cone_report_negative_degree_zero_divisor_is_not_regular():
    # |eps| = -7 and eps^2 = 0: homology at -13 depends on eps acting on
    # the degree -7 piece, which lies above the window [-20, -13]
    pres = a_q(ChromaticParams(2, 2))
    report = cone_report(pres, Element.gen(pres, "eps"), (-20, -13))
    assert report["homology_dims"][-13] == 1
    assert report["quotient_dims"][-13] == 0
    assert not report["regular"]
    assert not report["comparison_binding"]


def test_cone_report_regularity_reads_both_end_source_degrees():
    # |eps| = -7, so degree t reads the source P_{t+6}; eps kills P_{-7} = {eps}
    # and the pieces next to it, P_{-8} and P_{-6}, are 0
    pres = a_q(ChromaticParams(2, 2))
    eps = Element.gen(pres, "eps")
    low = cone_report(pres, eps, (-13, -13))  # sources P_{-7}, P_{-6}
    assert low["homology_dims"] == {-13: 1}
    assert low["quotient_dims"] == {-13: 0}
    assert not low["regular"]
    high = cone_report(pres, eps, (-14, -14))  # sources P_{-8}, P_{-7}
    assert high["homology_dims"] == high["quotient_dims"] == {-14: 0}
    assert not high["regular"]


def _count_ranks(monkeypatch):
    """Record the matrix of every elimination dg_complexes asks for."""
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(dg_complexes, "rank", counted)
    return calls


def test_homology_ranks_each_differential_once(monkeypatch):
    win = bar_window(a_q(ChromaticParams(2, 2)), (3, 1))  # hh_dims ranks no window
    calls = _count_ranks(monkeypatch)
    win.homology_dims((0, 4))
    win.homology_dims((1, 3))
    # in ascending order, each on the whole differential
    assert len(calls) == len(win.diff)
    assert all(m is win.diff[t] for m, t in zip(calls, sorted(win.diff)))


def test_the_tracer_sees_each_window_rank():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        window = morse_complex(a_q(ChromaticParams(2, 2)), (2, 1))[0]
        window.homology_dims((0, window.hi - 1))
    finally:
        tracer.uninstall()
    (_, (window, *_), _), = tracer.calls["dg_complexes.ChainWindow.validate"]
    ranked = [m for _, (m,), _ in tracer.calls["exact_linear.rank"]]
    assert len(ranked) == len(window.diff)
    assert all(m is window.diff[t] for m, t in zip(ranked, sorted(window.diff)))


def test_commutative_model_check_ranks_each_differential_once(monkeypatch):
    lo, hi = -12, 8
    calls = _count_ranks(monkeypatch)
    assert commutative_model_check(2, 2, (lo, hi))["all_ok"]
    # at most the sub and ambient differentials plus one stacked matrix per degree
    assert len(calls) <= 3 * (hi - lo + 2)


def test_rank_out_of_order_ranks_each_differential_once(monkeypatch):
    pres = a_q(ChromaticParams(2, 2))
    ascending = bar_window(pres, (4, 1))
    want = {t: ascending.rank(t) for t in sorted(ascending.diff)}
    win = bar_window(pres, (4, 1))
    calls = _count_ranks(monkeypatch)
    order = (3, 2, 3, 4, 2)
    assert [win.rank(t) for t in order] == [want[t] for t in order]
    # each on the whole differential, a repeat answered from the cache
    assert len(calls) == 3
    assert all(m is win.diff[t] for m, t in zip(calls, (3, 2, 4)))


# -- the windows whose ranks test_properties checks against Gauss-Jordan ---------------


def _bar_windows():
    """The bar complexes of acceptance criterion 1: weight <= 5 on its presets."""
    presets = [
        make_presentation([("v", 2, False)]),
        make_presentation([("y", 3, False)]),
        a_q(ChromaticParams(2, 2)),
        a_q(ChromaticParams(3, 2)),
    ]
    return [bar_window(pres, m) for pres in presets for m in multidegrees_up_to(pres, 5)]


def _cone_windows():
    """The cones of the cone reference cases, realized on the degrees
    cone_report ranks."""
    out = []
    for preset, element, (lo, hi), caps in CONE_REFERENCE_CASES:
        pres = parse_preset(preset)
        c = GradedComplex(pres, element_from_string(pres, element))
        try:
            out.append(c.realize((lo, hi + max(0, c.degree)), caps))
        except ValueError:  # caps too tight for the window
            pass
    return out


def _mdga_windows():
    """The matrix-DGA windows of the acceptance and flat pair-check cases."""
    return [build_mdga_window(matrix_dga(p, n), window)
            for p, n, window in [(2, 2, (-12, 8)), (3, 1, (-10, 6)), *FLAT_CHECK_CASES]]


def test_homology_keeps_the_rank_of_each_differential():
    dga = matrix_dga(2, 2)
    for win in [
        bar_window(a_q(ChromaticParams(2, 2)), (4, 1)),
        build_mdga_window(dga, (-12, 8)),
        GradedComplex(dga.pres, Element.gen(dga.pres, "v2")).realize((0, 40)),
    ]:
        lo, hi = win.lo + 1, win.hi - 1
        win.homology_dims((lo, hi))
        assert win._ranks == {t: rank(win.diff[t]) for t in range(lo, hi + 2)}


# -- matrix DGA: elements and differential -----------------------------------------


def mdga_identity(dga):
    """The unit [[1, 0], [0, 1]] of the matrix DGA, in degree 0."""
    one = mono_one(dga.pres)
    return MatrixDGAElement.from_terms(dga, 0, {("a", one): 1, ("d", one): 1})


def test_matrix_dga_shape_and_unit_degrees():
    dga = matrix_dga(2, 2)
    assert dga.offdiag == 7
    assert dga.pres == bp_q(ChromaticParams(2, 2))
    eps = mdga_eps(dga)
    assert eps.k == -7
    one = mdga_identity(dga)
    assert one.k == 0
    assert one * one == one
    with pytest.raises(ValueError):
        matrix_dga(2, 0)


def test_mdga_slot_degree_validation():
    dga = matrix_dga(2, 1)
    v1 = Element.gen(dga.pres, "v1")
    mdga_diag(dga, v1)  # fine: degree 2 in both diagonal slots
    with pytest.raises(ValueError):
        mdga_diag(dga, Element.gen(dga.pres, "v1") + Element.one(dga.pres))


def test_mdga_equality_and_hash_see_terms_only():
    dga = matrix_dga(2, 1)
    zeros = {MatrixDGAElement.zero(dga, 0), MatrixDGAElement.zero(dga, 1)}
    assert MatrixDGAElement.zero(dga, 0) == MatrixDGAElement.zero(dga, 1)
    assert len(zeros) == 1
    eps = mdga_eps(dga)
    assert len({eps, eps + MatrixDGAElement.zero(dga, 5)}) == 1


def test_mdga_addition_rejects_mixed_degrees():
    dga = matrix_dga(2, 1)
    with pytest.raises(ValueError):
        mdga_identity(dga) + mdga_eps(dga)


def test_dga_diff_frozen_values():
    dga = matrix_dga(2, 1)
    pres = dga.pres
    v1 = Element.gen(pres, "v1")
    zero, one = Element.zero(pres), Element.one(pres)

    assert dga_diff(mdga_identity(dga)).is_zero()
    assert dga_diff(mdga_eps(dga)).is_zero()

    e11 = type(mdga_identity(dga))(dga, 0, one, zero, zero, zero)
    d = dga_diff(e11)
    assert d.k == -1
    assert d.a.is_zero() and d.c.is_zero() and d.d.is_zero()
    assert d.b == -v1


def test_dga_diff_squares_to_zero_on_window_basis():
    dga = matrix_dga(2, 2)
    for k, labels in mdga_window_labels(dga, (-9, 9)).items():
        for slot, mono in labels:
            el = mdga_element(dga, k, slot, mono)
            assert dga_diff(dga_diff(el)).is_zero()


def test_dga_diff_is_a_derivation_spot_checks():
    dga = matrix_dga(2, 1)
    pres = dga.pres
    v1 = Element.gen(pres, "v1")
    f = mdga_diag(dga, v1)
    g = mdga_eps(dga)
    sign = -1 if f.k % 2 else 1
    assert dga_diff(f * g) == dga_diff(f) * g + sign * (f * dga_diff(g))


def test_dga_structure_check_reports():
    report = dga_structure_check(2, 1, (-6, 4))
    assert report["d_squared_zero"]
    assert report["derivation_law"]
    assert report["basis_size"] > 0
    assert report["pairs_checked"] == report["basis_size"] ** 2


# -- matrix DGA: the flat pair checks against element-level references ---------------


def _reference_structure_check(p, n, window):
    """dga_structure_check with every product and differential an element."""
    dga = matrix_dga(p, n)
    lo, hi = window
    elements = [mdga_element(dga, k, slot, mono)
                for k, labels in mdga_window_labels(dga, window).items() for slot, mono in labels]
    derivation = True
    for f in elements:
        sign = 1 if f.k % 2 == 0 else -1
        for g in elements:
            rhs = dga_diff(f) * g + sign * (f * dga_diff(g))
            if not (dga_diff(f * g) - rhs).is_zero():
                derivation = False
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "basis_size": len(elements),
        "pairs_checked": len(elements) ** 2,
        "d_squared_zero": all(dga_diff(dga_diff(f)).is_zero() for f in elements),
        "derivation_law": derivation,
    }


def _reference_cycle_shape(el):
    sign = 1 if el.k % 2 == 0 else -1
    return (
        el.c.is_zero()
        and el.d == el.a * sign
        and all(m[el.dga.n - 1] == 0 for slot, m in el.terms if slot in ("a", "b"))
    )


def z_basis(dga, window):
    """Z's basis in the window as ordered (degree, label, element) triples."""
    return [
        (k, label, MatrixDGAElement.from_terms(dga, k, _cycle_terms(k, label)))
        for k, labels in mdga_window_labels(dga, window).items()
        for label in cycle_labels(dga, labels)
    ]


def _model_report(p, n, window, size, closed, commutative, per_degree):
    """commutative_model_check's report from its parts."""
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "subalgebra_size": size,
        "closed_under_product": closed,
        "graded_commutative": commutative,
        "chain_map": True,
        "quasi_iso_per_degree": {str(t): v["iso"] for t, v in sorted(per_degree.items())},
        "all_ok": closed and commutative and all(v["iso"] for v in per_degree.values()),
        "per_degree": per_degree,
    }


def _reference_commutative_model_check(p, n, window):
    """commutative_model_check with every product and differential an element."""
    dga = matrix_dga(p, n)
    triples = z_basis(dga, window)
    closed = commutative = True
    for _, _, f in triples:
        for _, _, g in triples:
            prod = f * g
            if not (_reference_cycle_shape(prod) and dga_diff(prod).is_zero()):
                closed = False
            sign = -1 if (f.k % 2) and (g.k % 2) else 1
            if not (prod - sign * (g * f)).is_zero():
                commutative = False
    amb = build_mdga_window(dga, window)
    per_degree = quasi_iso_check(amb, cycles_inclusion(dga, window, amb), window)
    return _model_report(p, n, window, len(triples), closed, commutative, per_degree)


FLAT_CHECK_CASES = [
    (2, 1, (-8, 4)), (2, 2, (-20, 10)), (3, 2, (-40, 20)), (2, 3, (-30, 10)),
]


@pytest.mark.parametrize("p, n, window", FLAT_CHECK_CASES)
def test_flat_pair_checks_match_element_references(p, n, window):
    assert dga_structure_check(p, n, window) == _reference_structure_check(p, n, window)
    assert (commutative_model_check(p, n, window)
            == _reference_commutative_model_check(p, n, window))


# -- matrix DGA: the class-decided pair checks against the exhaustive loops ---------


def _exhaustive_structure_check(p, n, window, one_per_class=False):
    """dga_structure_check deciding every ordered pair of basis elements, or
    with one_per_class the pairs of the enumerated labels' last member of
    each (slot, k mod 2) class, for windows too large for every pair."""
    dga = matrix_dga(p, n)
    labels = [(k, label) for k, ls in mdga_window_labels(dga, window).items() for label in ls]
    vn = dga.vn_mono
    elements = []
    for k, label in labels:
        f = ((label, 1),)
        elements.append((k, f, tuple(_diff_pairs(vn, k, f))))
    if one_per_class:
        elements = list({(f[0][0][0], k % 2): (k, f, df) for k, f, df in elements}.values())
    d_squared = all(_vanishes(_diff_pairs(vn, k - 1, df)) for k, _, df in elements)
    derivation = True
    for kf, f, df in elements:
        minus_df = tuple((label, -c) for label, c in df)
        twisted_f = ((f[0][0], -1 if kf % 2 == 0 else 1),)  # -(-1)^|f| f
        for kg, g, dg in elements:
            if not _vanishes(
                _diff_pairs(vn, kf + kg, _product_pairs(f, g)),
                _product_pairs(minus_df, g),
                _product_pairs(twisted_f, dg),
            ):
                derivation = False
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "basis_size": len(labels),
        "pairs_checked": len(labels) ** 2,
        "d_squared_zero": d_squared,
        "derivation_law": derivation,
    }


def _exhaustive_model_check(p, n, window, one_per_class=False):
    """commutative_model_check on the enumerated window, deciding every
    ordered pair of Z's basis, or with one_per_class the pairs of the last
    basis element of each (kind, k mod 2) class."""
    dga = matrix_dga(p, n)
    lo, hi = window
    amb = build_mdga_window(dga, window)
    vn = dga.vn_mono
    labels = [(k, label) for k in range(lo, hi + 1) for label in cycle_labels(dga, amb.basis[k])]
    size = len(labels)
    if one_per_class:
        labels = {(label[0], k % 2): (k, label) for k, label in labels}.values()
    cycles = [(k, tuple(_cycle_terms(k, label).items())) for k, label in labels]
    closed = True
    commutative = True
    for kf, f in cycles:
        for kg, g in cycles:
            k = kf + kg
            prod = combine(_product_pairs(f, g))
            if not (_vn_free_cycle_shape(k, n, prod)
                    and _vanishes(_diff_pairs(vn, k, prod.items()))):
                closed = False
            sign = 1 if kf % 2 and kg % 2 else -1  # -(-1)^{|f||g|}
            if not _vanishes(
                prod.items(),
                ((label, sign * c) for label, c in _product_pairs(g, f)),
            ):
                commutative = False
    per_degree = quasi_iso_check(amb, cycles_inclusion(dga, window, amb), window)
    return _model_report(p, n, window, size, closed, commutative, per_degree)


@pytest.mark.parametrize("p, n, window", [
    *FLAT_CHECK_CASES, (2, 3, (-40, 20)), (3, 2, (-60, 30)), (2, 2, (-30, 30)),
])
def test_class_decided_pair_checks_match_exhaustive_loops(p, n, window):
    assert dga_structure_check(p, n, window) == _exhaustive_structure_check(p, n, window)
    assert commutative_model_check(p, n, window) == _exhaustive_model_check(p, n, window)


def test_pair_rules_are_translation_equivariant():
    """The hypothesis of the class proof in dga_structure_check: multiplying
    the left monomial by c and the right one by c2 multiplies every monomial
    _product_pairs yields by c c2, and multiplying a monomial by c multiplies
    every monomial _diff_pairs yields by c, with the same slots and
    coefficients."""
    dga = matrix_dga(2, 2)
    labels = [(k, label) for k, ls in mdga_window_labels(dga, (-12, 8)).items() for label in ls]
    vn = dga.vn_mono
    terms = [(k, ((label, 1),)) for k, label in labels]

    def shifted(pairs, c):
        return [((slot, tuple(e + s for e, s in zip(mono, c))), coeff)
                for (slot, mono), coeff in pairs]

    shifts = ((0, 0), (1, 0), (2, 0), vn, (1, 1))  # 1, v_1, v_1^2, v_n, v_1 v_n
    for k, f in terms:
        df = list(_diff_pairs(vn, k, f))
        for c in shifts:
            assert list(_diff_pairs(vn, k, shifted(f, c))) == shifted(df, c)
        for _, g in terms:
            fg = list(_product_pairs(f, g))
            for c in shifts:
                for c2 in shifts:
                    got = _product_pairs(shifted(f, c), shifted(g, c2))
                    assert list(got) == shifted(shifted(fg, c), c2)


def test_vn_free_cycle_shape_matches_element_reference():
    # every one- and two-term matrix over the degree pieces, with both relative
    # signs: [[a, 0], [0, +-a]] pairs, stray c terms, terms containing v_n
    dga = matrix_dga(2, 2)
    seen = set()
    for k, labels in mdga_window_labels(dga, (-9, 8)).items():
        combos = [{x: 1} for x in labels] + [
            {x: 1, y: sign} for i, x in enumerate(labels) for y in labels[i + 1:]
            for sign in (1, -1)
        ]
        for terms in combos:
            el = MatrixDGAElement.from_terms(dga, k, terms)
            got = _vn_free_cycle_shape(k, dga.n, el.terms)
            seen.add(got)
            assert got == _reference_cycle_shape(el), (k, terms)
    assert seen == {True, False}


# Each broken rule keeps the window's basis; the pair check must notice.
BROKEN_DIFF_RULES = {
    "c loses its right term": {"c": (("a", True),)},
    "a multiplies from the left": {"a": (("b", True),)},
    "a and d are cycles": {"a": (), "d": ()},
}


@pytest.mark.parametrize("broken", BROKEN_DIFF_RULES.values(), ids=BROKEN_DIFF_RULES)
def test_broken_differential_fails_the_derivation_law(monkeypatch, broken):
    for slot, rule in broken.items():
        monkeypatch.setitem(dg_complexes._DIFF_RULE, slot, rule)
    report = dga_structure_check(2, 2, (-12, 8))
    assert report["derivation_law"] is False
    assert report["pairs_checked"] == report["basis_size"] ** 2


# Each broken product keeps the window's basis and the differential; the
# derivation law must notice.
BROKEN_PRODUCTS = {
    "b c lands in d": {("b", "c"): "d"},
    "d d lands in c": {("d", "d"): "c"},
    "a b is lost": {("a", "b"): None},
}


@pytest.mark.parametrize("broken", BROKEN_PRODUCTS.values(), ids=BROKEN_PRODUCTS)
def test_broken_product_fails_the_derivation_law(monkeypatch, broken):
    for pair, slot in broken.items():
        if slot is None:
            monkeypatch.delitem(dg_complexes._PRODUCT_SLOT, pair)
        else:
            monkeypatch.setitem(dg_complexes._PRODUCT_SLOT, pair, slot)
    report = dga_structure_check(2, 2, (-12, 8))
    assert report["derivation_law"] is False
    assert report["pairs_checked"] == report["basis_size"] ** 2


def test_broken_differential_with_zero_square_makes_matrix_dga_exit_one(
        monkeypatch, capsys):
    """d compose d still vanishes when a and d are cycles, but the homology
    changes: the certificate refuses, and matrix-dga prints one error line
    and no report."""
    monkeypatch.setitem(dg_complexes._DIFF_RULE, "a", ())
    monkeypatch.setitem(dg_complexes._DIFF_RULE, "d", ())
    structure = dga_structure_check(2, 2, (-12, 8))
    assert structure["d_squared_zero"] is True
    assert structure["derivation_law"] is False
    code = cli_main(["matrix-dga", "--p", "2", "--n", "2", "--window", "-12:8"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: class-shape certificate failed: d of slot a in degree 0\n"


def test_broken_product_fails_closure(monkeypatch):
    monkeypatch.setitem(dg_complexes._PRODUCT_SLOT, ("d", "d"), "c")
    report = commutative_model_check(2, 2, (-12, 8))
    assert report["closed_under_product"] is False
    assert report["all_ok"] is False


def test_broken_product_fails_commutativity(monkeypatch, capsys):
    monkeypatch.delitem(dg_complexes._PRODUCT_SLOT, ("b", "d"))
    report = commutative_model_check(2, 2, (-12, 8))
    assert report["graded_commutative"] is False
    assert report["all_ok"] is False
    ring = homology_ring_check(2, 2, (-12, 8))
    assert ring["eps_central"] is False
    assert ring["all_ok"] is False
    # a falsified check: exit 1 with the report, not an error line
    code = cli_main(["matrix-dga", "--p", "2", "--n", "2", "--window", "-12:8"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    doc = json.loads(captured.out)
    assert doc["eps"]["central"] is False
    assert doc["structure"]["derivation_law"] is False


def test_matrix_dga_ladder_p2_n2_window_80_40_within_budget(capsys):
    """The -80:40 rung of the matrix-dga ladder: 333 basis elements."""
    start = time.monotonic()
    code = cli_main(["matrix-dga", "--p", "2", "--n", "2", "--window", "-80:40"])
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["structure"]["basis_size"] == 333
    assert doc["structure"]["pairs_checked"] == 333 ** 2
    assert doc["structure"]["d_squared_zero"] is True
    assert doc["structure"]["derivation_law"] is True
    assert doc["homology"]["dims_match"] is True
    assert elapsed < 6, f"matrix-dga (2, 2) -80:40 took {elapsed:.1f}s"


def test_matrix_dga_ladder_p2_n3_window_120_60_within_budget(capsys):
    """The -120:60 rung at (2, 3): 1529 basis elements, 1529^2 ordered pairs
    covered through their classes."""
    start = time.monotonic()
    code = cli_main(["matrix-dga", "--p", "2", "--n", "3", "--window", "-120:60"])
    elapsed = time.monotonic() - start
    structure = json.loads(capsys.readouterr().out)["structure"]
    assert code == 0
    assert structure["basis_size"] == 1529
    assert structure["pairs_checked"] == 1529 ** 2
    assert structure["d_squared_zero"] is True
    assert structure["derivation_law"] is True
    assert elapsed < 3, f"matrix-dga (2, 3) -120:60 took {elapsed:.1f}s"


def test_quasi_iso_p2_n3_window_120_60_within_budget(capsys):
    start = time.monotonic()
    code = cli_main(["quasi-iso", "--p", "2", "--n", "3", "--window", "-120:60"])
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["all_ok"] is True
    assert elapsed < 3, f"quasi-iso (2, 3) -120:60 took {elapsed:.1f}s"


# -- matrix DGA: homology ------------------------------------------------------------


def test_homology_ring_check_height_one():
    report = homology_ring_check(2, 1, (-8, 4))
    nonzero = {t: d for t, d in report["computed_dims"].items() if d}
    assert nonzero == {0: 1, -3: 1}
    assert report["dims_match"]
    assert report["eps_degree"] == -3
    assert report["eps_is_cycle"]
    assert report["eps_nonzero_in_homology"]
    assert report["eps_square_zero"]
    assert report["eps_central"]
    assert report["v_classes_nonzero"]
    assert report["all_ok"]


def test_homology_ring_check_height_one_p_three():
    report = homology_ring_check(3, 1, (-10, 6))
    nonzero = {t: d for t, d in report["computed_dims"].items() if d}
    assert nonzero == {0: 1, -5: 1}
    assert report["all_ok"]


def test_homology_ring_check_height_two():
    report = homology_ring_check(2, 2, (-12, 8))
    # answer ring Q[v1] (x) exterior on a class in degree -7
    expected = {0: 1, 2: 1, 4: 1, 6: 1, 8: 1,
                -7: 1, -5: 1, -3: 1, -1: 1, 1: 1, 3: 1, 5: 1, 7: 1}
    nonzero = {t: d for t, d in report["computed_dims"].items() if d}
    assert nonzero == expected
    assert report["dims_match"]
    assert report["all_ok"]


# -- matrix DGA: commutative cycle model ----------------------------------------------


def test_cycles_subalgebra_height_one_examples():
    dga = matrix_dga(2, 1)
    by_degree = {}
    for k, label, el in z_basis(dga, (-4, 4)):
        by_degree.setdefault(k, []).append(el)
        assert _vn_free_cycle_shape(k, dga.n, el.terms)
        assert dga_diff(el).is_zero()
    assert by_degree[0] == [mdga_identity(dga)]
    assert by_degree[-3] == [mdga_eps(dga)]
    assert 2 not in by_degree  # diag(v1) is not v1-free


def test_quasi_iso_check_on_cycle_inclusion():
    dga = matrix_dga(2, 1)
    window = (-6, 4)
    amb = build_mdga_window(dga, window)
    per_degree = quasi_iso_check(amb, cycles_inclusion(dga, window, amb), window)
    assert all(v["iso"] for v in per_degree.values())
    assert per_degree[0]["sub"] == 1
    assert per_degree[-3]["amb"] == 1


def test_quasi_iso_check_rejects_non_chain_map():
    # Z's degree-0 basis is the identity, [[1, 0], [0, 1]] on the labels
    # (a, 1), (d, 1); bumping its d entry gives [[1, 0], [0, 2]], not a cycle
    dga = matrix_dga(2, 1)
    window = (-4, 2)
    amb = build_mdga_window(dga, window)
    bad = cycles_inclusion(dga, window, amb)
    k = 0
    assert amb.basis[k] == [("a", (0,)), ("d", (0,))]
    entries = dict(bad[k].entries)
    entries[(1, 0)] += 1
    bad[k] = RationalMatrix(bad[k].rows, bad[k].cols, entries)
    assert not amb.diff[k].matmul(bad[k]).is_zero()
    with pytest.raises(ValueError, match="not a chain map at degree 0"):
        quasi_iso_check(amb, bad, window)


@pytest.mark.parametrize("p, n, window", [(2, 1, (-8, 4)), (2, 2, (-20, 10)), (2, 3, (-30, 10))])
def test_quasi_iso_check_notices_a_dropped_cycle(p, n, window):
    """Z less one basis element is still a chain map, but its inclusion
    misses a class: iso turns false in that degree and in no other."""
    dga = matrix_dga(p, n)
    amb = build_mdga_window(dga, window)
    inclusion = cycles_inclusion(dga, window, amb)
    t = max(t for t in range(window[0], window[1] + 1) if inclusion[t].cols)
    m = inclusion[t]
    inclusion[t] = RationalMatrix(m.rows, m.cols - 1, {
        (i, j): v for (i, j), v in m.entries.items() if j < m.cols - 1})
    per_degree = quasi_iso_check(amb, inclusion, window)
    assert per_degree[t]["sub"] == per_degree[t]["induced_rank"] == m.cols - 1
    assert not per_degree[t]["iso"]
    assert all(v["iso"] for s, v in per_degree.items() if s != t)


@pytest.mark.parametrize("p, n, window", [(2, 2, (-20, 10)), (3, 2, (-40, 20)), (2, 3, (-30, 10))])
def test_quasi_iso_check_notices_a_boundary_in_place_of_a_cycle(p, n, window):
    """A boundary of the matrix DGA in place of one Z basis element keeps the
    chain map and the sizes, but that column is 0 in homology: the induced
    rank and iso drop in that degree and in no other."""
    dga = matrix_dga(p, n)
    amb = build_mdga_window(dga, window)
    inclusion = cycles_inclusion(dga, window, amb)
    t = max(t for t in range(window[0], window[1] + 1)
            if inclusion[t].cols and not amb.diff[t + 1].is_zero())
    m, boundary = inclusion[t], amb.diff[t + 1]
    j = next(j for (_, j) in boundary.entries)
    entries = {(i, c): v for (i, c), v in m.entries.items() if c < m.cols - 1}
    entries.update({(i, m.cols - 1): v for (i, c), v in boundary.entries.items() if c == j})
    inclusion[t] = RationalMatrix(m.rows, m.cols, entries)
    per_degree = quasi_iso_check(amb, inclusion, window)
    assert per_degree[t]["sub"] == m.cols
    assert per_degree[t]["induced_rank"] == m.cols - 1
    assert not per_degree[t]["iso"]
    assert all(v["iso"] for s, v in per_degree.items() if s != t)


@pytest.mark.parametrize("p, n, window", [(2, 1, (-8, 4)), (2, 2, (-20, 10)), (3, 2, (-40, 20))])
def test_quasi_iso_check_notices_a_repeated_cycle(p, n, window):
    """A second copy of one Z basis element keeps the chain map and the image
    in homology, but the inclusion is no longer injective: sub outgrows the
    induced rank and iso drops in that degree and in no other."""
    dga = matrix_dga(p, n)
    amb = build_mdga_window(dga, window)
    inclusion = cycles_inclusion(dga, window, amb)
    t = min(t for t in range(window[0], window[1] + 1) if inclusion[t].cols)
    m = inclusion[t]
    entries = dict(m.entries)
    entries.update({(i, m.cols): v for (i, j), v in m.entries.items() if j == 0})
    inclusion[t] = RationalMatrix(m.rows, m.cols + 1, entries)
    per_degree = quasi_iso_check(amb, inclusion, window)
    assert per_degree[t]["sub"] == m.cols + 1
    assert per_degree[t]["induced_rank"] == per_degree[t]["amb"] == m.cols
    assert not per_degree[t]["iso"]
    assert all(v["iso"] for s, v in per_degree.items() if s != t)


@pytest.mark.parametrize("p, n, window", [(2, 1, (-8, 4)), (2, 2, (-20, 10)), (3, 1, (-12, 4))])
def test_quasi_iso_check_checks_the_chain_map_at_every_degree(p, n, window):
    """A column that is not an amb-cycle, appended at any degree t in
    [lo, hi + 1] where amb has a nonzero differential, is refused at t; the
    windows end where such a degree sits at hi + 1, past the reported range."""
    dga = matrix_dga(p, n)
    amb = build_mdga_window(dga, window)
    degrees = [t for t in range(window[0], window[1] + 2) if not amb.diff[t].is_zero()]
    assert window[1] + 1 in degrees and len(degrees) > 2
    for t in degrees:
        inclusion = cycles_inclusion(dga, window, amb)
        m = inclusion[t]
        i = next(j for (_, j) in amb.diff[t].entries)
        inclusion[t] = RationalMatrix(m.rows, m.cols + 1, {**m.entries, (i, m.cols): 1})
        with pytest.raises(ValueError, match=f"not a chain map at degree {t}$"):
            quasi_iso_check(amb, inclusion, window)


def _piece_count_per_degree(p, n, window):
    """commutative_model_check's per_degree from piece sizes, with no
    elimination: P and Q are the pieces of bp_q(p, n) and bp_q(p, n - 1),
    and o = 2p^n - 1.  Z_t is Q_t diagonal and Q_{t+o} upper classes, all
    cycles; the matrix DGA's degree-t basis has 2 P_t + P_{t+o} + P_{t-o}
    elements and rank diff[k] = P_{k-o} + P_k, which leaves the H_t below;
    and the induced map is injective."""
    lo, hi = window
    o = 2 * p**n - 1
    big = degree_dims(bp_q(ChromaticParams(p, n)), (lo + 1 - o, hi + o))
    small = degree_dims(bp_q(ChromaticParams(p, n - 1)), (lo, hi + o))
    out = {}
    for t in range(lo, hi + 1):
        sub = small[t] + small[t + o]
        amb = big[t] + big[t + o] - big[t + 1 - o] - big[t + 1]
        out[t] = {"sub": sub, "amb": amb, "induced_rank": sub, "iso": sub == amb}
    return out


@pytest.mark.parametrize("p, n, window", [
    *FLAT_CHECK_CASES, (2, 3, (-120, 60)), (5, 2, (-300, 150)),
])
def test_per_degree_equals_the_piece_counts(p, n, window):
    report = commutative_model_check(p, n, window)
    assert report["per_degree"] == _piece_count_per_degree(p, n, window)
    assert report["all_ok"]


def test_commutative_model_check_takes_no_kernel_vectors(monkeypatch):
    want = [commutative_model_check(p, n, window) for p, n, window in FLAT_CHECK_CASES]

    def refuse(*args):
        raise AssertionError("the quasi-isomorphism path took kernel vectors")

    monkeypatch.setattr(exact_linear, "kernel_basis", refuse)
    monkeypatch.setattr(RationalMatrix, "from_columns", refuse)
    assert not hasattr(dg_complexes, "kernel_basis")
    assert [commutative_model_check(p, n, window) for p, n, window in FLAT_CHECK_CASES] == want


def test_commutative_model_check_all_heights():
    for p, n, window in [(2, 1, (-8, 4)), (3, 1, (-10, 6)), (2, 2, (-12, 8))]:
        report = commutative_model_check(p, n, window)
        assert report["closed_under_product"], (p, n)
        assert report["graded_commutative"], (p, n)
        assert report["chain_map"], (p, n)
        assert report["all_ok"], (p, n)


# -- matrix DGA: counted reports against the enumerated windows ---------------------


def _enumerated_ring_check(p, n, window):
    """homology_ring_check on the whole enumerated window: homology off its
    ranks, and eps and the v_i classes tested against its boundaries."""
    dga = matrix_dga(p, n)
    lo, hi = window
    win = build_mdga_window(dga, window)
    computed = win.homology_dims(window)
    expected_product = degree_dims(a_q(ChromaticParams(p, n)), window)
    e_deg = eps_degree(p, n)
    lower = degree_dims(bp_q(ChromaticParams(p, n - 1)), (lo, hi - e_deg))
    expected_splitting = {t: lower[t] + lower[t - e_deg] for t in range(lo, hi + 1)}

    def boundary(x):
        coords = coordinates(x.terms, win.basis[x.k])
        return exact_linear.in_span(win.diff[x.k + 1], coords).in_span

    eps = mdga_eps(dga)
    eps_cycle = dga_diff(eps).is_zero()
    eps_nonzero = not boundary(eps) if lo <= eps.k <= hi else None
    eps_square_zero = (eps * eps).is_zero()
    classes = [mdga_diag(dga, Element.gen(dga.pres, f"v{i}")) for i in range(1, n)]
    central = all((eps * dv - dv * eps).is_zero() for dv in classes)
    v_nonzero = not any(boundary(dv) for dv in classes if lo <= dv.k <= hi)
    dims_ok = computed == expected_product == expected_splitting
    return {
        "p": p, "n": n, "window": [lo, hi],
        "computed_dims": computed,
        "expected_product_dims": expected_product,
        "expected_splitting_dims": expected_splitting,
        "dims_match": dims_ok,
        "eps_degree": eps.k,
        "eps_is_cycle": eps_cycle,
        "eps_nonzero_in_homology": eps_nonzero,
        "eps_square_zero": eps_square_zero,
        "eps_central": central,
        "v_classes_nonzero": v_nonzero,
        "all_ok": (dims_ok and eps_cycle and eps_nonzero is not False and eps_square_zero
                   and central and v_nonzero),
    }


# (p, n, window, one_per_class): the pair references decide every pair but
# on (2, 3) -240:120, whose Z has too many pairs for that.
COUNTED_CASES = [
    *((p, n, window, False) for p, n, window in FLAT_CHECK_CASES),
    (2, 1, (-40, 20), False), (3, 1, (-30, 15), False),  # n = 1: Q is Q alone
    (2, 3, (-240, 120), True), (3, 2, (-200, 100), False), (5, 2, (-300, 150), False),
    (2, 2, (3, 12), False),  # holds neither eps.k = -7 nor |v_1| = 2
]


@pytest.mark.parametrize("p, n, window, one_per_class", COUNTED_CASES)
def test_counted_reports_equal_the_enumerated_reports(p, n, window, one_per_class):
    ring = homology_ring_check(p, n, window)
    assert ring == _enumerated_ring_check(p, n, window)
    assert ring["all_ok"]
    assert (commutative_model_check(p, n, window)
            == _exhaustive_model_check(p, n, window, one_per_class))
    assert (dga_structure_check(p, n, window)
            == _exhaustive_structure_check(p, n, window, one_per_class))


def test_counted_window_without_eps_or_v_classes_reports_none():
    ring = homology_ring_check(2, 2, (3, 12))
    assert ring["eps_nonzero_in_homology"] is None
    assert ring["v_classes_nonzero"] is True


def test_counted_reports_build_no_window_and_call_no_in_span(monkeypatch):
    """The three checks take the counted route alone: no window, no in_span,
    and none of the enumerated references."""
    def reports():
        return [[check(p, n, window)
                 for check in (homology_ring_check, commutative_model_check, dga_structure_check)]
                for p, n, window, _ in COUNTED_CASES]

    want = reports()

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix-DGA check left the counted route")

    monkeypatch.setattr(dg_complexes, "build_mdga_window", refuse)
    monkeypatch.setattr(dg_complexes.ChainWindow, "__init__", refuse)
    monkeypatch.setattr(exact_linear, "in_span", refuse)
    monkeypatch.setattr(reference, "quasi_iso_check", refuse)
    monkeypatch.setattr(reference, "cycles_inclusion", refuse)
    for name in ("in_span", "quasi_iso_check", "cycles_inclusion", "_cycle_labels", "coordinates"):
        assert not hasattr(dg_complexes, name), name
    assert reports() == want


@pytest.mark.parametrize("p, n, window", [(2, 2, (5, 4)), (2, 2, (5, 2)), (2, 2, (100, 0))])
def test_empty_windows_give_empty_reports(p, n, window):
    ring = homology_ring_check(p, n, window)
    assert ring["computed_dims"] == ring["expected_product_dims"] == {}
    assert ring["expected_splitting_dims"] == {}
    assert ring["eps_nonzero_in_homology"] is None
    assert ring["all_ok"] is True
    model = commutative_model_check(p, n, window)
    assert model["subalgebra_size"] == 0
    assert model["per_degree"] == model["quasi_iso_per_degree"] == {}
    assert model["all_ok"] is True
    structure = dga_structure_check(p, n, window)
    assert structure["basis_size"] == structure["pairs_checked"] == 0
    assert structure["d_squared_zero"] is structure["derivation_law"] is True


# The certificate must refuse every broken rule above, and two more: a rule
# for a whose two terms cancel in even degrees, where a lives, and the same
# for c.  c is inhabited only in odd degrees (o is odd and every piece
# degree even), so the c rule is refused through d compose d, as is the c
# rule of one term ("c loses its right term"), which passes the shape test.
REFUSED_DIFF_RULES = {
    **BROKEN_DIFF_RULES,
    "a cancels in even degrees": {"a": (("b", True), ("b", False))},
    "c cancels in even degrees": {"c": (("a", True), ("a", False))},
}
CERTIFICATE_FAILED = "^class-shape certificate failed: "


def _assert_refused(p, n, window):
    """Both certified checks refuse; dga_structure_check, which needs no
    certificate, still equals its exhaustive reference."""
    for check in (homology_ring_check, commutative_model_check):
        with pytest.raises(ArithmeticError, match=CERTIFICATE_FAILED):
            check(p, n, window)
    assert dga_structure_check(p, n, window) == _exhaustive_structure_check(p, n, window)


@pytest.mark.parametrize("broken", REFUSED_DIFF_RULES.values(), ids=REFUSED_DIFF_RULES)
@pytest.mark.parametrize("p, n, window", [(2, 2, (-12, 8)), (2, 3, (-30, 20)), (3, 1, (-10, 6))])
def test_a_failed_certificate_refuses_where_the_enumerated_reports_fail(
        monkeypatch, broken, p, n, window):
    """Each rule is broken on these windows: both enumerated references
    raise a window error or report a failed check."""
    for slot, rule in broken.items():
        monkeypatch.setitem(dg_complexes._DIFF_RULE, slot, rule)
    _assert_refused(p, n, window)
    for reference_check in (_enumerated_ring_check, _exhaustive_model_check):
        outcome = _outcome(reference_check, p, n, window)
        assert isinstance(outcome, str) or not outcome["all_ok"], reference_check


def test_homology_ring_check_builds_no_matrix_dga_element(monkeypatch):
    """eps and diag(v_i) are decided on pair streams; a broken rule is
    refused before any is needed."""
    want = [homology_ring_check(p, n, w) for p, n, w, _ in COUNTED_CASES]

    def refuse(*args):
        raise AssertionError("homology_ring_check built a MatrixDGAElement")

    monkeypatch.setattr(MatrixDGAElement, "__init__", refuse)
    monkeypatch.setattr(MatrixDGAElement, "from_terms", refuse)
    assert [homology_ring_check(p, n, w) for p, n, w, _ in COUNTED_CASES] == want
    assert {r["eps_nonzero_in_homology"] for r in want} == {True, None}
    for slot, rule in REFUSED_DIFF_RULES["a and d are cycles"].items():
        monkeypatch.setitem(dg_complexes._DIFF_RULE, slot, rule)
    with pytest.raises(ArithmeticError, match=CERTIFICATE_FAILED + "d of slot a in degree 0$"):
        homology_ring_check(2, 2, (-12, 8))


def test_the_cycle_test_refuses_a_rule_only_z_notices(monkeypatch):
    """(2, 2) -12:5 holds no c class (c needs k >= 7), so d compose d holds
    when a multiplies from the left, and the ranks keep their counts; but
    diag(1) = [[1, 0], [0, 1]] maps to 2 v_2 in slot b, and Z's inclusion is
    no chain map."""
    monkeypatch.setitem(dg_complexes._DIFF_RULE, "a", (("b", True),))
    _assert_refused(2, 2, (-12, 5))
    with pytest.raises(ArithmeticError, match=CERTIFICATE_FAILED + "d of Z kind diag in degree 0$"):
        commutative_model_check(2, 2, (-12, 5))
    with pytest.raises(ValueError, match="not a chain map at degree 0"):
        _exhaustive_model_check(2, 2, (-12, 5))


@pytest.mark.parametrize("rule", [(("a", True), ("a", False)), (("a", True),)],
                         ids=["cancels in even degrees", "one term"])
def test_a_c_rule_breaking_d_compose_d_is_refused_where_the_window_fails(monkeypatch, rule):
    monkeypatch.setitem(dg_complexes._DIFF_RULE, "c", rule)
    for check in (homology_ring_check, commutative_model_check):
        with pytest.raises(ArithmeticError, match=CERTIFICATE_FAILED + "d of slot c in degree 7$"):
            check(2, 2, (-12, 8))
    for check in (_enumerated_ring_check, _exhaustive_model_check):
        with pytest.raises(ValueError, match="d compose d is nonzero into degree 5"):
            check(2, 2, (-12, 8))


@pytest.mark.parametrize("command", ["matrix-dga", "quasi-iso"])
@pytest.mark.parametrize("broken", REFUSED_DIFF_RULES.values(), ids=REFUSED_DIFF_RULES)
def test_a_refused_certificate_exits_one_with_one_error_line(monkeypatch, capsys, broken, command):
    """A failed certificate is a falsified check: exit 1, no report, and one
    error line, not the usage-error exit 2 of the window's d compose d."""
    for slot, rule in broken.items():
        monkeypatch.setitem(dg_complexes._DIFF_RULE, slot, rule)
    code = cli_main([command, "--p", "2", "--n", "2", "--window", "-12:8"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: class-shape certificate failed: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["matrix-dga", "quasi-iso"])
def test_matrix_dga_p2_n3_window_1920_960_is_counted_within_budget(capsys, command):
    """The largest rung: 3,639,619 basis elements, which the enumerated
    window took about 30-45 s and 1.2 GB to build and rank."""
    start = time.monotonic()
    code = cli_main([command, "--p", "2", "--n", "3", "--window", "-1920:960"])
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["all_ok"] is True
    if command == "matrix-dga":
        assert doc["structure"]["basis_size"] == 3639619
        assert doc["homology"]["dims_match"] is True
        assert doc["eps"]["nonzero_in_homology"] is True
    else:
        assert doc["subalgebra_size"] == 78736
        assert len(doc["quasi_iso_per_degree"]) == 2881
    assert elapsed < 3, f"{command} (2, 3) -1920:960 took {elapsed:.1f}s"
