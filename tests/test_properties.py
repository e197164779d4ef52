"""Property tests of the sign conventions and of the exact linear algebra.

Presentations have two exterior generators and one polynomial generator,
with up to one more of either parity; elements, bar chains and matrix-DGA elements are
random multi-term combinations with small rational coefficients.  koszul_mul
is checked graded-commutative and associative, signs and odd squares
included, and its sign against the crossing masks, on monomials of wider
presentations: up to 14 exterior generators interleaved with up to three
polynomial ones.  Matrices
are small and rational, with zero rows and columns, repeated rows, low rank
and entries up to 10^6 in size.  The sparse product is checked on
disjoint supports too, and the hit-row count of a one-term cone block,
assembled through koszul_mul, against its rank.  The bar differential is
checked linear in a monomial a_0 multiplied into slot 0, odd squares included.
The bar-basis and degree-piece enumerators are checked against the simpler
enumerations they replaced, the degree-piece counter against the sizes of
the same reference, the counted ranks of cones on one term, or on up to
four terms over at most one odd generator (zero divisors included),
against the streamed blocks they replaced, on random windows and caps, the realized
cones on homogeneous elements of two or three terms over two odd
generators and one even one against the label-wise assembly through
koszul_mul, and cone_report's homology against theirs, the pivot rows of
the elimination as an echelon form with as many pivots as Gauss-Jordan finds,
its pivot columns as a basis of the column space, the ranks bar, cone and matrix-DGA windows
cache against Gauss-Jordan, the matrix-DGA product and differential against
the entrywise 2x2 formulas in Element arithmetic, the class-decided matrix-DGA pair checks against the
exhaustive loops they replaced, on random slot-level product and
differential rules, and the Ore checker against the search-first decision
it replaced, on random tables whose products respect degrees.
"""

import copy
import itertools
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gradedhh.chromatic_presets import ChromaticParams, a_q, en_q, parse_preset
from gradedhh.cli import _dumps
import gradedhh.dg_complexes as dg_complexes
from gradedhh.dg_complexes import (
    GradedComplex,
    MatrixDGA,
    MatrixDGAElement,
    assemble,
    commutative_model_check,
    dga_diff,
    dga_structure_check,
    homology_ring_check,
    matrix_dga,
    mdga_element,
    mdga_window_labels,
)
from gradedhh.exact_linear import (
    RationalMatrix,
    _echelon,
    _integer_row,
    in_span,
    kernel_basis,
    rank,
)
from gradedhh.graded_algebra import (
    Element,
    MulTable,
    OreReport,
    _box_sizes,
    _canon,
    _combo_degree,
    _commutes,
    _crossing_masks,
    _odd_indices,
    _unit_witnesses,
    combo_str,
    degree_dims,
    degree_pieces,
    kahler_d,
    koszul_mul,
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
    hochschild_diff,
    multidegrees_up_to,
)
from reference import from_rows, pivot_columns, transpose
from test_dg_complexes import (
    _bar_windows,
    _cone_windows,
    _enumerated_ring_check,
    _exhaustive_model_check,
    _exhaustive_structure_check,
    _labelwise_realize,
    _mdga_windows,
    _streamed_cone_report,
)

PROPERTY = settings(max_examples=30, deadline=None, database=None)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def presentations(draw):
    degrees = [
        2 * draw(st.integers(-3, 2)) + 1,  # exterior
        2 * draw(st.integers(-2, 2)),  # polynomial
        2 * draw(st.integers(-3, 2)) + 1,  # exterior
    ] + draw(st.lists(st.integers(-5, 5), max_size=1))
    return make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])


def monomials(pres):
    return st.tuples(*[
        st.integers(0, 1 if pres.is_odd(i) else 3) for i in range(pres.ngens)
    ])


def elements(pres, max_terms=4):
    return st.dictionaries(monomials(pres), COEFFS, max_size=max_terms).map(
        lambda terms: Element(pres, terms)
    )


def homogeneous_parts(x):
    parts = {}
    for mono, coeff in x.terms.items():
        parts.setdefault(mono_degree(x.pres, mono), {})[mono] = coeff
    return [(d, Element(x.pres, t)) for d, t in parts.items()]


def koszul_sign(p, q):
    return -1 if p % 2 and q % 2 else 1


@PROPERTY
@given(st.data())
def test_element_multiplication_is_associative(data):
    pres = data.draw(presentations())
    x, y, z = (data.draw(elements(pres)) for _ in range(3))
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(st.data())
def test_graded_commutativity_with_koszul_sign(data):
    pres = data.draw(presentations())
    x, y = data.draw(elements(pres)), data.draw(elements(pres))
    swapped = Element.zero(pres)
    for p, xp in homogeneous_parts(x):
        for q, yq in homogeneous_parts(y):
            swapped = swapped + koszul_sign(p, q) * (yq * xp)
    assert x * y == swapped


@st.composite
def wide_presentations(draw):
    """Up to 14 exterior generators of either sign and up to three polynomial
    ones, in a random interleaving: at most 2^14 crossing masks."""
    odd = draw(st.lists(st.integers(-4, 3).map(lambda d: 2 * d + 1), max_size=14))
    even = draw(st.lists(st.integers(-2, 2).map(lambda d: 2 * d), max_size=3))
    degrees = draw(st.permutations(odd + even))
    return make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])


def _odd_mask(pres, mono):
    """The odd generators of mono as a mask, bit p for the p-th of _odd_indices."""
    return sum(mono[i] << p for p, i in enumerate(_odd_indices(pres)))


@PROPERTY
@given(st.data())
def test_koszul_mul_is_graded_commutative(data):
    pres = data.draw(wide_presentations())
    a, b = data.draw(monomials(pres)), data.draw(monomials(pres))
    ab, ba = koszul_mul(pres, a, b), koszul_mul(pres, b, a)
    if _odd_mask(pres, a) & _odd_mask(pres, b):  # an odd square
        assert ab is None and ba is None
    else:
        sign = koszul_sign(mono_degree(pres, a), mono_degree(pres, b))
        assert ab == (sign * ba[0], ba[1])


@PROPERTY
@given(st.data())
def test_koszul_mul_is_associative_with_signs(data):
    pres = data.draw(wide_presentations())
    a, b, c = (data.draw(monomials(pres)) for _ in range(3))

    def mul(x, y):  # signed monomials, None for zero
        hit = x and y and koszul_mul(pres, x[1], y[1])
        return hit and (x[0] * y[0] * hit[0], hit[1])

    a, b, c = (1, a), (1, b), (1, c)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@PROPERTY
@given(st.data())
def test_the_crossing_masks_give_koszul_muls_sign(data):
    pres = data.draw(wide_presentations())
    masks = _crossing_masks(len(_odd_indices(pres)))
    for _ in range(10):
        a, b = data.draw(monomials(pres)), data.draw(monomials(pres))
        x, y = _odd_mask(pres, a), _odd_mask(pres, b)
        hit = koszul_mul(pres, a, b)
        assert (hit is None) == bool(x & y)
        if hit is not None:
            assert hit[0] == (-1) ** (masks[x] & y).bit_count(), (a, b)


@PROPERTY
@given(st.data())
def test_one_term_block_rank_is_its_hit_row_count(data):
    pres = data.draw(presentations())
    m, u = data.draw(monomials(pres)), data.draw(monomials(pres))
    c = data.draw(COEFFS.filter(bool))
    s, d = mono_degree(pres, u), mono_degree(pres, m)
    # exponents up to 3 on both sides: every product lies within caps 6
    source = degree_pieces(pres, (s, s), 3)[s]
    target = degree_pieces(pres, (s + d, s + d), 6)[s + d]
    block = assemble(source, target, lambda mono: [
        (hit[1], hit[0] * c) for hit in [koszul_mul(pres, m, mono)] if hit is not None])
    # one term hits distinct rows from distinct columns: the rank is the
    # number of rows hit
    assert len(block.data) == rank(block)


@PROPERTY
@given(st.data())
def test_kahler_d_satisfies_leibniz(data):
    pres = data.draw(presentations())
    x, y = data.draw(elements(pres)), data.draw(elements(pres))
    rhs = kahler_d(Element.zero(pres))
    for p, xp in homogeneous_parts(x):
        for q, yq in homogeneous_parts(y):
            rhs = rhs + xp * kahler_d(yq) + koszul_sign(p, q) * (yq * kahler_d(xp))
    assert kahler_d(x * y) == rhs
    assert kahler_d(x + y) == kahler_d(x) + kahler_d(y)


@st.composite
def bar_chains(draw):
    pres = draw(presentations())
    level = draw(st.integers(0, 3))
    tensor = st.tuples(*[monomials(pres)] * (level + 1))
    terms = draw(st.dictionaries(tensor, COEFFS, max_size=4))
    return BarChain(pres, level, terms)


@PROPERTY
@given(bar_chains())
def test_bar_differential_squares_to_zero_on_chains(x):
    assert hochschild_diff(hochschild_diff(x)).is_zero()
    # b o b = 0 holds for any sign on the rotation face; D o b = 0 needs Koszul's
    if x.level == 2:
        assert D_map(hochschild_diff(x)).is_zero()


def _times(a0, x):
    """The monomial a0 times the bar chain x, into slot 0 with no sign."""
    return x._new(((hit[1],) + t[1:], hit[0] * c) for t, c in x.terms.items()
                  for hit in [koszul_mul(x.pres, a0, t[0])] if hit)


# odd a0 against itself in slot 0 and in the last slot, which the rotation
# multiplies into slot 0 (odd squares), and against another odd generator
# there (a crossing sign)
_ODD_A0 = make_presentation([("g0", 1), ("g1", 2), ("g2", -3)])
_SQUARES = BarChain(_ODD_A0, 2, {((1, 1, 0), (0, 2, 1), (0, 1, 0)): Fraction(2),
                                 ((0, 0, 1), (0, 1, 0), (1, 0, 0)): Fraction(-1, 3)})


@settings(max_examples=100, deadline=None, database=None)
@example((_SQUARES, (1, 0, 0)))
@example((_SQUARES, (1, 1, 1)))
@example((BarChain(_ODD_A0, 1, {((0, 1, 0), (0, 0, 1)): Fraction(1)}), (1, 0, 0)))
@given(bar_chains().flatmap(lambda x: st.tuples(st.just(x), monomials(x.pres))))
def test_the_bar_differential_is_linear_in_a0(case):
    """b(a0 t) = a0 b(t): inner faces keep slot 0, d_0 is associativity and
    the rotation's Koszul sign absorbs |a0|; the HKR certificate needs it for
    every a0 != 1."""
    x, a0 = case
    assert hochschild_diff(_times(a0, x)) == _times(a0, hochschild_diff(x))


@PROPERTY
@given(st.data())
def test_bar_window_columns_are_the_differential(data):
    pres = data.draw(presentations())
    m = data.draw(st.tuples(*[st.integers(0, 2)] * pres.ngens).filter(
        lambda m: sum(m) <= 4))
    window = bar_window(pres, m)
    level = data.draw(st.sampled_from(sorted(bar_basis(pres, m))))
    basis = window.basis[level]
    coeffs = data.draw(st.lists(COEFFS, min_size=len(basis), max_size=len(basis)))
    x = BarChain(pres, level, dict(zip(basis, coeffs)))
    image = hochschild_diff(x)
    if level == 0:
        assert image.is_zero()
        return
    target = window.basis[level - 1]
    assert mul_dense(window.diff[level], coeffs) == [
        image.terms.get(t, Fraction(0)) for t in target
    ]


def _bar_basis_reference(pres, m):
    """Level-by-level recursion over the slots, the reference the memoized
    bar_basis is checked against: slot 0 takes any part, later slots a
    non-unit part, and the last slot everything still unassigned."""
    n = pres.ngens
    odd = [pres.is_odd(i) for i in range(n)]
    out = {}
    for level in range(sum(m) + 1):
        tensors = []
        slots = level + 1

        def candidates(remaining, bar_position):
            ranges = [
                range(0, min(remaining[i], 1 if odd[i] else remaining[i]) + 1)
                for i in range(n)
            ]
            for e in itertools.product(*ranges):
                if bar_position and not any(e):
                    continue
                yield e

        stack = []

        def recurse(pos, remaining):
            if pos == slots - 1:
                e = remaining
                if any(odd[i] and e[i] > 1 for i in range(n)):
                    return
                if pos >= 1 and not any(e):
                    return
                tensors.append(tuple(stack) + (e,))
                return
            for e in candidates(remaining, pos >= 1):
                stack.append(e)
                recurse(pos + 1, tuple(r - x for r, x in zip(remaining, e)))
                stack.pop()

        recurse(0, tuple(m))
        tensors.sort()
        out[level] = tensors
    return out


@PROPERTY
@given(st.data())
def test_bar_basis_equals_the_level_by_level_reference(data):
    degrees = data.draw(st.lists(st.integers(-5, 5), max_size=4))
    pres = make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])
    m = data.draw(st.tuples(*[st.integers(0, 6)] * pres.ngens).filter(
        lambda m: sum(m) <= 6))
    assert bar_basis(pres, m) == _bar_basis_reference(pres, m)


@st.composite
def bar_basis_cases(draw):
    degrees = draw(st.lists(st.integers(-5, 5), max_size=3))
    pres = make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])
    m = draw(st.tuples(*[st.integers(0, 5)] * pres.ngens).filter(lambda m: sum(m) <= 5))
    return pres, m


@PROPERTY
@given(bar_basis_cases())
def test_bar_basis_euler_characteristic_is_one_exactly_at_m_zero(case):
    """sum_s (-1)^s |B_s| = [m = 0]: the count morse_complex requires of its
    critical cells, since a perfect acyclic matching keeps it."""
    pres, m = case
    chi = sum((-1) ** s * len(tensors) for s, tensors in bar_basis(pres, m).items())
    assert chi == (not any(m)), m


@pytest.mark.parametrize("pres", [
    make_presentation([("v", 2, False)]),
    make_presentation([("y", 3, False)]),
    a_q(ChromaticParams(2, 2)),
    a_q(ChromaticParams(3, 2)),
], ids=["one even", "one odd", "a:2:2", "a:3:2"])
def test_bar_basis_equals_the_reference_on_the_acceptance_presets(pres):
    for m in multidegrees_up_to(pres, 4):
        assert bar_basis(pres, m) == _bar_basis_reference(pres, m), m


def _monomial_basis_reference(pres, degree, caps=None):
    """One pruned recursion per degree over exponent ranges derived for
    that degree alone, the reference degree_pieces is checked against."""
    cap_map = {}
    if caps is None:
        pass
    elif isinstance(caps, int):
        if caps < 0:
            raise ValueError("exponent cap must be nonnegative")
        cap_map = {name: caps for name in pres.names}
    else:
        for name, c in dict(caps).items():
            pres.index(name)  # raises on unknown name
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"exponent cap for {name!r} must be a nonnegative integer")
            cap_map[name] = c
    uncapped = [
        i for i in range(pres.ngens)
        if not pres.is_odd(i) and pres.names[i] not in cap_map
    ]
    for i in uncapped:
        if pres.laurent[i]:
            raise ValueError(f"missing cap on laurent generator {pres.names[i]!r}")
        if pres.degrees[i] == 0:
            raise ValueError(f"cap required for degree-0 generator {pres.names[i]!r}")
    if len({1 if pres.degrees[i] > 0 else -1 for i in uncapped}) > 1:
        raise ValueError("caps required: generator degrees of mixed sign")

    slack = abs(degree)
    for i, name in enumerate(pres.names):
        if pres.is_odd(i) or name in cap_map:
            bound = 1 if pres.is_odd(i) else cap_map[name]
            if pres.is_odd(i) and name in cap_map:
                bound = min(1, cap_map[name])
            slack += bound * abs(pres.degrees[i])
    ranges = []
    for i, name in enumerate(pres.names):
        if pres.is_odd(i):
            ranges.append((0, min(1, cap_map.get(name, 1))))
        elif pres.laurent[i]:
            ranges.append((-cap_map[name], cap_map[name]))
        elif name in cap_map:
            ranges.append((0, cap_map[name]))
        else:
            ranges.append((0, slack // abs(pres.degrees[i])))

    n = pres.ngens
    min_rem = [0] * (n + 1)
    max_rem = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        contrib = (ranges[i][0] * pres.degrees[i], ranges[i][1] * pres.degrees[i])
        min_rem[i] = min_rem[i + 1] + min(contrib)
        max_rem[i] = max_rem[i + 1] + max(contrib)
    out = []
    stack = [0] * n

    def recurse(i, remaining):
        if i == n:
            if remaining == 0:
                out.append(tuple(stack))
            return
        for e in range(ranges[i][0], ranges[i][1] + 1):
            r2 = remaining - e * pres.degrees[i]
            if min_rem[i + 1] <= r2 <= max_rem[i + 1]:
                stack[i] = e
                recurse(i + 1, r2)
        stack[i] = 0

    recurse(0, degree)
    out.sort(reverse=True)
    return out


def _assert_pieces_match_reference(pres, window, caps):
    """degree_pieces equals the reference and degree_dims its sizes, errors
    included."""
    lo, hi = window
    try:
        want = {t: _monomial_basis_reference(pres, t, caps) for t in range(lo, hi + 1)}
    except (KeyError, ValueError) as err:
        for pieces_or_sizes in (degree_pieces, degree_dims):
            with pytest.raises(type(err)) as got:
                pieces_or_sizes(pres, window, caps)
            assert str(got.value) == str(err)
        return
    assert degree_pieces(pres, window, caps) == want
    assert degree_dims(pres, window, caps) == {t: len(piece) for t, piece in want.items()}


@st.composite
def enumeration_cases(draw):
    gens = []
    for i in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(-6, 6))
        laurent = degree % 2 == 0 and draw(st.booleans())
        gens.append((f"g{i}", degree, laurent))
    pres = make_presentation(gens)
    caps = draw(st.one_of(
        st.none(),
        st.integers(-1, 3),
        st.dictionaries(st.sampled_from(list(pres.names) + ["unknown"]),
                        st.integers(-1, 3)),
    ))
    lo = draw(st.integers(-10, 10))
    return pres, (lo, lo + draw(st.integers(0, 10))), caps


@settings(max_examples=200, deadline=None, database=None)
@given(enumeration_cases())
def test_degree_pieces_equal_the_per_degree_reference(case):
    _assert_pieces_match_reference(*case)


def _box_sizes_reference(degrees, ranges, window):
    """The box counted term by term, read off over the window as _box_sizes
    once read its counts list: counts[t - base] inside the list, else 0."""
    lo, hi = window
    sizes = Counter(sum(e * d for e, d in zip(exps, degrees))
                    for exps in itertools.product(*[range(a, b + 1) for a, b in ranges]))
    base = min(sizes, default=0)
    counts = [sizes[s] for s in range(base, max(sizes, default=-1) + 1)]
    return {t: counts[t - base] if 0 <= t - base < len(counts) else 0
            for t in range(lo, hi + 1)}


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-4, 4), st.integers(-2, 5)),
                max_size=4),
       st.integers(-40, 40), st.integers(0, 30))
@example([], 3, 5)  # no generators: the box is degree 0 alone, below the window
@example([], -8, 5)  # and inside it
@example([], -8, 2)  # and above it
@example([(2, 0, 3), (3, 1, -1), (1, 0, 2)], -5, 10)  # a box empties early
@example([(2, 0, 3), (3, 1, 2)], 40, 10)  # the window wholly above the box
@example([(-2, 0, 3), (3, 1, 2)], -40, 10)  # and wholly below it
def test_box_sizes_equal_the_counted_box(gens, lo, width):
    degrees = [d for d, _, _ in gens]
    ranges = [(a, a + w) for _, a, w in gens]
    window = (lo, lo + width)
    assert _box_sizes(degrees, ranges, window) == _box_sizes_reference(degrees, ranges, window)


@st.composite
def one_odd_presentations(draw):
    """Two or three even generators of degrees 2 to 6, all of one sign, a
    third of them Laurent, and at most one odd generator."""
    sign = draw(st.sampled_from((-1, 1)))
    gens = [(f"v{i}", 2 * sign * draw(st.integers(1, 3)),
             draw(st.sampled_from((False, False, True))))
            for i in range(draw(st.integers(2, 3)))]
    if draw(st.sampled_from((False, True, True))):
        gens.append(("e", 2 * draw(st.integers(-4, 3)) + 1))
    return make_presentation(gens)


@st.composite
def several_term_elements(draw, pres):
    """A homogeneous element of one to four terms, of a degree with several
    monomials when there is one: all eps-free, or, over an odd generator
    eps, all eps-multiples (a zero divisor)."""
    exponents = [(0, 1) if pres.is_odd(i) else range(-2 if pres.laurent[i] else 0, 4)
                 for i in range(pres.ngens)]
    by_degree = defaultdict(list)
    for mono in itertools.product(*exponents):
        by_degree[mono_degree(pres, mono)].append(mono)
    groups = [monos for _, monos in sorted(by_degree.items())]
    monos = draw(st.sampled_from([g for g in groups if len(g) > 1] or groups))
    size = draw(st.integers(1, min(4, len(monos))))
    return Element(pres, draw(st.dictionaries(
        st.sampled_from(monos), COEFFS.filter(bool), min_size=size, max_size=size)))


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_counted_cone_ranks_equal_the_streamed_blocks(data):
    # at most one term (r = 0 included) over two or three odd generators,
    # or up to four over at most one
    if data.draw(st.booleans()):
        pres = data.draw(presentations())
        r = Element(pres, data.draw(st.dictionaries(monomials(pres), COEFFS, max_size=1)))
    else:
        pres = data.draw(one_odd_presentations())
        r = data.draw(several_term_elements(pres))
    caps = data.draw(st.one_of(
        st.none(),
        st.integers(0, 6),
        st.dictionaries(st.sampled_from(pres.names), st.integers(0, 6)),
    ))
    lo = data.draw(st.integers(-12, 12))
    window = (lo, lo + data.draw(st.integers(0, 10)))
    assert (_outcome(dg_complexes.cone_report, pres, r, window, caps)
            == _outcome(_streamed_cone_report, pres, r, window, caps))


@st.composite
def odd_cone_cases(draw):
    """(cone, window, caps) for r homogeneous with two or three terms over
    x, y odd and v even, of random degrees."""
    pres = make_presentation([("x", 2 * draw(st.integers(-3, 2)) + 1),
                              ("y", 2 * draw(st.integers(-3, 2)) + 1),
                              ("v", 2 * draw(st.integers(-2, 2)))])
    by_degree = defaultdict(list)
    for mono in itertools.product((0, 1), (0, 1), range(4)):
        by_degree[mono_degree(pres, mono)].append(mono)
    shared = [monos for _, monos in sorted(by_degree.items()) if len(monos) >= 2]
    assume(shared)
    monos = draw(st.sampled_from(shared))
    terms = draw(st.dictionaries(st.sampled_from(monos), COEFFS.filter(bool),
                                 min_size=2, max_size=min(3, len(monos))))
    caps = draw(st.one_of(
        st.none(),
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(pres.names), st.integers(0, 3)),
    ))
    lo = draw(st.integers(-12, 12))
    return GradedComplex(pres, Element(pres, terms)), (lo, lo + draw(st.integers(0, 10))), caps


@PROPERTY
@given(odd_cone_cases())
def test_realized_odd_cones_equal_the_labelwise_reference(case):
    c, (lo, hi), caps = case
    padded = (lo, hi + max(0, c.degree))  # the degrees cone_report ranks
    want = _outcome(_labelwise_realize, c, padded, caps)
    got = _outcome(c.realize, padded, caps)
    report = _outcome(dg_complexes.cone_report, c.pres, c.r, (lo, hi), caps)
    if isinstance(want, str):
        assert got == report == want
        return
    assert got.basis == want.basis
    assert got.diff == want.diff
    for t, m in got.diff.items():
        # the stored form, which == cannot tell from Fraction(2, 1) and the like
        assert list(m.data.items()) == list(want.diff[t].data.items()), t
        assert all(type(v) is int and v or type(v) is Fraction and v.denominator != 1
                   for row in m.data.values() for v in row.values()), t
    assert report["homology_dims"] == got.homology_dims((lo, hi))


@pytest.mark.parametrize("gens, window, caps", [
    ([("x", 2), ("y", -4), ("e", 3)], (-9, 9), 3),  # mixed signs, int cap
    ([("x", 2), ("y", -4)], (-9, 9), {"x": 2, "y": 3}),  # mixed signs, dict caps
    ([("x", 2), ("y", -4)], (-9, 9), {"x": 2}),  # mixed signs, y uncapped
    ([("u", 2, True), ("x", 4)], (-8, 12), {"u": 2}),  # laurent, dict cap
    ([("u", 2, True), ("x", 4)], (-8, 12), None),  # laurent, no cap
    ([("z", 0), ("x", 2), ("e", -1)], (-3, 6), 2),  # degree 0, int cap
    ([("z", 0), ("x", 2)], (0, 6), None),  # degree 0, no cap
    ([("e", 1), ("f", -3), ("g", 5)], (-6, 6), None),  # exterior only
    ([("e", 1), ("f", -3), ("x", 2)], (-6, 10), {"e": 0}),  # exterior capped off
    ([("x", 2), ("y", 6)], (-4, 20), -1),  # negative cap
], ids=["mixed-int", "mixed-dict", "mixed-uncapped", "laurent-dict",
        "laurent-none", "degree0-int", "degree0-none", "exterior", "exterior-cap0",
        "negative-cap"])
def test_degree_pieces_equal_the_reference_on_chosen_cases(gens, window, caps):
    _assert_pieces_match_reference(make_presentation(gens), window, caps)


@pytest.mark.parametrize("preset", ["bp:2:3", "en:2:2", "a:3:2", "hh_a:2:2"])
@pytest.mark.parametrize("caps", [None, 0, 1, 3])
def test_degree_pieces_equal_the_reference_on_the_presets(preset, caps):
    _assert_pieces_match_reference(parse_preset(preset), (-40, 40), caps)


MDGA_CASES = [(2, 1), (2, 2), (3, 1)]
MDGA_LABELS = {
    case: {k: labels for k, labels in mdga_window_labels(matrix_dga(*case), (-12, 8)).items()
           if labels}
    for case in MDGA_CASES
}


@st.composite
def mdga_elements(draw, dga):
    by_degree = MDGA_LABELS[(dga.p, dga.n)]
    k = draw(st.sampled_from(sorted(by_degree)))
    label = st.sampled_from(by_degree[k])
    terms = draw(st.dictionaries(label, COEFFS, max_size=4))
    return MatrixDGAElement.from_terms(dga, k, terms)


@PROPERTY
@given(st.data())
def test_matrix_dga_differential_is_a_square_zero_derivation(data):
    dga = matrix_dga(*data.draw(st.sampled_from(MDGA_CASES)))
    f, g = data.draw(mdga_elements(dga)), data.draw(mdga_elements(dga))
    sign = -1 if f.k % 2 else 1
    assert dga_diff(f * g) == dga_diff(f) * g + sign * (f * dga_diff(g))
    assert dga_diff(dga_diff(f)).is_zero()
    # the per-slot rule is the graded commutator with d_cone = [[0, v_n], [0, 0]]
    d_cone = mdga_element(dga, -1, "b", dga.vn_mono)
    assert dga_diff(f) == d_cone * f - sign * (f * d_cone)


@PROPERTY
@given(st.data())
def test_matrix_dga_product_and_differential_are_the_entrywise_formulas(data):
    """f g and d(f) are the 2x2 matrix formulas, entry by entry in Element
    arithmetic (koszul_mul): the pair rules' tuple addition multiplies
    monomials."""
    dga = matrix_dga(*data.draw(st.sampled_from(MDGA_CASES)))
    f, g = data.draw(mdga_elements(dga)), data.draw(mdga_elements(dga))
    assert f * g == MatrixDGAElement(
        dga, f.k + g.k,
        f.a * g.a + f.b * g.c, f.a * g.b + f.b * g.d,
        f.c * g.a + f.d * g.c, f.c * g.b + f.d * g.d,
    )
    vn = Element(dga.pres, {dga.vn_mono: 1})
    twist = 1 if f.k % 2 else -1  # -(-1)^k
    assert dga_diff(f) == MatrixDGAElement(
        dga, f.k - 1,
        vn * f.c, vn * f.d + twist * (f.a * vn),
        Element.zero(dga.pres), twist * (f.c * vn),
    )


@pytest.mark.parametrize("pres", [
    a_q(ChromaticParams(2, 2)),  # eps is odd
    en_q(ChromaticParams(2, 2)),  # v2 is inverted
], ids=["odd", "laurent"])
def test_matrix_dga_refuses_odd_and_laurent_generators(pres):
    with pytest.raises(ValueError, match="polynomial base ring"):
        MatrixDGA(2, 2, pres)


SLOTS = dg_complexes._SLOTS
# Slot-level rules: each product slot and each slot's differential is either
# the true one or redrawn, so that draws both keep and break the laws.
PRODUCT_TABLES = st.fixed_dictionaries({
    pair: st.one_of(st.just(dg_complexes._PRODUCT_SLOT.get(pair)),
                    st.sampled_from((None, *SLOTS)))
    for pair in itertools.product(SLOTS, SLOTS)
}).map(lambda table: {pair: slot for pair, slot in table.items() if slot is not None})
DIFF_RULES = st.fixed_dictionaries({
    slot: st.one_of(st.just(rule), st.lists(
        st.tuples(st.sampled_from(SLOTS), st.booleans()), max_size=2).map(tuple))
    for slot, rule in dg_complexes._DIFF_RULE.items()
})


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:  # a broken differential fails a window's checks
        return str(exc)


@settings(max_examples=60, deadline=None, database=None)
@given(PRODUCT_TABLES, DIFF_RULES)
def test_class_decided_pair_checks_equal_the_exhaustive_loops_on_any_rules(product, diff):
    """The class proof of dga_structure_check holds for any slot-level rules,
    and commutative_model_check either equals the exhaustive loops or, when
    the class-shape certificate fails, refuses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg_complexes, "_PRODUCT_SLOT", product)
        mp.setattr(dg_complexes, "_DIFF_RULE", diff)
        window = (-12, 8)
        assert (_outcome(dga_structure_check, 2, 2, window)
                == _outcome(_exhaustive_structure_check, 2, 2, window))
        try:
            got = commutative_model_check(2, 2, window)
        except ArithmeticError as exc:
            assert str(exc).startswith("class-shape certificate failed: "), exc
        else:
            assert got == _outcome(_exhaustive_model_check, 2, 2, window)


# The six (p, n) of the matrix-DGA request ladder, with o = 2p^n - 1 up to 49.
LADDER_CASES = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3)]


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(LADDER_CASES), st.integers(-60, 10), st.integers(0, 40))
@example((2, 2), 3, 9)  # holds neither eps.k = -7 nor |v_1| = 2
@example((2, 2), -12, 20)  # holds both
@example((5, 2), -60, 40)  # holds eps.k = -49 and |v_1| = 8
def test_counted_matrix_dga_reports_equal_the_enumerated_references(case, lo, width):
    p, n = case
    window = (lo, lo + width)
    assert homology_ring_check(p, n, window) == _enumerated_ring_check(p, n, window)
    assert commutative_model_check(p, n, window) == _exhaustive_model_check(p, n, window)


@PROPERTY
@given(st.data())
def test_equal_combinations_hash_equal(data):
    pres = data.draw(presentations())
    x, y = data.draw(elements(pres)), data.draw(elements(pres))
    c = data.draw(bar_chains())
    dga = matrix_dga(*data.draw(st.sampled_from(MDGA_CASES)))
    f, g = data.draw(mdga_elements(dga)), data.draw(mdga_elements(dga))
    pairs = [
        (x + y - y, Element(pres, dict(reversed(list(x.terms.items()))))),
        (kahler_d(x + y), kahler_d(y) + kahler_d(x)),
        (f * g - f * g, MatrixDGAElement.zero(dga, f.k)),
        (f + f, 2 * f),
        (c + c - c, BarChain(c.pres, c.level, dict(reversed(list(c.terms.items()))))),
        (c - c, BarChain.zero(c.pres, c.level)),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# The integer rank kernel and the integer matrix product.

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


def dense(draw, rows, cols):
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


def product(a, b, cols):
    return [[sum((x * row[j] for x, row in zip(r, b)), Fraction(0)) for j in range(cols)]
            for r in a]


@st.composite
def rational_matrices(draw, max_dim=7):
    """Dense, or a product through at most 3 dimensions (so of low rank);
    then scaled copies of some rows, a zero row and a zero column."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        data = dense(draw, rows, cols)
    else:
        inner = draw(st.integers(0, 3))
        data = product(dense(draw, rows, inner), dense(draw, inner, cols), cols)
    if data:
        for _ in range(draw(st.integers(0, 3))):
            source = data[draw(st.integers(0, len(data) - 1))]
            data.append([draw(ENTRIES) * x for x in source])
    if draw(st.booleans()):
        data.insert(draw(st.integers(0, len(data))), [Fraction(0)] * cols)
    if draw(st.booleans()):
        at = draw(st.integers(0, cols))
        data = [r[:at] + [Fraction(0)] + r[at:] for r in data]
        cols += 1
    data = draw(st.permutations(data))
    return from_rows(data, cols=cols)


def _rref(row_dicts, ncols):
    """Gauss-Jordan on sparse rows, the reference the integer echelon is
    checked against.  Returns (pivot column list, reduced rows).

    reduced[k] has a 1 in column pivots[k] and zeros in every other pivot
    column; pivot order is ascending by column.
    """
    work = [dict(r) for r in row_dicts if r]
    pivots = []
    reduced = []
    for col in range(ncols):
        pivot_row = None
        for idx, r in enumerate(work):
            if r.get(col):
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for group in (work, reduced):
            for r in group:
                f = r.get(col)
                if not f:
                    continue
                for c, v in row.items():
                    nv = r.get(c, Fraction(0)) - f * v
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        work = [r for r in work if r]
        reduced.append(row)
        pivots.append(col)
        if not work:
            break
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [reduced[k] for k in order]


def rows_of(m):
    return [[m.entries.get((i, j), Fraction(0)) for j in range(m.cols)]
            for i in range(m.rows)]


def mul_dense(m, x):
    """m x for a dense list x, as a dense list."""
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows_of(m)]


def sparse(x):
    """The sparse vector {index: value} of a dense list."""
    return {i: c for i, c in enumerate(x) if c}


def densify(x, n):
    """The dense list of length n of a sparse vector, checked to be in the
    stored form: int indices in range(n), no zero values."""
    assert all(type(i) is int and 0 <= i < n and c for i, c in x.items()), x
    return [Fraction(x.get(i, 0)) for i in range(n)]


def _back_substitute_dense(pivots, ncols, x):
    """Back-substitution into a dense list of length ncols, the reference
    the sparse _back_substitute is checked against."""
    for col, row in reversed(pivots):
        s = sum(v * x[c] for c, v in row.items() if c in x)
        if s:
            x[col] = Fraction(-s, row[col])
    zero = Fraction(0)
    return [x.get(c, zero) for c in range(ncols)]


def _kernel_basis_dense(m):
    """kernel_basis with dense vectors and no certificate, the reference."""
    pivots = list(_echelon(m.data, m.cols))
    pivot_cols = {col for col, _ in pivots}
    return [_back_substitute_dense(pivots, m.cols, {f: Fraction(1)})
            for f in range(m.cols) if f not in pivot_cols]


def _in_span_dense(m, v):
    """in_span's witness for a dense v as a dense list, None when v is not in
    the span; no certificate, the reference."""
    aug = m.cols
    rows = dict(m.data)
    for i, value in enumerate(v):
        if value:
            rows[i] = {**rows.get(i, {}), aug: -value}
    pivots = []
    for col, row in _echelon(rows, aug):
        if col == aug:
            return None
        pivots.append((col, row))
    return _back_substitute_dense(pivots, m.cols, {aug: Fraction(1)})


@PROPERTY
@given(rational_matrices())
def test_rank_equals_gauss_jordan_pivot_count(m):
    pivots, _ = _rref(m.data.values(), m.cols)
    assert rank(m) == len(pivots)
    # _echelon's pivot columns are a basis of the column space of the whole m
    pivots = pivot_columns(m)
    on_pivots = RationalMatrix._new(m.rows, m.cols, (
        (i, {c: v for c, v in row.items() if c in pivots}) for i, row in m.data.items()))
    assert len(pivots) == rank(on_pivots) == rank(m)


@pytest.mark.parametrize("windows", [_bar_windows, _cone_windows, _mdga_windows],
                         ids=["bar", "cone", "matrix-dga"])
def test_window_ranks_equal_gauss_jordan_pivot_counts(windows):
    # the rank a window caches for degree t is that of the whole diff[t]
    for win in windows():
        for t in sorted(win.diff):
            d = win.diff[t]
            assert win.rank(t) == len(_rref(d.data.values(), d.cols)[0]), (win.basis[t][:3], t)


@PROPERTY
@given(rational_matrices())
def test_rank_is_invariant_under_transpose(m):
    assert rank(m) == rank(transpose(m))


@PROPERTY
@given(st.data())
def test_matmul_equals_entrywise_fraction_product(data):
    a = data.draw(rational_matrices())
    cols = data.draw(st.integers(0, 6))
    b = from_rows(dense(data.draw, a.cols, cols), cols=cols)
    ab = a.matmul(b)
    assert rows_of(ab) == product(rows_of(a), rows_of(b), cols)
    assert all(type(v) is Fraction and v for v in ab.entries.values())


@PROPERTY
@given(st.data())
def test_matmul_of_disjoint_supports_is_zero(data):
    # b's rows are zero wherever a has a column, and some of a's other
    # columns meet stored rows of b: every row accumulator stays empty
    a = data.draw(rational_matrices())
    used = {k for row in a.data.values() for k in row}
    cols = data.draw(st.integers(0, 6))
    rows = [[Fraction(0)] * cols if k in used else row
            for k, row in enumerate(dense(data.draw, a.cols, cols))]
    b = from_rows(rows, cols=cols)
    ab = a.matmul(b)
    assert ab.is_zero() and (ab.rows, ab.cols) == (a.rows, cols)
    assert rows_of(ab) == product(rows_of(a), rows_of(b), cols)


@PROPERTY
@given(rational_matrices())
def test_matmul_cancels_to_zero_against_the_kernel(m):
    kernel = RationalMatrix.from_columns(kernel_basis(m), rows=m.cols)
    zero = m.matmul(kernel)
    assert zero.is_zero() and (zero.rows, zero.cols) == (m.rows, kernel.cols)


@PROPERTY
@given(st.data())
def test_in_span_agrees_with_rank_and_the_witness_reproduces_v(data):
    m = data.draw(rational_matrices())
    if m.cols and data.draw(st.booleans()):  # an image vector, so in the span
        x = data.draw(st.lists(ENTRIES, min_size=m.cols, max_size=m.cols))
        v = mul_dense(m, x)
    else:  # arbitrary, in the span or out of it
        v = data.draw(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows))
    augmented = m.hstack(RationalMatrix.from_columns([sparse(v)], rows=m.rows))
    # v as {row: value}, with or without its zero entries
    result = in_span(m, dict(enumerate(v)) if data.draw(st.booleans()) else sparse(v))
    assert result.in_span == (rank(augmented) == rank(m))
    # the membership rule ore_check relies on: the column span of m is the
    # annihilator of the kernel of m^T
    assert result.in_span == all(sum(c * v[i] for i, c in k.items()) == 0
                                 for k in kernel_basis(transpose(m)))
    if result.in_span:
        witness = densify(result.coefficients, m.cols)
        assert mul_dense(m, witness) == v
        assert witness == _in_span_dense(m, v)
    else:
        assert result.coefficients is None
        assert _in_span_dense(m, v) is None


@PROPERTY
@given(rational_matrices())
def test_kernel_basis_is_one_unit_vector_per_free_column(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    assert [densify(k, m.cols) for k in basis] == _kernel_basis_dense(m)
    last = -1
    for i, k in enumerate(basis):
        assert mul_dense(m, densify(k, m.cols)) == [Fraction(0)] * m.rows
        # Its free column: 1 here, 0 in every other vector; ascending.
        free = [j for j in range(last + 1, m.cols) if k.get(j) == 1
                and all(j not in other for o, other in enumerate(basis) if o != i)]
        assert free, (m, basis)
        last = free[0]


@st.composite
def chain_complexes(draw):
    """Differentials d_1, ..., d_k, k = 3 or 4, with d_t d_{t+1} = 0: d_1 is
    a random matrix and every column of d_{t+1} a random combination of the
    kernel basis of d_t, so ranks run from 0 to full."""
    diffs = [draw(rational_matrices(max_dim=6))]
    for _ in range(draw(st.integers(2, 3))):
        kernel = kernel_basis(diffs[-1])
        columns = []
        for _ in range(draw(st.integers(0, 6))):
            coeffs = draw(st.lists(ENTRIES, min_size=len(kernel), max_size=len(kernel)))
            columns.append(sparse([sum((c * k.get(j, 0) for c, k in zip(coeffs, kernel)),
                                       Fraction(0)) for j in range(diffs[-1].cols)]))
        diffs.append(RationalMatrix.from_columns(columns, rows=diffs[-1].cols))
    return diffs


@PROPERTY
@given(chain_complexes())
def test_kernels_and_boundary_witnesses_equal_the_dense_reference(diffs):
    # each cycle of d_t tested against the boundaries of d_{t+1}, as the
    # homology reports ask, so the witnesses are both found and refused
    for d, boundaries in zip(diffs, diffs[1:] + [RationalMatrix(diffs[-1].cols, 0)]):
        kernel = kernel_basis(d)
        assert [densify(k, d.cols) for k in kernel] == _kernel_basis_dense(d)
        for k in kernel:
            result = in_span(boundaries, k)
            reference = _in_span_dense(boundaries, densify(k, d.cols))
            if result.in_span:
                assert densify(result.coefficients, boundaries.cols) == reference
            else:
                assert result.coefficients is reference is None


SPARSE_ENTRIES = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]
)


@st.composite
def sparse_rows(draw):
    """({row id: row}, ncols): nonempty sparse rows with at most 4 entries
    from a few values, so that lengths tie, optionally with entries in the
    augmented column ncols that in_span adds; then scaled copies and sums of
    drawn rows, which cancel to empty during elimination."""
    ncols = draw(st.integers(1, 9))
    width = ncols + draw(st.integers(0, 1))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, width - 1), SPARSE_ENTRIES, max_size=4),
        max_size=12,
    ))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        r = rows[draw(st.integers(0, len(rows) - 1))]
        q = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(SPARSE_ENTRIES)
        summed = {c: k * r.get(c, 0) + q.get(c, 0) for c in {*r, *q}}
        rows.append({c: v for c, v in summed.items() if v})
    rows = draw(st.permutations(rows))
    return {i: r for i, r in enumerate(rows) if r}, ncols


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_rows())
def test_echelon_yields_an_echelon_form_with_the_gauss_jordan_rank(case):
    assert_echelon_form(*case)


def test_echelon_form_on_bar_and_augmented_differentials():
    window = bar_window(a_q(ChromaticParams(2, 2)), (6, 1))
    for m in window.diff.values():
        assert_echelon_form(m.data, m.cols)
        assert_echelon_form(_augmented(m), m.cols)


def assert_echelon_form(rows, ncols):
    """Assert that _echelon leaves its input rows unchanged and yields an
    echelon form: each pivot row has its pivot and no entry in an earlier
    pivot column, the augmented column ncols pivots only in a row with no
    other entry, and there are as many pivots as Gauss-Jordan finds."""
    before = copy.deepcopy(rows)
    earlier = set()
    for col, row in _echelon(rows, ncols):
        assert row.get(col), (col, row)
        assert earlier.isdisjoint(row), (col, row)
        assert col != ncols or len(row) == 1, row
        earlier.add(col)
    assert rows == before
    assert len(earlier) == len(_rref(rows.values(), ncols + 1)[0])


def _augmented(m):
    """m's rows with an augmented column, as in_span adds, in two of every
    three rows."""
    rows = {i: dict(row) for i, row in m.data.items()}
    for i in range(m.rows):
        if i % 3:
            rows.setdefault(i, {})[m.cols] = Fraction((-1) ** i)
    return rows


def test_integer_row_returns_an_all_int_row_itself_and_scales_a_copy_otherwise():
    row = {0: 2, 3: -1}
    assert _integer_row(row) is row
    fractional = {0: Fraction(1, 2), 3: Fraction(-1, 3)}
    assert _integer_row(fractional) == {0: 3, 3: -2}
    assert fractional == {0: Fraction(1, 2), 3: Fraction(-1, 3)}


# ---------------------------------------------------------------------------
# The Ore checker against the search-first decision it replaced.


def _ore_check_reference(table, s_elements, max_closure=64):
    """ore_check as it was: the witness searches for both conditions run
    over every (s, x) before the structural proofs are tried."""
    table.validate()
    gens = []
    for s in s_elements:
        if isinstance(s, str):
            if s not in table.degree:
                raise ValueError(f"unknown table label {s!r}")
            combo = {s: Fraction(1)}
        else:
            combo = {l: Fraction(c) for l, c in dict(s).items() if Fraction(c)}
            for l in combo:
                if l not in table.degree:
                    raise ValueError(f"unknown table label {l!r}")
        _combo_degree(table, combo)  # homogeneity check
        gens.append(combo)
    if not gens:
        raise ValueError("S needs at least one generator")

    notes = []
    truncated = False

    closure = []
    seen = set()
    if table.one is not None:
        closure.append(dict(table.one))
        seen.add(_canon(table.one))
    queue = []
    for g in gens:
        key = _canon(g)
        if key not in seen:
            seen.add(key)
            closure.append(dict(g))
            queue.append(dict(g))
    degenerate = any(not c for c in closure if c is not None) or any(
        not g for g in gens
    )
    while queue and not degenerate:
        u = queue.pop(0)
        for g in gens:
            prod = table.combo_mul(u, g)
            if prod is None:
                truncated = True
                continue
            key = _canon(prod)
            if key in seen:
                continue
            if len(closure) >= max_closure:
                truncated = True
                notes.append("closure truncated at max_closure")
                queue = []
                break
            seen.add(key)
            closure.append(prod)
            queue.append(prod)
            if not prod:
                degenerate = True
                break
    closure_strs = [combo_str(c) for c in closure]
    if degenerate or any(not c for c in closure):
        return OreReport(
            verdict="degenerate",
            commutative=False,
            truncated=truncated,
            closure=closure_strs,
            notes=notes + ["S contains 0: the localization is the zero ring"],
        )

    commutative = _commutes(table, koszul=False)

    label_index = {l: i for i, l in enumerate(table.labels)}

    def vec(combo):
        return {label_index[l]: c for l, c in combo.items()}

    violated = None
    any_unverifiable = not table.complete_degrees

    for s in closure:
        cols = []
        unverifiable_y = False
        for b in table.labels:
            prod = table.combo_mul(s, {b: Fraction(1)})
            if prod is None:
                unverifiable_y = True
                continue
            cols.append(vec(prod))
        span = RationalMatrix.from_columns(cols, rows=len(table.labels))
        annihilator = transpose(RationalMatrix.from_columns(kernel_basis(transpose(span)),
                                                            rows=len(table.labels)))
        for x in table.labels:
            found = False
            unverifiable_t = False
            for t in closure:
                xt = table.combo_mul({x: Fraction(1)}, t)
                if xt is None:
                    unverifiable_t = True
                    continue
                column = RationalMatrix.from_columns([vec(xt)], rows=len(table.labels))
                if annihilator.matmul(column).is_zero():
                    found = True
                    break
            if found:
                continue
            if unverifiable_t or unverifiable_y or not table.complete_degrees:
                any_unverifiable = True
            else:
                violated = (1, (x, combo_str(s)))
                break
        if violated:
            break

    if not violated:
        for s in closure:
            for x in table.labels:
                sx = table.combo_mul(s, {x: Fraction(1)})
                if sx != {}:
                    continue
                found = False
                unverifiable_t = False
                for t in closure:
                    xt = table.combo_mul({x: Fraction(1)}, t)
                    if xt is None:
                        unverifiable_t = True
                    elif not xt:
                        found = True
                        break
                if found:
                    continue
                if unverifiable_t or not table.complete_degrees:
                    any_unverifiable = True
                else:
                    violated = (2, (x, combo_str(s)))
                    break
            if violated:
                break

    if violated:
        condition, witness = violated
        return OreReport(
            verdict="violated",
            condition=condition,
            witness=witness,
            commutative=commutative,
            truncated=truncated,
            closure=closure_strs,
            notes=notes,
        )
    if commutative:
        return OreReport(
            verdict="satisfied",
            commutative=True,
            truncated=truncated,
            closure=closure_strs,
            notes=notes + ["commutative ring: t = s, y = x witnesses both conditions"],
        )
    s_even = all(_combo_degree(table, s) % 2 == 0 for s in closure)
    if s_even and _commutes(table, koszul=True):
        return OreReport(
            verdict="satisfied",
            truncated=truncated,
            closure=closure_strs,
            notes=notes + ["graded-commutative ring, S even: "
                           "t = s, y = x witnesses both conditions"],
        )
    if all(_unit_witnesses(table, s) for s in closure):
        return OreReport(
            verdict="satisfied",
            truncated=truncated,
            closure=closure_strs,
            notes=notes + ["S consists of units: t = s, y = s^-1 x s witnesses both conditions"],
        )
    return OreReport(
        verdict="inconclusive",
        commutative=False,
        truncated=truncated or any_unverifiable,
        closure=closure_strs,
        notes=notes + ["window search found no violation and no structural proof"],
    )


def _ore_outcome(check, table, s_elements):
    try:
        return check(table, s_elements)
    except (ValueError, ArithmeticError) as e:  # the two must fail alike, too
        return type(e), str(e)


def _assert_ore_matches_reference(table, s_elements):
    got = _ore_outcome(ore_check, table, s_elements)
    assert got == _ore_outcome(_ore_check_reference, table, s_elements)
    return got


ORE_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])


@st.composite
def ore_cases(draw):
    """A random table whose products respect degrees, and generators of S."""
    labels = tuple(f"x{i}" for i in range(draw(st.integers(1, 5))))
    degree = {l: draw(st.integers(0, 2)) for l in labels}
    of_degree = {d: [l for l in labels if degree[l] == d] for d in range(3)}

    escapes = draw(st.booleans())  # products may escape inside the window too

    def product(d):
        if d > 2:
            return None  # leaves the window 0..2
        kinds = ["escape"] * escapes + ["zero"] + ["hit"] * 3 * bool(of_degree[d])
        kind = draw(st.sampled_from(kinds))
        if kind == "hit":
            return draw(st.dictionaries(st.sampled_from(of_degree[d]), ORE_COEFFS,
                                        min_size=1, max_size=2))
        return None if kind == "escape" else {}

    products = {(x, y): product(degree[x] + degree[y]) for x in labels for y in labels}
    symmetry = draw(st.sampled_from([None, None, "literal", "koszul"]))
    if symmetry:
        for x, y in itertools.combinations(labels, 2):
            pxy = products[(x, y)]
            odd = symmetry == "koszul" and degree[x] % 2 and degree[y] % 2
            products[(y, x)] = None if pxy is None else {
                l: -c if odd else c for l, c in pxy.items()}
    one = None
    if of_degree[0] and draw(st.booleans()):
        one = {draw(st.sampled_from(of_degree[0])): Fraction(1)}
    table = MulTable(labels, degree, products, one, draw(st.booleans()))
    s_degree = draw(st.sampled_from(sorted(set(degree.values()))))
    s_elements = draw(st.one_of(
        st.lists(st.sampled_from(labels), min_size=1, max_size=2),
        st.dictionaries(st.sampled_from(of_degree[s_degree]), ORE_COEFFS,
                        min_size=1).map(lambda combo: [combo]),
    ))
    return table, s_elements


@settings(max_examples=300, deadline=None, database=None)
@given(ore_cases())
def test_ore_check_equals_the_search_first_reference(case):
    table, s_elements = case
    table.validate()
    _assert_ore_matches_reference(table, s_elements)


def _ore_requests():
    for preset in ["bp:2:2", "en:2:2", "a:2:2", "hh_a:2:2"]:
        pres = parse_preset(preset)
        for caps in [None, 1, 2, 3]:
            if caps is None and preset in ("en:2:2", "hh_a:2:2"):
                continue  # Laurent or mixed-sign generators need caps
            table = table_from_presentation(pres, (-12, 12), caps)
            gens = [g for g in pres.names if g in table.degree]
            s_lists = [[g] for g in gens] + [list(pair)
                                             for pair in itertools.combinations(gens, 2)]
            for d in sorted(set(table.degree.values())):
                piece = [l for l in table.labels if table.degree[l] == d]
                if len(piece) > 1:
                    s_lists.append([{piece[0]: 1, piece[1]: 2}])
            for s_elements in s_lists:
                yield f"{preset}/{caps}/{s_elements}", table, s_elements
    units = matrix_units_table()
    for s_elements in [["e11"], ["e12"], ["e21"], ["e11", "e22"],
                       [{"e11": 1, "e22": 1}], [{"e11": 1, "e12": 1}], ["e33"]]:
        yield f"matrix-units/{s_elements}", units, s_elements


def test_ore_check_equals_the_reference_on_presets_and_matrix_units():
    verdicts = set()
    for name, table, s_elements in _ore_requests():
        got = _assert_ore_matches_reference(table, s_elements)
        verdicts.add(getattr(got, "verdict", "error"))
    assert verdicts == {"satisfied", "degenerate", "violated", "inconclusive", "error"}


JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10 ** 30, 10 ** 30),
              st.floats(), st.text()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_KEYS, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=500, deadline=None, database=None)
@given(JSON_TREES)
def test_the_report_emitter_writes_json_dumps_indented_bytes(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [{}, [], ()], [[]], {"a": {}}, [[[]], {"a": [{}]}],
    {1: [1], 2.5: {"x": 1}, True: [], None: {}, math.nan: [[]], -math.inf: [0], "s": 1},
    {0: {-1: 2, math.inf: math.nan}, False: [(), (1, (2,))]},
    [math.nan, math.inf, -math.inf, -0.0, 10 ** 30, -10 ** 30, 26097609447575678182],
    {"dims": {"0": 1, "1": 0}, "window": [0, 400], "big": [10 ** 30]},
    [" ", "\U0001F600", "\x00", '"\\', {" ": "\U0001F600", "\x00": ['"\\']}],
    " ", "\U0001F600", "\x00", '"\\', 10 ** 30, -0.0, math.nan, None, True,
], ids=repr)
def test_the_report_emitter_on_chosen_trees(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)
