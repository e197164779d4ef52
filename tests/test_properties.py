"""Property tests of the sign conventions on random small presentations.

Presentations have two exterior generators and one polynomial generator,
with up to one more of either parity; elements, bar chains and matrix-DGA elements are
random multi-term combinations with small rational coefficients.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gradedhh.dg_complexes import (
    MatrixDGAElement,
    dga_diff,
    matrix_dga,
    mdga_basis_labels,
    mdga_element,
)
from gradedhh.graded_algebra import Element, kahler_d, make_presentation, mono_degree
from gradedhh.hochschild import BarChain, D_map, bar_basis, bar_window, hochschild_diff

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
    assert window.diff[level].mul_vector(coeffs) == [
        image.terms.get(t, Fraction(0)) for t in target
    ]


MDGA_CASES = [(2, 1), (2, 2), (3, 1)]
MDGA_LABELS = {
    case: {k: labels for k in range(-12, 9)
           if (labels := mdga_basis_labels(matrix_dga(*case), k))}
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
