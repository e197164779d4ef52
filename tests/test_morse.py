"""The algebraic Morse matching on the bar complex behind hh_dims."""

import time
from graphlib import TopologicalSorter

import pytest
from hypothesis import given, settings, strategies as st

from gradedhh import hochschild
from gradedhh.chromatic_presets import ChromaticParams, a_q
from gradedhh.exact_linear import combine
from gradedhh.graded_algebra import make_presentation
from gradedhh.hochschild import (
    bar_basis,
    bar_window,
    hh_dims,
    hkr_predicted_dims,
    morse_window,
    multidegrees_up_to,
)

LOWER, CRITICAL, UPPER = hochschild._LOWER, hochschild._CRITICAL, hochschild._UPPER


def _matching(pres, m):
    """The packed cells of bar_basis, classify, and the summed packed faces."""
    pack, _, odd, signs = hochschild._packing(pres, m)
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    cells = [tuple(map(pack, t)) for tensors in bar_basis(pres, m).values() for t in tensors]

    def faces(t):
        return combine(hochschild._faces(t, odd, signs, total))

    return cells, hochschild._matching(pres, m, pack), faces


def _check_matching(pres, m):
    """Involution, unit coefficients read from _faces, and no cycle among the
    zig-zags l -> partner(l) -> l' of lower cells (graphlib raises CycleError)."""
    cells, classify, faces = _matching(pres, m)
    graph = {}
    for t in cells:
        kind, partner = classify(t)
        if kind == CRITICAL:
            continue
        assert classify(partner) == (-kind, t), (m, t)
        if kind == LOWER:
            edges = faces(partner)
            assert edges.pop(t) in (1, -1), (m, t)
            graph[t] = {face for face in edges if classify(face)[0] == LOWER}
    tuple(TopologicalSorter(graph).static_order())


def _assert_morse_equals_unreduced(pres, m):
    window = (0, sum(m))
    assert morse_window(pres, m).homology_dims(window) == \
        bar_window(pres, m).homology_dims(window), m


@st.composite
def matching_cases(draw):
    degrees = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
    pres = make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])
    m = draw(st.tuples(*[st.integers(0, 4)] * pres.ngens).filter(lambda m: sum(m) <= 4))
    return pres, m


@settings(max_examples=60, deadline=None, database=None)
@given(matching_cases())
def test_matching_is_an_acyclic_unit_involution_and_keeps_homology(case):
    pres, m = case
    _check_matching(pres, m)
    _assert_morse_equals_unreduced(pres, m)


def _criterion_1_presets():
    return [
        make_presentation([("v", 2, False)]),
        make_presentation([("y", 3, False)]),
        a_q(ChromaticParams(2, 2)),
        a_q(ChromaticParams(3, 2)),
    ]


@pytest.mark.parametrize("pres", _criterion_1_presets(),
                         ids=["one even", "one odd", "a:2:2", "a:3:2"])
def test_morse_equals_unreduced_on_criterion_1_windows(pres):
    for m in multidegrees_up_to(pres, 5):
        _check_matching(pres, m)
        _assert_morse_equals_unreduced(pres, m)


def test_morse_equals_unreduced_on_a22_multidegree_10_1():
    _assert_morse_equals_unreduced(a_q(ChromaticParams(2, 2)), (10, 1))


def test_critical_cells_are_a0_then_a_falling_chain_of_generators():
    pres = make_presentation([("x", 1), ("v", 2), ("y", -3)])  # digit order x, y, v
    window = morse_window(pres, (1, 2, 2))
    rank = {(1, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 2}
    for tensors in window.basis.values():
        for tensor in tensors:
            chain = [rank[a] for a in tensor[1:]]
            assert chain == sorted(chain, reverse=True), tensor
            assert chain.count(2) <= 1, tensor  # the even generator v at most once


def test_hh_ladder_a22_multidegree_12_1_matches_hkr_within_budget():
    """The (12, 1) rung of the hh ladder, through the Morse complex."""
    pres = a_q(ChromaticParams(2, 2))
    start = time.monotonic()
    dims = hh_dims(pres, (12, 1))
    elapsed = time.monotonic() - start
    assert dims == hkr_predicted_dims(pres, (12, 1)) == {17: 1, 18: 2, 19: 1}
    assert elapsed < 10, f"hh_dims on a:2:2 (12, 1) took {elapsed:.1f}s"


# -- the runtime guards --------------------------------------------------------------


def test_a_partner_that_does_not_classify_back_raises(monkeypatch):
    real = hochschild._matching

    def upper_points_at_itself(pres, m, pack):
        classify = real(pres, m, pack)
        return lambda t: (UPPER, t) if classify(t)[0] == UPPER else classify(t)

    monkeypatch.setattr(hochschild, "_matching", upper_points_at_itself)
    with pytest.raises(ArithmeticError, match="does not match back"):
        morse_window(a_q(ChromaticParams(2, 2)), (2, 1))


def test_a_matched_coefficient_other_than_a_unit_raises(monkeypatch):
    real = hochschild._faces
    monkeypatch.setattr(hochschild, "_faces", lambda *args: (
        (face, 2 * sign) for face, sign in real(*args)))
    with pytest.raises(ArithmeticError, match="not a unit"):
        morse_window(a_q(ChromaticParams(2, 2)), (2, 1))


def test_a_cycle_in_the_flow_raises(monkeypatch):
    pres, m = a_q(ChromaticParams(2, 2)), (3, 1)
    cells, classify, faces = _matching(pres, m)
    top = [t for t in cells if classify(t)[0] == CRITICAL and len(t) > 2][0]
    l = next(face for face in faces(top) if classify(face)[0] == LOWER)
    other = next(t for t in cells if len(t) == len(l) and t != l and classify(t)[0] == LOWER)
    fake = {classify(l)[1]: other, classify(other)[1]: l}  # u -> other, u* -> l
    real = hochschild._faces

    def with_fake_faces(t, *rest):
        yield from real(t, *rest)
        if t in fake:
            yield fake[t], 1

    monkeypatch.setattr(hochschild, "_faces", with_fake_faces)
    with pytest.raises(ArithmeticError, match="cycle"):
        morse_window(pres, m)
