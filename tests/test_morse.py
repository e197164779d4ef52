"""The algebraic Morse matching on the bar complex behind hh_dims and obstruction."""

import functools
import time
from graphlib import TopologicalSorter

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedhh import cli, hochschild
from gradedhh.chromatic_presets import ChromaticParams, a_q, parse_preset
from gradedhh.dg_complexes import ChainWindow, assemble
from gradedhh.exact_linear import combine, in_span, kernel_basis
from gradedhh.graded_algebra import make_presentation
from gradedhh.hochschild import (
    BarChain,
    bar_basis,
    bar_window,
    hh_dims,
    hkr_check,
    hkr_predicted_dims,
    hochschild_diff,
    morse_complex,
    morse_complexes,
    multidegree_to_dict,
    multidegrees_up_to,
)
from gradedhh.trace_obstruction import obstruction_report
from reference import matching as reference_matching
from test_hochschild import _odd_presets

LOWER, CRITICAL, UPPER = hochschild._LOWER, hochschild._CRITICAL, hochschild._UPPER


def _matching(pres, m):
    """The packed cells of bar_basis, classify, and the summed packed faces."""
    pack, _, odd, masks = hochschild._packing(pres, m)
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    cells = [tuple(map(pack, t)) for tensors in bar_basis(pres, m).values() for t in tensors]

    def faces(t):
        return combine(hochschild._faces(t, odd, masks, total))

    return cells, hochschild._matching(pres, m), faces


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


def _assert_classify_equals_the_reference(pres, m, bound=None):
    """Kind and partner of every cell of bar_basis at m, packed for bound
    (by default m), against the tuple-built matching of tests/reference.py."""
    bound = m if bound is None else bound
    pack = hochschild._packing(pres, bound)[0]
    got, want = hochschild._matching(pres, bound), reference_matching(pres, m, pack)
    for tensors in bar_basis(pres, m).values():
        for t in (tuple(map(pack, tensor)) for tensor in tensors):
            assert got(t) == want(t), (m, t)


REFERENCE_PRESETS = ["a:2:3", "a:3:2", "hh_a:2:2", "hh_a:3:2"]


@pytest.mark.parametrize("pres", [*map(parse_preset, REFERENCE_PRESETS), _odd_presets()[3]],
                         ids=[*REFERENCE_PRESETS, "3 odd"])
def test_classify_equals_the_tuple_built_reference_up_to_weight_4(pres):
    for m in multidegrees_up_to(pres, 4):
        _assert_classify_equals_the_reference(pres, m)


@st.composite
def reference_cases(draw):
    """1-5 generators, at most 3 of them odd, none Laurent, and a multidegree
    of weight at most 4."""
    odd = draw(st.lists(st.booleans(), min_size=1, max_size=5).filter(lambda o: sum(o) <= 3))
    degrees = [2 * draw(st.integers(-3, 2)) + o for o in odd]
    pres = make_presentation([(f"g{i}", d) for i, d in enumerate(degrees)])
    picks = draw(st.lists(st.integers(0, len(odd) - 1), max_size=4))
    return pres, tuple(map(picks.count, range(len(odd))))


@settings(max_examples=60, deadline=None, database=None)
@given(reference_cases())
def test_classify_equals_the_tuple_built_reference_on_random_rings(case):
    _assert_classify_equals_the_reference(*case)


def _top(pres, m):
    """The top critical level, the longest chain: each odd generator m_i times
    and each even one at most once."""
    return sum(e if pres.is_odd(i) else min(e, 1) for i, e in enumerate(m))


def _assert_morse_equals_unreduced(pres, m):
    """Equal homology up to the top critical level; above it the bar complex
    has none."""
    top, bar = _top(pres, m), bar_window(pres, m)
    assert morse_complex(pres, m)[0].homology_dims((0, top)) == \
        bar.homology_dims((0, top)), m
    assert not any(bar.homology_dims((top + 1, sum(m))).values()), m


def _classify_everything_window(pres, m):
    """The reference morse_complex's window is checked against: classify
    every cell of bar_basis, require each lower cell's partner to classify
    back and the lower cells to be as many as the upper ones, then run the
    same zig-zag flow from the critical cells."""
    basis = bar_basis(pres, m)
    pack, _, odd, masks = hochschild._packing(pres, m)
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    classify = hochschild._matching(pres, m)
    critical, balance = {}, 0
    for s, tensors in basis.items():
        critical[s] = []
        for tensor in tensors:
            t = tuple(map(pack, tensor))
            kind, partner = classify(t)
            balance += kind
            if kind == CRITICAL:
                critical[s].append((tensor, t))
            elif kind == LOWER and classify(partner) != (UPPER, t):
                raise ArithmeticError(f"Morse partner of {tensor} does not match back")
    if balance:
        raise ArithmeticError("Morse matching leaves lower and upper cells unequal")
    top = _top(pres, m)
    if any(cells for s, cells in critical.items() if s > top):
        raise ArithmeticError("a critical cell above the top critical level")

    flow, pending = {}, {}

    def phi(root):
        stack = [root]
        while stack:
            cell = stack[-1]
            if cell in pending:
                stack.pop()
                unit, edges = pending.pop(cell)
                flow[cell] = combine((crit, -unit * e * c) for face, e in edges.items()
                                     for crit, c in flow[face].items())
            elif cell in flow:
                stack.pop()
            else:
                kind, partner = classify(cell)
                if kind != LOWER:
                    flow[cell] = {cell: 1} if kind == CRITICAL else {}
                    continue
                edges = combine(hochschild._faces(partner, odd, masks, total))
                unit = edges.pop(cell, 0)
                if unit not in (1, -1):
                    raise ArithmeticError(f"Morse coefficient {unit} is not a unit")
                pending[cell] = unit, edges
                for face in edges:
                    if face in pending:
                        raise ArithmeticError("Morse flow meets a cycle")
                    if face not in flow:
                        stack.append(face)
        return flow[root]

    def image(t):
        return ((crit, e * c) for face, e in hochschild._faces(t, odd, masks, total)
                for crit, c in phi(face).items())

    levels = {s: critical.get(s, []) for s in range(-1, top + 2)}
    diff = {s: assemble([t for _, t in levels[s]], [t for _, t in levels[s - 1]], image)
            for s in range(top + 2)}
    return ChainWindow({s: [tensor for tensor, _ in cells] for s, cells in levels.items()},
                       diff)


def _assert_morse_equals_reference(pres, m):
    """The same basis in the same order, and equal differentials."""
    got, want = morse_complex(pres, m)[0], _classify_everything_window(pres, m)
    assert list(got.basis.items()) == list(want.basis.items()), m
    assert got.diff == want.diff, m


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


# The cases a hypothesis draw may miss: m = 0, and odd generators of weight
# at least 2, where the chain repeats them.
EDGE_CASES = [
    (make_presentation([("x", 1), ("v", 2)]), (0, 0)),
    (make_presentation([("y", 3)]), (4,)),
    (make_presentation([("x", 1), ("v", 2), ("y", -3)]), (3, 1, 2)),
    (a_q(ChromaticParams(2, 2)), (2, 3)),
]


def _with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@settings(max_examples=60, deadline=None, database=None)
@_with_edge_cases
@given(matching_cases())
def test_enumerated_critical_cells_are_the_classified_ones(case):
    pres, m = case
    pack = hochschild._packing(pres, m)[0]
    classify = hochschild._matching(pres, m)
    basis = bar_basis(pres, m)

    def is_critical(tensor):
        return classify(tuple(map(pack, tensor)))[0] == CRITICAL

    classified = {s: list(filter(is_critical, basis.get(s, []))) for s in range(-1, sum(m) + 2)}
    top = _top(pres, m)
    cells, packed = hochschild._critical_cells(pres, pack)(m)
    assert cells == {s: classified[s] for s in range(-1, top + 2)}
    assert packed == {s: [tuple(map(pack, t)) for t in tensors] for s, tensors in cells.items()}
    assert not any(classified[s] for s in range(top + 1, sum(m) + 2))


@settings(max_examples=60, deadline=None, database=None)
@_with_edge_cases
@given(matching_cases())
def test_morse_window_equals_the_classify_everything_reference(case):
    _assert_morse_equals_reference(*case)


@pytest.mark.parametrize("preset, m", [
    ("a:2:2", (10, 1)),
    ("a:2:3", (3, 3, 1)),
    ("hh_a:2:3", (2, 1, 1, 1, 1, 1)),
])
def test_morse_window_equals_the_reference_at_size(preset, m):
    _assert_morse_equals_reference(parse_preset(preset), m)


# -- one Morse set-up for every multidegree below a bound ---------------------------


@st.composite
def bounded_cases(draw):
    """A matching case and a bound at least its multidegree, each entry at
    most 3 above it."""
    pres, m = draw(matching_cases())
    return pres, m, tuple(e + draw(st.integers(0, 3)) for e in m)


def _with_bounded_edge_cases(test):
    """The edge cases, each under the bound 2 above its multidegree."""
    for pres, m in EDGE_CASES:
        test = example((pres, m, tuple(e + 2 for e in m)))(test)
    return test


@settings(max_examples=60, deadline=None, database=None)
@_with_bounded_edge_cases
@given(bounded_cases())
def test_a_set_up_under_a_bound_equals_the_set_up_of_the_multidegree(case):
    """The same basis in the same order, equal differentials and equal
    projections of every bar cell, and classify on the bound's packing
    equal to the reference on every bar cell of m."""
    pres, m, bound = case
    got, want = morse_complexes(pres, bound)(m), morse_complex(pres, m)
    assert list(got[0].basis.items()) == list(want[0].basis.items()), (m, bound)
    assert got[0].diff == want[0].diff, (m, bound)
    for s, tensors in bar_basis(pres, m).items():
        for tensor in tensors:
            chain = BarChain(pres, s, {tensor: 1})
            assert got[1](chain) == want[1](chain), (m, bound, tensor)
    _assert_classify_equals_the_reference(pres, m, bound)


def test_a_set_up_refuses_a_multidegree_above_its_bound():
    pres = a_q(ChromaticParams(2, 2))
    morse = morse_complexes(pres, (3, 1))
    assert morse((3, 0))[0].basis == morse_complex(pres, (3, 0))[0].basis
    for m in [(4, 0), (0, 2)]:
        with pytest.raises(ValueError, match="exceeds the bound"):
            morse(m)
        with pytest.raises(ValueError, match="exceeds the bound"):
            hh_dims(pres, m, morse)


@settings(max_examples=30, deadline=None, database=None)
@given(matching_cases(), st.data())
def test_hkr_check_rows_are_the_per_multidegree_dims_and_predictions(case, data):
    """Any list of multidegrees, in any order and with repeats, on one set-up."""
    pres, m = case
    ms = data.draw(st.lists(st.sampled_from(multidegrees_up_to(pres, sum(m))), max_size=4))
    want = [{"multidegree": multidegree_to_dict(pres, k), "computed": hh_dims(pres, k),
             "predicted": hkr_predicted_dims(pres, k)} for k in ms]
    for row in want:
        row["equal"] = row["computed"] == row["predicted"]
    assert hkr_check(pres, ms).rows == want


# -- the projection onto the Morse complex ---------------------------------------


PROJECTION_CASES = [("a:2:2", 6), ("a:2:3", 4), ("hh_a:2:2", 3), ("bp:2:2", 5)]


@functools.cache
def _complexes(preset, m):
    """The presentation, the bar_window reference and morse_complex at m."""
    pres = parse_preset(preset)
    return pres, bar_window(pres, m), *morse_complex(pres, m)


@st.composite
def projection_cases(draw):
    preset, weight = draw(st.sampled_from(PROJECTION_CASES))
    m = draw(st.sampled_from(multidegrees_up_to(parse_preset(preset), weight)))
    return _complexes(preset, m)


def _vector(draw, size):
    """A random {index: value} over range(size), zeros left out."""
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=size,
                           max_size=size))
    return {i: v for i, v in enumerate(values) if v}


def _apply(matrix, v):
    """matrix times the column vector v, as {row: value}."""
    return combine((i, c * v[j]) for i, row in matrix.data.items()
                   for j, c in row.items() if j in v)


def _chain(pres, window, level, v):
    return BarChain(pres, level, {window.basis[level][i]: c for i, c in v.items()})


@settings(max_examples=80, deadline=None, database=None)
@given(projection_cases(), st.data())
def test_project_is_a_chain_map(case, data):
    pres, bar, morse, project = case
    s = data.draw(st.integers(0, morse.hi))
    x = _chain(pres, bar, s, _vector(data.draw, len(bar.basis[s])))
    assert project(hochschild_diff(x)) == _apply(morse.diff[s], project(x))


@settings(max_examples=80, deadline=None, database=None)
@given(projection_cases(), st.booleans(), st.data())
def test_the_morse_boundary_test_agrees_with_the_bar_window(case, boundary, data):
    """A random boundary, or a random boundary plus a level-s cycle that
    bar_window's in_span (the reference) finds is none."""
    pres, bar, morse, project = case
    if not boundary:
        levels = [s for s, d in bar.homology_dims((0, bar.hi - 1)).items() if d]
        s = data.draw(st.sampled_from(levels))
        cycle = next(k for k in kernel_basis(bar.diff[s])
                     if not in_span(bar.diff[s + 1], k).in_span)
    else:
        s, cycle = data.draw(st.integers(0, morse.hi - 1)), {}
    z = combine([*_apply(bar.diff[s + 1], _vector(data.draw, len(bar.basis[s + 1]))).items(),
                 *cycle.items()])
    assert in_span(bar.diff[s + 1], z).in_span == boundary
    chain = _chain(pres, bar, s, z)
    assert hochschild_diff(chain).is_zero()
    assert in_span(morse.diff[s + 1], project(chain)).in_span == boundary


@pytest.mark.parametrize("preset, m", [("a:2:2", (3, 1)), ("a:2:3", (1, 2, 1)),
                                      ("hh_a:2:2", (1, 1, 1, 0)), ("bp:2:2", (2, 2))])
def test_project_fixes_critical_cells_and_kills_upper_ones(preset, m):
    pres, _, morse, project = _complexes(preset, m)
    pack = hochschild._packing(pres, m)[0]
    classify = hochschild._matching(pres, m)
    for s, tensors in bar_basis(pres, m).items():
        for tensor in tensors:
            kind = classify(tuple(map(pack, tensor)))[0]
            got = project(BarChain(pres, s, {tensor: 1}))
            if kind == CRITICAL:
                assert got == {morse.basis[s].index(tensor): 1}, tensor
            elif kind == UPPER:
                assert got == {}, tensor


def test_project_refuses_a_chain_off_its_multidegree_or_not_normalized():
    pres, _, _, project = _complexes("a:2:2", (2, 1))
    with pytest.raises(ValueError, match="multidegree"):
        project(BarChain(pres, 1, {((1, 0), (1, 0)): 1}))
    with pytest.raises(ValueError, match="normalized"):
        project(BarChain(pres, 1, {((2, 1), (0, 0)): 1}))
    assert project(BarChain(pres, 1)) == {}


def test_the_shared_zero_flow_stays_empty():
    # every cell that flows to 0 shares hochschild._ZERO: a reader that
    # wrote into a flow would leave it nonempty
    pres = parse_preset("hh_a:2:2")
    assert hkr_check(pres, multidegrees_up_to(pres, 4)).all_equal
    assert hochschild._ZERO == {}
    obstruction_report(2, 3, [5, 7])
    assert hochschild._ZERO == {}


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
    window = morse_complex(pres, (1, 2, 2))[0]
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


def test_hh_a23_multidegree_6_6_1_matches_hkr_within_budget():
    """A complex of 9,456,896 cells, of which 8 are critical."""
    pres = a_q(ChromaticParams(2, 3))
    start = time.monotonic()
    dims = hh_dims(pres, (6, 6, 1))
    elapsed = time.monotonic() - start
    assert dims == hkr_predicted_dims(pres, (6, 6, 1)) == {33: 1, 34: 3, 35: 3, 36: 1}
    assert elapsed < 5, f"hh_dims on a:2:3 (6, 6, 1) took {elapsed:.1f}s"


# -- the runtime guards --------------------------------------------------------------


def test_a_partner_that_does_not_classify_back_raises(monkeypatch, capsys):
    real = hochschild._matching

    def upper_points_at_itself(pres, m):
        classify = real(pres, m)
        return lambda t: (UPPER, t) if classify(t)[0] == UPPER else classify(t)

    monkeypatch.setattr(hochschild, "_matching", upper_points_at_itself)
    with pytest.raises(ArithmeticError, match="does not match back"):
        morse_complex(a_q(ChromaticParams(2, 2)), (2, 1))
    code = cli.main(["hkr-check", "--preset", "a:2:2", "--max-weight", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, ""), captured.err
    assert captured.err.startswith("error: Morse partner of "), captured.err
    assert captured.err.endswith(" does not match back\n") and captured.err.count("\n") == 1


def test_a_matched_coefficient_other_than_a_unit_raises(monkeypatch):
    real = hochschild._faces
    monkeypatch.setattr(hochschild, "_faces", lambda *args: (
        (face, 2 * sign) for face, sign in real(*args)))
    with pytest.raises(ArithmeticError, match="not a unit"):
        morse_complex(a_q(ChromaticParams(2, 2)), (2, 1))


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
        morse_complex(pres, m)


def _drop_a_cell(pres, m, pack, cells):
    basis, packed = cells
    top = max(s for s, tensors in basis.items() if tensors)
    return {**basis, top: basis[top][:-1]}, {**packed, top: packed[top][:-1]}


def _add_a_matched_cell(pres, m, pack, cells):
    """A level-2 bar cell that is not critical, where m has one."""
    basis, packed = cells
    extra = next((t for t in bar_basis(pres, m).get(2, ()) if t not in basis[2]), None)
    if extra is None:
        return cells
    level = sorted([*zip(basis[2], packed[2]), (extra, tuple(map(pack, extra)))])
    return {**basis, 2: [t for t, _ in level]}, {**packed, 2: [c for _, c in level]}


@pytest.mark.parametrize("mutant, message", [
    (_drop_a_cell, "critical cells break the Euler characteristic"),
    (_add_a_matched_cell, "an enumerated cell is not critical"),
], ids=["drop a cell", "add a matched cell"])
def test_a_faulty_critical_cell_enumerator_raises(monkeypatch, capsys, mutant, message):
    real = hochschild._critical_cells
    monkeypatch.setattr(hochschild, "_critical_cells", lambda pres, pack:
                        lambda m: mutant(pres, m, pack, real(pres, pack)(m)))
    with pytest.raises(ArithmeticError, match=message):
        morse_complex(a_q(ChromaticParams(2, 2)), (2, 1))
    for argv in (["hh", "--preset", "a:2:2", "--multidegree", "v1:2,eps:1"],
                 ["obstruction", "--p", "2", "--n", "2", "--exponents", "4"],
                 ["hkr-check", "--preset", "a:2:2", "--max-weight", "3"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n"), argv
