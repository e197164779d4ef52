"""The normalized cyclic bar complex in a fixed multidegree."""

import functools
import itertools
import time
from fractions import Fraction

import pytest

from gradedhh import hochschild
from gradedhh.chromatic_presets import ChromaticParams, a_q, parse_preset, preset_families
from gradedhh.dg_complexes import assemble
from gradedhh.exact_linear import combine
from gradedhh.graded_algebra import (
    Element,
    kahler_d,
    koszul_mul,
    localize,
    make_presentation,
    mono_degree,
)
from gradedhh.hochschild import (
    BarChain,
    D_map,
    bar_basis,
    bar_window,
    hh_dims,
    hkr_check,
    hkr_predicted_dims,
    hochschild_diff,
    internal_degree,
    multidegree_from_dict,
    multidegrees_up_to,
)


def one_even():
    return make_presentation([("v", 2, False)])


def one_odd():
    return make_presentation([("eps", -7, False)])


def mixed():
    return a_q(ChromaticParams(2, 2))  # v1 in degree 2, eps in degree -7


# -- multidegrees ---------------------------------------------------------------


def test_multidegree_round_trip_and_internal_degree():
    pres = mixed()
    m = multidegree_from_dict(pres, {"v1": 3, "eps": 1})
    assert m == (3, 1)
    assert internal_degree(pres, m) == 3 * 2 - 7


def test_multidegree_validation():
    pres = mixed()
    with pytest.raises(ValueError):
        multidegree_from_dict(pres, {"v1": -1})
    with pytest.raises(KeyError):
        multidegree_from_dict(pres, {"w": 1})


def test_multidegrees_up_to_ordering():
    pres = one_even()
    assert multidegrees_up_to(pres, 3) == [(0,), (1,), (2,), (3,)]
    two = make_presentation([("a", 2, False), ("b", 4, False)])
    ms = multidegrees_up_to(two, 2)
    assert ms == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("family", preset_families())
def test_multidegrees_up_to_equals_the_filtered_exponent_box(family):
    for n in (2, 3):
        pres = parse_preset(f"{family}:2:{n}")
        for weight in range(5):
            box = [m for m in itertools.product(range(weight + 1), repeat=pres.ngens)
                   if sum(m) <= weight]
            assert multidegrees_up_to(pres, weight) == sorted(box, key=lambda m: (sum(m), m))
        with pytest.raises(ValueError, match="nonnegative"):
            multidegrees_up_to(pres, -1)


def test_laurent_generators_are_rejected():
    pres = localize(one_even(), "v")
    with pytest.raises(ValueError):
        bar_basis(pres, (1,))
    with pytest.raises(ValueError):
        hh_dims(pres, (1,))
    with pytest.raises(ValueError):
        hochschild_diff(BarChain(pres, 1, {((1,), (-1,)): Fraction(1)}))


# -- bar bases -------------------------------------------------------------------


def test_bar_basis_single_even_generator():
    pres = one_even()
    basis = bar_basis(pres, (1,))
    assert basis[0] == [((1,),)]
    assert basis[1] == [((0,), (1,))]
    assert set(basis) == {0, 1}


def test_bar_basis_exterior_square():
    pres = one_odd()
    basis = bar_basis(pres, (2,))
    assert basis[0] == []  # eps^2 = 0 kills the level-0 piece
    assert basis[1] == [((1,), (1,))]
    assert basis[2] == [((0,), (1,), (1,))]


def test_bar_basis_positions_past_zero_are_non_unit():
    pres = mixed()
    for level, tensors in bar_basis(pres, (2, 1)).items():
        for tensor in tensors:
            assert len(tensor) == level + 1
            for slot in tensor[1:]:
                assert any(slot)


def test_bar_basis_empty_multidegree():
    pres = mixed()
    basis = bar_basis(pres, (0, 0))
    assert basis == {0: [((0, 0),)]}


# -- the differential -------------------------------------------------------------


def test_diff_of_level_one_generator_tensor_is_zero():
    pres = one_even()
    x = BarChain(pres, 1, {((0,), (1,)): Fraction(1)})
    assert hochschild_diff(x).is_zero()


def test_diff_merges_adjacent_slots():
    pres = one_even()
    # b(v | v) = v.v - v.v = 0 (face 0 merges left, face 1 wraps around)
    x = BarChain(pres, 1, {((1,), (1,)): Fraction(1)})
    assert hochschild_diff(x).is_zero()
    # b(1 | v | v) = v | v - 1 | v^2 + v | v : the wrap-around face carries no
    # sign flip here because all entries are even
    y = BarChain(pres, 2, {((0,), (1,), (1,)): Fraction(1)})
    d = hochschild_diff(y)
    assert d.terms == {
        ((1,), (1,)): Fraction(2),
        ((0,), (2,)): Fraction(-1),
    }


def test_diff_on_odd_square_chain_is_zero():
    # three faces: eps.eps = 0, eps.eps = 0, and the wrap-around face
    # (-1)(-1)^{|eps|(|eps|)} eps.eps = 0; everything vanishes term by term
    pres = one_odd()
    x = BarChain(pres, 2, {((0,), (1,), (1,)): Fraction(1)})
    assert hochschild_diff(x).is_zero()


def test_diff_wrap_around_sign_with_odd_entries():
    pres = mixed()
    v_mono, eps_mono = (1, 0), (0, 1)
    unit = (0, 0)
    # b(eps | v1) = eps.v1 - eps.v1 = 0; b(v1 | eps) likewise
    for first, second in [(eps_mono, v_mono), (v_mono, eps_mono)]:
        x = BarChain(pres, 1, {(first, second): Fraction(1)})
        assert hochschild_diff(x).is_zero()
    # b(1 | eps | eps): the wrap-around face picks up (-1)^2 .
    # (-1)^{|eps|.(0+|eps|)} = +1 on an odd-odd crossing, and eps^2 = 0
    x = BarChain(pres, 2, {(unit, eps_mono, eps_mono): Fraction(1)})
    assert hochschild_diff(x).is_zero()


def test_diff_squares_to_zero_exhaustive():
    pres = mixed()
    for m in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]:
        basis = bar_basis(pres, m)
        for level, tensors in basis.items():
            for tensor in tensors:
                x = BarChain(pres, level, {tensor: Fraction(1)})
                assert hochschild_diff(hochschild_diff(x)).is_zero(), (m, tensor)


def test_diff_preserves_multidegree_and_internal_degree():
    pres = mixed()
    for m in [(1, 1), (2, 1), (3, 0)]:
        for level, tensors in bar_basis(pres, m).items():
            for tensor in tensors:
                x = BarChain(pres, level, {tensor: Fraction(1)})
                d = hochschild_diff(x)
                if d.is_zero():
                    continue
                assert d.multidegree() == m
                assert all(sum(internal_degree(pres, a) for a in t) == internal_degree(pres, m)
                           for t in d.terms)


def test_diff_closes_on_normalized_basis():
    # no Laurent generators: faces of normalized tensors stay normalized
    pres = mixed()
    for m in [(1, 1), (2, 1), (0, 2)]:
        basis = bar_basis(pres, m)
        for level, tensors in basis.items():
            if level == 0:
                continue
            allowed = set(basis.get(level - 1, []))
            for tensor in tensors:
                x = BarChain(pres, level, {tensor: Fraction(1)})
                for out_tensor in hochschild_diff(x).terms:
                    assert out_tensor in allowed, (m, tensor, out_tensor)


def test_level_bound_is_weight():
    pres = mixed()
    for m in [(1, 0), (1, 1), (2, 1)]:
        basis = bar_basis(pres, m)
        weight = sum(m)
        assert all(0 <= level <= weight for level in basis)
        assert basis.get(weight), m  # top level is always inhabited


def test_bar_window_pads_with_empty_levels():
    pres = one_even()
    w = bar_window(pres, (1,))
    assert w.basis[-1] == []
    assert w.basis[2] == []


def _rotation_flipped_at(level):
    """_faces with the sign of the rotation face flipped on one level."""
    faces = hochschild._faces

    def broken(tensor, odd, signs, total):
        out = list(faces(tensor, odd, signs, total))
        if len(tensor) - 1 == level and not tensor[-1] & tensor[0] & odd:
            face, sign = out[-1]
            out[-1] = face, -sign
        return out

    return broken


@pytest.mark.parametrize("level, into", [(1, 0), (3, 1), (9, 7)])
def test_bar_window_still_checks_d_compose_d(monkeypatch, level, into):
    # (9, 7): the top level is checked against the one below
    monkeypatch.setattr(hochschild, "_faces", _rotation_flipped_at(level))
    with pytest.raises(ValueError, match=f"d compose d is nonzero into degree {into}"):
        bar_window(mixed(), (8, 1))


# -- homology dims vs the symmetric-algebra prediction -------------------------------


def test_hh_dims_single_even_generator():
    pres = one_even()
    assert hh_dims(pres, (1,)) == {2: 1, 3: 1}


def test_hh_dims_single_odd_generator():
    pres = one_odd()
    assert hh_dims(pres, (2,)) == {-13: 1, -12: 1}


def test_hh_dims_mixed_weight_two():
    pres = mixed()
    m = multidegree_from_dict(pres, {"v1": 1, "eps": 1})
    assert hh_dims(pres, m) == {-5: 1, -4: 2, -3: 1}


def test_hh_dims_empty_multidegree():
    pres = mixed()
    assert hh_dims(pres, (0, 0)) == {0: 1}


def test_hkr_predicted_dims_examples():
    pres = one_even()
    assert hkr_predicted_dims(pres, (1,)) == {2: 1, 3: 1}
    # weight 2 on one even generator: v^2 (deg 4), v.sigma (deg 5), sigma^2 = 0
    assert hkr_predicted_dims(pres, (2,)) == {4: 1, 5: 1}
    odd = one_odd()
    # weight 2 on one odd generator: eps.sigma (-13), sigma^2 (-12), eps^2 = 0
    assert hkr_predicted_dims(odd, (2,)) == {-13: 1, -12: 1}


def test_hkr_check_collects_rows():
    pres = mixed()
    report = hkr_check(pres, multidegrees_up_to(pres, 3))
    assert report.all_equal
    assert len(report.rows) == 10
    j = report.to_json()
    assert j["all_equal"] is True
    assert all(set(r) == {"multidegree", "computed", "predicted", "equal"}
               for r in j["rows"])


# -- the level-one derivation map ----------------------------------------------------


def test_D_of_suspension_tensor():
    pres = one_even()
    x = BarChain(pres, 1, {((0,), (1,)): Fraction(1)})
    assert D_map(x) == kahler_d(Element.gen(pres, "v"))


def test_D_with_nonunit_zeroth_slot():
    pres = one_even()
    x = BarChain(pres, 1, {((1,), (1,)): Fraction(1)})
    v = Element.gen(pres, "v")
    assert D_map(x) == v * kahler_d(v)


def test_D_vanishes_off_level_one():
    pres = one_even()
    assert D_map(BarChain(pres, 0, {((1,),): Fraction(1)})).is_zero()
    assert D_map(
        BarChain(pres, 2, {((0,), (1,), (1,)): Fraction(1)})
    ).is_zero()


def test_D_kills_boundaries_from_level_two():
    for pres, ms in [(mixed(), [(1, 1), (2, 0), (2, 1), (0, 2)]),
                     (one_even(), [(2,), (3,)])]:
        for m in ms:
            for tensor in bar_basis(pres, m).get(2, []):
                x = BarChain(pres, 2, {tensor: Fraction(1)})
                assert D_map(hochschild_diff(x)).is_zero(), (pres.names, m, tensor)


def test_D_surjects_onto_one_forms_piece():
    # every c.d(g) with c a monomial is D of the level-one chain c | g
    pres = mixed()
    v1, eps = Element.gen(pres, "v1"), Element.gen(pres, "eps")
    target = v1**2 * kahler_d(eps)
    x = BarChain(pres, 1, {((2, 0), (0, 1)): Fraction(1)})
    assert D_map(x) == target


def test_hh_ladder_a22_multidegree_8_1_matches_hkr_within_budget():
    """The (8, 1) rung of the hh ladder: 686-column differentials."""
    pres = a_q(ChromaticParams(2, 2))
    m = multidegree_from_dict(pres, {"v1": 8, "eps": 1})
    start = time.monotonic()
    dims = hh_dims(pres, m)
    elapsed = time.monotonic() - start
    assert dims == hkr_predicted_dims(pres, m)
    assert elapsed < 30, f"hh_dims on a:2:2 (8, 1) took {elapsed:.1f}s"


def test_bar_basis_a22_multidegree_12_1_level_sizes_within_budget():
    """The (12, 1) rung of the hh ladder: 57,344 tensors over 14 levels."""
    pres = a_q(ChromaticParams(2, 2))
    m = multidegree_from_dict(pres, {"v1": 12, "eps": 1})
    start = time.monotonic()
    basis = bar_basis(pres, m)
    elapsed = time.monotonic() - start
    assert {s: len(tensors) for s, tensors in basis.items()} == dict(enumerate([
        1, 25, 222, 1078, 3355, 7227, 11220, 12804, 10791, 6655, 2926, 870, 157, 13,
    ]))
    assert elapsed < 1, f"bar_basis on a:2:2 (12, 1) took {elapsed:.2f}s"


# -- packed faces against the tuple rule ---------------------------------------------


def _reference_faces(pres, tensor):
    """(face, sign) pairs of b on one tensor of exponent tuples, through
    koszul_mul: the face rule the packed _faces is checked against."""
    s = len(tensor) - 1
    for i in range(s):
        hit = koszul_mul(pres, tensor[i], tensor[i + 1])
        if hit is not None:
            yield tensor[:i] + (hit[1],) + tensor[i + 2:], hit[0] * (-1) ** i
    hit = koszul_mul(pres, tensor[s], tensor[0]) if s else None
    if hit is not None:
        moved = mono_degree(pres, tensor[s]) % 2
        passed = moved and sum(mono_degree(pres, m) for m in tensor[:s]) % 2
        yield (hit[1],) + tensor[1:s], hit[0] * (-1) ** (passed + s)


def _packed_faces(pres, m, tensor):
    """The packed _faces of one tensor of multidegree m, summed and decoded."""
    pack, unpack, odd, signs = hochschild._packing(pres, m)
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    faces = hochschild._faces(tuple(map(pack, tensor)), odd, signs, total)
    return combine((tuple(map(unpack, face)), sign) for face, sign in faces)


def _odd_presets():
    """Presentations with 0, 1, 2 and 3 odd generators, odd and even
    interleaved, odd degrees of both signs."""
    return [
        make_presentation([("a", 2), ("b", 4)]),
        a_q(ChromaticParams(2, 2)),
        make_presentation([("x", 1), ("v", 2), ("y", -3)]),
        make_presentation([("x", 3), ("v", 2), ("y", -5), ("w", -4), ("z", 1)]),
    ]


FACE_CASES = list(zip(_odd_presets(), [
    [(3, 0), (2, 2), (1, 3)],
    [(4, 1), (2, 3), (0, 4)],
    [(1, 2, 1), (2, 1, 2), (1, 0, 3)],
    [(1, 1, 1, 0, 1), (2, 0, 1, 1, 1), (1, 1, 2, 0, 1)],
]))


@pytest.mark.parametrize("pres, ms", FACE_CASES, ids=["0 odd", "1 odd", "2 odd", "3 odd"])
def test_packed_faces_equal_the_tuple_rule_on_every_basis_tensor(pres, ms):
    for m in ms:
        for tensor in (t for tensors in bar_basis(pres, m).values() for t in tensors):
            want = combine(_reference_faces(pres, tensor))
            assert _packed_faces(pres, m, tensor) == want, (m, tensor)


def test_the_crossing_sign_table_is_built_once_per_odd_count_and_is_immutable():
    two_odd = _odd_presets()[2]  # x, v, y with x and y odd
    signs = hochschild._packing(two_odd, (1, 2, 1))[3]
    assert hochschild._packing(two_odd, (0, 5, 1))[3] is signs
    other = make_presentation([("v", 4), ("z", -1), ("w", 3)])  # another ring, two odd
    assert hochschild._packing(other, (3, 1, 0))[3] is signs
    assert hochschild._packing(_odd_presets()[3], (1, 1, 1, 0, 1))[3] is not signs
    assert type(signs) is tuple and all(type(row) is tuple for row in signs)
    with pytest.raises(TypeError):
        signs[1][2] = -signs[1][2]
    with pytest.raises(TypeError):
        signs[0] = signs[1]


def test_hochschild_diff_equals_the_tuple_rule_on_mixed_multidegrees():
    pres = _odd_presets()[3]
    ms = [(1, 1, 1, 0, 1), (2, 0, 1, 1, 1), (0, 2, 1, 1, 0), (1, 3, 0, 0, 1)]
    for level in (1, 2, 3):
        tensors = [t for m in ms for t in bar_basis(pres, m).get(level, [])]
        x = BarChain(pres, level, {t: Fraction(j % 5 - 2 or 3) for j, t in enumerate(tensors)})
        assert x.multidegree() is None  # mixed
        want = combine((face, sign * c) for t, c in x.terms.items()
                       for face, sign in _reference_faces(pres, t))
        assert hochschild_diff(x).terms == want, level


def test_hh_dims_match_hkr_with_three_odd_generators_up_to_weight_4():
    pres = make_presentation([("x", 1), ("v", 2), ("y", -3), ("z", 5)])
    for m in multidegrees_up_to(pres, 4):
        assert hh_dims(pres, m) == hkr_predicted_dims(pres, m), m


def _criterion_1_presets():
    return [
        make_presentation([("v", 2, False)]),
        make_presentation([("y", 3, False)]),
        a_q(ChromaticParams(2, 2)),
        a_q(ChromaticParams(3, 2)),
    ]


@pytest.mark.parametrize("pres", _criterion_1_presets(),
                         ids=["one even", "one odd", "a:2:2", "a:3:2"])
def test_bar_window_matrices_equal_the_tuple_rule_on_criterion_1_windows(pres):
    faces = functools.partial(_reference_faces, pres)
    for m in multidegrees_up_to(pres, 5):
        window = bar_window(pres, m)
        for s, matrix in window.diff.items():
            assert matrix == assemble(window.basis[s], window.basis[s - 1], faces), (m, s)
