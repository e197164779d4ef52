"""Exact sparse linear algebra over the rationals."""

import random
from fractions import Fraction

import pytest

from gradedhh import exact_linear
from gradedhh.dg_complexes import ChainWindow, assemble
from gradedhh.exact_linear import (
    RationalMatrix,
    in_span,
    kernel_basis,
    rank,
)
from reference import from_rows, transpose


def times(m, x):
    """m x as {row: value}, x a sparse vector {col: value}."""
    return transpose(m.matmul(RationalMatrix.from_columns([x], m.cols))).data.get(0, {})


def test_rank_of_dependent_rows():
    m = from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_of_identity():
    identity = from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert rank(identity) == 4


def test_rank_of_zero_matrix():
    assert rank(RationalMatrix(3, 5)) == 0


def test_zero_matrices_skip_elimination(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("_echelon was entered")

    monkeypatch.setattr(exact_linear, "_echelon", refuse)
    zeros = [RationalMatrix(0, 0), RationalMatrix(0, 3), RationalMatrix(4, 0),
             RationalMatrix(3, 5), RationalMatrix(2, 2, {(0, 1): 0, (1, 0): Fraction(0)})]
    for m in zeros:
        assert rank(m) == 0
    window = ChainWindow({0: ["x", "y"], 1: ["z"], 2: []},
                         {1: RationalMatrix(2, 1), 2: RationalMatrix(1, 0)})
    assert window.rank(1) == window.rank(2) == 0
    # a nonzero matrix still goes through elimination
    with pytest.raises(AssertionError, match="_echelon"):
        rank(RationalMatrix(1, 1, {(0, 0): 1}))


def test_rank_with_fractional_entries():
    m = from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    )
    assert rank(m) == 2
    singular = from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    )
    assert rank(singular) == 1


def test_kernel_of_dependent_columns():
    m = from_rows([[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == {0: Fraction(-2), 1: Fraction(1)}


def test_kernel_of_injective_map_is_empty():
    m = from_rows([[1, 0], [0, 1], [1, 1]])
    assert kernel_basis(m) == []


def test_kernel_of_zero_map_is_full():
    m = RationalMatrix(2, 3)
    basis = kernel_basis(m)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_in_span_with_witness():
    m = from_rows([[1, 2], [2, 4]])
    result = in_span(m, {0: Fraction(3), 1: Fraction(6)})
    assert result.in_span
    assert times(m, result.coefficients) == {0: 3, 1: 6}


def test_not_in_span():
    m = from_rows([[1, 2], [2, 4]])
    result = in_span(m, {0: Fraction(1)})
    assert not result.in_span
    assert result.coefficients is None


def test_in_span_of_empty_matrix():
    m = RationalMatrix(2, 0)
    assert in_span(m, {}).in_span
    assert in_span(m, {0: Fraction(0), 1: 0}).in_span
    assert not in_span(m, {0: Fraction(1)}).in_span


def test_in_span_never_pivots_on_v_beside_a_column_of_m():
    # The first pivot row is (1, 0 | -1): there v's column is shared by fewer
    # rows than column 0, yet pivoting on it would put (1, 0, 0) outside the
    # span of (1, 1, 1) and (0, 1, 1).
    m = from_rows([[1, 0], [1, 1], [1, 1]])
    result = in_span(m, {0: 1})
    assert result.in_span
    assert times(m, result.coefficients) == {0: 1}


def test_matmul_and_transpose():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert a.matmul(b) == from_rows([[2, 1], [4, 3]])
    assert transpose(a) == from_rows([[1, 3], [2, 4]])
    # columns are sparse vectors {row: value}
    assert RationalMatrix.from_columns([{0: 1, 1: 3}, {0: 2, 1: Fraction(8, 2)}], 2) == a
    assert RationalMatrix.from_columns([], 3) == RationalMatrix(3, 0)
    with pytest.raises(ValueError, match="out of bounds"):
        RationalMatrix.from_columns([{2: 1}], 2)


def test_matmul_shape_mismatch():
    a = from_rows([[1, 2]])
    b = from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a.matmul(b)
    # in_span's vector is {row: value}: an index outside the rows is refused
    for v in ({1: 1}, {-1: 1}, {"0": 1}, {0.0: 1}, {True: 1}):
        with pytest.raises(ValueError, match="out of range"):
            in_span(a, v)


def test_hstack():
    a = from_rows([[1], [2]])
    b = from_rows([[3], [4]])
    assert a.hstack(b) == from_rows([[1, 3], [2, 4]])
    # Fraction entries, a row empty on one side or both, and no self entries
    c = from_rows([[Fraction(1, 2), 0], [0, 0], [0, 0]])
    d = from_rows([[0], [Fraction(4, 2)], [0]])
    cd = c.hstack(d)
    assert cd == from_rows(
        [[Fraction(1, 2), 0, 0], [0, 0, 2], [0, 0, 0]])
    assert cd.data == {0: {0: Fraction(1, 2)}, 1: {2: 2}}
    assert type(cd.data[1][2]) is int
    assert RationalMatrix(3, 0).hstack(d) == d
    with pytest.raises(ValueError, match="row count mismatch"):
        a.hstack(d)


def test_zero_entries_are_never_stored():
    m = from_rows([[1, 0], [0, 0]])
    assert set(m.entries) == {(0, 0)}
    n = RationalMatrix(2, 2, {(0, 1): Fraction(0)})
    assert n.entries == {}
    # integral values are stored as ints, any other value as a Fraction
    q = RationalMatrix(2, 2, {(1, 0): Fraction(4, 2), (1, 1): Fraction(1, 2)})
    assert q.data == {1: {0: 2, 1: Fraction(1, 2)}}
    assert type(q.data[1][0]) is int and type(q.data[1][1]) is Fraction
    # assembled sums: row "a" cancels and is not stored; (b, x) sums to 2
    images = {"x": [("a", 1), ("b", Fraction(1, 2)), ("a", -1), ("b", Fraction(3, 2))],
              "y": [("b", Fraction(1, 2))]}
    m = assemble(["x", "y"], ["a", "b"], images.get)
    assert m.data == {1: {0: 2, 1: Fraction(1, 2)}}
    assert type(m.data[1][0]) is int


def _random_matrix(rng, rows, cols, density=0.5):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return RationalMatrix(rows, cols, entries)


def test_rank_agrees_with_transpose_rank():
    rng = random.Random(20260819)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank(transpose(m))


def test_kernel_vectors_map_to_zero_and_count_matches_rank():
    rng = random.Random(77)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert times(m, vec) == {}


def test_every_image_vector_is_in_span():
    rng = random.Random(1234)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(m.cols)}
        v = times(m, x)
        result = in_span(m, v)
        assert result.in_span
        assert times(m, result.coefficients) == v


def test_a_wrong_back_substitution_fails_the_certificates(monkeypatch):
    monkeypatch.setattr(exact_linear, "_back_substitute",
                        lambda pivots, x: {0: Fraction(7), 1: Fraction(7)})
    m = from_rows([[1, 2], [2, 4]])
    for call in (lambda: in_span(m, {0: Fraction(3), 1: Fraction(6)}),
                 lambda: kernel_basis(m)):
        with pytest.raises(ArithmeticError) as info:
            call()
        assert not isinstance(info.value, ValueError)
