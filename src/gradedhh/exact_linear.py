"""Exact sparse linear algebra over the rationals.

Every homology computation in this package reduces to three questions about
a matrix with rational entries: its rank, a basis of its kernel, and whether
a vector lies in its column span (with an explicit coefficient witness).
All three come from one forward-only, fraction-free elimination on integer
rows (_echelon: rows taken shortest first, sparsity-aware pivot columns):
rank counts its pivots, and kernel vectors and span witnesses are
back-substituted over its pivot rows, then certified exactly (m k == 0,
m x == v) before they are returned.
There is deliberately no floating point anywhere in this package.

Matrices are stored sparsely as rows {row: {col: value}}, nonempty rows
only, with an integral value stored as an int and any other as a Fraction.
The differentials the other modules produce have integer entries, so they
are pure-int rows from assembly through the d compose d product to
elimination.  They are sign-structured and sparse: a cone on a monomial
has one entry per row and per column.

A vector has one form, {index: value}, the form of a stored row: absent
indices are 0.  in_span reads v as {row: value}; kernel vectors and span
witnesses are {col: Fraction} with no zero stored, and from_columns makes
a matrix of such columns.

The module also owns the one sparse vector type over Q: QCombination, a
finite Q-linear combination of hashable labels.  Polynomials, Kahler
differentials, bar chains and matrix-DGA elements are all QCombinations
that differ only in what their labels are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple


def combine(pairs) -> dict:
    """Sum (label, coefficient) pairs by label, dropping labels that sum to 0."""
    acc = {}
    for label, c in pairs:
        acc[label] = acc.get(label, 0) + c
    return {label: c for label, c in acc.items() if c}


class QCombination:
    """Finite Q-linear combination of hashable labels: terms {label: Fraction}.

    Zero coefficients are never stored.  A subclass names the attributes
    that fix its ambient space in _SPACE (only combinations over the same
    space are added or compared) and validates labels in _check_key; its
    public constructor sets those attributes and then calls this one.
    Results of arithmetic on valid combinations are valid by construction,
    so _new builds them without re-checking labels.
    """

    __slots__ = ("terms",)
    _SPACE = ()

    def __init__(self, terms=None):
        check = self._check_key
        self.terms = combine(
            (check(label), Fraction(c)) for label, c in (terms or {}).items()
        )

    def _check_key(self, label):
        return label

    def _new(self, pairs, **attrs):
        """Same kind and space as self (attrs override), terms summed from pairs."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, attrs[name] if name in attrs else getattr(self, name))
        out.terms = combine(pairs)
        return out

    @classmethod
    def zero(cls, *space):
        return cls(*space)

    def _space(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SPACE)

    def _require_same(self, other):
        if self._space() != other._space():
            raise ValueError(
                f"{type(self).__name__}s over different {'/'.join(self._SPACE)}"
            )

    def _join(self, other):
        """Check that self + other makes sense; the operand the sum is like."""
        self._require_same(other)
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def _common(self, key):
        """key(label) when all terms agree on it; None if they differ or for 0."""
        seen = {key(label) for label in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._join(other)._new(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return self._new((label, -c) for label, c in self.terms.items())

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return self._new((label, c * q) for label, c in self.terms.items())

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))


class RationalMatrix:
    """Sparse matrix over Q, stored as data = {row: {col: value}}.

    Only nonempty rows are stored and never a zero value; an integral value
    is an int and any other a Fraction, so integer matrices are pure-int
    rows.  The constructor checks input from outside the program; _new
    builds results that are valid by construction unchecked.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of bounds for {rows}x{cols}")
            data.setdefault(i, {})[j] = Fraction(value)
        self.rows, self.cols, self.data = rows, cols, self._new(rows, cols, data.items()).data

    @classmethod
    def _new(cls, rows: int, cols: int, row_pairs):
        """Matrix from (row, {col: int or Fraction}) pairs, indices in range,
        in the stored form: zeros and empty rows dropped, integers as ints."""
        data = {}
        for i, row in row_pairs:
            row = {j: v.numerator if v.denominator == 1 else v for j, v in row.items() if v}
            if row:
                data[i] = row
        out = object.__new__(cls)
        out.rows, out.cols, out.data = rows, cols, data
        return out

    @property
    def entries(self) -> dict:
        """Read-only view {(row, col): Fraction} of the nonzero entries."""
        return {(i, j): Fraction(v) for i, row in self.data.items() for j, v in row.items()}

    @classmethod
    def from_columns(cls, columns, rows: int):
        """Matrix whose column j is the sparse vector columns[j], {row: value}."""
        return cls(rows, len(columns), {
            (i, j): v for j, column in enumerate(columns) for i, v in column.items()})

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Sparse product, row by row; int arithmetic when both are integral."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        right = other.data
        out = []
        for i, row in self.data.items():
            acc = {}
            for k, a in row.items():
                if k in right:
                    for j, w in right[k].items():
                        acc[j] = acc.get(j, 0) + a * w
            if acc:
                out.append((i, acc))
        return RationalMatrix._new(self.rows, other.cols, out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        rows = {i: dict(row) for i, row in self.data.items()}
        for i, row in other.data.items():
            rows.setdefault(i, {}).update((j + self.cols, v) for j, v in row.items())
        return RationalMatrix._new(self.rows, self.cols + other.cols, rows.items())

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        nonzero = sum(map(len, self.data.values()))
        return f"RationalMatrix({self.rows}x{self.cols}, {nonzero} nonzero)"


class SpanResult(NamedTuple):
    """Answer to "is v in the column span?", with a certificate when it is."""

    in_span: bool
    coefficients: dict | None


def _integer_row(row: dict) -> dict:
    """s * row for s the lcm of the denominators of a nonzero row; an all-int row itself."""
    for v in row.values():
        if type(v) is not int:
            scale = lcm(*(v.denominator for v in row.values()))
            return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
    return row


def _echelon(rows, ncols):
    """Forward-only, fraction-free elimination; yields (pivot column, pivot row).

    rows is {row id: nonzero row {col: int or Fraction}}, as RationalMatrix
    stores it, and is left as it is: each row is copied up front, scaled to
    integers, which keeps the row space.

    The rows pivot in one order fixed at entry, by (length, row id), a row
    eliminated to empty skipped.  In each pivot row the pivot column is
    sparsity-aware (Markowitz): the column the fewest live rows share, read
    off a column -> rows index that also names the rows to eliminate.  A row
    r with entry f in the pivot column becomes (p/g) r - (f/g) P, g = gcd(p,
    f), for the pivot row P with pivot p, then divided by the gcd of its
    entries.  Column ncols (in_span's augmented column) pivots only in a row
    with no other entry.

    A yielded row has no entry in any earlier pivot column, so the pivot rows
    are an echelon form that back-substitution solves last pivot first.  Its
    square block on the pivot columns is then triangular with a nonzero
    diagonal, and the row operations keep every linear relation among the
    columns, so the pivot columns of the input are a basis of its column space.
    """
    rows = {i: dict(_integer_row(r)) for i, r in rows.items()}
    where = {}
    for i, r in rows.items():
        for c in r:
            where.setdefault(c, set()).add(i)
    for pid in sorted(rows, key=lambda i: (len(rows[i]), i)):
        if pid not in rows:  # eliminated to empty
            continue
        _, col = min(((len(where[c]), c) for c in rows[pid] if c != ncols),
                     default=(0, ncols))
        prow = rows.pop(pid)
        for c in prow:
            where[c].discard(pid)
        yield col, prow
        p = prow[col]
        for i in list(where[col]):
            row = rows[i]
            f = row[col]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in prow.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    if c not in row:
                        where[c].add(i)
                    row[c] = nv
                else:
                    del row[c]
                    where[c].discard(i)
            if not row:
                del rows[i]
                continue
            content = gcd(*row.values())
            if content != 1:
                for c in row:
                    row[c] //= content


def _back_substitute(pivots, x):
    """Extend x ({column: Fraction}, absent entries 0) so that every pivot row
    r of _echelon has sum_c r[c] x[c] == 0; return x, still with no zeros."""
    for col, row in reversed(pivots):
        s = sum(v * x[c] for c, v in row.items() if c in x)
        if s:
            x[col] = Fraction(-s, row[col])
    return x


def rank(m: RationalMatrix) -> int:
    """Rank: the number of pivots of _echelon on m, no pivot row kept.  A
    zero matrix has none and is not eliminated."""
    return sum(1 for _ in _echelon(m.data, m.cols)) if m.data else 0


def kernel_basis(m: RationalMatrix):
    """Basis of {x : m x = 0}, one sparse vector per free column, ascending;
    the vector of free column f is 1 at f and 0 at every other free column."""
    pivots = list(_echelon(m.data, m.cols))
    pivot_cols = {col for col, _ in pivots}
    basis = [_back_substitute(pivots, {f: Fraction(1)})
             for f in range(m.cols) if f not in pivot_cols]
    if not m.matmul(RationalMatrix.from_columns(basis, m.cols)).is_zero():
        raise ArithmeticError("kernel certificate failed: m k != 0")
    return basis


def in_span(m: RationalMatrix, v) -> SpanResult:
    """Decide v ({row: value}) in columnspace(m); on success return x with m x = v.

    Eliminates [m | -v]: v is in the span iff the augmented column never
    pivots, and then (x, 1) solves the pivot rows with free entries 0.
    """
    if not all(type(i) is int and 0 <= i < m.rows for i in v):
        raise ValueError(f"vector index out of range for {m.rows} rows")
    target = RationalMatrix.from_columns([v], m.rows)
    aug = m.cols
    rows = dict(m.data)
    for i, row in target.data.items():
        rows[i] = {**rows.get(i, {}), aug: -row[0]}
    pivots = []
    for col, row in _echelon(rows, aug):
        if col == aug:
            return SpanResult(False, None)
        pivots.append((col, row))
    witness = _back_substitute(pivots, {aug: Fraction(1)})
    witness.pop(aug, None)
    if m.matmul(RationalMatrix.from_columns([witness], m.cols)) != target:
        raise ArithmeticError("in_span certificate failed: m x != v")
    return SpanResult(True, witness)
