"""Exact sparse linear algebra over the rationals.

Every homology computation in this package reduces to three questions about
a matrix with rational entries: its rank, a basis of its kernel, and whether
a vector lies in its column span (with an explicit coefficient witness).
All three come from one forward-only, fraction-free elimination on integer
rows (each row scaled by the lcm of its denominators) with a sparsity-aware
pivot choice (_echelon; its pivot row, the shortest live row, comes off a
heap with lazy deletion, not from a scan over all rows): the rank counts
its pivots, and kernel vectors and span witnesses are back-substituted over
its pivot rows, then certified exactly (m k == 0, m x == v) before they are
returned.  Matrix products run over the integers the same way.  There is
deliberately no floating point anywhere in this package.

Matrices are stored sparsely as {(row, col): Fraction}.  Elimination works
on per-row {col: value} dicts; the differentials the other modules produce
are sign-structured and sparse, and the largest ranked in practice have a
few thousand columns (2982 for the (10, 1) bar complex of a:2:2).

The module also owns the one sparse vector type over Q: QCombination, a
finite Q-linear combination of hashable labels.  Polynomials, Kahler
differentials, bar chains and matrix-DGA elements are all QCombinations
that differ only in what their labels are.
"""

from __future__ import annotations

import heapq
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
    """Sparse matrix over Q.  Zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of bounds for {rows}x{cols}")
            q = Fraction(value)
            if q:
                clean[(i, j)] = q
        self.entries = clean

    @classmethod
    def from_rows(cls, rows_data, cols=None):
        rows_data = [list(r) for r in rows_data]
        if cols is None:
            cols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(len(rows_data), cols, entries)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [list(c) for c in columns]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("ragged columns")
            for i, value in enumerate(col):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(rows, len(columns), entries)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def column(self, j: int):
        if not 0 <= j < self.cols:
            raise ValueError("column index out of range")
        return [self.entries.get((i, j), Fraction(0)) for i in range(self.rows)]

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * Fraction(vec[j])
        return out

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Product over the integers: rows of self and columns of other are
        scaled by the lcm of their denominators, and the scales are divided
        back out of the nonzero results only."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        col_scale = [1] * other.cols
        for (_, j), w in other.entries.items():
            col_scale[j] = lcm(col_scale[j], w.denominator)
        other_rows = [dict() for _ in range(other.rows)]
        for (k, j), w in other.entries.items():
            other_rows[k][j] = w.numerator * (col_scale[j] // w.denominator)
        entries = {}
        for i, row in enumerate(self.row_dicts()):
            if not row:
                continue
            scale, ints = _integer_row(row)
            acc = {}
            for k, a in ints.items():
                for j, w in other_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * w
            for j, total in acc.items():
                if total:
                    entries[(i, j)] = Fraction(total, scale * col_scale[j])
        return RationalMatrix(self.rows, other.cols, entries)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


class SpanResult(NamedTuple):
    """Answer to "is v in the column span?", with a certificate when it is."""

    in_span: bool
    coefficients: list | None


def _integer_row(row: dict):
    """(s, s * row) for s the lcm of the denominators of a nonzero row."""
    scale = lcm(*(v.denominator for v in row.values()))
    return scale, {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _echelon(row_dicts, ncols):
    """Forward-only, fraction-free elimination; yields (pivot column, pivot row).

    Each row is scaled to integers, an invertible row operation, so the row
    space is unchanged.  A row r with entry f in the pivot column becomes
    (p/g) r - (f/g) P, g = gcd(p, f), for the pivot row P with pivot p, and
    is then divided by the gcd of its entries, so entries stay small.  The
    pivot is sparsity-aware (Markowitz): the shortest live row, and in it the
    column that the fewest live rows share, read off a column -> rows index
    that also names the rows to eliminate.  Column ncols, when present (the
    augmented column of in_span), pivots only in a row with no other entry.

    The shortest live row, ties to the lowest row id, comes off a heap of
    (length, row id) with lazy deletion: a row is pushed again whenever
    elimination changes its length, and a popped entry whose row is gone or
    has another length is skipped.  Every live row has an entry with its
    current length, so the heap pops the pivots a scan over all live rows
    would pick, in the same order.

    A yielded row has no entry in any earlier pivot column, so the pivot rows
    are an echelon form that back-substitution solves last pivot first.
    """
    rows = {i: _integer_row(r)[1] for i, r in enumerate(row_dicts) if r}
    where = {}
    for i, r in rows.items():
        for c in r:
            where.setdefault(c, set()).add(i)

    def drop(c, i):
        live = where[c]
        live.discard(i)
        if not live:
            del where[c]

    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    while rows:
        length, pid = heapq.heappop(heap)
        if len(rows.get(pid, ())) != length:
            continue
        _, col = min(((len(where[c]), c) for c in rows[pid] if c != ncols),
                     default=(0, ncols))
        prow = rows.pop(pid)
        for c in prow:
            drop(c, pid)
        yield col, prow
        p = prow[col]
        for i in list(where.get(col, ())):
            row = rows[i]
            before = len(row)
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
                        where.setdefault(c, set()).add(i)
                    row[c] = nv
                else:
                    del row[c]
                    drop(c, i)
            if not row:
                del rows[i]
                continue
            if len(row) != before:
                heapq.heappush(heap, (len(row), i))
            content = gcd(*row.values())
            if content != 1:
                for c in row:
                    row[c] //= content


def _back_substitute(pivots, ncols, x):
    """Extend x ({column: Fraction}, absent entries 0) so that every pivot row
    r of _echelon has sum_c r[c] x[c] == 0; return x[0 .. ncols - 1] dense."""
    for col, row in reversed(pivots):
        s = sum(v * x[c] for c, v in row.items() if c in x)
        if s:
            x[col] = Fraction(-s, row[col])
    zero = Fraction(0)
    return [x.get(c, zero) for c in range(ncols)]


def rank(m: RationalMatrix) -> int:
    """Rank: the number of pivots of _echelon; no pivot row is kept."""
    return sum(1 for _ in _echelon(m.row_dicts(), m.cols))


def kernel_basis(m: RationalMatrix):
    """Basis of {x : m x = 0}, one vector per free column, ascending; the
    vector of free column f is 1 at f and 0 at every other free column."""
    pivots = list(_echelon(m.row_dicts(), m.cols))
    pivot_cols = {col for col, _ in pivots}
    basis = [_back_substitute(pivots, m.cols, {f: Fraction(1)})
             for f in range(m.cols) if f not in pivot_cols]
    if not m.matmul(RationalMatrix.from_columns(basis, rows=m.cols)).is_zero():
        raise ArithmeticError("kernel certificate failed: m k != 0")
    return basis


def in_span(m: RationalMatrix, v) -> SpanResult:
    """Decide v in columnspace(m); on success return x with m x = v.

    Eliminates [m | -v]: v is in the span iff the augmented column never
    pivots, and then (x, 1) solves the pivot rows with free entries 0.
    """
    v = [Fraction(x) for x in v]
    if len(v) != m.rows:
        raise ValueError("vector length does not match row count")
    aug = m.cols
    rows = m.row_dicts()
    for i, value in enumerate(v):
        if value:
            rows[i][aug] = -value
    pivots = []
    for col, row in _echelon(rows, aug):
        if col == aug:
            return SpanResult(False, None)
        pivots.append((col, row))
    witness = _back_substitute(pivots, m.cols, {aug: Fraction(1)})
    if m.mul_vector(witness) != v:
        raise ArithmeticError("in_span certificate failed: m x != v")
    return SpanResult(True, witness)
