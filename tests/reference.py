"""Helpers that only the tests use, kept beside the tests rather than in the
package: a dense matrix constructor, the transpose, the pivot columns, and
the tuple-built Morse matching."""

import itertools

from gradedhh import exact_linear, hochschild
from gradedhh.exact_linear import RationalMatrix


def from_rows(rows_data, cols=None) -> RationalMatrix:
    """Matrix from dense rows; cols defaults to the first row's length."""
    rows_data = [list(r) for r in rows_data]
    if cols is None:
        cols = len(rows_data[0]) if rows_data else 0
    entries = {}
    for i, row in enumerate(rows_data):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, value in enumerate(row):
            entries[(i, j)] = value
    return RationalMatrix(len(rows_data), cols, entries)


def transpose(m: RationalMatrix) -> RationalMatrix:
    out = {}
    for i, row in m.data.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return RationalMatrix._new(m.cols, m.rows, out.items())


def pivot_columns(m: RationalMatrix) -> frozenset:
    """The pivot columns of _echelon on m, a basis of its column space (see
    _echelon); none for a zero matrix, which is not eliminated.  _echelon is
    looked up on the module, so that a patched one is the one used."""
    if not m.data:
        return frozenset()
    return frozenset(col for col, _ in exact_linear._echelon(m.data, m.cols))


def matching(pres, m, pack):
    """classify(t) -> (kind, partner) on the packed tensors of multidegree m,
    with the low table built by enumerating every exponent tuple and scanning
    it for its lowest-ranked generator: the reference for
    hochschild._matching."""
    order = hochschild._digit_order(pres)
    low = {}
    for mono in itertools.product(*(range(min(e, 1) + 1 if pres.is_odd(i) else e + 1)
                                    for i, e in enumerate(m))):
        h = next((r for r, i in enumerate(order) if mono[i]), None)
        if h is not None:
            gen = tuple(int(i == order[h]) for i in range(pres.ngens))
            low[pack(mono)] = h, pres.is_odd(order[h]), pack(mono) - pack(gen)

    def classify(t):
        g = len(order)  # the walk starts at position 1 with no chain yet
        for j in range(1, len(t)):
            h, odd_h, rest = low[t[j]]
            if not (h < g or h == g and odd_h):
                return hochschild._UPPER, t[:j - 1] + (t[j - 1] + t[j],) + t[j + 1:]
            if rest:
                return hochschild._LOWER, t[:j] + (t[j] - rest, rest) + t[j + 1:]
            g = h
        return hochschild._CRITICAL, None

    return classify
