"""Matrix helpers that only the tests use: a dense constructor, the
transpose and the pivot columns, kept beside the tests rather than in the
package."""

from gradedhh import exact_linear
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
