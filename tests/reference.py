"""Helpers that only the tests use, kept beside the tests rather than in the
package: a dense matrix constructor, the transpose, the pivot columns, the
tuple-built Morse matching, and the enumerated quasi-isomorphism check of
the matrix DGA's cycle model, the reference for its counted route."""

import itertools

from gradedhh import exact_linear, hochschild
from gradedhh.dg_complexes import _ESCAPED, ChainWindow, MatrixDGA, _cycle_terms, assemble
from gradedhh.exact_linear import RationalMatrix, rank


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


def coordinates(terms: dict, labels) -> dict:
    """Coefficients {row: value} of the {label: value} terms on an ordered
    basis; every label must be in it."""
    index = {label: i for i, label in enumerate(labels)}
    if not terms.keys() <= index.keys():
        raise ValueError(_ESCAPED)
    return {index[label]: c for label, c in terms.items()}


def cycle_labels(dga: MatrixDGA, labels) -> list:
    """Labels of Z among one degree's (slot, mono) labels of the matrix DGA:
    ("diag", mono) for the v_n-free a slot first, then ("upper", mono) for
    the v_n-free b slot."""
    return [
        (kind, mono)
        for kind, want in (("diag", "a"), ("upper", "b"))
        for slot, mono in labels
        if slot == want and mono[dga.n - 1] == 0
    ]


def quasi_iso_check(amb: ChainWindow, inclusion: dict, window) -> dict:
    """Does the inclusion of a complex with zero differential induce
    isomorphisms on windowed homology?  {t: {sub, amb, induced_rank, iso}}.

    inclusion[t] is the matrix of the inclusion i on the degree-t bases, for
    t in [lo, hi + 1].  With zero differential on the included complex, i is
    a chain map exactly when amb.diff[t] i = 0, that is, when every column of
    inclusion[t] is an amb-cycle.  This is verified first and a failure
    raises: the rest of the computation would be meaningless.

    The included complex's H_t is all of its degree-t piece, of dimension
    inclusion[t].cols.  Its image in H_t(amb) is (im i + im B) / im B for
    B = amb.diff[t + 1], of dimension rank [i | B] - rank B: the rank of the
    induced map.
    """
    lo, hi = window
    for t in range(lo, hi + 2):
        if not amb.diff[t].matmul(inclusion[t]).is_zero():
            raise ValueError(f"inclusion is not a chain map at degree {t}")
    h_amb = amb.homology_dims(window)
    per_degree = {}
    for t in range(lo, hi + 1):
        sub = inclusion[t].cols
        induced = rank(inclusion[t].hstack(amb.diff[t + 1])) - amb.rank(t + 1)
        per_degree[t] = {"sub": sub, "amb": h_amb[t], "induced_rank": induced,
                         "iso": sub == h_amb[t] == induced}
    return per_degree


def cycles_inclusion(dga: MatrixDGA, window, amb: ChainWindow) -> dict:
    """{k: matrix of Z's inclusion into the matrix DGA at degree k} for k in
    [lo, hi + 1], the degrees quasi_iso_check reads.

    Z's labels and the inclusion targets are read off amb, the matrix DGA's
    window on the same range, so no degree piece is enumerated twice.
    """
    lo, hi = window
    return {
        k: assemble(cycle_labels(dga, amb.basis[k]), amb.basis[k],
                    lambda label: _cycle_terms(k, label).items())
        for k in range(lo, hi + 2)
    }
