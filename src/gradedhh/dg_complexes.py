"""Chain windows, the cone on one element, and a 2x2 matrix DG algebra.

Two layers.  A GradedComplex is symbolic: the cone on one homogeneous
element r over a presentation P, the two terms P <- P[|r| + 1] with
differential left multiplication by r, so d compose d = 0 by structure.  A
ChainWindow is concrete: explicit bases and exact differential matrices over
a finite degree range, with d compose d = 0 checked at construction.
assemble, which writes the image of each source label as a column, builds
every differential but the multiplication blocks of realize and
cone_report.

A realized cone and an enumerated matrix-DGA window take their bases from
one degree_pieces call over the hull of every shifted degree read.
ChainWindow.rank(t) eliminates diff[t] once, and homology_dims reads it.
The matrix-DGA questions take one route: they count ranks, homology and
the quasi-isomorphism from piece sizes under the class-shape certificate of
_certified_sizes (proof there), and refuse with ArithmeticError when it
fails; they enumerate no window.  cone_report realizes no window and reads
all it reports off ranks and piece sizes: for r with one term it counts the
ranks from piece sizes, enumerating nothing, and otherwise it ranks one
multiplication block per degree and drops it (proof there).

The matrix DG algebra models the endomorphisms of the cone on v_n over
Q[v_1, ..., v_n].  A degree-k element is a 2x2 matrix [[a, b], [c, d]] with
|a| = |d| = k, |b| = k + 2p^n - 1 and |c| = k - 2p^n + 1; the (1,2) unit
therefore sits in degree 1 - 2p^n.  An element is one QCombination over
(slot, monomial) labels, the same labels that index the basis of the
degree-k piece.  The differential is

    d[[a, b], [c, d]] = [[v_n c, v_n d - (-1)^k a v_n], [0, -(-1)^k c v_n]]

and its degree-k cycles have the shape [[a, b], [0, (-1)^k a]].  The cycles
with no v_n in a or b form a genuinely graded-commutative sub-DG-algebra
with zero differential whose inclusion is a quasi-isomorphism; its basis
realizes Q[v_1, ..., v_{n-1}] (diagonal classes) together with an exterior
class eps (the strictly upper classes) one degree above -2p^n.

The product and the differential are generators of ((slot, monomial),
coefficient) pairs, _product_pairs and _diff_pairs, the only product and
differential rules: the base ring is polynomial, so monomials multiply by
adding exponent tuples, with no sign.  The pair checks (the derivation law,
and the closure and commutativity of Z) decide each ordered pair through one
representative of its class, building no element (proof in
dga_structure_check); one degree piece is enumerated per inhabited class.
homology_ring_check takes eps and diag(v_i) as Z's basis elements and
decides their relations on the same streams.  MatrixDGAElement, with
dga_diff, mdga_eps and mdga_diag, is library API and the tests' reference;
no CLI path builds one.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import add

from .exact_linear import (
    QCombination,
    RationalMatrix,
    combine,
    rank,
)
from .graded_algebra import (
    Element,
    Presentation,
    _check_mono,
    degree_dims,
    degree_pieces,
    koszul_multiplier,
    mono_degree,
    mono_one,
    product_sizes,
)
from .chromatic_presets import ChromaticParams, a_q, bp_q, eps_degree


# ---------------------------------------------------------------------------
# Concrete windowed complexes.


class ChainWindow:
    """Bases and degree -1 differential matrices over a contiguous range.

    basis maps degree -> ordered list of hashable labels; diff[t] maps the
    degree-t basis to the degree-(t-1) basis.  Homology at t needs both
    diff[t] and diff[t+1], so it is available on [lo+1, hi-1] only; builders
    pad their requested window by one degree on each side.
    """

    def __init__(self, basis: dict, diff: dict):
        degrees = sorted(basis)
        if not degrees:
            raise ValueError("empty chain window")
        self.lo, self.hi = degrees[0], degrees[-1]
        if degrees != list(range(self.lo, self.hi + 1)):
            raise ValueError("chain window degrees must be contiguous")
        self.basis = {t: list(basis[t]) for t in degrees}
        self._ranks = {}
        self.diff = {}
        for t in range(self.lo + 1, self.hi + 1):
            m = diff.get(t)
            if m is None:
                raise ValueError(f"missing differential at degree {t}")
            if m.rows != len(self.basis[t - 1]) or m.cols != len(self.basis[t]):
                raise ValueError(f"differential at degree {t} has wrong shape")
            self.diff[t] = m
        for t in range(self.lo + 1, self.hi):
            if not self.diff[t].matmul(self.diff[t + 1]).is_zero():
                raise ValueError(f"d compose d is nonzero into degree {t - 1}")

    def rank(self, t: int) -> int:
        """Rank of diff[t], eliminated on first use and kept as an int."""
        if t not in self._ranks:
            self._ranks[t] = rank(self.diff[t])
        return self._ranks[t]

    def homology_dims(self, window) -> dict:
        lo, hi = window
        if lo <= self.lo or hi >= self.hi:
            raise ValueError(
                f"homology window [{lo}, {hi}] needs bases one degree beyond"
            )
        return {
            t: len(self.basis[t]) - self.rank(t) - self.rank(t + 1)
            for t in range(lo, hi + 1)
        }


_ESCAPED = "image escaped the enumerated basis; supplied caps are too tight for this window"


def assemble(source_labels, target_labels, image) -> RationalMatrix:
    """Matrix whose column j is image(source_labels[j]) in target coordinates.

    image(label) yields (target label, coefficient) pairs; pairs with equal
    target labels add up.  A target label outside target_labels raises.
    The sums accumulate straight into the matrix's {row: {col: value}}
    rows; every index is in range by construction, so the rows go to
    RationalMatrix._new unchecked, which drops the zeros and stores
    integral values as ints.
    """
    index = {label: i for i, label in enumerate(target_labels)}
    rows = defaultdict(dict)
    for col, label in enumerate(source_labels):
        for out, coeff in image(label):
            i = index.get(out)
            if i is None:
                raise ValueError(_ESCAPED)
            row = rows[i]
            row[col] = row.get(col, 0) + coeff
    return RationalMatrix._new(len(target_labels), len(source_labels), rows.items())


# ---------------------------------------------------------------------------
# The cone on one element.


@dataclass(frozen=True)
class GradedComplex:
    """The cone on r: P <- P[d + 1], d = |r|, with differential left
    multiplication by r; r = 0 is taken in degree 0."""

    pres: Presentation
    r: Element

    def __post_init__(self):
        if not isinstance(self.r, Element) or self.r.pres != self.pres:
            raise ValueError("cone element must be an Element over pres")
        if not self.r.is_homogeneous():
            raise ValueError("cone element must be homogeneous")

    @property
    def degree(self) -> int:
        """d = |r|; r = 0 is taken in degree 0."""
        return self.r.degree() or 0

    def realize(self, window, caps=None) -> ChainWindow:
        """Concrete bases and matrices on [lo-1, hi+1]; labels (term, mono).

        The degree-t basis lists term 0's piece pieces[t], then term 1's
        pieces[t - d - 1], so diff[t] is one block: term 1's piece times r
        into term 0's piece pieces[t - 1], columns from len(pieces[t]).
        """
        lo, hi = window
        d = self.degree
        degrees = range(lo - 1, hi + 2)
        # the hull of every degree t and t - d - 1 the bases below read
        pieces = degree_pieces(self.pres, (lo - 1 - max(0, d + 1), hi + 1 - min(0, d + 1)), caps)
        basis = {t: [(0, mono) for mono in pieces[t]] + [(1, mono) for mono in pieces[t - d - 1]]
                 for t in degrees}
        mults, diff = _multipliers(self.r), {}
        for t in degrees[1:]:
            rows = defaultdict(dict)
            _multiply_block(rows, mults, pieces[t - d - 1], pieces[t - 1], len(pieces[t]))
            diff[t] = RationalMatrix._trusted(len(basis[t - 1]), len(basis[t]), dict(rows))
        return ChainWindow(basis, diff)


def _multipliers(r: Element) -> list:
    """(koszul_multiplier, coefficient) per term of r; ints when integral, as _trusted stores."""
    return [(koszul_multiplier(r.pres, m), c.numerator if c.denominator == 1 else c)
            for m, c in r.terms.items()]


def _multiply_block(rows, mults, source, target, col_at=0):
    """Write into rows, a defaultdict(dict), left multiplication by r's
    _multipliers mults from source's monomials (columns from col_at) into
    target's (rows from 0); distinct terms give distinct products."""
    index = dict(zip(target, range(len(target))))
    for col, mono in enumerate(source, col_at):
        for mul, c in mults:
            if (hit := mul(mono)) is not None:
                if (row := index.get(hit[1])) is None:
                    raise ValueError(_ESCAPED)
                rows[row][col] = hit[0] * c


def cone_report(pres: Presentation, r: Element, window, caps=None) -> dict:
    """Cone homology vs. quotient-ring dimensions, with a regularity test.

    GradedComplex(pres, r) validates r and gives d = |r|.  For t in
    [lo, top + 1], top = hi + max(0, d), the cone's differential at t is
    only multiplication by r from P_{t-d-1} into P_{t-1}, the one block of
    the realized diff[t]; let R(t) be its rank.
    Homology at t is |P_t| + |P_{t-d-1}| - R(t) - R(t + 1), quotient_dims[t]
    = |P_t| - R(t + 1), and r is regular when every R(t) = |P_{t-d-1}|: r is
    injective on the source degrees [lo - d - 1, max(hi, hi - d)] homology
    in [lo, hi] depends on.

    r with two or more terms is streamed: one degree_pieces enumeration
    over the hull gives the pieces and their sizes, then one block per
    degree is built, ranked and dropped.

    r with at most one term is counted: the sizes come from degree_dims, no
    monomial is enumerated and no block built, and r = 0 gives R = 0.  For
    r = c m, u -> m u is injective on monomials (the exponents add), and
    m u = 0 exactly when u has an odd generator of m.  So the column of a
    source monomial u is 0 if u has one, and otherwise (u survives) +-c
    times the unit vector of the row m u, distinct survivors hitting
    distinct rows.  Those unit vectors are independent and c != 0 only
    scales them, so R(t) is the number of survivors in P_{t-d-1}: the live
    count of product_sizes.  A survivor whose product lies outside caps has
    no row, so its image escapes the enumerated basis and the streamed
    blocks raise _ESCAPED.  kept counts the survivors whose product stays
    within caps, so an escape happens exactly when live and kept differ in
    some source degree t - d - 1.
    """
    lo, hi = window
    d = GradedComplex(pres, r).degree
    top = hi + max(0, d)
    hull = (lo - 1 - max(0, d + 1), top + 1 - min(0, d + 1))
    if len(r.terms) < 2:
        sizes = degree_dims(pres, hull, caps)
        live = kept = dict.fromkeys(range(lo - d - 1, top - d + 1), 0)  # r = 0
        for m in r.terms:
            live, kept = product_sizes(pres, m, (lo - d - 1, top - d), caps)
        if live != kept:
            raise ValueError(_ESCAPED)
        ranks = {s + d + 1: n for s, n in live.items()}
    else:
        pieces = degree_pieces(pres, hull, caps)
        sizes = {t: len(piece) for t, piece in pieces.items()}
        mults, ranks = _multipliers(r), {}
        for t in range(lo, top + 2):
            rows, source, target = defaultdict(dict), pieces[t - d - 1], pieces[t - 1]
            _multiply_block(rows, mults, source, target)
            ranks[t] = rank(RationalMatrix._trusted(len(target), len(source), dict(rows)))
    quotient = {t: sizes[t] - ranks[t + 1] for t in range(lo, hi + 1)}
    computed = {t: q + sizes[t - d - 1] - ranks[t] for t, q in quotient.items()}
    regular = all(ranks[t] == sizes[t - d - 1] for t in ranks)
    return {"window": [lo, hi], "homology_dims": computed, "quotient_dims": quotient,
            "regular": regular, "dims_match_quotient": computed == quotient,
            "comparison_binding": regular}


# ---------------------------------------------------------------------------
# The matrix DG algebra of the v_n cone.


_SLOTS = ("a", "b", "c", "d")

# Matrix product, slot by slot: (left slot, right slot) -> product slot.
_PRODUCT_SLOT = {
    ("a", "a"): "a", ("b", "c"): "a",
    ("a", "b"): "b", ("b", "d"): "b",
    ("c", "a"): "c", ("d", "c"): "c",
    ("c", "b"): "d", ("d", "d"): "d",
}

# d f = d_cone f - (-1)^k f d_cone with d_cone = [[0, v_n], [0, 0]], slot by
# slot: source slot -> (target slot, from the left?) pairs.  Left terms are
# v_n x; right terms are x v_n and carry the sign -(-1)^k.
_DIFF_RULE = {
    "a": (("b", False),),
    "b": (),
    "c": (("a", True), ("d", False)),
    "d": (("b", True),),
}


@dataclass(frozen=True)
class MatrixDGA:
    p: int
    n: int
    pres: Presentation

    def __post_init__(self):
        pres = self.pres
        if any(pres.is_odd(i) or pres.laurent[i] for i in range(pres.ngens)):
            raise ValueError("the matrix DGA needs a polynomial base ring: "
                             "no odd or laurent generator")

    @property
    def offdiag(self) -> int:
        """Degree shift of the b slot: 2p^n - 1 (one above |v_n|)."""
        return 2 * self.p**self.n - 1

    @functools.cached_property
    def vn_mono(self) -> tuple:
        return tuple(int(i == self.n - 1) for i in range(self.pres.ngens))

    def slot_degree(self, slot: str, k: int) -> int:
        """Degree of the entries in one slot of a degree-k matrix."""
        return k + {"a": 0, "b": self.offdiag, "c": -self.offdiag, "d": 0}[slot]


def matrix_dga(p: int, n: int) -> MatrixDGA:
    params = ChromaticParams(p, n)
    if n < 1:
        raise ValueError("matrix_dga needs n >= 1: there is no v_0 to cone off")
    return MatrixDGA(p, n, bp_q(params))


class MatrixDGAElement(QCombination):
    """Homogeneous 2x2 matrix [[a, b], [c, d]] of total degree k.

    Terms are labelled (slot, monomial).  Equality and hashing see the terms
    only: the validated slot degrees fix k for a nonzero element, and the
    zero matrix is the same in every degree.
    """

    __slots__ = ("dga", "k")
    _SPACE = ("dga",)

    def __init__(self, dga: MatrixDGA, k: int, a, b, c, d):
        entries = (a, b, c, d)
        for slot, entry in zip(_SLOTS, entries):
            if not isinstance(entry, Element) or entry.pres != dga.pres:
                raise ValueError(f"slot {slot} must be an Element over the base ring")
        self.dga = dga
        self.k = k
        super().__init__({
            (slot, mono): c
            for slot, entry in zip(_SLOTS, entries)
            for mono, c in entry.terms.items()
        })

    @classmethod
    def from_terms(cls, dga: MatrixDGA, k: int, terms) -> "MatrixDGAElement":
        out = object.__new__(cls)
        out.dga = dga
        out.k = k
        QCombination.__init__(out, terms)
        return out

    @classmethod
    def zero(cls, dga: MatrixDGA, k: int) -> "MatrixDGAElement":
        return cls.from_terms(dga, k, {})

    def _check_key(self, label):
        slot, mono = label
        if slot not in _SLOTS:
            raise ValueError(f"unknown matrix slot {slot!r}")
        mono = _check_mono(self.dga.pres, mono)
        want = self.dga.slot_degree(slot, self.k)
        if mono_degree(self.dga.pres, mono) != want:
            raise ValueError(f"slot {slot} must be homogeneous of degree {want}")
        return slot, mono

    def _join(self, other):
        self._require_same(other)
        if other.k != self.k and self.terms and other.terms:
            raise ValueError("cannot add matrices of different degrees")
        return self if self.terms else other

    def entry(self, slot: str) -> Element:
        """The Element in one slot (a read-only view)."""
        return Element(
            self.dga.pres, {m: c for (s, m), c in self.terms.items() if s == slot}
        )

    a = property(lambda self: self.entry("a"))
    b = property(lambda self: self.entry("b"))
    c = property(lambda self: self.entry("c"))
    d = property(lambda self: self.entry("d"))

    def __mul__(self, other):
        if not isinstance(other, MatrixDGAElement):
            return super().__mul__(other)
        self._require_same(other)
        pairs = _product_pairs(self.terms.items(), other.terms.items())
        return self._new(pairs, k=self.k + other.k)

    def __repr__(self):
        return (
            f"MatrixDGAElement(k={self.k}, [[{self.a}, {self.b}], "
            f"[{self.c}, {self.d}]])"
        )


def _product_pairs(left, right):
    """(label, coefficient) pairs of the product of two matrices given as
    (label, coefficient) pairs, right a reusable iterable."""
    for (s, a), ca in left:
        for (t, b), cb in right:
            slot = _PRODUCT_SLOT.get((s, t))
            if slot is not None:
                yield (slot, tuple(map(add, a, b))), ca * cb


def _diff_pairs(vn, k: int, terms):
    """(label, coefficient) pairs of d on degree-k (label, coefficient)
    pairs; vn is the monomial v_n."""
    right = 1 if k % 2 else -1  # -(-1)^k, the sign of a right product by v_n
    for (slot, mono), coeff in terms:
        target_mono = tuple(map(add, mono, vn))
        for target, left in _DIFF_RULE[slot]:
            yield (target, target_mono), coeff if left else right * coeff


def _vanishes(*pair_streams) -> bool:
    """Do the (label, coefficient) pairs of all the streams sum to zero?"""
    return not combine(chain(*pair_streams))


def dga_diff(f: MatrixDGAElement) -> MatrixDGAElement:
    """The differential d(f) = d_cone f - (-1)^k f d_cone, slot by slot."""
    return f._new(_diff_pairs(f.dga.vn_mono, f.k, f.terms.items()), k=f.k - 1)


def mdga_window_labels(dga: MatrixDGA, window) -> dict:
    """{k: ordered (slot, monomial) labels of the degree-k piece} for every k
    in window, from one enumeration of the base ring's pieces."""
    lo, hi = window
    pieces = degree_pieces(dga.pres, (lo - dga.offdiag, hi + dga.offdiag))
    return {
        k: [(slot, mono) for slot in _SLOTS for mono in pieces[dga.slot_degree(slot, k)]]
        for k in range(lo, hi + 1)
    }


def mdga_element(dga: MatrixDGA, k: int, slot: str, mono, coeff=1) -> MatrixDGAElement:
    return MatrixDGAElement.from_terms(dga, k, {(slot, mono): coeff})


def build_mdga_window(dga: MatrixDGA, window) -> ChainWindow:
    """Concrete complex of the matrix DGA on [lo-1, hi+1].

    No report builds one: it is the tests' enumerated reference, and it
    stays in the package because the benchmark tracer wraps it by name.
    """
    lo, hi = window
    basis = mdga_window_labels(dga, (lo - 1, hi + 1))
    vn = dga.vn_mono
    return ChainWindow(basis, {
        k: assemble(basis[k], basis[k - 1], lambda l: _diff_pairs(vn, k, ((l, 1),)))
        for k in range(lo, hi + 2)})


def mdga_eps(dga: MatrixDGA) -> MatrixDGAElement:
    """The (1,2) matrix unit: the exterior homology class in degree 1-2p^n."""
    return mdga_element(dga, -dga.offdiag, "b", mono_one(dga.pres))


def mdga_diag(dga: MatrixDGA, x: Element) -> MatrixDGAElement:
    k = x.degree() or 0
    if k % 2 != 0:
        raise ValueError("diagonal elements need even degree entries")
    z = Element.zero(dga.pres)
    return MatrixDGAElement(dga, k, x, z, z, x)


# ---------------------------------------------------------------------------
# The commutative cycle subalgebra Z and the counted reports.


def _cycle_terms(k: int, label) -> dict:
    """Terms of a Z basis element: [[m, 0], [0, (-1)^k m]] or [[0, m], [0, 0]]."""
    kind, mono = label
    if kind == "upper":
        return {("b", mono): 1}
    return {("a", mono): 1, ("d", mono): 1 if k % 2 == 0 else -1}


def _vn_free_cycle_shape(k: int, n: int, terms: dict) -> bool:
    """Do the {(slot, monomial): coefficient} terms of a degree-k matrix over
    Q[v_1, ..., v_n] have the shape [[a, b], [0, (-1)^k a]] with v_n-free a
    and b?"""
    sign = 1 if k % 2 == 0 else -1
    return all(
        slot == "b" and mono[n - 1] == 0
        or slot == "a" and mono[n - 1] == 0 and terms.get(("d", mono)) == sign * c
        or slot == "d" and terms.get(("a", mono)) == sign * c
        for (slot, mono), c in terms.items()
    )


# The class-shape certificate: the slots each slot's differential may reach.
_CERTIFIED_TARGETS = {"a": ("b",), "b": (), "c": ("a", "d"), "d": ("b",)}


def _representatives(dga: MatrixDGA, sizes: dict, degrees, cycles=False) -> dict:
    """{class: (k, label)}, one basis label of each class inhabited in
    degrees, at its first degree there: the (slot, k mod 2) classes of the
    matrix DGA, sizes counting the pieces of its base ring, or with cycles
    the (kind, k mod 2) classes of Z, sizes counting the v_n-free monomials.
    One degree piece is enumerated per class."""
    o = dga.offdiag
    kinds = (("diag", 0), ("upper", o)) if cycles else (("a", 0), ("b", o), ("c", -o), ("d", 0))
    reps = {}
    for k in degrees:
        for kind, shift in kinds:
            d = k + shift
            if (kind, k % 2) not in reps and sizes[d]:
                mono = next(m for m in degree_pieces(dga.pres, (d, d))[d]
                            if not cycles or m[dga.n - 1] == 0)
                reps[kind, k % 2] = k, (kind, mono)
    return reps


def _certified_sizes(dga: MatrixDGA, window):
    """(P, Q), the piece counts of bp_q(p, n) and bp_q(p, n - 1) over
    (lo - 1 - o, hi + 1 + o), o = offdiag, when the class-shape certificate
    holds on window = (lo, hi); otherwise it refuses with ArithmeticError,
    naming the failed slot or Z kind and its degree.  A window with lo > hi
    holds no degree, and the counts give empty reports there.

    The certificate reads _diff_pairs on one representative (s, m) of each
    (slot, k mod 2) class inhabited in [lo, hi + 1], the degrees of the
    window's differentials: b maps to nothing; a and d to one nonzero term,
    slot b at m + v_n; c to one or two nonzero terms, slots a and d at
    m + v_n (summed by combine, so a cancelling rule fails); and d(d(s, m))
    vanishes.  Each representative of Z's (kind, k mod 2) classes inhabited
    in [lo, hi + 1] must also be a cycle.

    One representative decides its class: _diff_pairs reads only the slot
    and k mod 2 and adds v_n to the monomial, so every member's image, and
    its image under d again, is the representative's translated by the
    difference of the monomials, and so is d of a Z basis element, whose
    terms are fixed by (kind, k mod 2) and its monomial.  So the window
    (build_mdga_window) would raise nothing: its targets sit in the slots
    above at m + v_n, in the basis of degree k - 1 since |v_n| = o - 1;
    d compose d vanishes (b maps to 0, a and d into b, c by the
    certificate); and Z's inclusion is a chain map.  Its numbers are then:

    rank diff[k] = |P_{k-o}| + |P_k|.  The c columns, at m in P_{k-o}, hit
    the a and d rows at m + v_n, distinct m on disjoint rows, so they are
    independent.  The a and d columns at m in P_k are nonzero multiples of
    the one b row m + v_n, distinct m on distinct rows: rank |P_k|.  The two
    sets of rows are disjoint.  With |basis_t| = 2|P_t| + |P_{t+o}| +
    |P_{t-o}|, homology is h(t) = P_t + P_{t+o} - P_{t+1-o} - P_{t+1}.

    The induced rank is |Z_t| = Q_t + Q_{t+o}.  Z's basis elements sit on
    v_n-free labels, distinct elements on disjoint labels, so they are
    independent; every boundary term sits at some m + v_n, so im diff[t + 1]
    meets their span only in 0, and rank [i | B] - rank B = |Z_t|.  The
    v_n-free monomials of P_d are the monomials of Q_d.  In particular eps
    and each diag(v_i), i < n, are v_n-free Z basis elements, so none of
    them is a boundary: each is nonzero in homology.
    """
    lo, hi = window
    o, vn = dga.offdiag, dga.vn_mono
    hull = (lo - 1 - o, hi + 1 + o)
    big = degree_dims(dga.pres, hull)
    small = degree_dims(bp_q(ChromaticParams(dga.p, dga.n - 1)), hull)
    degrees = range(lo, hi + 2)
    for k, (slot, mono) in _representatives(dga, big, degrees).values():
        image = combine(_diff_pairs(vn, k, (((slot, mono), 1),)))
        target, allowed = tuple(map(add, mono, vn)), _CERTIFIED_TARGETS[slot]
        if not (bool(image) == bool(allowed)
                and all(s in allowed and m == target for s, m in image)
                and _vanishes(_diff_pairs(vn, k - 1, image.items()))):
            raise ArithmeticError(
                f"class-shape certificate failed: d of slot {slot} in degree {k}")
    for k, label in _representatives(dga, small, degrees, cycles=True).values():
        if not _vanishes(_diff_pairs(vn, k, _cycle_terms(k, label).items())):
            raise ArithmeticError(
                f"class-shape certificate failed: d of Z kind {label[0]} in degree {k}")
    return big, small


def _counted_homology(sizes: dict, o: int, window) -> dict:
    """h(t) = P_t + P_{t+o} - P_{t+1-o} - P_{t+1} (proof in _certified_sizes)."""
    lo, hi = window
    return {t: sizes[t] + sizes[t + o] - sizes[t + 1 - o] - sizes[t + 1]
            for t in range(lo, hi + 1)}


def commutative_model_check(p: int, n: int, window) -> dict:
    """Closure, commutativity, and quasi-isomorphism of Z inside the DGA.

    Closure and commutativity are decided on one representative of each
    class (kind, k mod 2) of Z's basis.  As in dga_structure_check, for f, g
    at monomials a, b the terms of fg, gf and d(fg) sit at a + b and
    a + b + v_n with slots and signs read off the classes; a + b is v_n-free
    because a and b are.

    Z's size, its classes and the quasi-isomorphism's numbers are counted
    from piece sizes under the class-shape certificate of _certified_sizes
    (proof there), which refuses with ArithmeticError when it fails.
    """
    dga = matrix_dga(p, n)
    lo, hi = window
    o = dga.offdiag
    big, small = _certified_sizes(dga, window)
    per_degree = {}
    for t, h in _counted_homology(big, o, window).items():
        sub = small[t] + small[t + o]
        per_degree[t] = {"sub": sub, "amb": h, "induced_rank": sub, "iso": sub == h}
    size = sum(v["sub"] for v in per_degree.values())
    reps = _representatives(dga, small, range(lo, hi + 1), cycles=True).values()
    vn = dga.vn_mono
    cycles = [(k, tuple(_cycle_terms(k, label).items())) for k, label in reps]
    closed = True
    commutative = True
    for kf, f in cycles:
        for kg, g in cycles:
            k = kf + kg
            prod = combine(_product_pairs(f, g))
            if not (_vn_free_cycle_shape(k, n, prod)
                    and _vanishes(_diff_pairs(vn, k, prod.items()))):
                closed = False
            sign = 1 if kf % 2 and kg % 2 else -1  # -(-1)^{|f||g|}
            if not _vanishes(
                prod.items(),
                ((label, sign * c) for label, c in _product_pairs(g, f)),
            ):
                commutative = False
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "subalgebra_size": size,
        "closed_under_product": closed,
        "graded_commutative": commutative,
        "chain_map": True,
        "quasi_iso_per_degree": {
            str(t): v["iso"] for t, v in sorted(per_degree.items())
        },
        "all_ok": closed and commutative and all(v["iso"] for v in per_degree.values()),
        "per_degree": per_degree,
    }


def dga_structure_check(p: int, n: int, window) -> dict:
    """d compose d = 0 and the derivation law over the window, by class.

    A basis element f = (s, a) of degree k (slot s, monomial a) is in class
    (s, k mod 2), and a pair (f, g), g = (t, b), in class (s, t, |f| mod 2,
    |g| mod 2): at most 64 classes.  The proof rests on one hypothesis:
    _product_pairs and _diff_pairs read only slots and k mod 2, and add
    exponent vectors: a + b (the product) or a + v_n (d).  Then every term
    of d(fg) - d(f)g - (-1)^|f| f d(g) sits at the one monomial a + b + v_n
    with slots and signs fixed by the class, so the verdict depends on the
    class alone; so does d(d(f)), at a + 2 v_n.
    basis_size, sum over k of 2|P_k| + |P_{k+o}| + |P_{k-o}| (o = offdiag),
    and the inhabited classes are read off piece counts; pairs_checked =
    basis_size ** 2 counts the ordered pairs covered, each decided through
    the one representative of its class.
    """
    dga = matrix_dga(p, n)
    lo, hi = window
    o = dga.offdiag
    sizes = degree_dims(dga.pres, (lo - o, hi + o))
    size = sum(2 * sizes[k] + sizes[k + o] + sizes[k - o] for k in range(lo, hi + 1))
    reps = _representatives(dga, sizes, range(lo, hi + 1)).values()
    vn = dga.vn_mono
    elements = [(k, f, tuple(_diff_pairs(vn, k, f))) for k, label in reps for f in [((label, 1),)]]
    d_squared = all(_vanishes(_diff_pairs(vn, k - 1, df)) for k, _, df in elements)
    derivation = all(  # d(fg) - d(f) g + (-(-1)^|f| f) d(g) vanishes
        _vanishes(
            _diff_pairs(vn, kf + kg, _product_pairs(f, g)),
            _product_pairs(((label, -c) for label, c in df), g),
            _product_pairs(((f[0][0], -1 if kf % 2 == 0 else 1),), dg),
        )
        for kf, f, df in elements for kg, g, dg in elements
    )
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "basis_size": size,
        "pairs_checked": size ** 2,
        "d_squared_zero": d_squared,
        "derivation_law": derivation,
    }


def homology_ring_check(p: int, n: int, window) -> dict:
    """Homology of the matrix DGA vs. the predicted ring, plus eps relations.

    Expected dimensions are computed two independent ways: monomial counts
    of Q[v_1..v_{n-1}] (x) Lambda(eps), and the two-summand splitting (the
    same polynomial ring once in place and once shifted by |eps|).  The
    computed dimensions are counted from piece sizes under the class-shape
    certificate of _certified_sizes (proof there), which refuses with
    ArithmeticError when it fails.  The exterior generator is also checked
    in homology: it is a cycle, its square is zero, and it commutes with
    every v_i class.  eps and diag(v_i) are Z's basis elements
    (_cycle_terms), and these relations are decided on the pair streams.
    That eps (when eps.k lies in the window) and every diag(v_i) is nonzero
    in homology is read off the certificate's proof: they are v_n-free, and
    every boundary term sits at some m + v_n.
    """
    dga = matrix_dga(p, n)
    lo, hi = window
    computed = _counted_homology(_certified_sizes(dga, window)[0], dga.offdiag, window)

    expected_product = degree_dims(a_q(ChromaticParams(p, n)), window)
    e_deg = eps_degree(p, n)  # negative: t - e_deg runs up to hi - e_deg
    lower = degree_dims(bp_q(ChromaticParams(p, n - 1)), (lo, hi - e_deg))
    expected_splitting = {t: lower[t] + lower[t - e_deg] for t in range(lo, hi + 1)}

    k_eps, vn = -dga.offdiag, dga.vn_mono
    eps = _cycle_terms(k_eps, ("upper", mono_one(dga.pres)))
    eps_cycle = _vanishes(_diff_pairs(vn, k_eps, eps.items()))
    eps_nonzero = True if lo <= k_eps <= hi else None
    eps_square_zero = _vanishes(_product_pairs(eps.items(), eps.items()))

    central = True
    for i in range(n - 1):
        v = tuple(int(j == i) for j in range(n))
        k = mono_degree(dga.pres, v)  # even: diag(v) = [[v, 0], [0, v]]
        dv = _cycle_terms(k, ("diag", v))
        if not _vanishes(_product_pairs(eps.items(), dv.items()),
                         ((label, -c) for label, c in _product_pairs(dv.items(), eps.items()))):
            central = False

    dims_ok = computed == expected_product == expected_splitting
    checks_ok = eps_cycle and eps_square_zero and central
    return {
        "p": p,
        "n": n,
        "window": [lo, hi],
        "computed_dims": computed,
        "expected_product_dims": expected_product,
        "expected_splitting_dims": expected_splitting,
        "dims_match": dims_ok,
        "eps_degree": k_eps,
        "eps_is_cycle": eps_cycle,
        "eps_nonzero_in_homology": eps_nonzero,
        "eps_square_zero": eps_square_zero,
        "eps_central": central,
        "v_classes_nonzero": True,
        "all_ok": dims_ok and checks_ok,
    }
