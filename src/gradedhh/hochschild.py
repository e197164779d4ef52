"""The cyclic bar complex of a free graded-commutative Q-algebra.

A level-s chain is a Q-combination of (s+1)-fold tensors of monomials
a_0 (x) a_1 (x) ... (x) a_s; in the normalized complex the positions
1..s never hold the unit.  The differential is the alternating face sum

    b = sum_{i<s} (-1)^i d_i + (-1)^s d_s,

where d_i multiplies the adjacent factors a_i a_{i+1} and the last face
rotates the final factor to the front, picking up the Koszul sign
(-1)^{|a_s| (|a_0| + ... + |a_{s-1}|)} for moving a_s past everything else.
At level 2 this reads

    b(a0 (x) a1 (x) a2) = a0 a1 (x) a2 - a0 (x) a1 a2
                          + (-1)^{|a2|(|a0|+|a1|)} a2 a0 (x) a1.

Fixing a multidegree m (a per-generator total exponent vector) cuts out a
finite subcomplex: each bar position consumes at least one exponent, so
levels are bounded by |m|_1, and every tensor of multidegree m has the same
internal degree <m, degrees>.  Without Laurent generators a product of
non-units is a non-unit, so the normalized basis is closed under b.

A BarChain is a QCombination (the sparse vector type of exact_linear)
labelled by tensors.  One rule, _faces, gives the faces of a packed tensor:
each monomial is an int (_packing) with a radix-2 digit per odd generator,
those digits lowest, and the radix m_i + 1 for even generator i, m the
multidegree or any bound above it.  A face multiplies two factors of one
tensor, so even exponents stay at most m_i, and a product survives only when
its odd digits are disjoint: nothing carries, and a product's code is the
sum a + b.  With ODD the mask of the odd digits, a & b & ODD is the exterior
square test, the crossing sign of a b is koszul_mul's, read off the masks of
graded_algebra._crossing_masks, and the rotation face's Koszul parity is
c (t - c), c the popcount of the moved factor's mask and t the tensor's
total of odd exponents.  bar_window packs its basis a level at a time and
sums the faces into matrix columns (dg_complexes.assemble); hochschild_diff
packs by the componentwise largest multidegree of its tensors and decodes
the faces; hkr_check and morse_complexes (whose sweep only the tests use)
pack once by a bound, for a whole sweep, and fill the matching's
lowest-digit table per code reached.

trace_obstruction reads HH from morse_complex, the Morse complex of an
algebraic Morse matching on that complex (Skoldberg, "Morse theory
from an algebraic viewpoint", Trans. AMS 358 (2006); Jollenbeck-Welker,
Mem. AMS 197 (2009), ch. 2 and 5, the normalized bar / Anick matching).
Generators are ranked in digit order, odd first.  Walk a cell
a_0 (x) ... (x) a_s from position 1, with g the rank of the last chain
generator, and let x_h be the lowest generator of a_j:
  - if j = 1, or h < g, or h = g with x_h odd: a_j = x_h extends the chain;
    any other a_j makes the cell lower, its partner splitting a_j into
    x_h (x) a_j/x_h at positions j, j+1;
  - otherwise (h > g, or h = g even) the cell is upper, its partner merging
    positions j-1 and j.
A cell whose positions 1..s all extend the chain is critical (so is every
level-0 cell): a_0 (x) x_{g_1} (x) ... (x) x_{g_s} with g_1 >= g_2 >= ...,
strictly on even generators.  An upper merge is never zero (x_g odd dividing
a_j would make h = g odd), and a split leaves at position j+1 a lowest
generator above h, or h itself when even, so the rules are inverse.  The
faces of one tensor are distinct tensors, so a matched coefficient is one
face sign, +-1.

The matching is acyclic: a zig-zag l -> u -> l', u the partner of the lower
cell l and l' != l a lower face of u, never returns to l.  The outer faces
(d_0 and the rotation) multiply a non-unit into a_0, while inner faces and
splits leave it, so on a cycle every face is inner.  Key a lower cell by
(g_1, ..., g_{j-1}, h): its chain, then the rank of the lowest generator at
its first non-chain position j.  In u the chain is g_1, ..., g_{j-1}, h.
Merging u's positions i, i+1 with i < j keys l' by (g_1, ..., g_{i-1},
g_{i+1}) with g_{i+1} < g_i (equal ranks are an odd square: the face is 0);
merging j, j+1 gives l back; merging j+1, j+2 gives a lower cell only
keyed by an extension (..., h, h'); later merges keep position j+1 upper.
So the key strictly falls in the lex order that ranks a proper extension
below its prefix, and no zig-zag path closes up.

The flow phi onto the critical cells, <y, c> the coefficient of a cell c in
a chain y: phi(c) = c on a critical c, phi(u) = 0 on an upper u, and on a
lower l with partner u and e = <du, l> = +-1
    phi(l) = -e^-1 sum_{l' != l} <du, l'> phi(l'),
well founded as each lower l' is a zig-zag step below l.  So phi(du) = 0,
and with d_M c = phi(dc) on critical c, phi is a chain map (by Skoldberg's
theorem a homotopy equivalence; the code needs only what follows): on a
lower l, dd = 0 gives phi(dl) = -e^-1 sum <du, l'> phi(dl') = d_M phi(l) by
induction below l.  That induction also writes each chain x as
phi(x) + U(x) + d H(x), U(x) a sum of upper cells.  Hence a cycle z is a
boundary iff phi(z) is in im d_M: z = dy gives phi(z) = d_M phi(y); and if
phi(z) = d_M w = phi(dw), the cycle z' = z - dw has phi(z') = 0, so
y = U(z') = z' - d H(z') is a cycle of upper cells, and y = 0 (else some u
in its support has a partner l that is a face of no other u' there, as the
zig-zags l(u') -> u' -> l close no loop, and <dy, l> = e y_u != 0); so
z = d(w + H(z')).  morse_complexes returns phi as project, builds only the
critical cells and checks the matching where phi goes, memoising phi on the
critical and lower cells it reaches but not on upper faces, whose phi is 0;
the tests check it on every cell, and Morse homology and boundaries against
bar_window, which has no cell and no homology above the top critical level.

hh_dims and hkr_check run no flow.  A critical cell is c = a_0 (x) w, w a
falling word of single generators.  Its HKR cycle z_w (Loday, Cyclic
Homology, 1.3.12 and 4.2) sums sign(sigma) 1 (x) sigma over the distinct
arrangements sigma of w, sign(sigma) the product of -(-1)^{|x||y|} over the
letter pairs sigma puts out of w's order.  With every sigma != w upper,
phi(a_0 z_w) = c (classify reads positions 1..s), and b is A-linear in a_0,
so b(z_w) = 0 gives d_M c = phi(b(a_0 z_w)) = phi(a_0 b(z_w)) = 0, as
phi(du) = 0 on upper u: HH at m has one dimension per critical cell.
_hkr_cycle checks both, once per word and sweep.

Homology is compared against the polynomial/exterior prediction: for every
generator g a companion class in degree |g| + 1 with flipped parity (the
suspension of g), carrying the same multidegree weight as g.  The level-1
derivation map D(a0 (x) a1) = a0 d(a1) (zero on other levels) lands in
Kahler differentials and kills boundaries from level 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import gt, mul, sub

from .dg_complexes import ChainWindow, assemble
from .exact_linear import QCombination, combine
from .graded_algebra import (
    Element,
    KahlerElement,
    Presentation,
    _check_mono,
    _crossing_masks,
    _odd_indices,
    kahler_d,
    mono_degree,
    mono_one,
    mono_str,
)


# ---------------------------------------------------------------------------
# Multidegrees.


def check_multidegree(pres: Presentation, m) -> tuple:
    m = tuple(m)
    if len(m) != pres.ngens:
        raise ValueError("multidegree length does not match generator count")
    if not all(isinstance(e, int) and e >= 0 for e in m):
        raise ValueError("multidegree entries must be nonnegative integers")
    return m


def multidegree_from_dict(pres: Presentation, weights: dict) -> tuple:
    m = [0] * pres.ngens
    for name, e in weights.items():
        m[pres.index(name)] = e
    return check_multidegree(pres, m)


def multidegree_to_dict(pres: Presentation, m) -> dict:
    return {name: e for name, e in zip(pres.names, m) if e}


internal_degree = mono_degree  # of a tensor of multidegree m: <m, degrees>


def multidegrees_up_to(pres: Presentation, weight: int):
    """All multidegrees with |m|_1 <= weight, ordered by (total, lex)."""
    if weight < 0:
        raise ValueError("weight bound must be nonnegative")
    # a multiset of weight symbols: symbol i < n spends one on generator i, n is unspent
    n = pres.ngens
    return sorted((tuple(map(c.count, range(n)))
                   for c in itertools.combinations_with_replacement(range(n + 1), weight)),
                  key=lambda m: (sum(m), m))


def _require_no_laurent(pres: Presentation):
    if any(pres.laurent):
        raise ValueError(
            "bar complexes need connective exponents: no laurent generators"
        )


# ---------------------------------------------------------------------------
# Chains.


class BarChain(QCombination):
    """Q-linear combination of (level+1)-fold monomial tensors."""

    __slots__ = ("pres", "level")
    _SPACE = ("pres", "level")

    def __init__(self, pres: Presentation, level: int, terms=None):
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.pres = pres
        self.level = level
        super().__init__(terms)

    def _check_key(self, tensor):
        if len(tensor) != self.level + 1:
            raise ValueError("tensor length must be level + 1")
        return tuple(_check_mono(self.pres, m) for m in tensor)

    def multidegree(self):
        """Common componentwise exponent total, or None if mixed or zero."""
        return self._common(lambda tensor: tuple(map(sum, zip(*tensor))))

    def normalized(self) -> "BarChain":
        """Project to the normalized complex: kill units in bar positions."""
        unit = mono_one(self.pres)
        return self._new(
            (tensor, c) for tensor, c in self.terms.items() if unit not in tensor[1:]
        )

    def to_json(self):
        return [
            {"coeff": str(self.terms[t]), "tensor": [mono_str(self.pres, m) for m in t]}
            for t in sorted(self.terms)
        ]

    def __repr__(self):
        parts = [f"{self.terms[t]}*[{' | '.join(mono_str(self.pres, m) for m in t)}]"
                 for t in sorted(self.terms)]
        return f"BarChain(level={self.level}, {' + '.join(parts) or 0})"


def _digit_order(pres: Presentation) -> list:
    """The generators in digit order: the odd ones first, then the even
    ones, each group in generator order.  It is also the Morse rank order."""
    return [*_odd_indices(pres), *(i for i in range(pres.ngens) if not pres.is_odd(i))]


def _packing(pres: Presentation, m):
    """pack, unpack, the odd mask and the crossing masks for multidegree m.

    pack writes a monomial as an int, one digit per generator in digit
    order, radix 2 for an odd generator and m_i + 1 for an even one; the k
    odd digits are thus the lowest, under the mask (1 << k) - 1.  It serves
    every multidegree <= m: no face of a tensor overflows a digit, so pack is
    additive there (see the module docstring); unpack leaves the top digit
    unreduced.  masks is _crossing_masks(k), its bits the odd digits in order."""
    _require_no_laurent(pres)  # a negative exponent has no digit
    order = _digit_order(pres)
    places, place = [0] * pres.ngens, 1
    for i in order:
        places[i], place = place, place * (2 if pres.is_odd(i) else m[i] + 1)

    def pack(mono) -> int:
        return sum(map(mul, mono, places))

    def unpack(code: int) -> tuple:
        mono = [0] * len(places)
        for i in reversed(order):
            mono[i], code = divmod(code, places[i])
        return tuple(mono)

    k = len(_odd_indices(pres))
    return pack, unpack, (1 << k) - 1, _crossing_masks(k)


def _faces(tensor, odd, masks, total):
    """(face, sign) pairs of b on one packed tensor with total odd exponents;
    equal faces are to be summed.  Face i < s merges slots i and i+1 with sign
    (-1)^i and the crossing sign of a_i a_{i+1}, read off masks; the last
    face rotates a_s to the front with its Koszul sign, times (-1)^s."""
    s = len(tensor) - 1
    sign = 1
    for i in range(s):
        a, b = tensor[i], tensor[i + 1]
        if not a & b & odd:
            yield (tensor[:i] + (a + b,) + tensor[i + 2:],
                   -sign if (masks[a & odd] & b).bit_count() & 1 else sign)
        sign = -sign
    a, b = tensor[s], tensor[0]
    if s and not a & b & odd:
        c = (a & odd).bit_count()
        flip = c * (total - c) + (masks[a & odd] & b).bit_count()
        yield (a + b,) + tensor[1:s], -sign if flip & 1 else sign


def hochschild_diff(x: BarChain) -> BarChain:
    """Alternating face sum; the last face rotates with its Koszul sign."""
    m = tuple(map(max, zip(mono_one(x.pres), *(map(sum, zip(*t)) for t in x.terms))))
    pack, unpack, odd, masks = _packing(x.pres, m)
    pairs = []
    for tensor, coeff in x.terms.items():
        packed = tuple(map(pack, tensor))
        total = sum((a & odd).bit_count() for a in packed)
        pairs += ((tuple(map(unpack, face)), sign * coeff)
                  for face, sign in _faces(packed, odd, masks, total))
    return x._new(pairs, level=max(x.level - 1, 0))


# ---------------------------------------------------------------------------
# Normalized bases per multidegree and homology.


def bar_basis(pres: Presentation, m) -> dict:
    """Normalized tensor basis {level: ordered tensor list} for one
    multidegree, levels 0..|m|_1: a level-s tensor is (a_0,) + w, a_0 <= m
    and w a word of s non-unit parts, memoized on what is left to spend."""
    _require_no_laurent(pres)
    m = check_multidegree(pres, m)
    odd = [pres.is_odd(i) for i in range(pres.ngens)]

    def cuts(rest):
        """(a, rest - a) for exponent vectors a <= rest; exterior exponents at most 1."""
        for a in itertools.product(*(range(min(r, 1) + 1 if o else r + 1)
                                     for r, o in zip(rest, odd))):
            yield a, tuple(r - x for r, x in zip(rest, a))

    @functools.cache
    def words(rest):
        """Non-unit words summing to rest."""
        if not any(rest):
            return [()]
        return [(a,) + w for a, left in cuts(rest) if any(a) for w in words(left)]

    out = {level: [] for level in range(sum(m) + 1)}
    for a0, rest in cuts(m):
        for w in words(rest):
            out[len(w)].append((a0,) + w)
    words.cache_clear()  # words refers to itself, a cycle: free the cache now
    return {level: sorted(tensors) for level, tensors in out.items()}


def bar_window(pres: Presentation, m) -> ChainWindow:
    """The finite normalized complex of one multidegree, levels as degrees
    -1..|m|_1 + 1, empty at each end so that homology is available at every
    level 0..|m|_1; ChainWindow checks d compose d throughout.  It is the
    reference morse_complex is tested against."""
    basis = bar_basis(pres, m)
    top = max(basis) + 1
    basis = {s: basis.get(s, []) for s in range(-1, top + 1)}
    pack, _, odd, masks = _packing(pres, m)
    pack = functools.cache(pack)
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    diff, target = {}, []
    for s in range(top + 1):
        source = [tuple(map(pack, tensor)) for tensor in basis[s]]
        diff[s] = assemble(source, target, lambda t: _faces(t, odd, masks, total))
        target = source
    return ChainWindow(basis, diff)


_LOWER, _CRITICAL, _UPPER = -1, 0, 1  # a matching pairs lower with upper: kinds sum to 0
_ZERO = {}  # the one zero flow, shared by every cell that flows to 0: no reader mutates a flow


def _matching(pres: Presentation, m):
    """classify(t) -> (kind, partner) on the tensors of every multidegree
    <= m, packed by _packing(pres, m).  Generators are ranked in digit order.
    low[code] is the rank h of a code's lowest nonzero digit, whether x_h is
    odd, and the code minus x_h's place, 0 exactly when the code is x_h.  It
    is filled per code on first lookup, so it holds only the codes used."""
    order = _digit_order(pres)
    digits = [(2 if pres.is_odd(i) else m[i] + 1, pres.is_odd(i)) for i in order]
    low = {}  # a plain dict, not one with __missing__: classify's hits keep the dict fast path

    def lowest(code):
        place = 1
        for h, (radix, odd_h) in enumerate(digits):
            if code // place % radix:
                low[code] = found = h, odd_h, code - place
                return found
            place *= radix

    def classify(t):
        g = len(order)  # the walk starts at position 1 with no chain yet
        for j in range(1, len(t)):
            try:
                h, odd_h, rest = low[t[j]]
            except KeyError:
                h, odd_h, rest = lowest(t[j])
            if not (h < g or h == g and odd_h):
                return _UPPER, t[:j - 1] + (t[j - 1] + t[j],) + t[j + 1:]
            if rest:
                return _LOWER, t[:j] + (t[j] - rest, rest) + t[j + 1:]
            g = h
        return _CRITICAL, None

    return classify


def _critical_cells(pres: Presentation, pack):
    """cells(m) -> the critical cells of multidegree m at levels -1..top + 1,
    {level: tensors} sorted and {level: codes under pack}: a_0 = m - c, then
    c_i copies of each generator i in falling rank, c_i <= min(1, m_i) if
    even, c_i in {m_i - 1, m_i} and >= 0 if odd.  top, the longest chain,
    sums the largest c_i.  c runs in descending lex order, so a_0 ascends and
    each level comes out sorted; a_0's code is pack(m) - sum c_i place_i."""
    order = _digit_order(pres)[::-1]
    units = [tuple(int(i == j) for j in range(pres.ngens)) for i in range(pres.ngens)]
    places = [*map(pack, units)]

    def cells(m):
        counts = [range(e, max(e - 2, -1), -1) if pres.is_odd(i) else range(min(e, 1), -1, -1)
                  for i, e in enumerate(m)]
        levels, whole = range(-1, sum(c[0] for c in counts) + 2), pack(m)
        basis, packed = {s: [] for s in levels}, {s: [] for s in levels}
        for c in itertools.product(*counts):
            tensor, code = [tuple(map(sub, m, c))], [whole - sum(map(mul, c, places))]
            for i in order:
                tensor += [units[i]] * c[i]
                code += [places[i]] * c[i]
            basis[len(code) - 1].append(tuple(tensor))
            packed[len(code) - 1].append(tuple(code))
        return basis, packed

    return cells


def _guarded_cells(classify, critical, m):
    """critical(m) after two guards (ArithmeticError): each enumerated cell
    is critical, and the cells count to the Euler characteristic [m = 0],
    which a perfect acyclic matching keeps (Forman 1998) and signed words of
    non-unit parts give (they invert the Hilbert series).  That count catches
    cells dropped or added unevenly across parities."""
    basis, packed = critical(m)
    if any(classify(t)[0] != _CRITICAL for t in itertools.chain(*packed.values())):
        raise ArithmeticError("an enumerated cell is not critical")
    if sum((-1) ** (s % 2) * len(cells) for s, cells in basis.items()) != (not any(m)):
        raise ArithmeticError("critical cells break the Euler characteristic")
    return basis, packed


def _transposition(odd_x: bool, odd_y: bool) -> int:
    """The ratio of z_w's signs on two arrangements that differ by swapping
    two distinct adjacent letters x, y: -(-1)^{|x||y|}."""
    return 1 if odd_x and odd_y else -1


def _arrangements(word, head=(0,)):
    """head + each distinct arrangement of word's letters, lazily, word's
    own first; equal letters stand together in word, as in a critical word."""
    if not word:
        yield head
    for j, x in enumerate(word):
        if not j or x != word[j - 1]:
            yield from _arrangements(word[:j] + word[j + 1:], head + (x,))


def _hkr_cycle(word, classify, unpack, odd, masks):
    """Certify d_M = 0 on the critical cells of word w (packed letters) by
    its HKR cycle z_w (see the module docstring), one arrangement sigma at a
    time: each sigma but w classifies upper and its partner back, and on
    1 (x) sigma _faces yields exactly the faces that cancel their partners.
    A partner's sign over sigma's is _transposition of the swapped letters
    for an inner pair, and its product over the moved letter and each other
    letter for d_0 and the rotation; the tables hold minus that ratio times
    the partner's face coefficient.  Raises ArithmeticError otherwise."""
    if not word:
        return
    s, total = len(word), sum(x & odd > 0 for x in word)
    letters = set(word)

    def swap(x, y):
        return _transposition(x & odd > 0, y & odd > 0)

    inner = {(x, y): -swap(x, y) * (-1 if masks[y & odd] & x else 1)
             for x in letters for y in letters if x != y}
    moved = {x: math.prod(swap(x, y) for y in word if y != x) for x in letters}
    first = {x: -moved[x] * (-1) ** (s + (x & odd > 0) * (total - 1)) for x in letters}
    for t in _arrangements(word):
        kind, partner = classify(t)
        if kind == _UPPER:
            if classify(partner) != (_LOWER, t):
                raise ArithmeticError(f"Morse partner of {[*map(unpack, t)]} "
                                      "does not match back")
        elif t[1:] != word:
            raise ArithmeticError(f"arrangement {[*map(unpack, t)]} of a critical word "
                                  "is not upper")
        want, sign = [first[t[1]]], 1  # d_0 against the rotation of sigma rotated left
        for a, b in zip(t[1:s], t[2:]):
            sign = -sign
            if a != b:  # equal letters are odd: their product is 0
                want.append(sign * inner[a, b])
        want.append(-moved[t[s]])  # the rotation against d_0 of sigma rotated right
        if [e for _, e in _faces(t, odd, masks, total)] != want:
            raise ArithmeticError(f"faces of the HKR cycle of {[*map(unpack, word)]} "
                                  "do not cancel")


def morse_complexes(pres: Presentation, bound):
    """morse(m) -> (window, project) for each multidegree m <= bound, on one
    packing of bound and one classify.  window is the Morse complex of m,
    levels as degrees, padded by one empty level below 0 and above the top
    critical level: the critical cells, built from their shape alone by
    _critical_cells and labelled by their bar tensors, each mapped to phi of
    its faces.  project(x) is phi(x) as {row: value} on the critical cells of
    x's level, for x a normalized BarChain of multidegree m; any other
    nonzero chain raises ValueError.

    Guards (ArithmeticError): those of _guarded_cells; each lower cell phi
    expands has a partner that classifies back, with coefficient +-1, and
    phi meets no cycle.
    """
    bound = check_multidegree(pres, bound)
    packing = _packing(pres, bound)  # refuses laurent generators
    return functools.partial(_morse, pres, bound, packing, _matching(pres, bound),
                             _critical_cells(pres, packing[0]))


def _morse(pres: Presentation, bound, packing, classify, critical, m):
    m = check_multidegree(pres, m)
    if any(map(gt, m, bound)):
        raise ValueError("multidegree exceeds the bound of its Morse set-up")
    pack, unpack, odd, masks = packing
    total = sum(e for i, e in enumerate(m) if pres.is_odd(i))
    basis, packed = _guarded_cells(classify, critical, m)

    flow, pending = {}, {}

    def phi(root):
        stack = [root]
        while stack:
            cell = stack[-1]
            if cell in pending:  # every cell it flows to is done
                stack.pop()
                unit, edges = pending.pop(cell)
                flow[cell] = combine((crit, -unit * e * c) for face, e in edges.items()
                                     for crit, c in flow[face].items()) or _ZERO
            elif cell in flow:
                stack.pop()
            else:
                kind, partner = classify(cell)
                if kind != _LOWER:
                    flow[cell] = {cell: 1} if kind == _CRITICAL else _ZERO
                    continue
                if classify(partner) != (_UPPER, cell):
                    raise ArithmeticError(f"Morse partner of {[*map(unpack, cell)]} "
                                          "does not match back")
                edges = {face: e for face, e in combine(_faces(partner, odd, masks, total)).items()
                         if face in flow or classify(face)[0] != _UPPER}  # phi(upper) = 0
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
        return ((crit, e * c) for face, e in _faces(t, odd, masks, total)
                for crit, c in phi(face).items())

    def project(x: BarChain) -> dict:
        cells = [(tuple(map(pack, t)), c) for t, c in x.terms.items()]
        if cells and (x.pres != pres or x.multidegree() != m
                      or any(0 in t[1:] for t, _ in cells)):
            raise ValueError("project needs a normalized chain of the complex's multidegree")
        row = {t: i for i, t in enumerate(packed.get(x.level, ()))}
        return combine((row[crit], c * e) for t, c in cells for crit, e in phi(t).items())

    window = ChainWindow(basis, {s: assemble(packed[s], packed[s - 1], image)
                                 for s in range(max(basis) + 1)})
    return window, project


def morse_complex(pres: Presentation, m):
    """(window, project) for one multidegree: morse_complexes(pres, m)(m)."""
    return morse_complexes(pres, m)(m)


def _hh_sweep(pres: Presentation, bound):
    """dims(m) -> HH dimensions by total degree at each multidegree m <= bound:
    the critical cells per level, once _guarded_cells passes and _hkr_cycle
    has certified each cell's word.  One packing of bound, one classify and
    one set of certified words serve every m."""
    pack, unpack, odd, masks = _packing(pres, bound)  # refuses laurent generators
    classify, critical, certified = _matching(pres, bound), _critical_cells(pres, pack), set()

    def dims(m):
        basis, packed = _guarded_cells(classify, critical, m)
        for t in itertools.chain(*packed.values()):
            if t[1:] not in certified:
                _hkr_cycle(t[1:], classify, unpack, odd, masks)
                certified.add(t[1:])
        return {internal_degree(pres, m) + s: len(cells) for s, cells in basis.items() if cells}

    return dims


def hh_dims(pres: Presentation, m) -> dict:
    """HH dimensions by total degree at m, one per critical cell."""
    m = check_multidegree(pres, m)
    return _hh_sweep(pres, m)(m)


def hkr_predicted_dims(pres: Presentation, m) -> dict:
    """Polynomial/exterior prediction for the same multidegree.

    Each generator g splits its weight m_g between g itself and a companion
    in degree |g| + 1 of flipped parity; exterior exponents stay at most 1
    on whichever side is odd.  Companion exponents add s to the total
    degree, one per suspension.
    """
    _require_no_laurent(pres)
    m = check_multidegree(pres, m)
    per_gen = [[(w - f, f) for f in range(w + 1) if (w - f if pres.is_odd(i) else f) <= 1]
               for i, w in enumerate(m)]
    counts = Counter(sum(e * d + f * (d + 1) for (e, f), d in zip(combo, pres.degrees))
                     for combo in itertools.product(*per_gen))
    return dict(sorted(counts.items()))


@dataclass
class HkrReport:
    pres: Presentation
    rows: list = field(default_factory=list)
    all_equal: bool = True

    def add(self, m, computed, predicted):
        equal = computed == predicted
        self.rows.append({"multidegree": multidegree_to_dict(self.pres, m),
                          "computed": computed, "predicted": predicted, "equal": equal})
        self.all_equal = self.all_equal and equal

    def to_json(self) -> dict:
        return {"rows": self.rows, "all_equal": self.all_equal}


def hkr_check(pres: Presentation, multidegrees) -> HkrReport:
    """Computed homology against the prediction per multidegree, on one sweep."""
    multidegrees = [check_multidegree(pres, m) for m in multidegrees]
    dims = _hh_sweep(pres, tuple(map(max, zip(mono_one(pres), *multidegrees))))
    report = HkrReport(pres)
    for m in multidegrees:
        report.add(m, dims(m), hkr_predicted_dims(pres, m))
    return report


# ---------------------------------------------------------------------------
# The level-1 derivation map.


def D_map(x: BarChain) -> KahlerElement:
    """D(a0 (x) a1) = a0 d(a1) on level 1; zero on every other level."""
    out = KahlerElement.zero(x.pres)
    if x.level != 1:
        return out
    for (a0, a1), coeff in x.terms.items():
        front = Element.monomial(x.pres, a0, coeff)
        out = out + front * kahler_d(Element.monomial(x.pres, a1))
    return out
