"""Free graded-commutative algebras over Q, presented by generators.

A presentation is an ordered list of homogeneous generators (name, integer
degree, laurent flag).  Odd-degree generators are exterior: they square to
zero and monomial exponents for them are structurally 0 or 1.  Even-degree
generators are polynomial, or Laurent (inverse adjoined) when flagged.

Monomials are plain exponent tuples aligned with the generator list.  An
Element is a QCombination (the one sparse vector type of exact_linear)
labelled by monomials, and a KahlerElement is one labelled by (generator
index, monomial) pairs; both inherit their linear structure from it.
Multiplication carries the Koszul sign: moving one odd generator past
another flips the sign, so ab = (-1)^{|a||b|} ba for homogeneous a, b.
koszul_mul is the one statement of that convention; _crossing_masks restates
it as parity masks for the packed monomials of hochschild's bar complex.

The module also provides the universal derivation into Kahler differentials
(d(ab) = a d(b) + (-1)^{|a||b|} b d(a), coefficients written on the left),
deterministic monomial bases, localization at an even generator, and a
windowed semi-decision procedure for the right Ore condition on a finite
multiplication table.  Monomial bases come from one function,
degree_pieces, which enumerates every degree piece of a window in one pass;
each basis builder makes one such call per window.  degree_dims and
product_sizes count over the same exponent ranges, building no monomial.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

from .exact_linear import QCombination, RationalMatrix, combine, in_span, kernel_basis

_NAME_RE = re.compile(r"[A-Za-z_]\w*")


@dataclass(frozen=True)
class Presentation:
    """Ordered generator data for a free graded-commutative Q-algebra."""

    names: tuple
    degrees: tuple
    laurent: tuple

    @property
    def ngens(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def is_odd(self, i: int) -> bool:
        return self.degrees[i] % 2 != 0


@functools.lru_cache(maxsize=None)
def _odd_indices(pres: Presentation):
    return tuple(i for i in range(pres.ngens) if pres.is_odd(i))


def make_presentation(generators) -> Presentation:
    """Build and validate a Presentation.

    generators: iterable of (name, degree) or (name, degree, laurent).
    Laurent flags are rejected on odd generators: inverting an exterior
    class would force it to be a unit, and units square to nonzero.
    """
    names, degrees, laurent = [], [], []
    for gen in generators:
        if len(gen) == 2:
            name, degree = gen
            flag = False
        else:
            name, degree, flag = gen
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad generator name {name!r}")
        if name in names:
            raise ValueError(f"duplicate generator name {name!r}")
        if not isinstance(degree, int):
            raise ValueError(f"generator {name!r} degree must be an integer")
        flag = bool(flag)
        if flag and degree % 2 != 0:
            raise ValueError(f"laurent flag on odd generator {name!r}")
        names.append(name)
        degrees.append(degree)
        laurent.append(flag)
    return Presentation(tuple(names), tuple(degrees), tuple(laurent))


def presentation_to_json(pres: Presentation) -> dict:
    return {
        "generators": [
            {"name": n, "degree": d, "laurent": l}
            for n, d, l in zip(pres.names, pres.degrees, pres.laurent)
        ]
    }


# ---------------------------------------------------------------------------
# Monomials: exponent tuples aligned with pres.names.


def mono_one(pres: Presentation):
    return (0,) * pres.ngens


def mono_degree(pres: Presentation, mono) -> int:
    return sum(e * d for e, d in zip(mono, pres.degrees))


def _check_mono(pres: Presentation, mono):
    if len(mono) != pres.ngens:
        raise ValueError("exponent tuple length does not match generator count")
    for i, e in enumerate(mono):
        if pres.is_odd(i) and e not in (0, 1):
            raise ValueError(
                f"exterior generator {pres.names[i]!r} exponent must be 0 or 1"
            )
        if e < 0 and not pres.laurent[i]:
            raise ValueError(
                f"negative exponent on non-laurent generator {pres.names[i]!r}"
            )
    return tuple(mono)


def koszul_mul(pres: Presentation, a, b):
    """Product of monomials a*b: (sign, exponent tuple), or None if it dies.

    The sign counts odd-odd crossings: generator i contributed by b moves
    left past every generator j > i contributed by a.  An exterior square
    (both factors containing the same odd generator) kills the product.
    """
    odd = _odd_indices(pres)
    for i in odd:
        if a[i] and b[i]:
            return None
    sign = 1
    for i in odd:
        if not b[i]:
            continue
        for j in odd:
            if j > i and a[j]:
                sign = -sign
    return sign, tuple(x + y for x, y in zip(a, b))


@functools.cache
def _crossing_masks(k: int) -> tuple:
    """koszul_mul's sign as 2^k parity masks, shared per odd count k: for a
    mask a of odd generators, bit p the p-th of _odd_indices, bit p of
    masks[a] is set when a has an odd number of bits above p, so a*b has the
    sign (-1)^popcount(masks[a] & b)."""
    masks = [0]
    for a in range(1, 1 << k):
        masks.append(masks[a >> 1] << 1 | (a >> 1).bit_count() & 1)
    return tuple(masks)


def mono_str(pres: Presentation, mono) -> str:
    parts = []
    for name, e in zip(pres.names, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Elements.


class Element(QCombination):
    """Finite Q-linear combination of monomials over a fixed Presentation."""

    __slots__ = ("pres",)
    _SPACE = ("pres",)

    def __init__(self, pres: Presentation, terms=None):
        self.pres = pres
        super().__init__(terms)

    def _check_key(self, mono):
        return _check_mono(self.pres, mono)

    @classmethod
    def one(cls, pres: Presentation) -> "Element":
        return cls(pres, {mono_one(pres): Fraction(1)})

    @classmethod
    def monomial(cls, pres: Presentation, mono, coeff=1) -> "Element":
        return cls(pres, {tuple(mono): Fraction(coeff)})

    @classmethod
    def gen(cls, pres: Presentation, name: str) -> "Element":
        mono = [0] * pres.ngens
        mono[pres.index(name)] = 1
        return cls.monomial(pres, mono)

    def degree(self):
        """Common degree of all terms; None for zero or inhomogeneous."""
        return self._common(lambda m: mono_degree(self.pres, m))

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.degree() is not None

    def __mul__(self, other):
        if not isinstance(other, Element):
            return super().__mul__(other)
        self._require_same(other)
        pres = self.pres
        return self._new(
            (hit[1], hit[0] * ca * cb)
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items()
            if (hit := koszul_mul(pres, ma, mb)) is not None
        )

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Element.one(self.pres)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Element({poly_str(self)})"


def _coeff_mono_str(pres, mono, coeff) -> str:
    ms = mono_str(pres, mono)
    if ms == "1":
        return str(coeff)
    if coeff == 1:
        return ms
    if coeff == -1:
        return f"-{ms}"
    return f"{coeff} {ms}"


def _signed_sum(terms) -> str:
    """Join term strings as "t1 + t2 - t3"; "0" when there are none."""
    parts = []
    for term in terms:
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts) or "0"


def poly_str(x: Element) -> str:
    """Deterministic human-readable form; leading term (highest lex) first."""
    return _signed_sum(
        _coeff_mono_str(x.pres, mono, x.terms[mono])
        for mono in sorted(x.terms, reverse=True)
    )


_TERM_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<rat>\d+(?:/\d+)?)|(?P<fac>[A-Za-z_]\w*(?:\^-?\d+)?)|(?P<star>\*))"
)


def element_from_string(pres: Presentation, text: str) -> Element:
    """Parse "4 v1^3 eps - 1/2 v2" style input (also accepts '*' separators).

    A sign must be followed by a term: "v2 +", "-" and "v1 - - v2" raise.
    """
    pos = 0
    terms = {}
    sign = None  # sign of the term being read; None until a sign is read
    coeff = None
    mono = None

    def flush():
        nonlocal sign, coeff, mono
        if coeff is None and mono is None:
            if sign is not None:
                raise ValueError(f"a sign must be followed by a term in {text!r}")
            return
        m = tuple(mono) if mono is not None else mono_one(pres)
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        _check_mono(pres, m)
        terms[m] = terms.get(m, Fraction(0)) + (sign or 1) * c
        sign, coeff, mono = None, None, None

    while pos < len(text):
        m = _TERM_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse element near {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = -1 if m.group("sign") == "-" else 1
        elif m.group("rat"):
            if coeff is not None or mono is not None:
                raise ValueError("coefficient must precede generators")
            try:
                coeff = Fraction(m.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('rat')!r}") from None
        elif m.group("fac"):
            fac = m.group("fac")
            name, _, exp = fac.partition("^")
            e = int(exp) if exp else 1
            if mono is None:
                mono = [0] * pres.ngens
            try:
                mono[pres.index(name)] += e
            except KeyError:
                raise ValueError(f"unknown generator {name!r}") from None
        # '*' separators are skipped
    flush()
    return Element(pres, terms)


# ---------------------------------------------------------------------------
# Monomial bases: every degree piece of a window in one enumeration.


def _resolve_ranges(pres: Presentation, bound: int, caps):
    """Per-generator exponent ranges [lo, hi] holding every monomial whose
    degree t has |t| <= bound."""
    cap_map = {}
    if caps is None:
        pass
    elif isinstance(caps, int):
        if caps < 0:
            raise ValueError("exponent cap must be nonnegative")
        cap_map = {name: caps for name in pres.names}
    else:
        for name, c in dict(caps).items():
            pres.index(name)  # raises on unknown name
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"exponent cap for {name!r} must be a nonnegative integer")
            cap_map[name] = c

    # Exterior, capped and laurent generators have fixed ranges.  Auto-derived
    # ranges for the rest are only sound when every degree piece is finite:
    # no laurent generator without a cap, and the un-capped polynomial
    # generators all push degree strictly in one direction.
    fixed = {}
    for i, name in enumerate(pres.names):
        if pres.is_odd(i):
            fixed[i] = (0, min(1, cap_map.get(name, 1)))
        elif name in cap_map:
            c = cap_map[name]
            fixed[i] = (-c, c) if pres.laurent[i] else (0, c)
        elif pres.laurent[i]:
            raise ValueError(f"missing cap on laurent generator {name!r}")
        elif pres.degrees[i] == 0:
            raise ValueError(f"cap required for degree-0 generator {name!r}")
    signs = {1 if d > 0 else -1 for i, d in enumerate(pres.degrees) if i not in fixed}
    if len(signs) > 1:
        raise ValueError("caps required: generator degrees of mixed sign")

    slack = bound + sum(hi * abs(pres.degrees[i]) for i, (_, hi) in fixed.items())
    return [
        fixed.get(i) or (0, slack // abs(d)) for i, d in enumerate(pres.degrees)
    ]


def _clip_ranges(degrees, ranges, window) -> list:
    """ranges cut to the exponents e with e d in [lo - most, hi - least], d
    the generator's degree and least, most the least and greatest degree the
    other generators add: the cut box holds every monomial of degree in
    window = (lo, hi) that the uncut one holds, however loose the caps."""
    lo, hi = window
    spans = [sorted((a * d, b * d)) for (a, b), d in zip(ranges, degrees)]
    least, most = sum(s for s, _ in spans), sum(t for _, t in spans)
    clipped = []
    for (a, b), d, (s, t) in zip(ranges, degrees, spans):
        low, high = lo - most + t, hi - least + s  # the bounds on e d
        if d > 0:
            a, b = max(a, -(-low // d)), min(b, high // d)
        elif d < 0:
            a, b = max(a, -(-high // d)), min(b, low // d)
        clipped.append((a, b))
    return clipped


def degree_pieces(pres: Presentation, window, caps=None) -> dict:
    """{t: all monomials of degree t, leading (highest lex) first} for every
    t in window = (lo, hi), from one enumeration.

    Generators are placed last first, over the exponent ranges cut by
    _clip_ranges: each suffix of exponents is extended by every exponent of
    the next generator, and a partial degree is kept only while the
    generators not yet placed can still bring it into [lo, hi].  Exponents
    are tried in decreasing order over suffix lists that are already
    sorted, so every piece comes out sorted.

    caps: None (auto-derived bounds where sound), an int applied to every
    generator, or a {name: cap} mapping.  Laurent generators always require
    an explicit cap: their degree pieces are infinite without one.
    """
    lo, hi = window
    ranges = _clip_ranges(pres.degrees, _resolve_ranges(pres, max(abs(lo), abs(hi)), caps), window)
    # reach[i]: least and greatest degree the generators before i can add
    reach = [(0, 0)]
    for (a, b), d in zip(ranges, pres.degrees):
        least, most = reach[-1]
        reach.append((least + min(a * d, b * d), most + max(a * d, b * d)))
    pieces = {0: [()]}
    for i in reversed(range(pres.ngens)):
        (a, b), d = ranges[i], pres.degrees[i]
        least, most = reach[i]
        grown = {}
        for e in range(b, a - 1, -1):
            for s, suffixes in pieces.items():
                t = s + e * d
                if lo - most <= t <= hi - least:
                    grown.setdefault(t, []).extend((e,) + m for m in suffixes)
        pieces = grown
    return {t: pieces.get(t, []) for t in range(lo, hi + 1)}


def _box_sizes(degrees, ranges, window) -> dict:
    """{t: number of exponent tuples e with ranges[i][0] <= e_i <=
    ranges[i][1] and sum e_i degrees[i] = t} for every t in window = (lo, hi).

    The ranges are cut by _clip_ranges first, so a loose cap costs nothing.
    Generators are placed last first, as degree_pieces places them, over
    counts[s - base], the number of suffixes of partial degree s.  A
    negative degree is flipped first: e d = (-e)(-d), so the range (a, b)
    at degree d < 0 counts as (-b, -a) at -d.  Placing a generator of
    degree d > 0 whose range holds w = b - a + 1 exponents moves base up by
    a d and sends the count at list position j to positions j, j + d, ...,
    j + (w - 1) d, so the new list is the sliding sum

        new[j] = new[j - d] + counts[j] - counts[j - w d]

    (terms off the lists read 0) along each residue class of j mod d:
    O(len(counts) + w d) per generator, and no tuple built.  Degree 0
    multiplies every count by w, and an empty range (a > b) empties the
    box.  The reach pruning of degree_pieces then keeps only the partial
    degrees the generators not yet placed can still bring into [lo, hi].
    """
    lo, hi = window
    ranges = _clip_ranges(degrees, ranges, window)
    boxes = [(-b, -a, -d) if d < 0 else (a, b, d) for (a, b), d in zip(ranges, degrees)]
    reach = [(0, 0)]  # least and greatest degree the generators before i can add
    for a, b, d in boxes:
        reach.append((reach[-1][0] + a * d, reach[-1][1] + b * d))
    base, counts = 0, [1]
    for i in reversed(range(len(boxes))):
        a, b, d = boxes[i]
        w = b - a + 1
        if w < 1 or not counts:
            counts = []
            break
        if d == 0:
            counts = [c * w for c in counts]
        else:
            grown = [0] * (len(counts) + (w - 1) * d)
            for r in range(min(d, len(counts))):
                seq = counts[r::d]
                grown[r::d] = itertools.accumulate(map(sub, seq + [0] * (w - 1), [0] * w + seq))
            base, counts = base + a * d, grown
        least, most = reach[i]
        start = max(base, lo - most)
        stop = max(start, hi - least + 1)
        counts, base = counts[start - base:stop - base], start
    head = [0] * max(0, min(base, hi + 1) - lo)  # the window below the box
    counts = head + counts[max(0, lo - base):max(0, hi + 1 - base)]
    return dict(zip(range(lo, hi + 1), counts + [0] * (hi + 1 - lo - len(counts))))


def degree_dims(pres: Presentation, window, caps=None) -> dict:
    """Dimension of each degree piece of the free algebra, over a window:
    {t: len(pieces[t])} for pieces = degree_pieces(pres, window, caps), with
    the same errors, counted over the same exponent ranges and with no
    monomial enumerated."""
    lo, hi = window
    return _box_sizes(pres.degrees, _resolve_ranges(pres, max(abs(lo), abs(hi)), caps), window)


def product_sizes(pres: Presentation, mono, window, caps=None):
    """(live, kept): for every t in window = (lo, hi), live[t] is the number
    of monomials u of degree t (within caps) with mono u nonzero, and kept[t]
    the number of those whose product mono u lies within caps too.

    u survives exactly when it has none of mono's odd generators, so live
    counts the box with their ranges set to (0, 0), and kept the survivor
    box intersected with the ranges shifted by -mono.  The ranges are
    resolved for every degree of u and of mono u, so within them "in the
    box" means "within caps".
    """
    lo, hi = window
    shift = mono_degree(pres, mono)
    bound = max(abs(lo), abs(hi), abs(lo + shift), abs(hi + shift))
    ranges = _resolve_ranges(pres, bound, caps)
    live = [(a, 0) if e and pres.is_odd(i) else (a, b)
            for i, ((a, b), e) in enumerate(zip(ranges, mono))]
    kept = [(max(a, c - e), min(b, d - e)) for (a, b), (c, d), e in zip(live, ranges, mono)]
    return _box_sizes(pres.degrees, live, window), _box_sizes(pres.degrees, kept, window)


def monomial_basis(pres: Presentation, degree: int, caps=None):
    """All monomials of the given degree, leading (highest lex) first."""
    return degree_pieces(pres, (degree, degree), caps)[degree]


# ---------------------------------------------------------------------------
# Kahler differentials.


class KahlerElement(QCombination):
    """Element of the module of Kahler differentials: sum c_g d(g).

    Terms map (generator index, monomial) to the coefficient of mono d(g).
    Coefficients are written on the left of the formal symbols d(g); the
    symbol d(g) is given the degree of g, so left multiplication is the
    plain module action with no extra sign.
    """

    __slots__ = ("pres",)
    _SPACE = ("pres",)

    def __init__(self, pres: Presentation, terms=None):
        self.pres = pres
        super().__init__(terms)

    def _check_key(self, label):
        idx, mono = label
        if not 0 <= idx < self.pres.ngens:
            raise ValueError("bad generator index")
        return idx, _check_mono(self.pres, mono)

    def coefficients(self) -> dict:
        """{generator index: coefficient Element of d(g)}, ascending by index."""
        parts = {}
        for (idx, mono), c in sorted(self.terms.items()):
            parts.setdefault(idx, {})[mono] = c
        return {idx: Element(self.pres, t) for idx, t in parts.items()}

    def __rmul__(self, other):
        if not isinstance(other, Element):
            return super().__rmul__(other)
        self._require_same(other)
        pres = self.pres
        return self._new(
            ((idx, hit[1]), hit[0] * ca * cb)
            for ma, ca in other.terms.items()
            for (idx, mb), cb in self.terms.items()
            if (hit := koszul_mul(pres, ma, mb)) is not None
        )

    def display(self) -> str:
        """Symbols ordered by (degree, name), e.g. "v1^4 d(eps) + 4 v1^3 eps d(v1)"."""
        parts = self.coefficients()
        if not parts:
            return "0"
        order = sorted(parts, key=lambda i: (self.pres.degrees[i], self.pres.names[i]))
        chunks = []
        for i in order:
            coeff = parts[i]
            sym = f"d({self.pres.names[i]})"
            s = poly_str(coeff)
            if s == "1":
                chunks.append(sym)
            elif len(coeff.terms) == 1:
                chunks.append(f"{s} {sym}")
            else:
                chunks.append(f"({s}) {sym}")
        return " + ".join(chunks)

    def to_json(self) -> dict:
        return {self.pres.names[i]: poly_str(c) for i, c in self.coefficients().items()}

    def __repr__(self):
        return f"KahlerElement({self.display()})"


def kahler_d(x: Element) -> KahlerElement:
    """Universal derivation A -> Omega, extended Q-linearly.

    Peeling generators off the front with the Leibniz rule gives, for a
    monomial g_1^{e_1} ... g_r^{e_r} in generator order, the sum over j of
    (-1)^{|g_j^{e_j}| |rest_j|} e_j (mono / g_j) d(g_j), where rest_j is the
    product of the factors after position j (valid for laurent exponents).
    """
    pres = x.pres

    def pairs():
        for mono, coeff in x.terms.items():
            after = 0  # degree of the factors behind position i
            for i in reversed(range(pres.ngens)):
                e = mono[i]
                if not e:
                    continue
                head = e * pres.degrees[i]
                sign = -1 if head % 2 and after % 2 else 1
                lowered = mono[:i] + (e - 1,) + mono[i + 1:]
                yield (i, lowered), sign * e * coeff
                after += head

    return KahlerElement(pres, combine(pairs()))


# ---------------------------------------------------------------------------
# Localization.


def localize(pres: Presentation, name: str) -> Presentation:
    """Adjoin an inverse to an even generator (set its laurent flag)."""
    i = pres.index(name)
    if pres.is_odd(i):
        raise ValueError(f"cannot localize at odd generator {name!r}")
    laurent = list(pres.laurent)
    laurent[i] = True
    return Presentation(pres.names, pres.degrees, tuple(laurent))


# ---------------------------------------------------------------------------
# Right Ore condition, decided on a windowed multiplication table.


MAX_CLOSURE = 64  # elements of the S closure kept before it is truncated


class MalformedTableError(ValueError):
    pass


@dataclass
class MulTable:
    """Finite multiplication table on a graded basis within a degree window.

    products[(x, y)] is a {label: Fraction} combination (the empty dict is
    an honest zero), or None when the true product leaves the window.  A
    missing pair is malformed: the table must say when a product escapes.
    complete_degrees records whether every in-window degree piece of the
    underlying ring is fully present; "violated" verdicts are only sound
    on complete tables.  Products respect degrees (|xy| = |x| + |y|) and
    the unit, if given, lies in degree 0.
    """

    labels: tuple
    degree: dict
    products: dict
    one: dict | None = None
    complete_degrees: bool = True

    def validate(self):
        for x in self.labels:
            if x not in self.degree:
                raise MalformedTableError(f"no degree recorded for {x!r}")
            for y in self.labels:
                if (x, y) not in self.products:
                    raise MalformedTableError(
                        f"product ({x!r}, {y!r}) missing from table"
                    )
        for pair, combo in self.products.items():
            for label in combo or ():
                if label not in self.degree:
                    raise MalformedTableError(
                        f"product {pair!r} mentions unknown label {label!r}"
                    )
        for x, y in itertools.product(self.labels, repeat=2):
            want = self.degree[x] + self.degree[y]
            for label in self.products[(x, y)] or ():
                if self.degree[label] != want:
                    raise MalformedTableError(
                        f"product {(x, y)!r} mentions {label!r} of degree "
                        f"{self.degree[label]}, not {want}"
                    )
        for label in self.one or ():
            if label not in self.degree:
                raise MalformedTableError(f"unit mentions unknown label {label!r}")
            if self.degree[label] != 0:
                raise MalformedTableError(
                    f"unit mentions {label!r} of nonzero degree {self.degree[label]}"
                )

    def combo_mul(self, u: dict, v: dict):
        """Bilinear product of label combinations; None if any part escapes."""
        pairs = []
        for x, cx in u.items():
            for y, cy in v.items():
                hit = self.products[(x, y)]
                if hit is None:
                    return None
                pairs.extend((label, cx * cy * c) for label, c in hit.items())
        return combine(pairs)


def combo_str(combo) -> str:
    terms = []
    for label in sorted(combo):
        c = combo[label]
        if c == 1:
            terms.append(label)
        elif c == -1:
            terms.append(f"-{label}")
        else:
            terms.append(f"{c} {label}")
    return _signed_sum(terms)


def table_from_presentation(pres: Presentation, window, caps=None) -> MulTable:
    """Multiplication table of all monomials whose degree lies in window;
    complete without caps, as every in-window degree piece is then whole."""
    lo, hi = window
    if lo > hi:
        raise ValueError("empty degree window")
    monos = [m for piece in degree_pieces(pres, window, caps).values() for m in piece]
    labels = tuple(mono_str(pres, m) for m in monos)
    if len(set(labels)) != len(labels):
        raise ValueError("label collision in table construction")
    by_label = dict(zip(labels, monos))
    degree = {l: mono_degree(pres, m) for l, m in by_label.items()}
    label_of = {m: l for l, m in by_label.items()}
    products = {}
    for lx, mx in by_label.items():
        for ly, my in by_label.items():
            hit = koszul_mul(pres, mx, my)
            if hit is None:
                products[(lx, ly)] = {}
            elif hit[1] in label_of:
                products[(lx, ly)] = {label_of[hit[1]]: Fraction(hit[0])}
            else:
                products[(lx, ly)] = None
    one = None
    if lo <= 0 <= hi:
        unit = mono_str(pres, mono_one(pres))
        if unit in by_label:
            one = {unit: Fraction(1)}
    return MulTable(
        labels=labels,
        degree=degree,
        products=products,
        one=one,
        complete_degrees=caps is None,
    )


def matrix_units_table() -> MulTable:
    """The 2x2 rational matrix units e11, e12, e21, e22 (all in degree 0)."""
    labels = ("e11", "e12", "e21", "e22")
    products = {}
    for i, j in itertools.product((1, 2), repeat=2):
        for k, l in itertools.product((1, 2), repeat=2):
            x, y = f"e{i}{j}", f"e{k}{l}"
            products[(x, y)] = {f"e{i}{l}": Fraction(1)} if j == k else {}
    return MulTable(
        labels=labels,
        degree={l: 0 for l in labels},
        products=products,
        one={"e11": Fraction(1), "e22": Fraction(1)},
        complete_degrees=True,
    )


@dataclass
class OreReport:
    verdict: str  # satisfied | violated | inconclusive | degenerate
    condition: int | None = None  # which Ore condition a violation hits
    witness: tuple | None = None  # (x, s) label/combo strings
    commutative: bool = False
    truncated: bool = False
    closure: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "commutative": self.commutative,
               "truncated": self.truncated, "s_closure": list(self.closure)}
        if self.witness is not None:
            out["condition"] = self.condition
            out["witness"] = {"x": self.witness[0], "s": self.witness[1]}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _canon(combo):
    """Key of combo up to a nonzero scalar: combo divided by the coefficient
    of its smallest label.  Scaling t or s by a unit changes neither Ore
    condition, so the closure of S keeps one multiple of each element."""
    lead = combo[min(combo)] if combo else 1
    return tuple(sorted((label, Fraction(c) / lead) for label, c in combo.items()))


def _combo_degree(table, combo):
    degs = {table.degree[l] for l in combo}
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous element {combo_str(combo)!r}")
    return degs.pop() if degs else None


def _commutes(table, koszul: bool) -> bool:
    """p(x, y) = p(y, x) on every reported pair (up to (-1)^{|x||y|} if koszul)?"""
    for x in table.labels:
        for y in table.labels:
            pxy, pyx = table.products[(x, y)], table.products[(y, x)]
            if pxy is None or pyx is None:
                continue
            odd = koszul and table.degree[x] % 2 and table.degree[y] % 2
            if pxy != {label: -c if odd else c for label, c in pyx.items()}:
                return False
    return True


def _s_generators(table, s_elements):
    """The given S elements as homogeneous {label: Fraction} combinations."""
    gens = []
    for s in s_elements:
        if isinstance(s, str):
            combo = {s: Fraction(1)}
        else:
            combo = {l: Fraction(c) for l, c in dict(s).items() if Fraction(c)}
        for l in combo:
            if l not in table.degree:
                raise ValueError(f"unknown table label {l!r}")
        _combo_degree(table, combo)  # homogeneity check
        gens.append(combo)
    if not gens:
        raise ValueError("S needs at least one generator")
    return gens


def _s_closure(table, gens):
    """Multiplicative closure of S within the window, up to nonzero scalars.

    Breadth first by right products with the generators, which reach every
    word; it stops once 0 is reached.  Returns (closure, truncated, notes).
    """
    closure, seen = [], set()

    def add(combo):
        key = _canon(combo)
        if key in seen:
            return False
        seen.add(key)
        closure.append(combo)
        return True

    if table.one is not None:
        add(dict(table.one))
    queue = [g for g in gens if add(dict(g))]
    if not all(closure):
        queue = []
    truncated = False
    while queue:
        u = queue.pop(0)
        for g in gens:
            prod = table.combo_mul(u, g)
            if prod is None:
                truncated = True
            elif _canon(prod) in seen:
                continue
            elif len(closure) >= MAX_CLOSURE:
                return closure, True, ["closure truncated at max_closure"]
            else:
                add(prod)
                if not prod:
                    return closure, truncated, []
                queue.append(prod)
    return closure, truncated, []


def _unit_witnesses(table, s) -> bool:
    """Is s a unit whose witnesses t = s, y = u x s hold on every label x?

    u solves s u = 1 over the labels of degree -|s|.  Every product is read
    off the table, so nothing assumes associativity: s u = u s = 1, s y = x s
    and (s x = 0 only where x s = 0) are each checked exactly."""
    mul, one = table.combo_mul, Fraction(1)
    labels = [l for l in table.labels if table.degree[l] == -_combo_degree(table, s)]
    columns = [mul(s, {l: one}) for l in labels]
    if table.one is None or None in columns:
        return False
    row = {r: i for i, r in enumerate(sorted(set(table.one).union(*columns)))}
    found = in_span(RationalMatrix(len(row), len(labels), {
        (row[r], j): c for j, col in enumerate(columns) for r, c in col.items()}),
        {row[r]: c for r, c in table.one.items()})
    u = found.in_span and {labels[j]: c for j, c in found.coefficients.items()}
    if not u or not mul(s, u) == mul(u, s) == table.one:
        return False
    for x in table.labels:
        xs = mul({x: one}, s)
        y = None if xs is None else mul(u, xs)
        if y is None or mul(s, y) != xs or (xs and mul(s, {x: one}) == {}):
            return False
    return True


def _witness_scan(table, closure):
    """Search the table for witnesses t (and y) for each (s, x) in S x labels.

    Returns (violation, unverifiable).  violation is (condition, (x, s)) for
    the first condition (1) failure in (closure, label) order, else the
    first condition (2) failure, else None.  A failure counts only on a
    complete table where every product the pair needs stays in the window;
    unverifiable says whether a failure was seen that did not count.
    """
    index = {l: i for i, l in enumerate(table.labels)}
    one = Fraction(1)
    x_times = {x: [table.combo_mul({x: one}, t) for t in closure] for x in table.labels}
    violation = None
    unverifiable = not table.complete_degrees
    for s in closure:
        s_times = [table.combo_mul(s, {x: one}) for x in table.labels]
        rows = [sx for sx in s_times if sx is not None]
        # v lies in the span of the s y iff the span's left kernel annihilates it
        kernel = kernel_basis(RationalMatrix(len(rows), len(index), {
            (j, index[l]): c for j, sx in enumerate(rows) for l, c in sx.items()}))

        def spanned(v):
            return not any(sum(k.get(index[l], 0) * c for l, c in v.items()) for k in kernel)

        for x, sx in zip(table.labels, s_times):
            xts = x_times[x]
            # (1): x t = s y for some t.  (2): s x = 0 implies x t = 0 for some t.
            for condition, holds, escaped in (
                (1, any(xt is not None and spanned(xt) for xt in xts),
                 None in xts or None in s_times),
                (2, sx != {} or {} in xts, None in xts),
            ):
                if holds:
                    continue
                if escaped or not table.complete_degrees:
                    unverifiable = True
                elif condition == 1:
                    return (1, (x, combo_str(s))), unverifiable
                elif violation is None:
                    violation = (2, (x, combo_str(s)))
    return violation, unverifiable


def ore_check(table: MulTable, s_elements) -> OreReport:
    """Windowed semi-decision for the right Ore condition.

    Condition (1): for all x in the ring and s in S there exist t in S and
    y with x t = s y.  Condition (2): s x = 0 implies x t = 0 for some t in
    S.  S is the multiplicative closure of the given homogeneous elements,
    up to nonzero scalars and truncated to the window.

    The decision runs in a fixed order: validate the table, build the S
    generators, close S, report "degenerate" when S reaches 0 (the
    localization is the zero ring), try three structural proofs, and only
    then scan for witnesses.  "satisfied" comes from a ring whose reported
    products all commute, a graded-commutative ring (p(x, y) =
    (-1)^{|x||y|} p(y, x)) whose S lies in even degrees, or an S of units
    (_unit_witnesses); the "commutative" field stays literal.  The proofs
    may come first because each gives t and y that witness both conditions
    for every (x, s), so the scan could never report a violation.  The scan
    is complete only when the table is degreewise complete, so "violated" is
    reported only then; everything else is honestly "inconclusive".
    """
    table.validate()
    gens = _s_generators(table, s_elements)
    closure, truncated, notes = _s_closure(table, gens)
    report = functools.partial(OreReport, truncated=truncated,
                               closure=[combo_str(c) for c in closure])
    if not all(closure):
        return report("degenerate",
                      notes=notes + ["S contains 0: the localization is the zero ring"])
    if _commutes(table, koszul=False):
        return report("satisfied", commutative=True, notes=notes + [
            "commutative ring: t = s, y = x witnesses both conditions"])
    if (all(_combo_degree(table, s) % 2 == 0 for s in closure)
            and _commutes(table, koszul=True)):
        return report("satisfied", notes=notes + [
            "graded-commutative ring, S even: t = s, y = x witnesses both conditions"])
    if all(_unit_witnesses(table, s) for s in closure):
        return report("satisfied", notes=notes + [
            "S consists of units: t = s, y = s^-1 x s witnesses both conditions"])
    violation, unverifiable = _witness_scan(table, closure)
    if violation:
        condition, witness = violation
        return report("violated", condition=condition, witness=witness, notes=notes)
    return report("inconclusive", truncated=truncated or unverifiable, notes=notes + [
        "window search found no violation and no structural proof"])
