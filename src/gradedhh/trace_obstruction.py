"""Trace chains of multiplicative classes and the localization obstruction.

For homogeneous positive-degree classes g_1, ..., g_k the constant-loops
chain at level k is

    sum_i 1 (x) ... (x) g_i (x) ... (x) 1  -  (g_1 + ... + g_k) (x) 1 ... (x) 1,

the chain-level shadow of a trace: at level 1 it reads 1 (x) a - a (x) 1.
Composing with the level-1 derivation map sends the trace of a to the
Kahler class d(a), which is how candidate homology classes are produced.

Over the cone model ring Q[v_1, ..., v_{n-1}] (x) Lambda(eps) the class of
x = v_1^{a_1} ... v_{n-1}^{a_{n-1}} eps of positive total degree traces to

    v^a d(eps) + sum_i a_i v_1^{a_1} ... v_i^{a_i - 1} ... eps d(v_i).

Whether such a class can come from the eps-free subring is decided by
inspection of the Kahler components: anything in the image of the eps-free
subalgebra has no d(eps) component and no eps inside its d(v_i)
coefficients.  Independently, the multidegree grading (the bar complex
splits by per-generator exponent totals, and the subring only populates
eps-count zero) excludes every nonzero class of eps-count one.  The report
runs both routes and checks they agree, and certifies nonvanishing in
homology by an exact boundary-span computation in the Morse complex of the
multidegree: a cycle is a boundary iff its projection there is one
(hochschild.morse_complex, proof in hochschild).

With n = 1 there are no polynomial generators and eps itself sits in
negative degree 1 - 2p, so no candidate monomial has positive total degree;
the construction refuses, which is why this route produces no obstruction
for the height-one localizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chromatic_presets import ChromaticParams, a_q
from .exact_linear import combine, in_span
from .graded_algebra import (
    Element,
    KahlerElement,
    Presentation,
    kahler_d,
    mono_degree,
    mono_one,
    mono_str,
    poly_str,
)
from .hochschild import (
    BarChain,
    D_map,
    hochschild_diff,
    morse_complex,
    multidegree_to_dict,
)

CONVENTIONS = {
    "trace_level_1": "1 | a - a | 1",
    "sigma": "sigma_i is the class of the level-1 chain 1 | v_i",
    "tensor_separator": "|",
}


def constant_loops_chain(gs) -> BarChain:
    """The level-k chain of a k-tuple of positive-degree classes."""
    gs = list(gs)
    if not gs:
        raise ValueError("need at least one class")
    pres = gs[0].pres
    level = len(gs)
    for g in gs:
        if not isinstance(g, Element) or g.pres != pres:
            raise ValueError("classes must be Elements over one presentation")
        if not g.is_homogeneous():
            raise ValueError("classes must be homogeneous")
        if not g.is_zero() and g.degree() <= 0:
            raise ValueError("classes must sit in positive degree")
    unit = mono_one(pres)

    def placed(position, x):
        slots = [unit] * (level + 1)
        for mono, coeff in x.terms.items():
            slots[position] = mono
            yield tuple(slots), coeff

    pairs = [pair for i, g in enumerate(gs, start=1) for pair in placed(i, g)]
    pairs += placed(0, -sum(gs[1:], gs[0]))
    return BarChain(pres, level, combine(pairs))


@dataclass
class TraceClass:
    chain: BarChain
    normalized: BarChain
    D_value: KahlerElement

    def to_json(self) -> dict:
        return {
            "chain": self.chain.to_json(),
            "normalized": self.normalized.to_json(),
            "D_value": self.D_value.to_json(),
            "D_display": self.D_value.display(),
        }


def trace_class(x: Element) -> TraceClass:
    """Level-1 trace of a homogeneous positive-degree class.

    Contract: composing with the derivation map recovers kahler_d(x)
    exactly; this is recomputed and enforced on every call.
    """
    if not isinstance(x, Element):
        raise ValueError("expected an Element")
    if not x.is_homogeneous() or x.is_zero():
        raise ValueError("trace needs a nonzero homogeneous class")
    if x.degree() <= 0:
        raise ValueError(f"trace needs positive degree, got {x.degree()}")
    chain = constant_loops_chain([x])
    value = D_map(chain)
    if value != kahler_d(x):
        raise ArithmeticError("derivation contract failed: D(trace) != d(x)")
    return TraceClass(chain=chain, normalized=chain.normalized(), D_value=value)


@dataclass
class MembershipResult:
    in_image: bool
    witness_generator: str | None = None
    witness_coefficient: str | None = None

    def to_json(self) -> dict:
        out = {"in_image": self.in_image}
        if self.witness_generator is not None:
            out["witness_generator"] = self.witness_generator
            out["witness_coefficient"] = self.witness_coefficient
        return out


def membership_test(omega: KahlerElement) -> MembershipResult:
    """Can omega come from the subring generated by the even generators?

    The presentation must have exactly one exterior generator (the shape of
    the cone model rings).  Classes from the even subring have no d(eps)
    component, and their d(v_i) coefficients never contain eps; the first
    offending component is returned as a witness.
    """
    pres = omega.pres
    odd = [i for i in range(pres.ngens) if pres.is_odd(i)]
    if len(odd) != 1:
        raise ValueError(
            "membership test needs exactly one exterior generator, "
            f"found {len(odd)}"
        )
    eps_idx = odd[0]
    eps_name = pres.names[eps_idx]
    parts = omega.coefficients()
    if eps_idx in parts:
        return MembershipResult(False, f"d({eps_name})", poly_str(parts[eps_idx]))
    for i, coeff in parts.items():
        dirty = Element(
            pres, {m: c for m, c in coeff.terms.items() if m[eps_idx]}
        )
        if not dirty.is_zero():
            return MembershipResult(
                False, f"d({pres.names[i]})", poly_str(dirty)
            )
    return MembershipResult(True)


@dataclass
class ObstructionReport:
    p: int
    n: int
    exponents: list
    class_monomial: str
    total_degree: int
    multidegree: dict
    trace: TraceClass
    is_cycle: bool
    nonzero_in_HH: bool
    membership: MembershipResult
    matches_displayed_class: bool
    eps_count_excludes_image: bool
    routes_agree: bool
    all_ok: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "exponents": list(self.exponents),
            "class": self.class_monomial,
            "total_degree": self.total_degree,
            "multidegree": self.multidegree,
            "trace_chain": self.trace.chain.to_json(),
            "normalized_chain": self.trace.normalized.to_json(),
            "D": self.trace.D_value.to_json(),
            "D_display": self.trace.D_value.display(),
            "is_cycle": self.is_cycle,
            "nonzero_in_HH": self.nonzero_in_HH,
            "in_subalgebra_image": self.membership.in_image,
            "membership": self.membership.to_json(),
            "matches_displayed_class": self.matches_displayed_class,
            "eps_count_excludes_image": self.eps_count_excludes_image,
            "routes_agree": self.routes_agree,
            "conventions": dict(CONVENTIONS),
            "all_ok": self.all_ok,
        }


def displayed_obstruction_class(pres: Presentation, exponents) -> KahlerElement:
    """The predicted value v^a d(eps) + sum_i a_i v^{a - e_i} eps d(v_i)."""
    eps_idx = pres.ngens - 1
    v_mono = tuple(exponents) + (0,)
    terms = {(eps_idx, v_mono): 1}
    for i, a in enumerate(exponents):
        if a:
            lowered = list(v_mono)
            lowered[i] -= 1
            lowered[eps_idx] = 1
            terms[(i, tuple(lowered))] = a
    return KahlerElement(pres, terms)


def obstruction_report(p: int, n: int, exponents) -> ObstructionReport:
    """Run the full obstruction argument for x = v^a eps over a_q(p, n)."""
    params = ChromaticParams(p, n)
    if n < 1:
        raise ValueError("obstruction needs n >= 1")
    exponents = list(exponents)
    if len(exponents) != n - 1:
        raise ValueError(
            f"need {n - 1} exponents (one per polynomial generator), "
            f"got {len(exponents)}"
        )
    for a in exponents:
        if not isinstance(a, int) or a < 0:
            raise ValueError("exponents must be nonnegative integers")
    pres = a_q(params)
    mono = tuple(exponents) + (1,)
    degree = mono_degree(pres, mono)
    if degree <= 0:
        detail = ""
        if n == 1:
            detail = (
                " (with n = 1 the exterior generator alone has degree "
                f"{1 - 2 * p} and there are no polynomial generators to "
                "compensate, so no candidate exists at any exponent)"
            )
        raise ValueError(
            f"no monomials of positive total degree: "
            f"{mono_str(pres, mono)} has degree {degree}{detail}"
        )

    trace = trace_class(Element.monomial(pres, mono))
    window, project = morse_complex(pres, mono)  # one factor: mono is its multidegree
    is_cycle = hochschild_diff(trace.normalized).is_zero()
    nonzero = not in_span(window.diff[2], project(trace.normalized)).in_span
    nonzero_in_hh = is_cycle and nonzero

    membership = membership_test(trace.D_value)
    matches = trace.D_value == displayed_obstruction_class(pres, exponents)
    eps_excludes = bool(mono[pres.ngens - 1] >= 1 and nonzero_in_hh)
    agree = eps_excludes == (not membership.in_image)
    all_ok = is_cycle and nonzero_in_hh and not membership.in_image and matches and agree
    return ObstructionReport(
        p=p,
        n=n,
        exponents=exponents,
        class_monomial=mono_str(pres, mono),
        total_degree=degree,
        multidegree=multidegree_to_dict(pres, mono),
        trace=trace,
        is_cycle=is_cycle,
        nonzero_in_HH=nonzero_in_hh,
        membership=membership,
        matches_displayed_class=matches,
        eps_count_excludes_image=eps_excludes,
        routes_agree=agree,
        all_ok=all_ok,
    )
