"""Exact computations in graded-commutative algebra over the rationals.

The package provides:

- sparse exact linear algebra over ``fractions.Fraction`` and the one sparse
  Q-linear-combination type every algebra element is built on (``exact_linear``),
- finitely presented graded-commutative algebras with Koszul signs, their
  Kähler differentials, localization at even generators, and a windowed
  right-Ore-condition checker (``graded_algebra``),
- preset presentations of the chromatic coefficient rings and the predicted
  Hochschild answer ring (``chromatic_presets``),
- bounded chain-complex windows, the cone on multiplication by one element,
  and the two-by-two matrix DG algebra modelling the cone on the top
  generator, with its commutative cycle model and homology checks
  (``dg_complexes``),
- the normalized cyclic bar complex in a fixed multidegree, its homology
  (the critical cells of an algebraic Morse matching, certified by HKR
  cycles), the symmetric-algebra prediction, and the level-one derivation map
  (``hochschild``),
- trace classes of algebra elements and the obstruction report showing
  certain one-form classes are not hit from the even subring
  (``trace_obstruction``).

All arithmetic is exact; nothing here uses floating point.
"""

from .exact_linear import RationalMatrix, SpanResult, in_span, kernel_basis, rank
from .graded_algebra import (
    Element,
    KahlerElement,
    MalformedTableError,
    MulTable,
    OreReport,
    Presentation,
    degree_dims,
    degree_pieces,
    element_from_string,
    kahler_d,
    koszul_mul,
    localize,
    make_presentation,
    matrix_units_table,
    mono_degree,
    mono_str,
    monomial_basis,
    ore_check,
    poly_str,
    presentation_to_json,
    table_from_presentation,
)
from .chromatic_presets import (
    ChromaticParams,
    a_q,
    bp_q,
    en_q,
    eps_degree,
    hh_a_predicted,
    parse_preset,
    preset_families,
    v_degree,
)
from .dg_complexes import (
    ChainWindow,
    GradedComplex,
    MatrixDGA,
    MatrixDGAElement,
    commutative_model_check,
    cone_report,
    dga_diff,
    dga_structure_check,
    homology_ring_check,
    matrix_dga,
    mdga_diag,
    mdga_eps,
)
from .hochschild import (
    BarChain,
    D_map,
    HkrReport,
    bar_basis,
    bar_window,
    hh_dims,
    hkr_check,
    hkr_predicted_dims,
    hochschild_diff,
    internal_degree,
    morse_complex,
    morse_complexes,
    multidegree_from_dict,
    multidegree_to_dict,
    multidegrees_up_to,
)
from .trace_obstruction import (
    MembershipResult,
    ObstructionReport,
    TraceClass,
    constant_loops_chain,
    displayed_obstruction_class,
    membership_test,
    obstruction_report,
    trace_class,
)

__version__ = "0.1.0"

__all__ = [
    "RationalMatrix", "SpanResult", "in_span", "kernel_basis", "rank",
    "Element", "KahlerElement", "MalformedTableError", "MulTable",
    "OreReport", "Presentation", "degree_dims", "degree_pieces",
    "element_from_string", "kahler_d", "koszul_mul", "localize",
    "make_presentation", "matrix_units_table",
    "mono_degree", "mono_str", "monomial_basis", "ore_check", "poly_str",
    "presentation_to_json",
    "table_from_presentation",
    "ChromaticParams", "a_q", "bp_q", "en_q", "eps_degree",
    "hh_a_predicted", "parse_preset", "preset_families", "v_degree",
    "ChainWindow", "GradedComplex", "MatrixDGA", "MatrixDGAElement",
    "commutative_model_check", "cone_report", "dga_diff",
    "dga_structure_check", "homology_ring_check", "matrix_dga", "mdga_diag",
    "mdga_eps",
    "BarChain", "D_map", "HkrReport", "bar_basis", "bar_window", "hh_dims",
    "hkr_check", "hkr_predicted_dims", "hochschild_diff", "internal_degree",
    "morse_complex", "morse_complexes", "multidegree_from_dict",
    "multidegree_to_dict", "multidegrees_up_to",
    "MembershipResult", "ObstructionReport", "TraceClass",
    "constant_loops_chain", "displayed_obstruction_class", "membership_test",
    "obstruction_report", "trace_class",
    "__version__",
]
