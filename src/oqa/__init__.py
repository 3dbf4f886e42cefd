"""Oriented quantum algebras and their regular-isotopy link invariants.

Exact-arithmetic construction and verification of oriented quantum algebra
structures on finite-dimensional algebras (chiefly matrix algebras), the
bead-sliding invariants of oriented tangles, knots and links presented as
Morse words, and independent skein-recursion cross-checks against the
regular-isotopy two-variable polynomial and the Alexander polynomial.
"""

from .scalar import (
    LaurentView,
    NotLaurentError,
    Scalar,
    ScalarError,
    SymbolTable,
    UndeclaredSymbolError,
    ZeroDenominatorError,
    laurent_homogeneous_degree,
    laurent_view,
    make_scalar,
    perfect_sqrt,
    substitute,
)
from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraMap,
    AlgebraSpec,
    SingularError,
    TensorSquareElement,
    apply_map_tensor,
    matrix_algebra,
    qybe_check,
    sweedler_algebra,
    tensor_invert,
    tensor_mul,
    tensor_unit,
)
from .structures import (
    AxiomReport,
    MnStructureParams,
    OrientedQuantumAlgebraStructure,
    StructureError,
    Thm5Report,
    Twist,
    TwistError,
    attach_twist,
    build_balanced_example2,
    build_rho_abc,
    build_thm5,
    check_axioms,
    classify_thm5,
    matrix_trace,
    minimal_subalgebra,
    opposite,
    params_from_json,
    single_block_params,
    standardize,
    structure_from_json,
    structure_to_json,
    sweedler_oqa,
)
from .diagram import (
    DiagramError,
    DiagramStats,
    DiagramSyntaxError,
    DiagramValidationError,
    MorseDiagram,
    MoveError,
    Slice,
    SliceKind,
    apply_move,
    builtin,
    builtin_names,
    compose_tangles,
    crossing_triple,
    cut_open,
    mirror,
    move_sites,
    insertion_sites,
    orientation_reverse,
    parse_diagram,
    serialize,
    stats,
    traverse,
)
from .invariant import (
    FormalWord,
    InvariantError,
    evaluate_knot,
    evaluate_link,
    evaluate_tangle,
    formal_word,
)
from .homfly_bridge import (
    CROSS_POS_IS_SKEIN_POSITIVE,
    IdentifyReport,
    SectionSixContext,
    SkeinPolynomial,
    conway,
    curl_family_values,
    homfly,
    identify_F,
    identify_open,
    section6_context,
    skein_triple_check,
)

__version__ = "0.1.0"
