"""polyco: loop-space decompositions of polyhedral coproducts.

A polyhedral coproduct is the homotopy limit of wedges over the opposite face
poset of a simplicial complex.  This package computes the product
decompositions of its loop space as formal pointed-space expressions indexed
by Hall brackets and face data, and verifies the identities degree by degree
with exact truncated Poincare series.
"""

from .scomplex import (
    HomologyProfile,
    SimplicialComplex,
    build,
    complex_from_json,
    complex_to_json,
    disjoint_union,
    full_subcomplex,
    homology,
    is_shifted,
    join,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)
from .liealg import (
    Bracket,
    BracketStats,
    Generator,
    hall_basis,
    lyndon_class_counts,
    lyndon_words,
    plain_alphabet,
    stats,
)
from .spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    MapFromSusp,
    PairAssignment,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    conn,
    expr_from_json,
    expr_to_json,
    normalize,
    render,
)
from .series import (
    PoincareSeries,
    Unsupported,
    series_of,
    tensor_algebra_series,
)
from .decomp import (
    BracketGroup,
    Decomposition,
    DiagramDescription,
    Factor,
    PullbackSquare,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    class_diagram,
    coproduct_diagram,
    evaluate_special,
    hilton_milnor,
    join_vertex_reduce,
    loop_decompose,
    loop_decompose_contractible,
    loop_decompose_wedge,
    porter_fiber,
    porter_loop_decomp,
    pullback_square,
    smash_coproduct,
)
from .verify import (
    Equal,
    FirstDifference,
    Skipped,
    VerificationReport,
    check_counterexample,
    check_disjoint_union,
    check_gluing,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
)

__version__ = "0.1.0"
