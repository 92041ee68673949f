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
    Subcomplex,
    build,
    complex_from_json,
    complex_to_json,
    disjoint_union,
    full_subcomplex,
    has_chordal_1skeleton,
    homology,
    is_flag,
    is_shifted,
    join,
    maximal_faces_ge2,
    minimal_non_faces,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)
from .liealg import (
    Bracket,
    BracketStats,
    Generator,
    generators_for,
    hall_basis,
    lyndon_class_counts,
    lyndon_words,
    plain_alphabet,
    restricted_support,
    stats,
    support,
    witt_dimension,
)
from .spacexpr import (
    CP_INFINITY,
    POINT,
    Atom,
    ConnectivityUnderflowError,
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
    expr_equal,
    expr_from_json,
    expr_to_json,
    normalize,
    render,
)
from .series import (
    PoincareSeries,
    Unsupported,
    free_product_series,
    series_of,
    tensor_algebra_series,
)
from .decomp import (
    BracketClass,
    Decomposition,
    DiagramDescription,
    Factor,
    PullbackSquare,
    bbcg_cone_splitting,
    bbcg_wedge_splitting,
    class_diagram,
    coproduct_diagram,
    disjoint_union_decomp,
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
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
)

__version__ = "0.1.0"
