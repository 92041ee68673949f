"""Degree-by-degree verification of the decompositions.

Run as: python demos/06_verification.py
"""

from polyco import (
    Sphere,
    build,
    check_counterexample,
    check_disjoint_union,
    check_gluing,
    check_hilton_milnor,
    check_porter,
    check_wedge_case,
)

S = Sphere

reports = [
    # Hilton-Milnor: the bracket-indexed product against two independent
    # oracles; for S^3 v S^5 all three expand 1/(1 - t^2 - t^4).
    check_hilton_milnor([S(3), S(5)], 16),
    # Porter: per-vertex loops times loops of the fiber wedge.
    check_porter([S(2), S(2)], 12),
    # At the full simplex the coproduct is the plain wedge, so the
    # free-product rule gives an independent left-hand side.
    check_wedge_case(build(3, [[1, 2, 3]]), [S(2)] * 3, 10),
    # Disjoint unions multiply.
    check_disjoint_union(build(2, [[1, 2]]), build(1, [[1]]),
                         [S(2), S(3), S(2)], 8),
    # A gluing K = K1 u_L K2 is a pullback square of coproducts: two edges
    # glued at a vertex give P(K) P(L) = P(K1) P(K2).
    check_gluing(build(2, [[1, 2]]), build(2, [[1, 2]]), build(1, [[1]]),
                 [S(2), S(3), S(2)], 8),
    # Coproducts do not split over joins: the reported difference at degree 3
    # is the point of this check, not a failure.
    check_counterexample(8),
]

for r in reports:
    print(r.render())
    print()
