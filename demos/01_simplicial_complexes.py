"""Simplicial complexes: construction, subcomplexes, homology, certificates.

Run as: python demos/01_simplicial_complexes.py
"""

from polyco import (
    build,
    full_subcomplex,
    homology,
    is_shifted,
    join,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)

# The boundary of a square: four vertices, four edges, no diagonals.
square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
print(square)
print("faces including the empty one:", len(square.faces()))
print("homology:", homology(square))

# Full subcomplexes restrict to the faces inside a chosen vertex set,
# re-indexed: vertices 1 and 3 become 1 and 2.
sub = full_subcomplex(square, [1, 3])
print("\nK_{1,3} =", sub)
print("two opposite corners have the homology of two points:", homology(sub))

# The indexing sets the decompositions run over.
print("\nfacets:", square.facets)
bd_triangle = build(3, [[1, 2], [1, 3], [2, 3]])
print("missing subsets of the boundary triangle:", missing_subsets(bd_triangle))

# Certificates for |K| being a wedge of spheres.  The square is flag but its
# 1-skeleton is a chordless 4-cycle, so no certificate applies; the boundary
# triangle is shifted after relabeling and realizes to a single circle.
for name, K in [("square", square), ("boundary triangle", bd_triangle)]:
    print(f"\n{name}: shifted={is_shifted(K)} wedge_type={wedge_of_spheres_type(K)}")

# Composite complexes.  The join of two pairs of points is a 4-cycle again.
two_points = build(2, [[1], [2]])
print("\njoin of two point pairs:", join(two_points, two_points))
path = union_along(build(2, [[1, 2]]), build(2, [[1, 2]]), build(1, [[1]]))
print("two edges glued along a vertex:", path)
print("a path is contractible:", homology(path))
