"""Loop-space decompositions of polyhedral coproducts.

Run as: python demos/05_decompositions.py
"""

from polyco import (
    CP_INFINITY,
    POINT,
    Atom,
    PairAssignment,
    Sphere,
    build,
    coproduct_diagram,
    evaluate_special,
    hilton_milnor,
    loop_decompose,
    loop_decompose_contractible,
    loop_decompose_wedge,
    porter_loop_decomp,
    render,
)

S = Sphere
two_points = build(2, [[1], [2]])

# The defining diagram: wedges of domains on a face, codomains off it.
pairs = PairAssignment.path_fibrations([Atom("A1", 1), Atom("A2", 1)])
print(coproduct_diagram(two_points, pairs).render())

# Three classical shapes evaluate in closed form.
print("\nfull simplex ->", render(evaluate_special(build(2, [[1, 2]]),
      PairAssignment.constant_maps([Atom("X1", 1), Atom("X2", 1)]))))
print("discrete, constant maps ->", render(evaluate_special(two_points,
      PairAssignment.constant_maps([Atom("X1", 1), Atom("X2", 1)]))))
print("two points, path fibrations (the cojoin) ->",
      render(evaluate_special(two_points, pairs)))

# Porter and Hilton-Milnor for wedges.
print("\n" + porter_loop_decomp([S(3), S(3)]).render())
print("\n" + hilton_milnor([Atom("X1", 1), Atom("X2", 1)], 3).render())

# The wedge-coproduct decomposition over the boundary of a square with an
# infinite complex projective space at every vertex: four circles and four
# loops of 3-spheres, one per edge.
square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
print("\n" + loop_decompose_wedge(square, [CP_INFINITY] * 4, 1).render())

# The general decomposition covers arbitrary endpoint data.  Mixed bracket
# classes stay symbolic with their defining diagram attached.
mixed = PairAssignment.of([(POINT, Atom("A1", 1)), (Atom("Y", 1), POINT)])
dec = loop_decompose(two_points, mixed, 1)
print("\n" + dec.render())
for f in dec.factors:
    if f.diagram is not None:
        print(f.diagram.render())

# Contractible domains: one mapping-space factor per bracket class whose
# support is a missing face, with the class's bracket count as multiplicity;
# certified realizations reduce to iterated loops.
bd_triangle = build(3, [[1, 2], [1, 3], [2, 3]])
pairs3 = PairAssignment.path_fibrations([S(2)] * 3)
dec = loop_decompose_contractible(bd_triangle, pairs3, 2)
print("\n" + dec.render())
