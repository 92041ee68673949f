"""Formal space expressions and their canonical normal form.

Run as: python demos/03_space_expressions.py
"""

from polyco import (
    CP_INFINITY,
    POINT,
    Atom,
    Loop,
    MapFromSusp,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    build,
    conn,
    normalize,
    render,
)

S = Sphere
X = Atom("X", 1)
Y = Atom("Y", 2)

examples = [
    Smash((S(2), S(3))),                       # sphere arithmetic
    Smash((X, POINT)),                          # points absorb smashes
    Wedge((Y, X, POINT)),                       # points vanish from wedges
    Susp(S(4)),
    Loop(Product((S(3), S(5)))),                # loops distribute over products
    Loop(Loop(X)),                              # iterated loops merge
    Loop(CP_INFINITY),                          # declared loop replacement
]
for e in examples:
    print(f"{render(e):40s} ->  {render(normalize(e))}")

# Mapping spaces out of the suspended realization reduce when the complex is
# certified as a wedge of spheres: two points realize to S^0, so mapping out
# of its suspension is a single loop.
two_points = build(2, [[1], [2]])
m = MapFromSusp(two_points, Susp(X))
print(f"\n{render(m)} -> {render(normalize(m))}")

# An uncertified complex stays symbolic: no homotopy type is invented.
square = build(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
m2 = MapFromSusp(square, Susp(X))
print(f"{render(m2)} -> {render(normalize(m2))}")

# Connectivity estimates power the truncation bookkeeping.
print("\nconn(Loop S^3) =", conn(Loop(S(3))))
print("conn(Loop S^3 smash Loop S^3) =", conn(Smash((Loop(S(3)), Loop(S(3))))))

# Equality is structural equality of canonical forms.
print("\nwedges compare up to permutation:",
      normalize(Wedge((X, Y))) == normalize(Wedge((Y, X))))
print("but multiplicity matters:", normalize(Wedge((X, X))) == normalize(X))
