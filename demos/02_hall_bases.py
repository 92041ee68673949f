"""Hall bases: Lyndon brackets, face alphabets, and the per-group bracket
counts the decompositions run on.

Run as: python demos/02_hall_bases.py
"""

from collections import Counter
from itertools import combinations

from polyco import (
    Generator,
    hall_basis,
    lyndon_class_counts,
    plain_alphabet,
    stats,
)

# Lyndon brackets over two plain symbols, up to weight 4.
print("brackets on {x1 < x2} of weight <= 4:")
for b in hall_basis(plain_alphabet(2), 4):
    print(f"  weight {b.weight}: {b.serialize()}")

# The face alphabet over a vertex set I has one letter a_{J,i} per subset J
# of at least two vertices and copy index i up to |J| - 1, ordered by (J, i).
subsets = sorted(J for k in (2, 3) for J in combinations((1, 2, 3), k))
gens = [Generator.face(J, i) for J in subsets for i in range(1, len(J))]
print("\nface alphabet over {1,2,3}:", [g.name() for g in gens])

# Bracket statistics: b(J) counts letters per subset, l_j totals the
# appearances of each vertex, and the vertices with l_j > 0 form the support,
# which picks out the full subcomplex a bracket factor lives over.
basis = hall_basis(gens, 2)
b = basis[-1]
st = stats(b, 3)
print(f"\nbracket {b.serialize()}: b(J)={st.bJ} l={st.l}")
print("support:", tuple(j for j, lj in enumerate(st.l, start=1) if lj))

# lyndon_class_counts takes the number of vertices in each piece.  Over
# plain letters, with one piece per letter (sizes [1, 1]), it counts the
# brackets per multidegree: the enumeration agrees.
alphabet = plain_alphabet(2)
listed = Counter(tuple(b.leaves().count(g) for g in alphabet) for b in hall_basis(alphabet, 6))
counted = lyndon_class_counts([1, 1], 6, alphabet="plain")
print("\nmultidegree counts, enumerated vs counted (weight <= 6):")
for (w, _, md), n in counted.items():
    print(f"  {md}: enumerated {listed[md]}, counted {n}")
print("all agree:", {md: n for (_, _, md), n in counted.items()} == dict(listed))

# The decompositions count brackets instead of listing them, per (weight,
# support type, piece content).  A support's type counts its vertices in
# each piece; permuting the vertices of a piece permutes the face letters,
# so every support of one type carries the same count.  With one piece per
# vertex the type is the support itself and the content is l.
classes = lyndon_class_counts([1, 1, 1], 3)
listed = Counter((b.weight, stats(b, 3).l) for b in hall_basis(gens, 3))
counted = {(w, l): n for (w, _, l), n in classes.items()}
print(f"\nface alphabet over {{1,2,3}}, weight <= 3: {sum(classes.values())} brackets "
      f"in {len(classes)} classes; counted == enumerated: {counted == dict(listed)}")

# When all three vertices carry one space they form one piece of three
# vertices, and a factor depends only on the weight, the support and the
# total letter count: each count is that of one support with the given
# number of vertices.
groups = lyndon_class_counts([3], 3)
(w, s, q), n = next(iter(groups.items()))
print(f"one piece: {len(groups)} groups, for example weight {w} on each {s[0]}-vertex "
      f"support with {q[0]} letter-vertices: {n} brackets")
