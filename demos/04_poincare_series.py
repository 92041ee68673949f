"""Exact truncated Poincare series and the evaluation rules.

Run as: python demos/04_poincare_series.py
"""

from polyco import (
    Loop,
    PoincareSeries,
    Sphere,
    Susp,
    Wedge,
    series_of,
    tensor_algebra_series,
)

S = Sphere
N = 10

# Exact rational arithmetic on truncations: no floats anywhere.
one = PoincareSeries.one(N)
t = PoincareSeries.monomial(1, N)
print("1/(1-t) =", (one - t).invert())

# Classical loop-space series.
print("\nP(Omega S^3)      =", series_of(Loop(S(3)), N))
print("P(Omega S^4)      =", series_of(Loop(S(4)), N))
print("P(Omega^2 S^4)    =", series_of(Loop(S(4), 2), N))

# Loops of a suspension: the tensor algebra on the reduced homology.
base = series_of(S(2), N)
print("\nBott-Samelson for Omega Sigma S^2:",
      series_of(Loop(Susp(S(2))), N))
print("equals 1/(1 - reduced)           :",
      tensor_algebra_series(base.reduced()))

# Loops of a wedge: reciprocals add, minus (k - 1).
direct = series_of(Loop(Wedge((S(3), S(5)))), N)
parts = [series_of(Loop(S(3)), N), series_of(Loop(S(5)), N)]
print("\nfree-product rule for Omega(S^3 v S^5):", direct)
rule = (parts[0].invert() + parts[1].invert() - one).invert()
print("matches 1/P = 1/P(Omega S^3) + 1/P(Omega S^5) - 1:", direct == rule)

# compare() reports the first differing degree; this pair of rational
# functions agrees through degree 2 and splits at degree 3 (20 vs 24).
a = PoincareSeries.from_rational([1], [1, -4, 6, -4, 1], N)
b = PoincareSeries.from_rational([1, 2, 1], [1, -2, -1], N)
print("\nfirst difference of the join-counterexample series:", a.compare(b))

# Outside the rules the answer is an Unsupported value, not a guess.
from polyco import Atom

print("\nno declared series:", series_of(Atom("B", 1), N))
