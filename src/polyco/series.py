"""
Truncated Poincare series with exact integer coefficients.

A PoincareSeries holds the coefficients of the rational homology series of a
space through a fixed degree N.  Coefficients are `int` only: `from_ints`
rejects any other value, and a declared rational series needs a denominator
with constant term 1, so every expansion stays integral.  All arithmetic and
comparisons are exact and never silently extend the truncation.

A product of many factor powers is taken through log-derivatives: for
P(0) = 1 the series L_P = tP'/P has integer coefficients, l_n = n c_n -
sum_{j=1}^{n-1} c_j l_{n-j}, and L turns products into sums, so
prod_i P_i^(k_i) is the series whose log-derivative is sum_i k_i L_{P_i}.
from_log_derivative recovers it in one pass, q_n = (sum_{j=1}^n l_j
q_{n-j}) / n, where the division is exact.  Decomposition.series_product
works this way, per group of equal factors, with each factor's
log-derivative memoized next to its series in sparse form (_log_memo), and
a factor of connectivity at least N read as 1.

series_of evaluates an expression by the classical rules (Bott-Samelson for
loops of suspensions of connected spaces, the James-style formulas for loops
of spheres, rational Eilenberg-MacLane factors for iterated loops of spheres,
reciprocal additivity for loops of wedges of simply connected spaces),
memoized on the normalized expression and N.  verify's tensor-algebra and
free-product oracles are series_of calls on Loop(Susp(Wedge(...))) and
Loop(Wedge(...)).  Anything outside those rules yields an Unsupported value
carrying a human-readable chain of reasons; Unsupported is data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Sequence, Union

from .spacexpr import (
    Atom,
    Loop,
    MapFromSusp,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    _loop,
    conn,
    normalize,
    render,
)


@dataclass(frozen=True, slots=True)
class Unsupported:
    """A series the evaluation rules cannot reach, with the reason why."""

    reason: str

    def __str__(self) -> str:
        return f"Unsupported({self.reason})"


SeriesOrUnsupported = Union["PoincareSeries", Unsupported]


def _degree(N: int) -> int:
    """N, when it is a valid truncation degree."""
    if type(N) is not int:  # no bool, no float
        raise ValueError(f"truncation degree must be an integer, got {N!r}")
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    return N


@dataclass(frozen=True, slots=True)
class PoincareSeries:
    """Integer coefficients of t^0..t^N."""

    coeffs: tuple[int, ...]

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_ints(values: Sequence[int], N: int | None = None) -> "PoincareSeries":
        bad = [v for v in values if type(v) is not int]
        if bad:
            raise ValueError(f"series coefficients must be integers, got {bad}")
        cs = list(values)
        if N is not None:
            cs = (cs + [0] * (_degree(N) + 1))[: N + 1]
        return PoincareSeries(tuple(cs))

    @staticmethod
    def one(N: int) -> "PoincareSeries":
        return PoincareSeries((1,) + (0,) * _degree(N))

    @staticmethod
    def zero(N: int) -> "PoincareSeries":
        return PoincareSeries((0,) * (_degree(N) + 1))

    @staticmethod
    def monomial(degree: int, N: int, coeff: int = 1) -> "PoincareSeries":
        if type(coeff) is not int:
            raise ValueError(f"series coefficients must be integers, got {coeff!r}")
        cs = [0] * (_degree(N) + 1)
        if 0 <= degree <= N:
            cs[degree] = coeff
        return PoincareSeries(tuple(cs))

    @staticmethod
    def from_rational(num: Sequence[int], den: Sequence[int], N: int) -> "PoincareSeries":
        """Expand num(t)/den(t) through degree N; den(0) must be 1, as in Atom."""
        if not den or den[0] != 1:
            raise ValueError(f"denominator needs constant term 1, got {list(den)}")
        return PoincareSeries.from_ints(num, N) * PoincareSeries.from_ints(den, N).invert()

    def _check(self, other: "PoincareSeries") -> None:
        if self.N != other.N:
            raise ValueError(
                f"mismatched truncation degrees {self.N} and {other.N}"
            )

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        try:  # as in __mul__: a non-series has no N
            self._check(other)
        except AttributeError:
            return NotImplemented
        return PoincareSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PoincareSeries") -> "PoincareSeries":
        try:
            self._check(other)
        except AttributeError:
            return NotImplemented
        return PoincareSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        try:  # no type test on the hot path: a non-series has no N
            self._check(other)
        except AttributeError:
            return NotImplemented
        n = self.N
        out = [0] * (n + 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                top = n - i
                for j, b in terms:
                    if j > top:
                        break
                    out[i + j] += a * b
        return PoincareSeries(tuple(out))

    def __rmul__(self, k: int) -> "PoincareSeries":
        """k * self for an integer k, coefficientwise."""
        if type(k) is not int:
            raise ValueError(f"series coefficients must be integers, got {k!r}")
        return PoincareSeries(tuple(k * c for c in self.coeffs))

    def __pow__(self, k: int) -> "PoincareSeries":
        """self^k for an integer k >= 0, by repeated squaring (self^1
        multiplies nothing)."""
        if type(k) is not int or k < 0:  # no bool, no float
            raise ValueError(f"series powers need a nonnegative integer exponent, got {k!r}")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return PoincareSeries.one(self.N) if out is None else out

    def invert(self) -> "PoincareSeries":
        """Multiplicative inverse; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("non-invertible series: constant term is not 1")
        n = self.N
        terms = [(j, -c) for j, c in enumerate(self.coeffs) if j and c]
        out = [1] + [0] * n
        for d in range(1, n + 1):
            s = 0
            for j, c in terms:
                if j > d:
                    break
                s += c * out[d - j]
            out[d] = s
        return PoincareSeries(tuple(out))

    def log_derivative(self) -> tuple[int, ...]:
        """The coefficients l_0..l_N of tP'/P for P = self (l_0 = 0), which
        are integers because P(0) must be 1: l_n = n c_n - sum_{j=1}^{n-1}
        c_j l_{n-j}, over the nonzero c_j only."""
        if self.coeffs[0] != 1:
            raise ValueError("log-derivative needs constant term 1")
        terms = [(j, c) for j, c in enumerate(self.coeffs) if j and c]
        out = [0] * (self.N + 1)
        for n in range(1, self.N + 1):
            s = 0
            for j, c in terms:
                if j >= n:
                    break
                s += c * out[n - j]
            out[n] = n * self.coeffs[n] - s
        return tuple(out)

    @staticmethod
    def from_log_derivative(l: Sequence[int], N: int) -> "PoincareSeries":
        """The series Q through degree N with Q(0) = 1 and tQ'/Q = l, where
        l_0 must be 0: n q_n = sum_{j=1}^n l_j q_{n-j}, divided exactly when
        l is a sum of integer multiples of log-derivatives."""
        _degree(N)
        bad = [c for c in l if type(c) is not int]
        if bad:
            raise ValueError(f"log-derivative coefficients must be integers, got {bad}")
        if l and l[0]:
            raise ValueError(f"a log-derivative has constant term 0, got {l[0]}")
        tail = l[1 : N + 1]  # l_1, l_2, ...: each n pairs l_j with q_{n-j}, missing ones 0
        out = [1]
        for n in range(1, N + 1):
            q, r = divmod(sum(map(mul, tail, reversed(out))), n)
            if r:
                raise ValueError(f"not the log-derivative of an integer series: degree {n}")
            out.append(q)
        return PoincareSeries(tuple(out))

    def reduced(self) -> "PoincareSeries":
        """p - 1: the reduced part of the series of a pointed space."""
        return self - PoincareSeries.one(self.N)

    def compare(self, other: "PoincareSeries"):
        """None when equal through degree N, else (degree, self[d], other[d])."""
        self._check(other)
        for d, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return (d, a, b)
        return None

    def __str__(self) -> str:
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}t" if c != 1 else "t")
            else:
                parts.append(f"{c}t^{d}" if c != 1 else f"t^{d}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "coefficients": [[c, 1] for c in self.coeffs],
        }


def tensor_algebra_series(reduced_part: PoincareSeries) -> PoincareSeries:
    """Series of the tensor algebra on classes with the given reduced series:
    1/(1 - reduced).  This is the Bott-Samelson answer for Loop(Susp(X))."""
    return (PoincareSeries.one(reduced_part.N) - reduced_part).invert()


def _em_product_series(degrees: Sequence[int], N: int) -> PoincareSeries:
    """Rational homology of a product of Eilenberg-MacLane factors K(Q, d), d >= 1:
    exterior generator (1 + t^d) for odd d, polynomial 1/(1 - t^d) for even d.
    Each factor is multiplied in place in one pass over the coefficients."""
    out = [1] + [0] * N
    for d in degrees:
        if d % 2 == 1:
            for k in range(N, d - 1, -1):
                out[k] += out[k - d]
        else:
            for k in range(d, N + 1):
                out[k] += out[k - d]
    return PoincareSeries(tuple(out))


def _loop_sphere_series(n: int, k: int, N: int) -> SeriesOrUnsupported:
    """Loop^k of S^n through the rational homotopy of spheres; needs n-k >= 1."""
    if n - k < 1:
        return Unsupported(
            f"Ω^{k} S^{n} is not within the simply connected sphere rules"
        )
    if n % 2 == 1:
        return _em_product_series([n - k], N)
    return _em_product_series([n - k, 2 * n - 1 - k], N)


def series_of(e: SpaceExpr, N: int) -> SeriesOrUnsupported:
    """Evaluate the homology series of an expression through degree N:
    normalize, then the one memoized evaluator _series."""
    return _series(normalize(e), _degree(N))


@lru_cache(maxsize=1024)
def _log_memo(e: SpaceExpr, N: int) -> tuple[tuple[int, int], ...] | Unsupported:
    """The log-derivative of _series(e, N) in sparse form, its (degree,
    coefficient) pairs with a nonzero coefficient in degree order, memoized
    as it is, or its Unsupported value.  A miss on e with conn(e) >= N
    gives no pair, the series 1 through N, exact as conn is a lower bound
    (Hurewicz): so such a factor reads 1 even where series_of has no rule
    for it."""
    if conn(e) >= N:
        return ()
    p = _series(e, N)
    return p if isinstance(p, Unsupported) else tuple((d, c) for d, c in enumerate(p.log_derivative()) if c)


@lru_cache(maxsize=1024)
def _series(e: SpaceExpr, N: int) -> SeriesOrUnsupported:
    """The series of an expression in normal form through degree N, memoized:
    both result types are frozen.  A compound's children and a looped wedge
    summand are normal too, so they come through the same memo; anything
    not normal by construction goes through series_of."""
    if isinstance(e, Point):
        return PoincareSeries.one(N)

    if isinstance(e, Sphere):
        if e.n == 0:
            return Unsupported("S^0 is disconnected and has no pointed series here")
        return PoincareSeries.one(N) + PoincareSeries.monomial(e.n, N)

    if isinstance(e, Atom):
        if e.series is None:
            return Unsupported(f"atom {e.name} has no declared homology series")
        p = PoincareSeries.from_rational(*e.series, N)
        for d, c in enumerate(p.coeffs):
            if c < 0:
                return Unsupported(
                    f"atom {e.name}: declared series has coefficient {c} in degree {d}, "
                    "not a Betti number"
                )
        return p

    if isinstance(e, (Wedge, Product, Smash)):
        # reduced series add over a wedge; series multiply over a product and
        # reduced series over a smash; a child of power k counts k times
        role = {Wedge: "wedge summand", Product: "product factor", Smash: "smash factor"}[type(e)]
        out = PoincareSeries.one(N)
        for c, k in zip(e.children, e.powers):
            p = _series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"{role} {render(c)}: {p.reason}")
            if isinstance(e, Wedge):
                out = out + k * p.reduced()
            else:
                out = out * (p if isinstance(e, Product) else p.reduced()) ** k
        return PoincareSeries.one(N) + out if isinstance(e, Smash) else out

    if isinstance(e, Susp):
        p = _series(e.child, N)
        if isinstance(p, Unsupported):
            return Unsupported(f"suspension of {render(e.child)}: {p.reason}")
        return PoincareSeries.one(N) + PoincareSeries.monomial(1, N) * p.reduced()

    if isinstance(e, Loop):
        return _loop_series(e, N)

    if isinstance(e, MapFromSusp):
        return Unsupported(
            f"mapping space out of an uncertified complex: {render(e)}"
        )

    raise TypeError(f"not a space expression: {e!r}")


def _loop_series(e: Loop, N: int) -> SeriesOrUnsupported:
    c, k = e.child, e.count

    if isinstance(c, Sphere):
        return _loop_sphere_series(c.n, k, N)

    if k >= 2:
        return Unsupported(
            f"iterated loops are only evaluated on spheres, not {render(c)}"
        )

    if isinstance(c, Susp):
        base = c.child
        if (b := conn(base)) < 0:
            return Unsupported(
                f"Bott-Samelson needs a connected argument, "
                f"{render(base)} has connectivity {b}"
            )
        p = _series(base, N)
        if isinstance(p, Unsupported):
            return Unsupported(f"loop of suspension of {render(base)}: {p.reason}")
        return tensor_algebra_series(p.reduced())

    if isinstance(c, Wedge):
        # free-product rule: 1/P = 1 + sum of k (1/P_i - 1) over summands of power k
        one = PoincareSeries.one(N)
        inverse = one
        for child, k in zip(c.children, c.powers):
            if (b := conn(child)) < 1:
                return Unsupported(
                    f"free-product rule needs simply connected summands, "
                    f"{render(child)} has connectivity {b}"
                )
            p = _series(_loop(child, 1), N)
            if isinstance(p, Unsupported):
                return Unsupported(f"loop of wedge summand {render(child)}: {p.reason}")
            inverse = inverse + k * (p.invert() - one)
        return inverse.invert()

    return Unsupported(f"no loop rule for {render(c)}")
