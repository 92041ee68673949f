"""
Truncated Poincare series with exact coefficients.

A PoincareSeries holds the coefficients of the rational homology series of a
space through a fixed degree N.  Coefficients are `int` where integral and
`fractions.Fraction` otherwise; all arithmetic and comparisons are exact and
never silently extend the truncation.  The rules below build integer series,
so a `Fraction` appears only where a caller supplies a non-integral value or
a declared denominator whose constant term is not 1.

series_of evaluates an expression by the classical rules (Bott-Samelson for
loops of suspensions, the James-style formulas for loops of spheres, rational
Eilenberg-MacLane factors for iterated loops of spheres, reciprocal
additivity for loops of wedges of simply connected spaces), memoized on the
normalized expression and N.  Anything outside those rules yields an
Unsupported value carrying a human-readable chain of reasons; Unsupported is
data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .spacexpr import (
    Atom,
    ConnectivityUnderflowError,
    Loop,
    MapFromSusp,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
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


Coeff = Union[int, Fraction]


def _exact(v: int | Fraction | float) -> Coeff:
    """v as an int when integral, else as its exact Fraction (never a float)."""
    if type(v) is int:
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True, slots=True)
class PoincareSeries:
    """Coefficients of t^0..t^N: ints where integral, exact Fractions otherwise."""

    coeffs: tuple[Coeff, ...]

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_ints(values: Sequence[int | Fraction], N: int | None = None) -> "PoincareSeries":
        cs = [_exact(v) for v in values]
        if N is not None:
            cs = (cs + [0] * (N + 1))[: N + 1]
        return PoincareSeries(tuple(cs))

    @staticmethod
    def one(N: int) -> "PoincareSeries":
        return PoincareSeries((1,) + (0,) * N)

    @staticmethod
    def zero(N: int) -> "PoincareSeries":
        return PoincareSeries((0,) * (N + 1))

    @staticmethod
    def monomial(degree: int, N: int, coeff: int | Fraction = 1) -> "PoincareSeries":
        cs = [0] * (N + 1)
        if 0 <= degree <= N:
            cs[degree] = _exact(coeff)
        return PoincareSeries(tuple(cs))

    @staticmethod
    def from_rational(
        num: Sequence[int | Fraction], den: Sequence[int | Fraction], N: int
    ) -> "PoincareSeries":
        """Expand num(t)/den(t) through degree N; den(0) must be nonzero."""
        if not den or den[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        p = PoincareSeries.from_ints(num, N)
        q = PoincareSeries.from_ints(den, N)
        d0 = q.coeffs[0]
        if d0 != 1:
            d0 = Fraction(d0)
            p = PoincareSeries(tuple(c / d0 for c in p.coeffs))
            q = PoincareSeries(tuple(c / d0 for c in q.coeffs))
        return p * q.invert()

    def coeff(self, d: int) -> Coeff:
        return self.coeffs[d]

    def _check(self, other: "PoincareSeries") -> None:
        if self.N != other.N:
            raise ValueError(
                f"mismatched truncation degrees {self.N} and {other.N}"
            )

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        self._check(other)
        return PoincareSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PoincareSeries") -> "PoincareSeries":
        self._check(other)
        return PoincareSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        self._check(other)
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

    def __pow__(self, k: int) -> "PoincareSeries":
        """self^k for k >= 0, by repeated squaring."""
        if k < 0:
            raise ValueError("series powers need a nonnegative exponent")
        out, base = PoincareSeries.one(self.N), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

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
            "coefficients": [[c.numerator, c.denominator] for c in self.coeffs],
        }


def tensor_algebra_series(reduced_part: PoincareSeries) -> PoincareSeries:
    """Series of the tensor algebra on classes with the given reduced series:
    1/(1 - reduced).  This is the Bott-Samelson answer for Loop(Susp(X))."""
    return (PoincareSeries.one(reduced_part.N) - reduced_part).invert()


def free_product_series(components: Sequence[PoincareSeries]) -> PoincareSeries:
    """Loops on a wedge: reciprocals add, minus (k-1).

    1/P = sum 1/P_i - (k-1), for P_i the series of the looped summands.
    """
    if not components:
        raise ValueError("free product needs at least one component")
    n = components[0].N
    acc = PoincareSeries.zero(n)
    for p in components:
        acc = acc + p.invert()
    acc = acc - PoincareSeries.from_ints([len(components) - 1], n)
    return acc.invert()


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
    """Evaluate the homology series of an expression through degree N."""
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    return _series_memo(normalize(e), N)


@lru_cache(maxsize=1024)
def _series_memo(e: SpaceExpr, N: int) -> SeriesOrUnsupported:
    """_series on a normalized expression, memoized: both result types are frozen."""
    return _series(e, N)


def _series(e: SpaceExpr, N: int) -> SeriesOrUnsupported:
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

    if isinstance(e, Wedge):
        out = PoincareSeries.one(N)
        for c in e.children:
            p = _series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"wedge summand {render(c)}: {p.reason}")
            out = out + p.reduced()
        return out

    if isinstance(e, Product):
        out = PoincareSeries.one(N)
        for c in e.children:
            p = _series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"product factor {render(c)}: {p.reason}")
            out = out * p
        return out

    if isinstance(e, Smash):
        out = PoincareSeries.one(N)
        for c in e.children:
            p = _series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"smash factor {render(c)}: {p.reason}")
            out = out * p.reduced()
        return PoincareSeries.one(N) + out

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


def _safe_conn(e: SpaceExpr) -> float:
    try:
        return conn(e)
    except ConnectivityUnderflowError:
        return -1


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
        if _safe_conn(base) < 1:
            return Unsupported(
                f"Bott-Samelson needs a simply connected argument, "
                f"{render(base)} has connectivity {_safe_conn(base)}"
            )
        p = _series(base, N)
        if isinstance(p, Unsupported):
            return Unsupported(f"loop of suspension of {render(base)}: {p.reason}")
        return tensor_algebra_series(p.reduced())

    if isinstance(c, Wedge):
        parts = []
        for child in c.children:
            if _safe_conn(child) < 1:
                return Unsupported(
                    f"free-product rule needs simply connected summands, "
                    f"{render(child)} has connectivity {_safe_conn(child)}"
                )
            p = series_of(Loop(child), N)
            if isinstance(p, Unsupported):
                return Unsupported(f"loop of wedge summand {render(child)}: {p.reason}")
            parts.append(p)
        return free_product_series(parts)

    return Unsupported(f"no loop rule for {render(c)}")
