"""
Formal pointed-space expressions and their canonical normal form.

The constructors cover everything the decompositions produce: the one-point
space, spheres, named atoms (with declared connectivity, an optional loop
replacement such as "looping this atom gives S^1", an optional declared
homology series, and a contractibility flag), wedges, products, smashes,
suspension, iterated loops, and pointed mapping spaces out of the suspended
realization of a simplicial complex.

normalize() rewrites to a fixed point of:
  * associative constructors flattened, children sorted by a fixed total
    order; equal children merge into one child with a power (a wedge of
    two copies is one child of power 2, not one copy);
  * Point absorbs smashes and disappears from wedges/products; empty wedge
    and product collapse to Point, empty smash to S^0 (the smash unit);
  * Susp(Point) = Loop(Point) = Point, Susp(S^n) = S^{n+1},
    S^a smash S^b = S^{a+b}, S^0 smash X = X;
  * loops distribute over products and merge with nested loops;
  * an atom flagged contractible becomes Point; looping an atom with a
    declared loop replacement substitutes the replacement;
  * a mapping space Map_*(Sigma|K|, X) with K certified as a wedge of
    spheres of dimensions d_1..d_r becomes the product of the Loop^{d_j+1} X
    (a certified contractible K gives Point, and the formal S^{-1} of the
    empty complex contributes the identity).

Uncertified mapping spaces, Loop(S^1), and loops of bare atoms stay
symbolic: the rewriter never invents a homotopy type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import eq, itemgetter
from typing import Iterable, Union

from .scomplex import SimplicialComplex, build, complex_from_json, complex_to_json, json_int
from .scomplex import wedge_of_spheres_type

INFINITE = math.inf


class ConnectivityUnderflowError(ValueError):
    """Looping something whose connectivity estimate is already negative."""


@dataclass(frozen=True, slots=True)
class Point:
    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True, slots=True)
class Sphere:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("sphere dimension must be >= 0")

    def __str__(self) -> str:
        return f"S^{self.n}"


@dataclass(frozen=True, slots=True)
class Atom:
    """A named space with declared connectivity.

    loop: optional expression that Loop(this atom) rewrites to.
    series: optional declared homology series as (numerator, denominator)
        integer coefficient tuples of a rational function in t.
    contractible: marks cones and path spaces; normalizes to Point.
    """

    name: str
    connectivity: int = 0
    loop: "SpaceExpr | None" = None
    series: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    contractible: bool = False

    def __post_init__(self) -> None:
        # tuples keep the atom hashable, so series_of can memoize on it
        if self.series is not None:
            num, den = (_int_coeffs(c) for c in self.series)
            for part, cs in (("numerator", num), ("denominator", den)):
                if not cs or cs[0] != 1:
                    raise ValueError(
                        f"atom {self.name}: declared series {part} needs constant term 1, "
                        f"got {list(cs)}"
                    )
            object.__setattr__(self, "series", (num, den))

    def __str__(self) -> str:
        return self.name


def _int_coeffs(values) -> tuple[int, ...]:
    # an int only: a float is not truncated, a bool not read as 0 or 1
    values = tuple(values)
    if any(type(c) is not int for c in values):
        raise ValueError(f"declared series coefficients must be integers, got {list(values)}")
    return values


@dataclass(frozen=True, slots=True)
class _Compound:
    """An associative constructor over children[i] taken powers[i] times.

    powers defaults to all ones.  Adjacent equal children merge into one
    child whose power is the sum, so a k-fold smash is one child of power k.
    """

    children: tuple["SpaceExpr", ...]
    powers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        children = tuple(self.children)
        if self.powers is None:
            powers = (1,) * len(children)
        else:
            powers = tuple(self.powers)
            if len(powers) != len(children) or not all(type(p) is int and p >= 1 for p in powers):
                got = f"{list(powers)} for {len(children)} children"
                raise ValueError(f"{self.kind} needs one integer power >= 1 per child, got {got}")
        if len(children) > 1 and any(map(eq, children, children[1:])):
            runs = groupby(zip(children, powers), itemgetter(0))
            runs = [(c, sum(p for _, p in g)) for c, g in runs]
            children, powers = tuple(c for c, _ in runs), tuple(p for _, p in runs)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "powers", powers)

    def __str__(self) -> str:
        return render(self)


class Wedge(_Compound):
    __slots__ = ()
    kind, symbol = "wedge", "∨"


class Product(_Compound):
    __slots__ = ()
    kind, symbol = "product", "×"


class Smash(_Compound):
    __slots__ = ()
    kind, symbol = "smash", "∧"


@dataclass(frozen=True, slots=True)
class Susp:
    child: "SpaceExpr"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Loop:
    child: "SpaceExpr"
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("loop iteration count must be >= 1")

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class MapFromSusp:
    """Map_*(Sigma |K|, child) for a simplicial complex K."""

    complex: SimplicialComplex
    child: "SpaceExpr"

    def __str__(self) -> str:
        return render(self)


SpaceExpr = Union[Point, Sphere, Atom, Wedge, Product, Smash, Susp, Loop, MapFromSusp]

POINT = Point()


_RANK = {
    Point: 0,
    Sphere: 1,
    Atom: 2,
    Susp: 3,
    Loop: 4,
    Smash: 5,
    Product: 6,
    Wedge: 7,
    MapFromSusp: 8,
}


def sort_key(e: SpaceExpr) -> tuple:
    """A total order on expressions; only used for deterministic output."""
    r = _RANK[type(e)]
    if isinstance(e, Point):
        return (r,)
    if isinstance(e, Sphere):
        return (r, e.n)
    if isinstance(e, Atom):
        return (r, e.name, e.connectivity)
    if isinstance(e, Susp):
        return (r, sort_key(e.child))
    if isinstance(e, Loop):
        return (r, e.count, sort_key(e.child))
    if isinstance(e, MapFromSusp):
        return (r, e.complex.m, e.complex.facets, sort_key(e.child))
    # a larger power sorts first, as k+1 copies of c precede k copies and a larger child
    return (r, sum(e.powers), tuple((sort_key(c), -p) for c, p in zip(e.children, e.powers)))


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Canonical form; total and idempotent."""
    if isinstance(e, Point):
        return POINT
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Atom):
        return POINT if e.contractible else e

    if isinstance(e, _Compound):
        return _compound(type(e), ((normalize(c), p) for c, p in zip(e.children, e.powers)))

    if isinstance(e, Susp):
        c = normalize(e.child)
        if isinstance(c, Point):
            return POINT
        if isinstance(c, Sphere):
            return Sphere(c.n + 1)
        return Susp(c)

    if isinstance(e, Loop):
        return _loop(normalize(e.child), e.count)

    if isinstance(e, MapFromSusp):
        c = normalize(e.child)
        dims = wedge_of_spheres_type(e.complex)
        if dims is None:
            return MapFromSusp(e.complex, c)
        return _compound(Product, ((c if d + 1 == 0 else _loop(c, d + 1), 1) for d in dims))

    raise TypeError(f"not a space expression: {e!r}")


def _compound(cls, normal_terms: Iterable[tuple[SpaceExpr, int]]) -> SpaceExpr:
    """The normal form of cls over (child, power) terms whose children are normal."""
    terms: list[tuple[SpaceExpr, int]] = []
    for c, p in normal_terms:
        if isinstance(c, cls):
            terms.extend((cc, pp * p) for cc, pp in zip(c.children, c.powers))
        else:
            terms.append((c, p))
    if cls is Smash:
        if any(isinstance(c, Point) for c, _ in terms):
            return POINT
        total = sum(c.n * p for c, p in terms if isinstance(c, Sphere))
        terms = [(c, p) for c, p in terms if not isinstance(c, Sphere)]
        if total > 0:
            terms.append((Sphere(total), 1))
        if not terms:
            return Sphere(0)
    else:
        terms = [(c, p) for c, p in terms if not isinstance(c, Point)]
        if not terms:
            return POINT
    if len(terms) > 1:
        terms.sort(key=lambda t: sort_key(t[0]))
    elif terms[0][1] == 1:
        return terms[0][0]
    return cls(tuple(c for c, _ in terms), tuple(p for _, p in terms))


def _loop(c: SpaceExpr, k: int) -> SpaceExpr:
    """The normal form of Loop(c, k) for c in normal form."""
    while isinstance(c, Loop):
        k += c.count
        c = c.child
    if isinstance(c, Point):
        return POINT
    if isinstance(c, Product):
        return _compound(Product, ((_loop(x, k), p) for x, p in zip(c.children, c.powers)))
    if isinstance(c, Atom) and c.loop is not None:
        once = normalize(c.loop)
        return once if k == 1 else normalize(Loop(once, k - 1))
    return Loop(c, k)


def expr_equal(a: SpaceExpr, b: SpaceExpr) -> bool:
    """Structural equality of canonical forms."""
    return normalize(a) == normalize(b)


def conn(e: SpaceExpr) -> float:
    """A connectivity lower bound; Point gives the infinite sentinel.

    conn(X) = c means pi_i(X) vanishes for i <= c: 0 is connected, 1 is
    simply connected.  Raises ConnectivityUnderflowError when a loop is
    applied to an estimate that is already negative, which signals a violated
    simple-connectivity precondition upstream.
    """
    if isinstance(e, Point):
        return INFINITE
    if isinstance(e, Sphere):
        return e.n - 1
    if isinstance(e, Atom):
        return INFINITE if e.contractible else e.connectivity
    if isinstance(e, (Wedge, Product)):
        if not e.children:
            return INFINITE
        return min(conn(c) for c in e.children)
    if isinstance(e, Smash):  # the empty smash is S^0, of connectivity -1
        return sum((conn(c) + 1) * p for c, p in zip(e.children, e.powers)) - 1
    if isinstance(e, Susp):
        return conn(e.child) + 1
    if isinstance(e, Loop):
        c = conn(e.child)
        for _ in range(e.count):
            if c < 0:
                raise ConnectivityUnderflowError(
                    f"connectivity underflow: looping {render(e.child)} "
                    f"(estimate {c}) is not supported"
                )
            c -= 1
        return c
    if isinstance(e, MapFromSusp):
        c = conn(e.child)
        if c is INFINITE:
            return INFINITE
        return max(-1, c - (e.complex.dim() + 1))
    raise TypeError(f"not a space expression: {e!r}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _wrap(e: SpaceExpr) -> str:
    if isinstance(e, _Compound):
        return f"({render(e)})"
    return render(e)


def render(e: SpaceExpr) -> str:
    """Text form using the usual symbols: Omega, Sigma, smash, wedge, product."""
    if isinstance(e, Point):
        return "*"
    if isinstance(e, Sphere):
        return f"S^{e.n}"
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, _Compound):
        return f" {e.symbol} ".join(
            _wrap(c) + (f"^{e.symbol}{p}" if p > 1 else "") for c, p in zip(e.children, e.powers)
        )
    if isinstance(e, Susp):
        return "Σ" + _wrap(e.child)
    if isinstance(e, Loop):
        prefix = "Ω" if e.count == 1 else f"Ω^{e.count}"
        return prefix + _wrap(e.child)
    if isinstance(e, MapFromSusp):
        facets = ",".join("{" + ",".join(map(str, f)) + "}" for f in e.complex.facets)
        return f"Map_*(Σ|K[{facets or '∅'}; m={e.complex.m}]|, {render(e.child)})"
    raise TypeError(f"not a space expression: {e!r}")


# ---------------------------------------------------------------------------
# JSON tree form, shared with the spaces-file format of the command line
# ---------------------------------------------------------------------------


def expr_to_json(e: SpaceExpr) -> dict:
    if isinstance(e, Point):
        return {"kind": "point"}
    if isinstance(e, Sphere):
        return {"kind": "sphere", "n": e.n}
    if isinstance(e, Atom):
        out: dict = {"kind": "atom", "name": e.name, "conn": e.connectivity}
        if e.loop is not None:
            out["loop"] = expr_to_json(e.loop)
        if e.series is not None:
            out["series"] = {"num": list(e.series[0]), "den": list(e.series[1])}
        if e.contractible:
            out["contractible"] = True
        return out
    if isinstance(e, _Compound):
        return {
            "kind": e.kind,
            "children": [expr_to_json(c) for c in e.children],
            "powers": list(e.powers),
        }
    if isinstance(e, Susp):
        return {"kind": "susp", "child": expr_to_json(e.child)}
    if isinstance(e, Loop):
        return {"kind": "loop", "count": e.count, "child": expr_to_json(e.child)}
    if isinstance(e, MapFromSusp):
        return {
            "kind": "map_from_susp",
            "complex": complex_to_json(e.complex),
            "child": expr_to_json(e.child),
        }
    raise TypeError(f"not a space expression: {e!r}")


MAX_JSON_DEPTH = 100


def json_bool(value, field: str) -> bool:
    """value, if it is a JSON boolean: "false", 0 and null are not flags."""
    if type(value) is not bool:
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def expr_from_json(data: dict) -> SpaceExpr:
    """Parse a space description; nesting deeper than MAX_JSON_DEPTH raises
    ValueError, so no later recursive pass can overflow the stack."""
    return _expr_from_json(data, 1)


def _expr_from_json(data: dict, depth: int) -> SpaceExpr:
    if depth > MAX_JSON_DEPTH:
        raise ValueError(f"space JSON nested deeper than {MAX_JSON_DEPTH} levels")
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f'space JSON needs a "kind" field: {data!r}')
    kind = data["kind"]
    if kind == "point":
        return POINT
    if kind == "sphere":
        return Sphere(json_int(data["n"], 'sphere "n"'))
    if kind == "atom":
        loop_expr = _expr_from_json(data["loop"], depth + 1) if "loop" in data else None
        series = None
        if "series" in data:
            series = (data["series"]["num"], data["series"]["den"])
        return Atom(
            name=str(data["name"]),
            connectivity=json_int(data.get("conn", 0), 'atom "conn"'),
            loop=loop_expr,
            series=series,
            contractible=json_bool(data.get("contractible", False), 'atom "contractible"'),
        )
    if kind in ("wedge", "product", "smash"):
        cls = {c.kind: c for c in (Wedge, Product, Smash)}[kind]
        children = tuple(_expr_from_json(c, depth + 1) for c in data["children"])
        return cls(children, data.get("powers"))  # optional: repeated children still load
    if kind == "susp":
        return Susp(_expr_from_json(data["child"], depth + 1))
    if kind == "loop":
        count = json_int(data.get("count", 1), 'loop "count"')
        return Loop(_expr_from_json(data["child"], depth + 1), count)
    if kind == "map_from_susp":
        return MapFromSusp(
            complex_from_json(data["complex"]), _expr_from_json(data["child"], depth + 1)
        )
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# vertex-indexed map data: for each i, a domain X_i and codomain A_i
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairAssignment:
    """The endpoint data of an m-tuple of maps f_i: X_i -> A_i.

    Only endpoint spaces and derived flags are recorded; the maps themselves
    carry no further data.  Expressions are stored as given so that diagram
    displays keep named contractible atoms visible; consumers normalize.
    """

    pairs: tuple[tuple[SpaceExpr, SpaceExpr], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a pair assignment needs at least one vertex")

    @property
    def m(self) -> int:
        return len(self.pairs)

    def domain(self, i: int) -> SpaceExpr:
        return self.pairs[i - 1][0]

    def codomain(self, i: int) -> SpaceExpr:
        return self.pairs[i - 1][1]

    def domain_contractible(self, i: int) -> bool:
        return isinstance(normalize(self.domain(i)), Point)

    def codomain_is_point(self, i: int) -> bool:
        return isinstance(normalize(self.codomain(i)), Point)

    def simply_connected(self, i: int) -> bool:
        return conn(self.domain(i)) >= 1 and conn(self.codomain(i)) >= 1

    @staticmethod
    def of(pairs: Iterable[tuple[SpaceExpr, SpaceExpr]]) -> "PairAssignment":
        return PairAssignment(tuple(pairs))

    @staticmethod
    def constant_maps(spaces: Iterable[SpaceExpr]) -> "PairAssignment":
        """X_i -> * for every vertex."""
        return PairAssignment(tuple((x, POINT) for x in spaces))

    @staticmethod
    def path_fibrations(codomains: Iterable[SpaceExpr]) -> "PairAssignment":
        """P A_i -> A_i with a contractible path-space atom as each domain."""
        return PairAssignment(
            tuple(
                (Atom(name=f"P({render(a)})", connectivity=0, contractible=True), a)
                for a in codomains
            )
        )


CP_INFINITY = Atom(
    name="CP^∞",
    connectivity=1,
    loop=Sphere(1),
    series=((1,), (1, 0, -1)),
)


def two_points() -> SimplicialComplex:
    """The boundary of the 1-simplex: two disjoint vertices."""
    return build(2, [[1], [2]])
