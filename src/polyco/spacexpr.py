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
    order (duplicates are kept: a wedge of two copies is not one copy);
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
from typing import Iterable, Union

from .scomplex import SimplicialComplex, build, complex_from_json, complex_to_json
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
    values = tuple(values)
    out = tuple(int(c) for c in values)
    if out != values:
        raise ValueError(f"declared series coefficients must be integers, got {list(values)}")
    return out


@dataclass(frozen=True, slots=True)
class Wedge:
    children: tuple["SpaceExpr", ...]

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Product:
    children: tuple["SpaceExpr", ...]

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Smash:
    children: tuple["SpaceExpr", ...]

    def __str__(self) -> str:
        return render(self)


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
    return (r, len(e.children), tuple(sort_key(c) for c in e.children))


def _flatten(cls, children: Iterable[SpaceExpr]) -> list[SpaceExpr]:
    out: list[SpaceExpr] = []
    for c in children:
        if isinstance(c, cls):
            out.extend(c.children)
        else:
            out.append(c)
    return out


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Canonical form; total and idempotent."""
    if isinstance(e, Point):
        return POINT
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Atom):
        return POINT if e.contractible else e

    if isinstance(e, (Wedge, Product)):
        cls = type(e)
        kids = _flatten(cls, (normalize(c) for c in e.children))
        kids = [c for c in kids if not isinstance(c, Point)]
        if not kids:
            return POINT
        if len(kids) == 1:
            return kids[0]
        return cls(tuple(sorted(kids, key=sort_key)))

    if isinstance(e, Smash):
        kids = _flatten(Smash, (normalize(c) for c in e.children))
        if any(isinstance(c, Point) for c in kids):
            return POINT
        total = sum(c.n for c in kids if isinstance(c, Sphere))
        rest = [c for c in kids if not isinstance(c, Sphere)]
        if total > 0:
            rest.append(Sphere(total))
        if not rest:
            return Sphere(0)
        if len(rest) == 1:
            return rest[0]
        return Smash(tuple(sorted(rest, key=sort_key)))

    if isinstance(e, Susp):
        c = normalize(e.child)
        if isinstance(c, Point):
            return POINT
        if isinstance(c, Sphere):
            return Sphere(c.n + 1)
        return Susp(c)

    if isinstance(e, Loop):
        c = normalize(e.child)
        k = e.count
        while isinstance(c, Loop):
            k += c.count
            c = c.child
        if isinstance(c, Point):
            return POINT
        if isinstance(c, Product):
            return normalize(Product(tuple(Loop(x, k) for x in c.children)))
        if isinstance(c, Atom) and c.loop is not None:
            once = normalize(c.loop)
            return once if k == 1 else normalize(Loop(once, k - 1))
        return Loop(c, k)

    if isinstance(e, MapFromSusp):
        c = normalize(e.child)
        dims = wedge_of_spheres_type(e.complex)
        if dims is None:
            return MapFromSusp(e.complex, c)
        factors = [c if d + 1 == 0 else Loop(c, d + 1) for d in dims]
        return normalize(Product(tuple(factors)))

    raise TypeError(f"not a space expression: {e!r}")


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
    if isinstance(e, Smash):
        if not e.children:
            return -1  # S^0
        return sum(conn(c) for c in e.children) + len(e.children) - 1
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


def _grouped(children: tuple[SpaceExpr, ...], sep: str, power: str) -> str:
    parts: list[str] = []
    i = 0
    while i < len(children):
        j = i
        while j < len(children) and children[j] == children[i]:
            j += 1
        text = _wrap(children[i])
        if j - i > 1:
            text = f"{text}^{power}{j - i}"
        parts.append(text)
        i = j
    return sep.join(parts)


def _wrap(e: SpaceExpr) -> str:
    if isinstance(e, (Wedge, Product, Smash)):
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
    if isinstance(e, Wedge):
        return _grouped(e.children, " ∨ ", "∨")
    if isinstance(e, Product):
        return _grouped(e.children, " × ", "×")
    if isinstance(e, Smash):
        return _grouped(e.children, " ∧ ", "∧")
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
    if isinstance(e, (Wedge, Product, Smash)):
        kind = {Wedge: "wedge", Product: "product", Smash: "smash"}[type(e)]
        return {"kind": kind, "children": [expr_to_json(c) for c in e.children]}
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
        return Sphere(int(data["n"]))
    if kind == "atom":
        loop_expr = _expr_from_json(data["loop"], depth + 1) if "loop" in data else None
        series = None
        if "series" in data:
            series = (data["series"]["num"], data["series"]["den"])
        return Atom(
            name=str(data["name"]),
            connectivity=int(data.get("conn", 0)),
            loop=loop_expr,
            series=series,
            contractible=bool(data.get("contractible", False)),
        )
    if kind in ("wedge", "product", "smash"):
        cls = {"wedge": Wedge, "product": Product, "smash": Smash}[kind]
        return cls(tuple(_expr_from_json(c, depth + 1) for c in data["children"]))
    if kind == "susp":
        return Susp(_expr_from_json(data["child"], depth + 1))
    if kind == "loop":
        return Loop(_expr_from_json(data["child"], depth + 1), int(data.get("count", 1)))
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
