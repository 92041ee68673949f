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

Each constructor's rules live in one helper that takes children already in
normal form and returns the normal form: _plan (wedge, product, smash),
_susp, _loop and _map_from_susp, which reads K's sphere dimensions and
assembles from them (_map_from_dims, which a caller already holding them
calls directly).  normalize is their fold over the tree, normalizing the
children first, through one bounded memo keyed by the expression
(_normal_node, an lru_cache of 1,024 entries) for every node with children;
points, spheres and atoms are read off directly.  So normalizing a form
that is already normal, or a tree met before, costs one hash and one
lookup, not a walk.  A caller whose pieces are already normal, as the
decompositions' factor builds are, calls the helpers directly.  _plan does
a compound rule's flattening, merging and sorting once for a fixed list of
normal pieces and returns a build over their powers, so that the many
wedges, products or smashes of those pieces taken with different powers
only sum powers.
The helpers make their nodes through one maker per class (_sphere,
_susp_node, _loop_node, _Compound._normal; _atom for plain named
atoms), past the checks and the merge scan of the public constructors,
since what they build from is normal; the public constructors check and
merge raw trees, and they are how raw input, expr_from_json's included,
comes in.

render and expr_to_json are the two halves of one walk, expr_forms, which
builds a node's (JSON, text) pair from its children's pairs.  Whoever meets
a node looks it up, memo.get(id(x)) or expr_forms(x, memo), so each node
walked costs one lookup.  One memo walks a subtree shared by object identity
once, and serializes each complex object of its mapping spaces once: a
listing passes one memo across all its factors, which share their pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import eq, itemgetter
from typing import Iterable, Sequence, Union

from .scomplex import SimplicialComplex, _json_of, complex_from_json, complex_to_json, json_int
from .scomplex import wedge_of_spheres_type

INFINITE = math.inf


@dataclass(frozen=True, slots=True)
class Point:
    """The one-point space."""


@dataclass(frozen=True, slots=True)
class Sphere:
    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 0:  # one test on the hot path
            json_int(self.n, "sphere dimension")  # names a bool or a float
            raise ValueError("sphere dimension must be >= 0")


@dataclass(frozen=True, slots=True)
class Atom:
    """A named space with declared connectivity.

    loop: optional expression that Loop(this atom) rewrites to; conn then
        reads the declared connectivity capped at conn(loop) + 1.  A loop
        that normalizes to a point is rejected unless the atom is declared
        contractible: such an atom is weakly contractible.
    series: optional declared homology series as (numerator, denominator)
        integer coefficient tuples of a rational function in t.
    contractible: marks cones and path spaces; normalizes to Point.  Stored
        as a bool, so that no two equal atoms differ in it.
    """

    name: str
    connectivity: int = 0
    loop: "SpaceExpr | None" = None
    series: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    contractible: bool = False

    def __post_init__(self) -> None:
        if type(self.connectivity) is not int:  # one test on the hot path
            json_int(self.connectivity, f"atom {self.name}: connectivity")
        if type(self.contractible) is not bool:  # a flag: contractible=1 is the atom of True
            object.__setattr__(self, "contractible", bool(self.contractible))
        if self.loop is not None and not self.contractible and isinstance(normalize(self.loop), Point):
            raise ValueError(f"atom {self.name}: its loop space is a point, so it is weakly contractible; "
                             "declare it contractible")
        # tuples keep the atom hashable, so series_of can memoize on it
        if self.series is not None:
            num, den = (_int_coeffs(c) for c in self.series)
            for part, cs in (("numerator", num), ("denominator", den)):
                if not cs or cs[0] != 1:
                    raise ValueError(
                        f"atom {self.name}: declared series {part} needs constant term 1, "
                        f"got {list(cs)}"
                    )
            # P - 1 = (num - den)/den with den[0] = 1: its first nonzero
            # coefficient is at the first degree where num and den differ
            for d in range(1, min(self.connectivity + 1, max(len(num), len(den)))):
                if (num[d] if d < len(num) else 0) != (den[d] if d < len(den) else 0):
                    raise ValueError(
                        f"atom {self.name}: declared series has homology in degree {d}, "
                        f"at or below its connectivity {self.connectivity}"
                    )
            object.__setattr__(self, "series", (num, den))


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

    @classmethod
    def _normal(cls, children: tuple, powers: tuple) -> "_Compound":
        # a node made past __post_init__, for _plan's builds: their children
        # are distinct, sorted and merged, and their powers ints >= 1
        e = _new(cls)
        _set_children(e, children)
        _set_powers(e, powers)
        return e


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


@dataclass(frozen=True, slots=True)
class Loop:
    child: "SpaceExpr"
    count: int = 1

    def __post_init__(self) -> None:
        if type(self.count) is not int or self.count < 1:
            json_int(self.count, "loop iteration count")
            raise ValueError("loop iteration count must be >= 1")


@dataclass(frozen=True, slots=True)
class MapFromSusp:
    """Map_*(Sigma |K|, child) for a simplicial complex K."""

    complex: SimplicialComplex
    child: "SpaceExpr"


SpaceExpr = Union[Point, Sphere, Atom, Wedge, Product, Smash, Susp, Loop, MapFromSusp]

POINT = Point()

# the helpers' makers: a node past its class's checks, which its arguments pass
_new = object.__new__
_set_children, _set_powers = _Compound.children.__set__, _Compound.powers.__set__
_set_n, _set_susp_child = Sphere.n.__set__, Susp.child.__set__
_set_loop_child, _set_count = Loop.child.__set__, Loop.count.__set__
_set_name, _set_conn = Atom.name.__set__, Atom.connectivity.__set__
_set_atom_loop, _set_series, _set_contractible = (
    Atom.loop.__set__, Atom.series.__set__, Atom.contractible.__set__)


def _sphere(n: int) -> Sphere:
    """Sphere(n) for an int n >= 0: 0, a sum of degrees, or a degree plus one."""
    e = _new(Sphere)
    _set_n(e, n)
    return e


def _susp_node(c: SpaceExpr) -> Susp:
    """Susp(c), which checks nothing, for c normal and not a point or a sphere."""
    e = _new(Susp)
    _set_susp_child(e, c)
    return e


def _loop_node(c: SpaceExpr, k: int) -> Loop:
    """Loop(c, k) for an int k >= 1 and a normal c that no loop rule rewrites."""
    e = _new(Loop)
    _set_loop_child(e, c)
    _set_count(e, k)
    return e


def _atom(name: str, connectivity: int) -> Atom:
    """Atom(name, connectivity) for an int connectivity, with no series to check."""
    e = _new(Atom)
    _set_name(e, name)
    _set_conn(e, connectivity)
    _set_atom_loop(e, None)
    _set_series(e, None)
    _set_contractible(e, False)
    return e


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
    """A total order: equal keys only for equal expressions, as normalize's merge needs."""
    r = _RANK[type(e)]
    if isinstance(e, Point):
        return (r,)
    if isinstance(e, Sphere):
        return (r, e.n)
    if isinstance(e, Atom):
        loop = () if e.loop is None else sort_key(e.loop)
        return (r, e.name, e.connectivity, e.contractible, e.series or (), loop)
    if isinstance(e, Susp):
        return (r, sort_key(e.child))
    if isinstance(e, Loop):
        return (r, e.count, sort_key(e.child))
    if isinstance(e, MapFromSusp):
        return (r, e.complex.m, e.complex.facets, sort_key(e.child))
    # a larger power sorts first, as k+1 copies of c precede k copies and a larger child
    return (r, sum(e.powers), tuple((sort_key(c), -p) for c, p in zip(e.children, e.powers)))


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Canonical form; total and idempotent.  A node with children is
    normalized through one bounded memo keyed by the expression (_normal_node)."""
    if isinstance(e, Point):
        return POINT
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Atom):
        return POINT if e.contractible else e
    if isinstance(e, (_Compound, Susp, Loop, MapFromSusp)):
        return _normal_node(e)
    raise TypeError(f"not a space expression: {e!r}")


@lru_cache(maxsize=1024)
def _normal_node(e: SpaceExpr) -> SpaceExpr:
    """The normal form of a compound, suspension, loop or mapping space,
    memoized: its children come through normalize, and so through this
    memo, first."""
    if isinstance(e, _Compound):
        return _plan(type(e), [normalize(c) for c in e.children])(e.powers)
    if isinstance(e, Susp):
        return _susp(normalize(e.child))
    if isinstance(e, Loop):
        return _loop(normalize(e.child), e.count)
    return _map_from_susp(e.complex, normalize(e.child))


def _plan(cls, normal: Sequence[SpaceExpr]):
    """build(q) is the normal form of cls over q[i] copies of each piece
    normal[i], a piece of power 0 left out, for pieces in normal form.  The
    pieces' work is done once: each is flattened into its point flag, its
    sphere degree (only a smash merges its spheres) and its other children,
    and equal children across the pieces are merged and sorted by sort_key,
    which a lone child does not need.  build(q) then only sums powers: a
    point absorbs a smash and drops out of a wedge or a product, a smash's
    sphere of the summed degree sorts first, a child of power 0 is left
    out, and an empty result is S^0 for a smash and a point otherwise."""
    smash = cls is Smash
    points: list[int] = []  # the pieces of a smash that hold a point
    spheres: list[tuple[int, int]] = []  # (piece, sphere degree of one copy)
    parts = []  # (child, piece, power in one copy)
    for i, x in enumerate(normal):
        degree = 0
        for c, p in zip(x.children, x.powers) if isinstance(x, cls) else ((x, 1),):
            if isinstance(c, Point):
                if smash:
                    points.append(i)
            elif smash and isinstance(c, Sphere):
                degree += c.n * p
            else:
                parts.append((c, i, p))
        if degree:
            spheres.append((i, degree))
    if len(parts) > 1:
        parts.sort(key=lambda t: sort_key(t[0]))
    plan = []  # each distinct child, with its (piece, power) list
    for c, i, p in parts:
        if plan and plan[-1][0] == c:
            plan[-1][1].append((i, p))
        else:
            plan.append((c, [(i, p)]))
    empty = _sphere(0) if smash else POINT

    def build(q: Sequence[int]) -> SpaceExpr:
        if points and any(q[i] for i in points):
            return POINT
        kids, powers = [], []
        total = 0  # plain loops: these lists are short, and a sum() generator costs more
        for i, d in spheres:
            total += q[i] * d
        if total:
            kids.append(_sphere(total))
            powers.append(1)
        for c, use in plan:
            k = 0
            for i, p in use:
                k += q[i] * p
            if k:
                kids.append(c)
                powers.append(k)
        if not kids:
            return empty
        if len(kids) == 1 and powers[0] == 1:
            return kids[0]
        return cls._normal(tuple(kids), tuple(powers))

    return build


def _loop(c: SpaceExpr, k: int) -> SpaceExpr:
    """The normal form of Loop(c, k) for c in normal form."""
    while isinstance(c, Loop):
        k += c.count
        c = c.child
    if isinstance(c, Point):
        return POINT
    if isinstance(c, Product):
        return _plan(Product, [_loop(x, k) for x in c.children])(c.powers)
    if isinstance(c, Atom) and c.loop is not None:
        once = normalize(c.loop)
        return once if k == 1 else _loop(once, k - 1)
    return _loop_node(c, k)  # k >= 1 by construction


def _susp(c: SpaceExpr) -> SpaceExpr:
    """The normal form of Susp(c) for c in normal form."""
    if isinstance(c, Point):
        return POINT
    if isinstance(c, Sphere):
        return _sphere(c.n + 1)
    return _susp_node(c)


def _map_from_susp(K: SimplicialComplex, c: SpaceExpr) -> SpaceExpr:
    """The normal form of MapFromSusp(K, c) for c in normal form."""
    return _map_from_dims(K, wedge_of_spheres_type(K), c)


def _map_from_dims(K: SimplicialComplex, dims: tuple[int, ...] | None, c: SpaceExpr) -> SpaceExpr:
    """The normal form of MapFromSusp(K, c) for c in normal form, assembled
    from dims = wedge_of_spheres_type(K), which the caller has read: the
    product of the Loop^{d+1} c, a lone sphere's loop without a plan."""
    if isinstance(c, Point):  # every pointed map into a point is constant
        return POINT
    if dims is None:
        return MapFromSusp(K, c)
    loops = [c if d + 1 == 0 else _loop(c, d + 1) for d in dims]
    return loops[0] if len(loops) == 1 else _plan(Product, loops)([1] * len(loops))


def conn(e: SpaceExpr) -> float:
    """A connectivity lower bound; Point gives the infinite sentinel.

    conn(X) = c means pi_i(X) vanishes for i <= c: 0 is connected, 1 is
    simply connected, and -1 means no bound.  An atom reads its declared
    connectivity, capped at conn(L) + 1 when its loop replacement is L, the
    space every loop of it is built from.  conn never raises: a loop
    lowers its child's estimate by its count, down to -1, and the rules
    above a loop stay sound from there, as a suspension of any nonempty
    space is connected, a smash adds c + 1 per factor, and a wedge or a
    product takes the least of its children.
    """
    if isinstance(e, Point):
        return INFINITE
    if isinstance(e, Sphere):
        return e.n - 1
    if isinstance(e, Atom):  # Loop X = L makes X at most (conn(L) + 1)-connected
        if e.contractible:
            return INFINITE
        return e.connectivity if e.loop is None else min(e.connectivity, conn(e.loop) + 1)
    if isinstance(e, (Wedge, Product)):
        return min((conn(c) for c in e.children), default=INFINITE)
    if isinstance(e, Smash):  # the empty smash is S^0, of connectivity -1
        return sum((conn(c) + 1) * p for c, p in zip(e.children, e.powers)) - 1
    if isinstance(e, Susp):
        return conn(e.child) + 1
    if isinstance(e, Loop):
        return max(-1, conn(e.child) - e.count)
    if isinstance(e, MapFromSusp):
        return max(-1, conn(e.child) - (e.complex.dim() + 1))
    raise TypeError(f"not a space expression: {e!r}")


# ---------------------------------------------------------------------------
# the JSON tree form (shared with the spaces-file format of the command line)
# and the text form, from one walk
# ---------------------------------------------------------------------------


def expr_forms(e: SpaceExpr, memo: dict) -> tuple[dict, str]:
    """(expr_to_json(e), render(e)), built from the children's pairs: the
    walk of a node its caller looked up and missed, stored under id(e).
    memo maps id(node) to the pair of each node walked, so a subtree shared
    by several parents, or by several expressions walked with one memo, is
    walked once and its JSON dict is shared; it also maps the id of each
    mapping space's complex to that complex's JSON and text head.  The
    caller keeps what it walks alive while it holds the memo, and holds it
    for one call only.  Each rule (_FORMS) looks a child up the same way and
    puts a compound child's text in parentheses."""
    if (form := _FORMS.get(type(e))) is None:
        raise TypeError(f"not a space expression: {e!r}")
    pair = memo[id(e)] = form(e, memo)
    return pair


def _compound_forms(e: _Compound, memo: dict) -> tuple[dict, str]:
    kids, texts = [], []
    for c, p in zip(e.children, e.powers):
        j, t = memo.get(id(c)) or expr_forms(c, memo)
        kids.append(j)
        t = f"({t})" if isinstance(c, _Compound) else t
        texts.append(f"{t}^{e.symbol}{p}" if p > 1 else t)
    return {"kind": e.kind, "children": kids, "powers": list(e.powers)}, f" {e.symbol} ".join(texts)


def _atom_forms(e: Atom, memo: dict) -> tuple[dict, str]:
    out: dict = {"kind": "atom", "name": e.name, "conn": e.connectivity}
    if e.loop is not None:
        out["loop"] = (memo.get(id(e.loop)) or expr_forms(e.loop, memo))[0]
    if e.series is not None:
        out["series"] = {"num": list(e.series[0]), "den": list(e.series[1])}
    if e.contractible:
        out["contractible"] = True
    return out, e.name


def _prefix_forms(e: Susp | Loop, memo: dict) -> tuple[dict, str]:
    j, t = memo.get(id(e.child)) or expr_forms(e.child, memo)
    t = f"({t})" if isinstance(e.child, _Compound) else t
    if isinstance(e, Susp):
        return {"kind": "susp", "child": j}, "Σ" + t
    return {"kind": "loop", "count": e.count, "child": j}, ("Ω" if e.count == 1 else f"Ω^{e.count}") + t


def _map_forms(e: MapFromSusp, memo: dict) -> tuple[dict, str]:
    # the complex's JSON and text head, once per complex object of a walk
    j, t = memo.get(id(e.child)) or expr_forms(e.child, memo)
    if (head := memo.get(id(e.complex))) is None:
        facets = ",".join("{" + ",".join(map(str, f)) + "}" for f in e.complex.facets)
        head = memo[id(e.complex)] = (complex_to_json(e.complex),
                                      f"Map_*(Σ|K[{facets or '∅'}; m={e.complex.m}]|, ")
    return {"kind": "map_from_susp", "complex": head[0], "child": j}, f"{head[1]}{t})"


_FORMS = {Point: lambda e, memo: ({"kind": "point"}, "*"),
          Sphere: lambda e, memo: ({"kind": "sphere", "n": e.n}, f"S^{e.n}"),
          Atom: _atom_forms, **dict.fromkeys((Wedge, Product, Smash), _compound_forms),
          Susp: _prefix_forms, Loop: _prefix_forms, MapFromSusp: _map_forms}


def render(e: SpaceExpr) -> str:
    """Text form using the usual symbols: Omega, Sigma, smash, wedge, product."""
    return expr_forms(e, {})[1]


for cls in (Point, Sphere, Atom, _Compound, Susp, Loop, MapFromSusp):
    cls.__str__ = render


def expr_to_json(e: SpaceExpr) -> dict:
    """The JSON tree form; a subtree shared within e is one shared dict."""
    return expr_forms(e, {})[0]


MAX_JSON_DEPTH = 100


def json_bool(value, field: str) -> bool:
    """value, if it is a JSON boolean: "false", 0 and null are not flags."""
    if type(value) is not bool:
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def json_fields(data: dict, allowed: Sequence[str], what: str) -> None:
    """Reject a key outside allowed, so a misspelled optional field is not read as absent."""
    extra = [k for k in data if k not in allowed]
    if extra:
        raise ValueError(f"unknown field {extra[0]!r} in {what} (allowed: {', '.join(allowed)})")


# the fields of each space kind besides "kind"
_FIELDS = {"point": (), "sphere": ("n",), "atom": ("name", "conn", "loop", "series", "contractible"),
           **dict.fromkeys(("wedge", "product", "smash"), ("children", "powers")),
           "susp": ("child",), "loop": ("count", "child"), "map_from_susp": ("complex", "child")}


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
    if isinstance(kind, str) and kind in _FIELDS:
        json_fields(data, ("kind", *_FIELDS[kind]), f"{kind} space")
    if kind == "point":
        return POINT
    if kind == "sphere":
        return Sphere(json_int(data["n"], 'sphere "n"'))
    if kind == "atom":
        loop_expr = _expr_from_json(data["loop"], depth + 1) if "loop" in data else None
        series = None
        if "series" in data:
            declared = _json_of(data["series"], dict, 'atom "series"')
            json_fields(declared, ("num", "den"), "atom series")
            series = tuple(_json_of(declared[k], list, f'atom series "{k}"') for k in ("num", "den"))
        return Atom(
            name=_json_of(data["name"], str, 'atom "name"'),
            connectivity=json_int(data.get("conn", 0), 'atom "conn"'),
            loop=loop_expr,
            series=series,
            contractible=json_bool(data.get("contractible", False), 'atom "contractible"'),
        )
    if kind in ("wedge", "product", "smash"):
        cls = {c.kind: c for c in (Wedge, Product, Smash)}[kind]
        children = _json_of(data["children"], list, f'{kind} "children"')
        children = tuple(_expr_from_json(c, depth + 1) for c in children)
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
