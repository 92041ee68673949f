"""
The loop-space decompositions of polyhedral coproducts, as executable
operations on formal space expressions.

A polyhedral coproduct is the homotopy limit, over the opposite face poset of
a simplicial complex K on {1..m}, of the wedges D(sigma) = Y_1 v ... v Y_m
with Y_i = X_i on sigma and Y_i = A_i off sigma, for an m-tuple of maps
f_i: X_i -> A_i.  This module builds those diagrams, evaluates the classical
special cases (wedge, product, cojoin), and produces the product
decompositions of the looped coproduct:

  * porter_loop_decomp / porter_fiber: loops on a wedge split as the product
    of the loops of the summands times loops of a finite wedge of suspended
    smashes of loop spaces;
  * hilton_milnor: loops on a wedge of suspensions split as a product over a
    Hall basis;
  * loop_decompose: the general decomposition, one factor per vertex plus one
    factor per Hall bracket on the face alphabet, each bracket factor a
    weighted smash coproduct over the full subcomplex on the bracket support.
    Bracket factors are simplified when every domain over the support is
    contractible (a pointed mapping space out of the suspended realization)
    or every codomain over the support is a point (a single loop-suspension
    factor when the support is a face, nothing otherwise); mixed factors stay
    symbolic atoms, and class_diagram builds their defining diagrams;
  * loop_decompose_wedge: the all-codomains-point case, over the letters of
    the faces of K, so a bracket over overlapping faces is counted once
    (a word whose support is a face uses only letters inside it, so these
    are the counts of the face alphabet of {1..m} on the face supports);
  * loop_decompose_contractible: the all-domains-contractible case, where
    only the brackets whose support is a missing face survive;
  * the suspension-splitting summand lists (bbcg_*) for the dual comparison,
    and the structural operations for joined vertices and the pullback
    square of a gluing (a disjoint union is the gluing along no overlap).

A bracket factor depends only on its support and its vertex content l (l_j
counts the letters whose vertex set contains j) summed over each piece.
All four bracket decompositions build one piece table per call (_grading):
a piece is the set of vertices with one normalized summand (hilton_milnor)
or (domain, codomain) pair, or a single vertex when some support can be
mixed (a non-point domain and a non-point codomain both occur), and one
smash plan over the pieces' surviving spaces (each its summand, or the
loops of its domain, or of its codomain when those are a point), one per
distinct table (_smash_plan), builds every factor.  So brackets are never
listed: lyndon_class_counts counts them once per (weight, support type,
piece content), where a support's type counts its vertices in each piece; a
vertex whose surviving space is a point has no piece, in every mode.  One
census (_census) is the one place where a support is classified: it walks
the supports of each type up from the empty one as masks, as far as the
degree cut, with one and per step as face test, and keeps each with its
shape, which the bracket rule (_bracket_rule) reads off two endpoint masks
and that test: "point" on a face over point codomains, None (every group a
point) off one and on a face over contractible domains, the sphere
dimensions of a certified K_S or an uncertified K_S on a missing face, and
a mixed support's _Mixed(name, top).  Over point codomains, where every
kept support is a face of shape "point", the census runs no rule and lists
the faces, bare.  One function (_groups) makes the call-time half of every
preset: a (count, shape) tally per counted support type, whose series is
summed per tally and needs no listing, and the listing, which expands from
the groups on its first read: each (weight, support, piece content)
becomes one Factor with its bracket count as multiplicity and
BracketGroup(weight, support, pieces, counts) as provenance, in JSON
{"kind": "group", "weight": ..., "support": [...], "pieces": [...],
"counts": [...]}.  Where the census runs depends on the mode.  Over point
codomains (hilton_milnor, and every surviving codomain a point) a factor
depends only on q, and on the full simplex a type's tally is prod_p
C(n_p, s_p), with no census until the listing is read.  Off it, and in
every other mode, the census runs at call time: over point codomains it
cuts the counter to the faces' types, and elsewhere the shapes decide both
the series and the weight cut; a type's tally counts its entries per
shape.  In every mode the kept supports, with their pieces, are made only
for the listing, or for an Unsupported series, which names the first
entry.  One factor maker (_bracket_factor) builds every bracket factor from
the smash plan, the shape and the piece content, which decide it, each
distinct one once per listing; the group logs (_group_log, a bounded
lru_cache) key a factor's log-derivative by the same three and N, the plan
by identity, so a repeated call builds no factor and hashes no expression.
For contractible domains the rule reads K_S off the facet bitmasks, each
distinct K_S's certificate once (wedge_of_spheres_type's memo), and the
factor is assembled from the sphere dimensions read.

Each input is normalized once, where it enters (_checked), and its
connectivity is read on that normal form: a loop of an atom through its
loop replacement, and a point always passes.  An error names the input as
given.  Every expression made (factor, closed form, diagram object,
splitting summand) comes from those forms by spacexpr's normal-form
helpers, never a raw tree normalized later, save _display_wedge's Wedge,
which shows named contractible atoms.  Point factors are dropped, and
factor order is deterministic: vertex factors by vertex, then bracket
groups by weight, piece content descending, support type descending, then
support (so raising the weight bound only appends factors).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb, prod
from typing import NamedTuple, Sequence

from . import series as series_mod
from .liealg import _check_bounds, lyndon_class_counts
from .scomplex import (
    Face,
    SimplicialComplex,
    _full_sub,
    _index,
    _vertices,
    build,
    complex_to_json,
    full_subcomplex,
    max_trace,
    missing_subsets,
    union_along,
    wedge_of_spheres_type,
)
from .spacexpr import (
    INFINITE,
    POINT,
    PairAssignment,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Wedge,
    _atom,
    _loop,
    _loop_node,
    _map_from_dims,
    _plan,
    _sphere,
    _susp,
    conn,
    expr_forms,
    normalize,
    render,
)


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


@dataclass
class DiagramDescription:
    """A diagram over the opposite face poset, for inspection.

    objects maps each face (including the empty face) to its value; arrows
    maps (sigma, tau) with tau a proper subface of sigma to the coordinates
    where the induced map applies f_i (identity elsewhere).
    """

    complex: SimplicialComplex
    kind: str
    objects: dict[Face, SpaceExpr]
    arrows: dict[tuple[Face, Face], tuple[int, ...]]
    weights: tuple[int, ...] | None = None

    def render(self) -> str:
        lines = [f"{self.kind} diagram over {self.complex}"]
        if self.weights is not None:
            lines[0] += f", weights {list(self.weights)}"
        memo: dict = {}  # the objects share their pieces
        for f, e in sorted(self.objects.items(), key=lambda fe: (len(fe[0]), fe[0])):
            label = "{" + ",".join(map(str, f)) + "}" if f else "∅"
            lines.append(f"  D({label}) = {(memo.get(id(e)) or expr_forms(e, memo))[1]}")
        for (sig, tau), coords in sorted(self.arrows.items()):
            s = "{" + ",".join(map(str, sig)) + "}"
            t = "{" + ",".join(map(str, tau)) + "}" if tau else "∅"
            lines.append(f"  D({s}) → D({t}): f on {list(coords)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        memo: dict = {}
        return {
            "kind": self.kind,
            "complex": complex_to_json(self.complex),
            "weights": list(self.weights) if self.weights is not None else None,
            "objects": [
                {"face": list(f), "value": (memo.get(id(e)) or expr_forms(e, memo))[0]}
                for f, e in sorted(self.objects.items(), key=lambda fe: (len(fe[0]), fe[0]))
            ],
            "arrows": [
                {"from": list(sig), "to": list(tau), "f_coordinates": list(coords)}
                for (sig, tau), coords in sorted(self.arrows.items())
            ],
        }


def _check_arity(m: int, given: int, what: str, name: str = "complex") -> None:
    if given != m:
        raise ValueError(f"{name} has {m} vertices but {given} {what} given")


def _display_wedge(children: Sequence[SpaceExpr]) -> SpaceExpr:
    # keep vertex order and named contractible atoms; only drop literal points
    kids = [c for c in children if not isinstance(c, Point)]
    if not kids:
        return POINT
    if len(kids) == 1:
        return kids[0]
    return Wedge(tuple(kids))


def _face_diagram(K: SimplicialComplex, kind: str, value, weights=None) -> DiagramDescription:
    # value(f) at each face f, and an arrow from each face sigma to each
    # proper subface tau, applying f_i on the vertices of sigma off tau
    objects = {f: value(set(f)) for f in K.faces()}
    arrows = {
        (sig, tau): tuple(v for v in sig if v not in tau)
        for sig in objects for k in range(len(sig)) for tau in combinations(sig, k)
    }
    return DiagramDescription(K, kind, objects, arrows, weights)


def coproduct_diagram(K: SimplicialComplex, pairs: PairAssignment) -> DiagramDescription:
    """The defining diagram: wedges of the Y_i over the opposite face poset."""
    _check_arity(K.m, pairs.m, "pairs")
    return _face_diagram(K, "wedge", lambda sel: _display_wedge(
        [pairs.domain(i) if i in sel else pairs.codomain(i) for i in range(1, K.m + 1)]
    ))


def smash_coproduct(
    K: SimplicialComplex, pairs: PairAssignment, weights: Sequence[int]
) -> DiagramDescription:
    """The weighted smash-coproduct diagram: suspended smashes of loop spaces.

    Objects are sigma |-> Susp of the smash over i of Loop(Y_i(sigma)) to the
    k_i-th smash power, zero-fold factors omitted.  Its homotopy limit is
    kept symbolic; only the reductions in loop_decompose evaluate it.
    """
    _check_arity(K.m, pairs.m, "pairs")
    ks = tuple(weights)
    if len(ks) != K.m:
        raise ValueError(f"expected {K.m} weights, got {len(ks)}")
    if any(type(k) is not int or k < 0 for k in ks):  # no bool, no float
        raise ValueError(f"weights must be nonnegative integers, got {list(ks)!r}")
    if not any(ks):
        raise ValueError("weights must not all be zero")
    # one plan over the m domain loops, then the m codomain loops
    smash = _plan(Smash, [_loop(normalize(xa[side]), 1) for side in (0, 1) for xa in pairs.pairs])

    def value(sel):
        on = [k if i in sel else 0 for i, k in enumerate(ks, start=1)]
        return _susp(smash(on + [k - j for k, j in zip(ks, on)]))

    return _face_diagram(K, "suspended-smash", value, ks)


def evaluate_special(K: SimplicialComplex, pairs: PairAssignment) -> SpaceExpr | None:
    """Closed forms for the three classical shapes, None otherwise.

    Full simplex: the wedge of the domains (the top face is initial).
    Discrete complex with all codomains a point: the product of the domains
    over the covered vertices.  Two disjoint points with both domains
    contractible: the cojoin Loop Susp (Loop A_1 smash Loop A_2).
    """
    _check_arity(K.m, pairs.m, "pairs")
    if K.facets == (tuple(range(1, K.m + 1)),):
        return _plan(Wedge, [normalize(x) for x, _ in pairs.pairs])([1] * K.m)
    if K.dim() <= 0 and all(pairs.codomain_is_point(i) for i in range(1, K.m + 1)):
        covered = K.vertices()
        return _plan(Product, [normalize(pairs.domain(v)) for v in covered])([1] * len(covered))
    if (
        K.m == 2
        and K.facets == ((1,), (2,))
        and pairs.domain_contractible(1)
        and pairs.domain_contractible(2)
    ):
        return _loop(_susp(_plan(Smash, [_loop(normalize(a), 1) for _, a in pairs.pairs])((1, 1))), 1)
    return None


# ---------------------------------------------------------------------------
# decomposition values
# ---------------------------------------------------------------------------


class BracketGroup(NamedTuple):
    """The Hall brackets of one weight (number of letters), one support and
    one piece content: counts[i] sums the vertex content l over the vertices
    pieces[i] of the support.  A bracket factor depends only on these, so one
    group is one factor; with one vertex per piece, counts is l itself."""

    weight: int
    support: tuple[int, ...]
    pieces: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]


class Factor(NamedTuple):
    """One product factor, a named tuple: a normalized expression with
    multiplicity and origin.

    provenance is a BracketGroup (the multiplicity is its bracket count), a
    vertex number, or "base"; class_diagram(K, pairs, provenance) gives the
    defining diagram of a symbolic bracket factor.
    """

    expr: SpaceExpr
    multiplicity: int = 1
    provenance: object = "base"


def _provenance_text(p: object, labels: dict) -> str:
    # labels: the piece labels "{1,2}:" of each support, for all its entries
    if type(p) is BracketGroup:
        w, support, pieces, counts = p
        if (heads := labels.get(support)) is None:
            heads = labels[support] = ["{" + ",".join(map(str, piece)) + "}:" for piece in pieces]
        return f"group w={w} " + " ".join([h + str(n) for h, n in zip(heads, counts)])
    if isinstance(p, int):
        return f"vertex {p}"
    return str(p)


def _provenance_json(p: object, shared: dict) -> dict:
    # shared: the (support list, pieces list) of each support, for all its entries
    if type(p) is BracketGroup:
        w, support, pieces, counts = p
        if (lists := shared.get(support)) is None:
            lists = shared[support] = list(support), [*map(list, pieces)]
        return {"kind": "group", "weight": w, "support": lists[0], "pieces": lists[1], "counts": list(counts)}
    if isinstance(p, int):
        return {"kind": "vertex", "vertex": p}
    return {"kind": "base"}


def _per_object(factors):
    # [first factor, multiplicity] per factor object, keyed by id: no deep hashing
    per_object: dict[int, list] = {}
    for f in factors:
        per_object.setdefault(id(f.expr), [f, 0])[1] += f.multiplicity
    return per_object.values()


def _unsupported(expr: SpaceExpr, provenance: object, log) -> "series_mod.Unsupported":
    # a listing entry's Unsupported, named by its factor and provenance
    return series_mod.Unsupported(f"factor {render(expr)} [{_provenance_text(provenance, {})}]: {log.reason}")


class _Mixed(NamedTuple):
    """A mixed support's shape: its symbolic atom's name up to the weights,
    and top = dim K_S + 1, which its connectivity subtracts."""

    name: str
    top: int


@lru_cache(maxsize=4096)
def _group_log(smash, shape, q: tuple[int, ...], N: int):
    """The sparse log-derivative through degree N, or the Unsupported
    value, of the bracket factor of a smash plan, a shape and a piece
    content q, which decide it: a group's series, which a repeated call
    reads without building its factor.  The plan, one per distinct piece
    table (_smash_plan), hashes by identity, so a lookup hashes no
    expression."""
    return series_mod._log_memo(_bracket_factor(smash, shape, q, {}), N)


@dataclass(frozen=True)
class Decomposition:
    """A finite product of space-expression factors with provenance.

    truncation records the bracket weight bound W exactly when raising it
    would list more: when a listed group's support carries brackets of
    every weight, the least of weight W + 1 within any degree cut.
    degree_bound records the degree through which a degree cut kept every
    factor with homology.  The list is complete when both are None.

    A preset makes its decomposition from the counted groups and their
    (count, shape) tallies (_grouped, from _groups): the factors listing
    expands from them on its first read, in the order the module docstring
    gives, and series_product sums the series per tally, listing nothing.
    The kept supports are made on first need too, in every mode, by the
    listing or an Unsupported series; over point codomains on the full
    simplex the census runs only then.  One made from a factors tuple has
    no groups, and a pickle or a copy is made from the listing.
    """

    factors: tuple[Factor, ...]
    theorem: str
    truncation: int | None = None
    degree_bound: int | None = None

    _groups = None  # a preset's (vertex factors, smash plan, class counts, listing, tallies); not a field

    @classmethod
    def _grouped(cls, theorem: str, truncation, degree_bound, groups: tuple) -> "Decomposition":
        # groups: the vertex factors, the smash plan, the class counts, the
        # listing, which makes the kept supports on its one call, and the
        # tallies (_groups)
        dec = object.__new__(cls)
        vars(dec).update(theorem=theorem, truncation=truncation, degree_bound=degree_bound, _groups=groups)
        return dec

    def __getattr__(self, name: str):
        # reached only by a grouped decomposition's listing, before its first read
        if name != "factors" or self._groups is None:
            raise AttributeError(name)
        base, smash, counts, *_ = self._groups
        factors = vars(self)["factors"] = (*base, *_expand(smash, counts, self._kept()))
        return factors

    def _kept(self) -> dict:
        # a preset's kept supports of each counted type, made on first need
        if (kept := vars(self).get("_kept_supports")) is None:
            kept = vars(self)["_kept_supports"] = self._groups[3]()
        return kept

    def __reduce__(self):
        # the listed form: a pickle or a copy carries the factors, not the groups
        return type(self), (self.factors, self.theorem, self.truncation, self.degree_bound)

    def factor_multiset(self) -> Counter:
        out: Counter = Counter()
        for f, k in _per_object(self.factors):  # summed by object before any deep hash
            out[f.expr] += k
        return out

    def bracket_factors(self) -> tuple[Factor, ...]:
        return tuple(f for f in self.factors if isinstance(f.provenance, BracketGroup))

    def series_product(self, N: int):
        """The product of the factor series through degree N, or Unsupported.

        Log-derivatives turn the product into a sum, recovered once as the
        product, so no factor is multiplied or raised to a power.  Each
        listed factor object adds its log-derivative (_log_memo, sparse)
        times its total multiplicity; a preset's groups are not listed:
        each adds n times its factor's per kept support, one (count,
        shape) tally at a time, read from the group logs (_group_log),
        where a miss builds the factor and reads _log_memo.  A factor of
        connectivity at least N reads 1 through N, even one series_of has
        no rule for; an Unsupported reason names the first other
        unsupported entry of the listing, with its provenance, which
        makes the kept supports if no read has made them."""
        total = [0] * (series_mod._degree(N) + 1)
        base, smash, counts, _, tallies = self._groups or (self.factors, None, {}, None, None)
        for f, k in _per_object(base):
            if isinstance(log := series_mod._log_memo(f.expr, N), series_mod.Unsupported):
                return _unsupported(f.expr, f.provenance, log)
            for d, c in log:
                total[d] += k * c
        for (w, s, q), n in counts.items():
            for count, shape in tallies[s]:
                if isinstance(log := _group_log(smash, shape, q, N), series_mod.Unsupported):
                    support, pieces, _ = next(entry for entry in self._kept()[s] if entry[2] == shape)
                    return _unsupported(_bracket_factor(smash, shape, q, {}),
                                        BracketGroup(w, support, pieces, tuple(filter(None, q))), log)
                k = n * count
                for d, c in log:
                    total[d] += k * c
        return series_mod.PoincareSeries.from_log_derivative(total, N)

    def render(self) -> str:
        total = sum(f.multiplicity for f in self.factors)
        head = f"{self.theorem}: {len(self.factors)} entries, {total} factors with multiplicity"
        cuts = [f"{name} ≤ {n}" for name, n in (("bracket weight", self.truncation),
                                                 ("degree", self.degree_bound)) if n is not None]
        if cuts:
            head += f" ({', '.join(cuts)})"
        memo: dict = {}  # one walk over all factors, which share their pieces
        labels: dict = {}
        lines = [head]
        for e, n, p in self.factors:
            text = (memo.get(id(e)) or expr_forms(e, memo))[1]
            mult = f" ^{n}" if n > 1 else ""
            lines.append(f"  {text}{mult}   [{_provenance_text(p, labels)}]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The listing as JSON data, from one walk over all factors (expr_forms).
        The result shares its parts, so it is read-only: entries share one
        factor object's "expr" and one support's lists, and factors share
        the dicts of their common subtrees.  An entry is unpacked once and
        looks the walk memo up first."""
        memo: dict = {}
        shared: dict = {}
        factors = []
        for e, n, p in self.factors:
            expr, text = memo.get(id(e)) or expr_forms(e, memo)
            factors.append({"expr": expr, "text": text, "multiplicity": n,
                            "provenance": _provenance_json(p, shared)})
        return {"theorem": self.theorem, "truncation": self.truncation,
                "degree_bound": self.degree_bound, "factors": factors}


# ---------------------------------------------------------------------------
# the classical wedge decompositions
# ---------------------------------------------------------------------------


def _checked(i: int, x: SpaceExpr, least: int, need: str) -> SpaceExpr:
    # the one normal form of vertex i's input x; its connectivity, read on
    # that form and never on x as given, must reach least (a point's is
    # infinite).  Else the error is need, formatted with x as given and
    # that connectivity, -1 where conn has no bound
    normal = normalize(x)
    if (c := conn(normal)) < least:
        raise ValueError(f"vertex {i}: " + need.format(render(x), c))
    return normal


def _summand_loops(spaces: Sequence[SpaceExpr]) -> list[SpaceExpr]:
    # Loop X_i in normal form for each checked wedge summand X_i
    need = "wedge summand {} must be simply connected (connectivity {})"
    return [_loop(_checked(i, x, 1, need), 1) for i, x in enumerate(spaces, start=1)]


def _fiber_wedge(loops: Sequence[SpaceExpr]) -> SpaceExpr:
    m = len(loops)
    smash = _plan(Smash, loops)
    terms, mults = [], []
    for k in range(2, m + 1):
        for I in combinations(range(m), k):
            q = [1 if i in I else 0 for i in range(m)]
            terms.append(_susp(smash(q)))
            mults.append(k - 1)
    return _plan(Wedge, terms)(mults)


def porter_fiber(spaces: Sequence[SpaceExpr]) -> SpaceExpr:
    """The fiber of the inclusion of a wedge into a product, as a wedge.

    Sums Susp(smash of Loop X_i over i in I) with multiplicity |I| - 1 over
    the subsets I of size at least two.
    """
    return _fiber_wedge(_summand_loops(spaces))


def porter_loop_decomp(spaces: Sequence[SpaceExpr]) -> Decomposition:
    """Loops on a wedge: the product of Loop X_i and loops of the fiber wedge."""
    loops = _summand_loops(spaces)
    factors = [Factor(f, 1, i) for i, f in enumerate(loops, start=1) if not isinstance(f, Point)]
    lf = _loop(_fiber_wedge(loops), 1)
    if not isinstance(lf, Point):
        factors.append(Factor(lf, 1, "base"))
    return Decomposition(tuple(factors), "porter", None)


def _groups(counts, grading: Sequence[int | None], sizes: Sequence[int], census, take, shaped: bool) -> tuple:
    """The call-time half of every preset: (listing, tallies) of the
    counted groups.  counts maps (weight, support type, q) to a count, as
    lyndon_class_counts does, with grading[j - 1] the piece of vertex j and
    sizes[p] the vertices of piece p.  census is the census taken at call
    time (_census), whose entries are (support, shape) when shaped, else
    bare faces of shape "point", or None on the full simplex over point
    codomains, where take() takes it.

    tallies maps each counted type to its (count, shape) per shape of its
    entries, in order of first entry: with census None, [(prod_p C(n_p,
    s_p), "point")], n_p = sizes[p], as there every support of a counted
    type is a face inside both census cuts (sum_p s_p deg_p <= sum_p q_p
    deg_p <= N and |S| <= w <= W).  listing() makes kept, which maps each
    counted type to one (support, pieces, shape) per entry, pieces its
    vertices by piece, from the census, or from take() when none was
    taken.  So the class (w, s, q) of count n is the group of weight w and
    piece content q over each kept support of type s, and a type that
    keeps none has no group."""
    tallies = {}
    for _, s, _ in counts:
        if s not in tallies:
            if census is None:
                tallies[s] = [(prod([comb(n, k) for n, k in zip(sizes, s)]), "point")]
            elif shaped:
                tallies[s] = [(n, shape) for shape, n in Counter([shape for _, shape in census.get(s, ())]).items()]
            else:
                tallies[s] = [(len(census[s]), "point")]

    def listing() -> dict:
        taken = take() if census is None else census
        kept: dict[tuple[int, ...], list] = {}
        for s in tallies:
            entries = kept[s] = []
            for entry in taken.get(s, ()):
                support, shape = entry if shaped else (entry, "point")
                on: dict[int, list[int]] = {}
                for j in support:
                    on.setdefault(grading[j - 1], []).append(j)
                entries.append((support, tuple(tuple(on[p]) for p in sorted(on)), shape))
        return kept

    return listing, tallies


def _expand(smash, counts, kept) -> list[Factor]:
    """The bracket entries of the listing, expanded from the counted groups
    in the counter's order (by weight, then q descending, then support type
    descending) and by support within a type: one Factor per kept support,
    with the class count as multiplicity and BracketGroup(weight, support,
    pieces, l) as provenance, l the nonzero entries of q, each made by
    tuple.__new__, fields in order.  A factor is built once per (shape, q)."""
    out: list[Factor] = []
    new = tuple.__new__
    made: dict = {}  # (shape, q) -> its factor, and q -> the Susp smash(q) they share
    for (w, s, q), n in counts.items():
        if not (entries := kept[s]):
            continue
        l = tuple(filter(None, q))  # the pieces on each support have q_p > 0
        last = made  # no shape: the first entry looks its factor up
        for support, pieces, shape in entries:
            if shape is not last:  # a run of one shape object shares its factor
                if (expr := made.get(key := (shape, q))) is None:
                    expr = made[key] = _bracket_factor(smash, shape, q, made)
                last = shape
            out.append(new(Factor, (expr, n, new(BracketGroup, (w, support, pieces, l)))))
    return out


@lru_cache(maxsize=256)
def _smash_plan(table: tuple[SpaceExpr, ...]):
    # the one smash plan over a piece table's surviving spaces, per distinct
    # table, so that the group logs can key a table by its plan's identity
    return _plan(Smash, table)


def _grading(normal: Sequence, surviving=lambda x: x, per_vertex: bool = False):
    # the piece table of a call: each vertex's piece, each piece's normal
    # form (one piece per distinct form, in order of first vertex, or one
    # per vertex), each piece's number of vertices, each piece's degree,
    # and the one smash plan over the surviving spaces surviving(form) in
    # piece order, shared by every call with this table (_smash_plan).  A
    # vertex whose surviving space is a point has no piece (None), in every
    # mode: a point summand smashes to a point, and a pair whose loop spaces
    # are both points puts (Ω*)^{l_j} = * (l_j >= 1) into every object
    # Σ ∧_S (ΩY_j(σ))^{l_j} of a group's diagram, whose homotopy limit is
    # then a point.  A degree is conn + 1 of the surviving space, the least
    # degree each vertex adds to a factor; 1 for a space with no finite
    # bound or below connected, such as ΩS^0, whose factors have no series
    ids: dict = {}
    grading = [ids.setdefault(j if per_vertex else x, len(ids)) for j, x in enumerate(normal)]
    spaces = list(normal) if per_vertex else list(ids)
    survivors = [surviving(x) for x in spaces]
    live = {p: n for n, p in enumerate(p for p, y in enumerate(survivors) if not isinstance(y, Point))}
    grading = [live.get(p) for p in grading]  # the point pieces dropped, the others numbered in order
    spaces, survivors = [spaces[p] for p in live], [survivors[p] for p in live]
    sizes = tuple(Counter(p for p in grading if p is not None).values())  # pieces are numbered by first vertex
    degrees = tuple(1 if (c := conn(x)) == INFINITE else max(1, c + 1) for x in survivors)
    return grading, spaces, sizes, degrees, _smash_plan(tuple(survivors))


def hilton_milnor(
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of Susp X_1 v ... v Susp X_m as a Hall-basis product.

    Each bracket contributes Loop Susp of the smash of l_i copies of each
    X_i, zero-fold powers omitted, where l_i counts the letter x_i; the
    brackets are counted per group, by letter count per piece, the
    summands with one normal form, and each factor is built in normal form
    from those forms.  degree_bound optionally drops the brackets whose
    factors carry no homology at or below that degree (read from the piece
    table's degrees), which leaves truncated series products unchanged.
    """
    m = len(spaces)
    if m == 0:
        raise ValueError("need at least one wedge summand")
    normal = [_checked(i, x, 0, "summand {} must be connected") for i, x in enumerate(spaces, start=1)]
    grading, _, sizes, degrees, smash = _grading(normal)
    counts = lyndon_class_counts(sizes, weight_bound, alphabet="plain", degrees=degrees,
                                 degree_bound=degree_bound)
    # every support is a face of the one facet, and a word of weight W has
    # at most W letters: the listing alone walks the census
    take = partial(_census, ((2 << m) - 2,), grading, degrees, degree_bound, most=weight_bound)
    grouped = _groups(counts, grading, sizes, None, take, False)
    # two letters that are not points carry brackets of every weight, and the
    # least degree of weight W+1 is that of x_a^W x_b, a and b the two least
    ds = sorted(degrees[p] for p in grading if p is not None)
    truncated = len(ds) >= 2 and (degree_bound is None or weight_bound * ds[0] + ds[1] <= degree_bound)
    return Decomposition._grouped("hilton-milnor", weight_bound if truncated else None, degree_bound,
                                  ((), smash, counts, *grouped))


# ---------------------------------------------------------------------------
# the polyhedral decompositions: one engine over the face alphabet and one
# bracket rule, with presets that differ only in their input checks
# ---------------------------------------------------------------------------


def _base_factors(K: SimplicialComplex, normal: Sequence[tuple[SpaceExpr, SpaceExpr]]) -> list[Factor]:
    # the per-vertex loop factors from the normalized pairs; a vertex absent
    # from K contracts the domain away and leaves loops of the codomain instead
    covered = set(K.vertices())
    out = []
    for i, (x, a) in enumerate(normal, start=1):
        f = _loop(x if i in covered else a, 1)
        if not isinstance(f, Point):
            out.append(Factor(f, 1, i))
    return out


def _vertex_pieces(normal: Sequence[tuple[SpaceExpr, SpaceExpr]]):
    # the piece table over the normalized (domain, codomain) pairs, where a
    # piece's surviving space is the loop of its domain, or of its codomain
    # when that loop is a point: one piece per distinct pair, or one per
    # vertex when a support can be mixed (a non-point domain and a non-point
    # codomain both occur).  Then the masks of the vertices with a point
    # codomain and with a contractible domain
    to_point, from_point = (sum(2 << j for j, xa in enumerate(normal) if isinstance(xa[side], Point))
                            for side in (1, 0))
    surviving = lambda xa: _loop(xa[1], 1) if isinstance(y := _loop(xa[0], 1), Point) else y
    mixed = (2 << len(normal)) - 2 not in (to_point, from_point)
    return *_grading(normal, surviving, mixed), to_point, from_point


def _bracket_rule(K: SimplicialComplex, to_point: int, from_point: int, support: tuple[int, ...],
                  g: int, face: bool):
    """The shape of the groups over a support, the one reading of its kind:
    None when they all vanish, else a hashable value that, with the pieces'
    smash plan and the piece content, decides the factor (_bracket_factor).
    The census calls it on each support it walks (_census), with g the
    support's vertex mask and face whether it is a face of K; to_point and
    from_point mask the vertices with a point codomain and with a
    contractible domain.  The kind is read off g: point codomains when
    g & ~to_point is 0, else contractible domains when g & ~from_point is
    0, else mixed.

    Over point codomains the shape is "point" on a face and None off one,
    where the words need a letter outside every face.  Over contractible
    domains it is None on a face, whose mapping space is out of a suspended
    simplex; off one, K_S is read off K's facet bitmasks (_full_sub), and
    the shape is the sphere dimensions of its certificate, through
    wedge_of_spheres_type's memo, or K_S itself when it has none.  A mixed
    support's shape is _Mixed(name, top), face or not, as its atom's
    connectivity needs only top = dim K_S + 1, the most support vertices in
    one facet (max_trace)."""
    if not g & ~to_point:
        return "point" if face else None
    if not g & ~from_point:
        # over a face, or a certified contractible realization, this is a point
        if face or (dims := wedge_of_spheres_type(sub := _full_sub(_index(K), g))) == ():
            return None
        return sub if dims is None else dims
    return _Mixed("ŝ-coprod[K_{" + ",".join(map(str, support)) + "}; weights [", max_trace(K, support))


def _bracket_factor(smash, shape, q: tuple[int, ...], suspended: dict) -> SpaceExpr:
    """The looped weighted smash coproduct of a group of piece content q
    over a support of this shape (_bracket_rule's), reduced where a lemma
    applies, in normal form from the pieces' smash plan.  Mixed endpoint
    data (one piece per vertex, so the nonzero entries l of q are the vertex
    content) stays symbolic: the loop of an atom of connectivity
    sum(l) - top = sum(q) - top, made past its checks.  Otherwise it is Loop Susp of the
    smash of q_p copies of each piece's surviving loop space, which
    suspended memoizes by q, through a mapping space out of Susp|K_S| when
    the domains are contractible: assembled from the sphere dimensions
    read (_map_from_dims), or symbolic over an uncertified K_S."""
    if (kind := type(shape)) is _Mixed:
        name, top = shape
        return _loop_node(_atom(name + ", ".join([str(n) for n in q if n]) + "]]", max(0, sum(q) - top)), 1)
    if (susp := suspended.get(q)) is None:
        susp = suspended[q] = _susp(smash(q))
    if kind is tuple:
        susp = _map_from_dims(None, shape, susp)
    elif kind is SimplicialComplex:
        susp = _map_from_dims(shape, None, susp)
    return _loop(susp, 1)


def class_diagram(
    K: SimplicialComplex, pairs: PairAssignment, group: BracketGroup
) -> DiagramDescription:
    """The defining diagram of a group's bracket factor: the smash coproduct
    over the full subcomplex on its support, weighted by the vertex content,
    which needs one vertex per piece (as in every mixed group)."""
    _check_arity(K.m, pairs.m, "pairs")
    if any(len(piece) > 1 for piece in group.pieces):
        raise ValueError(f"{_provenance_text(group, {})}: the content of a piece of "
                         "several vertices is summed, so no one weighted diagram stands for it")
    sub = full_subcomplex(K, group.support)
    restricted = PairAssignment.of([pairs.pairs[j - 1] for j in group.support])
    return smash_coproduct(sub, restricted, group.counts)


def _least_face_degree(degrees: Sequence[int], w: int) -> int:
    """The least degree of a weight-w word of face letters over a support
    of three or more vertices with these degrees: each vertex once, plus the
    2w - |S| more vertex slots that w letters of two vertices need, at most
    w - 1 more on one vertex, filled from the cheapest vertex up."""
    total, extra = sum(degrees), max(0, 2 * w - len(degrees))
    for e in sorted(degrees):
        total += (k := min(extra, w - 1)) * e
        extra -= k
    return total


def _census(facets: Sequence[int], grading: Sequence[int | None], degrees: Sequence[int],
            degree_bound: int | None, rule=None, most=INFINITE) -> dict[tuple[int, ...], list]:
    """The supports by type (s_p vertices in piece p, grading[j - 1] the piece
    of vertex j or None), each type's in lexicographic order, with their
    shapes: with rule None, over point codomains, the faces of the facet
    bitmasks, bare, each of shape "point", () under the zero type; else
    (support, shape) for each support whose shape rule(support, mask, is a
    face) is not None (_bracket_rule).  Walked up from the empty support by
    a vertex with a piece above its largest, least first, each tuple
    extending its parent's, with the and of its vertices' facet-index
    bitsets, so a support is a face when that and is not 0.  With rule None
    a face is extended only inside the and of its closed neighbourhoods.
    The walk stops past most vertices and past degree_bound: a support of
    type s carries a counted class only when sum_p s_p * degrees[p] <=
    degree_bound, as q_p >= s_p."""
    through = [0] * (len(grading) + 1)  # vertex -> the indices of its facets, as a bitset
    closed = [0 if rule is None else -1] * (len(grading) + 1)  # vertex -> its closed neighbourhood
    for i, F in enumerate(facets):
        for v in _vertices(F):
            through[v] |= 1 << i
            closed[v] |= F
    masks = [0] * len(degrees)
    for j, p in enumerate(grading, start=1):
        if p is not None:
            masks[p] |= 1 << j
    cost = [0] + [0 if p is None else degrees[p] for p in grading]
    bound = INFINITE if degree_bound is None else degree_bound
    census: dict[tuple[int, ...], list] = {}
    stack = [((), 0, -1, sum(masks), 0)]  # (support, its mask, and of facet bitsets, candidates, degree)
    while stack:
        face, g, common, near, degree = stack.pop()
        if rule is None or (shape := rule(face, g, common != 0)) is not None:
            census.setdefault(tuple([(g & P).bit_count() for P in masks]), []).append(
                face if rule is None else (face, shape))
        above = 0  # the candidates above v
        while near and len(face) < most:  # those above face's largest vertex, pushed greatest first
            v = near.bit_length() - 1
            near ^= (low := 1 << v)
            if ((shared := common & through[v]) or rule) and (d := degree + cost[v]) <= bound:
                stack.append((face + (v,), g | low, shared, above & closed[v], d))
            above |= low
    return census


def _coproduct_decomposition(
    K: SimplicialComplex,
    normal: Sequence[tuple[SpaceExpr, SpaceExpr]],
    weight_bound: int,
    theorem: str,
    degree_bound: int | None = None,
) -> Decomposition:
    # normal: the normalized (domain, codomain) of each vertex; the bounds
    # are checked before any census step
    _check_bounds(weight_bound, degree_bound)
    grading, spaces, sizes, degrees, smash, to_point, from_point = _vertex_pieces(normal)
    # the census lists each support with its shape, the rule's.  Over point
    # codomains it runs no rule and lists the faces: their words use only
    # letters inside a face, so off the full simplex, where every support is
    # one, the states are cut to the faces' types, and on it no census runs
    # until the listing is read.  Otherwise the rule keeps each support by
    # its own endpoint masks, at call time, as the shapes decide both the
    # series and the weight cut; no support runs through a vertex that has
    # no piece
    rule = None if all(isinstance(a, Point) for _, a in spaces) else partial(_bracket_rule, K, to_point, from_point)
    take = partial(_census, _index(K).facets, grading, degrees, degree_bound, rule)
    census = None if rule is None and K.facets == (tuple(range(1, K.m + 1)),) else take()
    types = None if rule or census is None else census.keys()
    counts = lyndon_class_counts(sizes, weight_bound, types=types, degrees=degrees, degree_bound=degree_bound)
    listing, tallies = _groups(counts, grading, sizes, census, take, rule is not None)
    listed = [s for s, tally in tallies.items() if tally]
    # the weight bound cuts the listing when a listed group's support has
    # three or more vertices: it holds two or more face letters, so it
    # carries brackets of every weight, whose factors are points only when
    # its weight-1 factor is, under a degree cut when its least degree of
    # weight W+1 is within the bound, read once per listed support type.
    # A support of two vertices holds one letter
    truncated = any(sum(s) >= 3 and (degree_bound is None or _least_face_degree(
        [d for d, k in zip(degrees, s) for _ in range(k)], weight_bound + 1) <= degree_bound) for s in listed)
    return Decomposition._grouped(theorem, weight_bound if truncated else None, degree_bound,
                                  (tuple(_base_factors(K, normal)), smash, counts, listing, tallies))


def loop_decompose_wedge(
    K: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    weight_bound: int,
    *,
    degree_bound: int | None = None,
) -> Decomposition:
    """Loops of the coproduct of (X_i, point) pairs over K.

    One factor Loop X_i per vertex of K, plus one factor per group of Hall
    brackets whose support is a face of K: Loop Susp of the smash of l_j
    copies of Loop X_j, with the group's bracket count as multiplicity.
    A bracket over overlapping maximal faces is counted once.
    """
    _check_arity(K.m, len(spaces), "spaces")
    need = "space {} must be simply connected (connectivity {})"
    normal = [(_checked(i, x, 1, need), POINT) for i, x in enumerate(spaces, start=1)]
    return _coproduct_decomposition(K, normal, weight_bound, "wedge-coproduct", degree_bound)


_CODOMAIN = "codomain {} must be simply connected or a point"


def _normal_pairs(K: SimplicialComplex, pairs: PairAssignment) -> list[tuple[SpaceExpr, SpaceExpr]]:
    # each vertex's checked (domain, codomain) in normal form, the one
    # normalization of a call, the domain checked before the codomain
    _check_arity(K.m, pairs.m, "pairs")
    domain = "domain {} must be simply connected or contractible"
    return [
        (_checked(i, x, 1, domain), _checked(i, a, 1, _CODOMAIN))
        for i, (x, a) in enumerate(pairs.pairs, start=1)
    ]


def loop_decompose(
    K: SimplicialComplex, pairs: PairAssignment, weight_bound: int
) -> Decomposition:
    """The general decomposition of the looped polyhedral coproduct.

    Factors: Loop X_i per vertex, and per group of Hall brackets on the face
    alphabet of {1..m} (weight <= weight_bound) the looped weighted smash
    coproduct over the full subcomplex on the group's support.  When every
    domain over the support is contractible the factor reduces to a looped
    mapping space out of Susp of the realization; when every codomain over
    the support is a point it reduces to a loop-suspension factor if the
    support is a face and vanishes otherwise; a vertex whose domain and
    codomain are both points makes every factor through it a point, mixed
    data included; other mixed factors stay symbolic atoms, whose diagrams
    class_diagram builds on demand.
    """
    return _coproduct_decomposition(K, _normal_pairs(K, pairs), weight_bound, "general-coproduct")


def loop_decompose_contractible(
    K: SimplicialComplex, pairs: PairAssignment, weight_bound: int
) -> Decomposition:
    """The decomposition when every domain is contractible.

    One factor per group of Hall brackets whose support is a missing face of
    K: the looped mapping space out of Susp of the realization of the full
    subcomplex on the support, into Susp of the smash of l_j copies of
    Loop A_j.  (Over a face the mapping space is out of a suspended simplex
    and normalizes to a point, so this is the general decomposition.)
    Mapping spaces over certified subcomplexes reduce to iterated loops; the
    rest stay symbolic.
    """
    # every domain is tested for contractibility, once, before any codomain
    _check_arity(K.m, pairs.m, "pairs")
    for i in range(1, K.m + 1):
        if not pairs.domain_contractible(i):
            raise ValueError(f"vertex {i}: domain {render(pairs.domain(i))} is not contractible")
    normal = [(POINT, _checked(i, a, 1, _CODOMAIN)) for i, (_, a) in enumerate(pairs.pairs, start=1)]
    return _coproduct_decomposition(K, normal, weight_bound, "contractible-domains")


# ---------------------------------------------------------------------------
# suspension splittings of the dual polyhedral products, for comparison
# ---------------------------------------------------------------------------


def bbcg_wedge_splitting(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr]
) -> list[tuple[Face, SpaceExpr]]:
    """Summands Susp(X^smash sigma) of the suspended polyhedral product, per face."""
    _check_arity(K.m, len(spaces), "spaces")
    smash = _plan(Smash, [normalize(x) for x in spaces])
    return [(f, _susp(smash([int(i in f) for i in range(1, K.m + 1)]))) for f in K.faces() if f]


def bbcg_cone_splitting(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr]
) -> list[tuple[Face, SpaceExpr]]:
    """Summands Susp(|K_I| smash X^smash I) over the missing subsets I.

    A certified |K_I| expands into spheres (the wedge distributes through
    the smash), an empty K_I's S^{-1} leaving X^smash I bare; uncertified,
    it stays an atom.
    """
    _check_arity(K.m, len(spaces), "spaces")
    smash = _plan(Smash, [normalize(x) for x in spaces])
    out = []
    for I in missing_subsets(K):
        xs = smash([int(i in I) for i in range(1, K.m + 1)])
        with_xs = lambda piece: _susp(_plan(Smash, [piece, xs])((1, 1)))
        if (dims := wedge_of_spheres_type(full_subcomplex(K, I))) is None:
            summands = [with_xs(_atom("|K_{" + ",".join(map(str, I)) + "}|", -1))]
        else:
            summands = [xs if d < 0 else with_xs(_sphere(d)) for d in dims]
        out.append((I, _plan(Wedge, summands)([1] * len(summands))))
    return out


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def join_vertex_reduce(
    K: SimplicialComplex, pairs: PairAssignment
) -> tuple[SimplicialComplex, PairAssignment]:
    """Strip a joined apex vertex whose domain is contractible.

    The last vertex m must lie in every facet (so K = K' join {m}); the
    coproduct over K agrees with the one over the stripped complex, so
    decompositions may be computed there.
    """
    m = K.m
    _check_arity(m, pairs.m, "pairs")
    if m < 2:
        raise ValueError("need at least two vertices to strip one")
    if not K.facets or not all(m in f for f in K.facets):
        raise ValueError(f"vertex {m} is not an apex of every facet")
    if not pairs.domain_contractible(m):
        raise ValueError(
            f"vertex {m}: domain {render(pairs.domain(m))} must be contractible"
        )
    return full_subcomplex(K, range(1, m)), PairAssignment.of(pairs.pairs[:-1])


@dataclass
class PullbackSquare:
    """The four coproduct corners of a gluing K = K1 cup_L K2, with the maps."""

    corners: dict[str, SimplicialComplex]
    diagrams: dict[str, DiagramDescription]
    maps: tuple[tuple[str, str, str], ...]

    def render(self) -> str:
        lines = ["homotopy pullback square of coproducts"]
        for name in ("K", "K1", "K2", "L"):
            lines.append(f"  corner {name}: {self.corners[name]}")
        for src, dst, desc in self.maps:
            lines.append(f"  {src} → {dst}: {desc}")
        for name in ("K", "K1", "K2", "L"):
            lines.append(self.diagrams[name].render())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "corners": {name: complex_to_json(K) for name, K in self.corners.items()},
            "maps": [
                {"from": src, "to": dst, "description": desc}
                for src, dst, desc in self.maps
            ],
            "diagrams": {name: d.to_json() for name, d in self.diagrams.items()},
        }


def pullback_square(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    L: SimplicialComplex | None,
    pairs: PairAssignment,
) -> PullbackSquare:
    """The coproduct of a gluing as a homotopy pullback over the overlap.

    Ranges follow the gluing convention of union_along: K1 on {1..n}, L on
    the top |L| vertices of K1, K2 starting there.  All four corners are
    considered on the full vertex set; with L empty the corner complex has
    only the empty face and its coproduct is the wedge of all codomains.
    """
    o = L.m if L is not None else 0
    offset = K1.m - o
    m = K1.m + K2.m - o
    _check_arity(m, pairs.m, "pairs", "glued complex")
    K = union_along(K1, K2, L)
    k1bar = build(m, K1.facets)
    k2bar = build(m, [tuple(v + offset for v in f) for f in K2.facets])
    lbar = build(m, [tuple(v + offset for v in f) for f in L.facets]) if L is not None else build(m, [])
    corners = {"K": K, "K1": k1bar, "K2": k2bar, "L": lbar}
    diagrams = {name: coproduct_diagram(c, pairs) for name, c in corners.items()}
    maps = (
        ("K", "K1", "induced by the simplicial inclusion of K1 into K"),
        ("K", "K2", "induced by the simplicial inclusion of K2 into K"),
        ("K1", "L", "induced by the simplicial inclusion of L into K1"),
        ("K2", "L", "induced by the simplicial inclusion of L into K2"),
    )
    return PullbackSquare(corners, diagrams, maps)
