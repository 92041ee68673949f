"""Seeded random generators shared by the property suites."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import factorial, gcd, prod
from operator import add, and_, mul
from struct import Struct
from typing import Sequence

from polyco.decomp import (
    BracketGroup,
    Decomposition,
    Factor,
    _Mixed,
    _base_factors,
    _normal_pairs,
    _provenance_text,
)
from polyco.liealg import (
    Generator,
    _mobius_divisors,
    hall_basis,
    lyndon_class_counts,
    plain_alphabet,
    stats,
)
from polyco.scomplex import (
    SimplicialComplex,
    build,
    complex_to_json,
    full_subcomplex,
    homology,
    missing_subsets,
    wedge_of_spheres_type,
)
from polyco.series import (
    PoincareSeries,
    Unsupported,
    _loop_sphere_series,
    _series,
    tensor_algebra_series,
)
from polyco.spacexpr import (
    _RANK,
    _Compound,
    _loop_node,
    _plan,
    _susp,
    INFINITE,
    POINT,
    Atom,
    Loop,
    MapFromSusp,
    PairAssignment,
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

ATOM_POOL = (
    Atom("X", 1),
    Atom("Y", 2),
    Atom("Z", 1, series=((1,), (1, 0, -1))),
    Atom("CP", 1, loop=Sphere(1)),
    Atom("PX", 0, contractible=True),
)


def random_complex(rng: random.Random, max_m: int = 5, allow_empty: bool = True) -> SimplicialComplex:
    m = rng.randint(1, max_m)
    lo = 0 if allow_empty else 1
    faces = [
        rng.sample(range(1, m + 1), rng.randint(1, m))
        for _ in range(rng.randint(lo, m + 2))
    ]
    return build(m, faces)


def random_expr(rng: random.Random, depth: int = 3) -> SpaceExpr:
    if depth <= 0:
        kind = rng.randrange(3)
        if kind == 0:
            return POINT
        if kind == 1:
            return Sphere(rng.randint(0, 4))
        return rng.choice(ATOM_POOL)
    kind = rng.randrange(8)
    if kind <= 1:
        return random_expr(rng, 0)
    if kind <= 4:
        cls = (Wedge, Product, Smash)[kind - 2]
        n = rng.randint(0, 3)
        return cls(tuple(random_expr(rng, depth - 1) for _ in range(n)))
    if kind == 5:
        return Susp(random_expr(rng, depth - 1))
    if kind == 6:
        return Loop(random_expr(rng, depth - 1), rng.randint(1, 2))
    return MapFromSusp(random_complex(rng, 3), random_expr(rng, depth - 1))


def with_repeats(rng: random.Random, e: SpaceExpr) -> SpaceExpr:
    """e with compound children duplicated, next to each other or apart, and
    with random powers, all the way down."""
    if isinstance(e, (Wedge, Product, Smash)):
        kids = [with_repeats(rng, c) for c in e.children]
        if kids:
            kids += [rng.choice(kids) for _ in range(rng.randint(0, 3))]
            rng.shuffle(kids)
        return type(e)(tuple(kids), tuple(rng.choice((1, 1, 1, 2, 3)) for _ in kids))
    if isinstance(e, Susp):
        return Susp(with_repeats(rng, e.child))
    if isinstance(e, Loop):
        return Loop(with_repeats(rng, e.child), e.count)
    if isinstance(e, MapFromSusp):
        return MapFromSusp(e.complex, with_repeats(rng, e.child))
    return e


def random_series(
    rng: random.Random,
    N: int,
    unit: bool = False,
    integral: bool = False,
    density: float | None = None,
) -> PoincareSeries:
    """Fraction coefficients, or ints when integral; with a density, each
    coefficient is drawn with that probability and is 0 otherwise."""
    coeffs = []
    for _ in range(N + 1):
        if density is not None and rng.random() >= density:
            coeffs.append(0)
        elif integral:
            coeffs.append(rng.randint(-9, 9))
        else:
            coeffs.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if unit:
        coeffs[0] = 1 if integral else Fraction(1)
    return PoincareSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# reference arithmetic: the dense Fraction kernels the sparse int ones replace
# ---------------------------------------------------------------------------


def dense_mul(p: PoincareSeries, q: PoincareSeries) -> PoincareSeries:
    assert p.N == q.N
    n = p.N
    a, b = p.coeffs, q.coeffs
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, n + 1 - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return PoincareSeries(tuple(out))


def dense_invert(p: PoincareSeries) -> PoincareSeries:
    assert p.coeffs[0] == 1
    n = p.N
    out = [Fraction(1)] + [Fraction(0)] * n
    for d in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, d + 1):
            if p.coeffs[j] != 0:
                s += p.coeffs[j] * out[d - j]
        out[d] = -s
    return PoincareSeries(tuple(out))


def dense_monomial(degree: int, N: int) -> PoincareSeries:
    cs = [Fraction(0)] * (N + 1)
    if degree <= N:
        cs[degree] = Fraction(1)
    return PoincareSeries(tuple(cs))


def reference_em_product_series(degrees, N: int) -> PoincareSeries:
    """Multiply (1 + t^d) for odd d and invert (1 - t^d) for even d."""
    one = dense_monomial(0, N)
    out = one
    for d in degrees:
        if d % 2 == 1:
            out = dense_mul(out, one + dense_monomial(d, N))
        else:
            out = dense_mul(out, dense_invert(one - dense_monomial(d, N)))
    return out


def reference_series_product(dec: Decomposition, N: int):
    """Factor by factor, multiplicity by multiplicity, with no memo.  A
    factor whose reference connectivity is at least N reads 1 through N, as
    the series_product contract says, even one with no series rule."""
    out = dense_monomial(0, N)
    for f in dec.factors:
        if _reference_safe_conn(normalize(f.expr)) >= N:
            continue
        p = _series(normalize(f.expr), N)
        if isinstance(p, Unsupported):
            return Unsupported(
                f"factor {render(f.expr)} [{_provenance_text(f.provenance, {})}]: {p.reason}"
            )
        for _ in range(f.multiplicity):
            out = dense_mul(out, p)
    return out


def repeated_product(dec: Decomposition, N: int) -> PoincareSeries:
    """Each distinct factor's series multiplied in once per unit of its total
    multiplicity, with the int kernel: what series_product's sum of
    log-derivatives replaces."""
    out = PoincareSeries.one(N)
    for e, k in dec.factor_multiset().items():
        p = _series(normalize(e), N)
        for _ in range(k):
            out = out * p
    return out


def reference_log_derivative(p: PoincareSeries) -> PoincareSeries:
    """t P'(t) / P(t) by the dense Fraction kernels."""
    t_dp = PoincareSeries(tuple(Fraction(n * c) for n, c in enumerate(p.coeffs)))
    return dense_mul(t_dp, dense_invert(p))


# ---------------------------------------------------------------------------
# reference expressions: normalize, sort_key, render, conn and the compound
# series rules on the expanded children, where a child of power k is k
# copies; the power-reading ones must agree with them
# ---------------------------------------------------------------------------


def expanded(e) -> list:
    """The children of a wedge, product or smash, each repeated by its power."""
    return [c for c, p in zip(e.children, e.powers) for _ in range(p)]


def reference_sort_key(e: SpaceExpr) -> tuple:
    r = _RANK[type(e)]
    if isinstance(e, Point):
        return (r,)
    if isinstance(e, Sphere):
        return (r, e.n)
    if isinstance(e, Atom):
        loop = () if e.loop is None else reference_sort_key(e.loop)
        return (r, e.name, e.connectivity, e.contractible, e.series or (), loop)
    if isinstance(e, Susp):
        return (r, reference_sort_key(e.child))
    if isinstance(e, Loop):
        return (r, e.count, reference_sort_key(e.child))
    if isinstance(e, MapFromSusp):
        return (r, e.complex.m, e.complex.facets, reference_sort_key(e.child))
    kids = expanded(e)
    return (r, len(kids), tuple(reference_sort_key(c) for c in kids))


def _reference_flatten(cls, children) -> list:
    out = []
    for c in children:
        if isinstance(c, cls):
            out.extend(expanded(c))
        else:
            out.append(c)
    return out


def reference_normalize(e: SpaceExpr) -> SpaceExpr:
    """Sorts the expanded copies; the constructor then merges equal runs."""
    if isinstance(e, Point):
        return POINT
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Atom):
        return POINT if e.contractible else e
    if isinstance(e, (Wedge, Product)):
        cls = type(e)
        kids = _reference_flatten(cls, (reference_normalize(c) for c in expanded(e)))
        kids = [c for c in kids if not isinstance(c, Point)]
        if not kids:
            return POINT
        if len(kids) == 1:
            return kids[0]
        return cls(tuple(sorted(kids, key=reference_sort_key)))
    if isinstance(e, Smash):
        kids = _reference_flatten(Smash, (reference_normalize(c) for c in expanded(e)))
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
        return Smash(tuple(sorted(rest, key=reference_sort_key)))
    if isinstance(e, Susp):
        c = reference_normalize(e.child)
        if isinstance(c, Point):
            return POINT
        if isinstance(c, Sphere):
            return Sphere(c.n + 1)
        return Susp(c)
    if isinstance(e, Loop):
        c = reference_normalize(e.child)
        k = e.count
        while isinstance(c, Loop):
            k += c.count
            c = c.child
        if isinstance(c, Point):
            return POINT
        if isinstance(c, Product):
            return reference_normalize(Product(tuple(Loop(x, k) for x in expanded(c))))
        if isinstance(c, Atom) and c.loop is not None:
            once = reference_normalize(c.loop)
            return once if k == 1 else reference_normalize(Loop(once, k - 1))
        return Loop(c, k)
    c = reference_normalize(e.child)
    dims = wedge_of_spheres_type(e.complex)
    if dims is None:
        return MapFromSusp(e.complex, c)
    factors = [c if d + 1 == 0 else Loop(c, d + 1) for d in dims]
    return reference_normalize(Product(tuple(factors)))


def reference_normal_fold(e: SpaceExpr) -> SpaceExpr:
    """normalize as a plain fold with no memo: each child folded first, then
    its constructor's normal-form helper.  The loop rules an atom's loop
    replacement or a product's children reach, and the loops a certified
    mapping space assembles, are folded here too, so no step reads
    normalize's memo."""
    if isinstance(e, Point):
        return POINT
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Atom):
        return POINT if e.contractible else e
    if isinstance(e, _Compound):
        return _plan(type(e), [reference_normal_fold(c) for c in e.children])(e.powers)
    if isinstance(e, Susp):
        return _susp(reference_normal_fold(e.child))
    if isinstance(e, Loop):
        return _reference_loop(reference_normal_fold(e.child), e.count)
    if isinstance(e, MapFromSusp):
        c = reference_normal_fold(e.child)
        if isinstance(c, Point):
            return POINT
        if (dims := wedge_of_spheres_type(e.complex)) is None:
            return MapFromSusp(e.complex, c)
        loops = [c if d + 1 == 0 else _reference_loop(c, d + 1) for d in dims]
        return loops[0] if len(loops) == 1 else _plan(Product, loops)([1] * len(loops))
    raise TypeError(f"not a space expression: {e!r}")


def _reference_loop(c: SpaceExpr, k: int) -> SpaceExpr:
    # the loop rules on a folded child c, with no memo
    while isinstance(c, Loop):
        k += c.count
        c = c.child
    if isinstance(c, Point):
        return POINT
    if isinstance(c, Product):
        return _plan(Product, [_reference_loop(x, k) for x in c.children])(c.powers)
    if isinstance(c, Atom) and c.loop is not None:
        once = reference_normal_fold(c.loop)
        return once if k == 1 else _reference_loop(once, k - 1)
    return _loop_node(c, k)


def _reference_grouped(children, sep: str, power: str) -> str:
    parts = []
    i = 0
    while i < len(children):
        j = i
        while j < len(children) and children[j] == children[i]:
            j += 1
        text = _reference_wrap(children[i])
        if j - i > 1:
            text = f"{text}^{power}{j - i}"
        parts.append(text)
        i = j
    return sep.join(parts)


def _reference_wrap(e: SpaceExpr) -> str:
    if isinstance(e, (Wedge, Product, Smash)):
        return f"({reference_render(e)})"
    return reference_render(e)


def reference_render(e: SpaceExpr) -> str:
    """Finds the runs of equal children again in the expanded sequence."""
    if isinstance(e, Wedge):
        return _reference_grouped(expanded(e), " ∨ ", "∨")
    if isinstance(e, Product):
        return _reference_grouped(expanded(e), " × ", "×")
    if isinstance(e, Smash):
        return _reference_grouped(expanded(e), " ∧ ", "∧")
    if isinstance(e, Susp):
        return "Σ" + _reference_wrap(e.child)
    if isinstance(e, Loop):
        prefix = "Ω" if e.count == 1 else f"Ω^{e.count}"
        return prefix + _reference_wrap(e.child)
    if isinstance(e, MapFromSusp):
        facets = ",".join("{" + ",".join(map(str, f)) + "}" for f in e.complex.facets)
        return f"Map_*(Σ|K[{facets or '∅'}; m={e.complex.m}]|, {reference_render(e.child)})"
    return render(e)


# the text and JSON forms as two separate recursive walks with no memo, as
# render and expr_to_json were before they became projections of one walk


def _recursive_wrap(e: SpaceExpr) -> str:
    if isinstance(e, _Compound):
        return f"({recursive_render(e)})"
    return recursive_render(e)


def recursive_render(e: SpaceExpr) -> str:
    if isinstance(e, Point):
        return "*"
    if isinstance(e, Sphere):
        return f"S^{e.n}"
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, _Compound):
        return f" {e.symbol} ".join(
            _recursive_wrap(c) + (f"^{e.symbol}{p}" if p > 1 else "") for c, p in zip(e.children, e.powers)
        )
    if isinstance(e, Susp):
        return "Σ" + _recursive_wrap(e.child)
    if isinstance(e, Loop):
        prefix = "Ω" if e.count == 1 else f"Ω^{e.count}"
        return prefix + _recursive_wrap(e.child)
    if isinstance(e, MapFromSusp):
        facets = ",".join("{" + ",".join(map(str, f)) + "}" for f in e.complex.facets)
        return f"Map_*(Σ|K[{facets or '∅'}; m={e.complex.m}]|, {recursive_render(e.child)})"
    raise TypeError(f"not a space expression: {e!r}")


def recursive_expr_to_json(e: SpaceExpr) -> dict:
    if isinstance(e, Point):
        return {"kind": "point"}
    if isinstance(e, Sphere):
        return {"kind": "sphere", "n": e.n}
    if isinstance(e, Atom):
        out: dict = {"kind": "atom", "name": e.name, "conn": e.connectivity}
        if e.loop is not None:
            out["loop"] = recursive_expr_to_json(e.loop)
        if e.series is not None:
            out["series"] = {"num": list(e.series[0]), "den": list(e.series[1])}
        if e.contractible:
            out["contractible"] = True
        return out
    if isinstance(e, _Compound):
        return {
            "kind": e.kind,
            "children": [recursive_expr_to_json(c) for c in e.children],
            "powers": list(e.powers),
        }
    if isinstance(e, Susp):
        return {"kind": "susp", "child": recursive_expr_to_json(e.child)}
    if isinstance(e, Loop):
        return {"kind": "loop", "count": e.count, "child": recursive_expr_to_json(e.child)}
    if isinstance(e, MapFromSusp):
        return {
            "kind": "map_from_susp",
            "complex": complex_to_json(e.complex),
            "child": recursive_expr_to_json(e.child),
        }
    raise TypeError(f"not a space expression: {e!r}")


def reference_provenance_text(p: object) -> str:
    """An entry's provenance label, read off its fields from scratch."""
    if isinstance(p, BracketGroup):
        labels = [f"{{{','.join(str(j) for j in piece)}}}:{n}" for piece, n in zip(p.pieces, p.counts)]
        return f"group w={p.weight} {' '.join(labels)}"
    return f"vertex {p}" if isinstance(p, int) else str(p)


def reference_provenance_json(p: object) -> dict:
    """An entry's provenance JSON, read off its fields from scratch."""
    if isinstance(p, BracketGroup):
        return {"kind": "group", "weight": p.weight, "support": list(p.support),
                "pieces": [list(piece) for piece in p.pieces], "counts": list(p.counts)}
    return {"kind": "vertex", "vertex": p} if isinstance(p, int) else {"kind": "base"}


def recursive_listing_text(dec: Decomposition) -> str:
    """Decomposition.render through recursive_render, factor by factor."""
    total = sum(f.multiplicity for f in dec.factors)
    head = f"{dec.theorem}: {len(dec.factors)} entries, {total} factors with multiplicity"
    cuts = [f"{name} ≤ {n}" for name, n in (("bracket weight", dec.truncation),
                                             ("degree", dec.degree_bound)) if n is not None]
    if cuts:
        head += f" ({', '.join(cuts)})"
    lines = [head]
    for f in dec.factors:
        mult = f" ^{f.multiplicity}" if f.multiplicity > 1 else ""
        lines.append(f"  {recursive_render(f.expr)}{mult}   [{reference_provenance_text(f.provenance)}]")
    return "\n".join(lines)


def recursive_listing_json(dec: Decomposition) -> dict:
    """Decomposition.to_json through recursive_expr_to_json, factor by factor."""
    return {
        "theorem": dec.theorem,
        "truncation": dec.truncation,
        "degree_bound": dec.degree_bound,
        "factors": [
            {
                "expr": recursive_expr_to_json(f.expr),
                "text": recursive_render(f.expr),
                "multiplicity": f.multiplicity,
                "provenance": reference_provenance_json(f.provenance),
            }
            for f in dec.factors
        ],
    }


def recursive_diagram_text(d) -> str:
    """DiagramDescription.render through recursive_render."""
    lines = [f"{d.kind} diagram over {d.complex}"]
    if d.weights is not None:
        lines[0] += f", weights {list(d.weights)}"
    for f in sorted(d.objects, key=lambda f: (len(f), f)):
        label = "{" + ",".join(map(str, f)) + "}" if f else "∅"
        lines.append(f"  D({label}) = {recursive_render(d.objects[f])}")
    for (sig, tau), coords in sorted(d.arrows.items()):
        s = "{" + ",".join(map(str, sig)) + "}"
        t = "{" + ",".join(map(str, tau)) + "}" if tau else "∅"
        lines.append(f"  D({s}) → D({t}): f on {list(coords)}")
    return "\n".join(lines)


def recursive_diagram_json(d) -> dict:
    """DiagramDescription.to_json through recursive_expr_to_json."""
    return {
        "kind": d.kind,
        "complex": complex_to_json(d.complex),
        "weights": list(d.weights) if d.weights is not None else None,
        "objects": [
            {"face": list(f), "value": recursive_expr_to_json(d.objects[f])}
            for f in sorted(d.objects, key=lambda f: (len(f), f))
        ],
        "arrows": [
            {"from": list(sig), "to": list(tau), "f_coordinates": list(coords)}
            for (sig, tau), coords in sorted(d.arrows.items())
        ],
    }


class _ReferenceUnderflow(ValueError):
    """reference_conn looped an estimate that is already negative."""


def reference_conn(e: SpaceExpr) -> float:
    """The connectivity estimate of the whole expression, one loop and one
    copy at a time, raising _ReferenceUnderflow where a loop would take it
    below -1 anywhere in the tree."""
    if isinstance(e, (Wedge, Product)):
        kids = expanded(e)
        return min((reference_conn(c) for c in kids), default=INFINITE)
    if isinstance(e, Smash):
        kids = expanded(e)
        if not kids:
            return -1
        return sum(reference_conn(c) for c in kids) + len(kids) - 1
    if isinstance(e, Susp):
        return reference_conn(e.child) + 1
    if isinstance(e, Loop):
        c = reference_conn(e.child)
        for _ in range(e.count):
            if c < 0:
                raise _ReferenceUnderflow("connectivity underflow")
            c -= 1
        return c
    if isinstance(e, MapFromSusp):
        c = reference_conn(e.child)
        if c is INFINITE:
            return INFINITE
        return max(-1, c - (e.complex.dim() + 1))
    return conn(e)


def _reference_safe_conn(e: SpaceExpr) -> float:
    try:
        return reference_conn(e)
    except _ReferenceUnderflow:
        return -1


def reference_series(e: SpaceExpr, N: int):
    """The series of a reference-normalized expression, one copy at a time."""
    one = PoincareSeries.one(N)
    if isinstance(e, Wedge):
        out = one
        for c in expanded(e):
            p = reference_series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"wedge summand {render(c)}: {p.reason}")
            out = out + p.reduced()
        return out
    if isinstance(e, Product):
        out = one
        for c in expanded(e):
            p = reference_series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"product factor {render(c)}: {p.reason}")
            out = out * p
        return out
    if isinstance(e, Smash):
        out = one
        for c in expanded(e):
            p = reference_series(c, N)
            if isinstance(p, Unsupported):
                return Unsupported(f"smash factor {render(c)}: {p.reason}")
            out = out * p.reduced()
        return one + out
    if isinstance(e, Susp):
        p = reference_series(e.child, N)
        if isinstance(p, Unsupported):
            return Unsupported(f"suspension of {render(e.child)}: {p.reason}")
        return one + PoincareSeries.monomial(1, N) * p.reduced()
    if not isinstance(e, Loop):
        return _series(e, N)
    c, k = e.child, e.count
    if isinstance(c, Sphere):
        return _loop_sphere_series(c.n, k, N)
    if k >= 2:
        return Unsupported(f"iterated loops are only evaluated on spheres, not {render(c)}")
    if isinstance(c, Susp):
        base = c.child
        if _reference_safe_conn(base) < 0:
            return Unsupported(
                f"Bott-Samelson needs a connected argument, "
                f"{render(base)} has connectivity {_reference_safe_conn(base)}"
            )
        p = reference_series(base, N)
        if isinstance(p, Unsupported):
            return Unsupported(f"loop of suspension of {render(base)}: {p.reason}")
        return tensor_algebra_series(p.reduced())
    if isinstance(c, Wedge):
        parts = []
        for child in expanded(c):
            if _reference_safe_conn(child) < 1:
                return Unsupported(
                    f"free-product rule needs simply connected summands, "
                    f"{render(child)} has connectivity {_reference_safe_conn(child)}"
                )
            p = reference_series(reference_normalize(Loop(child)), N)
            if isinstance(p, Unsupported):
                return Unsupported(f"loop of wedge summand {render(child)}: {p.reason}")
            parts.append(p)
        return free_product_series(parts)
    return Unsupported(f"no loop rule for {render(c)}")


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


# ---------------------------------------------------------------------------
# Hall-basis references: the face alphabet listed letter by letter, letter
# counts, the multigraded Witt formula, and bases pruned by letter degree
# ---------------------------------------------------------------------------


def generators_for(I) -> tuple[Generator, ...]:
    """The alphabet S_I = {a_{J,i} : J subset of I, |J| >= 2, 1 <= i <= |J|-1}.

    Ordered by (J lexicographic, i); restricting to a smaller I gives a
    prefix-compatible subsequence of the same global order.
    """
    iv = sorted(set(I))
    gens = [Generator(J, i) for k in range(2, len(iv) + 1) for J in combinations(iv, k) for i in range(1, k)]
    return tuple(sorted(gens, key=lambda g: (g.subset, g.index)))


def multidegree(b, alphabet) -> tuple[int, ...]:
    """How often each letter of the alphabet occurs in the bracket b."""
    counts = Counter(b.leaves())
    return tuple(counts[g] for g in alphabet)


def _witt_mobius(n: int) -> int:
    # by trial division, apart from the class counter's Moebius table
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt_dimension(multidegree: Sequence[int]) -> int:
    """Number of Hall-basis brackets with the given generator multidegree.

    Multigraded Witt formula: (1/n) sum over d | gcd of mu(d) * multinomial,
    where n is the total weight.
    """
    counts = list(multidegree)
    if any(type(c) is not int for c in counts):  # no bool, no float
        raise ValueError(f"multidegree entries must be integers, got {counts!r}")
    if any(c < 0 for c in counts):
        raise ValueError("multidegree entries must be nonnegative")
    n = sum(counts)
    if n < 1:
        raise ValueError("total weight must be >= 1")
    g = gcd(*counts)
    total = sum(
        _witt_mobius(d) * factorial(n // d) // prod(factorial(c // d) for c in counts)
        for d in range(1, g + 1)
        if g % d == 0
    )
    assert total % n == 0
    return total // n


def pruned_hall_basis(alphabet, weight_bound, letter_degrees=None, degree_bound=None):
    """hall_basis without the brackets whose letter degrees sum above
    degree_bound: since every degree is >= 1, enumerating to weight
    min(weight_bound, degree_bound // min degree) loses none of the others."""
    if degree_bound is None:
        return hall_basis(alphabet, weight_bound)
    degree = dict(zip(alphabet, letter_degrees))
    top = min(weight_bound, degree_bound // min(letter_degrees, default=1))
    if top < 1:
        return []
    return [b for b in hall_basis(alphabet, top) if sum(map(degree.get, b.leaves())) <= degree_bound]


# ---------------------------------------------------------------------------
# bracket supports, which no decomposition reads since brackets are counted
# per group rather than listed
# ---------------------------------------------------------------------------


def support(b) -> tuple[int, ...]:
    """Vertices occurring in the leaves of b (face or plain generators)."""
    verts: set[int] = set()
    for g in b.leaves():
        if g.subset is None:
            verts.add(g.index)
        else:
            verts.update(g.subset)
    return tuple(sorted(verts))


def restricted_support(b, I) -> tuple[int, ...]:
    """I_b: the elements of I that appear in the subsets of b."""
    return tuple(sorted(set(I) & set(support(b))))


# ---------------------------------------------------------------------------
# reference class counts: the DP over content tuples, with the Moebius terms
# pulled per state through gcd(w, *l), that the packed-int kernel replaces
# ---------------------------------------------------------------------------


def reference_class_counts(letters, weight_bound, vertex_degrees=None, degree_bound=None):
    merged = Counter()
    for vector, copies in letters:
        merged[tuple(vector)] += copies
    if not merged:
        return {}
    degs = tuple(vertex_degrees) if degree_bound is not None else None
    step = [
        (v, copies, sum(map(mul, v, degs)) if degs else 0) for v, copies in merged.items()
    ]
    layer = {(0,) * len(step[0][0]): (1, 0)}
    words = [layer]
    for _ in range(weight_bound):
        nxt = {}
        for l, (count, deg) in layer.items():
            for v, copies, dv in step:
                if degs is not None and deg + dv > degree_bound:
                    continue
                lv = tuple(map(add, l, v))
                hit = nxt.get(lv)
                nxt[lv] = (count * copies + (hit[0] if hit else 0), deg + dv)
        if not nxt:
            break
        words.append(nxt)
        layer = nxt

    out = {}
    for w in range(1, len(words)):
        for l, (count, _) in words[w].items():
            g = gcd(w, *l)
            total = count
            for d, mu in _mobius_divisors(g):
                hit = words[w // d].get(tuple(lj // d for lj in l))
                if hit:
                    total += mu * hit[0]
            assert total % w == 0
            if total:
                out[(w, l)] = total // w
    return out


# ---------------------------------------------------------------------------
# the letter-list counter: one packed DP state per (piece content, support
# mask), every support counted; and the per-type regrouping of the tuple
# reference that the type counter must equal
# ---------------------------------------------------------------------------


def all_face_letters(m):
    """The face letters a_{J,i} of {1..m}, as (e_J, |J| - 1)."""
    return [
        (tuple(int(j in J) for j in range(1, m + 1)), k - 1)
        for k in range(2, m + 1)
        for J in combinations(range(1, m + 1), k)
    ]


def letter_class_counts(
    letters: Sequence[tuple[Sequence[int], int]],
    weight_bound: int,
    *,
    pieces: Sequence[int] | None = None,
    vertex_degrees: Sequence[int] | None = None,
    degree_bound: int | None = None,
) -> dict[tuple[int, tuple[int, ...], tuple[int, ...]], int]:
    """Number of Lyndon words per (length w, support, piece content q), w <= weight_bound,
    over a list of letters: the counter the decompositions ran on before it
    counted per support type, kept as a reference for the type counter.

    letters lists (vertex vector, number of copies): a face letter a_J is
    (e_J, |J| - 1), a plain letter x_i is (e_i, 1).  pieces numbers each
    vertex's piece (default: one per vertex, where q is the vertex content
    l); q_p sums a word's vectors over piece p, and its support is the set
    of vertices its letters touch.  Words are counted by a DP over these
    gradings, supports combining by union, and the Lyndon words by the
    multigraded Witt formula for graded letters (Kang & Kim, J. Algebra 183,
    1996): u^d has grading (d * q_u, S_u), so w * L(w, q, S) = sum over
    d | gcd(w, q) of mu(d) * words[w/d][q/d, S].  With vertex_degrees (equal
    within a piece) and degree_bound, gradings with sum_j l_j * deg_j above
    the bound are omitted, exactly the brackets hall_basis prunes.

    A grading is one int, q in fixed-width lanes (piece 0 the most
    significant) above an m-bit support mask (vertex 1 its top bit): a DP
    step is (k + q_u) | S_u, and the Moebius terms are pushed from each root
    to (d * q, S).  Int order is lexicographic order on (q, mask), so the
    result is in listing order: by w, then q descending, then support.
    """
    if type(weight_bound) is not int or weight_bound < 1:  # no bool, no float
        raise ValueError(f"weight_bound must be an integer >= 1, got {weight_bound!r}")
    if degree_bound is not None and type(degree_bound) is not int:
        raise ValueError(f"degree_bound must be an integer, got {degree_bound!r}")
    letters = [(tuple(vector), copies) for vector, copies in letters]
    if not letters:
        return {}
    m = len(letters[0][0])
    grading = tuple(range(m)) if pieces is None else tuple(pieces)
    if len(grading) != m or not all(type(p) is int and p >= 0 for p in grading):
        raise ValueError(f"pieces must give each of the {m} vertices a number >= 0, got {pieces!r}")
    size = max(grading) + 1
    degs = [0] * size  # per piece; all 0 without a bound
    if degree_bound is not None:
        for p, d in zip(grading, vertex_degrees or ()):
            degs[p] = d
        if vertex_degrees is None or [degs[p] for p in grading] != list(vertex_degrees) or not all(
            type(d) is int and d >= 1 for d in vertex_degrees
        ):
            raise ValueError(f"degree_bound needs vertex_degrees, one integer >= 1 per vertex, "
                             f"equal within a piece; got {vertex_degrees!r}")

    bits = [1 << (m - j) for j in range(1, m + 1)]
    graded: dict[tuple[tuple[int, ...], int], int] = {}  # (q, support mask) -> copies
    for v, copies in letters:
        if not all(type(x) is int for x in (*v, copies)):
            raise ValueError(f"letter {v} x{copies!r}: entries and copies must be integers")
        if copies < 1 or any(x < 0 for x in v) or not any(v) or len(v) != m:
            raise ValueError(f"letter {v} x{copies}: need a nonzero length-{m} vector, copies >= 1")
        q = [0] * size
        for p, x in zip(grading, v):
            q[p] += x
        key = (tuple(q), sum(compress(bits, v)))
        graded[key] = graded.get(key, 0) + copies
    # a lane holds word length times the largest entry; each letter adds degree >= 1
    top = max(1, min(weight_bound, degree_bound or weight_bound)) * max(max(q) for q, _ in graded)
    fits = [c for b, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if top < 256**b]
    if not fits:
        raise ValueError(f"piece contents up to {top} do not fit a 64-bit lane")
    lanes = Struct(f">{size}{fits[0]}")

    # each state carries its degree, so pruning costs one add
    step = [
        (int.from_bytes(lanes.pack(*q), "big") << m, mask, copies, sum(map(mul, q, degs)))
        for (q, mask), copies in graded.items()
    ]
    layer = {0: (1, 0)}
    words: list[dict[int, tuple[int, int]]] = [layer]
    for _ in range(weight_bound):
        nxt: dict[int, tuple[int, int]] = {}
        for k, (count, deg) in layer.items():
            for a, mask, copies, dv in step:
                if degree_bound is not None and deg + dv > degree_bound:
                    continue
                hit = nxt.get(key := (k + a) | mask)
                nxt[key] = (count * copies + (hit[0] if hit else 0), deg + dv)
        if not nxt:
            break
        words.append(nxt)
        layer = nxt

    low = (1 << m) - 1
    supports: dict[int, tuple[int, ...]] = {}
    out: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
    for w in range(1, len(words)):
        totals = {k: count for k, (count, _) in words[w].items()}
        for d, mu in _mobius_divisors(w):
            for root, (count, _) in words[w // d].items():
                if (key := (root >> m) * d << m | (root & low)) in totals:
                    totals[key] += mu * count
        for k in sorted(totals, reverse=True):
            total = totals[k]
            assert total % w == 0
            if total:
                if (mask := k & low) not in supports:
                    supports[mask] = tuple(compress(range(1, m + 1), map(and_, bits, repeat(mask))))
                q = lanes.unpack((k >> m).to_bytes(lanes.size, "big"))
                out[(w, supports[mask], q)] = total // w
    return out


def graded_class_counts(grading, weight_bound, *, vertex_degrees=None, **options):
    """lyndon_class_counts on a per-vertex grading (grading[j - 1] the piece
    of vertex j, pieces numbered 0, 1, ... with every number used): the
    counter gets each piece's size, and each piece's degree from
    vertex_degrees, which must be equal within a piece."""
    sizes = [0] * (max(grading, default=-1) + 1)
    for p in grading:
        sizes[p] += 1
    assert all(sizes), grading
    degrees = None
    if vertex_degrees is not None:
        per_piece = dict(zip(grading, vertex_degrees))
        assert [per_piece[p] for p in grading] == list(vertex_degrees), (grading, vertex_degrees)
        degrees = [per_piece[p] for p in range(len(sizes))]
    return lyndon_class_counts(sizes, weight_bound, degrees=degrees, **options)


def per_type_counts(class_counts, grading, supports=None):
    """{(w, l): n} summed per (w, support, piece content) and keyed by the
    support's type, in the type counter's order; every support of a type
    (or of the given supports) must have the same count, and with supports
    given every one of a listed type must occur."""
    size = max(grading) + 1

    def type_of(support):
        s = [0] * size
        for j in support:
            s[grading[j - 1]] += 1
        return tuple(s)

    out, seen = {}, Counter()
    for (w, support, q), n in regrouped(class_counts, grading).items():
        if supports is None or support in supports:
            key = (w, type_of(support), q)
            assert out.setdefault(key, n) == n, (key, support)
            seen[key] += 1
    if supports is not None:
        per_type = Counter(map(type_of, supports))
        assert all(seen[key] == per_type[key[1]] for key in out)
    order = sorted(out, key=lambda k: (k[0], tuple(-x for x in k[2]), tuple(-x for x in k[1])))
    return {key: out[key] for key in order}


# ---------------------------------------------------------------------------
# reference engines: one factor per enumerated Hall bracket (hall_basis +
# stats), the listing the per-class counting engines replace
# ---------------------------------------------------------------------------


def _letter_degree(spaces_for, g) -> int:
    # lower bound for the bottom reduced degree contributed by one letter
    if g.subset is None:
        x = spaces_for[g.index]
        return max(1, int(conn(x)) + 1 if conn(x) != float("inf") else 1)
    total = 0
    for j in g.subset:
        c = conn(spaces_for[j])
        total += max(1, int(c) if c != float("inf") else 1)
    return total


def _bracket_order(f):
    return (f.provenance.weight, f.provenance.serialize())


def _loop_smash_of_loops(exprs, l, looped=True):
    children = []
    for j, lj in enumerate(l, start=1):
        children.extend([Loop(exprs[j]) if looped else exprs[j]] * lj)
    return Smash(tuple(children))


def enumerated_hilton_milnor(spaces, weight_bound, degree_bound=None) -> Decomposition:
    m = len(spaces)
    alphabet = plain_alphabet(m)
    by_vertex = {i + 1: spaces[i] for i in range(m)}
    degrees = [_letter_degree(by_vertex, g) for g in alphabet]
    factors = []
    for b in pruned_hall_basis(alphabet, weight_bound + 1, degrees, degree_bound):
        l = multidegree(b, alphabet)
        expr = normalize(Loop(Susp(_loop_smash_of_loops(by_vertex, l, looped=False))))
        if not isinstance(expr, Point):
            factors.append(Factor(expr, 1, b))
    return Decomposition(*weight_cut(factors, weight_bound, "hilton-milnor"))


def enumerated_wedge(K, spaces, weight_bound, degree_bound=None) -> Decomposition:
    by_vertex = {i + 1: spaces[i] for i in range(K.m)}
    factors = _base_factors(K, _normal_pairs(K, PairAssignment.constant_maps(spaces)))
    seen = {}
    maximal = [f for f in K.facets if len(f) >= 2]
    for sigma in maximal:
        alphabet = generators_for(sigma)
        degrees = None
        if degree_bound is not None:
            degrees = [_letter_degree(by_vertex, g) for g in alphabet]
        for b in pruned_hall_basis(alphabet, weight_bound + 1, degrees, degree_bound):
            seen.setdefault(b, None)
    brackets = []
    for b in seen:
        expr = normalize(Loop(Susp(_loop_smash_of_loops(by_vertex, stats(b, K.m).l))))
        if not isinstance(expr, Point):
            brackets.append(Factor(expr, 1, b))
    return Decomposition(*weight_cut(brackets, weight_bound, "wedge-coproduct", factors))


def weight_cut(heavier, weight_bound, theorem, base=()):
    """An enumerating reference's (factors, theorem, truncation) from its
    bracket factors through weight_bound + 1, heavier: base, then those of
    weight at most weight_bound in order, with the weight cut read off the
    reference itself: weight_bound when heavier lists more."""
    listed = sorted((f for f in heavier if f.provenance.weight <= weight_bound), key=_bracket_order)
    return tuple(base) + tuple(listed), theorem, weight_bound if len(heavier) > len(listed) else None


def _enumerated_face_alphabet(K, pairs, weight_bound, theorem, rule) -> Decomposition:
    alphabet = generators_for(range(1, K.m + 1))
    brackets = []
    memo = {}
    for b in hall_basis(alphabet, weight_bound + 1):
        l = stats(b, K.m).l
        if l not in memo:
            memo[l] = rule(tuple(j for j, lj in enumerate(l, start=1) if lj), l)
        expr = memo[l]
        if expr is not None and not isinstance(expr, Point):
            brackets.append(Factor(expr, 1, b))
    return Decomposition(*weight_cut(brackets, weight_bound, theorem, _base_factors(K, _normal_pairs(K, pairs))))


def reference_smash(normal, q, cls=Smash) -> SpaceExpr:
    """The smash (or the wedge or product cls) of q[i] copies of each normal
    piece, zero-fold ones omitted, normalized as one tree by
    reference_normalize: the reference for spacexpr._plan, which plans the
    pieces once."""
    return reference_normalize(cls(tuple(x for x, k in zip(normal, q) if k), tuple(k for k in q if k)))


def smash_alphabet(rng: random.Random) -> list[SpaceExpr]:
    """Two to six pieces in normal form, some repeated: points, S^0,
    spheres, atoms, smash- and product-valued pieces, loops and loop-replaced
    atoms (CP^∞ loops to S^1, another atom to a smash)."""
    smashy = Atom("W", 1, loop=Smash((Atom("X", 1), Sphere(1))))
    pool = [
        POINT, Sphere(0), Sphere(1), Sphere(2), Sphere(3), *ATOM_POOL[:3],
        Smash((Sphere(2), Atom("X", 1))), Smash((Atom("X", 1), Atom("X", 1), Atom("Y", 2))),
        Product((Atom("X", 1), Sphere(3))), Loop(Sphere(3)), Loop(Susp(Atom("Y", 2))),
        Loop(ATOM_POOL[3]), Loop(smashy), Loop(Product((smashy, Sphere(4)))),
    ]
    normal = [normalize(rng.choice(pool) if rng.random() < 0.8 else random_expr(rng, 2))
              for _ in range(rng.randint(2, 6))]
    return normal + [rng.choice(normal) for _ in range(rng.randint(0, 2))]


def _smash_powers(spaces, counts) -> Smash:
    # counts[i] copies of spaces[i], as one child of that power, zero-fold ones omitted
    return Smash(tuple(x for x, k in zip(spaces, counts) if k), tuple(k for k in counts if k))


def reference_bracket_factor(K, pairs, support, l):
    """The bracket rule run once per vertex content l, with the lemma tests
    and the full subcomplex redone on every call: the reference for the
    rule that resolves each support once.  A vertex of the support whose
    loop spaces are both points (surviving_point) makes every object of
    the defining diagram a point, and so the factor, in every mode."""
    if any(surviving_point(*pairs.pairs[j - 1]) for j in support):
        return POINT
    if all(pairs.domain_contractible(j) for j in support):
        sub = full_subcomplex(K, support)
        inner = Susp(_smash_powers([Loop(a) for _, a in pairs.pairs], l))
        return normalize(Loop(MapFromSusp(sub, inner)))
    if all(pairs.codomain_is_point(j) for j in support):
        if K.has_face(support):
            return normalize(Loop(Susp(_smash_powers([Loop(x) for x, _ in pairs.pairs], l))))
        return POINT
    # mixed endpoint data over the support: no lemma applies, stay symbolic
    vert_text = ",".join(map(str, support))
    weights = [lj for lj in l if lj]
    dim = full_subcomplex(K, support).dim()
    return Loop(Atom(f"ŝ-coprod[K_{{{vert_text}}}; weights {weights}]", max(0, sum(l) - dim - 1)))


def reference_group_factor(K, pairs, group: BracketGroup):
    """The factor of a polyhedral group built as a raw tree and normalized
    from the root: Loop Susp of the smash of the raw looped spaces, or its
    MapFromSusp variant over contractible domains, with counts[i] copies of
    the pair of the first vertex of pieces[i]."""
    l = [0] * K.m
    for piece, n in zip(group.pieces, group.counts):
        l[piece[0] - 1] = n
    return reference_bracket_factor(K, pairs, group.support, l)


def reference_summand_factor(spaces, group: BracketGroup):
    """The factor of a hilton_milnor group as a normalized raw tree: Loop Susp
    of the smash of counts[i] copies of the summand pieces[i] starts with."""
    summands = [spaces[piece[0] - 1] for piece in group.pieces]
    return normalize(Loop(Susp(_smash_powers(summands, group.counts))))


def reference_grading(pairs) -> list[int]:
    """Each vertex's piece: one per distinct normalized (domain, codomain)
    pair, in order of first vertex, or one per vertex when some vertex has a
    non-point domain and some vertex a non-point codomain."""
    normal = [(normalize(x), normalize(a)) for x, a in pairs.pairs]
    if not all(isinstance(x, Point) for x, _ in normal) and not all(
        isinstance(a, Point) for _, a in normal
    ):
        return list(range(len(normal)))
    first = {}
    return [first.setdefault(xa, len(first)) for xa in normal]


def summand_grading(spaces) -> list[int]:
    """Each summand's piece for hilton_milnor: one per distinct normal form."""
    first = {}
    return [first.setdefault(normalize(x), len(first)) for x in spaces]


def group_of(w, l, grading):
    """The (weight, support, piece content) key of the class (w, l)."""
    q = [0] * (max(grading) + 1)
    for p, lj in zip(grading, l):
        q[p] += lj
    return (w, tuple(j for j, lj in enumerate(l, start=1) if lj), tuple(q))


def group_key(group: BracketGroup, grading):
    """The (weight, support, piece content) key of a listed group."""
    q = [0] * (max(grading) + 1)
    for piece, n in zip(group.pieces, group.counts):
        q[grading[piece[0] - 1]] = n
    return (group.weight, group.support, tuple(q))


def regrouped(class_counts, grading):
    """{(w, l): n} summed into {(w, support, piece content): n}."""
    out = Counter()
    for (w, l), n in class_counts.items():
        out[group_of(w, l, grading)] += n
    return dict(out)


def indicator_order(key, m):
    """Weight, then piece content descending, then the support as a vertex
    indicator descending: the letter-list counter's order."""
    w, support, q = key
    return (w, tuple(-x for x in q), tuple(-(j in support) for j in range(1, m + 1)))


def listing_order(key, grading):
    """The engine's listing order: weight, then piece content descending,
    then support type (its vertices per piece) descending, then support."""
    w, support, q = key
    s = [0] * len(q)
    for j in support:
        s[grading[j - 1]] += 1
    return (w, tuple(-x for x in q), tuple(-x for x in s), support)


def per_group_listing(
    letters, weight_bound, factor_of, base, theorem, grading, vertex_degrees=None, degree_bound=None,
):
    """The group listing from the per-class tuple counts, with
    factor_of(support, l) run afresh for every class and every class of a
    group giving the same factor: the reference for the engine that counts
    groups and builds a factor once per key.  The weight cut is read off
    the reference itself: it lists more at weight_bound + 1 when a class of
    that weight has a factor that is not a point.  Returns the listing and,
    per listed group, its number of classes."""
    classes_of = reference_class_counts(letters, weight_bound + 1, vertex_degrees, degree_bound)
    groups = {}
    for (w, l), n in classes_of.items():
        if w > weight_bound:
            continue
        key = group_of(w, l, grading)
        expr = factor_of(key[1], l)
        if key in groups:
            assert groups[key][0] == expr, (key, l)
            groups[key][1] += n
            groups[key][2] += 1
        else:
            groups[key] = [expr, n, 1]
    brackets = []
    classes = {}
    for key in sorted(groups, key=lambda k: listing_order(k, grading)):
        expr, n, classes[key] = groups[key]
        if not isinstance(expr, Point):
            w, support, q = key
            on = {}
            for j in support:
                on.setdefault(grading[j - 1], []).append(j)
            pieces = tuple(tuple(on[p]) for p in sorted(on))
            counts = tuple(q[p] for p in sorted(on))
            brackets.append(Factor(expr, n, BracketGroup(w, support, pieces, counts)))
        else:
            del classes[key]
    more = any(not isinstance(factor_of(group_of(w, l, grading)[1], l), Point)
               for w, l in classes_of if w > weight_bound)
    return Decomposition(tuple(base + brackets), theorem, weight_bound if more else None, degree_bound), classes


def surviving_point(x, a) -> bool:
    """Whether the pair (x, a) has both loop spaces points, so that its
    vertex puts a point into every object of a bracket factor's diagram:
    the surviving space of a normalized pair (the loops of x, or of a when
    those are a point) is then a point."""
    return isinstance(normalize(Loop(x)), Point) and isinstance(normalize(Loop(a)), Point)


def reference_live_grading(pairs) -> list:
    """reference_grading, but a vertex whose pair has both loop spaces
    points (surviving_point) has no piece (None), in every mode, and the
    pieces left are renumbered in order."""
    live = {}
    return [None if surviving_point(*xa) else live.setdefault(p, len(live))
            for p, xa in zip(reference_grading(pairs), pairs.pairs)]


def reference_census(K, pairs, degrees, degree_bound=None, most=None):
    """The engine's census from every subset of the vertices, by type,
    through K.has_face, over the pieces of reference_live_grading.  A
    subset S of the vertices with a piece is kept when its codomains are
    all points and S is a face, when its domains are all points and S is
    not a face, and otherwise always (a mixed support); within the degree
    cut (the sum over S of degrees[piece], at most degree_bound) and of at
    most most vertices.  hilton_milnor's census is that of its summands as
    constant maps on the simplex with most = W.  Returns {type: kept
    subsets, lexicographic}."""
    normal = [(normalize(x), normalize(a)) for x, a in pairs.pairs]
    grading = reference_live_grading(pairs)
    pieces = len({p for p in grading if p is not None})
    vertices = [j for j in range(1, K.m + 1) if grading[j - 1] is not None]
    census = {}
    top = len(vertices) if most is None else min(most, len(vertices))
    for k in range(top + 1):
        for S in combinations(vertices, k):
            if degree_bound is not None and sum(degrees[grading[j - 1]] for j in S) > degree_bound:
                continue
            on = [normal[j - 1] for j in S]
            if all(isinstance(a, Point) for _, a in on):
                kept = K.has_face(S)
            elif all(isinstance(x, Point) for x, _ in on):
                kept = not K.has_face(S)
            else:
                kept = True
            if kept:
                s = [0] * pieces
                for j in S:
                    s[grading[j - 1]] += 1
                census.setdefault(tuple(s), []).append(S)
    return {s: sorted(supports) for s, supports in census.items()}


def reference_rule(K, pairs, support):
    """The shape of the groups over a support, read from has_face and the
    face-enumerating references: over point codomains "point" on a face
    and None off one; over contractible domains None on a face or over a
    K_S of contractible certificate, else the certificate's sphere
    dimensions, or K_S when it has none; otherwise, mixed, the atom name of
    reference_bracket_factor up to its weights, with dim K_S + 1."""
    on = [(normalize(x), normalize(a)) for x, a in (pairs.pairs[j - 1] for j in support)]
    face = K.has_face(support)
    if all(isinstance(a, Point) for _, a in on):
        return "point" if face else None
    sub = reference_full_subcomplex(K, support)
    if all(isinstance(x, Point) for x, _ in on):
        if face or (dims := reference_wedge_of_spheres_type(sub)) == ():
            return None
        return sub if dims is None else dims
    return _Mixed(f"ŝ-coprod[K_{{{','.join(map(str, support))}}}; weights [", sub.dim() + 1)


def reference_shaped_census(K, pairs, degrees, degree_bound=None):
    """reference_census filtered through reference_rule: {type: [(support,
    shape)]} for each kept subset whose shape is not None, a type that
    keeps none left out."""
    out = {}
    for s, supports in reference_census(K, pairs, degrees, degree_bound).items():
        if kept := [(S, shape) for S in supports if (shape := reference_rule(K, pairs, S)) is not None]:
            out[s] = kept
    return out


def enumerated_general(K, pairs, weight_bound) -> Decomposition:
    return _enumerated_face_alphabet(
        K, pairs, weight_bound, "general-coproduct",
        lambda support, l: reference_bracket_factor(K, pairs, support, l),
    )


def enumerated_contractible(K, pairs, weight_bound) -> Decomposition:
    codomains = {i: pairs.codomain(i) for i in range(1, K.m + 1)}
    faces = frozenset(K.faces())

    def rule(support, l):
        if support in faces:
            return None
        sub = full_subcomplex(K, support)
        return normalize(Loop(MapFromSusp(sub, Susp(_loop_smash_of_loops(codomains, l)))))

    return _enumerated_face_alphabet(K, pairs, weight_bound, "contractible-domains", rule)


# ---------------------------------------------------------------------------
# reference closed forms and splittings: raw trees normalized afterwards, as
# decomp built them before they came from the normal-form helpers
# ---------------------------------------------------------------------------


def reference_evaluate_special(K: SimplicialComplex, pairs: PairAssignment):
    if K.m != pairs.m:
        raise ValueError(f"complex has {K.m} vertices but {pairs.m} pairs given")
    if K.facets == (tuple(range(1, K.m + 1)),):
        return normalize(Wedge(tuple(pairs.domain(i) for i in range(1, K.m + 1))))
    if K.dim() <= 0 and all(pairs.codomain_is_point(i) for i in range(1, K.m + 1)):
        return normalize(Product(tuple(pairs.domain(v) for v in K.vertices())))
    if (
        K.m == 2
        and K.facets == ((1,), (2,))
        and pairs.domain_contractible(1)
        and pairs.domain_contractible(2)
    ):
        return normalize(Loop(Susp(Smash((Loop(pairs.codomain(1)), Loop(pairs.codomain(2)))))))
    return None


def reference_bbcg_wedge_splitting(K: SimplicialComplex, spaces):
    if K.m != len(spaces):
        raise ValueError(f"complex has {K.m} vertices but {len(spaces)} spaces given")
    return [(f, normalize(Susp(Smash(tuple(spaces[i - 1] for i in f))))) for f in K.faces() if f]


def _reference_realization(sub: SimplicialComplex, label) -> list:
    # |K_I| as sphere summands when certified, one symbolic atom otherwise;
    # None marks the formal S^-1 of the empty complex
    dims = wedge_of_spheres_type(sub)
    if dims is None:
        return [Atom(name="|K_{" + ",".join(map(str, label)) + "}|", connectivity=-1)]
    return [Sphere(d) if d >= 0 else None for d in dims]


def reference_bbcg_cone_splitting(K: SimplicialComplex, spaces):
    if K.m != len(spaces):
        raise ValueError(f"complex has {K.m} vertices but {len(spaces)} spaces given")
    out = []
    for I in missing_subsets(K):
        xs = [spaces[i - 1] for i in I]
        summands = [normalize(Smash(tuple(xs))) if piece is None else normalize(Susp(Smash((piece, *xs))))
                    for piece in _reference_realization(full_subcomplex(K, I), I)]
        out.append((I, normalize(Wedge(tuple(summands)))))
    return out


# ---------------------------------------------------------------------------
# reference complexes and homology: the face-enumerating build/full_subcomplex
# and the dense Fraction elimination that the facet-based and sparse ones
# replace
# ---------------------------------------------------------------------------


def reference_build(m, faces) -> SimplicialComplex:
    """Keep each generating face that no other one properly contains."""
    if type(m) is not int or m < 1:
        raise ValueError(f"vertex count must be a positive integer, got {m!r}")
    cleaned = set()
    for face in faces:
        face = list(face)
        for v in face:
            if type(v) is not int:
                raise ValueError(f"vertex must be an integer, got {v!r}")
        f = tuple(sorted(set(face)))
        if not f:
            raise ValueError("generating faces must be nonempty")
        if f[0] < 1 or f[-1] > m:
            bad = [v for v in f if v < 1 or v > m]
            raise ValueError(f"vertex {bad[0]} out of range 1..{m}")
        cleaned.add(f)
    maximal = [f for f in cleaned if not any(set(f) < set(g) for g in cleaned)]
    return SimplicialComplex(m, tuple(sorted(maximal)))


def reference_full_subcomplex(K: SimplicialComplex, I) -> SimplicialComplex:
    """Every face of K inside I, relabeled, fed to reference_build."""
    I = list(I)
    for v in I:
        if type(v) is not int:
            raise ValueError(f"vertex must be an integer, got {v!r}")
    iv = tuple(sorted(set(I)))
    for v in iv:
        if v < 1 or v > K.m:
            raise ValueError(f"vertex {v} out of range 1..{K.m}")
    if not iv:
        raise ValueError("full subcomplex needs a nonempty vertex set")
    relabel = {v: j + 1 for j, v in enumerate(iv)}
    faces = [tuple(relabel[v] for v in f) for f in frozenset(K.faces()) if f and set(f) <= set(iv)]
    return reference_build(len(iv), faces)


def two_points() -> SimplicialComplex:
    """The boundary of the 1-simplex: two disjoint vertices."""
    return build(2, [[1], [2]])


def minimal_non_faces(K: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal non-faces (every proper subset is a face)."""
    return tuple(
        f for f in missing_subsets(K) if all(map(K.has_face, combinations(f, len(f) - 1)))
    )


def dense_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination over Fraction."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, nrows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[prow], mat[pivot] = mat[pivot], mat[prow]
        pv = mat[prow][col]
        for r in range(prow + 1, nrows):
            if mat[r][col] != 0:
                fac = mat[r][col] / pv
                row_r, row_p = mat[r], mat[prow]
                for c in range(col, ncols):
                    row_r[c] -= fac * row_p[c]
        prow += 1
        rank += 1
        if prow == nrows:
            break
    return rank


def dense_boundary_matrix(lower, upper):
    """Rows = lower faces, columns = upper faces, entry (-1)^pos for the face
    that drops position pos."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        for pos in range(len(f)):
            rows[index[f[:pos] + f[pos + 1 :]]][j] = (-1) ** pos
    return rows


def reference_boundary_ranks(K: SimplicialComplex) -> list[int]:
    """Dense ranks of the boundary maps C_d -> C_{d-1}, d = 1..dim."""
    by_dim = [sorted(f for f in K.faces() if len(f) == d + 1) for d in range(K.dim() + 1)]
    return [dense_rank(dense_boundary_matrix(by_dim[d - 1], by_dim[d])) for d in range(1, K.dim() + 1)]


def reference_homology_ranks(K: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers from the dense boundary ranks."""
    top = K.dim()
    if top < 0:
        return ()
    f = K.f_vector()
    ranks = [1] + reference_boundary_ranks(K) + [0]
    return tuple(f[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


# ---------------------------------------------------------------------------
# reference certificates: the tuple-based shifted and flag tests and the
# induced-cycle chordality search that the bitmask ones replace (every vertex
# pair compared up front; every subset of {1..m} scanned for minimal
# non-faces and for induced cycles)
# ---------------------------------------------------------------------------


def _reference_replaceable(faces, u, v) -> bool:
    for f in faces:
        if v in f and u not in f:
            if tuple(sorted(set(f) - {v} | {u})) not in faces:
                return False
    return True


def _reference_shifted_under_identity(faces) -> bool:
    for f in faces:
        for v in f:
            for u in range(1, v):
                if u not in f and tuple(sorted(set(f) - {v} | {u})) not in faces:
                    return False
    return True


def reference_is_shifted(K: SimplicialComplex) -> bool:
    faces = frozenset(K.faces())
    verts = range(1, K.m + 1)
    repl = {(u, v): _reference_replaceable(faces, u, v) for u in verts for v in verts if u != v}
    for u in verts:
        for v in verts:
            if u < v and not (repl[(u, v)] or repl[(v, u)]):
                return False
    score = {u: sum(repl[(u, v)] for v in verts if v != u) for u in verts}
    order = sorted(verts, key=lambda u: (-score[u], u))
    relabel = {old: new + 1 for new, old in enumerate(order)}
    return _reference_shifted_under_identity(
        frozenset(tuple(sorted(relabel[v] for v in f)) for f in faces)
    )


def reference_is_flag(K: SimplicialComplex) -> bool:
    faces = frozenset(K.faces())
    for k in range(1, K.m + 1):
        for c in combinations(range(1, K.m + 1), k):
            minimal = c not in faces and all(c[:i] + c[i + 1 :] in faces for i in range(k))
            if minimal and k != 2:
                return False
    return True


def brute_chordal(K):
    # oracle: no induced cycle on four or more vertices (every vertex of the
    # induced subgraph has degree exactly 2 and the subgraph is connected)
    edges = {f for f in K.faces() if len(f) == 2}
    verts = list(range(1, K.m + 1))

    def induced_cycle(S):
        deg = {v: 0 for v in S}
        for a, b in combinations(sorted(S), 2):
            if (a, b) in edges:
                deg[a] += 1
                deg[b] += 1
        if any(d != 2 for d in deg.values()):
            return False
        seen = {S[0]}
        frontier = [S[0]]
        while frontier:
            v = frontier.pop()
            for u in S:
                if u not in seen and tuple(sorted((u, v))) in edges:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(S)

    for k in range(4, K.m + 1):
        for S in combinations(verts, k):
            if induced_cycle(list(S)):
                return False
    return True


def reference_wedge_of_spheres_type(K: SimplicialComplex) -> tuple[int, ...] | None:
    if K.dim() < 0:
        return (-1,)
    if not (
        K.dim() == 0
        or K.is_simplex()
        or reference_is_shifted(K)
        or (reference_is_flag(K) and brute_chordal(K))
    ):
        return None
    return tuple(d for d, r in enumerate(homology(K).ranks) for _ in range(r))


def random_int_matrix(rng: random.Random, max_size: int = 8):
    """Rows of a random integer matrix with non-unit entries; every other one
    is a product of two thin matrices, so its rank falls short of full."""
    n, m = rng.randint(1, max_size), rng.randint(1, max_size)
    if rng.random() < 0.5:
        return [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(m)] for _ in range(n)]
    k = rng.randint(1, min(n, m))
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
