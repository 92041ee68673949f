"""Seeded random generators shared by the property suites."""

import random
from fractions import Fraction

from polyco.decomp import Decomposition, Factor, _base_factors, _provenance_text, _smash_powers
from polyco.liealg import generators_for, hall_basis, plain_alphabet, stats
from polyco.scomplex import (
    SimplicialComplex,
    Subcomplex,
    build,
    full_subcomplex,
    maximal_faces_ge2,
    wedge_of_spheres_type,
)
from polyco.series import (
    PoincareSeries,
    Unsupported,
    _loop_sphere_series,
    _series,
    free_product_series,
    tensor_algebra_series,
)
from polyco.spacexpr import (
    _RANK,
    INFINITE,
    POINT,
    Atom,
    ConnectivityUnderflowError,
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
    """Factor by factor, multiplicity by multiplicity, with no memo."""
    out = dense_monomial(0, N)
    for f in dec.factors:
        p = _series(normalize(f.expr), N)
        if isinstance(p, Unsupported):
            return Unsupported(
                f"factor {render(f.expr)} [{_provenance_text(f.provenance)}]: {p.reason}"
            )
        for _ in range(f.multiplicity):
            out = dense_mul(out, p)
    return out


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
        return (r, e.name, e.connectivity)
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


def reference_conn(e: SpaceExpr) -> float:
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
                raise ConnectivityUnderflowError("connectivity underflow")
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
    except ConnectivityUnderflowError:
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
        if _reference_safe_conn(base) < 1:
            return Unsupported(
                f"Bott-Samelson needs a simply connected argument, "
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
    degrees = None
    if degree_bound is not None:
        degrees = [_letter_degree(by_vertex, g) for g in alphabet]
    factors = []
    for b in hall_basis(alphabet, weight_bound, letter_degrees=degrees, degree_bound=degree_bound):
        md = b.multidegree()
        l = [md.get(g, 0) for g in alphabet]
        expr = normalize(Loop(Susp(_loop_smash_of_loops(by_vertex, l, looped=False))))
        if not isinstance(expr, Point):
            factors.append(Factor(expr, 1, b))
    factors.sort(key=_bracket_order)
    return Decomposition(tuple(factors), "hilton-milnor", weight_bound if m >= 2 else None)


def enumerated_wedge(K, spaces, weight_bound, degree_bound=None) -> Decomposition:
    by_vertex = {i + 1: spaces[i] for i in range(K.m)}
    factors = _base_factors(K, PairAssignment.constant_maps(spaces))
    seen = {}
    maximal = maximal_faces_ge2(K)
    for sigma in maximal:
        alphabet = generators_for(sigma)
        degrees = None
        if degree_bound is not None:
            degrees = [_letter_degree(by_vertex, g) for g in alphabet]
        for b in hall_basis(alphabet, weight_bound, letter_degrees=degrees, degree_bound=degree_bound):
            seen.setdefault(b, None)
    brackets = []
    for b in seen:
        expr = normalize(Loop(Susp(_loop_smash_of_loops(by_vertex, stats(b, K.m).l))))
        if not isinstance(expr, Point):
            brackets.append(Factor(expr, 1, b))
    brackets.sort(key=_bracket_order)
    truncated = any(len(sigma) >= 3 for sigma in maximal)
    return Decomposition(
        tuple(factors + brackets), "wedge-coproduct", weight_bound if truncated else None
    )


def _enumerated_face_alphabet(K, pairs, weight_bound, theorem, rule) -> Decomposition:
    alphabet = generators_for(range(1, K.m + 1))
    brackets = []
    memo = {}
    for b in hall_basis(alphabet, weight_bound):
        l = stats(b, K.m).l
        if l not in memo:
            memo[l] = rule(tuple(j for j, lj in enumerate(l, start=1) if lj), l)
        expr = memo[l]
        if expr is not None and not isinstance(expr, Point):
            brackets.append(Factor(expr, 1, b))
    brackets.sort(key=_bracket_order)
    return Decomposition(
        tuple(_base_factors(K, pairs) + brackets),
        theorem,
        weight_bound if len(alphabet) >= 2 else None,
    )


def reference_bracket_factor(K, pairs, support, l):
    """The bracket rule run once per vertex content l, with the lemma tests
    and the full subcomplex redone on every call: the reference for the
    rule that resolves each support once."""
    if all(pairs.domain_contractible(j) for j in support):
        sub = full_subcomplex(K, support).complex
        inner = Susp(_smash_powers(lambda j: Loop(pairs.codomain(j)), l))
        return normalize(Loop(MapFromSusp(sub, inner)))
    if all(pairs.codomain_is_point(j) for j in support):
        if K.has_face(support):
            return normalize(Loop(Susp(_smash_powers(lambda j: Loop(pairs.domain(j)), l))))
        return POINT
    # mixed endpoint data over the support: no lemma applies, stay symbolic
    vert_text = ",".join(map(str, support))
    weights = [lj for lj in l if lj]
    dim = full_subcomplex(K, support).complex.dim()
    return Loop(Atom(f"ŝ-coprod[K_{{{vert_text}}}; weights {weights}]", max(0, sum(l) - dim - 1)))


def enumerated_general(K, pairs, weight_bound) -> Decomposition:
    return _enumerated_face_alphabet(
        K, pairs, weight_bound, "general-coproduct",
        lambda support, l: reference_bracket_factor(K, pairs, support, l),
    )


def enumerated_contractible(K, pairs, weight_bound) -> Decomposition:
    codomains = {i: pairs.codomain(i) for i in range(1, K.m + 1)}
    faces = K.face_set()

    def rule(support, l):
        if support in faces:
            return None
        sub = full_subcomplex(K, support).complex
        return normalize(Loop(MapFromSusp(sub, Susp(_loop_smash_of_loops(codomains, l)))))

    return _enumerated_face_alphabet(K, pairs, weight_bound, "contractible-domains", rule)


# ---------------------------------------------------------------------------
# reference complexes and homology: the face-enumerating build/full_subcomplex
# and the dense Fraction elimination that the facet-based and sparse ones
# replace
# ---------------------------------------------------------------------------


def reference_build(m, faces) -> SimplicialComplex:
    """Keep each generating face that no other one properly contains."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"vertex count must be a positive integer, got {m!r}")
    cleaned = set()
    for face in faces:
        f = tuple(sorted(set(face)))
        if not f:
            raise ValueError("generating faces must be nonempty")
        if f[0] < 1 or f[-1] > m:
            bad = [v for v in f if v < 1 or v > m]
            raise ValueError(f"vertex {bad[0]} out of range 1..{m}")
        cleaned.add(f)
    maximal = [f for f in cleaned if not any(set(f) < set(g) for g in cleaned)]
    return SimplicialComplex(m, tuple(sorted(maximal)))


def reference_full_subcomplex(K: SimplicialComplex, I) -> Subcomplex:
    """Every face of K inside I, relabeled, fed to reference_build."""
    iv = tuple(sorted(set(I)))
    for v in iv:
        if v < 1 or v > K.m:
            raise ValueError(f"vertex {v} out of range 1..{K.m}")
    if not iv:
        raise ValueError("full subcomplex needs a nonempty vertex set")
    relabel = {v: j + 1 for j, v in enumerate(iv)}
    faces = [tuple(relabel[v] for v in f) for f in K.face_set() if f and set(f) <= set(iv)]
    return Subcomplex(reference_build(len(iv), faces), iv)


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
