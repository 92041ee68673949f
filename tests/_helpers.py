"""Seeded random generators shared by the property suites."""

import random
from fractions import Fraction

from polyco.decomp import Decomposition, Factor, _base_factors, _bracket_factor, _provenance_text
from polyco.liealg import generators_for, hall_basis, plain_alphabet, stats
from polyco.scomplex import (
    SimplicialComplex,
    Subcomplex,
    build,
    full_subcomplex,
    maximal_faces_ge2,
)
from polyco.series import PoincareSeries, Unsupported, _series
from polyco.spacexpr import (
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


def enumerated_general(K, pairs, weight_bound) -> Decomposition:
    return _enumerated_face_alphabet(
        K, pairs, weight_bound, "general-coproduct",
        lambda support, l: _bracket_factor(K, pairs, support, l),
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
