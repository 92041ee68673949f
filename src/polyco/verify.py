"""
Series-identity checks: each decomposition is pitted against an independent
truncated-series oracle at a chosen degree N.

The bracket weight bound is always derived from N as W = N + 1, which is the
truncation-soundness bound: any omitted bracket factor carries no homology at
or below degree N, so the truncated products are exact.  A report reads W off
N.  Internally the bracket counting also prunes by factor bottom degree
instead of counting every class of weight up to N + 1; the two cuts agree
through degree N and the pruned one stays small.

The tensor-algebra and free-product oracles are `series_of` calls on
Loop(Susp(Wedge(...))) (Bott-Samelson, over any connected base) and on
Loop(Wedge(...)) (reciprocals add).

Every check returns through `_report`, whose verdict is Equal
(coefficientwise equality through degree N), FirstDifference (the first
degree where the two sides disagree, with both coefficients), or Skipped
(some side was outside the series rules, named as "lhs: ..." or "rhs: ...";
never conflated with Equal).  The gluing check decomposes each corner of a
gluing on its own vertex set; the disjoint-union check is its L = None case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .decomp import hilton_milnor, loop_decompose_wedge, porter_fiber
from .scomplex import SimplicialComplex, build, join, union_along
from .series import PoincareSeries, Unsupported, series_of
from .spacexpr import (
    CP_INFINITY,
    POINT,
    Loop,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    normalize,
    render,
)


@dataclass(frozen=True, slots=True)
class Equal:
    def __str__(self) -> str:
        return "Equal"


@dataclass(frozen=True, slots=True)
class FirstDifference:
    degree: int
    lhs: int
    rhs: int

    def __str__(self) -> str:
        return f"FirstDifference(degree {self.degree}: {self.lhs} vs {self.rhs})"


@dataclass(frozen=True, slots=True)
class Skipped:
    reason: str

    def __str__(self) -> str:
        return f"Skipped({self.reason})"


Verdict = Union[Equal, FirstDifference, Skipped]


@dataclass(frozen=True)
class VerificationReport:
    name: str
    N: int
    lhs: PoincareSeries | Unsupported
    rhs: PoincareSeries | Unsupported
    verdict: Verdict
    notes: tuple[str, ...] = ()

    @property
    def W(self) -> int:
        return self.N + 1

    def render(self) -> str:
        lines = [f"{self.name}: {self.verdict} (N={self.N}, W={self.W})"]
        lines.append(f"  lhs = {self.lhs}")
        lines.append(f"  rhs = {self.rhs}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        def side(p):
            if isinstance(p, Unsupported):
                return {"unsupported": p.reason}
            return p.to_json()

        if isinstance(self.verdict, Equal):
            verdict = {"kind": "equal"}
        elif isinstance(self.verdict, FirstDifference):
            verdict = {
                "kind": "first_difference",
                "degree": self.verdict.degree,
                "lhs": [self.verdict.lhs, 1],
                "rhs": [self.verdict.rhs, 1],
            }
        else:
            verdict = {"kind": "skipped", "reason": self.verdict.reason}
        return {
            "name": self.name,
            "N": self.N,
            "W": self.W,
            "lhs": side(self.lhs),
            "rhs": side(self.rhs),
            "verdict": verdict,
            "notes": list(self.notes),
        }


def _verdict(lhs, rhs) -> Verdict:
    if isinstance(lhs, Unsupported):
        return Skipped(f"lhs: {lhs.reason}")
    if isinstance(rhs, Unsupported):
        return Skipped(f"rhs: {rhs.reason}")
    diff = lhs.compare(rhs)
    if diff is None:
        return Equal()
    return FirstDifference(*diff)


def _report(name: str, N: int, lhs, rhs, notes: Sequence[str] = ()) -> VerificationReport:
    return VerificationReport(name, N, lhs, rhs, _verdict(lhs, rhs), tuple(notes))


def _loops_on_wedge(spaces: Sequence[SpaceExpr], N: int):
    """The free-product oracle: series_of's rule for loops on a wedge.  No
    spaces is an error, not the point's series."""
    if not spaces:
        raise ValueError("free product needs at least one component")
    return series_of(Loop(Wedge(tuple(spaces))), N)


def _desuspend(e: SpaceExpr) -> list[SpaceExpr]:
    # the X_i with e = Susp X_1 v ... v Susp X_k: one for a positive sphere
    # or a suspension, the point for a point (* = Susp *), and for a wedge
    # each child's, once per power, since Susp(A v B) = Susp A v Susp B
    e = normalize(e)
    out = []
    for c, k in zip(e.children, e.powers) if isinstance(e, Wedge) else ((e, 1),):
        if isinstance(c, Point):  # a wedge's normal form has no point child
            out.append(POINT)
        elif isinstance(c, Sphere) and c.n >= 1:
            out += [Sphere(c.n - 1)] * k
        elif isinstance(c, Susp):
            out += [c.child] * k
        else:
            raise ValueError(f"summand {render(e)} is not a suspension or a positive sphere")
    return out


def check_hilton_milnor(summands: Sequence[SpaceExpr], N: int) -> VerificationReport:
    """Three routes to the series of loops on a wedge of suspensions.

    (a) the tensor-algebra series of Loop Susp of the wedge of the
    desuspended summands, one series_of call, (b) the free-product rule over the looped
    summands, (c) the product of the Hall-bracket factor series.  A
    summand that is a wedge of suspensions desuspends child by child.  The
    verdict is Equal only when all three agree.
    """
    desusp = [x for summand in summands for x in _desuspend(summand)]
    oracle_bs = series_of(Loop(Susp(Wedge(tuple(desusp)))), N)
    if isinstance(oracle_bs, Unsupported):
        return _report("hilton-milnor", N, oracle_bs, oracle_bs)

    oracle_fp = _loops_on_wedge(summands, N)
    if isinstance(oracle_fp, Unsupported):
        return _report("hilton-milnor", N, oracle_bs, oracle_fp)

    product = hilton_milnor(desusp, N + 1, degree_bound=N).series_product(N)
    notes = (f"{len(summands)} summands; Hall product vs tensor-algebra and free-product oracles",)
    # the oracles are cross-checked once the product matches the first
    if product == oracle_bs != oracle_fp:
        notes = notes + ("tensor-algebra and free-product oracles disagree",)
        return _report("hilton-milnor", N, oracle_bs, oracle_fp, notes)
    return _report("hilton-milnor", N, oracle_bs, product, notes)


def check_porter(spaces: Sequence[SpaceExpr], N: int) -> VerificationReport:
    """Product of loops of the summands times loops of the fiber wedge,
    against the free-product oracle for loops of the wedge."""
    lhs = PoincareSeries.one(N)
    for x in spaces:
        p = series_of(Loop(x), N)
        if isinstance(p, Unsupported):
            return _report("porter", N, p, p)
        lhs = lhs * p

    fiber = porter_fiber(spaces)
    if not isinstance(fiber, Point):
        fiber_series = hilton_milnor(_desuspend(fiber), N + 1, degree_bound=N).series_product(N)
        if isinstance(fiber_series, Unsupported):
            return _report("porter", N, fiber_series, fiber_series)
        lhs = lhs * fiber_series
    return _report(
        "porter",
        N,
        lhs,
        _loops_on_wedge(spaces, N),
        (f"fiber wedge expanded through Hall brackets at W={N + 1}",),
    )


def check_wedge_case(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr], N: int
) -> VerificationReport:
    """The wedge-coproduct decomposition at the full simplex, where loops of
    the coproduct are loops of the wedge and the free-product oracle applies."""
    if not K.has_face(range(1, K.m + 1)):
        raise ValueError("the wedge case needs the full simplex as the complex")
    dec = loop_decompose_wedge(K, spaces, N + 1, degree_bound=N)
    return _report("wedge-case", N, dec.series_product(N), _loops_on_wedge(spaces, N))


def counterexample_inputs() -> tuple[SimplicialComplex, list[SpaceExpr]]:
    """The boundary of the square with an infinite complex projective space
    at each vertex: the join of two pairs of points."""
    square = join(build(2, [[1], [2]]), build(2, [[1], [2]]))
    return square, [CP_INFINITY] * 4


def check_counterexample(N: int) -> VerificationReport:
    """Coproducts do not split over joins: the decomposition over the square
    (a finite product of circles and loops of 3-spheres) differs from loops of
    the wedge of two products, starting in degree 3."""
    square, spaces = counterexample_inputs()
    lhs = loop_decompose_wedge(square, spaces, N + 1, degree_bound=N).series_product(N)
    pp = Product((CP_INFINITY, CP_INFINITY))
    rhs = series_of(Loop(Wedge((pp, pp))), N)
    return _report(
        "join-counterexample",
        N,
        lhs,
        rhs,
        (
            "a difference is the expected outcome: the coproduct over a join "
            "is not the wedge of the factor coproducts",
        ),
    )


def _corners(N: int, *corners) -> PoincareSeries | Unsupported:
    # the product of the (name, complex, spaces) corners' series through the
    # wedge preset; the first Unsupported names its corner if it is re-indexed
    total = None
    for name, K, spaces in corners:
        p = loop_decompose_wedge(K, spaces, N + 1, degree_bound=N).series_product(N)
        if isinstance(p, Unsupported):
            return Unsupported(f"{name}: {p.reason}") if name else p
        total = p if total is None else total * p
    return total


def check_gluing(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    L: SimplicialComplex | None,
    spaces: Sequence[SpaceExpr],
    N: int,
) -> VerificationReport:
    """The pullback square of a gluing K = K1 ∪_L K2 with point codomains,
    as series: P(ΩC_K)·P(ΩC_L) = P(ΩC_K1)·P(ΩC_K2).

    Vertices follow union_along; spaces holds one per vertex of K.  Each
    corner is decomposed on its own vertex set and slice of spaces: on the
    full vertex set, brackets on a corner's absent vertices would cancel
    between the sides, and a rule that kept non-faces would pass.  L = None
    is the disjoint union, P(ΩC_L) = 1, reported as "disjoint-union"."""
    K, n, o = union_along(K1, K2, L), K1.m, L.m if L is not None else 0
    overlap = [("L", L, spaces[n - o : n])] if L is not None else []
    lhs = _corners(N, ("", K, spaces), *overlap)
    rhs = _corners(N, ("K1", K1, spaces[:n]), ("K2", K2, spaces[n - o :]))
    return _report("gluing" if L is not None else "disjoint-union", N, lhs, rhs)


def check_disjoint_union(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    N: int,
) -> VerificationReport:
    """Multiplicativity over disjoint unions: the gluing along no overlap."""
    return check_gluing(K1, K2, None, spaces, N)
