"""
Series-identity checks: each decomposition is pitted against an independent
truncated-series oracle at a chosen degree N.

The bracket weight bound is always derived from N as W = N + 1, which is the
truncation-soundness bound: any omitted bracket factor carries no homology at
or below degree N, so the truncated products are exact.  Internally the
bracket counting also prunes by factor bottom degree instead of counting
every class of weight up to N + 1; the two cuts agree through degree N and
the pruned one stays small.

Verdicts: Equal (coefficientwise equality through degree N), FirstDifference
(the first degree where the two sides disagree, with both coefficients), or
Skipped (some side was outside the series rules; never conflated with Equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .decomp import (
    disjoint_union_decomp,
    hilton_milnor,
    loop_decompose_wedge,
    porter_fiber,
)
from .scomplex import SimplicialComplex, build, disjoint_union, join
from .series import (
    PoincareSeries,
    Unsupported,
    free_product_series,
    series_of,
    tensor_algebra_series,
)
from .spacexpr import (
    CP_INFINITY,
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
    lhs: Fraction
    rhs: Fraction

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
    W: int | None
    lhs: PoincareSeries | Unsupported
    rhs: PoincareSeries | Unsupported
    verdict: Verdict
    notes: tuple[str, ...] = ()

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
                "lhs": [self.verdict.lhs.numerator, self.verdict.lhs.denominator],
                "rhs": [self.verdict.rhs.numerator, self.verdict.rhs.denominator],
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


def _desuspend(e: SpaceExpr) -> SpaceExpr:
    e = normalize(e)
    if isinstance(e, Sphere) and e.n >= 1:
        return Sphere(e.n - 1)
    if isinstance(e, Susp):
        return e.child
    raise ValueError(f"summand {render(e)} is not a suspension or a positive sphere")


def check_hilton_milnor(summands: Sequence[SpaceExpr], N: int) -> VerificationReport:
    """Three routes to the series of loops on a wedge of suspensions.

    (a) the tensor-algebra series of Loop Susp of the wedge of the
    desuspended summands, (b) the free-product rule over the looped
    summands, (c) the product of the Hall-bracket factor series.  The
    verdict is Equal only when all three agree.
    """
    W = N + 1
    desusp = [_desuspend(x) for x in summands]
    parts = [series_of(x, N) for x in desusp]
    bad = [p for p in parts if isinstance(p, Unsupported)]
    if bad:
        return VerificationReport(
            "hilton-milnor", N, W, bad[0], bad[0], Skipped(bad[0].reason)
        )
    red = PoincareSeries.zero(N)
    for p in parts:
        red = red + p.reduced()
    oracle_bs = tensor_algebra_series(red)

    looped = [series_of(Loop(normalize(x)), N) for x in summands]
    for p in looped:
        if isinstance(p, Unsupported):
            return VerificationReport(
                "hilton-milnor", N, W, oracle_bs, p, Skipped(f"rhs: {p.reason}")
            )
    oracle_fp = free_product_series(looped)

    product = hilton_milnor(desusp, W, degree_bound=N).series_product(N)
    notes = (f"{len(summands)} summands; Hall product vs tensor-algebra and free-product oracles",)
    verdict = _verdict(oracle_bs, product)
    if isinstance(verdict, Equal):
        cross = oracle_bs.compare(oracle_fp)
        if cross is not None:
            verdict = FirstDifference(*cross)
            notes = notes + ("tensor-algebra and free-product oracles disagree",)
    return VerificationReport("hilton-milnor", N, W, oracle_bs, product, verdict, notes)


def check_porter(spaces: Sequence[SpaceExpr], N: int) -> VerificationReport:
    """Product of loops of the summands times loops of the fiber wedge,
    against the free-product oracle for loops of the wedge."""
    W = N + 1
    lhs = PoincareSeries.one(N)
    looped = []
    for x in spaces:
        p = series_of(Loop(normalize(x)), N)
        if isinstance(p, Unsupported):
            return VerificationReport("porter", N, W, p, p, Skipped(p.reason))
        looped.append(p)
        lhs = lhs * p

    fiber = porter_fiber(spaces)
    if isinstance(fiber, Point):
        fiber_series = PoincareSeries.one(N)
    else:
        fib = fiber if isinstance(fiber, Wedge) else Wedge((fiber,))
        desusp = [_desuspend(c) for c, k in zip(fib.children, fib.powers) for _ in range(k)]
        fiber_series = hilton_milnor(desusp, W, degree_bound=N).series_product(N)
        if isinstance(fiber_series, Unsupported):
            return VerificationReport(
                "porter", N, W, fiber_series, fiber_series, Skipped(fiber_series.reason)
            )
    lhs = lhs * fiber_series
    rhs = free_product_series(looped)
    return VerificationReport(
        "porter",
        N,
        W,
        lhs,
        rhs,
        _verdict(lhs, rhs),
        (f"fiber wedge expanded through Hall brackets at W={W}",),
    )


def check_wedge_case(
    K: SimplicialComplex, spaces: Sequence[SpaceExpr], N: int
) -> VerificationReport:
    """The wedge-coproduct decomposition at the full simplex, where loops of
    the coproduct are loops of the wedge and the free-product oracle applies."""
    W = N + 1
    if not K.has_face(range(1, K.m + 1)):
        raise ValueError("the wedge case needs the full simplex as the complex")
    dec = loop_decompose_wedge(K, spaces, W, degree_bound=N)
    lhs = dec.series_product(N)
    looped = [series_of(Loop(normalize(x)), N) for x in spaces]
    for p in looped:
        if isinstance(p, Unsupported):
            return VerificationReport(
                "wedge-case", N, W, lhs, p, Skipped(f"rhs: {p.reason}")
            )
    rhs = free_product_series(looped)
    return VerificationReport("wedge-case", N, W, lhs, rhs, _verdict(lhs, rhs))


def counterexample_inputs() -> tuple[SimplicialComplex, list[SpaceExpr]]:
    """The boundary of the square with an infinite complex projective space
    at each vertex: the join of two pairs of points."""
    square = join(build(2, [[1], [2]]), build(2, [[1], [2]]))
    return square, [CP_INFINITY] * 4


def check_counterexample(N: int) -> VerificationReport:
    """Coproducts do not split over joins: the decomposition over the square
    (a finite product of circles and loops of 3-spheres) differs from loops of
    the wedge of two products, starting in degree 3."""
    W = N + 1
    square, spaces = counterexample_inputs()
    dec = loop_decompose_wedge(square, spaces, 1)
    lhs = dec.series_product(N)
    pp = Product((CP_INFINITY, CP_INFINITY))
    rhs = series_of(Loop(Wedge((pp, pp))), N)
    return VerificationReport(
        "join-counterexample",
        N,
        W,
        lhs,
        rhs,
        _verdict(lhs, rhs),
        (
            "a difference is the expected outcome: the coproduct over a join "
            "is not the wedge of the factor coproducts",
        ),
    )


def check_disjoint_union(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    spaces: Sequence[SpaceExpr],
    N: int,
) -> VerificationReport:
    """Multiplicativity over disjoint unions: the series of the union
    decomposition equals the product of the component series."""
    W = N + 1
    K = disjoint_union(K1, K2)
    lhs = loop_decompose_wedge(K, spaces, W, degree_bound=N).series_product(N)
    union = disjoint_union_decomp(K1, K2, spaces, W, degree_bound=N)
    rhs = union.series_product(N)
    return VerificationReport("disjoint-union", N, W, lhs, rhs, _verdict(lhs, rhs))


def run_reports(reports: Sequence[VerificationReport]) -> list[VerificationReport]:
    """Deterministic ordering for batched output."""
    return sorted(reports, key=lambda r: r.name)
