"""Request catalogues, request execution and output checks for the three workloads.

A request is plain JSON data (a "spec").  Each workload is a list of slots; a
slot is a family of requests of similar cost (one function at one size), with
a fixed number of requests per round and a catalogue of variants drawn once
from CATALOGUE_SEED.  The stream for a run seed is a sequence of rounds: each
round takes `per_round` variants from every slot (walking a seeded
permutation of the slot's catalogue) and shuffles them.  A run sends a fixed
number of whole rounds, so every run has the same request mix and only the
concrete inputs and their order depend on the seed.  That is what keeps the
median, the p90 and the throughput steady from seed to seed.  The number of
rounds does not follow the time a run has taken, because later rounds reuse
cache entries that earlier ones filled: a run that fits one more round in
would run faster on average.

Nothing in this module imports polyco at import time: the client re-imports
the library for every set-up and passes the package object in.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

CATALOGUE_SEED = 2405_19258


@dataclass(frozen=True)
class Slot:
    name: str
    per_round: int
    variants: tuple[dict, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    # scaled time of one round at the commit that added the benchmark; a run
    # of --seconds sends round(--seconds / round_s) rounds
    round_s: float
    # whole rounds measured by a traced run (fixed, so per-layer counts
    # repeat exactly for a given seed)
    trace_rounds: int

    def measured_rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def spec_key(spec: dict) -> str:
    """Stable identifier of a request spec, used to look up recorded answers."""
    return _digest(spec)


# ---------------------------------------------------------------------------
# complexes and spaces as JSON data
# ---------------------------------------------------------------------------


def _cx(m: int, facets) -> dict:
    return {"m": m, "facets": sorted(sorted(f) for f in facets)}


def simplex(m: int) -> dict:
    return _cx(m, [range(1, m + 1)])


def boundary(m: int) -> dict:
    """The boundary of the (m-1)-simplex: a sphere of dimension m-2."""
    return _cx(m, combinations(range(1, m + 1), m - 1))


def _random_cx(rng: random.Random, m: int, n_facets: int, sizes: tuple[int, int]) -> dict:
    facets = {tuple(sorted(rng.sample(range(1, m + 1), rng.randint(*sizes)))) for _ in range(n_facets)}
    return _cx(m, facets)


def _spaces(rng: random.Random, k: int, pool: tuple[str, ...]) -> list[str]:
    return [rng.choice(pool) for _ in range(k)]


# ---------------------------------------------------------------------------
# catalogues
# ---------------------------------------------------------------------------


def _verify_slots(rng: random.Random) -> tuple[Slot, ...]:
    # Request cost is set by the bottom sphere degree and N together (for
    # example S^2,S^4 at N=30 runs for minutes); these classes keep every
    # request between about 2 and 150 ms at the seed commit.  Each class is
    # one slot; its variants permute the summands.
    E, P, P3 = _cx(2, [[1, 2]]), _cx(1, [[1]]), _cx(3, [[1, 2], [2, 3]])
    classes = [
        *({"op": "hilton_milnor", "spaces": [f"S{d}" for d in ds], "N": n} for ds, n in (
            ((3, 5), 22), ((3, 5), 26), ((4, 6), 28), ((4, 6), 36), ((4, 5), 24), ((4, 5), 30),
            ((5, 7), 36), ((3, 4), 18),
            ((3, 5, 7), 16), ((3, 5, 7), 18), ((4, 5, 6), 20), ((3, 4, 5), 14), ((5, 6, 7), 22),
        )),
        *({"op": "wedge_case", "spaces": sp, "N": n} for sp, n in (
            (["S2", "S3"], 16), (["S3", "CP"], 20), (["S4", "S5"], 24), (["S2", "S2"], 12), (["CP", "CP"], 16),
            (["S3", "S3", "S3"], 12), (["S3", "S4", "S5"], 12), (["S4", "S4", "S4"], 14),
            (["CP", "S3", "S4"], 12), (["S2", "S4", "S5"], 12), (["S3", "S5", "S6"], 13),
        )),
        *({"op": "porter", "spaces": sp, "N": n} for sp, n in (
            (["S2", "S3"], 24), (["S3", "S4"], 32), (["CP", "S3"], 24),
            (["S3", "S4", "S5"], 12), (["S4", "S5", "S6"], 14), (["S3", "S4", "S6"], 14),
        )),
        *({"op": "disjoint_union", "K1": k1, "K2": k2, "spaces": sp, "N": n} for k1, k2, sp, n in (
            (E, P, ["S3", "S4", "S5"], 12), (E, E, ["S3", "S4", "S3", "S5"], 10), (P3, P, ["S3", "S4", "S5", "S3"], 12),
        )),
        {"op": "counterexample", "N": 8},
        {"op": "counterexample", "N": 16},
    ]

    def permuted(spec: dict) -> dict:
        if "spaces" not in spec:
            return spec
        return {**spec, "spaces": rng.sample(spec["spaces"], len(spec["spaces"]))}

    def name(spec: dict) -> str:
        parts = [spec["op"], *spec.get("spaces", ()), f"N{spec['N']}"]
        if "K1" in spec:
            parts[1:1] = [f"m{spec['K1']['m']}+m{spec['K2']['m']}"]
        return "_".join(parts)

    return tuple(Slot(name(c), 1, tuple(permuted(c) for _ in range(6))) for c in classes)


_WEDGE_SPACES = ("S2", "S3", "S4", "CP")
_CODOMAINS = ("S2", "S3", "CP")
_DOMAINS = ("S3", "S4", "CP")


def _relabelings(rng: random.Random, K: dict, vertex_data: list, n: int, make) -> tuple[dict, ...]:
    """n specs make(K', data') for random relabelings of K.

    vertex_data[v-1] (a space, or a domain/codomain pair) moves with vertex
    v, so all variants of a slot are isomorphic requests of one cost, while
    each is a different key for the library's caches.
    """
    out = []
    for _ in range(n):
        perm = rng.sample(range(1, K["m"] + 1), K["m"])
        data = [None] * K["m"]
        for v, d in enumerate(vertex_data, start=1):
            data[perm[v - 1] - 1] = d
        out.append(make(_cx(K["m"], [[perm[v - 1] for v in f] for f in K["facets"]]), data))
    return tuple(out)


def _deep_slots(rng: random.Random) -> tuple[Slot, ...]:
    # Long Lyndon words over small alphabets.  The general and contractible
    # engines run over the whole face alphabet of {1..m} (5, 17 and 49 letters
    # for m = 3, 4, 5), so W falls as m grows; the wedge engine runs over the
    # alphabets of the maximal faces only.  Each slot is one complex shape
    # with one assignment of spaces, relabeled.  Only one slot costs more
    # than 0.5 s, so the p90 falls inside the second dearest slot.
    def wedge(W):
        return lambda K, data: {"op": "decompose_wedge", "K": K, "spaces": data, "W": W}

    def contractible(W):
        return lambda K, data: {"op": "decompose_contractible", "K": K, "codomains": data, "W": W}

    def general(W):
        return lambda K, data: {"op": "decompose", "K": K, "pairs": data, "W": W}

    def pairs(kinds: str) -> list:
        # c: contractible domain, p: point codomain, n: neither
        return [
            ["pt" if k == "c" else rng.choice(_DOMAINS), "pt" if k == "p" else rng.choice(_CODOMAINS)]
            for k in kinds
        ]

    path3 = _cx(3, [[1, 2], [2, 3]])
    square = _cx(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    cycle5 = _cx(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    shapes = (
        ("wedge_simplex2_w6", 1, simplex(3), _spaces(rng, 3, _WEDGE_SPACES), wedge(6)),
        ("wedge_triangle_m5_w5", 1, _cx(5, [[1, 2, 3], [3, 4], [4, 5], [1, 5]]), _spaces(rng, 5, _WEDGE_SPACES), wedge(5)),
        ("wedge_two_triangles_w5", 1, _cx(4, [[1, 2, 3], [1, 3, 4]]), _spaces(rng, 4, _WEDGE_SPACES), wedge(5)),
        ("wedge_simplex2_w5", 1, simplex(3), _spaces(rng, 3, _WEDGE_SPACES), wedge(5)),
        ("wedge_boundary3_w4", 2, boundary(4), _spaces(rng, 4, _WEDGE_SPACES), wedge(4)),
        ("contractible_boundary2_w6", 1, boundary(3), _spaces(rng, 3, _CODOMAINS), contractible(6)),
        ("contractible_path3_w6", 1, path3, _spaces(rng, 3, _CODOMAINS), contractible(6)),
        ("contractible_square_w3", 1, square, _spaces(rng, 4, _CODOMAINS), contractible(3)),
        ("contractible_boundary3_w3", 1, boundary(4), _spaces(rng, 4, _CODOMAINS), contractible(3)),
        ("contractible_cycle5_w2", 1, cycle5, _spaces(rng, 5, _CODOMAINS), contractible(2)),
        ("contractible_boundary4_w2", 1, boundary(5), _spaces(rng, 5, _CODOMAINS), contractible(2)),
        ("general_simplex2_w6", 1, simplex(3), pairs("cpn"), general(6)),
        ("general_square_w3", 1, square, pairs("cpnn"), general(3)),
        ("general_cycle5_w2", 1, cycle5, pairs("cpnnc"), general(2)),
    )
    return tuple(Slot(name, k, _relabelings(rng, K, data, 12, make)) for name, k, K, data, make in shapes)


def _wide_slots(rng: random.Random) -> tuple[Slot, ...]:
    # The decomposition at W = 2 runs over the face alphabet of {1..m}: 321
    # letters and 51,681 brackets for m = 7, 129 letters for m = 6.  On m = 7
    # its cost grows with the number of missing faces (sparse complexes run
    # for up to 6 s), so m = 7 is the boundary of the 6-simplex; sparse
    # complexes, with thousands of distinct supports and certificate calls,
    # come in at m = 6.  Each slot is one complex shape drawn once and then
    # relabeled (the boundary of the 7-simplex sits on 8 of 10 vertices so
    # that relabeling moves it), so no two requests of a run share a complex
    # and the homology cache is hit only by subcomplexes.
    def decomposition(K, data):
        return {"op": "complex", "K": K, "decompose": {"codomains": data, "W": 2}}

    def homology_only(K, data):
        return {"op": "complex", "K": K}

    shapes = [("complex_boundary6_decompose_w2", boundary(7), decomposition)]
    for t in (4, 5, 6):
        shapes.append((f"complex_m6_{t}_triangles_decompose_w2", _random_cx(rng, 6, t, (3, 3)), decomposition))
    shapes.append(("complex_boundary7_m10", _cx(10, combinations(range(1, 9), 7)), homology_only))
    for i in range(4):
        shapes.append((f"complex_large_{i}", _random_cx(rng, rng.choice((9, 10)), 4, (6, 7)), homology_only))
    for i in range(16):
        shapes.append((f"complex_small_{i}", _random_cx(rng, rng.choice((8, 9, 10)), rng.randint(5, 10), (2, 4)), homology_only))
    return tuple(
        Slot(name, 1, _relabelings(rng, K, _spaces(rng, K["m"], _CODOMAINS), 24, make)) for name, K, make in shapes
    )


def catalogue() -> dict[str, Workload]:
    return {
        "verify": Workload("verify", _verify_slots(random.Random(CATALOGUE_SEED)), 0.62, 2),
        "decompose-deep": Workload("decompose-deep", _deep_slots(random.Random(CATALOGUE_SEED + 1)), 1.75, 1),
        "complexes-wide": Workload("complexes-wide", _wide_slots(random.Random(CATALOGUE_SEED + 2)), 2.85, 1),
    }


def rounds(workload: Workload, seed: int):
    """Endless seeded stream of rounds; each round is a list of (slot, variant index)."""
    rng = random.Random(seed)
    orders = {s.name: [] for s in workload.slots}
    while True:
        batch = []
        for slot in workload.slots:
            order = orders[slot.name]
            for _ in range(slot.per_round):
                if not order:
                    order.extend(rng.sample(range(len(slot.variants)), len(slot.variants)))
                batch.append((slot, order.pop()))
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# turning specs into library inputs, running them and checking the outputs
# ---------------------------------------------------------------------------


class Inputs(NamedTuple):
    """Library objects built from one spec during set-up."""

    spec: dict
    args: tuple


def _space(pc, token: str):
    if token == "pt":
        return pc.POINT
    if token == "CP":
        return pc.CP_INFINITY
    return pc.Sphere(int(token[1:]))


def _complex(pc, data: dict):
    return pc.build(data["m"], data["facets"])


def make_inputs(pc, spec: dict) -> Inputs:
    op = spec["op"]
    if op in ("hilton_milnor", "porter"):
        return Inputs(spec, ([_space(pc, t) for t in spec["spaces"]], spec["N"]))
    if op == "wedge_case":
        m = len(spec["spaces"])
        return Inputs(spec, (pc.build(m, [range(1, m + 1)]), [_space(pc, t) for t in spec["spaces"]], spec["N"]))
    if op == "disjoint_union":
        sp = [_space(pc, t) for t in spec["spaces"]]
        return Inputs(spec, (_complex(pc, spec["K1"]), _complex(pc, spec["K2"]), sp, spec["N"]))
    if op == "counterexample":
        return Inputs(spec, (spec["N"],))
    K = _complex(pc, spec["K"])
    if op == "decompose_wedge":
        return Inputs(spec, (K, [_space(pc, t) for t in spec["spaces"]], spec["W"]))
    if op == "decompose_contractible":
        pairs = pc.PairAssignment.path_fibrations([_space(pc, t) for t in spec["codomains"]])
        return Inputs(spec, (K, pairs, spec["W"]))
    if op == "decompose":
        pairs = pc.PairAssignment.of([(_space(pc, d), _space(pc, c)) for d, c in spec["pairs"]])
        return Inputs(spec, (K, pairs, spec["W"]))
    if op == "complex":
        dec = spec.get("decompose")
        if dec is None:
            return Inputs(spec, (K, None, None))
        pairs = pc.PairAssignment.path_fibrations([_space(pc, t) for t in dec["codomains"]])
        return Inputs(spec, (K, pairs, dec["W"]))
    raise ValueError(f"unknown request op {op!r}")


_CHECKS = {
    "hilton_milnor": "check_hilton_milnor",
    "porter": "check_porter",
    "wedge_case": "check_wedge_case",
    "disjoint_union": "check_disjoint_union",
    "counterexample": "check_counterexample",
}
_ENGINES = {
    "decompose_wedge": "loop_decompose_wedge",
    "decompose_contractible": "loop_decompose_contractible",
    "decompose": "loop_decompose",
}


def execute(pc, inp: Inputs):
    """Run one request through the public entry points; returns its output.

    Functions are looked up on the package at call time so that the traced
    run sees its wrappers.  A decomposition is followed by to_json(), which
    is what the command line emits.
    """
    op = inp.spec["op"]
    if op in _CHECKS:
        return getattr(pc, _CHECKS[op])(*inp.args)
    if op in _ENGINES:
        dec = getattr(pc, _ENGINES[op])(*inp.args)
        dec.to_json()
        return dec
    K, pairs, W = inp.args
    prof = pc.homology(K)
    wst = pc.wedge_of_spheres_type(K)
    dec = None
    if pairs is not None:
        dec = pc.loop_decompose_contractible(K, pairs, W)
        dec.to_json()
    return prof, wst, dec


def _factor_digest(pc, dec) -> str:
    # keyed on the factor text with multiplicities summed, so a listing by
    # letter-count class with multiplicities digests like one factor per bracket
    counts: dict[str, int] = {}
    for f in dec.factors:
        text = pc.render(f.expr)
        counts[text] = counts.get(text, 0) + f.multiplicity
    return _digest(counts)


EXPECTED_COUNTEREXAMPLE = "FirstDifference(degree 3: 20 vs 24)"


def answer_digest(pc, spec: dict, out) -> str | None:
    """The digest recorded for requests whose answer has no closed form."""
    op = spec["op"]
    if op in _ENGINES:
        return _factor_digest(pc, out)
    if op == "complex":
        prof, wst, dec = out
        return _digest(
            {
                "ranks": list(prof.ranks),
                "wedge_type": None if wst is None else list(wst),
                "factors": None if dec is None else _factor_digest(pc, dec),
            }
        )
    return None


def check(pc, spec: dict, out, answers: dict[str, str]) -> str | None:
    """None when the output is right, else a one-line reason."""
    op = spec["op"]
    if op in _CHECKS:
        want = EXPECTED_COUNTEREXAMPLE if op == "counterexample" else "Equal"
        got = str(out.verdict)
        return None if got == want else f"verdict {got}, expected {want}"
    if op == "complex":
        reason = check_homology(spec, out)
        if reason:
            return reason
    want = answers.get(spec_key(spec))
    if want is None:
        return "no recorded answer for this request"
    got = answer_digest(pc, spec, out)
    return None if got == want else f"output digest {got}, recorded {want}"


def check_homology(spec: dict, out) -> str | None:
    """Independent checks of reduced Betti numbers against the face counts."""
    prof, wst, _ = out
    K = spec["K"]
    # f-vector from the facets, without the library: all nonempty subsets
    faces = set()
    for f in K["facets"]:
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    reduced_euler = -1 + sum((-1) ** (len(f) - 1) for f in faces)
    alternating = sum((-1) ** d * r for d, r in enumerate(prof.ranks))
    if alternating != reduced_euler:
        return f"ranks {list(prof.ranks)} miss reduced Euler characteristic {reduced_euler}"
    covered = sorted({v for f in K["facets"] for v in f})
    k = len(covered)
    if k >= 2 and K["facets"] == [list(f) for f in combinations(covered, k - 1)]:
        # the boundary of a simplex on k vertices is a (k-2)-sphere
        want = [0] * (k - 2) + [1]
        if list(prof.ranks) != want:
            return f"boundary of a simplex gave ranks {list(prof.ranks)}, expected {want}"
    if wst is not None:
        expanded = [d for d, r in enumerate(prof.ranks) for _ in range(r)]
        if sorted(d for d in wst if d >= 0) != expanded:
            return f"wedge type {list(wst)} disagrees with ranks {list(prof.ranks)}"
    return None
