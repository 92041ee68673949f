"""Span recorder for the traced run.

The benchmark wraps the public functions of each polyco layer where they are
called: in the defining module, in every module that imported the name (decomp
and verify do `from .liealg import hall_basis`), and on the class for methods.
A span records the layer, the function, its start and end, the request id and
the parent span.  Spans are kept in compact arrays and written out when the
run ends.  A function that is already open on the stack (normalize, render,
expr_to_json and series_of recurse) opens a span only at its outermost call.

Self time is a span's duration minus the durations of its child spans.  The
tracer's own bookkeeping after a call (the counters below) is subtracted from
the parent as well, so it lands in no layer; it still shows in
trace.overhead_ratio.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (layer key, module, attribute); "Class.method" wraps a method on its class.
# Several functions may share one key: decomp.engine covers the four engines.
TARGETS = (
    ("series.series_of", "polyco.series", "series_of"),
    ("series.mul", "polyco.series", "PoincareSeries.__mul__"),
    ("series.invert", "polyco.series", "PoincareSeries.invert"),
    ("liealg.hall_basis", "polyco.liealg", "hall_basis"),
    ("liealg.stats", "polyco.liealg", "stats"),
    ("decomp.engine", "polyco.decomp", "loop_decompose"),
    ("decomp.engine", "polyco.decomp", "loop_decompose_wedge"),
    ("decomp.engine", "polyco.decomp", "loop_decompose_contractible"),
    ("decomp.engine", "polyco.decomp", "hilton_milnor"),
    ("decomp.to_json", "polyco.decomp", "Decomposition.to_json"),
    ("decomp.series_product", "polyco.decomp", "Decomposition.series_product"),
    ("spacexpr.normalize", "polyco.spacexpr", "normalize"),
    ("spacexpr.render", "polyco.spacexpr", "render"),
    ("spacexpr.expr_to_json", "polyco.spacexpr", "expr_to_json"),
    ("scomplex.homology", "polyco.scomplex", "homology"),
    ("scomplex.full_subcomplex", "polyco.scomplex", "full_subcomplex"),
    ("scomplex.wedge_of_spheres_type", "polyco.scomplex", "wedge_of_spheres_type"),
    ("verify.check", "polyco.verify", "check_hilton_milnor"),
    ("verify.check", "polyco.verify", "check_wedge_case"),
    ("verify.check", "polyco.verify", "check_porter"),
    ("verify.check", "polyco.verify", "check_disjoint_union"),
    ("verify.check", "polyco.verify", "check_counterexample"),
)
LAYERS = ("series", "liealg", "decomp", "spacexpr", "scomplex", "verify")
REQUEST = "request"


class Tracer:
    def __init__(self):
        self.keys: list[str] = [REQUEST]
        self.key_index = {REQUEST: 0}
        self.functions: list[str] = []
        self.function_index: dict[str, int] = {}
        # one row per span
        self.span_key = array("i")
        self.span_function = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span id, key index, child time]
        self.stack: list[list] = []
        self.open_keys: set[int] = set()
        self.request_id = -1
        self.calls = [0]
        self.self_s = [0.0]
        self.counters = {
            "liealg.hall_basis.brackets": 0,
            "decomp.factors": 0,
            "decomp.distinct_factors": 0,
            "scomplex.homology.faces": 0,
        }
        self.series_keys: set = set()

    # -- spans -------------------------------------------------------------

    def _key(self, key: str) -> int:
        if key not in self.key_index:
            self.key_index[key] = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.key_index[key]

    def _open(self, k: int, function: int) -> None:
        span = len(self.span_start)
        self.span_key.append(k)
        self.span_function.append(function)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_request.append(self.request_id)
        self.span_end.append(0.0)
        self.stack.append([span, k, 0.0])
        self.open_keys.add(k)
        self.span_start.append(perf_counter())

    def _close(self, end: float, after: float) -> None:
        span, k, child = self.stack.pop()
        self.open_keys.discard(k)
        self.span_end[span] = end
        duration = end - self.span_start[span]
        self.calls[k] += 1
        self.self_s[k] += duration - child
        if self.stack:
            # the parent also loses the bookkeeping done after this call
            self.stack[-1][2] += after - self.span_start[span]

    @contextmanager
    def request(self, request_id: int, op: str):
        """One request: the root span every layer span hangs under."""
        self.request_id = request_id
        self._open(0, self._function(op))
        try:
            yield
        finally:
            now = perf_counter()
            self._close(now, now)
            self.request_id = -1

    def _function(self, name: str) -> int:
        if name not in self.function_index:
            self.function_index[name] = len(self.functions)
            self.functions.append(name)
        return self.function_index[name]

    def wrap(self, key: str, name: str, func, post=None):
        k = self._key(key)
        function = self._function(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request_id < 0 or k in tracer.open_keys:
                return func(*args, **kwargs)
            tracer._open(k, function)
            try:
                out = func(*args, **kwargs)
            except BaseException:
                now = perf_counter()
                tracer._close(now, now)
                raise
            end = perf_counter()
            if post is not None:
                # counters call library code (normalize recurses through its
                # wrapped global); no span may open while they run
                rid, tracer.request_id = tracer.request_id, -1
                post(args, out)
                tracer.request_id = rid
            tracer._close(end, perf_counter())
            return out

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    # -- installing --------------------------------------------------------

    def install(self, pc) -> None:
        """Wrap every target in the freshly imported package `pc`; uninstall() undoes it."""
        modules = [m for n, m in sys.modules.items() if n == "polyco" or n.startswith("polyco.")]
        self.normalize = pc.spacexpr.normalize
        self.homology = pc.scomplex.homology
        self.patches: list[tuple] = []
        posts = {
            "series_of": self._post_series_of,
            "hall_basis": self._post_hall_basis,
            "homology": self._post_homology,
        }
        for key, modname, attr in TARGETS:
            module = sys.modules[modname]
            post = self._post_engine if key == "decomp.engine" else posts.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(key, attr, cls.__dict__[meth], post))
                continue
            orig = module.__dict__[attr]
            traced = self.wrap(key, attr, orig, post)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, traced)

    def _patch(self, owner, name: str, value) -> None:
        self.patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches = []

    # -- per-call counters -------------------------------------------------

    def _post_series_of(self, args, out) -> None:
        e, N = args[0], args[1]
        self.series_keys.add((self.normalize(e), N))

    def _post_hall_basis(self, args, out) -> None:
        self.counters["liealg.hall_basis.brackets"] += len(out)

    def _post_engine(self, args, out) -> None:
        self.counters["decomp.factors"] += sum(f.multiplicity for f in out.factors)
        self.counters["decomp.distinct_factors"] += len({f.expr for f in out.factors})

    def _post_homology(self, args, out) -> None:
        # faces of the complexes whose homology was computed, not looked up
        misses = self.homology.cache_info().misses
        if misses != self._homology_misses:
            self.counters["scomplex.homology.faces"] += len(args[0].faces())
            self._homology_misses = misses

    def start(self) -> None:
        self._homology_info0 = self.homology.cache_info()
        self._homology_misses = self._homology_info0.misses

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        idx = self.key_index
        for key, _mod, _attr in TARGETS:
            out[f"{key}.calls"] = self.calls[idx[key]]
            out[f"{key}.self_s"] = self.self_s[idx[key]]
        out.update(self.counters)
        calls = out["series.series_of.calls"]
        out["series.series_of.distinct_ratio"] = len(self.series_keys) / calls if calls else 0.0
        factors = out["decomp.factors"]
        out["decomp.distinct_ratio"] = out["decomp.distinct_factors"] / factors if factors else 0.0
        now, then = self.homology.cache_info(), self._homology_info0
        hits, misses = now.hits - then.hits, now.misses - then.misses
        out["scomplex.homology.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        total = sum(self.self_s)
        for layer in LAYERS:
            layer_s = sum(s for key, s in zip(self.keys, self.self_s) if key.startswith(layer + "."))
            out[f"split.{layer}"] = layer_s / total if total else 0.0
        out["split.other"] = self.self_s[0] / total if total else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tlayer\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                key = self.keys[self.span_key[i]]
                function = self.functions[self.span_function[i]]
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t{key.split('.')[0]}\t"
                    f"{function}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
