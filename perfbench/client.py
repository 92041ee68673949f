"""One benchmark client: sets up, then sends one workload's requests in a closed loop.

run.py starts this file as a child process, one per workload run, so the
library's unbounded lru_caches start cold the same way in every run and the
peak resident set belongs to this run alone.  The child caps its own address
space and times out each request itself, so a runaway request counts as
failed instead of hanging the benchmark.  It prints one JSON object on its
last line of standard output.

Times are the calling thread's CPU time, scaled to a nominal CPU speed.  On
the shared 2-vCPU Xeon VM the benchmark was written on, each vCPU's speed
flips between two levels about 1.8x apart, for seconds at a time, with no
steal time to show for it.  So a fixed stdlib-only reference loop is timed
between requests, and each request's time is multiplied by REFERENCE_S over
the mean of the reference times just before and just after it.  The library
code does not run in the reference loop, so a change to the library moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median
TRACE_PAIRS = 3  # untraced/traced pass pairs of a traced run
REQUEST_LIMIT_S = 10.0
ADDRESS_SPACE_LIMIT = 1 << 30  # bytes
WALL_LIMIT_FACTOR = 4  # no new round starts after this many times --seconds of wall time
REFERENCE_S = 0.002  # nominal time of one reference() call: about its time at that VM's fast level

_FRACTIONS = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(12)]
_WORDS = [tuple((i * 7 + j * 3) % 5 for j in range(6)) for i in range(120)]


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def reference() -> float:
    """CPU time of a fixed pure-Python loop (Fraction products, dicts, a keyed sort)."""
    t0 = thread_time()
    for _ in range(3):
        coeffs: dict[int, Fraction] = {}
        for i, a in enumerate(_FRACTIONS):
            for j, b in enumerate(_FRACTIONS):
                coeffs[i + j] = coeffs.get(i + j, 0) + a * b
        counts: dict[tuple, int] = {}
        for w in sorted(_WORDS, key=lambda w: (len(w), w)):
            counts[w] = counts.get(w, 0) + 1
    return thread_time() - t0


def scaled(run, *args):
    """Run run(*args); returns its output and its CPU time scaled to REFERENCE_S."""
    before = reference()
    t0 = thread_time()
    out = run(*args)
    cpu = thread_time() - t0
    return out, cpu * 2 * REFERENCE_S / (before + reference())


def unload_polyco() -> None:
    for name in [n for n in sys.modules if n == "polyco" or n.startswith("polyco.")]:
        del sys.modules[name]


def import_polyco():
    """Import polyco afresh from this checkout's src/ and nowhere else."""
    unload_polyco()
    pc = importlib.import_module("polyco")
    src = os.path.join(ROOT, "src", "polyco")
    if os.path.dirname(os.path.abspath(pc.__file__)) != src:
        raise ImportError(f"polyco was imported from {pc.__file__}, not from {src}")
    return pc


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "polyco" or name.startswith("polyco."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _inputs(pc, workload):
    return {s.name: [workloads.make_inputs(pc, v) for v in s.variants] for s in workload.slots}


def set_up(workload_name: str):
    """Import, build every input of the catalogue, run one warm-up request.

    Returns the package, the workload, its inputs and the scaled set-up
    time.  Each step is scaled on its own: the host's speed can flip within
    the whole.
    """
    pc, t_import = scaled(import_polyco)
    workload, t_catalogue = scaled(lambda: workloads.catalogue()[workload_name])
    inputs, t_inputs = scaled(_inputs, pc, workload)
    # the warm-up request (from the last slot, a cheap one) does not depend
    # on --seed; the caches it fills are cleared so that every run starts cold
    _, t_warm = scaled(workloads.execute, pc, inputs[workload.slots[-1].name][0])
    _, t_clear = scaled(clear_caches)
    return pc, workload, inputs, t_import + t_catalogue + t_inputs + t_warm + t_clear


class Stream:
    def __init__(self, pc, inputs, answers):
        self.pc = pc
        self.inputs = inputs
        self.answers = answers
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.reference_s = reference()

    def send(self, slot, index, tracer=None) -> float:
        """Send one request and check its output; returns its scaled latency."""
        inp = self.inputs[slot.name][index]
        rid = self.attempted
        self.attempted += 1
        out = error = None
        # the cyclic collector runs here, between requests, and not inside
        # them (see main)
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = thread_time()
        try:
            if tracer is None:
                out = workloads.execute(self.pc, inp)
            else:
                with tracer.request(rid, inp.spec["op"]):
                    out = workloads.execute(self.pc, inp)
        except RequestTimeout:
            error = f"timed out after {REQUEST_LIMIT_S} s"
        except Exception as exc:  # a failed request is data, the stream goes on
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            cpu = thread_time() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        before, self.reference_s = self.reference_s, reference()
        latency = cpu * 2 * REFERENCE_S / (before + self.reference_s)
        if error is None:
            error = workloads.check(self.pc, inp.spec, out, self.answers)
        self.latencies.append(latency)
        if error is not None:
            self.failures.append(f"{slot.name}[{index}]: {error}")
        return latency


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as fh:
        answers = json.load(fh)

    for _ in range(5):
        reference()  # the interpreter specializes its bytecode in the first calls
    setup_s = []
    for _ in range(SETUPS):
        # the previous set-up's package and inputs are collected untimed
        pc = workload = inputs = None
        unload_polyco()
        gc.collect()
        pc, workload, inputs, seconds = set_up(args.workload)
        setup_s.append(seconds)
    gc.collect()
    # Set-up objects live for the whole run; the per-request collections skip
    # them.  Automatic collection is off from here on: how often it ran inside
    # a request, and over how large a heap, depended on what earlier requests
    # had left in the caches, and spread the same request's time by up to a
    # fifth.  Each request's cyclic garbage is collected before the next one.
    gc.freeze()
    gc.disable()

    stream = Stream(pc, inputs, answers)
    rounds = workloads.rounds(workload, args.seed)
    result = {"setup_s": statistics.median(setup_s)}
    if args.trace:
        # untraced and traced passes over the same requests alternate, each
        # from cold caches; the overhead is the median of the pairs' ratios
        requests = [r for _ in range(workload.trace_rounds) for r in next(rounds)]
        ratios, passes = [], []
        for pair in range(TRACE_PAIRS):
            clear_caches()
            untraced = sum(stream.send(slot, i) for slot, i in requests)
            clear_caches()
            tracer = Tracer()
            tracer.install(pc)
            tracer.start()
            traced = sum(stream.send(slot, i, tracer) for slot, i in requests)
            tracer.uninstall()
            ratios.append(traced / untraced - 1)
            passes.append(tracer.metrics())
            if pair == 0:
                out_dir = os.path.join(HERE, "out")
                os.makedirs(out_dir, exist_ok=True)
                tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}.tsv.gz"))
        per_layer = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        per_layer["trace.overhead_ratio"] = statistics.median(ratios)
        result["per_layer"] = per_layer
    else:
        service = 0.0
        done = 0
        wall0 = perf_counter()
        while done < workload.measured_rounds(args.seconds):
            for slot, i in next(rounds):
                service += stream.send(slot, i)
            done += 1
            if perf_counter() - wall0 > WALL_LIMIT_FACTOR * args.seconds:
                break  # a much slower program still ends within the run's time limit
        result["service_s"] = service
        result["rounds"] = done
    result["latencies_s"] = stream.latencies
    result["attempted"] = stream.attempted
    result["failures"] = stream.failures
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
